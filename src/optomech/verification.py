"""End-to-end verification suite: every reproduction target in one place.

Each check returns CheckResult rows with the target, tolerance and measured
value, so the same functions back both the test suite and the `verify` CLI
command.  Targets can be overridden (keyed as "<check>.<sub>") to demo a
deliberate failure; tolerances are fixed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import params as pm
from . import protocol as pr
from . import pulse as pl
from . import states as st
from . import measurement as ms
from . import wigner as wg

__all__ = ["CheckResult", "CHECKS", "run_checks", "report_to_dict"]

DEFAULT_SEED = 2026

TABLE1_INPUTS = dict(
    wavelength=1064e-9, mass=40e-12, omega_m=2 * math.pi * 2e3,
    finesse=5e4, photon_number=1.7e9, cavity_length=750e-6,
    reflectivity=0.5, temperature=25e-3, quality_factor=5e6)


@dataclass
class CheckResult:
    name: str
    description: str
    target: float
    tolerance: float
    measured: float
    passed: bool
    detail: str = ""


def _rel(name, desc, target, rel_tol, measured, overrides) -> CheckResult:
    target = float(overrides.get(name, target))
    ok = abs(measured - target) <= rel_tol * abs(target)
    return CheckResult(name, desc, target, rel_tol, float(measured), bool(ok),
                       detail="relative tolerance")


def _abs(name, desc, target, abs_tol, measured, overrides) -> CheckResult:
    target = float(overrides.get(name, target))
    ok = abs(measured - target) <= abs_tol
    return CheckResult(name, desc, target, abs_tol, float(measured), bool(ok),
                       detail="absolute tolerance")


def _bound(name, desc, bound, measured, overrides, below=True) -> CheckResult:
    bound = float(overrides.get(name, bound))
    ok = measured < bound if below else measured > bound
    return CheckResult(name, desc, bound, 0.0, float(measured), bool(ok),
                       detail="upper bound" if below else "lower bound")


# ---------------------------------------------------------------------------
# criterion 1: parameter-table chain
# ---------------------------------------------------------------------------

def check_table1(overrides, shared) -> list[CheckResult]:
    sys = pm.SystemParams(**TABLE1_INPUTS)
    der = pm.derive(sys)
    # chi_x's 5 % band moves delta = sqrt(6 chi - 2) / chi by at most 1.26 %
    sep = wg.separation_formula(0.5, der.chi_x, 1.5)
    return [
        _rel("table1.x0", "ground-state size [m]", 10e-15, 0.03, der.x0,
             overrides),
        _rel("table1.g_lin", "coupling g/2pi [Hz]", 3.8e3, 0.02,
             der.g_lin / (2 * math.pi), overrides),
        _rel("table1.g_over_kappa", "single-photon strength", 1.9e-3, 0.03,
             der.g_over_kappa, overrides),
        _rel("table1.chi_x", "X^2 measurement strength", 1.0, 0.05,
             der.chi_x, overrides),
        _rel("table1.delta", "separation at the derived chi_x, outcome 1.5",
             2.0, 0.013, sep, overrides),
    ]


# ---------------------------------------------------------------------------
# criterion 2: windowed acceptance probabilities
# ---------------------------------------------------------------------------

def _fig2_states(grid):
    specs = {"ground": st.GaussianSpec("ground"),
             "thermal": st.GaussianSpec("thermal", nbar=2.0),
             "squeezed": st.GaussianSpec("momentum_squeezed", r=0.5)}
    return {name: st.make_gaussian(grid, spec) for name, spec in specs.items()}


def check_window_probabilities(overrides, shared) -> list[CheckResult]:
    grid = st.default_grid()
    states = _fig2_states(grid)
    cases = [("ground", 1.5, 0.149), ("thermal", 1.5, 0.145),
             ("squeezed", 6.4, 0.011)]
    out = []
    for name, center, target in cases:
        _, prob = ms.condition_window(states[name], 1.0, 0.0,
                                      ms.OutcomeWindow(center, 0.8))
        out.append(_abs(f"window_prob.{name}",
                        f"window probability, {name} input",
                        target, 0.003, prob, overrides))
    return out


# ---------------------------------------------------------------------------
# criterion 3: Monte-Carlo acceptance consistency
# ---------------------------------------------------------------------------

def check_monte_carlo(overrides, shared) -> list[CheckResult]:
    cfg = pr.ProtocolConfig(initial=st.GaussianSpec("ground"), chi=1.0,
                            window=ms.OutcomeWindow(1.5, 0.8),
                            n_runs=10_000, seed=DEFAULT_SEED)
    summary = pr.run_protocol(cfg)
    p0 = summary.closed_form_probability
    se = math.sqrt(p0 * (1 - p0) / cfg.n_runs)
    result = _abs("monte_carlo.acceptance",
                  f"MC acceptance over {cfg.n_runs} runs vs closed form",
                  p0, 3 * se, summary.acceptance_rate, overrides)
    result.detail = f"3 binomial SE = {3 * se:.4f}, seed {DEFAULT_SEED}"
    # Accepted runs are independent, E[rho_k | accepted] is the windowed
    # state rho_w and every rho_k is pure, so E ||mean - rho_w||^2_HS = (1 -
    # Tr rho_w^2) / n_acc: r has mean 1, and by Markov P(r >= 100) <= 1 %.
    rho_w = ms.condition_window(st.make_gaussian(
        st.default_grid(), cfg.initial), cfg.chi, 0.0, cfg.window)[0]
    diff = st.DensityMatrixGrid(rho_w.grid, summary.mean_state.rho - rho_w.rho)
    r = summary.n_accepted * st.purity(diff) / (1.0 - st.purity(rho_w))
    return [result, _bound("monte_carlo.mean_state", "n_acc ||mean - rho_w||"
                           "^2_HS / (1 - Tr rho_w^2), mean 1", 100.0, r,
                           overrides)]


# ---------------------------------------------------------------------------
# criterion 4: pulse-shape verification
# ---------------------------------------------------------------------------

def check_pulse(overrides, shared) -> list[CheckResult]:
    kappa, n_p, g = 1.0, 1.7e9, 1.9e-3
    env = pl.optimal_square_spectrum(kappa)
    modes = pl.cascade_integrate(env, kappa)
    chi_num = pl.numeric_square_strength(modes, n_p, g, kappa)
    kick_num = pl.numeric_momentum_kick(modes, n_p, g)
    chi_cf = pm.square_measurement_strength(n_p, g, kappa)
    kick_cf = pm.mean_momentum_kick(n_p, g, kappa)
    env_l = pl.lorentzian_spectrum(kappa)
    chi_lor = pl.numeric_square_strength(pl.cascade_integrate(env_l, kappa),
                                         n_p, g, kappa)
    # the cascade is exact, so the Lorentzian's chi error is its sampled K_0
    # log spike aliasing the 1/|omega| tails onto the band: an offset of
    # -(kappa dt / pi) ln(2 sin(pi phi)) of the DC amplitude (nearest node
    # phi dt from t = 0, phi = 0.19), weighted into chi by |alpha2|^2 as
    # Gamma(3) Gamma(4) / Gamma(7/2)^2; |ln| <= ln 2 for phi in [1/6, 5/6]
    lor_tol = 768.0 / (225.0 * math.pi**2) * kappa * env_l.dt * math.log(2.0)
    return [
        _rel("pulse.chi", "cascade chi vs sqrt(42 N) (g/k)^2", chi_cf, 0.005,
             chi_num, overrides),
        _rel("pulse.kick", "cascade kick vs (5 sqrt2/3) N g/k", kick_cf,
             0.005, kick_num, overrides),
        _bound("pulse.lorentzian", "Lorentzian-spectrum chi strictly smaller",
               chi_num, chi_lor, overrides, below=True),
        _rel("pulse.lorentzian_chi", "Lorentzian cascade chi vs "
             "sqrt(20 N) (g/k)^2", math.sqrt(20.0 * n_p) * (g / kappa) ** 2,
             lor_tol, chi_lor, overrides),
    ]


# ---------------------------------------------------------------------------
# criterion 5: mean-outcome law
# ---------------------------------------------------------------------------

def check_mean_outcome(overrides, shared) -> list[CheckResult]:
    grids = {0.0: st.default_grid(),
             2.0: st.QuadratureGrid(-12.0, 12.0, 1024),
             10.0: st.QuadratureGrid(-24.0, 24.0, 2048)}
    out = []
    for nbar, grid in grids.items():
        state = st.make_gaussian(grid, st.GaussianSpec("thermal", nbar=nbar))
        for chi in (0.5, 1.0, 2.0):
            mean = ms.outcome_pdf(state, chi).mean()
            out.append(_rel(f"mean_outcome.n{nbar:g}_chi{chi:g}",
                            f"<outcome> at nbar={nbar:g}, chi={chi:g}",
                            chi * (0.5 + nbar), 1e-5, mean, overrides))
    return out


# ---------------------------------------------------------------------------
# criteria 6 + 8: Fig-2 negativity pattern and Wigner identities
# ---------------------------------------------------------------------------

def _fig2_panels(grid):
    states = _fig2_states(grid)
    win = ms.OutcomeWindow(1.5, 0.8)
    win_h = ms.OutcomeWindow(6.4, 0.8)
    return {
        "a": states["ground"], "d": states["thermal"], "g": states["squeezed"],
        "b": ms.condition_window(states["ground"], 1.0, 0.0, win)[0],
        "e": ms.condition_window(states["thermal"], 1.0, 0.0, win)[0],
        "h": ms.condition_window(states["squeezed"], 1.0, 0.0, win_h)[0],
        "c": ms.uncondition(states["ground"], 1.0, 0.0),
        "f": ms.uncondition(states["thermal"], 1.0, 0.0),
        "i": ms.uncondition(states["squeezed"], 1.0, 0.0),
    }


def _fig2_metrics(shared):
    """Label -> (min W, negative volume, |integral W - 1|, marginal and
    purity mismatch) of the Fig-2 panels, once per run_checks call; only
    these numbers are kept, not the panels or their W."""
    if "fig2" not in shared:
        shared["fig2"] = {}
        for label, state in _fig2_panels(st.default_grid()).items():
            w = wg.wigner_transform(state)
            shared["fig2"][label] = wg.negativity(w) + (
                abs(w.integral() - 1.0),
                float(np.max(np.abs(w.marginal_x() - state.diagonal()))),
                abs(w.purity_overlap() - st.purity(state)))
    return shared["fig2"]


def check_negativity_pattern(overrides, shared) -> list[CheckResult]:
    metrics = _fig2_metrics(shared)
    out = []
    for label in ("b", "h"):
        out.append(_bound(f"negativity.min_{label}",
                          f"conditioned panel ({label}) min W below -1e-3",
                          -1e-3, metrics[label][0], overrides, below=True))
    for label in ("a", "d", "g", "c", "f", "i"):
        out.append(_bound(f"negativity.min_{label}",
                          f"panel ({label}) min W above -1e-3",
                          -1e-3, metrics[label][0], overrides, below=False))
    out.append(CheckResult(
        "negativity.volume_order",
        "negative volume (b) exceeds (e)", metrics["e"][1], 0.0,
        metrics["b"][1], bool(metrics["b"][1] > metrics["e"][1]),
        detail="input purity controls coherence"))
    return out


def check_wigner_identities(overrides, shared) -> list[CheckResult]:
    metrics = _fig2_metrics(shared).values()
    worst_norm, worst_marg, worst_pur = (max(m[i] for m in metrics)
                                         for i in (2, 3, 4))
    return [
        _bound("wigner.normalization", "worst |integral W - 1| over panels",
               1e-5, worst_norm, overrides),
        _bound("wigner.marginal", "worst marginal mismatch over panels",
               1e-5, worst_marg, overrides),
        _bound("wigner.purity", "worst purity-identity mismatch over panels",
               1e-5, worst_pur, overrides),
    ]


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalences
# ---------------------------------------------------------------------------

def check_oracles(overrides, shared) -> list[CheckResult]:
    grid = st.default_grid()
    ground = st.make_gaussian(grid, st.GaussianSpec("ground"))
    win = ms.OutcomeWindow(1.5, 0.8)
    closed, p_c = ms.condition_window(ground, 1.0, 0.3, win)
    quad, p_q = ms.condition_window_quadrature(ground, 1.0, 0.3, win)
    dev_window = max(float(np.max(np.abs(closed.rho - quad.rho))),
                     abs(p_c - p_q))
    un_closed = ms.uncondition(ground, 1.0, 0.2)
    un_quad = ms.uncondition_quadrature(ground, 1.0, 0.2)
    dev_uncond = float(np.max(np.abs(un_closed.rho - un_quad.rho)))

    wide = st.QuadratureGrid(-12.0, 12.0, 1024)
    thermal = st.make_gaussian(wide, st.GaussianSpec("thermal", nbar=2.0))
    phi = st.hermite_functions(wide.xs, 300)
    n = np.arange(300)
    fock_sum = (phi.T * (2.0**n / 3.0 ** (n + 1))) @ phi
    dev_thermal = float(np.max(np.abs(thermal.rho - fock_sum)))
    return [
        _bound("oracle.window", "windowed kernel, closed form vs quadrature",
               1e-8, dev_window, overrides),
        _bound("oracle.uncondition", "unconditional map vs outcome integral",
               1e-8, dev_uncond, overrides),
        _bound("oracle.thermal", "thermal kernel vs Fock sum", 1e-8,
               dev_thermal, overrides),
    ]


# ---------------------------------------------------------------------------
# criteria 9-12: kinematics and parameter figures
# ---------------------------------------------------------------------------

def check_momentum_cancellation(overrides, shared) -> list[CheckResult]:
    vacuum = st.make_gaussian(st.default_grid(), st.GaussianSpec("ground"))
    out, _ = pr.two_pulse_prepare(vacuum, 1.0, 5.0,
                                  ms.OutcomeWindow(0.5, 60.0))
    mean_p = abs(st.moments(out)[1])
    return [_bound("momentum.cancellation",
                   "two-pulse residual |<P>| on vacuum, kick 5", 1e-6,
                   mean_p, overrides)]


def check_physical_separation(overrides, shared) -> list[CheckResult]:
    sep = wg.physical_separation(2.0, 10e-15)
    return [_rel("separation.physical", "physical separation [m]", 28e-15,
                 0.02, sep, overrides)]


def check_strength_ratio(overrides, shared) -> list[CheckResult]:
    sweep = [(5e4, 5e4, 40e-12, 40e-12, 0.5),
             (1e5, 5e4, 40e-12, 40e-12, 0.5),
             (5e4, 2e4, 10e-12, 40e-12, 0.9),
             (7e4, 5e4, 40e-12, 20e-12, 0.25),
             (3e4, 8e4, 25e-12, 50e-12, 0.75)]
    worst = 0.0
    for f_lin, f_sq, m_lin, m_sq, r in sweep:
        p_lin = pm.SystemParams(**{**TABLE1_INPUTS, "finesse": f_lin,
                                   "mass": m_lin})
        p_sq = pm.SystemParams(**{**TABLE1_INPUTS, "finesse": f_sq,
                                  "mass": m_sq, "reflectivity": r})
        base = pm.strength_ratio(p_lin, p_sq)
        closed = pm.strength_ratio_closed_form(p_lin, p_sq)
        worst = max(worst, abs(base - closed) / closed)
    return [_bound("strength_ratio.sweep",
                   "worst base-vs-closed-form deviation over 5-point sweep",
                   0.03, worst, overrides)]


def check_rethermalization(overrides, shared) -> list[CheckResult]:
    nbar = pm.thermal_occupation(25e-3, 2 * math.pi * 2e3)
    return [_rel("rethermalization.nbar_over_q", "nbar/Q at 25 mK, Q=5e6",
                 0.05, 0.10, nbar / 5e6, overrides)]


# ---------------------------------------------------------------------------
# criterion 13: tomography round trip
# ---------------------------------------------------------------------------

def check_tomography(overrides, shared) -> list[CheckResult]:
    grid = st.default_grid()
    ground = st.make_gaussian(grid, st.GaussianSpec("ground"))
    angles = [k * math.pi / 16 for k in range(16)]
    rng = np.random.Generator(np.random.PCG64(DEFAULT_SEED))
    _, report = pr.tomography(ground, angles, 10.0, 100_000, rng)
    fig2b, _ = ms.condition_window(ground, 1.0, 0.0, ms.OutcomeWindow(1.5, 0.8))
    _, report_b = pr.tomography(fig2b, angles, 10.0, 100_000, rng)
    return [
        _bound("tomography.correlation",
               "ground-state reconstruction correlation", 0.98,
               report["correlation"], overrides, below=False),
        _bound("tomography.negativity",
               "conditioned-state min W below the ground-state streak floor",
               report["min_w"], report_b["min_w"], overrides, below=True),
    ]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CHECKS = {
    "table1": check_table1,
    "window_probabilities": check_window_probabilities,
    "monte_carlo": check_monte_carlo,
    "pulse": check_pulse,
    "mean_outcome": check_mean_outcome,
    "negativity": check_negativity_pattern,
    "oracles": check_oracles,
    "wigner_identities": check_wigner_identities,
    "momentum_cancellation": check_momentum_cancellation,
    "physical_separation": check_physical_separation,
    "strength_ratio": check_strength_ratio,
    "rethermalization": check_rethermalization,
    "tomography": check_tomography,
}


def run_checks(names=None, overrides=None) -> list[CheckResult]:
    """CheckResult rows of the named checks (every check by default), in
    order; each name must be a key of CHECKS.  The checks of one call share
    one dict (the Fig-2 panel metrics)."""
    overrides = dict(overrides or {})
    results, shared = [], {}
    for name in CHECKS if names is None else names:
        results.extend(CHECKS[name](overrides, shared))
    return results


def report_to_dict(results) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
