"""The three benchmark workloads: inputs from a seed, one pass, its gates.

Each workload is one client in one process calling the library in a closed
loop.  ``make_inputs(seed)`` builds everything the passes need; ``run_pass``
runs one pass and checks every operation's output against a closed form or
identity, inside ``gate()`` so the benchmark's own checking time can be kept
out of the program's time.  An ``OptomechError`` fails its operation (and
every later operation that needed its output); it is counted, never retried.

Tolerances are the library's own where it has one for the same quantity:
verification.py (Wigner identities 1e-5, mean outcome 1e-5 relative,
3 binomial standard errors for Monte-Carlo acceptance), validate_state's
defaults (trace 1e-8, Hermiticity 1e-10 of the largest element) and the
tier-1 tests (moments, purity and Fock round trip 1e-6).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from optomech import cli
from optomech import measurement as ms
from optomech import protocol as pr
from optomech import states as st
from optomech import wigner as wg
from optomech.errors import OptomechError

TRACE_TOL = 1e-8
HERMIT_TOL = 1e-10
WIGNER_TOL = 1e-5
MEAN_OUTCOME_RTOL = 1e-5
MOMENT_TOL = 1e-6
MEAN_TOL = 1e-9
ROUND_TRIP_TOL = 1e-6
MC_SIGMAS = 3.0
HERMIT_TILE = 128  # tile edge that keeps the transposed read in cache


@dataclass
class PassResult:
    """Operations attempted and failed in one pass, with the reasons."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    units: int = 0  # pipeline states completed (large_grid's throughput unit)

    def check(self, label, error):
        """Count one operation; ``error`` is None when its gate passed."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{label}: {error}")

    def lost(self, label, exc, count):
        """Count ``count`` operations that an exception kept from finishing."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


def _hermiticity_residual(rho):
    """max |rho - rho^dag|, tile by tile (a whole-matrix transpose at
    n=2048 costs five times as much)."""
    n, t = rho.shape[0], HERMIT_TILE
    return max(float(np.max(np.abs(rho[i:i + t, j:j + t]
                                   - rho[j:j + t, i:i + t].conj().T)))
               for i in range(0, n, t) for j in range(i, n, t))


def _density_error(state):
    """None when state has unit trace and is Hermitian, else the reason."""
    rho = state.rho
    scale = float(np.max(np.abs(rho)))
    if not math.isfinite(scale):
        return "non-finite density matrix"
    trace = state.trace()
    if not abs(trace - 1.0) <= TRACE_TOL:
        return f"trace {trace!r}"
    # non-finite entries were caught by the scale check above
    herm = _hermiticity_residual(rho)
    if not herm <= HERMIT_TOL * scale:
        return f"not Hermitian ({herm:.3e})"
    return None


def _close_error(what, measured, target, tol, relative=False):
    bound = tol * abs(target) if relative else tol
    if abs(measured - target) <= bound:
        return None
    return f"{what} {measured!r} vs {target!r} (tolerance {bound:.3e})"


# ---------------------------------------------------------------------------
# verify_suite: the paper's reproduction criteria through the CLI
# ---------------------------------------------------------------------------

class VerifySuite:
    name = "verify_suite"
    grid_sizes = (512, 1024, 2048)  # fixed inside optomech.verification

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def make_inputs(self, seed):
        # the suite's seed is fixed inside verification; nothing to generate
        return None

    def run_pass(self, inputs, gate):
        res = PassResult()
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--out", tmp])
            with gate():
                report_path = Path(tmp, "verify.json")
                if not report_path.is_file():
                    res.check("verify", f"exit {code}, no verify.json")
                    return res
                report = json.loads(report_path.read_text(encoding="utf-8"))
                rows = report.get("checks", [])
                for row in rows:
                    res.check(row["name"], None if row["passed"] else
                              f"measured {row['measured']!r} vs target "
                              f"{row['target']!r}")
                if code != 0 or not rows or not report.get("passed"):
                    res.check("verify", f"exit {code}, {len(rows)} rows, "
                              f"passed={report.get('passed')}")
        return res


# ---------------------------------------------------------------------------
# mc_campaign: two-pulse Monte Carlo plus tomography of the mean state
# ---------------------------------------------------------------------------

MC_RUNS = 500
# joint acceptances the jobs are sized to: they span the paper's 20-50 %
# while keeping the work of a pass the same for every seed
MC_ACCEPTANCE = (0.2, 0.35, 0.5)
TOMO_ANGLES = tuple(k * math.pi / 16 for k in range(16))
TOMO_CHI_P = 10.0
TOMO_SAMPLES = 100_000
FOCK_DIMS = (128, 160, 192, 256)
FOCK_TAIL_MARGIN = 1e-8  # 100x below grid_to_fock's own 1e-6 limit


@dataclass(frozen=True)
class McJob:
    config: pr.ProtocolConfig
    fock_dim: int
    tomo_seed: int


def _joint_acceptance(state, chi, omega, center, width):
    try:
        return pr.two_pulse_prepare(state, chi, omega,
                                    ms.OutcomeWindow(center, width))[1]
    except OptomechError:
        return 0.0


def _width_for(state, chi, omega, center, target):
    """Window width whose closed-form joint acceptance is target."""
    lo, hi = 0.02, 60.0
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        if _joint_acceptance(state, chi, omega, center, mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _fock_dim_for(state, chi, omega, window):
    """Smallest Fock dimension that holds the windowed state, with margin."""
    windowed = pr.two_pulse_prepare(state, chi, omega, window)[0]
    for dim in FOCK_DIMS:
        if st.grid_to_fock(windowed, dim, tail_tol=1.0).tail_mass() \
                < FOCK_TAIL_MARGIN:
            return dim
    return FOCK_DIMS[-1]


class McCampaign:
    name = "mc_campaign"
    grid_sizes = (512,)

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        # input sizing only: window widths and Fock dimensions are found on a
        # coarser grid, where Gaussian quadrature is already converged
        coarse = st.QuadratureGrid(-8.0, 8.0, 256)
        specs = (st.GaussianSpec("ground"),
                 st.GaussianSpec("thermal", nbar=rng.uniform(0.2, 1.0)),
                 st.GaussianSpec("momentum_squeezed",
                                 r=rng.uniform(0.2, 0.6)))
        jobs = []
        for spec, target in zip(specs, rng.permutation(MC_ACCEPTANCE)):
            chi = rng.uniform(0.8, 1.2)
            omega = rng.uniform(0.0, 1.0)
            center = rng.uniform(0.5, 3.0)
            state = st.make_gaussian(coarse, spec)
            width = _width_for(state, chi, omega, center, target)
            window = ms.OutcomeWindow(center, width)
            config = pr.ProtocolConfig(
                initial=spec, chi=chi, window=window, n_runs=MC_RUNS,
                seed=int(rng.integers(2**31)), omega_kick=omega,
                two_pulse=True)
            jobs.append(McJob(config, _fock_dim_for(state, chi, omega, window),
                              int(rng.integers(2**31))))
        return jobs

    def run_pass(self, jobs, gate):
        res = PassResult()
        grid = st.default_grid()
        runs = accepted = expected = variance = 0.0
        for i, job in enumerate(jobs):
            try:
                summary = pr.run_protocol(job.config, grid=grid)
            except OptomechError as exc:
                res.lost(f"job{i}.run_protocol", exc, 2)
                continue
            with gate():
                p0 = summary.closed_form_probability
                runs += summary.n_runs
                accepted += summary.n_accepted
                expected += summary.n_runs * p0
                variance += summary.n_runs * p0 * (1.0 - p0)
                res.check(f"job{i}.mean_state",
                          "no accepted runs" if summary.mean_state is None
                          else _density_error(summary.mean_state))
            if summary.mean_state is None:
                res.lost(f"job{i}.tomography", ValueError("no mean state"), 1)
                continue
            rng = np.random.Generator(np.random.PCG64(job.tomo_seed))
            try:
                wigner, report = pr.tomography(
                    summary.mean_state, TOMO_ANGLES, TOMO_CHI_P, TOMO_SAMPLES,
                    rng, fock_dim=job.fock_dim)
            except OptomechError as exc:
                res.lost(f"job{i}.tomography", exc, 1)
                continue
            with gate():
                values = [v for v in report.values()
                          if isinstance(v, (int, float))]
                finite = (np.all(np.isfinite(wigner.w))
                          and all(math.isfinite(v) for v in values))
                res.check(f"job{i}.tomography",
                          None if finite else "non-finite report")
        with gate():
            # one pooled test per pass, so a run's false-alarm rate is that of
            # check_monte_carlo's single 3-SE test
            bound = MC_SIGMAS * math.sqrt(variance)
            res.check("acceptance",
                      None if runs and abs(accepted - expected) <= bound
                      else f"{accepted:.0f} accepted of {runs:.0f}, closed "
                           f"form {expected:.1f} +- {bound:.1f}")
        return res


# ---------------------------------------------------------------------------
# large_grid: every dense kernel on n = 2048, no Monte Carlo
# ---------------------------------------------------------------------------

LARGE_GRID = (-16.0, 16.0, 2048)
LARGE_FOCK_DIM = 128
LARGE_STAGES = ("make_gaussian", "outcome_pdf", "condition_window",
                "condition_exact", "uncondition", "momentum_kick",
                "rotate_half_period", "wigner_transform", "negativity",
                "moments", "purity", "grid_to_fock", "fock_to_grid")


@dataclass(frozen=True)
class GridJob:
    spec: st.GaussianSpec
    chi: float
    omega: float
    window: ms.OutcomeWindow
    kick: float


class LargeGrid:
    name = "large_grid"
    grid_sizes = (LARGE_GRID[2],)

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        squeeze = ("momentum_squeezed", "position_squeezed")[rng.integers(2)]
        specs = (st.GaussianSpec("thermal", nbar=rng.uniform(0.2, 1.5)),
                 st.GaussianSpec(squeeze, r=rng.uniform(0.2, 0.6)),
                 st.GaussianSpec("ground", mean_x=rng.uniform(-2.0, 2.0),
                                 mean_p=rng.uniform(-2.0, 2.0)))
        return [GridJob(spec, rng.uniform(0.8, 1.2), rng.uniform(0.0, 1.0),
                        ms.OutcomeWindow(rng.uniform(1.0, 2.5),
                                         rng.uniform(0.8, 1.5)),
                        rng.uniform(-3.0, 3.0))
                for spec in specs]

    def run_pass(self, jobs, gate):
        res = PassResult()
        grid = st.QuadratureGrid(*LARGE_GRID)
        for i, job in enumerate(jobs):
            done = 0
            try:
                for label, error in self._stages(job, grid, gate):
                    done += 1
                    res.check(f"state{i}.{label}", error)
            except OptomechError as exc:
                res.lost(f"state{i}.{LARGE_STAGES[done]}", exc,
                         len(LARGE_STAGES) - done)
                continue
            res.units += 1
        return res

    @staticmethod
    def _stages(job, grid, gate):
        """Yield (stage, gate error) for each of LARGE_STAGES in order."""
        spec, chi, omega = job.spec, job.chi, job.omega
        var_x, var_p = spec.variances()
        s0 = st.make_gaussian(grid, spec)
        with gate():
            yield "make_gaussian", _density_error(s0)
        dist = ms.outcome_pdf(s0, chi)
        with gate():
            yield "outcome_pdf", _close_error(
                "mean outcome", dist.mean(), chi * (var_x + spec.mean_x**2),
                MEAN_OUTCOME_RTOL, relative=True)
        windowed, prob = ms.condition_window(s0, chi, omega, job.window)
        with gate():
            yield "condition_window", (_density_error(windowed)
                                       or (None if 0.0 < prob <= 1.0
                                           else f"probability {prob!r}"))
        exact = ms.condition_exact(windowed, ms.LinearPulseMeasurement(
            chi, omega, job.window.center))
        with gate():
            yield "condition_exact", _density_error(exact)
        unconditioned = ms.uncondition(exact, chi, omega)
        with gate():
            yield "uncondition", (_density_error(unconditioned)
                                  or _close_error(
                                      "diagonal change", float(np.max(np.abs(
                                          unconditioned.diagonal()
                                          - exact.diagonal()))), 0.0, 1e-12))
        kicked = pr.momentum_kick(unconditioned, job.kick)
        with gate():
            yield "momentum_kick", (_density_error(kicked) or _close_error(
                "diagonal change", float(np.max(np.abs(
                    kicked.diagonal() - unconditioned.diagonal()))),
                0.0, 1e-12))
        flipped = pr.rotate_half_period(kicked)
        with gate():
            yield "rotate_half_period", (
                None if np.array_equal(flipped.diagonal(),
                                       kicked.diagonal()[::-1])
                else "diagonal is not the parity flip")
        wigner = wg.wigner_transform(flipped)
        with gate():
            yield "wigner_transform", (
                _close_error("Wigner integral", wigner.integral(), 1.0,
                             WIGNER_TOL)
                or _close_error("x-marginal mismatch", float(np.max(np.abs(
                    wigner.marginal_x() - flipped.diagonal()))), 0.0,
                    WIGNER_TOL))
        w_min, w_vol = wg.negativity(wigner)
        with gate():
            yield "negativity", (None if -1.0 / math.pi - WIGNER_TOL <= w_min
                                 and 0.0 <= w_vol < math.inf
                                 else f"min W {w_min!r}, volume {w_vol!r}")
        mean_x, mean_p, got_vx, got_vp = st.moments(s0)
        with gate():
            yield "moments", (
                _close_error("<x>", mean_x, spec.mean_x, MEAN_TOL)
                or _close_error("<p>", mean_p, spec.mean_p, MEAN_TOL)
                or _close_error("Var x", got_vx, var_x, MOMENT_TOL, True)
                or _close_error("Var p", got_vp, var_p, MOMENT_TOL, True))
        pur = st.purity(s0)
        with gate():
            yield "purity", _close_error(
                "purity", pur, 0.5 / math.sqrt(var_x * var_p), MOMENT_TOL)
        fock = st.grid_to_fock(s0, LARGE_FOCK_DIM)
        with gate():
            yield "grid_to_fock", _close_error("Fock trace", fock.trace(),
                                               1.0, ROUND_TRIP_TOL)
        back = st.fock_to_grid(fock, grid)
        with gate():
            yield "fock_to_grid", _close_error(
                "round-trip residual",
                float(np.max(np.abs(back.rho - s0.rho))), 0.0, ROUND_TRIP_TOL)


def workloads(scratch: Path):
    return {w.name: w for w in (VerifySuite(scratch), McCampaign(),
                                LargeGrid())}
