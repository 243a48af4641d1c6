"""Monte-Carlo experiment: prepare, post-select, and reconstruct.

One run of the preparation stage is: draw an outcome chi x^2 + N(0, 1/2) at
a grid node drawn from the position diagonal, condition the mechanical state
on that exact outcome (the window only gates acceptance), and optionally
repeat after half a period so the second pulse's momentum kick cancels.
The ensemble of accepted runs converges to the windowed conditional state,
which the closed-form window map provides as a cross-check.

Free harmonic evolution is an ideal phase-space rotation
(X, P) -> (X cos t + P sin t, -X sin t + P cos t), applied as diagonal
phases in the Fock basis; mechanical bath coupling during the inter-pulse
interval is neglected (the rethermalization figure nbar/Q quantifies why).

Tomography measures the rotated position marginal through phase-quadrature
homodyning with strength chi_p: outcomes q = chi_p x + N(0, 1/2), i.e.
scaled samples carry a Gaussian blur of variance 1/(2 chi_p^2) which is
reported, not deconvolved.  Every angle's marginal is 2 Re sum_k
e^{-i theta k} A_k, A_k(x) = sum_m phi_{m+k}(x) phi_m(x) rho_{m+k,m} (A_0
halved), from one Fock projection.  Node j's mass is uniform on its cell
[x_j - dx/2, x_j + dx/2] before the blur, so bin probabilities p are closed
form and counts one multinomial draw over p (noiseless: their mean N p).
Filtered back-projection's ramp is rolled off by a cosine at the Nyquist.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConditioningError, DomainError, ReconstructionWarning
from .measurement import (MIN_EVENT_PROBABILITY, OutcomeWindow, _envelopes,
                          _even_map, _gram, _kick, _window_weight,
                          condition_window)
from .states import (DEFAULT_FOCK_DIM, DensityMatrixFock, DensityMatrixGrid,
                     GaussianSpec, QuadratureGrid, default_grid, grid_to_fock,
                     hermite_functions, make_gaussian)
from .wigner import WignerGrid, negativity, wigner_transform

__all__ = [
    "ProtocolConfig",
    "ProtocolSummary",
    "free_evolve",
    "momentum_kick",
    "rotate_half_period",
    "two_pulse_prepare",
    "run_protocol",
    "tomography",
    "records_to_jsonl",
]

_BLOCK_RUNS = 256  # runs per block: bounds the block arrays to a few MB
_TOMOGRAPHY_KEY = (1,)  # spawn key of the tomography; block b's is (0, b)
_RECON_STRIDE = 4  # tomography detector axis: every 4th state-grid point


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs for one Monte-Carlo campaign."""

    initial: GaussianSpec
    chi: float
    window: OutcomeWindow
    n_runs: int
    seed: int
    omega_kick: float = 0.0
    two_pulse: bool = False

    def __post_init__(self):
        if self.n_runs < 1:
            raise DomainError("n_runs must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if not (math.isfinite(self.chi) and self.chi >= 0):
            raise DomainError("chi must be finite and non-negative")
        if not math.isfinite(self.omega_kick):
            raise DomainError("omega_kick must be finite")


@dataclass
class ProtocolSummary:
    """outcomes: (n_runs, 1) floats, (n_runs, 2) for two pulses; accepted:
    (n_runs,) bools, True iff every outcome of the run hit its window."""

    n_runs: int
    n_accepted: int
    acceptance_rate: float
    acceptance_stderr: float
    closed_form_probability: float
    mean_state: DensityMatrixGrid | None
    outcomes: np.ndarray = field(repr=False)
    accepted: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def free_evolve(state: DensityMatrixFock, theta: float) -> DensityMatrixFock:
    """Ideal harmonic evolution by phase angle theta: rho_nm <- e^{-i theta (n-m)} rho_nm.

    Trace and purity are preserved exactly (diagonal phase map).  The
    rotation direction is (X, P) -> (X cos + P sin, -X sin + P cos): after a
    quarter period a momentum mean becomes a position mean.
    """
    phase = np.exp(-1j * theta * np.arange(state.dim))
    return DensityMatrixFock(state.dim,
                             state.rho * np.outer(phase, np.conj(phase)))


def momentum_kick(state: DensityMatrixGrid, omega: float) -> DensityMatrixGrid:
    """Displace momentum by omega: rho <- e^{i omega (x - x')} rho, K = 1.
    The diagonal is untouched; kicks beyond the grid's momentum Nyquist pi/dx
    would alias and raise GridError."""
    return _even_map(state, 0.0, omega, None)


def rotate_half_period(state: DensityMatrixGrid) -> DensityMatrixGrid:
    """Half-period evolution is the parity flip rho(x,x') -> rho(-x,-x'),
    exact on the symmetric grid (no basis round trip needed)."""
    return DensityMatrixGrid(state.grid, state.rho[::-1, ::-1].copy())


# ---------------------------------------------------------------------------
# two-pulse preparation
# ---------------------------------------------------------------------------

def two_pulse_prepare(state: DensityMatrixGrid, chi: float, omega: float,
                      window: OutcomeWindow):
    """Windowed two-pulse sequence: pulse, half period, pulse.

    Both pulses kick by +omega and post-select on the same window; the
    parity flip in between telescopes the kicks away, so a zero-mean-momentum
    input leaves with zero mean momentum.
    Returns (state, joint window probability).
    """
    mid, p1 = condition_window(state, chi, omega, window)
    mid = rotate_half_period(mid)
    out, p2 = condition_window(mid, chi, omega, window)
    return out, p1 * p2


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _outcomes(sq: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sq_i + N(0, 1/2) per run from variates u[:, 0], u[:, 1] in [0, 1):
    node i is the first with cdf_i >= (1 - u0) cdf_-1 (cdf a running sum of
    weights, per run or shared), of positive weight as 1 - u0 is in (0, 1];
    the noise is ndtri(u1) / sqrt(2), u1 = 0 read as 2^-54 (not -inf)."""
    node = np.count_nonzero(cdf < (1.0 - u[:, :1]) * cdf[..., -1:], axis=-1)
    return sq[node] + ndtri(np.maximum(u[:, 1], 2.0**-54)) * math.sqrt(0.5)


def run_protocol(config: ProtocolConfig,
                 grid: QuadratureGrid | None = None) -> ProtocolSummary:
    """Monte-Carlo the preparation stage; return the campaign, without any
    Wigner analysis of its mean state (None if no run is accepted).

    Each block of _BLOCK_RUNS runs draws one (runs, pulses, 2) array of
    uniforms from PCG64 on SeedSequence(seed, spawn_key=(0, block)), a row
    per run, per pulse a node then a noise variate, so run k's draws depend
    only on the seed and k.  _TOMOGRAPHY_KEY seeds tomography in `optomech
    protocol`.  Each outcome is chi x_i^2 + N(0, 1/2) at a node i of weight
    rho_ii dx (_outcomes), folded onto x > 0 as in _even_map, where the
    parity flip before a second pulse leaves the weights as they are.  Run
    k's state is rho_base o (b_k b_k^dag), b_k = U(q1) / sqrt(p1) on rho0
    (one pulse) or U(q2) U(q1)[::-1] / sqrt(p1 p2) on flipped rho0 (two):
    a kick phase (e^{i w x}; 1 for two pulses, whose kicks the flip cancels)
    times a real modulus e_k, even in x.  So the mean is _even_map of
    rho_base with the quadrant sum of e_k e_k^T / n_acc.  Accepted outcomes
    of probability <= MIN_EVENT_PROBABILITY raise ConditioningError, as in
    condition_exact; zero acceptances give an empty-ensemble summary.
    The closed form is sum fold0 W (W^2 for two pulses), W the _window_weight
    of chi x^2: the P of condition_window (two_pulse_prepare), 0 if it raises.
    """
    if grid is None:
        grid = default_grid()
    state0 = make_gaussian(grid, config.initial)
    chi, omega, window = config.chi, config.omega_kick, config.window
    _kick(grid, chi, omega)  # an aliased kick raises before any draw
    diag0 = state0.diagonal()
    half, dx = grid.n_points // 2, grid.dx
    sq = chi * grid.xs[half:] ** 2
    fold0 = (diag0[half:] + diag0[:half][::-1]) * dx
    pulses = 1 + config.two_pulse
    weight, closed_form = _window_weight(window, sq), 0.0
    p1 = float(fold0 @ weight)
    if p1 > MIN_EVENT_PROBABILITY:  # else condition_window would raise
        p2 = float(fold0 @ weight**2) / p1 if config.two_pulse else 1.0
        closed_form = p1 * p2 if p2 > MIN_EVENT_PROBABILITY else 0.0

    blocks = []  # (outcomes, accepted) per block
    mixture = np.zeros((half, half))  # sum of e_k e_k^T on x, x' > 0
    for block, start in enumerate(range(0, config.n_runs, _BLOCK_RUNS)):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(config.seed, spawn_key=(0, block))))
        u = rng.random((min(_BLOCK_RUNS, config.n_runs - start), pulses, 2))
        q, joint = np.empty((2, len(u), pulses))
        w, b = fold0, 1.0  # folded diagonal of the unnormalised state
        for j in range(pulses):
            q[:, j] = _outcomes(sq, np.cumsum(w, axis=-1), u[:, j])
            env = _envelopes(sq, q[:, j])  # x > 0 halves of even moduli
            w, b = env**2 * w, env * b
            joint[:, j] = w.sum(axis=-1)  # p1, then p1 p2
        ok = np.all((window.lo <= q) & (q <= window.hi), axis=1)
        blocks.append((q, ok))
        q, joint, b = q[ok], joint[ok], b[ok]
        probs = joint / np.column_stack([np.ones(len(q)), joint[:, :-1]])
        bad = np.flatnonzero(probs <= MIN_EVENT_PROBABILITY)  # run by run
        if bad.size:
            raise ConditioningError(f"outcome {q.flat[bad[0]]} has negligible "
                                    f"probability {probs.flat[bad[0]]:.3e}")
        mixture += _gram(b / np.sqrt(joint[:, -1:]))

    outcomes, accepted = map(np.concatenate, zip(*blocks))
    n_acc = int(np.count_nonzero(accepted))
    rate = n_acc / config.n_runs
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / config.n_runs)

    mean_state = None
    if n_acc:  # two pulses: the parity flip cancels the kicks
        base = rotate_half_period(state0) if config.two_pulse else state0
        mean_state = _even_map(base, chi, 0.0 if config.two_pulse else omega,
                               lambda _: mixture / n_acc)

    return ProtocolSummary(
        n_runs=config.n_runs, n_accepted=n_acc, acceptance_rate=rate,
        acceptance_stderr=stderr, closed_form_probability=closed_form,
        mean_state=mean_state, outcomes=outcomes, accepted=accepted)


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def _ramp_filtered(projections: np.ndarray, ds: float) -> np.ndarray:
    """(1/2pi) integral |k| g^(k) e^{iks} dk along the last axis (zero-padded
    to twice its length), rolled off by cos(k ds / 2) to 0 at the Nyquist."""
    n = projections.shape[-1]
    k = 2.0 * np.pi * np.fft.rfftfreq(2 * n, d=ds)
    return np.fft.irfft(np.fft.rfft(projections, 2 * n) * k
                        * np.cos(0.5 * ds * k), 2 * n)[..., :n]


def _rotated_marginals(rho_f: np.ndarray, phi: np.ndarray,
                       angles: np.ndarray) -> np.ndarray:
    """Position marginals of free_evolve(rho_f, theta), one row per angle:
    2 Re sum_k e^{-i theta k} A_k over offsets k >= 0 (Hermitian rho gives
    k < 0 as conjugates), one real [cos, sin] @ [Re A; Im A] product."""
    dim = phi.shape[0]
    re_im = rho_f.view(np.float64).reshape(dim, dim, 2)
    bands = np.empty((2, dim, phi.shape[1]))  # [Re A; Im A]
    for k in range(dim):
        bands[:, k] = np.diagonal(re_im, -k) @ (phi[k:] * phi[:dim - k])
    bands[:, 0] *= 0.5
    phase = np.outer(angles, np.arange(dim))
    return 2.0 * np.hstack([np.cos(phase), np.sin(phase)]) @ bands.reshape(
        2 * dim, -1)


def _bin_probabilities(marginals: np.ndarray, dx: float,
                       blur_sd: float) -> np.ndarray:
    """Detector-bin probabilities of the cell-centred law, one row per angle:
    bin b takes kappa(k), k = R b - j, R = _RECON_STRIDE, of cell j's mass,
    G(k+R/2+1/2) - G(k+R/2-1/2) - G(k-R/2+1/2) + G(k-R/2-1/2) with G(h) =
    H(h a) / a, a = dx / blur_sd, H(t) = t Phi(t) + phi(t) = max(t, 0) +
    H(-|t|): the blur-free overlap clip(R/2 + 1/2 - |k|, 0, 1) plus Gaussian
    tails H(-|h| a) / a, so nothing large cancels."""
    n = marginals.shape[1]
    r = 0.5 * _RECON_STRIDE
    k = np.arange(1 - n, n)
    t = np.abs(k[:, None] + [r + .5, r - .5, .5 - r, -.5 - r]) * dx / blur_sd
    tails = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) - t * ndtr(-t)
    kappa = np.maximum(np.clip(r + 0.5 - np.abs(k), 0.0, 1.0) + tails @ [
        1.0, -1.0, -1.0, 1.0] * (blur_sd / dx), 0.0)
    return marginals / marginals.sum(axis=1, keepdims=True) @ kappa[
        np.arange(n - 1, 2 * n - 1, _RECON_STRIDE) - np.arange(n)[:, None]]


def tomography(state: DensityMatrixGrid, angles, chi_p: float,
               samples_per_angle: int, rng: np.random.Generator,
               fock_dim: int = DEFAULT_FOCK_DIM):
    """Reconstruct the Wigner function from rotated-quadrature homodyne data.

    Each angle's marginal (one Fock projection) passes the phase-quadrature
    readout, x + N(0, 1/(2 chi_p^2)), into bins on every 4th grid point,
    with the cell-centred law's closed-form bin probabilities p, whose mean
    is the grid marginal's.  One multinomial draw gives every angle's counts
    (samples_per_angle = 0: their mean N p, the noiseless limit, with rng
    unread), and filtered back-projection yields W on the detector grid.

    Returns (WignerGrid, report): blur_variance (not deconvolved),
    clipped_mass (the largest per-angle mass outside the detector), the raw
    back-projection integral before renormalization, the correlation with
    the input's true W, and min_w and negative_volume, both with the
    back-projection streak floor (ground state: -0.010 and 0.28).
    """
    if not (math.isfinite(chi_p) and chi_p > 0):
        raise DomainError("chi_p must be finite and positive")
    if samples_per_angle < 0:
        raise DomainError("samples_per_angle must be >= 0")
    angles = np.sort(np.asarray(angles, dtype=float))  # NaN sorts last
    if not (angles.size and angles[0] >= 0.0 and angles[-1] < math.pi):
        raise DomainError("tomography needs one or more angles in [0, pi)")
    if np.unique(angles).size != angles.size:
        raise DomainError("tomography angles must be distinct")
    few = angles.size < 8 or 0 < samples_per_angle < 10_000
    xs, dx = state.grid.xs, state.grid.dx
    s_axis = xs[::_RECON_STRIDE]
    ds = float(s_axis[1] - s_axis[0])
    blur_var = 1.0 / (2.0 * chi_p**2)
    marginals = np.clip(_rotated_marginals(grid_to_fock(state, fock_dim).rho,
                                           hermite_functions(xs, fock_dim),
                                           angles), 0.0, None)

    probs = _bin_probabilities(marginals, dx, math.sqrt(blur_var))
    outside = np.clip(1.0 - probs.sum(axis=1), 0.0, None)
    if samples_per_angle:
        # rounding can lift sum(p) over 1, by at most ~n eps: renormalise
        pvals = np.column_stack([probs, outside])
        probs = rng.multinomial(samples_per_angle, pvals / pvals.sum(
            axis=1, keepdims=True))[:, :-1] / samples_per_angle
    recon = sum(np.interp(np.add.outer(s_axis * math.cos(theta),
                                       s_axis * math.sin(theta)),
                          s_axis, q, left=0.0, right=0.0)
                for theta, q in zip(angles, _ramp_filtered(probs / ds, ds)))
    recon /= 2.0 * angles.size

    raw_integral = float(np.sum(recon) * ds * ds)
    if raw_integral > 0:
        recon = recon / raw_integral
    wg = WignerGrid(s_axis.copy(), s_axis.copy(), recon)

    truth_w = wigner_transform(state, p_axis=s_axis).w[::_RECON_STRIDE, :]
    corr = float(np.sum(recon * truth_w)
                 / math.sqrt(np.sum(recon**2) * np.sum(truth_w**2)))
    if few:
        warnings.warn(f"reconstruction quality limited by angle/sample count "
                      f"(correlation {corr:.4f})", ReconstructionWarning,
                      stacklevel=2)
    w_min, w_vol = negativity(wg)
    report = {
        "n_angles": int(angles.size),
        "samples_per_angle": int(samples_per_angle),
        "chi_p": chi_p,
        "blur_variance": blur_var,
        "clipped_mass": float(outside.max()),
        "raw_integral": raw_integral,
        "correlation": corr,
        "min_w": w_min,
        "negative_volume": w_vol,
    }
    return wg, report


# ---------------------------------------------------------------------------
# external interface
# ---------------------------------------------------------------------------

def records_to_jsonl(summary: ProtocolSummary, path) -> None:
    """One JSON object per run: {"run", "outcomes", "accepted"}."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (q, ok) in enumerate(zip(summary.outcomes.tolist(),
                                        summary.accepted.tolist())):
            fh.write(json.dumps({"run": i, "outcomes": q, "accepted": ok})
                     + "\n")

