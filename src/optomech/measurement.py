"""Pulsed measurement operator, outcome statistics, and conditional states.

The measurement operator is the effective square-displacement operator
realized by amplitude-quadrature homodyning of a pulse under *linear*
coupling,

    U(x; q) = pi^(-1/4) exp(i w x) exp(-(q - chi x^2)^2 / 2),

with measurement strength chi, momentum kick w and offset outcome q
(positive q selects |x| near sqrt(q/chi)).  The dispersive scheme enters
only through its measurement strength (`params.dispersive_strengths`).

Because U is a function of position only, every map here is
rho o K o e^{i w (x - x')} with a real kernel K, even in x and in x' since
|U| depends on x only through chi x^2.  One builder, _even_map, checks chi
and w, makes the kick phase and mirrors K from its x, x' > 0 quadrant; each
map supplies only that quadrant.  Windowed conditioning integrates the
outcome Gaussian over the window in closed form (an error-function
difference); slow quadrature versions of the windowed and unconditional
maps, summed over the Kraus moduli, are kept alongside as oracles.  The
outcome density, on the grid a mixture of shot-noise Gaussians, is sampled
finely enough that its sums are exact at every chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConditioningError, DomainError, GridError
from .states import DensityMatrixGrid, QuadratureGrid

__all__ = [
    "LinearPulseMeasurement",
    "OutcomeWindow",
    "OutcomeDistribution",
    "linear_kraus_diagonal",
    "outcome_kernel",
    "outcome_pdf",
    "condition_exact",
    "condition_window",
    "condition_window_quadrature",
    "uncondition",
    "uncondition_quadrature",
    "pdf_to_csv",
]

# conditioning below this probability is numerically meaningless
MIN_EVENT_PROBABILITY = 1e-12


@dataclass(frozen=True)
class LinearPulseMeasurement:
    """One amplitude-quadrature pulse: strength chi, kick omega_kick, outcome.

    The outcome is stored already offset (reference level minus raw homodyne
    result), so positive values select positions |x| ~ sqrt(outcome / chi).
    """

    chi: float
    omega_kick: float = 0.0
    outcome: float = 0.0

    def __post_init__(self):
        for name in ("chi", "omega_kick", "outcome"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {self!r}")
        if self.chi < 0:
            raise DomainError(f"chi must be non-negative, got {self.chi!r}")


@dataclass(frozen=True)
class OutcomeWindow:
    """Post-selection window: outcomes in center +/- width/2 are accepted."""

    center: float
    width: float

    def __post_init__(self):
        if not np.isfinite([self.center, self.width]).all():
            raise DomainError(f"window must be finite, got {self!r}")
        if self.width <= 0:
            raise DomainError(f"width must be positive, got {self.width!r}")

    @property
    def lo(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def hi(self) -> float:
        return self.center + 0.5 * self.width


# product operands are zeroed below this: no double-precision result moves,
# and the subnormal products it avoids slow the BLAS kernels several-fold
_FLUSH_BELOW = 1e-150


def _envelopes(sq: np.ndarray, outcomes):
    """Moduli |U(x; q)| of the linear-scheme Kraus diagonals at sq = chi x^2:
    shape (n,) for one outcome, (m, n) for an array of m outcomes."""
    q = np.asarray(outcomes, dtype=float)[..., None]
    return np.pi ** (-0.25) * np.exp(-0.5 * (q - sq) ** 2)


def _gram(env: np.ndarray) -> np.ndarray:
    """E^T E of real rows E, flushed in place first (a.T @ a runs as syrk).
    The kick phase of U(x; q) is q-independent, so B^T B* = phase o E^T E."""
    env[np.abs(env) < _FLUSH_BELOW] = 0.0
    return env.T @ env


def _kick(grid: QuadratureGrid, chi: float, omega_kick: float) -> np.ndarray:
    """e^{i w x} on the grid once chi is finite and >= 0 and |w| <= pi/dx,
    the momentum Nyquist beyond which the kick aliases (NaN fails both)."""
    if not 0.0 <= chi < np.inf:
        raise DomainError(f"chi must be finite and non-negative, got {chi!r}")
    if not abs(omega_kick) * grid.dx <= np.pi:
        raise GridError(f"omega_kick {omega_kick!r} exceeds the grid momentum "
                        f"Nyquist pi/dx = {np.pi / grid.dx:.2f}")
    return np.exp(1j * omega_kick * grid.xs)


def linear_kraus_diagonal(grid: QuadratureGrid,
                          meas: LinearPulseMeasurement) -> np.ndarray:
    """Position representation of the linear-scheme measurement operator."""
    return (_kick(grid, meas.chi, meas.omega_kick)
            * _envelopes(meas.chi * grid.xs**2, meas.outcome))


# ---------------------------------------------------------------------------
# outcome statistics
# ---------------------------------------------------------------------------

# outcome_kernel: outcomes per matrix product, and the half-width of the
# band of q - chi x^2 outside which the kernel is below e^-81 of its peak
_KERNEL_BLOCK = 128
_KERNEL_CUT = 9.0
# outcome_pdf's spacing h and outcome cap (32 MiB per array).  By Poisson
# summation, sums of h K(q_k - c) and its moments are off by ~exp(-pi^2/h^2),
# below double rounding for any h <= 1/2; 1/8 is ~6 samples per shot-noise sd
_OUTCOME_STEP = 0.125
_MAX_OUTCOMES = 2**22


def outcome_kernel(q_axis: np.ndarray, xs: np.ndarray, chi: float,
                   weights: np.ndarray) -> np.ndarray:
    """sum_i K(q_k - chi x_i^2) w_i, K(u) = pi^(-1/2) exp(-u^2), for weights
    of shape (n,) on a symmetric grid xs of even length n; returns shape (m,).

    P(q_k) is this with w = rho(x_i, x_i) dx.  chi x^2 is even, so the
    weights fold onto x > 0 (x_{n-1-i}^2 is read as x_i^2, as in _even_map)
    and the kernel is a function of the ascending chi x^2.  Each block of
    _KERNEL_BLOCK outcomes takes one contiguous slice of chi x^2 within
    _KERNEL_CUT of it, beyond which K < e^-81 ~ 7e-36 of its peak, and does
    one real matrix product; no (m, n) array is built.
    """
    half = xs.size // 2
    sq = chi * xs[half:] ** 2
    folded = weights[half:] + weights[:half][::-1]
    out = np.empty(q_axis.shape)
    for start in range(0, q_axis.size, _KERNEL_BLOCK):
        q = q_axis[start:start + _KERNEL_BLOCK]
        lo = np.searchsorted(sq, q.min() - _KERNEL_CUT, side="left")
        hi = np.searchsorted(sq, q.max() + _KERNEL_CUT, side="right")
        band = np.exp(-(q[:, None] - sq[lo:hi]) ** 2)
        out[start:start + _KERNEL_BLOCK] = folded[lo:hi] @ band.T
    return out / np.sqrt(np.pi)


class OutcomeDistribution:
    """Sampled outcome density P(q) on a uniform outcome axis."""

    def __init__(self, q_axis: np.ndarray, pdf: np.ndarray):
        self.q_axis = q_axis
        self.pdf = pdf
        self.dq = float(q_axis[1] - q_axis[0])
        # trapezoid rule, summed in order
        self._mass = float(np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * self.dq)[-1])

    @property
    def mass(self) -> float:
        """Trapezoid integral of the sampled pdf: the state's trace."""
        return self._mass

    def mean(self) -> float:
        return float(np.sum(self.q_axis * self.pdf) * self.dq / self._mass)

    def central_moment(self, k: int) -> float:
        mu = self.mean()
        return float(np.sum((self.q_axis - mu) ** k * self.pdf)
                     * self.dq / self._mass)


def outcome_pdf(state: DensityMatrixGrid, chi: float) -> OutcomeDistribution:
    """Homodyne outcome density P(q) = integral dx rho(x,x) |U(x; q)|^2.

    The density is independent of the kick (the phase cancels in U^dag U);
    it is outcome_kernel of the diagonal, sampled every _OUTCOME_STEP from
    -6 to chi x_max^2 + 6 or just past it, where K of every grid node is
    below e^-36.  Its mass, mean and variance are then the grid mixture's to
    rounding at every chi.  A chi whose axis would pass _MAX_OUTCOMES raises
    DomainError before any array is built.
    """
    _kick(state.grid, chi, 0.0)  # the maps' check of chi
    n_q = np.ceil((chi * state.grid.x_max**2 + 12.0) / _OUTCOME_STEP) + 1
    if n_q > _MAX_OUTCOMES:
        raise DomainError(f"chi = {chi!r} needs {n_q:.4g} outcomes on this "
                          f"grid, above the cap of {_MAX_OUTCOMES}")
    q_axis = -6.0 + _OUTCOME_STEP * np.arange(n_q)
    pdf = outcome_kernel(q_axis, state.grid.xs, chi,
                         state.diagonal()) * state.grid.dx
    return OutcomeDistribution(q_axis, pdf)


# ---------------------------------------------------------------------------
# conditional and unconditional maps
# ---------------------------------------------------------------------------

def _even_map(state: DensityMatrixGrid, chi: float, omega_kick: float,
              quadrant) -> DensityMatrixGrid:
    """rho o K o e^{i w (x - x')} as a new state, after _kick's checks: every
    position-diagonal map of the package.  K is real and even in x and in
    x'; quadrant(sq) returns it on x, x' > 0 from sq = chi x^2 there, and it
    is mirrored into the other three quadrants, so x_{n-1-i}^2 is read as
    x_i^2: xs[::-1] and -xs differ by rounding (up to 7.1e-15 on [-24, 24]
    with 2048 points).  quadrant None means K = 1, the bare kick."""
    phase = _kick(state.grid, chi, omega_kick)
    out = phase[:, None] * np.conj(phase)[None, :]
    if quadrant is not None:
        half = state.grid.n_points // 2
        quad = quadrant(chi * state.grid.xs[half:] ** 2)
        neg, pos = slice(None, half), slice(half, None)
        out[pos, pos] *= quad
        out[pos, neg] *= quad[:, ::-1]
        out[neg, pos] *= quad[::-1]
        out[neg, neg] *= quad[::-1, ::-1]
    out *= state.rho
    return DensityMatrixGrid(state.grid, out)


def _window_weight(window: OutcomeWindow, m):
    """Window integral of pi^(-1/2) exp(-(q - m)^2) dq: an erf difference."""
    return 0.5 * (erf(window.hi - m) - erf(window.lo - m))


def _damping(sq: np.ndarray) -> np.ndarray:
    """exp(-d^2), d = (sq - sq') / 2: the quadrant of uncondition."""
    return np.exp(-(0.5 * np.subtract.outer(sq, sq)) ** 2)


def _normalized(raw: DensityMatrixGrid, event: str):
    """(raw / P, P) with P = Tr raw, in place; negligible or NaN P raises
    ConditioningError."""
    prob = raw.trace()
    if not prob > MIN_EVENT_PROBABILITY:
        raise ConditioningError(
            f"{event} has negligible probability {prob:.3e}")
    raw.rho /= prob
    return raw, prob


def condition_exact(state: DensityMatrixGrid,
                    meas: LinearPulseMeasurement) -> DensityMatrixGrid:
    """Post-measurement state for one recorded outcome: U rho U^dag / P, with
    the one-row Gram of run_protocol's mean state as its quadrant."""
    raw = _even_map(state, meas.chi, meas.omega_kick,
                    lambda sq: _gram(_envelopes(sq, [meas.outcome])))
    return _normalized(raw, f"outcome {meas.outcome}")[0]


def condition_window(state: DensityMatrixGrid, chi: float, omega_kick: float,
                     window: OutcomeWindow):
    """Windowed post-selected state and its acceptance probability.

    Returns (rho_w, P_w) where rho_w is the normalized mixture of conditional
    states over outcomes in the window and P_w the window probability.
    chi = 0 degenerates to pure kinematics (kick phase only).

    Writing m = chi (x^2 + x'^2)/2 and d = chi (x^2 - x'^2)/2, the product of
    the two outcome Gaussians U(q) U*(q) is exp(-(q - m)^2 - d^2), so the
    window integral is an erf difference times the damping factor exp(-d^2).
    """
    raw = _even_map(state, chi, omega_kick, lambda sq: _damping(sq)
                    * _window_weight(window, 0.5 * np.add.outer(sq, sq)))
    return _normalized(raw, f"window {window}")


def _simpson_gram(sq: np.ndarray, lo: float, hi: float,
                  n_q: int) -> np.ndarray:
    """The oracles' quadrant: sum_k w_k |U(x; q_k)| |U(x'; q_k)| at
    sq = chi x^2 over n_q (odd) Simpson nodes on [lo, hi], in chunks."""
    chunk = 512
    q_nodes = np.linspace(lo, hi, n_q)
    w = np.where(np.arange(n_q) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    w = w * (hi - lo) / (n_q - 1) / 3.0
    kern = np.zeros((sq.size, sq.size))
    for start in range(0, n_q, chunk):
        kern += _gram(_envelopes(sq, q_nodes[start:start + chunk])
                      * np.sqrt(w[start:start + chunk])[:, None])
    return kern


def condition_window_quadrature(state: DensityMatrixGrid, chi: float,
                                omega_kick: float, window: OutcomeWindow):
    """Quadrature oracle for condition_window: explicit Simpson sum over q.

    The kernel is sum_k w_k U(x; q_k) U*(x'; q_k) over 201 Simpson nodes,
    summed over the Kraus moduli, not the closed-form erf kernel, so the two
    q integrals stay independent; only the kick phase is shared.
    """
    raw = _even_map(state, chi, omega_kick, lambda sq: _simpson_gram(
        sq, window.lo, window.hi, 201))
    return _normalized(raw, f"window {window}")


def uncondition(state: DensityMatrixGrid, chi: float,
                omega_kick: float) -> DensityMatrixGrid:
    """Outcome-averaged (ignored-measurement) state, in closed form.

    rho_out(x, x') = rho(x, x') e^{i w (x - x')} exp(-chi^2 (x^2 - x'^2)^2 / 4);
    the diagonal is untouched, so the trace is preserved exactly.
    """
    return _even_map(state, chi, omega_kick, _damping)


def uncondition_quadrature(state: DensityMatrixGrid, chi: float,
                           omega_kick: float) -> DensityMatrixGrid:
    """Quadrature oracle for uncondition: Simpson over the full outcome line.

    The outcome range [-8.5, chi x_max^2 + 8.5] leaves sub-1e-12 Gaussian
    tails; 16001 nodes put the composite-Simpson error safely below 1e-9.
    The sum runs over the Kraus moduli, not over the closed form's
    exp(-d^2); only the q-independent kick phase is shared.
    """
    hi = chi * state.grid.x_max**2 + 8.5
    return _even_map(state, chi, omega_kick,
                     lambda sq: _simpson_gram(sq, -8.5, hi, 16001))


# ---------------------------------------------------------------------------
# external interface
# ---------------------------------------------------------------------------

def pdf_to_csv(dist: OutcomeDistribution, path) -> None:
    """Two-column CSV (q, P) of a sampled outcome density."""
    np.savetxt(path, np.column_stack([dist.q_axis, dist.pdf]), fmt="%.12g",
               delimiter=",", header="q,P", comments="")
