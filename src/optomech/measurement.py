"""Pulsed measurement operator, outcome statistics, and conditional states.

The measurement operator is the effective square-displacement operator
realized by amplitude-quadrature homodyning of a pulse under *linear*
coupling,

    U(x; q) = pi^(-1/4) exp(i w x) exp(-(q - chi x^2)^2 / 2),

with measurement strength chi, momentum kick w and offset outcome q
(positive q selects |x| near sqrt(q/chi)).  The dispersive scheme enters
only through its measurement strength (`params.dispersive_strengths`).

Because U is a function of position only, it acts on a grid density matrix
by elementwise row/column scaling.  The outcome density smooths the position
diagonal by a Gaussian in q - chi x^2: it folds the diagonal onto x > 0 and
evaluates only the band |q - chi x^2| <= 9.  Windowed conditioning
integrates the Gaussian outcome factor over the window in closed form (an
error-function difference); slow quadrature versions of the windowed and
unconditional maps are kept alongside as independent oracles.  The
closed-form kernels depend on x only through x^2, so one builder evaluates
them on the x >= 0 quadrant and mirrors it into the other three; the kick
phase e^{i w (x - x')} is odd in x and stays a separate factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConditioningError, DomainError, RangeError
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

DEFAULT_N_OUTCOMES = 2048
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
        if self.chi <= 0:
            raise DomainError(f"chi must be positive, got {self.chi!r}")


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


def _flushed(a: np.ndarray) -> np.ndarray:
    """Zero the entries below _FLUSH_BELOW in magnitude, in place."""
    a[np.abs(a) < _FLUSH_BELOW] = 0.0
    return a


def _envelopes(xs: np.ndarray, chi: float, outcomes):
    """Moduli |U(x; q)| of the linear-scheme Kraus diagonals: shape (n,) for
    one outcome, (m, n) for an array of m outcomes."""
    q = np.asarray(outcomes, dtype=float)[..., None]
    return np.pi ** (-0.25) * np.exp(-0.5 * (q - chi * xs**2) ** 2)


def _gram(env: np.ndarray) -> np.ndarray:
    """E^T E of real rows E, flushed in place first (a.T @ a runs as syrk).
    The kick phase of U(x; q) is q-independent, so B^T B* = phase o E^T E."""
    _flushed(env)
    return env.T @ env


def _kick_phase(phase: np.ndarray) -> np.ndarray:
    """Outer product phase (x) phase*: the kick factor e^{i w (x - x')}."""
    return phase[:, None] * np.conj(phase)[None, :]


def linear_kraus_diagonal(grid: QuadratureGrid,
                          meas: LinearPulseMeasurement) -> np.ndarray:
    """Position representation of the linear-scheme measurement operator."""
    return (np.exp(1j * meas.omega_kick * grid.xs)
            * _envelopes(grid.xs, meas.chi, meas.outcome))


# ---------------------------------------------------------------------------
# outcome statistics
# ---------------------------------------------------------------------------

# outcome_kernel: outcomes per matrix product, and the half-width of the
# band of q - chi x^2 outside which the kernel is below e^-81 of its peak
_KERNEL_BLOCK = 128
_KERNEL_CUT = 9.0


def outcome_kernel(q_axis: np.ndarray, xs: np.ndarray, chi: float,
                   weights: np.ndarray) -> np.ndarray:
    """sum_i K(q_k - chi x_i^2) w_i, K(u) = pi^(-1/2) exp(-u^2), for weights
    of shape (n,) or (k, n) on a symmetric grid xs of even length n;
    returns shape (m,) or (k, m).

    P(q_k) is this with w = rho(x_i, x_i) dx.  chi x^2 is even, so the
    weights fold onto x > 0 (x_{n-1-i}^2 is read as x_i^2, as in _even_map)
    and the kernel is a function of the ascending chi x^2.  Each block of
    _KERNEL_BLOCK outcomes takes one contiguous slice of chi x^2 within
    _KERNEL_CUT of it, beyond which K < e^-81 ~ 7e-36 of its peak, and does
    one real matrix product; no (m, n) array is built.
    """
    half = xs.size // 2
    sq = chi * xs[half:] ** 2
    folded = weights[..., half:] + weights[..., :half][..., ::-1]
    out = np.empty(folded.shape[:-1] + q_axis.shape)
    for start in range(0, q_axis.size, _KERNEL_BLOCK):
        q = q_axis[start:start + _KERNEL_BLOCK]
        lo = np.searchsorted(sq, q.min() - _KERNEL_CUT, side="left")
        hi = np.searchsorted(sq, q.max() + _KERNEL_CUT, side="right")
        band = np.exp(-(q[:, None] - sq[lo:hi]) ** 2)
        out[..., start:start + _KERNEL_BLOCK] = folded[..., lo:hi] @ band.T
    return out / np.sqrt(np.pi)


class OutcomeDistribution:
    """Sampled outcome density P(q); quantile maps uniform variates to
    outcomes through the inverse CDF."""

    def __init__(self, q_axis: np.ndarray, pdf: np.ndarray):
        self.q_axis = q_axis
        self.pdf = pdf
        self.dq = float(q_axis[1] - q_axis[0])
        # trapezoid cumulative (starting at 0) keeps inverse-CDF sampling
        # free of the half-bin bias a plain running sum would introduce
        cdf = np.concatenate([[0.0],
                              np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * self.dq)])
        self._mass = float(cdf[-1])
        self._cdf = cdf / self._mass

    @property
    def mass(self) -> float:
        """Raw integral of the sampled pdf (1 up to grid clipping)."""
        return self._mass

    def mean(self) -> float:
        return float(np.sum(self.q_axis * self.pdf) * self.dq / self._mass)

    def central_moment(self, k: int) -> float:
        mu = self.mean()
        return float(np.sum((self.q_axis - mu) ** k * self.pdf)
                     * self.dq / self._mass)

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF at uniform variate(s) u."""
        return np.interp(u, self._cdf, self.q_axis)


def outcome_pdf(state: DensityMatrixGrid, chi: float,
                n_outcomes: int = DEFAULT_N_OUTCOMES) -> OutcomeDistribution:
    """Homodyne outcome density P(q) = integral dx rho(x,x) |U(x; q)|^2.

    The density is independent of the kick (the phase cancels in U^dag U).
    It is outcome_kernel of the diagonal, folded onto x > 0 and banded to
    |q - chi x^2| <= 9, so no n_outcomes x n matrix is built.  The outcome
    range [-6, chi x_max^2 + 6] covers shot noise plus the full
    deterministic range of chi x^2 on the grid, so its tails are negligible;
    raises RangeError when n_outcomes is too coarse to resolve a mass within
    1e-4 of 1 (a coarse grid can lose mass or over-count it).
    """
    if chi < 0:
        raise DomainError("chi must be non-negative")
    if n_outcomes < 2:
        raise DomainError(f"n_outcomes must be >= 2, got {n_outcomes!r}")
    q_axis = np.linspace(-6.0, chi * state.grid.x_max**2 + 6.0, n_outcomes)
    pdf = outcome_kernel(q_axis, state.grid.xs, chi,
                         state.diagonal()) * state.grid.dx
    dist = OutcomeDistribution(q_axis, pdf)
    if not abs(dist.mass - 1.0) <= 1e-4:
        raise RangeError(f"n_outcomes = {n_outcomes} resolves a mass of "
                         f"{dist.mass:.4g}, not 1 to within 1e-4; use more "
                         "outcomes")
    return dist


# ---------------------------------------------------------------------------
# conditional and unconditional maps
# ---------------------------------------------------------------------------

def _even_map(state: DensityMatrixGrid, chi: float, omega_kick: float,
              window: OutcomeWindow | None = None) -> np.ndarray:
    """rho o K o kick phase, as a new matrix, for the closed-form maps.

    The real kernel K is the damping exp(-d^2), times the window integral
    (erf(hi - m) - erf(lo - m)) / 2 when a window is given (d, m as in
    condition_window).  It is evaluated on the x, x' > 0 quadrant and
    applied mirrored to the other three, so x_{n-1-i}^2 is read as x_i^2:
    xs[::-1] and -xs differ by rounding (up to 7.1e-15 on [-24, 24] with
    2048 points).
    """
    if chi < 0:
        raise DomainError("chi must be non-negative")
    half = state.grid.n_points // 2
    sq = chi * state.grid.xs[half:] ** 2
    d = 0.5 * (sq[:, None] - sq[None, :])
    if window is None:
        quad = np.exp(-d * d)
    else:
        m = 0.5 * (sq[:, None] + sq[None, :])
        quad = 0.5 * np.exp(-d * d) * (erf(window.hi - m) - erf(window.lo - m))
    out = _kick_phase(np.exp(1j * omega_kick * state.grid.xs))
    neg, pos = slice(None, half), slice(half, None)
    out[pos, pos] *= quad
    out[pos, neg] *= quad[:, ::-1]
    out[neg, pos] *= quad[::-1]
    out[neg, neg] *= quad[::-1, ::-1]
    out *= state.rho
    return out


def _normalized(state: DensityMatrixGrid, raw: np.ndarray, event: str):
    """(raw / P, P) with P = Tr raw; negligible or NaN P raises
    ConditioningError."""
    prob = float(np.real(np.trace(raw)) * state.grid.dx)
    if not prob > MIN_EVENT_PROBABILITY:
        raise ConditioningError(
            f"{event} has negligible probability {prob:.3e}")
    raw /= prob
    return DensityMatrixGrid(state.grid, raw), prob


def condition_exact(state: DensityMatrixGrid,
                    meas: LinearPulseMeasurement) -> DensityMatrixGrid:
    """Post-measurement state for one recorded outcome: U rho U^dag / P."""
    u = linear_kraus_diagonal(state.grid, meas)
    raw = u[:, None] * state.rho * np.conj(u)[None, :]
    return _normalized(state, raw, f"outcome {meas.outcome}")[0]


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
    raw = _even_map(state, chi, omega_kick, window)
    return _normalized(state, raw, f"window {window}")


def _simpson_map(state: DensityMatrixGrid, chi: float, omega_kick: float,
                 lo: float, hi: float, n_q: int) -> np.ndarray:
    """rho o (K o kick phase) for the oracles: K = sum_k w_k |U(x; q_k)|
    |U(x'; q_k)| over n_q (odd) Simpson nodes on [lo, hi], in chunks."""
    chunk = 512
    xs = state.grid.xs
    q_nodes = np.linspace(lo, hi, n_q)
    w = np.ones(n_q)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w = w * (hi - lo) / (n_q - 1) / 3.0
    kern = np.zeros((xs.size, xs.size))
    for start in range(0, n_q, chunk):
        kern += _gram(_envelopes(xs, chi, q_nodes[start:start + chunk])
                      * np.sqrt(w[start:start + chunk])[:, None])
    return state.rho * (kern * _kick_phase(np.exp(1j * omega_kick * xs)))


def condition_window_quadrature(state: DensityMatrixGrid, chi: float,
                                omega_kick: float, window: OutcomeWindow):
    """Quadrature oracle for condition_window: explicit Simpson sum over q.

    The kernel is sum_k w_k U(x; q_k) U*(x'; q_k) over 201 Simpson nodes,
    summed over the Kraus moduli, not the closed-form erf kernel, so the two
    q integrals stay independent; only the q-independent kick phase
    e^{i w (x - x')} is shared, as a factor outside the sum.
    """
    raw = _simpson_map(state, chi, omega_kick, window.lo, window.hi, 201)
    return _normalized(state, raw, f"window {window}")


def uncondition(state: DensityMatrixGrid, chi: float,
                omega_kick: float) -> DensityMatrixGrid:
    """Outcome-averaged (ignored-measurement) state, in closed form.

    rho_out(x, x') = rho(x, x') e^{i w (x - x')} exp(-chi^2 (x^2 - x'^2)^2 / 4);
    the diagonal is untouched, so the trace is preserved exactly.
    """
    return DensityMatrixGrid(state.grid, _even_map(state, chi, omega_kick))


def uncondition_quadrature(state: DensityMatrixGrid, chi: float,
                           omega_kick: float) -> DensityMatrixGrid:
    """Quadrature oracle for uncondition: Simpson over the full outcome line.

    The outcome range [-8.5, chi x_max^2 + 8.5] leaves sub-1e-12 Gaussian
    tails; 16001 nodes put the composite-Simpson error safely below 1e-9.
    The sum runs over the Kraus moduli, not over the closed form's
    exp(-d^2); only the q-independent kick phase is shared.
    """
    return DensityMatrixGrid(state.grid, _simpson_map(
        state, chi, omega_kick, -8.5, chi * state.grid.x_max**2 + 8.5, 16001))


# ---------------------------------------------------------------------------
# external interface
# ---------------------------------------------------------------------------

def pdf_to_csv(dist: OutcomeDistribution, path) -> None:
    """Two-column CSV (q, P) of a sampled outcome density."""
    np.savetxt(path, np.column_stack([dist.q_axis, dist.pdf]), fmt="%.12g",
               delimiter=",", header="q,P", comments="")
