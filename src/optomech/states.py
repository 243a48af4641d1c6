"""Mechanical quantum states on a position-quadrature grid and in Fock space.

The workhorse representation is the density matrix sampled on a uniform,
symmetric position grid, rho[i, j] = <x_i| rho |x_j>, with the plain Riemann
measure (trace = sum(diag) * dx).  Position-diagonal measurement operators
act on it by elementwise scaling, which is why this basis is preferred over
Fock space for everything except free harmonic evolution.

Quadrature convention: [X, P] = i, ground-state variance 1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DomainError, GridError, NarrowGridWarning, TruncationError

__all__ = [
    "QuadratureGrid",
    "DensityMatrixGrid",
    "DensityMatrixFock",
    "GaussianSpec",
    "default_grid",
    "make_gaussian",
    "grid_to_fock",
    "fock_to_grid",
    "moments",
    "momentum_diagonal",
    "purity",
    "validate_state",
    "hermite_functions",
    "state_to_npz",
    "state_from_npz",
    "diagonal_to_csv",
]

DEFAULT_FOCK_DIM = 128


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform symmetric grid for the dimensionless position quadrature."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_min == -self.x_max and 0 < self.x_max < math.inf):
            raise GridError("grid must be symmetric about 0 with finite "
                            f"x_max > 0, got [{self.x_min}, {self.x_max}]")
        n = self.n_points
        if n < 4 or (n & (n - 1)) != 0:
            raise GridError(f"n_points must be a power of two >= 4, got {n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def default_grid() -> QuadratureGrid:
    """x in [-8, 8], 512 points; adequate for all unit-scale Gaussian inputs."""
    return QuadratureGrid(-8.0, 8.0, 512)


@dataclass
class DensityMatrixGrid:
    """Density matrix sampled on a position grid: rho[i, j] = <x_i|rho|x_j>."""

    grid: QuadratureGrid
    rho: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        if self.rho.shape != (n, n):
            raise GridError(f"rho shape {self.rho.shape} does not match grid "
                            f"({n} points)")
        self.rho = np.ascontiguousarray(self.rho, dtype=np.complex128)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.rho)).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)) * self.grid.dx)


@dataclass
class DensityMatrixFock:
    """Density matrix in the number basis, rho[n, m] with n, m < dim."""

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        if self.rho.shape != (self.dim, self.dim):
            raise GridError(f"rho shape {self.rho.shape} does not match dim "
                            f"{self.dim}")
        self.rho = np.ascontiguousarray(self.rho, dtype=np.complex128)

    def trace(self) -> float:
        return float(np.real(np.trace(self.rho)))

    def tail_mass(self) -> float:
        """Population in the top two Fock levels (truncation diagnostic)."""
        return float(np.real(self.rho[-2, -2] + self.rho[-1, -1]))


@dataclass(frozen=True)
class GaussianSpec:
    """Recipe for a Gaussian mechanical state.

    kind is one of ground / thermal / momentum_squeezed / position_squeezed;
    nbar applies to thermal, r to the squeezed kinds.  Momentum squeezing
    means Var(P) = exp(-2r)/2 with the position spread anti-squeezed, so the
    measurement-outcome distribution broadens.
    """

    kind: str = "ground"
    nbar: float = 0.0
    r: float = 0.0
    mean_x: float = 0.0
    mean_p: float = 0.0

    _KINDS = ("ground", "thermal", "momentum_squeezed", "position_squeezed")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"kind must be one of {self._KINDS}, got "
                              f"{self.kind!r}")
        if not np.isfinite([self.nbar, self.r, self.mean_x, self.mean_p]).all():
            raise DomainError(f"spec fields must be finite, got {self!r}")
        if self.nbar < 0 or self.r < 0:
            raise DomainError("nbar and r must be non-negative")

    def variances(self):
        """(Var X, Var P) for this spec."""
        if self.kind == "ground":
            return 0.5, 0.5
        if self.kind == "thermal":
            v = 0.5 * (1.0 + 2.0 * self.nbar)
            return v, v
        if self.kind == "momentum_squeezed":
            return 0.5 * np.exp(2.0 * self.r), 0.5 * np.exp(-2.0 * self.r)
        return 0.5 * np.exp(-2.0 * self.r), 0.5 * np.exp(2.0 * self.r)


def make_gaussian(grid: QuadratureGrid, spec: GaussianSpec) -> DensityMatrixGrid:
    """Gaussian density matrix with uncorrelated X/P covariance.

    Kernel in sum/difference coordinates u = (x+x')/2, v = x - x':

        rho(x, x') = (2 pi Vx)^(-1/2) exp[-(u - <x>)^2 / (2 Vx)
                                          - Vp v^2 / 2 + i <p> v]

    which reproduces Var(X) = Vx, Var(P) = Vp and purity 1/(2 sqrt(Vx Vp)).
    The result is renormalized to unit grid trace.  On the grid v = (i - j) dx
    and u = x_min + (i + j) dx / 2, so rho[i, j] = t[i - j] h[i + j] is a
    Toeplitz factor t(v) times a Hankel factor h(u): 2 (2n - 1)
    exponentials, each factor at most its peak, so no product overflows.
    """
    var_x, var_p = spec.variances()
    sigma_x = np.sqrt(var_x)
    # warn when the analytic Gaussian tail clipped by the grid is significant
    clipped = math.erfc((grid.x_max - abs(spec.mean_x))
                        / (sigma_x * math.sqrt(2.0)))
    if clipped > 1e-6:
        warnings.warn(
            f"grid clips ~{clipped:.1e} of the position distribution; "
            "truncation error may dominate", NarrowGridWarning, stacklevel=2)
    n = grid.n_points
    v = np.arange(1 - n, n) * grid.dx
    u = np.linspace(grid.x_min, grid.x_max, 2 * n - 1)
    t = np.exp(-0.5 * var_p * v**2 + 1j * spec.mean_p * v)
    h = np.exp(-((u - spec.mean_x) ** 2) / (2.0 * var_x))
    h /= np.sum(h[::2]) * grid.dx  # unit trace: t is 1 on the diagonal
    rho = sliding_window_view(t[::-1], n)[::-1] * sliding_window_view(h, n)
    return DensityMatrixGrid(grid, rho)


# ---------------------------------------------------------------------------
# Fock basis
# ---------------------------------------------------------------------------

def hermite_functions(xs: np.ndarray, dim: int) -> np.ndarray:
    """Matrix phi[n, i] = <x_i|n> of harmonic-oscillator eigenfunctions.

    Stable two-term recurrence on the *normalized* functions:
    phi_n = sqrt(2/n) x phi_{n-1} - sqrt((n-1)/n) phi_{n-2}.
    """
    if dim < 1:
        raise DomainError("dim must be >= 1")
    phi = np.empty((dim, xs.size))
    phi[0] = np.pi ** (-0.25) * np.exp(-0.5 * xs**2)
    if dim > 1:
        phi[1] = np.sqrt(2.0) * xs * phi[0]
    for n in range(2, dim):
        phi[n] = (np.sqrt(2.0 / n) * xs * phi[n - 1]
                  - np.sqrt((n - 1) / n) * phi[n - 2])
    return phi


def _congruence_t(left: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(left @ z @ left.T).T for real left and C-contiguous complex z, as
    two real GEMMs on interleaved float64 views (numpy would promote left)."""
    half = (left @ z.view(np.float64)).view(np.complex128)
    return (left @ np.ascontiguousarray(half.T).view(np.float64)).view(
        np.complex128)


def grid_to_fock(state: DensityMatrixGrid, dim: int = DEFAULT_FOCK_DIM,
                 tail_tol: float = 1e-6) -> DensityMatrixFock:
    """Project onto the number basis: rho_nm = sum phi_n rho phi_m dx^2.

    Raises TruncationError when the top two Fock levels hold more than
    tail_tol population, i.e. dim is too small for this state.
    """
    phi = hermite_functions(state.grid.xs, dim)
    rho_f = _congruence_t(phi, state.rho).T * state.grid.dx**2
    out = DensityMatrixFock(dim, rho_f)
    tail = out.tail_mass()
    if not tail < tail_tol:
        raise TruncationError(
            f"Fock truncation too severe: top-two-level mass {tail:.3e} "
            f"(dim={dim})")
    return out


def fock_to_grid(state: DensityMatrixFock, grid: QuadratureGrid) -> DensityMatrixGrid:
    """Inverse of grid_to_fock: rho(x_i, x_j) = sum phi_n(x_i) rho_nm phi_m(x_j)."""
    phi = hermite_functions(grid.xs, state.dim)
    rho_t = np.ascontiguousarray(state.rho.T)  # the product comes out C-order
    return DensityMatrixGrid(grid, _congruence_t(phi.T, rho_t))


# ---------------------------------------------------------------------------
# moments and diagnostics
# ---------------------------------------------------------------------------

def momentum_diagonal(state: DensityMatrixGrid):
    """Momentum-space probability density from the diagonal sums of rho.

    <p|rho|p> needs rho only through s_d = sum_{i-j=d} rho_ij, and s_{-d} =
    conj(s_d) for Hermitian rho, so the density is one Hermitian FFT
    (np.fft.hfft) of s_d, d >= 0, of length 2n.  A skewed, zero-padded copy
    of rho[:, ::-1] (row i shifted right by i) holds each sum in one column.

    Returns (p_axis, density) on the FFT momentum grid (2x zero-padded);
    sum(density) * dp = trace exactly, by DFT orthogonality.
    """
    n = state.grid.n_points
    dx = state.grid.dx
    m = 2 * n
    skew = np.zeros((n, m - 1), dtype=np.complex128)
    step = skew.strides[0] + skew.strides[1]
    as_strided(skew, (n, n), (step, skew.strides[1]))[...] = state.rho[:, ::-1]
    sums = skew[:, n - 1:].sum(axis=0)
    dens = np.fft.fftshift(np.fft.hfft(sums, n=m)) * dx**2 / (2.0 * np.pi)
    p_axis = 2.0 * np.pi * (np.arange(m) - m // 2) / (m * dx)
    return p_axis, dens


def moments(state: DensityMatrixGrid):
    """(mean_x, mean_p, var_x, var_p) by grid quadrature.

    Position moments come from the diagonal; momentum moments from the
    Fourier-side diagonal.  Both use the plain Riemann measure.
    """
    xs = state.grid.xs
    dx = state.grid.dx
    diag = state.diagonal()
    norm = float(np.sum(diag) * dx)
    mean_x = float(np.sum(xs * diag) * dx / norm)
    var_x = float(np.sum((xs - mean_x) ** 2 * diag) * dx / norm)
    p_axis, p_dens = momentum_diagonal(state)
    dp = p_axis[1] - p_axis[0]
    p_norm = float(np.sum(p_dens) * dp)
    mean_p = float(np.sum(p_axis * p_dens) * dp / p_norm)
    var_p = float(np.sum((p_axis - mean_p) ** 2 * p_dens) * dp / p_norm)
    return mean_x, mean_p, var_x, var_p


def purity(state: DensityMatrixGrid) -> float:
    """Tr rho^2 under the grid measure: sum |rho_ij|^2 dx^2."""
    return float(np.sum(np.abs(state.rho) ** 2) * state.grid.dx**2)


def validate_state(state: DensityMatrixGrid) -> None:
    """Assert the density-matrix invariants; raises DomainError on violation.

    Hermitian to 1e-10 of the largest entry, unit trace to 1e-8, and
    positive: the smallest eigenvalue of the grid-measure operator rho * dx
    is above -1e-8 (discretization can produce tiny negative eigenvalues).
    """
    rho = state.rho
    scale = float(np.max(np.abs(rho)))
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm < 1e-10 * scale:
        raise DomainError(f"not Hermitian: max|rho - rho^dag| = {herm:.3e} "
                          f"vs scale {scale:.3e}")
    tr = state.trace()
    if not abs(tr - 1.0) < 1e-8:
        raise DomainError(f"trace {tr!r} deviates from 1 by {abs(tr - 1):.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T) * state.grid.dx)
    if not eigs[0] >= -1e-8:
        raise DomainError(f"negative eigenvalue {eigs[0]:.3e}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def state_to_npz(state: DensityMatrixGrid, path) -> None:
    """Self-describing binary container: grid descriptor + complex matrix."""
    np.savez_compressed(
        path,
        x_min=state.grid.x_min, x_max=state.grid.x_max,
        n_points=state.grid.n_points,
        rho=state.rho.astype("<c16"))


def state_from_npz(path) -> DensityMatrixGrid:
    with np.load(path) as data:
        grid = QuadratureGrid(float(data["x_min"]), float(data["x_max"]),
                              int(data["n_points"]))
        return DensityMatrixGrid(grid, np.asarray(data["rho"]))


def diagonal_to_csv(state: DensityMatrixGrid, path) -> None:
    """Two-column CSV (x, rho(x,x)) for plotting."""
    np.savetxt(path, np.column_stack([state.grid.xs, state.diagonal()]),
               fmt="%.12g", delimiter=",", header="x,density", comments="")
