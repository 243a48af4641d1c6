"""Wigner functions, negativity diagnostics, and superposition-peak analysis.

The transform used throughout is

    W(x, p) = (1/pi) integral dy e^{-2 i p y} rho(x + y, x - y),

so that the p-marginal equals the position diagonal, integral W = 1, the
bound |W| <= 1/pi holds, and 2 pi integral W^2 = Tr rho^2.  On the grid the
antidiagonal coordinate y runs over multiples of dx, which keeps both x + y
and x - y on grid points; the p axis then comes straight out of an FFT.  For
Hermitian rho the integrand at -y is the conjugate of that at +y, so only
y >= 0 is gathered and each row is one Hermitian FFT (real output); an
explicit Hermiticity check on the entries read takes the place of checking
that W comes out real.  The full FFT p-range is kept (not just the plot
window) so the normalization and purity identities hold to machine accuracy
for states with wide momentum support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, DomainError
from .states import DensityMatrixGrid

__all__ = [
    "WignerGrid",
    "wigner_transform",
    "negativity",
    "separation_formula",
    "measure_separation",
    "physical_separation",
    "wigner_to_csv",
    "wigner_sidecar_json",
]

# secondary density peaks below this fraction of the global maximum are
# treated as shot-noise tails, not superposition components
PEAK_THRESHOLD = 0.05
# rows per block of the antidiagonal gather
_BLOCK_ROWS = 64


@dataclass
class WignerGrid:
    """W sampled on a rectangular phase-space grid: w[i, j] = W(x_i, p_j)."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    w: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.x_axis[1] - self.x_axis[0])

    @property
    def dp(self) -> float:
        return float(self.p_axis[1] - self.p_axis[0])

    def integral(self) -> float:
        return float(np.sum(self.w) * self.dx * self.dp)

    def marginal_x(self) -> np.ndarray:
        """integral W dp, which must reproduce the position diagonal."""
        return np.sum(self.w, axis=1) * self.dp

    def purity_overlap(self) -> float:
        """2 pi integral W^2 dx dp (equals Tr rho^2 for a faithful grid)."""
        return float(2.0 * np.pi * np.sum(self.w**2) * self.dx * self.dp)


def _antidiagonal_blocks(rho: np.ndarray):
    """Yield (rows, a) per block of rows: a[t, k] = rho[i+k, i-k] for
    i = rows.start + t and 0 <= k < width, zero where i +/- k leaves the grid.

    Row i has min(i, n-1-i) + 1 offsets, so a block is only as wide as its
    widest row.  The mirrored gather rho[i-k, i+k] is compared with conj(a)
    in the same pass; after the last block a mismatch above 1e-10 of the
    largest entry read raises DomainError, since W is real only for
    Hermitian rho.
    """
    n = rho.shape[0]
    flat = rho.reshape(-1)
    herm = scale = 0.0
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        t = np.arange(r1 - r0)[:, None]
        k = np.arange(min(r1, n - r0, n // 2))[None, :]
        inside = (k <= r0 + t) & (k + t < n - r0)
        base = (r0 + t) * (n + 1)
        a = np.where(inside, flat.take(base + k * (n - 1), mode="clip"), 0.0)
        b = np.where(inside, flat.take(base - k * (n - 1), mode="clip"), 0.0)
        herm = max(herm, float(np.max(np.abs(a - b.conj()))))
        scale = max(scale, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        yield slice(r0, r1), a
    if not herm <= 1e-10 * scale:
        raise DomainError(f"not Hermitian: max|rho - rho^dag| = {herm:.3e} "
                          f"vs scale {scale:.3e}; W would not be real")


def wigner_transform(state: DensityMatrixGrid, p_axis=None) -> WignerGrid:
    """Wigner function of a grid density matrix.

    Row x_i of W is the Fourier transform of a[i, k] = rho[x_i + y, x_i - y]
    over y = k dx, and a[i, -k] = conj(a[i, k]) for Hermitian rho, so only
    k >= 0 is gathered.  With p_axis=None the momentum axis is the full FFT
    conjugate grid (2x zero-padded, spacing pi / (2 n dx)) and each row is
    one Hermitian FFT (np.fft.hfft); pass an explicit p_axis to evaluate on
    arbitrary momentum values instead (direct transform, used for
    comparisons on square plotting grids).  Raises DomainError when rho is
    not Hermitian to 1e-10 of its largest entry read.
    """
    grid = state.grid
    n = grid.n_points
    dx = grid.dx
    ks = np.arange(n // 2)
    if p_axis is None:
        m = 2 * n
        p_axis = np.pi * (np.arange(m) - m // 2) / (m * dx)
        # (-1)^k on the input shifts the output by m/2, i.e. fftshift; the
        # Hermitian FFT hfft(a) is irfft(conj(a)) unnormalized, and irfft
        # writes straight into w
        weight = (dx / np.pi) * (-1.0) ** ks
        w = np.empty((n, m))
        for rows, a in _antidiagonal_blocks(state.rho):
            np.fft.irfft(np.conj(a) * weight[:a.shape[1]], n=m, axis=1,
                         norm="forward", out=w[rows])
    else:
        p_axis = np.asarray(p_axis, dtype=float)
        # k > 0 stands for the pair +/- k: 2 Re(a_k e^{-2 i k dx p})
        kernel = (dx / np.pi) * np.where(ks == 0, 1.0, 2.0)[:, None] \
            * np.exp(-2j * np.outer(ks * dx, p_axis))
        w = np.empty((n, p_axis.size))
        for rows, a in _antidiagonal_blocks(state.rho):
            w[rows] = (a @ kernel[:a.shape[1]]).real
    return WignerGrid(grid.xs.copy(), p_axis, w)


def negativity(wg: WignerGrid):
    """(min W, integrated negative volume) of a Wigner function."""
    neg = np.minimum(wg.w, 0.0)
    return float(wg.w.min()), float(-np.sum(neg) * wg.dx * wg.dp)


def separation_formula(sigma2: float, chi: float,
                       outcome: float) -> float | None:
    """Peak separation of a conditioned Gaussian state, in closed form.

    The conditioned position density is exp(-x^2 / 2 sigma^2) |U|^2 with
    |U|^2 = exp(-(q - chi x^2)^2); its nonzero stationary points sit at
    x^2 = (4 q chi - sigma^-2) / (4 chi^2), giving

        delta = sqrt(4 q chi - sigma^-2) / chi

    when the argument is positive, and None (a single central peak) otherwise.
    """
    if sigma2 <= 0 or chi <= 0:
        raise DomainError("sigma2 and chi must be positive")
    disc = 4.0 * outcome * chi - 1.0 / sigma2
    if disc <= 0:
        return None
    return math.sqrt(disc) / chi


def measure_separation(state: DensityMatrixGrid) -> float | None:
    """Locate the two dominant maxima of rho(x, x) and return their distance.

    Peaks are refined by a quadratic fit through the three grid points around
    each discrete maximum (the raw grid would quantize the separation); ties
    on a flat top break toward larger |x|.  Secondary maxima below 5% of the
    global maximum are ignored.  Returns the distance in quadrature units, or
    None for one peak; more than two comparable peaks raise AmbiguityError.
    """
    diag = state.diagonal()
    xs = state.grid.xs
    left = diag[1:-1] - diag[:-2]
    right = diag[1:-1] - diag[2:]
    # flag the leftmost point of flat tops once; the quadratic fit recenters
    # plateau peaks (e.g. a maximum straddled by the even grid at x = 0)
    is_peak = (left > 0) & (right >= 0)
    idx = np.where(is_peak)[0] + 1
    if idx.size == 0:
        return None
    keep = idx[diag[idx] >= PEAK_THRESHOLD * diag[idx].max()]
    if keep.size > 2:
        raise AmbiguityError(f"{keep.size} comparable peaks at "
                             f"x = {np.round(xs[keep], 3).tolist()}")
    if keep.size == 1:
        return None
    pos = []
    for i in keep:
        denom = diag[i - 1] - 2.0 * diag[i] + diag[i + 1]
        shift = 0.0 if denom == 0 else 0.5 * (diag[i - 1] - diag[i + 1]) / denom
        pos.append(float(xs[i] + shift * state.grid.dx))
    return abs(pos[1] - pos[0])


def physical_separation(delta: float, x0: float) -> float:
    """Convert a quadrature separation to meters: x_phys = sqrt(2) x0 delta."""
    if delta < 0 or x0 <= 0:
        raise DomainError("delta must be >= 0 and x0 > 0")
    return math.sqrt(2.0) * x0 * delta


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def wigner_to_csv(wg: WignerGrid, path) -> None:
    """Gnuplot nonuniform-matrix CSV: first row carries the p axis, first
    column the x axis (plot with `splot ... nonuniform matrix`)."""
    header = ",".join([str(wg.p_axis.size)] + [f"{p:.9g}" for p in wg.p_axis])
    np.savetxt(path, np.column_stack([wg.x_axis, wg.w]), fmt="%.9g",
               delimiter=",", header=header, comments="")


def wigner_sidecar_json(wg: WignerGrid, label: str = "") -> str:
    """Axes, extrema and negativity metrics as a JSON document."""
    wmin, volume = negativity(wg)
    doc = {
        "label": label,
        "x_axis": {"min": float(wg.x_axis[0]), "max": float(wg.x_axis[-1]),
                   "n": int(wg.x_axis.size)},
        "p_axis": {"min": float(wg.p_axis[0]), "max": float(wg.p_axis[-1]),
                   "n": int(wg.p_axis.size)},
        "max": float(wg.w.max()),
        "min": wmin,
        "negative_volume": volume,
        "integral": wg.integral(),
    }
    return json.dumps(doc, indent=2)
