"""State construction, Fock conversion, and moment extraction."""

import numpy as np
import pytest

from optomech import measurement as M
from optomech import protocol as PR
from optomech import states
from optomech.errors import (DomainError, GridError, NarrowGridWarning,
                             TruncationError)


def gaussian(grid, kind="ground", **fields):
    return states.make_gaussian(grid, states.GaussianSpec(kind, **fields))


def test_grid_invariants():
    g = states.default_grid()
    assert g.dx > 0
    assert g.xs[0] == -g.xs[-1]
    with pytest.raises(GridError):
        states.QuadratureGrid(-8.0, 8.0, 500)  # not a power of two
    with pytest.raises(GridError):
        states.QuadratureGrid(-7.0, 8.0, 512)  # asymmetric


def test_ground_kernel_matches_closed_form(grid, ground):
    xs = grid.xs
    expected = np.exp(-0.5 * (xs[:, None] ** 2 + xs[None, :] ** 2)) \
        / np.sqrt(np.pi)
    assert np.max(np.abs(ground.rho - expected)) < 1e-12
    assert np.max(np.abs(ground.diagonal() - np.exp(-xs**2) / np.sqrt(np.pi))) \
        < 1e-12


def test_ground_moments_and_purity(ground):
    mean_x, mean_p, var_x, var_p = states.moments(ground)
    assert abs(mean_x) < 1e-10 and abs(mean_p) < 1e-10
    assert var_x == pytest.approx(0.5, abs=1e-6)
    assert var_p == pytest.approx(0.5, abs=1e-6)
    assert states.purity(ground) == pytest.approx(1.0, abs=1e-6)


def test_thermal_zero_equals_ground(grid, ground):
    th0 = gaussian(grid, "thermal", nbar=0.0)
    assert np.max(np.abs(th0.rho - ground.rho)) < 1e-14


def test_thermal_variance_and_purity():
    wide = states.QuadratureGrid(-12.0, 12.0, 1024)
    th = gaussian(wide, "thermal", nbar=2.0)
    _, _, var_x, var_p = states.moments(th)
    assert var_x == pytest.approx(2.5, abs=1e-6)
    assert var_p == pytest.approx(2.5, abs=1e-6)
    assert states.purity(th) == pytest.approx(0.2, abs=1e-5)


@pytest.mark.parametrize("nbar,x_max,n", [(0.5, 8.0, 512), (2.0, 12.0, 1024),
                                          (10.0, 24.0, 2048)])
def test_thermal_kernel_matches_fock_sum(nbar, x_max, n):
    grid = states.QuadratureGrid(-x_max, x_max, n)
    th = gaussian(grid, "thermal", nbar=nbar)
    dim = 320
    phi = states.hermite_functions(grid.xs, dim)
    ns = np.arange(dim)
    weights = np.exp(ns * np.log(nbar) - (ns + 1) * np.log1p(nbar))
    oracle = (phi.T * weights) @ phi
    assert np.max(np.abs(th.rho - oracle)) < 1e-8


def test_squeezed_zero_equals_ground(grid, ground):
    sq0 = gaussian(grid, "momentum_squeezed", r=0.0)
    assert np.max(np.abs(sq0.rho - ground.rho)) < 1e-14


def test_momentum_squeezed_broadens_position(squeezed):
    _, _, var_x, var_p = states.moments(squeezed)
    assert var_x == pytest.approx(np.e / 2, rel=1e-6)
    assert var_p == pytest.approx(np.exp(-1) / 2, rel=1e-6)


def test_position_squeezed_is_transposed_convention(grid):
    sq = gaussian(grid, "position_squeezed", r=0.5)
    _, _, var_x, var_p = states.moments(sq)
    assert var_x == pytest.approx(np.exp(-1) / 2, rel=1e-6)
    assert var_p == pytest.approx(np.e / 2, rel=1e-6)


@pytest.mark.parametrize("r", [0.2, 0.5, 1.0])
def test_squeezed_purity(r):
    # anti-squeezed position spread e^r needs grid room on the same scale
    wide = states.QuadratureGrid(-12.0, 12.0, 1024)
    sq = gaussian(wide, "momentum_squeezed", r=r)
    assert states.purity(sq) == pytest.approx(1.0, abs=1e-6)


def test_displaced_gaussian_means(grid):
    spec = states.GaussianSpec("ground", mean_x=1.2, mean_p=-0.7)
    mean_x, mean_p, var_x, var_p = states.moments(states.make_gaussian(grid,
                                                                       spec))
    assert mean_x == pytest.approx(1.2, abs=1e-9)
    assert mean_p == pytest.approx(-0.7, abs=1e-9)
    assert var_x == pytest.approx(0.5, abs=1e-6)


def test_constructors_satisfy_invariants(grid):
    for state in (gaussian(grid), gaussian(grid, "thermal", nbar=2.0),
                  gaussian(grid, "momentum_squeezed", r=0.5),
                  states.make_gaussian(grid,
                                       states.GaussianSpec("ground",
                                                           mean_x=0.5))):
        states.validate_state(state)


def test_gaussian_spec_validation():
    with pytest.raises(DomainError):
        states.GaussianSpec("coherent")
    with pytest.raises(DomainError):
        states.GaussianSpec("thermal", nbar=-1.0)


@pytest.mark.parametrize("field, value", [
    ("nbar", np.nan), ("nbar", np.inf), ("r", np.nan), ("mean_x", np.inf),
    ("mean_p", np.nan)])
def test_gaussian_spec_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match="finite"):
        states.GaussianSpec("thermal", **{field: value})


@pytest.mark.parametrize("x_min, x_max", [(-np.inf, np.inf),
                                          (np.nan, np.nan)])
def test_grid_rejects_non_finite(x_min, x_max):
    with pytest.raises(GridError):
        states.QuadratureGrid(x_min, x_max, 8)


def test_narrow_grid_warning():
    # the shared clip estimate: erfc(3) = 2.2e-5 of the ground state is cut
    with pytest.warns(NarrowGridWarning):
        gaussian(states.QuadratureGrid(-3.0, 3.0, 256))
    with pytest.warns(NarrowGridWarning):
        gaussian(states.default_grid(), "thermal", nbar=10.0)


# ---------------------------------------------------------------------------
# Fock basis
# ---------------------------------------------------------------------------

def test_ground_in_fock_basis(ground):
    fock = states.grid_to_fock(ground, 64)
    assert fock.rho[0, 0].real == pytest.approx(1.0, abs=1e-10)
    off = fock.rho.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-6
    assert fock.trace() == pytest.approx(1.0, abs=1e-6)


def test_thermal_fock_diagonal_is_geometric():
    wide = states.QuadratureGrid(-12.0, 12.0, 1024)
    fock = states.grid_to_fock(gaussian(wide, "thermal", nbar=2.0), 256)
    n = np.arange(256)
    expected = 2.0**n / 3.0 ** (n + 1)
    assert np.max(np.abs(np.real(np.diag(fock.rho)) - expected)) < 1e-6


@pytest.mark.parametrize("maker", ["ground", "thermal", "squeezed"])
def test_round_trip_grid_fock_grid(grid, maker):
    state = {"ground": gaussian(grid),
             "thermal": gaussian(grid, "thermal", nbar=2.0),
             "squeezed": gaussian(grid, "momentum_squeezed", r=0.5)}[maker]
    back = states.fock_to_grid(states.grid_to_fock(state, 256), grid)
    assert np.max(np.abs(back.rho - state.rho)) < 1e-6


def test_fock_constructor_outputs_satisfy_invariants(grid):
    wide = states.QuadratureGrid(-12.0, 12.0, 1024)  # thermal tails need room
    for state in (gaussian(grid), gaussian(wide, "thermal", nbar=2.0),
                  gaussian(grid, "momentum_squeezed", r=0.5)):
        fock = states.grid_to_fock(state, 256)
        assert fock.trace() == pytest.approx(1.0, abs=1e-8)
        rho, rho_dag = fock.rho, fock.rho.conj().T
        assert np.max(np.abs(rho - rho_dag)) < 1e-10 * np.max(np.abs(rho))
        assert np.linalg.eigvalsh(0.5 * (rho + rho_dag))[0] >= -1e-8
        assert fock.tail_mass() < 1e-6


def test_fock_to_grid_single_excitation(grid):
    rho = np.zeros((8, 8), dtype=complex)
    rho[1, 1] = 1.0
    one = states.fock_to_grid(states.DensityMatrixFock(8, rho), grid)
    xs = grid.xs
    expected = 2 * xs**2 * np.exp(-xs**2) / np.sqrt(np.pi)
    assert np.max(np.abs(one.diagonal() - expected)) < 1e-12


def test_truncation_error_for_small_dim(grid):
    with pytest.raises(TruncationError):
        states.grid_to_fock(gaussian(grid, "thermal", nbar=2.0), 16)


def test_hermite_functions_orthonormal():
    # grid must contain the n=39 classical turning point sqrt(2n+1) ~ 8.9
    wide = states.QuadratureGrid(-12.0, 12.0, 1024)
    phi = states.hermite_functions(wide.xs, 40)
    overlap = phi @ phi.T * wide.dx
    assert np.max(np.abs(overlap - np.eye(40))) < 1e-10


# ---------------------------------------------------------------------------
# momentum diagnostics and serialization
# ---------------------------------------------------------------------------

def test_kick_phase_shifts_momentum_mean(grid, ground):
    xs = grid.xs
    phase = np.exp(1j * 3.0 * xs)
    kicked = states.DensityMatrixGrid(grid,
                                      ground.rho * np.outer(phase,
                                                            phase.conj()))
    _, mean_p, _, var_p = states.moments(kicked)
    assert mean_p == pytest.approx(3.0, abs=1e-9)
    assert var_p == pytest.approx(0.5, abs=1e-6)


def test_momentum_diagonal_normalization(thermal2):
    p_axis, dens = states.momentum_diagonal(thermal2)
    dp = p_axis[1] - p_axis[0]
    assert np.sum(dens) * dp == pytest.approx(1.0, abs=1e-12)


def _padded_fft_momentum_density(state):
    """The 2-D zero-padded FFT route to <p|rho|p>, kept as a reference."""
    n = state.grid.n_points
    dx = state.grid.dx
    m = 2 * n
    a = np.fft.fft(state.rho, n=m, axis=0)
    b = np.fft.ifft(a, n=m, axis=1) * m
    dens = np.real(np.diagonal(b)) * dx**2 / (2.0 * np.pi)
    p_axis = 2.0 * np.pi * (np.arange(m) - m // 2) / (m * dx)
    return p_axis, np.fft.fftshift(dens)


def test_momentum_diagonal_matches_padded_fft_reference():
    # a kicked, window-conditioned state has no symmetry in p to hide a sign
    # or offset error in the diagonal sums
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    conditioned = M.condition_window(gaussian(grid, "thermal", nbar=0.6),
                                     1.0, 0.3, M.OutcomeWindow(1.5, 0.8))[0]
    kicked = PR.momentum_kick(conditioned, 0.8)
    p_axis, dens = states.momentum_diagonal(kicked)
    ref_axis, ref = _padded_fft_momentum_density(kicked)
    assert np.array_equal(p_axis, ref_axis)
    assert np.max(np.abs(dens - ref)) <= 1e-14


@pytest.mark.parametrize("mean_x, mean_p", [(0.0, 0.0), (1.5, -0.7)])
def test_wide_thermal_kernel_is_finite_and_matches_direct_formula(mean_x,
                                                                 mean_p):
    # at nbar 10 on [-24, 24] a factorization through exp(c x x') overflows;
    # the Toeplitz x Hankel factors must not
    grid = states.QuadratureGrid(-24.0, 24.0, 256)
    spec = states.GaussianSpec("thermal", nbar=10.0, mean_x=mean_x,
                               mean_p=mean_p)
    rho = states.make_gaussian(grid, spec).rho
    var_x, var_p = spec.variances()
    xs = grid.xs
    u = 0.5 * (xs[:, None] + xs[None, :])
    v = xs[:, None] - xs[None, :]
    direct = np.exp(-((u - mean_x) ** 2) / (2.0 * var_x) - 0.5 * var_p * v**2
                    + 1j * mean_p * v)
    direct /= np.real(np.trace(direct)) * grid.dx
    assert np.all(np.isfinite(rho))
    assert np.max(np.abs(rho - direct)) <= 1e-12


def test_npz_round_trip(tmp_path, squeezed):
    path = tmp_path / "state.npz"
    states.state_to_npz(squeezed, path)
    back = states.state_from_npz(path)
    assert back.grid == squeezed.grid
    assert np.array_equal(back.rho, squeezed.rho)


def test_diagonal_csv(tmp_path, ground):
    path = tmp_path / "diag.csv"
    states.diagonal_to_csv(ground, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,density"
    assert len(rows) == 1 + ground.grid.n_points
    x, d = map(float, rows[1].split(","))
    assert x == pytest.approx(-8.0)
    assert d == pytest.approx(ground.diagonal()[0], rel=1e-9)


@pytest.mark.parametrize("maker", ["ground", "squeezed", "fig2b",
                                   "displaced"])
def test_fock_round_trip_matches_dense_products(grid, maker):
    # each map is two real GEMMs on interleaved float64 views; fock_to_grid
    # associates as phi.T (rho phi), so its rounding differs from the
    # left-to-right complex product by a few ulps of the largest entry
    state = {"ground": gaussian(grid),
             "squeezed": gaussian(grid, "momentum_squeezed", r=0.5),
             "fig2b": M.condition_window(gaussian(grid), 1.0, 0.0,
                                         M.OutcomeWindow(1.5, 0.8))[0],
             "displaced": gaussian(grid, mean_x=1.0, mean_p=-0.7)}[maker]
    phi = states.hermite_functions(grid.xs, 128)
    fock = states.grid_to_fock(state, 128)
    dense = (phi @ state.rho @ phi.T) * grid.dx**2
    assert fock.rho.flags.c_contiguous
    assert np.max(np.abs(fock.rho - dense)) <= 1e-15 * np.max(np.abs(dense))
    back = states.fock_to_grid(fock, grid)
    dense = phi.T @ fock.rho @ phi
    assert back.rho.flags.c_contiguous
    assert np.max(np.abs(back.rho - dense)) <= 1e-14 * np.max(np.abs(dense))
