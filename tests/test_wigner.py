"""Wigner transform identities, negativity diagnostics, peak analysis.

Panel negativity numbers for the conditioned/unconditional states were
frozen from a first validated run of this implementation (the transform
itself is pinned by the Gaussian closed forms and the exact normalization,
marginal, and purity identities).
"""

import json

import numpy as np
import pytest

from optomech import measurement as M
from optomech import protocol as PR
from optomech import states
from optomech import wigner as W
from optomech.errors import AmbiguityError, DomainError

# frozen from the validated implementation (see module docstring)
FROZEN_MIN_B = -0.116596
FROZEN_VOL_B = 0.157593
FROZEN_MIN_E = -3.3701e-4
FROZEN_MIN_H = -0.303153


@pytest.fixture(scope="module")
def panel_b(ground):
    return M.condition_window(ground, 1.0, 0.0, M.OutcomeWindow(1.5, 0.8))[0]


def test_ground_wigner_closed_form(ground):
    wg = W.wigner_transform(ground)
    x, p = np.meshgrid(wg.x_axis, wg.p_axis, indexing="ij")
    assert np.max(np.abs(wg.w - np.exp(-x**2 - p**2) / np.pi)) < 1e-8


def test_thermal_wigner_closed_form(thermal2):
    wg = W.wigner_transform(thermal2)
    x, p = np.meshgrid(wg.x_axis, wg.p_axis, indexing="ij")
    expected = np.exp(-(x**2 + p**2) / 5.0) / (5.0 * np.pi)
    assert np.max(np.abs(wg.w - expected)) < 1e-5


def test_wigner_identities(ground, thermal2, squeezed, panel_b):
    for state in (ground, thermal2, squeezed, panel_b):
        wg = W.wigner_transform(state)
        assert abs(wg.integral() - 1.0) < 1e-5
        assert np.max(np.abs(wg.marginal_x() - state.diagonal())) < 1e-5
        assert abs(wg.purity_overlap() - states.purity(state)) < 1e-5
        assert np.max(np.abs(wg.w)) <= 1.0 / np.pi + 1e-6


def test_transform_matches_fock_laguerre_oracle(grid, panel_b):
    # independent route: W = sum_nm rho_nm W_nm with the Laguerre-polynomial
    # matrix elements, evaluated from the Fock projection of the state
    from scipy.special import factorial, genlaguerre

    dim = 72
    fock = states.grid_to_fock(panel_b, dim)
    xs = grid.xs[::16]
    x_mesh, p_mesh = np.meshgrid(xs, xs, indexing="ij")
    r2 = x_mesh**2 + p_mesh**2
    prefactor = np.exp(-r2) / np.pi
    oracle = np.zeros_like(x_mesh)
    for n in range(dim):
        oracle += np.real(fock.rho[n, n]) * prefactor * (-1) ** n \
            * genlaguerre(n, 0)(2 * r2)
        for m in range(n + 1, dim):
            coeff = np.sqrt(2.0 ** (m - n) * factorial(n) / factorial(m))
            base = prefactor * (-1) ** n * coeff \
                * genlaguerre(n, m - n)(2 * r2) * (x_mesh - 1j * p_mesh) ** (m - n)
            oracle += 2 * np.real(fock.rho[m, n] * base)
    mine = W.wigner_transform(panel_b, p_axis=xs).w[::16, :]
    assert np.max(np.abs(oracle - mine)) < 2e-4  # Fock-truncation limited
    assert oracle.min() == pytest.approx(mine.min(), abs=1e-5)


def test_wigner_linearity(ground, thermal2):
    mix = states.DensityMatrixGrid(ground.grid,
                                   0.3 * ground.rho + 0.7 * thermal2.rho)
    w_mix = W.wigner_transform(mix).w
    w_parts = 0.3 * W.wigner_transform(ground).w \
        + 0.7 * W.wigner_transform(thermal2).w
    assert np.max(np.abs(w_mix - w_parts)) < 1e-8


def test_explicit_momentum_axis_matches_fft_path(ground):
    fft_grid = W.wigner_transform(ground)
    explicit = W.wigner_transform(ground, p_axis=fft_grid.p_axis[::8])
    assert np.max(np.abs(explicit.w - fft_grid.w[:, ::8])) < 1e-12


def test_displaced_ground_wigner_closed_form(grid):
    # odd in p: a transform returning W(x, -p) fails here
    state = states.make_gaussian(
        grid, states.GaussianSpec("ground", mean_x=0.7, mean_p=1.2))
    wg = W.wigner_transform(state)
    x, p = np.meshgrid(wg.x_axis, wg.p_axis, indexing="ij")
    expected = np.exp(-(x - 0.7) ** 2 - (p - 1.2) ** 2) / np.pi
    assert np.max(np.abs(wg.w - expected)) < 1e-8


def test_explicit_momentum_axis_matches_fft_path_on_kicked_state(panel_b):
    kicked = PR.momentum_kick(panel_b, 0.8)
    fft_grid = W.wigner_transform(kicked)
    explicit = W.wigner_transform(kicked, p_axis=fft_grid.p_axis[::8])
    assert np.max(np.abs(explicit.w - fft_grid.w[:, ::8])) < 1e-12


def test_non_hermitian_rho_rejected(grid, ground):
    rng = np.random.default_rng(5)
    noise = rng.normal(size=ground.rho.shape) \
        + 1j * rng.normal(size=ground.rho.shape)
    anti = noise - noise.conj().T
    anti *= 1e-6 * np.max(np.abs(ground.rho)) / np.max(np.abs(anti))
    bad = states.DensityMatrixGrid(grid, ground.rho + anti)
    with pytest.raises(DomainError, match="not Hermitian"):
        W.wigner_transform(bad)
    with pytest.raises(DomainError, match="not Hermitian"):
        W.wigner_transform(bad, p_axis=np.linspace(-3.0, 3.0, 16))


def test_fock_round_trip_rho_accepted(grid, panel_b):
    # phi^T rho_F phi is Hermitian only to rounding
    back = states.fock_to_grid(states.grid_to_fock(panel_b, 72), grid)
    wg = W.wigner_transform(back)
    assert abs(wg.integral() - 1.0) < 1e-5


def test_gaussian_states_are_nonnegative(ground, thermal2, squeezed):
    for state in (ground, thermal2, squeezed):
        w_min, volume = W.negativity(W.wigner_transform(state))
        assert w_min > -1e-6
        assert volume < 1e-5


def test_conditioned_ground_negativity(panel_b):
    w_min, volume = W.negativity(W.wigner_transform(panel_b))
    assert w_min < -1e-3
    assert w_min == pytest.approx(FROZEN_MIN_B, abs=1e-4)
    assert volume == pytest.approx(FROZEN_VOL_B, abs=1e-4)


def test_unconditional_negativity_disappears(ground):
    unconditional = M.uncondition(ground, 1.0, 0.0)
    w_min, _ = W.negativity(W.wigner_transform(unconditional))
    assert w_min > -1e-3


def test_interference_band_sits_between_peaks(grid, panel_b):
    wg = W.wigner_transform(panel_b)
    central = np.abs(wg.x_axis) < 0.5
    assert wg.w[central, :].min() < -1e-3  # negative fringes near x = 0
    diag = panel_b.diagonal()
    assert diag[np.abs(grid.xs) < 0.2].max() < 0.5 * diag.max()  # dip at 0


# ---------------------------------------------------------------------------
# separation analysis
# ---------------------------------------------------------------------------

def test_separation_formula_reference_points():
    assert W.separation_formula(0.5, 1.0, 1.5) == pytest.approx(
        2.0, abs=1e-12)
    assert W.separation_formula(np.e / 2, 1.0, 6.4) == pytest.approx(
        4.986406, abs=1e-6)
    assert W.separation_formula(2.5, 1.0, 1.5) == pytest.approx(
        2.366432, abs=1e-6)


def test_separation_formula_boundary():
    # at 4 q chi = 1/sigma^2 the two peaks merge: one peak, delta -> 0
    assert W.separation_formula(0.5, 1.0, 0.5) is None
    assert 0 < W.separation_formula(0.5, 1.0, 0.5 + 1e-10) < 1e-4
    assert W.separation_formula(0.5, 1.0, -1.0) is None


def test_measured_separation_matches_formula(ground, thermal2, squeezed):
    cases = [(ground, 1.5, 0.5), (thermal2, 1.5, 2.5), (squeezed, 6.4, np.e / 2)]
    for state, outcome, sigma2 in cases:
        conditioned = M.condition_exact(
            state, M.LinearPulseMeasurement(1.0, 0.0, outcome))
        measured = W.measure_separation(conditioned)
        formula = W.separation_formula(sigma2, 1.0, outcome)
        assert measured is not None
        assert measured == pytest.approx(formula, rel=0.02)


def test_single_peak_is_degenerate(ground):
    assert W.measure_separation(ground) is None
    assert W.measure_separation(M.uncondition(ground, 1.0, 0.0)) is None


def test_three_peaks_raise_ambiguity(grid):
    mix = sum(states.make_gaussian(grid,
                                   states.GaussianSpec("ground", mean_x=mu)).rho
              for mu in (-3.0, 0.0, 3.0)) / 3.0
    with pytest.raises(AmbiguityError):
        W.measure_separation(states.DensityMatrixGrid(grid, mix))


def test_physical_separation_values():
    assert W.physical_separation(2.0, 10e-15) == pytest.approx(28e-15,
                                                               rel=0.02)
    assert W.physical_separation(0.0, 1e-15) == 0.0
    assert W.physical_separation(1.0, 1.0) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(DomainError):
        W.physical_separation(-1.0, 1e-15)


# ---------------------------------------------------------------------------
# rotated marginals: the marginal of X cos t + P sin t is the position
# marginal after free evolution by t, the way tomography samples it
# ---------------------------------------------------------------------------

def rotated_wigner(state, theta, dim=128):
    fock = PR.free_evolve(states.grid_to_fock(state, dim), theta)
    return W.wigner_transform(states.fock_to_grid(fock, state.grid))


def test_rotated_marginal_at_zero_is_position_diagonal(ground):
    density = rotated_wigner(ground, 0.0).marginal_x()
    assert np.max(np.abs(density - ground.diagonal())) < 1e-5


def test_rotated_marginal_ground_is_isotropic(ground):
    d0 = rotated_wigner(ground, 0.0).marginal_x()
    d90 = rotated_wigner(ground, np.pi / 2).marginal_x()
    assert np.max(np.abs(d0 - d90)) < 1e-5


def test_rotated_marginal_squeezed_variance(squeezed):
    wg = rotated_wigner(squeezed, np.pi / 2)
    s, density = wg.x_axis, wg.marginal_x()
    ds = s[1] - s[0]
    norm = np.sum(density) * ds
    assert norm == pytest.approx(1.0, abs=1e-5)
    var = np.sum(s**2 * density) * ds / norm
    assert var == pytest.approx(np.exp(-1.0) / 2.0, abs=1e-5)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_csv_and_sidecar_export(tmp_path, ground):
    wg = W.wigner_transform(ground)
    path = tmp_path / "wigner.csv"
    W.wigner_to_csv(wg, path)
    rows = path.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert int(header[0]) == wg.p_axis.size
    assert len(rows) == 1 + wg.x_axis.size
    first = rows[1].split(",")
    assert float(first[0]) == pytest.approx(wg.x_axis[0])
    doc = json.loads(W.wigner_sidecar_json(wg, "ground"))
    assert doc["label"] == "ground"
    assert doc["integral"] == pytest.approx(1.0, abs=1e-5)
    assert doc["min"] > -1e-6
