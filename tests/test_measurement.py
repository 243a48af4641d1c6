"""Measurement operators, outcome statistics, conditioning, and oracles.

Frozen reference numbers (window probabilities, unconditional purity) were
computed beforehand with scipy.integrate.quad/dblquad over the analytic
densities, independently of the grid implementation.  Outcome-moment targets
are analytic: for a centered Gaussian with Var(X) = s2,

    <q> = chi (1/2 + nbar),  Var(q) = 2 chi^2 s2^2 + 1/2,
    third central moment = 8 chi^3 s2^3.
"""

import math

import numpy as np
import pytest

from optomech import measurement as M
from optomech import protocol as PR
from optomech import states
from optomech.errors import ConditioningError, DomainError, GridError

# scipy.quad oracles, computed before implementation
P_WINDOW_GROUND = 0.148895
P_WINDOW_THERMAL2 = 0.145173
P_WINDOW_SQUEEZED = 0.010901
PURITY_UNCOND_GROUND = {0.5: 0.91314942, 1.0: 0.78963996, 2.0: 0.61414313}


def test_kraus_diagonal_closed_form(grid):
    meas = M.LinearPulseMeasurement(chi=1.3, omega_kick=0.7, outcome=1.5)
    u = M.linear_kraus_diagonal(grid, meas)
    xs = grid.xs
    expected = np.pi ** (-0.25) * np.exp(1j * 0.7 * xs) \
        * np.exp(-0.5 * (1.5 - 1.3 * xs**2) ** 2)
    assert np.max(np.abs(u - expected)) < 1e-14


def test_kraus_modulus_peaks_at_selected_positions(grid):
    meas = M.LinearPulseMeasurement(chi=1.0, outcome=2.0)
    u2 = np.abs(M.linear_kraus_diagonal(grid, meas)) ** 2
    xs = grid.xs
    peak = abs(xs[np.argmax(u2)])
    assert peak == pytest.approx(np.sqrt(2.0), abs=grid.dx)


def test_kraus_modulus_even_phase_odd(grid):
    meas = M.LinearPulseMeasurement(chi=1.0, omega_kick=2.0, outcome=1.0)
    u = M.linear_kraus_diagonal(grid, meas)
    assert np.max(np.abs(np.abs(u) - np.abs(u[::-1]))) < 1e-14
    # odd phase: u(x) u(-x) = |u(x)|^2 is real positive
    prod = u * u[::-1]
    assert np.max(np.abs(prod.imag)) < 1e-14
    assert np.all(prod.real >= 0)


def test_completeness_of_outcome_family(grid, ground):
    # integral dq U^dag U must be the identity pointwise in x; a unit
    # weight gives the kernel row of one grid point
    dist = M.outcome_pdf(ground, 1.0)
    totals = [np.trapezoid(M.outcome_kernel(dist.q_axis, grid.xs, 1.0, row),
                           dist.q_axis) for row in np.eye(grid.n_points)]
    assert np.max(np.abs(np.array(totals) - 1.0)) < 1e-8


def dense_outcome_sum(q_axis, xs, chi, weights):
    """sum_i pi^(-1/2) exp(-(q_k - chi x_i^2)^2) w_i through the full
    (outcomes, grid) matrix, for weights of shape (n,) or (k, n)."""
    kernel = np.exp(-(q_axis[:, None] - chi * xs**2) ** 2) / np.sqrt(np.pi)
    return weights @ kernel.T


@pytest.mark.parametrize("n", [128, 512, 2048])
@pytest.mark.parametrize("chi", [0.0, 0.5, 2.0])
def test_outcome_kernel_matches_dense_closed_form(n, chi):
    # 1000 outcomes leave a ragged last block, and the axis runs 40 past
    # chi x_max^2, so the last blocks have an empty band
    xs = states.QuadratureGrid(-8.0, 8.0, n).xs
    q_axis = np.linspace(-6.0, chi * 64.0 + 40.0, 1000)
    weights = np.random.default_rng(n).random((5, n))
    for row, want in zip(weights, dense_outcome_sum(q_axis, xs, chi, weights)):
        got = M.outcome_kernel(q_axis, xs, chi, row)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def test_outcome_pdf_normalization_and_moments(ground):
    dist = M.outcome_pdf(ground, 1.0)
    assert dist.mass == pytest.approx(1.0, abs=1e-6)
    assert dist.mean() == pytest.approx(0.5, abs=1e-6)
    assert dist.central_moment(2) == pytest.approx(1.0, abs=1e-4)
    assert dist.central_moment(3) == pytest.approx(1.0, abs=1e-4)


def test_outcome_pdf_positive_wing(ground):
    # skewed toward positive outcomes: heavier mass above the mean
    dist = M.outcome_pdf(ground, 1.0)
    assert dist.central_moment(3) > 0


@pytest.mark.parametrize("nbar,x_max,n", [(2.0, 12.0, 1024),
                                          (10.0, 24.0, 2048)])
def test_outcome_pdf_mean_law_thermal(nbar, x_max, n):
    wide = states.QuadratureGrid(-x_max, x_max, n)
    th = states.make_gaussian(wide, states.GaussianSpec("thermal", nbar=nbar))
    dist = M.outcome_pdf(th, 1.0)
    assert dist.mean() == pytest.approx(0.5 + nbar, rel=1e-6)


def test_outcome_pdf_shot_noise_limit(ground):
    dist = M.outcome_pdf(ground, 0.0)
    assert dist.mean() == pytest.approx(0.0, abs=1e-9)
    assert dist.central_moment(2) == pytest.approx(0.5, abs=1e-6)


def test_momentum_squeezing_broadens_outcomes(ground, squeezed):
    # the anti-squeezed position spread widens the outcome distribution,
    # which is what makes large-separation post-selection affordable
    var_ground = M.outcome_pdf(ground, 1.0).central_moment(2)
    var_squeezed = M.outcome_pdf(squeezed, 1.0).central_moment(2)
    assert var_squeezed > 2.0 * var_ground


def test_outcome_pdf_kick_independent(grid, ground):
    phase = np.exp(1j * 3.0 * grid.xs)
    kicked = states.DensityMatrixGrid(
        grid, ground.rho * np.outer(phase, phase.conj()))
    a = M.outcome_pdf(ground, 1.0)
    b = M.outcome_pdf(kicked, 1.0)
    assert np.max(np.abs(a.pdf - b.pdf)) < 1e-14


@pytest.mark.parametrize("chi", [0.0, 1.0, 200.0])
def test_outcome_pdf_is_the_grid_mixture_at_every_strength(grid, ground, chi):
    # on the grid P(q) = sum_i w_i K(q - chi x_i^2), w_i = rho_ii dx: mass
    # 1, mean chi <x^2> and variance chi^2 Var(x^2) + 1/2 over the weights
    # (the chi = 0 mean is 0, so it is held to an absolute bound)
    w = ground.diagonal().real * grid.dx
    w /= np.sum(w)
    mean_x2 = np.sum(w * grid.xs**2)
    var_x2 = np.sum(w * (grid.xs**2 - mean_x2) ** 2)
    dist = M.outcome_pdf(ground, chi)
    assert abs(dist.mass - 1.0) <= 1e-13
    assert dist.mean() == pytest.approx(chi * mean_x2, rel=1e-12, abs=1e-15)
    assert dist.central_moment(2) == pytest.approx(chi**2 * var_x2 + 0.5,
                                                   rel=1e-12)


def test_shot_noise_pdf_matches_dense_closed_form(grid, ground):
    # chi = 0 puts every grid point in every outcome's band
    dist = M.outcome_pdf(ground, 0.0)
    want = dense_outcome_sum(dist.q_axis, grid.xs, 0.0,
                             ground.diagonal()) * grid.dx
    assert np.max(np.abs(dist.pdf - want)) <= 1e-14 * np.max(want)


def test_condition_exact_weak_limit(grid, ground):
    meas = M.LinearPulseMeasurement(chi=1e-9, omega_kick=0.8, outcome=0.0)
    conditioned = M.condition_exact(ground, meas)
    phase = np.exp(1j * 0.8 * grid.xs)
    kicked = ground.rho * np.outer(phase, phase.conj())
    assert np.max(np.abs(conditioned.rho - kicked)) < 1e-8


def test_condition_exact_bimodal_and_pure(grid, ground):
    conditioned = M.condition_exact(ground,
                                    M.LinearPulseMeasurement(1.0, 0.0, 1.5))
    states.validate_state(conditioned)
    assert states.purity(conditioned) == pytest.approx(1.0, abs=1e-6)
    diag = conditioned.diagonal()
    xs = grid.xs
    # stationary points of exp(-x^2) exp(-(1.5 - x^2)^2) sit at x = +/- 1
    left_peak = xs[np.argmax(np.where(xs < 0, diag, -1))]
    right_peak = xs[np.argmax(np.where(xs > 0, diag, -1))]
    assert right_peak == pytest.approx(1.0, abs=grid.dx)
    assert left_peak == pytest.approx(-1.0, abs=grid.dx)


def test_condition_exact_rejects_impossible_outcome(ground):
    with pytest.raises(ConditioningError):
        M.condition_exact(ground, M.LinearPulseMeasurement(1.0, 0.0, 60.0))


@pytest.mark.parametrize("n", [64, 512])
def test_condition_exact_matches_kraus_definition(n):
    # an asymmetric state and a kick: the mirrored quadrant must not lean on
    # any symmetry of rho or of the phase
    grid = states.QuadratureGrid(-8.0, 8.0, n)
    state = states.make_gaussian(grid, states.GaussianSpec(
        "thermal", nbar=0.5, mean_x=0.3, mean_p=-0.4))
    meas = M.LinearPulseMeasurement(chi=0.7, omega_kick=1.3, outcome=1.5)
    u = M.linear_kraus_diagonal(grid, meas)
    raw = u[:, None] * state.rho * np.conj(u)[None, :]
    ref = raw / (np.real(np.trace(raw)) * grid.dx)
    got = M.condition_exact(state, meas).rho
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_condition_parity(ground):
    conditioned = M.condition_exact(ground,
                                    M.LinearPulseMeasurement(1.0, 0.0, 1.5))
    diag = conditioned.diagonal()
    assert np.max(np.abs(diag - diag[::-1])) < 1e-12


@pytest.mark.parametrize("state_name,center,expected", [
    ("ground", 1.5, P_WINDOW_GROUND),
    ("thermal2", 1.5, P_WINDOW_THERMAL2),
    ("squeezed", 6.4, P_WINDOW_SQUEEZED),
])
def test_window_probabilities_match_quad_oracle(request, state_name, center,
                                                expected):
    state = request.getfixturevalue(state_name)
    _, prob = M.condition_window(state, 1.0, 0.0, M.OutcomeWindow(center, 0.8))
    assert prob == pytest.approx(expected, abs=5e-6)


@pytest.mark.parametrize("state_name,center", [("ground", 1.5),
                                               ("thermal2", 1.5),
                                               ("squeezed", 6.4)])
def test_window_matches_quadrature_oracle(request, state_name, center):
    state = request.getfixturevalue(state_name)
    win = M.OutcomeWindow(center, 0.8)
    closed, p_closed = M.condition_window(state, 1.0, 0.3, win)
    quad, p_quad = M.condition_window_quadrature(state, 1.0, 0.3, win)
    assert abs(p_closed - p_quad) < 1e-10
    assert np.max(np.abs(closed.rho - quad.rho)) < 1e-8
    states.validate_state(closed)


def test_wide_window_reduces_to_unconditional(ground):
    wide = M.OutcomeWindow(0.5, 200.0)
    windowed, prob = M.condition_window(ground, 1.0, 0.4, wide)
    assert prob == pytest.approx(1.0, abs=1e-10)
    unconditional = M.uncondition(ground, 1.0, 0.4)
    assert np.max(np.abs(windowed.rho - unconditional.rho)) < 1e-10


def test_window_zero_probability_raises(ground):
    with pytest.raises(ConditioningError):
        M.condition_window(ground, 1.0, 0.0, M.OutcomeWindow(80.0, 0.5))


def test_uncondition_preserves_diagonal_and_trace(thermal2):
    out = M.uncondition(thermal2, 1.0, 0.7)
    assert np.max(np.abs(out.diagonal() - thermal2.diagonal())) < 1e-14
    assert out.trace() == pytest.approx(thermal2.trace(), abs=1e-14)


@pytest.mark.parametrize("chi", [0.5, 1.0, 2.0])
def test_uncondition_purity_matches_dblquad_oracle(ground, chi):
    out = M.uncondition(ground, chi, 0.0)
    assert states.purity(out) == pytest.approx(PURITY_UNCOND_GROUND[chi],
                                               abs=1e-5)


def test_uncondition_pure_kick_preserves_purity(ground):
    out = M.uncondition(ground, 0.0, 1.3)
    assert states.purity(out) == pytest.approx(1.0, abs=1e-10)


def test_uncondition_matches_quadrature_oracle(ground):
    closed = M.uncondition(ground, 1.0, 0.2)
    quad = M.uncondition_quadrature(ground, 1.0, 0.2)
    assert np.max(np.abs(closed.rho - quad.rho)) < 1e-8


def per_node_sum(grid, chi, omega, lo, hi, n_q):
    """sum_k w_k u_k u_k^dag over composite-Simpson nodes on [lo, hi], with
    each complex Kraus diagonal u_k = linear_kraus_diagonal(q_k) built
    whole; 512 nodes per product."""
    h = (hi - lo) / (n_q - 1)
    w = np.array([h / 3.0 * (1.0 if k in (0, n_q - 1) else 4.0 if k % 2
                             else 2.0) for k in range(n_q)])
    u = np.array([M.linear_kraus_diagonal(grid, M.LinearPulseMeasurement(
        chi, omega, q)) for q in np.linspace(lo, hi, n_q)])
    kern = np.zeros((grid.n_points, grid.n_points), dtype=complex)
    for start in range(0, n_q, 512):
        blk = slice(start, start + 512)
        kern += (w[blk, None] * u[blk]).T @ u[blk].conj()
    return kern


def test_oracles_match_explicit_per_node_sum():
    # the oracles factor the kick phase out of their Simpson sums; this sum
    # keeps it inside, node by node, so the factoring itself is checked
    grid = states.QuadratureGrid(-8.0, 8.0, 64)
    state = states.make_gaussian(grid, states.GaussianSpec(
        "thermal", nbar=0.5, mean_x=0.3, mean_p=-0.4))
    chi, omega, pad = 0.7, 1.3, 8.5
    quad = M.uncondition_quadrature(state, chi, omega)
    ref = state.rho * per_node_sum(grid, chi, omega, -pad,
                                   chi * grid.x_max**2 + pad, 16001)
    assert np.max(np.abs(quad.rho - ref)) <= 1e-13

    win = M.OutcomeWindow(1.5, 0.8)
    quad, p_quad = M.condition_window_quadrature(state, chi, omega, win)
    raw = state.rho * per_node_sum(grid, chi, omega, win.lo, win.hi, 201)
    p_ref = float(np.real(np.trace(raw)) * grid.dx)
    assert abs(p_quad - p_ref) <= 1e-13
    assert np.max(np.abs(quad.rho - raw / p_ref)) <= 1e-13


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pdf_csv_export(tmp_path, ground):
    dist = M.outcome_pdf(ground, 1.0)
    path = tmp_path / "pdf.csv"
    M.pdf_to_csv(dist, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "q,P"
    assert len(rows) == 1 + dist.q_axis.size


def test_invalid_measurement_parameters():
    with pytest.raises(DomainError, match="chi"):
        M.LinearPulseMeasurement(chi=-1.0)
    with pytest.raises(DomainError):
        M.OutcomeWindow(1.0, 0.0)


def test_zero_strength_is_pure_kinematics_in_every_map(ground):
    # chi = 0 reads no position: each map is the bare kick e^{i w (x - x')}
    kicked = M.uncondition(ground, 0.0, 2.0)
    exact = M.condition_exact(ground, M.LinearPulseMeasurement(0.0, 2.0, 0.7))
    windowed, _ = M.condition_window(ground, 0.0, 2.0, M.OutcomeWindow(0, 1))
    for state in (exact, windowed):
        assert np.max(np.abs(state.rho - kicked.rho)) <= 1e-12


@pytest.mark.parametrize("center, width", [(1.0, math.nan), (math.nan, 1.0),
                                           (math.inf, 1.0), (1.0, math.inf)])
def test_window_rejects_non_finite(center, width):
    with pytest.raises(DomainError, match="finite"):
        M.OutcomeWindow(center, width)


@pytest.mark.parametrize("kwargs, field", [
    ({"chi": math.nan}, "chi"), ({"chi": math.inf}, "chi"),
    ({"chi": 1.0, "omega_kick": math.inf}, "omega_kick"),
    ({"chi": 1.0, "omega_kick": math.nan}, "omega_kick"),
    ({"chi": 1.0, "outcome": math.nan}, "outcome"),
    ({"chi": 1.0, "outcome": -math.inf}, "outcome")])
def test_measurement_rejects_non_finite(kwargs, field):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        M.LinearPulseMeasurement(**kwargs)


@pytest.mark.parametrize("condition", [
    lambda s: M.condition_exact(s, M.LinearPulseMeasurement(1.0, 0.0, 1.5)),
    lambda s: M.condition_window(s, 1.0, 0.0, M.OutcomeWindow(1.5, 0.8)),
    lambda s: M.condition_window_quadrature(s, 1.0, 0.0,
                                            M.OutcomeWindow(1.5, 0.8))],
    ids=["exact", "window", "window_quadrature"])
def test_nan_probability_raises(condition, ground):
    nan_state = states.DensityMatrixGrid(ground.grid,
                                         np.full_like(ground.rho, np.nan))
    with pytest.raises(ConditioningError, match="probability nan"):
        condition(nan_state)


WINDOW = M.OutcomeWindow(1.5, 0.8)
MAPS = {
    "uncondition": M.uncondition,
    "uncondition_quadrature": M.uncondition_quadrature,
    "condition_window": lambda s, chi, w: M.condition_window(s, chi, w,
                                                             WINDOW),
    "condition_window_quadrature":
        lambda s, chi, w: M.condition_window_quadrature(s, chi, w, WINDOW),
    "condition_exact": lambda s, chi, w: M.condition_exact(
        s, M.LinearPulseMeasurement(chi, w, 1.5)),
    "linear_kraus_diagonal": lambda s, chi, w: M.linear_kraus_diagonal(
        s.grid, M.LinearPulseMeasurement(chi, w, 1.5)),
    "outcome_pdf": lambda s, chi, w: M.outcome_pdf(s, chi),
    "momentum_kick": lambda s, chi, w: PR.momentum_kick(s, w),
}
# LinearPulseMeasurement refuses a non-finite kick itself, so only a finite
# kick beyond the Nyquist reaches these two maps' own check
FINITE_KICK_ONLY = ("condition_exact", "linear_kraus_diagonal")


@pytest.mark.parametrize("name, chi, kick, error, field", [
    *[(name, chi, 0.1, DomainError, "chi")
      for name in MAPS if name != "momentum_kick"
      for chi in (math.nan, math.inf, -1.0)],
    # kicks in units of the grid's momentum Nyquist pi/dx
    *[(name, 1.0, kick, GridError, "omega_kick")
      for name in MAPS if name != "outcome_pdf"
      for kick in ((-1.01,) if name in FINITE_KICK_ONLY
                   else (math.nan, math.inf, -math.inf, 1.01))]])
def test_maps_reject_bad_chi_and_kick(ground, name, chi, kick, error, field):
    # every map shares one check: chi finite and >= 0, |kick| <= pi/dx
    omega = kick * math.pi / ground.grid.dx
    with pytest.raises(error, match=field):
        MAPS[name](ground, chi, omega)
