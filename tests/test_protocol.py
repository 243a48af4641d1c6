"""Monte-Carlo protocol, kinematics, and tomography."""

import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from optomech import measurement as M
from optomech import protocol as PR
from optomech import states
from optomech import wigner as W
from optomech.errors import (ConditioningError, DomainError, GridError,
                             ReconstructionWarning)


ANGLES16 = [k * math.pi / 16 for k in range(16)]


def window(center=1.5, width=0.8):
    return M.OutcomeWindow(center, width)


def evolve_on_grid(state, theta, dim):
    """Free evolution of a grid state through the Fock round trip."""
    fock = states.grid_to_fock(state, dim)
    return states.fock_to_grid(PR.free_evolve(fock, theta), state.grid)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def test_free_evolve_leaves_ground_invariant(ground):
    fock = states.grid_to_fock(ground, 64)
    for theta in (0.3, math.pi / 2, 2.0):
        rotated = PR.free_evolve(fock, theta)
        assert np.max(np.abs(rotated.rho - fock.rho)) < 1e-10


def test_free_evolve_half_period_is_parity(grid):
    spec = states.GaussianSpec("ground", mean_x=0.8, mean_p=-0.4)
    state = states.make_gaussian(grid, spec)
    rotated = evolve_on_grid(state, math.pi, 96)
    mx, mp, _, _ = states.moments(rotated)
    assert mx == pytest.approx(-0.8, abs=1e-6)
    assert mp == pytest.approx(0.4, abs=1e-6)


def test_free_evolve_quarter_period_convention(grid, ground):
    kicked = PR.momentum_kick(ground, 1.0)
    rotated = evolve_on_grid(kicked, math.pi / 2, 64)
    mx, mp, _, _ = states.moments(rotated)
    # (X, P) -> (X cos + P sin, -X sin + P cos): momentum becomes position
    assert mx == pytest.approx(1.0, abs=1e-9)
    assert mp == pytest.approx(0.0, abs=1e-9)


def test_free_evolve_preserves_trace_and_purity(thermal2):
    fock = states.grid_to_fock(thermal2, 256)
    rotated = PR.free_evolve(fock, 0.7)
    assert rotated.trace() == pytest.approx(fock.trace(), abs=1e-14)
    assert np.sum(np.abs(rotated.rho) ** 2) == pytest.approx(
        np.sum(np.abs(fock.rho) ** 2), abs=1e-14)


def test_momentum_kick_properties(grid, ground):
    assert np.max(np.abs(PR.momentum_kick(ground, 0.0).rho - ground.rho)) == 0
    kicked = PR.momentum_kick(ground, 3.0)
    assert states.moments(kicked)[1] == pytest.approx(3.0, abs=1e-9)
    assert np.max(np.abs(kicked.diagonal() - ground.diagonal())) < 1e-14
    round_trip = PR.momentum_kick(kicked, -3.0)
    assert np.max(np.abs(round_trip.rho - ground.rho)) < 1e-12


@pytest.mark.parametrize("n_points", [512, 2048])
def test_momentum_kick_is_the_bare_phase(n_points):
    # K = 1: the kick is rho o e^{i w (x - x')} with no mirrored kernel
    grid = states.QuadratureGrid(-24.0, 24.0, n_points)
    thermal = states.make_gaussian(grid,
                                   states.GaussianSpec("thermal", nbar=2.0))
    phase = np.exp(1j * 1.3 * grid.xs)
    want = phase[:, None] * np.conj(phase)[None, :] * thermal.rho
    assert np.array_equal(PR.momentum_kick(thermal, 1.3).rho, want)


def test_momentum_kick_aliasing_guard(ground):
    nyquist = math.pi / ground.grid.dx
    with pytest.raises(GridError):
        PR.momentum_kick(ground, 1.2 * nyquist)


def test_kick_rotate_kick_flips_initial_momentum(grid):
    state = states.make_gaussian(grid, states.GaussianSpec("ground",
                                                           mean_p=0.9))
    out = PR.momentum_kick(PR.rotate_half_period(PR.momentum_kick(state,
                                                                  4.0)), 4.0)
    assert states.moments(out)[1] == pytest.approx(-0.9, abs=1e-9)


def test_rotate_half_period_matches_fock_rotation(grid, squeezed):
    kicked = PR.momentum_kick(squeezed, 1.5)
    flip = PR.rotate_half_period(kicked)
    fock_way = evolve_on_grid(kicked, math.pi, 128)
    assert np.max(np.abs(flip.rho - fock_way.rho)) < 1e-6


# ---------------------------------------------------------------------------
# two-pulse sequence
# ---------------------------------------------------------------------------

def test_two_pulse_cancels_mean_momentum(ground):
    out, prob = PR.two_pulse_prepare(ground, 1.0, 5.0, window(0.5, 60.0))
    assert abs(states.moments(out)[1]) < 1e-6
    assert prob == pytest.approx(1.0, abs=1e-9)


def test_two_pulse_strengthens_measurement(ground):
    single = M.condition_exact(ground, M.LinearPulseMeasurement(1.0, 0.0, 1.5))
    mid = PR.rotate_half_period(single)
    double = M.condition_exact(mid, M.LinearPulseMeasurement(1.0, 0.0, 1.5))
    min_single, _ = W.negativity(W.wigner_transform(single))
    min_double, _ = W.negativity(W.wigner_transform(double))
    assert abs(min_double) > abs(min_single)


def test_two_pulse_zero_strength_is_pure_kinematics(ground):
    out, _ = PR.two_pulse_prepare(ground, 0.0, 2.0, window(0.0, 4.0))
    assert states.purity(out) == pytest.approx(1.0, abs=1e-9)
    assert abs(states.moments(out)[1]) < 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def config(**kw):
    base = dict(initial=states.GaussianSpec("ground"), chi=1.0,
                window=window(), n_runs=2000, seed=11)
    base.update(kw)
    return PR.ProtocolConfig(**base)


def test_single_run_is_deterministic():
    a = PR.run_protocol(config(n_runs=1))
    b = PR.run_protocol(config(n_runs=1))
    assert np.array_equal(a.outcomes, b.outcomes)
    assert a.n_accepted == b.n_accepted


def test_summary_is_bit_reproducible():
    a = PR.run_protocol(config())
    b = PR.run_protocol(config())
    assert a.acceptance_rate == b.acceptance_rate
    if a.mean_state is not None:
        assert np.array_equal(a.mean_state.rho, b.mean_state.rho)


def reference_protocol(cfg, grid):
    """Per-run loop: draw an outcome from the run's (node, noise) variates,
    condition on it, flip and repeat for a second pulse; returns acceptance
    flags, outcomes and accepted-ensemble mean.  The node is the first of the
    diagonal folded onto x > 0 whose running sum reaches (1 - u_node) of the
    total, and the outcome is chi x^2 there plus ndtri(u_noise) / sqrt(2).
    Run k's variates are row k % 256 of block k // 256's draw."""
    state0 = states.make_gaussian(grid, cfg.initial)
    half = grid.n_points // 2
    sq = cfg.chi * grid.xs[half:] ** 2
    lo, hi = cfg.window.lo, cfg.window.hi
    flags, outcomes, total = [], [], np.zeros_like(state0.rho)
    for k in range(cfg.n_runs):
        if k % 256 == 0:
            block = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                cfg.seed, spawn_key=(0, k // 256)))).random(
                    (min(256, cfg.n_runs - k), 1 + cfg.two_pulse, 2))
        st, qs = state0, []
        for u_node, u_noise in block[k % 256]:
            if qs:
                st = PR.rotate_half_period(st)
            diag = st.diagonal()
            cdf = np.cumsum((diag[half:] + diag[:half][::-1]) * grid.dx)
            node = np.searchsorted(cdf, (1.0 - u_node) * cdf[-1])
            qs.append(float(sq[node] + ndtri(max(u_noise, 2.0**-54))
                            * math.sqrt(0.5)))
            st = M.condition_exact(
                st, M.LinearPulseMeasurement(cfg.chi, cfg.omega_kick, qs[-1]))
        flags.append(all(lo <= q <= hi for q in qs))
        outcomes.append(qs)
        if flags[-1]:
            total += st.rho
    return flags, np.array(outcomes), total / sum(flags)


@pytest.mark.parametrize("two_pulse", [False, True],
                         ids=["single_pulse", "two_pulse"])
def test_engine_matches_per_run_reference(two_pulse):
    # coarse grid keeps the reference loop fast; 600 runs span three blocks
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    cfg = config(two_pulse=two_pulse, omega_kick=1.5, n_runs=600, seed=21,
                 window=window(1.5, 1.2))
    summary = PR.run_protocol(cfg, grid=grid)
    flags, outcomes, mean = reference_protocol(cfg, grid)
    assert summary.accepted.dtype == bool
    assert summary.accepted.tolist() == flags
    assert summary.outcomes.shape == (600, 1 + two_pulse)
    assert np.array_equal(summary.outcomes[:, 0], outcomes[:, 0])
    assert np.max(np.abs(summary.outcomes - outcomes)) <= 1e-12
    assert summary.n_accepted == sum(flags)
    assert np.max(np.abs(summary.mean_state.rho - mean)) <= 1e-12


def test_shorter_campaign_draws_a_prefix_of_the_longer():
    # run k's draws depend only on the seed and k: 300 runs end inside the
    # second block, which 700 runs fill
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    for two_pulse in (False, True):
        short, full = (PR.run_protocol(config(n_runs=n, two_pulse=two_pulse,
                                              omega_kick=1.5), grid=grid)
                       for n in (300, 700))
        assert np.array_equal(short.outcomes, full.outcomes[:300])
        assert np.array_equal(short.accepted, full.accepted[:300])


@pytest.mark.parametrize("n_runs", [1, 256, 257, 10_000])
def test_tomography_key_is_no_block_key(monkeypatch, n_runs):
    keys = []
    seed_sequence = np.random.SeedSequence

    def recording(*args, **kwargs):
        keys.append(tuple(kwargs.get("spawn_key", ())))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    PR.run_protocol(config(n_runs=n_runs),
                    grid=states.QuadratureGrid(-8.0, 8.0, 128))
    assert len(keys) == -(-n_runs // 256)
    assert len(set(keys)) == len(keys)
    assert PR._TOMOGRAPHY_KEY not in keys


@pytest.mark.parametrize("two_pulse", [False, True],
                         ids=["single_pulse", "two_pulse"])
def test_closed_form_matches_window_maps(two_pulse):
    # P of condition_window (two_pulse_prepare), or 0.0 where they raise
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    prepare = PR.two_pulse_prepare if two_pulse else M.condition_window
    specs = (states.GaussianSpec("ground"),
             states.GaussianSpec("thermal", nbar=0.7),
             states.GaussianSpec("momentum_squeezed", r=0.4),
             states.GaussianSpec("ground", mean_x=0.8, mean_p=-0.5))
    raised = compared = 0
    for spec in specs:
        state = states.make_gaussian(grid, spec)
        for chi in (0.0, 1.0, 100.0):
            for win in (window(1.5, 0.8), M.OutcomeWindow(50.0, 0.1)):
                closed = PR.run_protocol(config(
                    initial=spec, chi=chi, window=win, omega_kick=1.5,
                    two_pulse=two_pulse, n_runs=1),
                    grid=grid).closed_form_probability
                try:
                    prob = prepare(state, chi, 1.5, win)[1]
                except ConditioningError:
                    raised += 1
                    assert closed == 0.0
                    continue
                compared += 1
                assert abs(closed - prob) <= 1e-14 * prob
    assert raised and compared


@pytest.mark.parametrize("two_pulse", [False, True],
                         ids=["single_pulse", "two_pulse"])
def test_aliased_kick_raises_with_no_run_accepted(two_pulse):
    with pytest.raises(GridError):
        PR.run_protocol(config(window=M.OutcomeWindow(50.0, 0.1),
                               omega_kick=1000.0, n_runs=64,
                               two_pulse=two_pulse))


@pytest.mark.parametrize("two_pulse", [False, True],
                         ids=["single_pulse", "two_pulse"])
def test_run_protocol_builds_one_matrix(monkeypatch, two_pulse):
    # the acceptance needs only the diagonal: the mean state is the one n x n
    # map, and no window map runs
    calls = dict.fromkeys(("_even_map", "condition_window",
                           "two_pulse_prepare"), 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        for mod in (M, PR):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod,
                                                                     name)))
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    for win, maps in ((window(1.5, 1.2), 1), (M.OutcomeWindow(50.0, 0.1), 0)):
        calls.update(dict.fromkeys(calls, 0))
        summary = PR.run_protocol(config(window=win, omega_kick=1.5,
                                         n_runs=300, two_pulse=two_pulse),
                                  grid=grid)
        assert (summary.n_accepted > 0) == bool(maps)
        assert calls == {"_even_map": maps, "condition_window": 0,
                         "two_pulse_prepare": 0}


def test_acceptance_tracks_closed_form():
    summary = PR.run_protocol(config(n_runs=10_000, seed=3))
    p0 = summary.closed_form_probability
    se = math.sqrt(p0 * (1 - p0) / summary.n_runs)
    assert abs(summary.acceptance_rate - p0) < 3 * se


def test_acceptance_tracks_closed_form_at_large_strength():
    # at chi = 100 the window sits where chi x^2 is steep; drawing through a
    # 2048-point outcome grid read this acceptance about 6 SE low
    summary = PR.run_protocol(config(chi=100.0, window=window(20.0, 0.5),
                                     n_runs=20_000, seed=5))
    p0 = summary.closed_form_probability
    se = math.sqrt(p0 * (1 - p0) / summary.n_runs)
    assert abs(summary.acceptance_rate - p0) < 3 * se


def test_outcome_mean_matches_formula():
    # ground state at chi 1: <q> = chi <x^2> = 0.5, Var q = 2 (chi <x^2>)^2
    # + 1/2 = 1, so the standard error of the mean is 1 / sqrt(n)
    q = PR.run_protocol(config(n_runs=10_000, seed=6)).outcomes[:, 0]
    assert abs(q.mean() - 0.5) < 3.0 / math.sqrt(q.size)


def test_first_outcomes_follow_the_exact_mixture():
    # on the grid, P(q) = sum_i w_i K(q - chi x_i^2) with w_i = rho_ii dx
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    state = states.make_gaussian(grid, states.GaussianSpec("thermal",
                                                           nbar=0.7))
    q = PR.run_protocol(config(initial=states.GaussianSpec(
        "thermal", nbar=0.7), n_runs=4000, seed=12), grid=grid).outcomes[:, 0]
    w = state.diagonal() * grid.dx

    def cdf(x):
        return ndtr(math.sqrt(2.0) * np.subtract.outer(x, grid.xs**2)) @ w \
            / w.sum()

    assert stats.kstest(q, cdf).pvalue > 0.01


def test_zero_strength_draws_pure_shot_noise():
    # chi = 0 reads no position: both outcomes of every run are N(0, 1/2)
    summary = PR.run_protocol(config(chi=0.0, two_pulse=True, n_runs=5000,
                                     seed=8, window=window(0.0, 1.0)))
    _, p_value = stats.kstest(summary.outcomes.ravel(), "norm",
                              args=(0.0, math.sqrt(0.5)))
    assert p_value > 0.01


def test_extreme_variates_give_finite_outcomes_on_weighted_nodes():
    # Generator.random returns k 2^-53 for 0 <= k < 2^53; at both extremes
    # a node variate must still pick a node of positive weight, and a noise
    # variate a finite shot noise
    sq = np.arange(6.0)
    weights = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 0.0])
    top = 1.0 - 2.0**-53
    u = np.array([[0.0, 0.0], [0.0, top], [top, 0.0], [top, top]])
    noise = ndtri(np.maximum(u[:, 1], 2.0**-54)) * math.sqrt(0.5)
    assert np.all(np.isfinite(noise))
    for cdf in (np.cumsum(weights), np.tile(np.cumsum(weights), (4, 1))):
        q = PR._outcomes(sq, cdf, u)
        assert np.all(np.isfinite(q))
        assert np.rint(q - noise).tolist() == [4.0, 4.0, 2.0, 2.0]


@pytest.mark.parametrize("two_pulse", [False, True],
                         ids=["single_pulse", "two_pulse"])
def test_mean_state_ratio_has_mean_one(two_pulse):
    # E[rho_k | accepted] is the windowed state rho_w and every rho_k is
    # pure, so r = n_acc ||mean - rho_w||^2_HS / (1 - Tr rho_w^2) has mean 1
    # for any n_acc; seeds 0-39 are fixed in advance
    grid = states.QuadratureGrid(-8.0, 8.0, 128)
    ground = states.make_gaussian(grid, states.GaussianSpec("ground"))
    win = window(1.5, 1.2)
    prepare = PR.two_pulse_prepare if two_pulse else M.condition_window
    target = prepare(ground, 1.0, 1.5, win)[0]
    ratios = []
    for seed in range(40):
        summary = PR.run_protocol(config(n_runs=500, seed=seed, window=win,
                                         omega_kick=1.5, two_pulse=two_pulse),
                                  grid=grid)
        diff = states.DensityMatrixGrid(grid, summary.mean_state.rho
                                        - target.rho)
        ratios.append(summary.n_accepted * states.purity(diff)
                      / (1.0 - states.purity(target)))
    se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
    assert abs(np.mean(ratios) - 1.0) < 3.0 * se


def test_mixture_matches_windowed_state(grid, ground):
    summary = PR.run_protocol(config(n_runs=10_000, seed=4), grid=grid)
    target, _ = M.condition_window(ground, 1.0, 0.0, window())
    diff = (summary.mean_state.rho - target.rho) * grid.dx
    trace_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    assert trace_distance < 3.0 / math.sqrt(summary.n_accepted)


def assert_empty_ensemble(two_pulse):
    summary = PR.run_protocol(config(window=M.OutcomeWindow(50.0, 0.1),
                                     n_runs=64, two_pulse=two_pulse))
    assert summary.n_accepted == 0
    assert summary.mean_state is None
    assert summary.closed_form_probability == 0.0


def test_empty_ensemble_reports_not_raises():
    assert_empty_ensemble(two_pulse=False)


def test_empty_ensemble_reports_not_raises_two_pulse():
    assert_empty_ensemble(two_pulse=True)


def test_two_pulse_monte_carlo_consistency():
    cfg = config(two_pulse=True, omega_kick=2.0, n_runs=4000, seed=9,
                 window=window(1.5, 1.2))
    summary = PR.run_protocol(cfg)
    p0 = summary.closed_form_probability
    se = math.sqrt(p0 * (1 - p0) / cfg.n_runs)
    assert abs(summary.acceptance_rate - p0) < 4 * se
    assert abs(states.moments(summary.mean_state)[1]) < 0.1


def test_config_validation():
    with pytest.raises(DomainError):
        config(n_runs=0)
    with pytest.raises(DomainError, match="chi"):
        config(chi=-1.0)


@pytest.mark.parametrize("field, value", [("chi", math.nan),
                                          ("chi", math.inf),
                                          ("omega_kick", math.nan),
                                          ("omega_kick", -math.inf)])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        config(**{field: value})


def test_records_jsonl_export(tmp_path):
    summary = PR.run_protocol(config(n_runs=50, two_pulse=True,
                                     window=window(1.5, 1.2)))
    path = tmp_path / "runs.jsonl"
    PR.records_to_jsonl(summary, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 50
    for i, line in enumerate(lines):
        assert json.loads(line) == {
            "run": i, "outcomes": summary.outcomes[i].tolist(),
            "accepted": bool(summary.accepted[i])}
    assert 0 < summary.n_accepted < 50


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_tomography_ground_sampled(ground):
    rng = np.random.default_rng(123)
    _, report = PR.tomography(ground, ANGLES16, 10.0, 100_000, rng)
    assert report["correlation"] >= 0.98
    assert report["blur_variance"] == pytest.approx(0.005)


def test_tomography_noiseless_gaussians(grid):
    angles = [k * math.pi / 32 for k in range(32)]
    for spec in (states.GaussianSpec("ground"),
                 states.GaussianSpec("thermal", nbar=2.0),
                 states.GaussianSpec("momentum_squeezed", r=0.5)):
        state = states.make_gaussian(grid, spec)
        _, report = PR.tomography(state, angles, 10.0, 0, None)
        assert report["correlation"] >= 0.99


def test_tomography_retains_negativity(ground):
    conditioned, _ = M.condition_window(ground, 1.0, 0.0, window())
    rng = np.random.default_rng(7)
    _, report = PR.tomography(conditioned, ANGLES16, 10.0, 100_000, rng)
    assert report["min_w"] < -1e-3


def test_tomography_warns_on_few_angles(ground):
    with pytest.warns(ReconstructionWarning):
        PR.tomography(ground, [0.0, math.pi / 4, math.pi / 2], 10.0, 0, None)


def test_tomography_validates_angles(ground):
    with pytest.raises(DomainError):
        PR.tomography(ground, [0.0, 3.5], 10.0, 0, None)
    with pytest.raises(DomainError):
        PR.tomography(ground, [0.0, 0.0], 10.0, 0, None)
    with pytest.raises(DomainError):
        PR.tomography(ground, [math.nan], 10.0, 0, None)
    with pytest.raises(DomainError):
        PR.tomography(ground, ANGLES16, -1.0, 0, None)
    with pytest.raises(DomainError):
        PR.tomography(ground, ANGLES16, 10.0, -5, None)
    for chi_p in (math.nan, math.inf):
        with pytest.raises(DomainError, match="chi_p"):
            PR.tomography(ground, ANGLES16, chi_p, 0, None)
    with pytest.raises(DomainError, match="one or more angles"):
        PR.tomography(ground, [], 10.0, 0, None)


# non-uniform, unsorted angles: the marginals may not lean on an even grid
ODD_ANGLES = [0.0, 2.9, 0.37, 1.2, 1.5707963267948966, 3.1]


@pytest.mark.parametrize("maker", ["ground", "squeezed", "fig2b",
                                   "displaced"])
def test_rotated_marginals_match_fock_round_trip(grid, ground, squeezed,
                                                 maker):
    # the displaced state has a complex rho_F, so Im A_k is exercised too
    state = {"ground": ground, "squeezed": squeezed,
             "fig2b": M.condition_window(ground, 1.0, 0.0, window())[0],
             "displaced": states.make_gaussian(grid, states.GaussianSpec(
                 "ground", mean_x=1.0, mean_p=-0.7))}[maker]
    fock = states.grid_to_fock(state, 128)
    marginals = PR._rotated_marginals(
        fock.rho, states.hermite_functions(grid.xs, 128), ODD_ANGLES)
    for theta, marginal in zip(ODD_ANGLES, marginals):
        ref = states.fock_to_grid(PR.free_evolve(fock, theta),
                                  grid).diagonal()
        assert np.max(np.abs(marginal - ref)) <= 1e-14 * np.max(ref)


CHI_P = 10.0
BLUR_SD = 1.0 / (math.sqrt(2.0) * CHI_P)


def fig2b_state(ground):
    return M.condition_window(ground, 1.0, 0.0, window())[0]


def clipped_marginals(state, angles, dim=128):
    fock = states.grid_to_fock(state, dim)
    return np.clip(PR._rotated_marginals(
        fock.rho, states.hermite_functions(state.grid.xs, dim), angles),
        0.0, None)


def detector_axis(grid):
    s_axis = grid.xs[::4]
    return s_axis, float(s_axis[1] - s_axis[0])


def reference_noiseless_recon(state, angles, dim, panels):
    """Noiseless tomography's unnormalised back-projection by a per-angle
    loop: one Fock round trip per angle, and each bin's probability by
    composite Simpson quadrature (`panels` intervals a bin) of the
    cell-averaged, blurred density sum_j w_j [Phi((y - x_j + dx/2) / sd) -
    Phi((y - x_j - dx/2) / sd)] / dx."""
    xs, dx = state.grid.xs, state.grid.dx
    s_axis, ds = detector_axis(state.grid)
    h = ds / panels
    ys = s_axis[0] - 0.5 * ds + h * np.arange(panels * s_axis.size + 1)
    cells = (ndtr((ys[:, None] - xs + 0.5 * dx) / BLUR_SD)
             - ndtr((ys[:, None] - xs - 0.5 * dx) / BLUR_SD)) / dx
    fock = states.grid_to_fock(state, dim)
    x_mesh, p_mesh = np.meshgrid(s_axis, s_axis, indexing="ij")
    recon = np.zeros_like(x_mesh)
    for theta in angles:
        rotated = states.fock_to_grid(PR.free_evolve(fock, float(theta)),
                                      state.grid)
        marginal = np.clip(rotated.diagonal(), 0.0, None)
        f = cells @ (marginal / marginal.sum())
        per_bin = f[:-1].reshape(s_axis.size, panels)
        probs = h / 3.0 * (per_bin[:, 0] + 4.0 * per_bin[:, 1::2].sum(axis=1)
                           + 2.0 * per_bin[:, 2::2].sum(axis=1)
                           + f[panels::panels])
        q = PR._ramp_filtered(probs / ds, ds)
        s_req = x_mesh * math.cos(theta) + p_mesh * math.sin(theta)
        recon += np.interp(s_req.ravel(), s_axis, q, left=0.0,
                           right=0.0).reshape(s_req.shape)
    return recon / (2.0 * len(angles))


def ramp_gain(n, ds):
    """sum_{|d| < n} |h_d| for the ramp filter's impulse response h: the
    largest factor by which _ramp_filtered can grow a max-norm error."""
    impulses = np.zeros((2, n))
    impulses[0, 0] = impulses[1, -1] = 1.0
    h = PR._ramp_filtered(impulses, ds)  # h_0..h_{n-1}, h_{1-n}..h_0
    return float(np.sum(np.abs(h)) - abs(h[0, 0]))


def test_noiseless_tomography_matches_per_angle_quadrature(ground):
    state = fig2b_state(ground)
    grid = state.grid
    angles = sorted(ODD_ANGLES + [0.8, 2.2])
    s_axis, ds = detector_axis(grid)
    panels = 32
    wigner, report = PR.tomography(state, angles, CHI_P, 0, None,
                                   fock_dim=128)
    ref = reference_noiseless_recon(state, angles, 128, panels)
    # Derived bound on max |p - p_ref| per bin.  Composite Simpson errs by at
    # most ds (ds/panels)^4 max|f''''| / 180 on a bin; each cell's density
    # has |f''''| <= 2 max|phi'''| / (sd^4 dx), and the weights sum to 1.
    # max|phi'''| = |3t - t^3| phi(t) at t^2 = 3 - sqrt(6).  The two
    # marginal routes agree to 1e-14 of the peak, and each p sums n terms,
    # so both add under 1e-12.
    t = math.sqrt(3.0 - math.sqrt(6.0))
    phi3 = (3.0 * t - t**3) * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    eps_p = (ds * (ds / panels) ** 4 / 180.0
             * 2.0 * phi3 / (BLUR_SD**4 * grid.dx) + 1e-12)
    # g = p / ds; the ramp filter grows a max-norm error by at most
    # ramp_gain, and back-projection averages with weights summing to 1/2
    bound = 0.5 * ramp_gain(s_axis.size, ds) * eps_p / ds
    assert bound < 1e-4 * np.max(ref)  # fine enough to see dx/2 shifts
    recon = wigner.w * report["raw_integral"]
    assert np.max(np.abs(recon - ref)) <= bound


def test_bin_probabilities_pass_chi_square_against_per_sample_draws(ground):
    # one angle's closed-form p against 1e6 events of the same law: the
    # cell from the marginal, uniform within the cell, Gaussian noise
    grid = ground.grid
    xs, dx = grid.xs, grid.dx
    s_axis, ds = detector_axis(grid)
    marginal = clipped_marginals(fig2b_state(ground), [0.37])
    probs = PR._bin_probabilities(marginal, dx, BLUR_SD)[0]
    rng = np.random.default_rng(2718)
    n_events = 1_000_000
    cell = rng.choice(xs.size, size=n_events, p=marginal[0] / marginal.sum())
    events = (xs[cell] + dx * (rng.uniform(size=n_events) - 0.5)
              + rng.normal(0.0, BLUR_SD, size=n_events))
    edges = np.append(s_axis - 0.5 * ds, s_axis[-1] + 0.5 * ds)
    observed = np.histogram(events, bins=edges)[0]
    observed = np.append(observed, n_events - observed.sum())
    expected = n_events * np.append(probs, max(1.0 - probs.sum(), 0.0))
    small = expected < 5.0  # pooled into one category
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert stats.chi2.sf(chi2, observed.size - 1) > 1e-3


def test_sampled_tomography_mean_approaches_noiseless(ground):
    # The unnormalised back-projection (W times raw_integral) is linear in
    # the counts, so over K seeds its mean is the noiseless one plus noise
    # whose variance follows from the multinomial covariance of the counts.
    state = fig2b_state(ground)
    grid = state.grid
    angles = sorted(ODD_ANGLES + [0.8, 2.2])
    s_axis, ds = detector_axis(grid)
    n_events, seeds = 100_000, 16
    exact_w, exact = PR.tomography(state, angles, CHI_P, 0, None)
    exact_recon = exact_w.w * exact["raw_integral"]
    mean = np.zeros_like(exact_recon)
    for seed in range(seeds):
        w, report = PR.tomography(state, angles, CHI_P, n_events,
                                  np.random.default_rng(seed))
        mean += w.w * report["raw_integral"] / seeds
    probs = PR._bin_probabilities(clipped_marginals(state, angles),
                                  grid.dx, BLUR_SD)
    ramp = PR._ramp_filtered(np.eye(s_axis.size), ds)  # row b: bin b's q
    variance = np.zeros(exact_recon.size)
    for theta, p in zip(angles, probs):
        s_req = np.add.outer(s_axis * math.cos(theta),
                             s_axis * math.sin(theta)).ravel()
        # each pixel's response to one event in bin b, per bin
        gain = np.column_stack([
            np.interp(s_req, s_axis, q, left=0.0, right=0.0) for q in ramp]
        ) / (n_events * ds * 2.0 * len(angles))
        variance += n_events * (gain**2 @ p - (gain @ p) ** 2)
    bound = 5.0 * np.sqrt(variance.reshape(mean.shape) / seeds) + 1e-12
    assert np.max(bound) < 0.05 * np.max(exact_recon)
    assert np.all(np.abs(mean - exact_recon) <= bound)


def test_bin_probabilities_keep_the_grid_mean(grid):
    # the cell-centred law has no half-cell shift: the binned mean is the
    # grid marginal's mean
    displaced = states.make_gaussian(grid, states.GaussianSpec(
        "ground", mean_x=1.0, mean_p=-0.7))
    marginals = clipped_marginals(displaced, ODD_ANGLES)
    probs = PR._bin_probabilities(marginals, grid.dx, BLUR_SD)
    s_axis, _ = detector_axis(grid)
    binned = probs @ s_axis / probs.sum(axis=1)
    on_grid = marginals @ grid.xs / marginals.sum(axis=1)
    assert np.max(np.abs(binned - on_grid)) <= 1e-9 * grid.dx
