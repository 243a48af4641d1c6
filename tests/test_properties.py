"""Property tests of the measurement maps on random Gaussian inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from optomech import measurement as M  # noqa: E402
from optomech import protocol as PR  # noqa: E402
from optomech import states  # noqa: E402
from optomech import wigner as W  # noqa: E402

GRID = states.QuadratureGrid(-8.0, 8.0, 64)

specs = hs.builds(
    states.GaussianSpec,
    kind=hs.sampled_from(["ground", "thermal", "momentum_squeezed",
                          "position_squeezed"]),
    nbar=hs.floats(0.0, 1.0), r=hs.floats(0.0, 0.6),
    mean_x=hs.floats(-0.5, 0.5), mean_p=hs.floats(-1.0, 1.0))


@settings(max_examples=60)
@given(spec=specs, chi=hs.floats(0.2, 2.0), omega=hs.floats(-2.0, 2.0),
       cuts=hs.lists(hs.integers(-8, 8), min_size=1, max_size=4,
                     unique=True))
def test_tiling_windows_sum_to_unconditional_map(spec, chi, omega, cuts):
    # windows tiling the whole outcome line telescope their erf differences,
    # so sum_w P_w rho_w is the closed-form unconditional map
    state = states.make_gaussian(GRID, spec)
    mean_q = M.outcome_pdf(state, chi).mean()
    lo, hi = -10.0, chi * GRID.x_max**2 + 10.0
    # interior edges at least 0.25 apart within 2 of the mean outcome, so
    # every window keeps a probability far above MIN_EVENT_PROBABILITY
    edges = [lo] + sorted(mean_q + 0.25 * c for c in cuts) + [hi]
    total = np.zeros_like(state.rho)
    for a, b in zip(edges[:-1], edges[1:]):
        rho_w, p_w = M.condition_window(state, chi, omega,
                                        M.OutcomeWindow(0.5 * (a + b), b - a))
        total += p_w * rho_w.rho
    expected = M.uncondition(state, chi, omega).rho
    assert np.max(np.abs(total - expected)) <= 1e-12


@settings(max_examples=40)
@given(spec=specs, chi=hs.floats(0.2, 2.0), omega=hs.floats(-2.0, 2.0),
       offset=hs.floats(-1.0, 1.0), width=hs.floats(0.2, 3.0))
def test_maps_keep_density_matrix_invariants(spec, chi, omega, offset,
                                             width):
    state = states.make_gaussian(GRID, spec)
    window = M.OutcomeWindow(M.outcome_pdf(state, chi).mean() + offset, width)
    for out in (M.condition_window(state, chi, omega, window)[0],
                M.uncondition(state, chi, omega),
                PR.momentum_kick(state, omega),
                PR.rotate_half_period(state)):
        states.validate_state(out)


@settings(max_examples=30)
@given(spec=specs, chi=hs.floats(0.2, 2.0), omega=hs.floats(-2.0, 2.0))
def test_maps_leave_input_unchanged(spec, chi, omega):
    # callers reuse a state after mapping it, so no map may write into rho
    state = states.make_gaussian(GRID, spec)
    before = state.rho.copy()
    window = M.OutcomeWindow(M.outcome_pdf(state, chi).mean(), 1.0)
    maps = {
        "condition_window": lambda: M.condition_window(state, chi, omega,
                                                       window),
        "condition_exact": lambda: M.condition_exact(
            state, M.LinearPulseMeasurement(chi, omega, window.center)),
        "uncondition": lambda: M.uncondition(state, chi, omega),
        "momentum_kick": lambda: PR.momentum_kick(state, omega),
        "rotate_half_period": lambda: PR.rotate_half_period(state),
        "wigner_transform": lambda: W.wigner_transform(state),
        "moments": lambda: states.moments(state),
        "purity": lambda: states.purity(state),
    }
    for name, run in maps.items():
        run()
        assert np.array_equal(state.rho, before), name


def _fock_invariants(fock):
    rho = fock.rho
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    purity = float(np.real(np.trace(rho @ rho)))
    return np.array([fock.trace(), herm, smallest, purity])


@settings(max_examples=40)
@given(spec=specs, theta=hs.floats(-2.0 * np.pi, 2.0 * np.pi))
def test_free_evolve_keeps_density_matrix_invariants(spec, theta):
    # a diagonal phase map is unitary: trace, Hermiticity, spectrum and
    # purity of the Fock-basis matrix must all survive it
    fock = states.grid_to_fock(states.make_gaussian(GRID, spec), 32)
    before = _fock_invariants(fock)
    after = _fock_invariants(PR.free_evolve(fock, theta))
    assert np.max(np.abs(after - before)) <= 1e-12
