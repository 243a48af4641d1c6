"""Cavity-response cascade and pulse-spectrum verification.

Closed-form targets come from the filter-chain spectral integrals: with the
matched X^2 power spectrum f(w) = (3 pi)^-1 8 k^5/(k^2+w^2)^3,

    int a0^2 dt = 5/(3k),  int a1^2 dt = 35/(12k),  int a2^2 dt = 21/(4k),

and with the cavity-matched Lorentzian f = k/(pi (k^2+w^2)),

    int a0^2 dt = 1/k,     int a1^2 dt = 3/(2k),    int a2^2 dt = 5/(2k),

which give chi = sqrt(42 N) (g/k)^2 and sqrt(20 N) (g/k)^2 respectively,
and kicks (5 sqrt2/3) N g/k and sqrt2 N g/k.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from optomech import params as pm
from optomech import pulse as P
from optomech.errors import DomainError, TruncationError

KAPPA = 1.0
N_P = 1.7e9
G_LIN = 1.9e-3


@pytest.fixture(scope="module")
def optimal_modes():
    env = P.optimal_square_spectrum(KAPPA)
    return env, P.cascade_integrate(env, KAPPA)


@pytest.fixture(scope="module")
def lorentzian_modes():
    env = P.lorentzian_spectrum(KAPPA)
    return env, P.cascade_integrate(env, KAPPA)


def test_optimal_spectrum_normalization_analytic():
    omega = np.linspace(-400.0, 400.0, 400_001)
    f = P.optimal_spectrum_amplitude(omega, KAPPA) ** 2
    assert np.trapezoid(f, omega) == pytest.approx(1.0, abs=1e-6)


def test_optimal_spectrum_dc_value():
    # sqrt(8 k^5 / 3 pi) / k^3 = sqrt(8 / (3 pi k))
    assert P.optimal_spectrum_amplitude(0.0, 2.0) == pytest.approx(
        math.sqrt(8.0 / (3.0 * math.pi * 2.0)), rel=1e-12)


def _hurwitz_zeta_d2(a, n=1000):
    """d^2/ds^2 zeta(s, a) at s = 0: the sum of ln^2(k + a) over k < n plus
    the Euler-Maclaurin tail of the rest (error O(ln^2 n / n^3))."""
    x = n + a
    lx = math.log(x)
    return float(np.sum(np.log(np.arange(n) + a) ** 2)) \
        - x * (lx * lx - 2.0 * lx + 2.0) + 0.5 * lx * lx - lx / (6.0 * x)


def test_envelopes_unit_norm(optimal_modes, lorentzian_modes):
    env = optimal_modes[0]
    assert np.trapezoid(env.samples**2, env.t_axis) == pytest.approx(
        1.0, abs=1e-9)
    # the Lorentzian closed form has unit norm; its trapezoid sum misses the
    # K_0 log spike.  Near t = 0, alpha^2 = c L^2 with c = 2 kappa / pi^2 and
    # L = -ln(kappa |t| / 2) - gamma; with the nearest nodes at phi dt and
    # (1 - phi) dt from the spike, the generalized Euler-Maclaurin (Navot)
    # expansion of the offset sums over ln^2 t, ln t and 1 gives the deficit
    #   c dt [ -Z2 - 2 (ln(kappa dt) - ln 2 + gamma) ln(2 sin(pi phi)) ],
    # Z2 = zeta''(0, phi) + zeta''(0, 1 - phi), to O((kappa dt)^3 ln^2)
    env = lorentzian_modes[0]
    c = 2.0 * KAPPA / math.pi**2
    exact, _ = quad(lambda t: 2.0 * c * special.k0(KAPPA * t) ** 2,
                    0.0, np.inf, limit=200)
    assert exact == pytest.approx(1.0, abs=1e-10)
    phi = env.t_axis[env.t_axis > 0][0] / env.dt
    z2 = _hurwitz_zeta_d2(phi) + _hurwitz_zeta_d2(1.0 - phi)
    beta = math.log(2.0) - np.euler_gamma
    derived = -c * env.dt * (z2 + 2.0 * (math.log(KAPPA * env.dt) - beta)
                             * math.log(2.0 * math.sin(math.pi * phi)))
    deficit = 1.0 - np.trapezoid(env.samples**2, env.t_axis)
    assert 0.0 < deficit == pytest.approx(derived, rel=1e-4)


def test_optimal_envelope_even_in_time():
    t_axis = np.linspace(-15.0, 15.0, 16385)
    env = P.optimal_square_spectrum(KAPPA, t_axis)
    assert np.max(np.abs(env.samples - env.samples[::-1])) < 1e-12


def test_lorentzian_hwhm():
    power_dc = P.lorentzian_spectrum_amplitude(0.0, 2.0) ** 2
    power_hwhm = P.lorentzian_spectrum_amplitude(2.0, 2.0) ** 2
    assert power_hwhm == pytest.approx(power_dc / 2.0, rel=1e-12)


@pytest.mark.parametrize("envelope, amplitude, tol", [
    (P.optimal_square_spectrum, P.optimal_spectrum_amplitude, 3e-5),
    (P.lorentzian_spectrum, P.lorentzian_spectrum_amplitude, 3e-4),
], ids=["optimal", "lorentzian"])
def test_envelope_transform_matches_spectrum_amplitude(envelope, amplitude,
                                                       tol):
    # the stated amplitude spectra are the oracles of the time-domain
    # envelopes: (2 pi)^(-1/2) int alpha(t) exp(-i omega t) dt, by
    # trapezoid on the envelope's own grid; measured max |diff| is 8.4e-6
    # (optimal) and 1.6e-5 (Lorentzian, whose log spike at t = 0 falls
    # between nodes and aliases onto the band)
    env = envelope(KAPPA)
    omega = np.linspace(-6.0, 6.0, 49)
    transform = np.array([
        np.trapezoid(env.samples * np.exp(-1j * w * env.t_axis), env.t_axis)
        for w in omega]) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(transform - amplitude(omega, KAPPA))) < tol


def test_lorentzian_pulse_is_narrower_in_time(optimal_modes,
                                              lorentzian_modes):
    # the matched X^2 spectrum decays faster in frequency, so its pulse is
    # broader in time; verified by the normalized second moments
    def second_moment(env):
        w = env.samples**2
        mean = np.trapezoid(env.t_axis * w, env.t_axis)
        return np.trapezoid((env.t_axis - mean) ** 2 * w, env.t_axis)

    assert second_moment(optimal_modes[0]) > 5 * second_moment(
        lorentzian_modes[0])


def test_cascade_norms_match_spectral_integrals(optimal_modes):
    _, modes = optimal_modes
    n0, n1, n2 = modes.norms_squared()
    assert n0 == pytest.approx(5.0 / 3.0, rel=5e-3)
    assert n1 == pytest.approx(35.0 / 12.0, rel=5e-3)
    assert n2 == pytest.approx(21.0 / 4.0, rel=5e-3)


def test_lorentzian_cascade_norms(lorentzian_modes):
    _, modes = lorentzian_modes
    n0, n1, n2 = modes.norms_squared()
    assert n0 == pytest.approx(1.0, rel=2e-3)
    assert n1 == pytest.approx(1.5, rel=2e-3)
    assert n2 == pytest.approx(2.5, rel=2e-3)


def test_cascade_gain_bounds(optimal_modes, lorentzian_modes):
    # each stage is a stable low-pass with DC gain sqrt(2/kappa) then sqrt(2)
    for env, modes in (optimal_modes, lorentzian_modes):
        m_in = np.max(np.abs(env.samples))
        m0 = np.max(np.abs(modes.alpha0))
        m1 = np.max(np.abs(modes.alpha1))
        m2 = np.max(np.abs(modes.alpha2))
        assert m0 <= math.sqrt(2.0 / KAPPA) * m_in * (1 + 1e-9)
        assert m1 <= math.sqrt(2.0) * m0 * (1 + 1e-9)
        assert m2 <= math.sqrt(2.0) * m1 * (1 + 1e-9)


def test_numeric_strength_hits_closed_form(optimal_modes):
    _, modes = optimal_modes
    chi = P.numeric_square_strength(modes, N_P, G_LIN, KAPPA)
    target = pm.square_measurement_strength(N_P, G_LIN, KAPPA)
    assert abs(chi - target) / target < 5e-3


def test_numeric_kick_hits_closed_form(optimal_modes):
    _, modes = optimal_modes
    kick = P.numeric_momentum_kick(modes, N_P, G_LIN)
    target = pm.mean_momentum_kick(N_P, G_LIN, KAPPA)
    assert abs(kick - target) / target < 5e-3


def test_lorentzian_strength_strictly_smaller(optimal_modes,
                                              lorentzian_modes):
    chi_opt = P.numeric_square_strength(optimal_modes[1], N_P, G_LIN, KAPPA)
    chi_lor = P.numeric_square_strength(lorentzian_modes[1], N_P, G_LIN,
                                        KAPPA)
    assert chi_lor < chi_opt
    assert chi_lor == pytest.approx(math.sqrt(20 * N_P) * G_LIN**2, rel=1e-3)


def test_numeric_strength_scaling_structure(optimal_modes):
    _, modes = optimal_modes
    base = P.numeric_square_strength(modes, N_P, G_LIN, KAPPA)
    assert P.numeric_square_strength(modes, 4 * N_P, G_LIN, KAPPA) == \
        pytest.approx(2 * base, rel=1e-12)
    assert P.numeric_square_strength(modes, N_P, 2 * G_LIN, KAPPA) == \
        pytest.approx(4 * base, rel=1e-12)


def test_momentum_kick_zero_photons(optimal_modes):
    assert P.numeric_momentum_kick(optimal_modes[1], 0.0, G_LIN) == 0.0


def test_impulse_response():
    # unit-area spike drive: alpha0 relaxes as sqrt(2 k) exp(-k t); the
    # residual deficit of int alpha0^2 scales as (2/sqrt(pi)) sigma kappa
    t_axis = np.linspace(-12.0, 25.0, 98305)
    sigma = 0.005
    samples = np.exp(-0.5 * (t_axis / sigma) ** 2) \
        / math.sqrt(2 * math.pi * sigma**2)
    env = P.PulseEnvelope(t_axis, samples)
    modes = P.cascade_integrate(env, KAPPA)
    late = t_axis > 0.5
    expected = math.sqrt(2 * KAPPA) * np.exp(-KAPPA * t_axis[late])
    assert np.max(np.abs(modes.alpha0[late] - expected)) < 2e-3
    kick = P.numeric_momentum_kick(modes, N_P, G_LIN)
    assert kick == pytest.approx(math.sqrt(2) * N_P * G_LIN, rel=1e-2)


@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_cascade_pointwise_against_convolution_oracle(sigma):
    # stage k of the cascade is the drive convolved with the k-fold cavity
    # kernel tau^k exp(-kappa tau) / k!, times the product of stage gains
    t_axis = P.default_time_grid(KAPPA)
    env = P.PulseEnvelope(t_axis, np.exp(-0.5 * (t_axis / sigma) ** 2))
    modes = P.cascade_integrate(env, KAPPA)
    gains = np.cumprod([math.sqrt(2 * KAPPA), math.sqrt(2) * KAPPA,
                        math.sqrt(2) * KAPPA])
    nodes = np.searchsorted(t_axis, [-2.0, -0.5, 0.0, 0.7, 1.5, 3.0, 6.0])
    for k, alpha in enumerate((modes.alpha0, modes.alpha1, modes.alpha2)):
        peak = np.max(np.abs(alpha))
        for i in nodes:
            t = t_axis[i]
            val, _ = quad(lambda tau: tau**k * math.exp(
                -KAPPA * tau - 0.5 * ((t - tau) / sigma) ** 2),
                0.0, max(t, 0.0) + 12 * sigma, points=[max(t, 0.0)],
                epsabs=1e-14, epsrel=1e-13, limit=200)
            oracle = gains[k] * val / math.factorial(k)
            assert abs(alpha[i] - oracle) < 1e-10 * peak


def test_constant_drive_steady_state():
    # flat drive reaching steady state alpha0 = sqrt(2/k) alpha_in, ramped
    # off at the end so the decay invariant holds
    t_axis = np.linspace(-12.0, 36.0, 49153)
    level = 0.2
    samples = np.full(t_axis.size, level)
    samples[t_axis < -10.0] = 0.0
    ramp = (t_axis > 15.0) & (t_axis < 18.0)
    samples[ramp] = level * 0.5 * (1 + np.cos(np.pi * (t_axis[ramp] - 15.0)
                                              / 3.0))
    samples[t_axis >= 18.0] = 0.0
    modes = P.cascade_integrate(P.PulseEnvelope(t_axis, samples), KAPPA)
    window = (t_axis > 5.0) & (t_axis < 14.0)
    assert np.max(np.abs(modes.alpha0[window]
                         - math.sqrt(2.0 / KAPPA) * level)) < 1e-6


def test_coarse_grid_cascade_norm():
    t_axis = np.linspace(-12.0, 25.0, 4097)  # dt ~ 9e-3/kappa
    env = P.optimal_square_spectrum(KAPPA, t_axis)
    modes = P.cascade_integrate(env, KAPPA)
    n0 = modes.norms_squared()[0]
    assert n0 == pytest.approx(5.0 / 3.0, rel=5e-3)


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_random_envelope_matches_dense_cosine_sum(seed):
    # reference: the same draws, the same 2049-node area and concentration,
    # and the inverse transform as a dense sum of cosines on those nodes
    # (every 7th time point, t = 0 among them)
    env = P.random_smooth_envelope(KAPPA, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    n_bumps = int(rng.integers(2, 6))
    centers = rng.uniform(-1.5 * KAPPA, 1.5 * KAPPA, n_bumps)
    widths = rng.uniform(0.6 * KAPPA, 1.2 * KAPPA, n_bumps)
    amps = rng.uniform(0.2, 1.0, n_bumps)
    omega = np.linspace(-12.0 * KAPPA, 12.0 * KAPPA, 2049)
    dw = omega[1] - omega[0]
    f = np.zeros_like(omega)
    for c, width, a in zip(centers, widths, amps):
        f += a * (np.exp(-0.5 * ((omega - c) / width) ** 2)
                  + np.exp(-0.5 * ((omega + c) / width) ** 2))
    f /= np.sum(f) * dw
    s = (P.MATCHED_SPECTRAL_CONCENTRATION / KAPPA) / (np.sum(f**2) * dw)
    t = env.t_axis[::7]
    dense = np.cos(np.outer(t, omega / s)) @ np.sqrt(s * f) \
        * (dw / s) / math.sqrt(2.0 * math.pi)
    peak = np.max(np.abs(env.samples))
    assert np.max(np.abs(env.samples[::7] - dense)) < 1e-12 * peak
    assert np.trapezoid(env.samples**2, env.t_axis) == pytest.approx(
        1.0, abs=1e-12)


def test_random_envelopes_never_beat_matched_spectrum(rng):
    target = pm.square_measurement_strength(N_P, G_LIN, KAPPA)
    for _ in range(5):
        env = P.random_smooth_envelope(KAPPA, rng)
        chi = P.numeric_square_strength(P.cascade_integrate(env, KAPPA),
                                        N_P, G_LIN, KAPPA)
        assert chi <= target * 1.005


def test_time_grid_validation():
    with pytest.raises(TruncationError):
        P.optimal_square_spectrum(KAPPA, np.linspace(-5.0, 5.0, 4097))
    with pytest.raises(DomainError):
        P.default_time_grid(-1.0)
    with pytest.raises(DomainError):
        P.random_smooth_envelope(-1.0, np.random.default_rng(0))


def test_nondecaying_drive_rejected():
    t_axis = np.linspace(-12.0, 25.0, 8193)
    env = P.PulseEnvelope(t_axis, np.ones(t_axis.size))
    with pytest.raises(TruncationError):
        P.cascade_integrate(env, KAPPA)


def test_mismatched_samples_rejected():
    t_axis = np.linspace(-12.0, 25.0, 8193)
    env = P.PulseEnvelope(t_axis, np.zeros(t_axis.size + 1))
    with pytest.raises(DomainError, match="shape"):
        P.cascade_integrate(env, KAPPA)


def test_non_uniform_time_grid_rejected():
    # the same ends, monotone but stretched: the response would be solved on
    # the first step only and come out silently wrong
    u = np.linspace(0.0, 1.0, 8193)
    uniform = -12.0 + 37.0 * u
    stretched = -12.0 + 37.0 * (u + 0.05 * np.sin(2.0 * np.pi * u))
    assert np.all(np.diff(stretched) > 0)
    env = P.PulseEnvelope(uniform, np.exp(-0.5 * uniform**2))
    P.cascade_integrate(env, KAPPA)
    env = P.PulseEnvelope(stretched, np.exp(-0.5 * stretched**2))
    with pytest.raises(DomainError, match="uniform"):
        P.cascade_integrate(env, KAPPA)


def test_modes_csv(tmp_path, optimal_modes):
    env, modes = optimal_modes
    path = tmp_path / "modes.csv"
    P.modes_to_csv(env, modes, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,alpha_in,alpha0,alpha1,alpha2"
    assert len(rows) == 1 + env.t_axis.size
