"""Intracavity pulse response and numeric verification of measurement strengths.

Expanding the driven-cavity mean field in powers of the (small) optical
rotation angle g X / kappa produces a cascade of first-order filters, all
with the cavity pole:

    alpha0' = -kappa alpha0 + sqrt(2 kappa) alpha_in      (direct drive)
    alpha1' = -kappa alpha1 + sqrt(2) kappa alpha0        (X signal)
    alpha2' = -kappa alpha2 + sqrt(2) kappa alpha1        (X^2 signal)

Each stage is the transfer function c / (kappa + i omega) on the drive's FFT.
A local oscillator matched to alpha1 reads mechanical position; matched to
alpha2 it reads position squared with strength

    chi = 2 sqrt(2 kappa N_p) (g/kappa)^2 ||alpha2||_2,

and the pulse transfers mean momentum sqrt(2) g N_p integral alpha0^2 dt.
Driving with the matched input power spectrum

    alpha_in^2(omega) = (3 pi)^(-1) 8 kappa^5 / (kappa^2 + omega^2)^3

(the spectrum proportional to the alpha2 filter gain) these reduce to
chi = sqrt(42 N_p) (g/kappa)^2 and kick (5 sqrt(2)/3) N_p g / kappa, which
is the closed-form pair the cascade integration must reproduce; a
Lorentzian-spectrum drive (the optimum for plain position readout) gives
strictly smaller chi.  Among drives whose spectral concentration
integral alpha_in^4(omega) d omega does not exceed the matched pulse's
(i.e. pulses at most as long), Cauchy-Schwarz makes the matched spectrum
the exact maximizer, which is what the random-envelope probe exercises.
No envelope is rescaled: each has unit norm by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0, k1

from .errors import DomainError, TruncationError

__all__ = [
    "PulseEnvelope",
    "ModeFunctions",
    "default_time_grid",
    "optimal_square_spectrum",
    "lorentzian_spectrum",
    "optimal_spectrum_amplitude",
    "lorentzian_spectrum_amplitude",
    "random_smooth_envelope",
    "cascade_integrate",
    "numeric_square_strength",
    "numeric_momentum_kick",
    "modes_to_csv",
]

# spectral concentration integral f^2 domega of the matched X^2 spectrum,
# f = alpha_in^2; equals (64*63)/(9*256*pi) / kappa = 1.75/(pi kappa)
MATCHED_SPECTRAL_CONCENTRATION = 1.75 / math.pi


@dataclass
class PulseEnvelope:
    """Real drive envelope alpha_in sampled on a uniform time grid [1/kappa]."""

    t_axis: np.ndarray
    samples: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.t_axis[1] - self.t_axis[0])


@dataclass
class ModeFunctions:
    """Cascade outputs alpha0, alpha1, alpha2 on the envelope's time grid."""

    t_axis: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray

    def norms_squared(self):
        return tuple(float(np.trapezoid(a**2, self.t_axis))
                     for a in (self.alpha0, self.alpha1, self.alpha2))


def default_time_grid(kappa: float) -> np.ndarray:
    """t in [-12, +25]/kappa on 49153 points: 12/kappa of pre-pulse room,
    enough post-pulse decay for the cascade tails to fall below 1e-6 of
    peak."""
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    return np.linspace(-12.0 / kappa, 25.0 / kappa, 49153)


def optimal_spectrum_amplitude(omega, kappa: float):
    """Amplitude spectrum of the matched X^2 drive, sqrt of the stated power
    spectrum: sqrt(8 kappa^5 / 3 pi) (kappa^2 + omega^2)^(-3/2)."""
    return math.sqrt(8.0 * kappa**5 / (3.0 * math.pi)) \
        * (kappa**2 + np.asarray(omega, dtype=float) ** 2) ** (-1.5)


def lorentzian_spectrum_amplitude(omega, kappa: float):
    """Amplitude of the cavity-matched Lorentzian power spectrum
    kappa / (pi (kappa^2 + omega^2))."""
    return np.sqrt(kappa / (np.pi * (kappa**2
                                     + np.asarray(omega, dtype=float) ** 2)))


def optimal_square_spectrum(kappa: float, t_axis=None) -> PulseEnvelope:
    """Time-domain envelope of the matched X^2 drive.

    The inverse transform of the amplitude spectrum is
    alpha(t) = sqrt(2/pi) A (|t|/kappa) K_1(kappa |t|), A = sqrt(8 kappa^5/3 pi),
    smooth at t = 0 where t K_1(kappa t) -> 1/kappa.  It has unit norm in
    closed form; its trapezoid norm on the default grid is 1 - 2.1e-10.
    """
    if t_axis is None:
        t_axis = default_time_grid(kappa)
    span = float(t_axis[-1] - t_axis[0])
    if span < 20.0 / kappa:
        raise TruncationError(f"time grid spans {span * kappa:.1f}/kappa, "
                              "need at least 20/kappa")
    if t_axis[0] > -8.0 / kappa or t_axis[-1] < 8.0 / kappa:
        raise TruncationError("time grid must bracket the pulse center 0 by "
                              "at least 8/kappa on each side")
    amp = math.sqrt(8.0 * kappa**5 / (3.0 * math.pi))
    z = kappa * np.abs(t_axis)
    vals = np.where(z < 1e-12, 1.0, z * k1(np.maximum(z, 1e-12))) / kappa
    return PulseEnvelope(t_axis, math.sqrt(2.0 / math.pi) * amp * vals)


def lorentzian_spectrum(kappa: float) -> PulseEnvelope:
    """Time-domain envelope of the Lorentzian-power-spectrum drive.

    alpha(t) = (sqrt(2 kappa)/pi) K_0(kappa |t|) on the default time grid,
    whose nodes miss the log spike at t = 0 (the nearest lies 0.19 dt from
    it).  The closed form has unit norm (integral of K_0^2 over t > 0 is
    pi^2/4); the trapezoid rule loses 4.3e-4 of it on the spike.
    """
    t_axis = default_time_grid(kappa)
    return PulseEnvelope(t_axis, math.sqrt(2.0 * kappa) / math.pi
                         * k0(kappa * np.abs(t_axis)))


def random_smooth_envelope(kappa: float,
                           rng: np.random.Generator) -> PulseEnvelope:
    """Random smooth drive at matched spectral concentration.

    Draws a positive bump mixture for the power spectrum f(omega),
    symmetrizes it, normalizes its area on 2049 nodes over |omega| <= 12
    kappa and rescales the frequency axis so that integral f^2 domega
    equals the matched pulse's value (f_s = s f(s omega) keeps unit area
    while scaling the concentration by s).  sqrt(f_s) on the nodes
    omega_k = 2 pi k / (2^16 dt) of that band is one irfft, as
    cos(omega_k m dt) = cos(2 pi k m / 2^16); by Parseval the trapezoid
    norm is 1 to 1e-12.  Pulses of this family cannot beat the matched
    spectrum's chi, which makes them fair probes of the optimality claim.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    # duration matching can stretch the pulse well beyond the matched
    # spectrum's tails, so the probe grid is much longer than the default
    t_axis = np.linspace(-50.0 / kappa, 50.0 / kappa, 28673)
    n_bumps = int(rng.integers(2, 6))
    centers = rng.uniform(-1.5 * kappa, 1.5 * kappa, n_bumps)
    widths = rng.uniform(0.6 * kappa, 1.2 * kappa, n_bumps)
    amps = rng.uniform(0.2, 1.0, n_bumps)

    def mixture(omega):
        return sum(a * (np.exp(-0.5 * ((omega - c) / width) ** 2)
                        + np.exp(-0.5 * ((omega + c) / width) ** 2))
                   for c, width, a in zip(centers, widths, amps))

    w_max = 12.0 * kappa
    omega = np.linspace(-w_max, w_max, 2049)
    dw = float(omega[1] - omega[0])
    f = mixture(omega)
    area = float(np.sum(f) * dw)
    s = (MATCHED_SPECTRAL_CONCENTRATION / kappa) \
        / float(np.sum((f / area) ** 2) * dw)
    n_fft, dt = 1 << 16, 100.0 / (kappa * (t_axis.size - 1))
    d_omega = 2.0 * math.pi / (n_fft * dt)
    nodes = d_omega * np.arange(int(w_max / (s * d_omega)) + 1)
    # irfft zero-pads the band and adds each -omega_k term; unscaled sum
    wrapped = np.fft.irfft(np.sqrt(s * mixture(s * nodes) / area) * d_omega
                           / math.sqrt(2.0 * math.pi), n_fft, norm="forward")
    samples = np.roll(wrapped, t_axis.size // 2)[:t_axis.size]  # t < 0 wraps
    return PulseEnvelope(t_axis, samples)


# ---------------------------------------------------------------------------
# cascade integration
# ---------------------------------------------------------------------------

def cascade_integrate(pulse: PulseEnvelope, kappa: float) -> ModeFunctions:
    """Solve the three-stage cavity-response cascade in the frequency domain.

    Each stage multiplies the rfft of the drive, zero-padded to twice its
    length so the causal response decays for a further grid span before it
    could wrap, by c / (kappa + i omega); one irfft per stage gives alpha_k.
    This is exact for the band-limited drive: Gaussian drives on the default
    grid meet a quadrature convolution oracle to ~1e-12 of each peak.  The
    drive's t_axis must be uniform and increasing.
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    if pulse.samples.shape != pulse.t_axis.shape:
        raise DomainError("pulse samples and t_axis differ in shape")
    step = pulse.dt
    if not np.all(np.abs(np.diff(pulse.t_axis) - step) <= 1e-6 * step):
        raise DomainError("pulse t_axis must be uniform and increasing: the "
                          "response is solved on its first step")
    n = pulse.t_axis.size
    lowpass = 1.0 / (kappa + 2j * math.pi * np.fft.rfftfreq(2 * n, step))
    spectrum = np.fft.rfft(pulse.samples, 2 * n)
    alphas = []
    for gain in (math.sqrt(2.0 * kappa), math.sqrt(2.0) * kappa,
                 math.sqrt(2.0) * kappa):
        spectrum = spectrum * (gain * lowpass)
        alphas.append(np.fft.irfft(spectrum, 2 * n)[:n])
    for name, arr in zip(("alpha0", "alpha1", "alpha2"), alphas):
        if not np.all(np.isfinite(arr)):
            raise TruncationError(f"{name} integration diverged")
        peak = float(np.max(np.abs(arr)))
        tail = float(abs(arr[-1]))
        if peak > 0 and not tail < 1e-6 * peak:
            raise TruncationError(
                f"{name} has not decayed at the final grid time "
                f"({tail / peak:.2e} of peak); extend the time grid")
    return ModeFunctions(pulse.t_axis, *alphas)


def numeric_square_strength(modes: ModeFunctions, photon_number: float,
                            g_lin: float, kappa: float) -> float:
    """X^2 measurement strength from the integrated cavity response.

    With the local oscillator alpha2/||alpha2|| the homodyne mean picks up
    -2 sqrt(2 kappa N_p) (g/kappa)^2 ||alpha2|| <X^2>; the prefactor of <X^2>
    is the strength.
    """
    if photon_number < 0 or g_lin <= 0 or kappa <= 0:
        raise DomainError("photon_number >= 0 and positive g_lin, kappa required")
    norm_a2 = math.sqrt(float(np.trapezoid(modes.alpha2**2, modes.t_axis)))
    return 2.0 * math.sqrt(2.0 * kappa * photon_number) \
        * (g_lin / kappa) ** 2 * norm_a2


def numeric_momentum_kick(modes: ModeFunctions, photon_number: float,
                          g_lin: float) -> float:
    """Mean momentum kick sqrt(2) g N_p integral alpha0^2 dt (leading order
    of the radiation-pressure transfer)."""
    if photon_number < 0 or g_lin <= 0:
        raise DomainError("photon_number >= 0 and g_lin > 0 required")
    return math.sqrt(2.0) * g_lin * photon_number * modes.norms_squared()[0]


def modes_to_csv(pulse: PulseEnvelope, modes: ModeFunctions, path) -> None:
    """Five-column CSV: t, alpha_in, alpha0, alpha1, alpha2."""
    np.savetxt(path, np.column_stack([pulse.t_axis, pulse.samples,
                                      modes.alpha0, modes.alpha1,
                                      modes.alpha2]),
               fmt="%.9g", delimiter=",",
               header="t,alpha_in,alpha0,alpha1,alpha2", comments="")
