"""Physical parameter chain for pulsed optomechanical measurement.

Everything downstream of the raw experimental inputs lives here: zero-point
extension, optomechanical coupling rates (linear and quadratic), cavity decay,
the dimensionless measurement strengths and momentum kicks for both readout
schemes, thermal occupation, and the cavity-shift sanity check for re-driving
after a pulse.

Conventions
-----------
Quadratures are dimensionless with [X, P] = i and ground-state variance 1/2,
so the physical displacement is x_phys = sqrt(2) * x0 * X.  All rates are
angular frequencies [rad/s]; kappa is the *amplitude* decay rate of the
cavity, kappa = pi c / (2 L F) for a two-mirror cavity of length L and
finesse F.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .constants import C, HBAR, KB
from .errors import ContractError, DomainError
from .wigner import separation_formula

__all__ = [
    "SystemParams",
    "DerivedParams",
    "zero_point_extension",
    "linear_coupling",
    "cavity_decay",
    "square_measurement_strength",
    "mean_momentum_kick",
    "quadratic_coupling",
    "dispersive_strengths",
    "strength_ratio",
    "strength_ratio_closed_form",
    "thermal_occupation",
    "cavity_shift_after_kick",
    "derive",
    "derived_to_json",
    "format_table",
]

# kappa/omega_m below this is outside the short-pulse regime the measurement
# operators assume (pulse short compared to the mechanical period).
SHORT_PULSE_RATIO = 100.0


@dataclass(frozen=True)
class SystemParams:
    """Raw experimental inputs, SI units throughout.

    wavelength      optical wavelength [m]
    mass            mechanical effective mass [kg]
    omega_m         mechanical eigenfrequency [rad/s]
    finesse         cavity finesse
    photon_number   mean photons per pulse
    cavity_length   cavity length [m]
    reflectivity    field reflectivity of the dispersive element, in [0, 1)
    temperature     bath temperature [K]
    quality_factor  mechanical quality factor
    """

    wavelength: float
    mass: float
    omega_m: float
    finesse: float
    photon_number: float
    cavity_length: float
    reflectivity: float = 0.5
    temperature: float = 25e-3
    quality_factor: float = 5e6

    def __post_init__(self):
        for name in ("wavelength", "mass", "omega_m", "finesse",
                     "photon_number", "cavity_length", "temperature",
                     "quality_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and strictly "
                                  f"positive, got {getattr(self, name)!r}")
        if not 0.0 <= self.reflectivity < 1.0:
            raise DomainError(f"reflectivity must lie in [0, 1), got "
                              f"{self.reflectivity!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Every derived quantity of the parameter chain (SI / dimensionless)."""

    x0: float                 # zero-point extension [m]
    g_lin: float              # linear optomechanical coupling [rad/s]
    kappa: float              # cavity amplitude decay rate [rad/s]
    g_over_kappa: float       # single-photon strength
    chi_x: float              # square-displacement measurement strength
    omega_lin: float          # mean momentum kick (linear scheme)
    g_sq: float               # quadratic (dispersive) coupling [rad/s]
    chi_sq: float             # dispersive measurement strength
    omega_sq: float           # mean momentum kick (dispersive scheme)
    nbar: float               # thermal occupation at `temperature`
    nbar_over_q: float        # rethermalization figure of merit
    delta_omega_kick: float   # cavity shift after one pulse's kick [rad/s]
    kappa_over_omega_m: float
    short_pulse_ok: bool      # kappa/omega_m >= SHORT_PULSE_RATIO
    redrive_obstructed: bool  # delta_omega_kick > kappa


def zero_point_extension(mass, omega_m):
    """Ground-state size sqrt(hbar / (2 m omega_m)) [m]."""
    if mass <= 0 or omega_m <= 0:
        raise DomainError("mass and omega_m must be positive")
    return math.sqrt(HBAR / (2.0 * mass * omega_m))


def linear_coupling(wavelength, x0, cavity_length):
    """Linear coupling rate g = omega_L x0 / L with omega_L = 2 pi c / lambda."""
    if wavelength <= 0 or x0 <= 0 or cavity_length <= 0:
        raise DomainError("wavelength, x0 and cavity_length must be positive")
    omega_laser = 2.0 * math.pi * C / wavelength
    return omega_laser * x0 / cavity_length


def cavity_decay(finesse, cavity_length):
    """Amplitude decay rate kappa = pi c / (2 L F) [rad/s]."""
    if finesse <= 0 or cavity_length <= 0:
        raise DomainError("finesse and cavity_length must be positive")
    return math.pi * C / (2.0 * cavity_length * finesse)


def square_measurement_strength(photon_number, g_lin, kappa):
    """Effective X^2 measurement strength sqrt(42 N_p) (g/kappa)^2.

    This is the optimal-pulse value; `pulse.numeric_square_strength`
    re-derives it from the cavity response as an independent check.
    """
    if photon_number < 0 or g_lin <= 0 or kappa <= 0:
        raise DomainError("photon_number >= 0 and positive g_lin, kappa required")
    return math.sqrt(42.0 * photon_number) * (g_lin / kappa) ** 2


def mean_momentum_kick(photon_number, g_lin, kappa):
    """Mean momentum transferred by one pulse, (5 sqrt(2) / 3) N_p g / kappa."""
    if photon_number < 0 or g_lin <= 0 or kappa <= 0:
        raise DomainError("photon_number >= 0 and positive g_lin, kappa required")
    return (5.0 * math.sqrt(2.0) / 3.0) * photon_number * g_lin / kappa


def quadratic_coupling(wavelength, x0, cavity_length, reflectivity):
    """Dispersive quadratic coupling (16 pi^2 c x0^2 / L lambda^2) sqrt(2(1-r))."""
    if wavelength <= 0 or x0 <= 0 or cavity_length <= 0:
        raise DomainError("wavelength, x0 and cavity_length must be positive")
    if reflectivity > 1.0 or reflectivity < 0.0:
        raise DomainError(f"reflectivity must lie in [0, 1], got {reflectivity!r}")
    if reflectivity == 1.0:
        return 0.0  # perfectly reflective element: no dispersive coupling
    geom = 16.0 * math.pi**2 * C * x0**2 / (cavity_length * wavelength**2)
    return geom * math.sqrt(2.0 * (1.0 - reflectivity))


def dispersive_strengths(photon_number, g_sq, kappa):
    """(chi_sq, omega_sq) for the dispersive scheme after pulse optimization.

    chi_sq = sqrt(10 N_p) g_sq / kappa,  omega_sq = 3 N_p g_sq / kappa.
    """
    if photon_number < 0 or g_sq < 0 or kappa <= 0:
        raise DomainError("photon_number, g_sq >= 0 and kappa > 0 required")
    chi_sq = math.sqrt(10.0 * photon_number) * g_sq / kappa
    omega_sq = 3.0 * photon_number * g_sq / kappa
    return chi_sq, omega_sq


def strength_ratio(params_lin: SystemParams, params_sq: SystemParams):
    """Ratio of X^2 measurement strengths, linear scheme over dispersive.

    Computed from the base formulas (couplings, decay rates, strengths) as
    derive(params_lin).chi_x / derive(params_sq).chi_sq.  Requires identical
    photon number and wavelength in the two systems; agrees with the closed
    form of `strength_ratio_closed_form` to within a constant factor
    sqrt(4.2)/2 ~ 1.025 (the closed form drops O(1) numerical factors).
    """
    if not math.isclose(params_lin.photon_number, params_sq.photon_number,
                        rel_tol=1e-12):
        raise ContractError("photon_number must match between the two systems")
    if not math.isclose(params_lin.wavelength, params_sq.wavelength,
                        rel_tol=1e-12):
        raise ContractError("wavelength must match between the two systems")
    return derive(params_lin).chi_x / derive(params_sq).chi_sq


def strength_ratio_closed_form(params_lin: SystemParams, params_sq: SystemParams):
    """Closed-form strength ratio (1/pi)(F_lin^2/F_sq)(x_lin^2/x_sq^2)/sqrt(2(1-r))."""
    x_lin = zero_point_extension(params_lin.mass, params_lin.omega_m)
    x_sq = zero_point_extension(params_sq.mass, params_sq.omega_m)
    return (params_lin.finesse**2 / params_sq.finesse
            * x_lin**2 / x_sq**2
            / (math.pi * math.sqrt(2.0 * (1.0 - params_sq.reflectivity))))


def thermal_occupation(temperature, omega_m):
    """Bose occupation 1 / (exp(hbar omega / k_B T) - 1); 0 at T = 0."""
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    if omega_m <= 0:
        raise DomainError("omega_m must be positive")
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega_m / (KB * temperature))


def cavity_shift_after_kick(g_lin, omega_lin):
    """Cavity resonance shift sqrt(2) g_lin Omega_lin after one pulse's kick.

    A quarter period after the pulse the kicked momentum has rotated into
    position, detuning the cavity; compare against kappa to decide whether
    a subsequent pulse can still drive resonantly.
    """
    if g_lin <= 0 or omega_lin < 0:
        raise DomainError("g_lin > 0 and omega_lin >= 0 required")
    return math.sqrt(2.0) * g_lin * omega_lin


def derive(params: SystemParams) -> DerivedParams:
    """Run the full chain from raw inputs to every derived quantity."""
    x0 = zero_point_extension(params.mass, params.omega_m)
    g_lin = linear_coupling(params.wavelength, x0, params.cavity_length)
    kappa = cavity_decay(params.finesse, params.cavity_length)
    chi_x = square_measurement_strength(params.photon_number, g_lin, kappa)
    omega_lin = mean_momentum_kick(params.photon_number, g_lin, kappa)
    g_sq = quadratic_coupling(params.wavelength, x0, params.cavity_length,
                              params.reflectivity)
    chi_sq, omega_sq = dispersive_strengths(params.photon_number, g_sq, kappa)
    nbar = thermal_occupation(params.temperature, params.omega_m)
    delta_omega = cavity_shift_after_kick(g_lin, omega_lin)
    ratio = kappa / params.omega_m
    return DerivedParams(
        x0=x0,
        g_lin=g_lin,
        kappa=kappa,
        g_over_kappa=g_lin / kappa,
        chi_x=chi_x,
        omega_lin=omega_lin,
        g_sq=g_sq,
        chi_sq=chi_sq,
        omega_sq=omega_sq,
        nbar=nbar,
        nbar_over_q=nbar / params.quality_factor,
        delta_omega_kick=delta_omega,
        kappa_over_omega_m=ratio,
        short_pulse_ok=ratio >= SHORT_PULSE_RATIO,
        redrive_obstructed=delta_omega > kappa,
    )


# ---------------------------------------------------------------------------
# external interface: JSON + aligned text table out
# ---------------------------------------------------------------------------

def derived_to_json(derived: DerivedParams) -> str:
    return json.dumps(asdict(derived), indent=2)


def format_table(params: SystemParams, derived: DerivedParams) -> str:
    """Aligned text table of inputs and derived values, one quantity per row."""
    sep = separation_formula(0.5, derived.chi_x, 1.5)
    rows = [
        ("Optical wavelength:", "lambda", f"{params.wavelength / 1e-9:.4g}", "[nm]"),
        ("Mechanical effective mass:", "m", f"{params.mass / 1e-12:.4g}", "[ng]"),
        ("Mechanical eigenfrequency:", "omega_M/2pi",
         f"{params.omega_m / (2 * math.pi) / 1e3:.4g}", "[kHz]"),
        ("Cavity finesse:", "F", f"{params.finesse:.3g}", ""),
        ("Photon number per pulse:", "N_p", f"{params.photon_number:.3g}", ""),
        None,
        ("Cavity length:", "L", f"{params.cavity_length / 1e-6:.4g}", "[um]"),
        ("Mechanical ground-state size:", "x_0", f"{derived.x0 / 1e-15:.3g}", "[fm]"),
        ("Optomechanical coupling:", "g_lin/2pi",
         f"{derived.g_lin / (2 * math.pi) / 1e3:.3g}", "[kHz]"),
        ("Single photon strength:", "g_lin/kappa", f"{derived.g_over_kappa:.3g}", ""),
        ("Quadratic pos. meas. strength:", "chi_X", f"{derived.chi_x:.3g}", ""),
        ("Separation (nbar=0, dQ_X=1.5):", "delta",
         "-" if sep is None else f"{sep:.3g}", ""),
    ]
    width_label = max(len(r[0]) for r in rows if r)
    width_sym = max(len(r[1]) for r in rows if r)
    width_val = max(len(r[2]) for r in rows if r)
    lines = []
    for row in rows:
        if row is None:
            lines.append("-" * (width_label + width_sym + width_val + 10))
            continue
        label, sym, val, unit = row
        lines.append(f"{label:<{width_label}}  {sym:<{width_sym}}  "
                     f"{val:>{width_val}}  {unit}")
    return "\n".join(lines).rstrip() + "\n"
