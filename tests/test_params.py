"""Parameter-chain tests: every derived quantity against hand-checked values.

Reference numbers were computed independently with scipy/CODATA constants
(direct formula evaluation) before the module was written.
"""

import math

import pytest

from optomech import params as pm
from optomech.constants import HBAR
from optomech.errors import ContractError, DomainError

TABLE1 = dict(wavelength=1064e-9, mass=40e-12, omega_m=2 * math.pi * 2e3,
              finesse=5e4, photon_number=1.7e9, cavity_length=750e-6,
              reflectivity=0.5, temperature=25e-3, quality_factor=5e6)


def test_zero_point_extension_table1():
    x0 = pm.zero_point_extension(40e-12, 2 * math.pi * 2e3)
    assert x0 == pytest.approx(1.0242079791e-14, rel=1e-9)
    assert abs(x0 - 10e-15) / 10e-15 < 0.03


def test_zero_point_mass_frequency_tradeoff():
    a = pm.zero_point_extension(1e-9, 5e4)
    b = pm.zero_point_extension(4e-9, 5e4 / 4)
    assert a == pytest.approx(b, rel=1e-14)


def test_zero_point_unit_case():
    assert pm.zero_point_extension(1.0, 1.0) == pytest.approx(
        math.sqrt(HBAR / 2.0), rel=1e-14)


def test_zero_point_rejects_nonpositive():
    with pytest.raises(DomainError):
        pm.zero_point_extension(-1.0, 1.0)
    with pytest.raises(DomainError):
        pm.zero_point_extension(1.0, 0.0)


def test_linear_coupling_table1():
    g = pm.linear_coupling(1064e-9, 1.0242079791e-14, 750e-6)
    assert g / (2 * math.pi) == pytest.approx(3847.74, rel=1e-5)
    assert abs(g / (2 * math.pi) - 3.8e3) / 3.8e3 < 0.02


def test_linear_coupling_inverse_in_length():
    g1 = pm.linear_coupling(1064e-9, 10e-15, 750e-6)
    g2 = pm.linear_coupling(1064e-9, 10e-15, 1500e-6)
    assert g1 == pytest.approx(2 * g2, rel=1e-14)


def test_cavity_decay_table1():
    kappa = pm.cavity_decay(5e4, 750e-6)
    assert kappa == pytest.approx(1.2557677e7, rel=1e-6)
    g = pm.linear_coupling(1064e-9, pm.zero_point_extension(*[40e-12,
                           2 * math.pi * 2e3]), 750e-6)
    assert abs(g / kappa - 1.9e-3) / 1.9e-3 < 0.03
    assert abs(kappa / (2 * math.pi * 2e3) - 1e3) / 1e3 < 0.03


def test_cavity_decay_scales_inversely_with_finesse():
    assert pm.cavity_decay(1e5, 750e-6) == pytest.approx(
        pm.cavity_decay(5e4, 750e-6) / 2, rel=1e-14)


def test_square_strength_table1():
    chi = pm.square_measurement_strength(1.7e9, 1.9e-3, 1.0)
    assert abs(chi - 1.0) < 0.05
    assert chi == pytest.approx(math.sqrt(42 * 1.7e9) * (1.9e-3) ** 2,
                                rel=1e-12)


def test_square_strength_unit_and_zero():
    assert pm.square_measurement_strength(0.0, 1.0, 1.0) == 0.0
    assert pm.square_measurement_strength(1.0, 1.0, 1.0) == pytest.approx(
        math.sqrt(42.0), rel=1e-14)


def test_square_strength_scaling_structure():
    base = pm.square_measurement_strength(1e6, 2e-3, 1.0)
    assert pm.square_measurement_strength(4e6, 2e-3, 1.0) == pytest.approx(
        2 * base, rel=1e-12)
    assert pm.square_measurement_strength(1e6, 4e-3, 1.0) == pytest.approx(
        4 * base, rel=1e-12)


def test_momentum_kick_values():
    assert pm.mean_momentum_kick(1.7e9, 1.9e-3, 1.0) == pytest.approx(
        7.613183e6, rel=1e-6)
    assert pm.mean_momentum_kick(0.0, 1.0, 1.0) == 0.0
    assert pm.mean_momentum_kick(1.0, 1.0, 1.0) == pytest.approx(
        5 * math.sqrt(2) / 3, rel=1e-14)


def test_quadratic_coupling_limits():
    x0 = 1.0242079791e-14
    assert pm.quadratic_coupling(1064e-9, x0, 750e-6, 1.0) == 0.0
    near_one = pm.quadratic_coupling(1064e-9, x0, 750e-6, 1 - 1e-9)
    assert near_one < 1e-3 * pm.quadratic_coupling(1064e-9, x0, 750e-6, 0.5)


def test_quadratic_coupling_half_reflectivity():
    x0 = 1.0242079791e-14
    geom = 16 * math.pi**2 * 2.99792458e8 * x0**2 / (750e-6 * (1064e-9) ** 2)
    assert pm.quadratic_coupling(1064e-9, x0, 750e-6, 0.5) == pytest.approx(
        geom, rel=1e-12)
    # hand evaluation at r = 0.99
    assert pm.quadratic_coupling(1064e-9, x0, 750e-6, 0.99) == pytest.approx(
        geom * math.sqrt(0.02), rel=1e-12)


def test_quadratic_coupling_rejects_r_above_one():
    with pytest.raises(DomainError):
        pm.quadratic_coupling(1064e-9, 1e-14, 750e-6, 1.5)


def test_dispersive_strengths():
    assert pm.dispersive_strengths(0.0, 1.0, 1.0) == (0.0, 0.0)
    chi_sq, omega_sq = pm.dispersive_strengths(10.0, 1.0, 1.0)
    assert chi_sq == pytest.approx(10.0, rel=1e-14)
    assert omega_sq == pytest.approx(30.0, rel=1e-14)
    chi_sq, omega_sq = pm.dispersive_strengths(1.0, 0.3, 2.0)
    assert chi_sq == pytest.approx(math.sqrt(10) * 0.15, rel=1e-14)
    assert omega_sq == pytest.approx(0.45, rel=1e-14)


def test_strength_ratio_identical_systems():
    p_lin = pm.SystemParams(**TABLE1)
    p_sq = pm.SystemParams(**TABLE1)
    ratio = pm.strength_ratio(p_lin, p_sq)
    # sqrt(42)*16 / (sqrt(10)*32*pi) * F at r = 1/2
    assert ratio == pytest.approx(math.sqrt(4.2) / 2 * 5e4 / math.pi,
                                  rel=1e-10)
    closed = pm.strength_ratio_closed_form(p_lin, p_sq)
    assert abs(ratio - closed) / closed < 0.03


def test_strength_ratio_finesse_scaling():
    p_sq = pm.SystemParams(**TABLE1)
    r1 = pm.strength_ratio(pm.SystemParams(**TABLE1), p_sq)
    r2 = pm.strength_ratio(pm.SystemParams(**{**TABLE1, "finesse": 1e5}),
                           p_sq)
    assert r2 == pytest.approx(4 * r1, rel=1e-10)


def test_strength_ratio_diverges_at_perfect_reflectivity():
    p_lin = pm.SystemParams(**TABLE1)
    lo = pm.strength_ratio(p_lin, pm.SystemParams(**{**TABLE1,
                                                     "reflectivity": 0.9}))
    hi = pm.strength_ratio(p_lin, pm.SystemParams(
        **{**TABLE1, "reflectivity": 1 - 1e-9}))
    assert hi > 1e3 * lo


def test_strength_ratio_requires_matching_photons_and_wavelength():
    p_lin = pm.SystemParams(**TABLE1)
    with pytest.raises(ContractError):
        pm.strength_ratio(p_lin, pm.SystemParams(**{**TABLE1,
                                                    "photon_number": 1e9}))
    with pytest.raises(ContractError):
        pm.strength_ratio(p_lin, pm.SystemParams(**{**TABLE1,
                                                    "wavelength": 1550e-9}))


def test_thermal_occupation():
    nbar = pm.thermal_occupation(25e-3, 2 * math.pi * 2e3)
    assert nbar == pytest.approx(2.604572e5, rel=1e-6)
    assert abs(nbar / 5e6 - 0.05) / 0.05 < 0.10
    assert pm.thermal_occupation(0.0, 1.0) == 0.0


def test_cavity_shift_after_kick():
    assert pm.cavity_shift_after_kick(1.0, 0.0) == 0.0
    assert pm.cavity_shift_after_kick(2 * math.pi * 3800, 7.61e6) == \
        pytest.approx(2.569586e11, rel=1e-6)


def test_derive_full_chain():
    der = pm.derive(pm.SystemParams(**TABLE1))
    assert der.x0 == pytest.approx(1.0242079791e-14, rel=1e-9)
    assert der.chi_x == pytest.approx(0.9903807, rel=1e-6)
    assert der.omega_lin == pytest.approx(7.7141698e6, rel=1e-6)
    assert der.delta_omega_kick == pytest.approx(2.637485e11, rel=1e-6)
    assert der.nbar_over_q == pytest.approx(0.0520914, rel=1e-5)
    assert der.kappa_over_omega_m == pytest.approx(999.308, rel=1e-5)
    assert der.short_pulse_ok
    assert der.redrive_obstructed  # delta_omega/kappa ~ 2e4


def test_short_pulse_warning_state():
    slow = pm.derive(pm.SystemParams(**{**TABLE1, "omega_m": 2e5}))
    assert not slow.short_pulse_ok


def test_format_table_mirrors_layout():
    system = pm.SystemParams(**TABLE1)
    table = pm.format_table(system, pm.derive(system))
    lines = table.splitlines()
    assert lines[0].startswith("Optical wavelength:")
    assert any(line.startswith("-") for line in lines)
    assert lines[-1].startswith("Separation")
    assert "delta" in lines[-1] and "2" in lines[-1]


def test_format_table_single_peak_below_one_third():
    # chi_x <= 1/3 leaves one central peak at outcome 1.5: no separation
    system = pm.SystemParams(**{**TABLE1, "photon_number": 1e8})
    derived = pm.derive(system)
    assert derived.chi_x <= 1.0 / 3.0
    last = pm.format_table(system, derived).splitlines()[-1]
    assert last.split()[-2:] == ["delta", "-"]


@pytest.mark.parametrize("field", ["wavelength", "mass", "temperature",
                                   "quality_factor", "reflectivity"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_system_params_reject_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        pm.SystemParams(**{**TABLE1, field: value})


def test_system_params_validation():
    with pytest.raises(DomainError):
        pm.SystemParams(**{**TABLE1, "mass": -1.0})
    with pytest.raises(DomainError):
        pm.SystemParams(**{**TABLE1, "reflectivity": 1.0})
