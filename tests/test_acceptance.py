"""Acceptance suite: the thirteen reproduction criteria, one test each.

Each test runs the corresponding verification check at its stated tolerance
and prints one PASS/FAIL line per sub-check (visible with `pytest -s`, and
in the failure report otherwise).  The same checks back `optomech verify`.

Criteria and tolerances:
 1. parameter-table chain (x0 3%, g/2pi 2%, g/kappa 3%, chi 5%, delta 1.3%)
 2. windowed probabilities 14.9/14.5/1.1 % within 0.3 pp
 3. Monte-Carlo acceptance within 3 binomial SE of the closed form
 4. cascade chi and kick within 0.5%; Lorentzian strictly smaller
 5. mean-outcome law, relative error < 1e-5 over nbar x chi grid
 6. negativity pattern of the nine panels
 7. closed-form vs quadrature oracles < 1e-8
 8. Wigner normalization/marginal/purity identities < 1e-5
 9. two-pulse momentum cancellation < 1e-6
10. physical separation 28 fm within 2%
11. strength-ratio two-sided check within 3% over a 5-point sweep
12. nbar/Q = 0.05 within 10%
13. tomography: ground correlation >= 0.98, conditioned min W < -1e-3
"""

import pytest

from optomech import measurement as ms
from optomech import verification as vf


def _run(name):
    results = vf.run_checks([name])
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: measured {r.measured:.6g} "
              f"(target {r.target:.6g}, tol {r.tolerance:g})")
    failed = [r for r in results if not r.passed]
    assert not failed, "failed sub-checks: " + ", ".join(
        f"{r.name} measured {r.measured:.6g} vs target {r.target:.6g}"
        for r in failed)


def test_criterion_01_table1_chain():
    _run("table1")


def test_criterion_02_window_probabilities():
    _run("window_probabilities")


def test_criterion_03_monte_carlo_consistency():
    _run("monte_carlo")


def test_criterion_04_pulse_verification():
    _run("pulse")


def test_criterion_05_mean_outcome_law():
    _run("mean_outcome")


def test_criterion_06_negativity_pattern():
    _run("negativity")


def test_criterion_07_oracle_equivalences():
    _run("oracles")


def test_criterion_08_wigner_identities():
    _run("wigner_identities")


def test_criterion_09_momentum_cancellation():
    _run("momentum_cancellation")


def test_criterion_10_physical_separation():
    _run("physical_separation")


def test_criterion_11_strength_ratio_two_sided():
    _run("strength_ratio")


def test_criterion_12_rethermalization_figure():
    _run("rethermalization")


def test_criterion_13_tomography_round_trip():
    _run("tomography")


def test_every_check_is_covered_above():
    # keep this file in lockstep with the verification registry
    covered = {"table1", "window_probabilities", "monte_carlo", "pulse",
               "mean_outcome", "negativity", "oracles", "wigner_identities",
               "momentum_cancellation", "physical_separation",
               "strength_ratio", "rethermalization", "tomography"}
    assert covered == set(vf.CHECKS)


@pytest.mark.parametrize("override,expect_fail", [
    ({"table1.chi_x": 1.2}, True),
    ({}, False),
])
def test_overrides_drive_failures(override, expect_fail):
    results = vf.run_checks(["table1"], overrides=override)
    assert any(not r.passed for r in results) == expect_fail


def test_table1_delta_follows_the_derived_chain():
    # delta = sqrt(6 chi - 2) / chi at sigma^2 = 1/2, outcome 1.5, with chi
    # the chain's chi_x, not the unit strength of the paper's figure
    rows = {r.name: r for r in vf.run_checks(["table1"])}
    chi = rows["table1.chi_x"].measured
    assert rows["table1.delta"].measured == pytest.approx(
        (6 * chi - 2) ** 0.5 / chi, rel=1e-12)


@pytest.fixture(scope="module")
def full_run():
    """Rows of one run_checks() call and its number of condition_window
    calls made through the measurement module."""
    calls = []
    original = ms.condition_window

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ms, "condition_window", counted)
        results = vf.run_checks()
    return results, len(calls)


def test_fig2_panels_are_conditioned_once(full_run):
    # panels (b), (e), (h) serve criteria 2, 6 and 8; Monte Carlo, the
    # oracles and tomography make one call each
    assert full_run[1] == 6


def test_every_row_honours_its_override(full_run):
    names = [r.name for r in full_run[0]]
    sentinel = 12345.0
    results = vf.run_checks(overrides=dict.fromkeys(names, sentinel))
    assert [r.name for r in results] == names
    assert [r.name for r in results if r.target != sentinel] == []
