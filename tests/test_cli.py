"""Command-line interface: configs in, artifacts out, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from optomech import cli
from optomech import params as pm
from optomech import states

SYSTEM = dict(wavelength=1064e-9, mass=40e-12, omega_m=2 * math.pi * 2e3,
              finesse=5e4, photon_number=1.7e9, cavity_length=750e-6,
              reflectivity=0.5, temperature=25e-3, quality_factor=5e6)
PROTOCOL = {"initial": {"kind": "ground"}, "chi": 1.0,
            "window": {"center": 1.5, "width": 0.8}, "n_runs": 10}
# the outcome axis is set by chi alone, so the old field is refused outright
N_OUTCOMES_UNKNOWN = "config.n_outcomes is not a known field"
ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, command, cfg=None, extra=()):
    argv = [command, "--out", str(tmp_path / "out")]
    if cfg is not None:
        argv += ["--config", write_cfg(tmp_path, cfg)]
    argv += list(extra)
    return cli.main(argv), tmp_path / "out"


def test_params_command(tmp_path):
    code, out = run(tmp_path, "params", {"system": SYSTEM})
    assert code == 0
    doc = json.loads((out / "params.json").read_text())
    expected = pm.derive(pm.SystemParams(**SYSTEM))
    assert doc["chi_x"] == pytest.approx(expected.chi_x)
    assert doc["nbar_over_q"] == pytest.approx(expected.nbar_over_q)
    table = (out / "params.txt").read_text()
    assert table.startswith("Optical wavelength:")


def test_params_command_dispersive_block(tmp_path):
    code, out = run(tmp_path, "params",
                    {"system": {**SYSTEM, "reflectivity": 0.99}})
    assert code == 0
    doc = json.loads((out / "params.json").read_text())
    expected = pm.derive(pm.SystemParams(**{**SYSTEM, "reflectivity": 0.99}))
    assert doc["g_sq"] == pytest.approx(expected.g_sq)
    assert doc["chi_sq"] == pytest.approx(expected.chi_sq)
    assert doc["omega_sq"] == pytest.approx(expected.omega_sq)


def test_params_schema_violation_exit_2(tmp_path, capsys):
    cfg = {"system": {k: v for k, v in SYSTEM.items() if k != "mass"}}
    code, _ = run(tmp_path, "params", cfg)
    assert code == 2
    assert "mass" in capsys.readouterr().err


def test_params_unknown_field_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "params", {"system": {**SYSTEM, "finess": 1e4}})
    assert code == 2
    assert "finess" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    assert cli.main(["params", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_state_command_round_trip(tmp_path):
    cfg = {"grid": {"x_max": 8.0, "n_points": 512},
           "state": {"kind": "momentum_squeezed", "r": 0.5}}
    code, out = run(tmp_path, "state", cfg)
    assert code == 0
    state = states.state_from_npz(out / "state.npz")
    expected = states.make_gaussian(
        states.default_grid(), states.GaussianSpec("momentum_squeezed", r=0.5))
    assert np.max(np.abs(state.rho - expected.rho)) < 1e-14
    doc = json.loads((out / "state.json").read_text())
    assert doc["var_x"] == pytest.approx(np.e / 2, rel=1e-6)


def test_measure_command_shot_noise(tmp_path):
    cfg = {"state": {"kind": "ground"}, "chi": 0.0}
    code, out = run(tmp_path, "measure", cfg)
    assert code == 0
    rows = (out / "pdf.csv").read_text().strip().splitlines()[1:]
    q, p = np.array([list(map(float, r.split(","))) for r in rows]).T
    dq = q[1] - q[0]
    var = np.sum(q**2 * p) * dq / (np.sum(p) * dq)
    assert var == pytest.approx(0.5, abs=1e-4)


def test_measure_command_with_window(tmp_path):
    cfg = {"state": {"kind": "ground"}, "chi": 1.0,
           "window": {"center": 1.5, "width": 0.8}}
    code, out = run(tmp_path, "measure", cfg)
    assert code == 0
    doc = json.loads((out / "measurement.json").read_text())
    assert doc["window_probability"] == pytest.approx(0.148895, abs=1e-4)
    assert (out / "conditioned.npz").exists()


def test_measure_command_at_large_strength(tmp_path):
    # the outcome axis follows chi x_max^2 = 12800; a ground state reads
    # mean chi / 2 and variance chi^2 / 2 + 1/2
    code, out = run(tmp_path, "measure",
                    {"state": {"kind": "ground"}, "chi": 200.0})
    assert code == 0
    doc = json.loads((out / "measurement.json").read_text())
    assert doc["outcome_mean"] == pytest.approx(100.0, rel=1e-9)
    assert doc["outcome_variance"] == pytest.approx(20000.5, rel=1e-9)


def test_measure_strength_past_the_outcome_cap_exit_2(tmp_path, capsys):
    # chi = 1e6 would need 5.1e8 outcomes, 4 GiB per array: the config is
    # refused before any array of that size is built
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, "measure",
                      {"state": {"kind": "ground"}, "chi": 1e6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config: chi = 1000000.0" in capsys.readouterr().err
    assert peak < 32 * 2**20


def test_wigner_command_conditioned_panel(tmp_path):
    cfg = {"state": {"kind": "ground"}, "mode": "conditioned", "chi": 1.0,
           "window": {"center": 1.5, "width": 0.8}, "label": "b"}
    code, out = run(tmp_path, "wigner", cfg)
    assert code == 0
    doc = json.loads((out / "wigner_b.json").read_text())
    assert doc["min"] < -1e-3
    assert (out / "wigner_b.csv").exists()


def test_wigner_command_bad_mode_exit_2(tmp_path):
    code, _ = run(tmp_path, "wigner", {"state": {"kind": "ground"},
                                       "mode": "sideways"})
    assert code == 2


def test_pulse_command(tmp_path):
    cfg = {"photon_number": 1.7e9, "g_lin": 1.9e-3,
           "spectrum": "square_optimal"}
    code, out = run(tmp_path, "pulse", cfg)
    assert code == 0
    doc = json.loads((out / "pulse_verify.json").read_text())
    assert doc["chi_numeric"] == pytest.approx(doc["chi_closed_form"],
                                               rel=5e-3)
    assert doc["kick_numeric"] == pytest.approx(doc["kick_closed_form"],
                                                rel=5e-3)


def test_protocol_command_deterministic(tmp_path):
    cfg = {"initial": {"kind": "ground"}, "chi": 1.0,
           "window": {"center": 1.5, "width": 0.8},
           "n_runs": 200, "seed": 5, "system": SYSTEM}
    code, out = run(tmp_path, "protocol", cfg)
    assert code == 0
    first = (out / "summary.json").read_bytes()
    runs_first = (out / "runs.jsonl").read_bytes()
    code, out = run(tmp_path, "protocol", cfg)
    assert code == 0
    assert (out / "summary.json").read_bytes() == first
    assert (out / "runs.jsonl").read_bytes() == runs_first
    doc = json.loads(first)
    assert doc["nbar_over_q"] == pytest.approx(0.0520914, rel=1e-4)
    assert (out / "wigner_mixture.csv").exists()


def test_protocol_tomography_artifacts(tmp_path):
    cfg = {**PROTOCOL, "n_runs": 400, "seed": 5}
    code, out = run(tmp_path, "protocol", cfg)
    assert code == 0
    plain_runs = (out / "runs.jsonl").read_bytes()
    assert not (out / "tomography.json").exists()
    tomo = {"n_angles": 16, "samples_per_angle": 20_000}
    code, out = run(tmp_path, "protocol", {**cfg, "tomography": tomo})
    assert code == 0
    report = json.loads((out / "tomography.json").read_text())
    assert report["min_w"] < -1e-3
    assert (out / "wigner_reconstructed.csv").exists()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["tomography"] == report
    assert list(doc) == ["n_runs", "n_accepted", "acceptance_rate",
                         "acceptance_stderr", "closed_form_probability",
                         "wigner_min", "wigner_negative_volume",
                         "nbar_over_q", "tomography"]
    # the tomography stream leaves every run's stream as it was
    assert (out / "runs.jsonl").read_bytes() == plain_runs


def test_protocol_seed_flag_overrides_config(tmp_path):
    cfg = {"initial": {"kind": "ground"}, "chi": 1.0,
           "window": {"center": 1.5, "width": 0.8}, "n_runs": 100, "seed": 5}
    _, out = run(tmp_path, "protocol", cfg)
    base = json.loads((out / "summary.json").read_text())
    code, out = run(tmp_path, "protocol", cfg, extra=["--seed", "6"])
    assert code == 0
    override = json.loads((out / "summary.json").read_text())
    assert base["acceptance_rate"] != override["acceptance_rate"]


def test_seed_flag_rejected_outside_protocol(tmp_path, capsys):
    code, out = run(tmp_path, "verify", extra=["--seed", "5"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("cfg, named", [
    ({"window": {"center": math.nan, "width": 0.8}}, "config.window"),
    ({"chi": math.nan}, "chi"),
    ({"omega_kick": math.inf}, "omega_kick"),
], ids=["window", "chi", "omega_kick"])
def test_protocol_non_finite_input_exit_2(tmp_path, capsys, cfg, named):
    base = {"initial": {"kind": "ground"}, "chi": 1.0,
            "window": {"center": 1.5, "width": 0.8}, "n_runs": 10, "seed": 5}
    code, _ = run(tmp_path, "protocol", {**base, **cfg})
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("system, named", [
    ({"wavelength": 1e-6, "bogus": 1}, "bogus"),
    ({"wavelength": "x"}, "wavelength"),
], ids=["unknown_field", "non_numeric"])
def test_protocol_bad_system_block_exit_2(tmp_path, capsys, system, named):
    cfg = {"initial": {"kind": "ground"}, "chi": 1.0,
           "window": {"center": 1.5, "width": 0.8}, "n_runs": 10, "seed": 5,
           "system": {**SYSTEM, **system}}
    code, _ = run(tmp_path, "protocol", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "config.system" in err and named in err


@pytest.mark.parametrize("command, cfg, named", [
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "omega_kick": "x"},
     "omega_kick"),
    # n_outcomes is no longer a field: a bad value is refused as unknown,
    # not type-checked
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "n_outcomes": 2.5},
     N_OUTCOMES_UNKNOWN),
    ("state", {"state": {"kind": "thermal", "nbar": "two"}}, "nbar"),
    ("pulse", {"photon_number": 1e9, "g_lin": 1.0, "kappa": "fast"},
     "kappa"),
    ("protocol", {"initial": {"kind": "ground"}, "chi": 1.0,
                  "window": {"center": 1.5, "width": 0.8}, "n_runs": 10,
                  "tomography": {"chi_p": "x"}}, "chi_p"),
    ("state", {"state": {"kind": "ground"},
               "grid": {"x_max": "8", "n_points": 64}}, "config.grid.x_max"),
    ("state", {"state": {"kind": "ground"},
               "grid": {"x_max": 8.0, "n_points": 64.9}},
     "config.grid.n_points"),
    ("protocol", {"initial": {"kind": "ground"}, "chi": 1.0,
                  "window": {"center": 1.5, "width": 0.8}, "n_runs": 10,
                  "two_pulse": "no"}, "config.two_pulse"),
    # the initial mode uses no chi, but its type is still checked
    ("wigner", {"state": {"kind": "ground"}, "mode": "initial", "chi": "x"},
     "config.chi"),
], ids=["measure_omega_kick", "measure_n_outcomes", "state_nbar",
        "pulse_kappa", "protocol_tomography", "grid_x_max", "grid_n_points",
        "protocol_two_pulse", "wigner_unused_chi"])
def test_non_numeric_field_exit_2(tmp_path, capsys, command, cfg, named):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, named", [
    # the outcome counts the removed n_outcomes field once refused as too
    # coarse (1, 4) or over-counting (12) are now unknown-field errors
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "n_outcomes": 1},
     N_OUTCOMES_UNKNOWN),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "n_outcomes": 4},
     N_OUTCOMES_UNKNOWN),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "n_outcomes": 12},
     N_OUTCOMES_UNKNOWN),
    ("pulse", {"photon_number": 1e9, "g_lin": 1.0, "kappa": -1.0}, "kappa"),
    ("protocol", {**PROTOCOL, "tomography": {"samples_per_angle": -5}},
     "config.tomography.samples_per_angle"),
    ("protocol", {**PROTOCOL, "tomography": {"chi_p": -1}},
     "config.tomography.chi_p"),
    ("protocol", {**PROTOCOL, "tomography": {"n_angles": 0}},
     "config.tomography.n_angles"),
    ("protocol", {**PROTOCOL, "tomography": {"n_angles": -3}},
     "config.tomography.n_angles"),
    ("protocol", {**PROTOCOL, "seed": -1}, "seed"),
    # the label names the output files, so it must stay inside --out
    ("wigner", {"state": {"kind": "ground"}, "label": "a/b"}, "config.label"),
    ("wigner", {"state": {"kind": "ground"}, "label": "a\u0000b"},
     "config.label"),
    ("wigner", {"state": {"kind": "ground"}, "mode": "unconditional",
                "chi": -1.0}, "chi"),
    # the default grid's momentum Nyquist is pi/dx ~ 100: 1000 would alias
    ("wigner", {"state": {"kind": "ground"}, "mode": "unconditional",
                "chi": 1.0, "omega_kick": 1000.0}, "omega_kick"),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0,
                 "omega_kick": 1000.0,
                 "window": {"center": 1.5, "width": 0.8}}, "omega_kick"),
    ("protocol", {**PROTOCOL, "omega_kick": 1000.0}, "omega_kick"),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0,
                 "omega_kick": 1000.0}, "omega_kick"),
], ids=["measure_one_outcome", "measure_coarse_outcomes",
        "measure_over_counting_outcomes", "pulse_negative_kappa",
        "tomography_negative_samples", "tomography_negative_chi_p",
        "tomography_zero_angles", "tomography_negative_angles",
        "protocol_negative_seed", "wigner_label_separator",
        "wigner_label_nul", "wigner_negative_chi", "wigner_aliased_kick",
        "measure_aliased_kick", "protocol_aliased_kick",
        "measure_aliased_kick_without_window"])
def test_out_of_range_field_exit_2(tmp_path, capsys, command, cfg, named):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, named", [
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "omega_kik": 2.0},
     "config.omega_kik"),
    ("measure", {"state": {"kind": "ground", "nbarr": 3}, "chi": 1.0},
     "config.state.nbarr"),
    ("state", {"state": {"kind": "ground"},
               "grid": {"x_max": 8.0, "npoints": 64}}, "config.grid.npoints"),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0,
                 "window": {"center": 1.5, "width": 0.8, "halfwidth": 0.4}},
     "config.window.halfwidth"),
    ("protocol", {**PROTOCOL, "tomography": {"nangles": 4}},
     "config.tomography.nangles"),
    ("params", {"system": {**SYSTEM, "finess": 1e4}}, "config.system.finess"),
    ("measure", {"state": {"kind": "ground"}, "chi": 1.0, "n_outcomes": 2048},
     N_OUTCOMES_UNKNOWN),
], ids=["omega_kik", "state_nbarr", "grid_npoints", "window_halfwidth",
        "tomography_nangles", "system_finess", "measure_n_outcomes"])
def test_unknown_field_exit_2(tmp_path, capsys, command, cfg, named):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert named in capsys.readouterr().err


def test_empty_grid_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "state", {"state": {"kind": "ground"}, "grid": {}})
    assert code == 2
    assert "config.grid.x_max is required" in capsys.readouterr().err


def test_negligible_window_exit_1(tmp_path, capsys):
    # the config parses; the computation then fails, which is exit 1
    cfg = {"state": {"kind": "ground"}, "chi": 1.0,
           "window": {"center": 30.0, "width": 0.1}}
    code, _ = run(tmp_path, "measure", cfg)
    assert code == 1
    assert "negligible probability" in capsys.readouterr().err


def test_protocol_at_large_strength(tmp_path):
    # outcomes come from the model, with no outcome grid to resolve chi x^2
    cfg = {**PROTOCOL, "chi": 200.0, "window": {"center": 20.0, "width": 0.5}}
    code, out = run(tmp_path, "protocol", cfg)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["n_runs"] == 10


def test_verify_subset_passes(tmp_path):
    cfg = {"checks": ["physical_separation", "rethermalization"]}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["passed"] and doc["n_checks"] == 2


def test_verify_perturbed_target_fails(tmp_path):
    cfg = {"checks": ["physical_separation"],
           "overrides": {"separation.physical": 42e-15}}
    code, out = run(tmp_path, "verify", cfg)
    assert code == 1
    doc = json.loads((out / "verify.json").read_text())
    assert doc["n_failed"] == 1


@pytest.mark.parametrize("overrides, message", [
    ({"table1.x0": "abc"}, "config.overrides.table1.x0 must be of type float"),
    ({"table1.x0": True}, "config.overrides.table1.x0 must be of type float"),
    ({"table1.chi": 1.0}, "config.overrides.table1.chi names no check row"),
], ids=["non_numeric", "bool", "unknown_row"])
def test_verify_bad_override_exit_2(tmp_path, capsys, overrides, message):
    code, out = run(tmp_path, "verify", {"checks": ["table1"],
                                         "overrides": overrides})
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_module_entry_point_runs_without_warning(tmp_path):
    # `python -m optomech.cli` must not find the module already imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cfg = write_cfg(tmp_path, {"checks": ["rethermalization"]})
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "optomech.cli",
         "verify", "--config", cfg, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("checks, message", [
    (["tabel1"], "config.checks[0] = 'tabel1' is not a known check"),
    (["rethermalization", "flux_capacitor"],
     "config.checks[1] = 'flux_capacitor' is not a known check"),
    ([], "config.checks is empty"),
], ids=["misspelled", "second_unknown", "empty"])
def test_verify_bad_checks_exit_2(tmp_path, capsys, checks, message):
    # an unknown or empty list would otherwise pass vacuously
    code, out = run(tmp_path, "verify", {"checks": checks})
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below_file"])
def test_out_not_a_directory_exit_2(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("")
    code = cli.main(["state", "--config", write_cfg(
        tmp_path, {"state": {"kind": "ground"}}), "--out", str(afile / sub)])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2
