"""Random CLI configs: every command exits 0, 1 or 2 and never raises.

The configs mix valid fields, unknown keys, values of the wrong JSON type
and values out of range.  Sizes stay small (n_points <= 64, n_runs <= 50)
so the whole file runs in a few seconds.
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from optomech import cli  # noqa: E402

# a value of the wrong type for every field
JUNK = hs.sampled_from(["x", None, True, [], {}, 2.5, math.nan, -math.inf])

# each field: (values that parse, values out of range); a dict is a block
GRID = {"x_min": ([-8.0], [-6.0]), "x_max": ([8.0], [0.0]),
        "n_points": ([16, 32, 64], [12, 0])}
SPEC = {"kind": (["ground", "thermal", "momentum_squeezed",
                  "position_squeezed"], ["squeezy"]),
        "nbar": ([0.0, 1.5], [-1.0]), "r": ([0.0, 0.5], [-0.5]),
        "mean_x": ([0.0, 1.0], []), "mean_p": ([0.0, -1.0], [])}
# a window centred at 40 has negligible probability
WINDOW = {"center": ([0.5, 1.5, 40.0], []), "width": ([0.8, 2.0], [0.0])}
SYSTEM = {"wavelength": ([1064e-9], [-1.0]), "mass": ([40e-12], [0.0]),
          "omega_m": ([12566.37], []), "finesse": ([5e4], [0.0]),
          "photon_number": ([1.7e9], []), "cavity_length": ([750e-6], []),
          "reflectivity": ([0.5, 0.99], [1.0]),
          "temperature": ([25e-3], [0.0]), "quality_factor": ([5e6], [])}
CHI = ([0.5, 1.0], [0.0, -1.0])
SCHEMAS = {
    "params": {"system": SYSTEM},
    "state": {"grid": GRID, "state": SPEC},
    # chi = 1e6 would need more than the 2^22 outcomes outcome_pdf allows
    "measure": {"grid": GRID, "state": SPEC, "chi": ([0.0, 1.0, 200.0], [1e6]),
                "omega_kick": ([0.0, 1.5], []), "window": WINDOW},
    "wigner": {"grid": GRID, "state": SPEC,
               "mode": (["initial", "conditioned", "unconditional"],
                        ["sideways"]),
               "label": (["a"], []), "chi": CHI,
               "omega_kick": ([0.0, 1.0], []), "window": WINDOW},
    "pulse": {"photon_number": ([1e9, 0.0], [-1.0]),
              "g_lin": ([1e-3, 1.0], [0.0]), "kappa": ([1.0, 2.0], [-1.0]),
              "spectrum": (["square_optimal", "lorentzian"], ["flat"])},
    "protocol": {"grid": GRID, "initial": SPEC, "window": WINDOW,
                 "chi": CHI, "n_runs": ([1, 10, 50], [0]),
                 "seed": ([0, 7], [-1]), "omega_kick": ([0.0, 1.0], []),
                 "two_pulse": ([False, True], []), "system": SYSTEM,
                 "tomography": {"n_angles": ([1, 4], [0, -3]),
                                "samples_per_angle": ([0, 200], [-5]),
                                "chi_p": ([2.0, 10.0], [-1.0])}},
    "verify": {"checks": ([["table1", "rethermalization"]],
                          [["table1", "flux_capacitor"]]),
               "overrides": ([{}, {"table1.x0": 10e-15}],
                             [{"table1.chi": 1.0}])},
}
# dropping these would run at n = 512 or run every verify check
KEEP = {("grid",), ("checks",)}


def leaves(schema, path=()):
    """(path, field) for every field and block of schema, depth first."""
    for name, value in schema.items():
        yield path + (name,), value
        if isinstance(value, dict):
            yield from leaves(value, path + (name,))


@hs.composite
def configs(draw, schema):
    """A valid config, then at most one fault: an unknown key, a field
    dropped, or a field of the wrong type or out of range."""
    def build(block):
        return {name: build(value) if isinstance(value, dict)
                else draw(hs.sampled_from(value[0]))
                for name, value in block.items()}

    cfg = build(schema)
    fault = draw(hs.sampled_from([None, "unknown", "drop", "type", "range"]))
    if fault is None:
        return cfg
    paths = [(path, value) for path, value in leaves(schema)
             if fault != "drop" or path not in KEEP]
    if fault == "range":
        paths = [(path, value) for path, value in paths
                 if not isinstance(value, dict) and value[1]]
    path, value = draw(hs.sampled_from(paths))
    parent = cfg
    for name in path[:-1]:
        parent = parent[name]
    if fault == "unknown":
        (parent[path[-1]] if isinstance(value, dict) else parent)["bogus"] = 1
    elif fault == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK if fault == "type"
                                else hs.sampled_from(value[1]))
    return cfg


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_random_config_exits_0_1_or_2(command, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(command)
    path = tmp / "cfg.json"

    # a pulse run that parses writes a 49153-row modes.csv, 0.3 s each
    @settings(max_examples=8 if command == "pulse" else 40)
    @given(cfg=configs(SCHEMAS[command]))
    def exits_cleanly(cfg):
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(tmp / "out")]
        assert cli.main(argv) in (0, 1, 2)

    exits_cleanly()
