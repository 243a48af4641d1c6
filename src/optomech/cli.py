"""Command-line front end: wire JSON configs to the modules, emit artifacts.

    optomech <command> --config cfg.json --out outdir [--seed N]

Commands: params, state, measure, wigner, pulse, protocol, verify.  --seed
sets the protocol config's seed; any other command rejects it.  Every
command is deterministic given its config and overwrites its outputs
with stable file names.  Each command reads its config through one table of
fields; an unknown key at any level is a config error.  Exit codes: 0
success; 1 verification failure, or a computation error raised after the
config parsed (such as a window of negligible probability); 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import measurement as ms
from . import params as pm
from . import protocol as pr
from . import pulse as pl
from . import states as st
from . import verification as vf
from . import wigner as wg
from .errors import ConditioningError, OptomechError


class ConfigError(Exception):
    """Schema violation in a command config; message names the field."""


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parsed(where: str, build, *args, **kwargs):
    """build(*args, **kwargs); a package error becomes a ConfigError, except a
    ConditioningError, which valid inputs can meet (a negligible window)."""
    try:
        return build(*args, **kwargs)
    except ConditioningError:
        raise
    except OptomechError as exc:
        raise ConfigError(f"{where}: {exc}")


# Value-type blocks: each schema is read from the dataclass's own fields,
# types and defaults.  A grid is symmetric, so x_min defaults to -x_max; a
# protocol run without a seed takes seed 0.
_BLOCKS = {cls: {f.name: (get_type_hints(cls)[f.name], f.default)
                 for f in fields(cls)}
           for cls in (pm.SystemParams, st.GaussianSpec, ms.OutcomeWindow,
                       st.QuadratureGrid, pr.ProtocolConfig)}
_BLOCKS[st.QuadratureGrid]["x_min"] = (float, lambda got: -got["x_max"])
_BLOCKS[pr.ProtocolConfig]["seed"] = (int, 0)


def _read(val, kind, where: str):
    """val as kind: a value type, a schema table, or a JSON type where
    floats are finite, ints widen to float and bools are not numbers."""
    if isinstance(kind, dict):
        return _walk(val, kind, where)
    if kind in _BLOCKS:
        return _parsed(where, kind, **_walk(val, _BLOCKS[kind], where))
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) != (kind is bool):
        raise ConfigError(f"{where} must be of type {kind.__name__}, "
                          f"got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{where} must be finite, got {val!r}")
    return val


def _walk(obj, schema: dict, where: str = "config") -> dict:
    """obj read against schema {name: (kind, default)}.

    An unknown key, or an absent field whose default is MISSING, is a config
    error.  Another absent field takes its default; a callable default is
    computed from the required fields and those before it.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    for name in obj:
        if name not in schema:
            raise ConfigError(f"{where}.{name} is not a known field; "
                              f"expected one of {', '.join(schema)}")
    got = {name: _read(val, schema[name][0], f"{where}.{name}")
           for name, val in obj.items()}
    for name, (_, default) in schema.items():
        if name not in got and default is MISSING:
            raise ConfigError(f"{where}.{name} is required")
    for name, (_, default) in schema.items():
        if name not in got:
            got[name] = default(got) if callable(default) else default
    return got


_GRID = (st.QuadratureGrid, st.default_grid())
_STATE = {"grid": _GRID, "state": (st.GaussianSpec, MISSING)}


def _write(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_params(cfg: dict, out: Path) -> int:
    system = _walk(cfg, {"system": (pm.SystemParams, MISSING)})["system"]
    derived = _parsed("config.system", pm.derive, system)
    _write(out, "params.json", pm.derived_to_json(derived) + "\n")
    _write(out, "params.txt", pm.format_table(system, derived))
    return 0


def cmd_state(cfg: dict, out: Path) -> int:
    cfg = _walk(cfg, _STATE)
    state = st.make_gaussian(cfg["grid"], cfg["state"])
    st.state_to_npz(state, out / "state.npz")
    st.diagonal_to_csv(state, out / "diagonal.csv")
    mean_x, mean_p, var_x, var_p = st.moments(state)
    _write(out, "state.json", json.dumps(
        {"mean_x": mean_x, "mean_p": mean_p, "var_x": var_x, "var_p": var_p,
         "purity": st.purity(state)}, indent=2) + "\n")
    return 0


def cmd_measure(cfg: dict, out: Path) -> int:
    cfg = _walk(cfg, {**_STATE, "chi": (float, MISSING),
                      "omega_kick": (float, 0.0),
                      "window": (ms.OutcomeWindow, None)})
    state = st.make_gaussian(cfg["grid"], cfg["state"])
    chi, omega, window = cfg["chi"], cfg["omega_kick"], cfg["window"]
    _parsed("config", ms._kick, state.grid, chi, omega)  # even with no window
    dist = _parsed("config", ms.outcome_pdf, state, chi)
    ms.pdf_to_csv(dist, out / "pdf.csv")
    doc = {"chi": chi, "omega": omega, "outcome_mean": dist.mean(),
           "outcome_variance": dist.central_moment(2), "window": None,
           "window_probability": None}
    if window is not None:
        conditioned, prob = _parsed("config", ms.condition_window, state,
                                    chi, omega, window)
        st.state_to_npz(conditioned, out / "conditioned.npz")
        doc["window"] = {"center": window.center, "width": window.width}
        doc["window_probability"] = prob
    _write(out, "measurement.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_wigner(cfg: dict, out: Path) -> int:
    cfg = _walk(cfg, {**_STATE, "mode": (str, "initial"),
                      "label": (str, lambda got: got["mode"]),
                      "chi": (float, None), "omega_kick": (float, 0.0),
                      "window": (ms.OutcomeWindow, None)})
    mode, chi, omega = cfg["mode"], cfg["chi"], cfg["omega_kick"]
    needs = {"initial": (), "conditioned": ("chi", "window"),
             "unconditional": ("chi",)}
    if mode not in needs:
        raise ConfigError("config.mode must be initial|conditioned|unconditional")
    label = cfg["label"]
    if any(c and c in label for c in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"config.label {label!r} must not contain a path "
                          "separator or NUL")
    for name in needs[mode]:
        if cfg[name] is None:
            raise ConfigError(f"config.{name} is required in mode {mode}")
    state = st.make_gaussian(cfg["grid"], cfg["state"])
    if mode == "conditioned":
        state, _ = _parsed("config", ms.condition_window, state, chi, omega,
                           cfg["window"])
    elif mode == "unconditional":
        state = _parsed("config", ms.uncondition, state, chi, omega)
    w = wg.wigner_transform(state)
    wg.wigner_to_csv(w, out / f"wigner_{label}.csv")
    _write(out, f"wigner_{label}.json", wg.wigner_sidecar_json(w, label) + "\n")
    return 0


def cmd_pulse(cfg: dict, out: Path) -> int:
    cfg = _walk(cfg, {"kappa": (float, 1.0), "photon_number": (float, MISSING),
                      "g_lin": (float, MISSING),
                      "spectrum": (str, "square_optimal")})
    kappa, n_p, g_lin, kind = (cfg["kappa"], cfg["photon_number"],
                               cfg["g_lin"], cfg["spectrum"])
    chi_cf = _parsed("config", pm.square_measurement_strength, n_p, g_lin,
                     kappa)
    envelopes = {"square_optimal": pl.optimal_square_spectrum,
                 "lorentzian": pl.lorentzian_spectrum}
    if kind not in envelopes:
        raise ConfigError("config.spectrum must be square_optimal|lorentzian")
    env = envelopes[kind](kappa)
    modes = pl.cascade_integrate(env, kappa)
    chi_num = pl.numeric_square_strength(modes, n_p, g_lin, kappa)
    kick_num = pl.numeric_momentum_kick(modes, n_p, g_lin)
    pl.modes_to_csv(env, modes, out / "modes.csv")
    _write(out, "pulse_verify.json", json.dumps({
        "spectrum": kind, "kappa": kappa,
        "chi_numeric": chi_num,
        "chi_closed_form": chi_cf,
        "kick_numeric": kick_num,
        "kick_closed_form": pm.mean_momentum_kick(n_p, g_lin, kappa),
    }, indent=2) + "\n")
    return 0


def cmd_protocol(cfg: dict, out: Path) -> int:
    tomography = {"n_angles": (int, 16), "samples_per_angle": (int, 100_000),
                  "chi_p": (float, 10.0)}
    run = _BLOCKS[pr.ProtocolConfig]
    cfg = _walk(cfg, {"grid": _GRID, **run, "system": (pm.SystemParams, None),
                      "tomography": (tomography, None)})
    nbar_over_q = None
    if cfg["system"] is not None:
        nbar_over_q = _parsed("config.system", pm.derive,
                              cfg["system"]).nbar_over_q
    tomo = cfg["tomography"]
    if tomo is not None:
        for name, low in (("n_angles", 1), ("samples_per_angle", 0)):
            if tomo[name] < low:
                raise ConfigError(f"config.tomography.{name} must be >= {low}")
        if tomo["chi_p"] <= 0:
            raise ConfigError("config.tomography.chi_p must be positive")
    config = _parsed("config", pr.ProtocolConfig, **{k: cfg[k] for k in run})
    summary = _parsed("config", pr.run_protocol, config, grid=cfg["grid"])

    w = w_min = w_vol = tomo_wigner = tomo_report = None
    if summary.mean_state is not None:
        w = wg.wigner_transform(summary.mean_state)
        w_min, w_vol = wg.negativity(w)
        if tomo is not None:
            # the seed's tomography stream, on a key that no block reads
            rng = np.random.default_rng(np.random.SeedSequence(
                config.seed, spawn_key=pr._TOMOGRAPHY_KEY))
            angles = np.arange(tomo["n_angles"]) * math.pi / tomo["n_angles"]
            tomo_wigner, tomo_report = pr.tomography(
                summary.mean_state, angles, tomo["chi_p"],
                tomo["samples_per_angle"], rng)

    pr.records_to_jsonl(summary, out / "runs.jsonl")
    doc = {name: getattr(summary, name) for name in (
        "n_runs", "n_accepted", "acceptance_rate", "acceptance_stderr",
        "closed_form_probability")}
    doc.update(wigner_min=w_min, wigner_negative_volume=w_vol,
               nbar_over_q=nbar_over_q, tomography=tomo_report)
    _write(out, "summary.json", json.dumps(doc, indent=2) + "\n")
    if w is not None:
        wg.wigner_to_csv(w, out / "wigner_mixture.csv")
    if tomo_wigner is not None:
        wg.wigner_to_csv(tomo_wigner, out / "wigner_reconstructed.csv")
        _write(out, "tomography.json", json.dumps(tomo_report, indent=2)
               + "\n")
    return 0


def cmd_verify(cfg: dict, out: Path) -> int:
    cfg = _walk(cfg, {"checks": (list, None), "overrides": (dict, {})})
    if cfg["checks"] == []:
        raise ConfigError("config.checks is empty; name at least one check")
    for i, name in enumerate(cfg["checks"] or ()):
        if _read(name, str, f"config.checks[{i}]") not in vf.CHECKS:
            raise ConfigError(f"config.checks[{i}] = {name!r} is not a known "
                              f"check; expected one of {', '.join(vf.CHECKS)}")
    overrides = {key: _read(val, float, f"config.overrides.{key}")
                 for key, val in cfg["overrides"].items()}
    results = vf.run_checks(cfg["checks"], overrides)
    ran = {r.name for r in results}
    for key in overrides:
        if key not in ran:
            raise ConfigError(f"config.overrides.{key} names no check row "
                              "that ran")
    report = vf.report_to_dict(results)
    _write(out, "verify.json", json.dumps(report, indent=2) + "\n")
    width = max((len(r.name) for r in results), default=10)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  target {r.target:< 13.6g} "
              f"tol {r.tolerance:<9.3g} measured {r.measured:< .6g}")
    print(f"{report['n_checks'] - report['n_failed']}/{report['n_checks']} "
          f"checks passed")
    return 0 if report["passed"] else 1


COMMANDS = {
    "params": cmd_params,
    "state": cmd_state,
    "measure": cmd_measure,
    "wigner": cmd_wigner,
    "pulse": cmd_pulse,
    "protocol": cmd_protocol,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="optomech",
        description="Pulsed optomechanical measurement simulator")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="which artifact to produce")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (protocol only)")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            if args.command != "protocol":
                raise ConfigError(f"--seed applies only to protocol, not "
                                  f"{args.command}")
            cfg["seed"] = args.seed
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out} is not a usable directory: "
                              f"{exc.strerror or exc}")
        return COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OptomechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
