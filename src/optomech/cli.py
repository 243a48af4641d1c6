"""Command-line front end: wire JSON configs to the modules, emit artifacts.

    optomech <command> --config cfg.json --out outdir [--seed N]

Commands: params, state, measure, wigner, pulse, protocol, verify.  Every
command is deterministic given (config, seed) and overwrites its outputs
with stable file names.  Exit codes: 0 success, 1 verification failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import measurement as ms
from . import params as pm
from . import protocol as pr
from . import pulse as pl
from . import states as st
from . import verification as vf
from . import wigner as wg
from .errors import OptomechError


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
    """build(*args, **kwargs); a package error becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except OptomechError as exc:
        raise ConfigError(f"{where}: {exc}")


def _require(cfg: dict, name: str, kind, where: str = "config",
             default=None):
    """cfg[name] as a finite float, an int or a bool; default (None:
    required)."""
    if name not in cfg:
        if default is None:
            raise ConfigError(f"{where}.{name} is required")
        return default
    val = cfg[name]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) != (kind is bool):
        raise ConfigError(f"{where}.{name} must be of type {kind.__name__}, "
                          f"got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{where}.{name} must be finite, got {val!r}")
    return val


def _grid_from(cfg: dict) -> st.QuadratureGrid:
    obj = cfg.get("grid", {})
    if not isinstance(obj, dict):
        raise ConfigError("config.grid must be an object")
    if not obj:
        return st.default_grid()
    x_max = _require(obj, "x_max", float, "config.grid")
    return _parsed("config.grid", st.QuadratureGrid,
                   _require(obj, "x_min", float, "config.grid", -x_max), x_max,
                   _require(obj, "n_points", int, "config.grid"))


def _spec_from(cfg: dict, key: str = "state") -> st.GaussianSpec:
    obj = cfg.get(key)
    if not isinstance(obj, dict):
        raise ConfigError(f"config.{key} must be an object")
    fields = {name: _require(obj, name, float, f"config.{key}", 0.0)
              for name in ("nbar", "r", "mean_x", "mean_p")}
    return _parsed(f"config.{key}", st.GaussianSpec,
                   kind=obj.get("kind", "ground"), **fields)


def _window_from(cfg: dict, required: bool = False):
    obj = cfg.get("window")
    if obj is None:
        if required:
            raise ConfigError("config.window is required")
        return None
    if not isinstance(obj, dict):
        raise ConfigError("config.window must be an object")
    return _parsed("config.window", ms.OutcomeWindow,
                   _require(obj, "center", float, "config.window"),
                   _require(obj, "width", float, "config.window"))


def _write(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_params(cfg: dict, out: Path, seed) -> int:
    system = _parsed("config.system", pm.system_from_dict, cfg.get("system"))
    derived = _parsed("config.system", pm.derive, system)
    _write(out, "params.json", pm.derived_to_json(derived) + "\n")
    _write(out, "params.txt", pm.format_table(system, derived))
    return 0


def cmd_state(cfg: dict, out: Path, seed) -> int:
    grid = _grid_from(cfg)
    state = st.make_gaussian(grid, _spec_from(cfg))
    st.state_to_npz(state, out / "state.npz")
    st.diagonal_to_csv(state, out / "diagonal.csv")
    mean_x, mean_p, var_x, var_p = st.moments(state)
    _write(out, "state.json", json.dumps(
        {"mean_x": mean_x, "mean_p": mean_p, "var_x": var_x, "var_p": var_p,
         "purity": st.purity(state)}, indent=2) + "\n")
    return 0


def cmd_measure(cfg: dict, out: Path, seed) -> int:
    grid = _grid_from(cfg)
    state = st.make_gaussian(grid, _spec_from(cfg))
    chi = _require(cfg, "chi", float)
    omega = _require(cfg, "omega_kick", float, default=0.0)
    window = _window_from(cfg)
    dist = _parsed("config", ms.outcome_pdf, state, chi, n_outcomes=_require(
        cfg, "n_outcomes", int, default=ms.DEFAULT_N_OUTCOMES))
    ms.pdf_to_csv(dist, out / "pdf.csv")
    doc = {"chi": chi, "omega": omega, "outcome_mean": dist.mean(),
           "outcome_variance": dist.central_moment(2), "window": None,
           "window_probability": None}
    if window is not None:
        conditioned, prob = ms.condition_window(state, chi, omega, window)
        st.state_to_npz(conditioned, out / "conditioned.npz")
        doc["window"] = {"center": window.center, "width": window.width}
        doc["window_probability"] = prob
    _write(out, "measurement.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_wigner(cfg: dict, out: Path, seed) -> int:
    grid = _grid_from(cfg)
    state = st.make_gaussian(grid, _spec_from(cfg))
    mode = cfg.get("mode", "initial")
    if mode not in ("initial", "conditioned", "unconditional"):
        raise ConfigError("config.mode must be initial|conditioned|unconditional")
    label = cfg.get("label", mode)
    if mode != "initial":
        chi = _require(cfg, "chi", float)
        omega = _require(cfg, "omega_kick", float, default=0.0)
        if mode == "conditioned":
            window = _window_from(cfg, required=True)
            state, _ = ms.condition_window(state, chi, omega, window)
        else:
            state = ms.uncondition(state, chi, omega)
    w = wg.wigner_transform(state)
    wg.wigner_to_csv(w, out / f"wigner_{label}.csv")
    _write(out, f"wigner_{label}.json", wg.wigner_sidecar_json(w, label) + "\n")
    return 0


def cmd_pulse(cfg: dict, out: Path, seed) -> int:
    kappa = _require(cfg, "kappa", float, default=1.0)
    n_p = _require(cfg, "photon_number", float)
    g_lin = _require(cfg, "g_lin", float)
    chi_cf = _parsed("config", pm.square_measurement_strength, n_p, g_lin,
                     kappa)
    kind = cfg.get("spectrum", "square_optimal")
    if kind == "square_optimal":
        env = pl.optimal_square_spectrum(kappa)
    elif kind == "lorentzian":
        env = pl.lorentzian_spectrum(kappa)
    else:
        raise ConfigError("config.spectrum must be square_optimal|lorentzian")
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


def cmd_protocol(cfg: dict, out: Path, seed) -> int:
    grid = _grid_from(cfg)
    window = _window_from(cfg, required=True)
    chi = _require(cfg, "chi", float)
    run_seed = seed if seed is not None else _require(cfg, "seed", int,
                                                      default=0)
    nbar_over_q = None
    if "system" in cfg:
        system = _parsed("config.system", pm.system_from_dict, cfg["system"])
        nbar_over_q = _parsed("config.system", pm.derive, system).nbar_over_q
    tomo = cfg.get("tomography")
    angles, spa, chi_p = (), 0, 10.0
    if tomo is not None:
        if not isinstance(tomo, dict):
            raise ConfigError("config.tomography must be an object")
        n_angles = _require(tomo, "n_angles", int, "config.tomography", 16)
        angles = tuple(k * math.pi / n_angles for k in range(n_angles))
        spa = _require(tomo, "samples_per_angle", int, "config.tomography",
                       100_000)
        chi_p = _require(tomo, "chi_p", float, "config.tomography", 10.0)
    config = _parsed(
        "config", pr.ProtocolConfig,
        initial=_spec_from(cfg, "initial"), chi=chi, window=window,
        n_runs=_require(cfg, "n_runs", int), seed=run_seed,
        omega_kick=_require(cfg, "omega_kick", float, default=0.0),
        two_pulse=_require(cfg, "two_pulse", bool, default=False),
        tomography_angles=angles, samples_per_angle=spa,
        tomography_chi_p=chi_p, nbar_over_q=nbar_over_q)
    summary = pr.run_protocol(config, grid=grid)
    pr.records_to_jsonl(summary.records, out / "runs.jsonl")
    _write(out, "summary.json", pr.summary_to_json(summary) + "\n")
    if summary.mean_state is not None:
        w = wg.wigner_transform(summary.mean_state)
        wg.wigner_to_csv(w, out / "wigner_mixture.csv")
    if summary.tomography_wigner is not None:
        wg.wigner_to_csv(summary.tomography_wigner,
                         out / "wigner_reconstructed.csv")
        _write(out, "tomography.json",
               json.dumps(summary.tomography_report, indent=2) + "\n")
    return 0


def cmd_verify(cfg: dict, out: Path, seed) -> int:
    names = cfg.get("checks")
    if names is not None and (not isinstance(names, list)
                              or not all(isinstance(n, str) for n in names)):
        raise ConfigError("config.checks must be a list of check names")
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("config.overrides must be an object")
    results, skipped = vf.run_checks(names, overrides)
    report = vf.report_to_dict(results, skipped)
    _write(out, "verify.json", json.dumps(report, indent=2) + "\n")
    width = max((len(r.name) for r in results), default=10)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  target {r.target:< 13.6g} "
              f"tol {r.tolerance:<9.3g} measured {r.measured:< .6g}")
    for name in skipped:
        print(f"[SKIP] unknown check {name!r}", file=sys.stderr)
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
                        help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OptomechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
