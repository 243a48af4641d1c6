"""One benchmark process: import optomech, build inputs, run timed passes.

Started by run.py in a fresh interpreter with the BLAS thread count pinned.
It prints ``READY`` once the package is imported and the workload's inputs
are built (run.py times that line as set-up), then runs the passes and
prints one JSON object as its last line.  With ``--setup-only`` it stops
after ``READY``.

Untraced passes time only ``protocol.run_protocol`` (one wrapper, one call
per Monte-Carlo job) for the Monte-Carlo rate.  Traced passes wrap every
layer; they alternate with untraced passes so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "results"

# Compulsory traffic of each dense kernel per call at grid size n, counted in
# n x n complex128 matrices (16 B per element) it must read or write whatever
# its implementation: an input map reads rho and writes rho'; make_gaussian
# only writes; momentum_diagonal only reads (its output is a 2n vector);
# wigner_transform writes an n x 2n float64 W, the bytes of one more matrix.
DENSE_KERNELS = {
    "states.make_gaussian": 1,
    "measurement.condition_exact": 2,
    "measurement.condition_window": 2,
    "measurement.uncondition": 2,
    "protocol.momentum_kick": 2,
    "wigner.wigner_transform": 2,
    "states.momentum_diagonal": 1,
}
RUN_SPAN = "protocol.run_protocol"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import optomech
    where = Path(optomech.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"optomech imported from {where}, not {ROOT / 'src'}")
    return optomech


class Gate:
    """Times the benchmark's own correctness checks (and spans them)."""

    def __init__(self, tracer=None):
        self.seconds = 0.0
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        start = perf_counter()
        with self.tracer.span("bench.gate") if self.tracer \
                else contextlib.nullcontext():
            yield
        self.seconds += perf_counter() - start


def run_pass(workload, inputs, tracer, traced):
    tracer.reset()
    gate = Gate(tracer if traced else None)
    start = perf_counter()
    result = workload.run_pass(inputs, gate)
    wall = perf_counter() - start
    run_spans = [s for s in tracer.spans if s[0] == RUN_SPAN]
    return {
        "traced": traced,
        "wall_s": wall,
        "program_s": wall - gate.seconds,
        "gate_s": gate.seconds,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "units": result.units,
        "mc_runs": tracer.counts.get("protocol.runs", 0),
        "mc_accepted": tracer.counts.get("protocol.accepted", 0),
        "mc_s": sum(end - start for _, start, end, _, _ in run_spans),
        "spans": tracer.spans if traced else None,
    }


def runs_per_s(passes):
    """Monte-Carlo runs per second inside run_protocol, else states/s.

    Pooled over every pass, first included: verify_suite has one
    run_protocol call per pass, so one pass alone is a single sample.
    """
    runs = sum(p["mc_runs"] for p in passes)
    if runs:
        return runs / sum(p["mc_s"] for p in passes)
    return sum(p["units"] for p in passes) / sum(p["program_s"]
                                                 for p in passes)


def layer_rows(passes, names):
    """Per-layer rows from the traced passes, averaged per pass."""
    from tracer import CHECK_PREFIX, LAYERS, self_times
    import numpy as np

    k = len(passes)
    calls, own, durations, elements = {}, {}, {}, {}
    share = 1.0
    for p in passes:
        spans = p["spans"]
        total_self = 0.0
        for (name, start, end, _, n), self_s in zip(spans,
                                                     self_times(spans)):
            total_self += self_s
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_s
            durations.setdefault(name, []).append(end - start)
            if name in DENSE_KERNELS and n:
                elements[name] = elements.get(name, 0) + n * n
        share = min(share, total_self / p["wall_s"])
    rows = {}
    for layer in LAYERS:
        members = [n for n in calls if n.split(".")[0] == layer]
        rows[f"{layer}.calls"] = sum(calls[n] for n in members) / k
        rows[f"{layer}.self_s"] = sum(own[n] for n in members) / k
    for name in names:
        if name.startswith(CHECK_PREFIX):
            key = name[len(CHECK_PREFIX):]
            rows[f"verification.{key}.busy_s"] = \
                sum(durations.get(name, [])) / k
            continue
        rows[f"{name}.calls"] = calls.get(name, 0) / k
        rows[f"{name}.self_s"] = own.get(name, 0.0) / k
        ms = np.asarray(durations.get(name, [0.0])) * 1e3
        rows[f"{name}.p50_ms"] = float(np.percentile(ms, 50))
        rows[f"{name}.p90_ms"] = float(np.percentile(ms, 90))
        if name in DENSE_KERNELS:
            touched = elements.get(name, 0) / k
            rows[f"{name}.elements_touched"] = touched
            rows[f"{name}.bytes_computed"] = touched * 16 * DENSE_KERNELS[name]
    if RUN_SPAN in names:
        runs = sum(p["mc_runs"] for p in passes)
        accepted = sum(p["mc_accepted"] for p in passes)
        rows["protocol.runs"] = runs / k
        rows["protocol.accepted"] = accepted / k
        rows["protocol.accept_ratio"] = accepted / runs if runs else 0.0
    rows["bench.self_s"] = own.get("bench.gate", 0.0) / k
    # the layers' self time plus the gates' must cover each traced pass
    rows["trace.accounted_share"] = share
    return rows


def versions():
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    optomech = _import_package()
    from tracer import Tracer
    from workloads import workloads

    workload = workloads(SCRATCH)[args.workload]
    inputs = workload.make_inputs(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    full = Tracer(optomech) if args.trace else None
    timer = Tracer(optomech, only={RUN_SPAN}).install()

    def one(traced):
        if not traced:
            return run_pass(workload, inputs, timer, False)
        timer.uninstall()
        try:
            return run_pass(workload, inputs, full.install(), True)
        finally:
            full.uninstall()
            timer.install()

    # the first pass is timed on its own; further passes (or, traced,
    # traced/untraced pairs) follow until the next would end more than
    # half a step past --seconds, so a run measures about that long
    begin = perf_counter()
    passes = [one(False)]
    step = [True, False] if args.trace else [False]
    while True:
        start = perf_counter()
        passes.extend(one(t) for t in step)
        last = perf_counter() - start
        if perf_counter() - begin + 0.5 * last > args.seconds:
            break
    timer.uninstall()

    warm = [p for p in passes[1:] if not p["traced"]]
    out = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "first_pass_s": passes[0]["program_s"],
        "wall_s": statistics.median(p["program_s"] for p in warm),
        "wall_s_samples": len(warm),
        "pass_s": [round(p["program_s"], 4) for p in passes],
        "gate_s": [round(p["gate_s"], 4) for p in passes],
        "runs_per_s": runs_per_s([p for p in passes if not p["traced"]]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "grid_sizes": list(workload.grid_sizes),
    }
    out.update(versions())
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        out["layers"] = layer_rows(traced, full.names)
        out["layers"]["tracing_overhead_s"] = (
            statistics.median(p["program_s"] for p in traced) - out["wall_s"])
        out["traced_grid_sizes"] = sorted({s[4] for p in traced
                                           for s in p["spans"] if s[4]})
        out["spans"] = traced[-1]["spans"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
