"""optomech benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads and metrics are those named in
BENCHMARK.json; bench/NOTES.md says why each was chosen and which per-layer
numbers should move which end-to-end numbers.

With ``--trace 0`` the run measures set-up (fresh interpreters timed from
start to ready, median of three) and the end-to-end metrics of untraced
passes.  With ``--trace 1`` it reports the per-layer metrics of traced passes
and the tracing overhead.  Every run gates every operation's output, prints
each metric by name and unit, writes a run record under bench/results/, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# spans must cover this share of a traced pass, else the tracer lost time
MIN_ACCOUNTED = 0.95


def _commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "optomech").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _caches():
    """L2 and L3 sizes as lscpu prints them."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    return caches


def _worker(args, deadline, setup_only=False):
    """Run worker.py in a fresh interpreter.

    Returns (seconds from spawn to READY, final JSON or None).  The worker is
    killed at the deadline and always waited for.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0),
                               proc.kill)
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None:
        raise SystemExit(f"worker exited with {code} "
                         f"({'ready' if ready else 'never ready'})")
    return ready, (None if setup_only else json.loads(last))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "optomech" / "__init__.py").is_file():
        sys.exit(f"no optomech sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)

    setup = []
    if not args.trace:
        setup = [_worker(args, deadline, setup_only=True)[0]
                 for _ in range(SETUP_SAMPLES - 1)]
    ready, out = _worker(args, deadline)
    setup.append(ready)

    if args.trace:
        wanted = spec["per_layer"]
        rows = dict(out["layers"], fail_ratio=out["failed"] / out["attempted"])
    else:
        wanted = spec["end_to_end"]
        rows = {"setup_s": statistics.median(setup),
                "first_pass_s": out["first_pass_s"], "wall_s": out["wall_s"],
                "runs_per_s": out["runs_per_s"],
                "peak_rss_mb": out["peak_rss_mb"]}
    units = {m["name"]: m["unit"] for m in wanted}
    # a per-layer row whose function no longer exists is dropped, not faked
    metrics = {name: {"value": rows[name], "unit": unit}
               for name, unit in units.items() if name in rows}
    missing = sorted(set(units) - set(metrics))

    correct = out["failed"] == 0 and out["attempted"] >= 1
    if args.trace:
        correct = correct and rows["trace.accounted_share"] >= MIN_ACCOUNTED

    caches = _caches()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": sys.version.split()[0], "numpy": out["numpy"],
        "scipy": out["scipy"], "blas": out["blas"],
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "caches": caches,
        "grid_sizes": out["grid_sizes"],
        "state_bytes": {n: 16 * n * n for n in out["grid_sizes"]},
        "setup_samples_s": setup,
        "wall_s_samples": out["wall_s_samples"],
        "pass_s": out["pass_s"], "gate_s": out["gate_s"],
        "correct": correct, "attempted": out["attempted"],
        "failed": out["failed"], "fail_ratio": out["failed"]
        / out["attempted"], "failures": out["failures"],
        "metrics": metrics, "dropped_metrics": missing,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["all_layer_rows"] = out["layers"]
        record["traced_grid_sizes"] = out["traced_grid_sizes"]
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent",
                                   "grid_points"],
                        "spans": out["spans"]}), encoding="utf-8")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2),
                                          encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: commit {record['commit']}, "
          f"sources {record['source_sha256']}, python {record['python']}, "
          f"{record['blas']} x {BLAS_THREADS} thread, nproc {record['nproc']}")
    sizes = ", ".join(f"n={n}: {16 * n * n / 2**20:g} MiB"
                      for n in out["grid_sizes"])
    print(f"# state size {sizes}; caches {caches}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if "fail_ratio" not in metrics:
        print(f"fail_ratio {record['fail_ratio']:.6g} 1")
    print(f"# {out['failed']} of {out['attempted']} operations failed")
    if not args.trace:
        print(f"# wall_s is the median of {out['wall_s_samples']} warmed "
              f"passes; setup_s the median of {len(setup)} interpreters")
    for failure in out["failures"]:
        print(f"# FAILED {failure}")
    if missing:
        print(f"# dropped (not present in this version): {missing}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
