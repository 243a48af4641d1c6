"""Timing spans around the public functions of every optomech layer.

The package itself carries no instrumentation, so the tracer patches it from
outside: every function named in a layer module's ``__all__`` (or, for a
module without one, every public function defined there) is replaced by a
wrapper at each place the package binds it, module namespaces and
module-level dicts alike.  ``protocol.condition_exact`` is wrapped as well as
``measurement.condition_exact``, so calls between layers are captured.  The
checks in ``verification.CHECKS`` get one span per check.

Targets are found by name at run time: a function a later version removes or
renames simply yields no spans.  Spans live in memory as
``[name, start, end, parent_index, grid_points]`` lists until the caller
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "verification", "protocol", "measurement", "wigner",
          "states", "pulse", "params")

CHECK_PREFIX = "verification.check."


def _grid_points(arg):
    """Grid size of a state or grid argument, else None."""
    return getattr(getattr(arg, "grid", arg), "n_points", None)


def _protocol_counts(summary, counts):
    """Count Monte-Carlo runs at the run_protocol boundary that did them."""
    runs = getattr(summary, "n_runs", None)
    accepted = getattr(summary, "n_accepted", None)
    if runs is not None and accepted is not None:
        counts["protocol.runs"] = counts.get("protocol.runs", 0) + runs
        counts["protocol.accepted"] = (counts.get("protocol.accepted", 0)
                                       + accepted)


def find_targets(package):
    """Map each traceable function object to its span name."""
    targets = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"{package.__name__}.{layer}")
        if mod is None:
            continue
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                targets[fn] = f"{layer}.{name}"
    return targets


def find_checks(package):
    """Map each verification check function to its span name."""
    verification = sys.modules.get(f"{package.__name__}.verification")
    checks = getattr(verification, "CHECKS", None)
    if not isinstance(checks, dict):
        return {}
    return {fn: CHECK_PREFIX + key for key, fn in checks.items()
            if inspect.isfunction(fn)}


class Tracer:
    """Install with ``install()``; remove every patch with ``uninstall()``.

    ``only`` restricts tracing to the given span names (used to time
    ``protocol.run_protocol`` alone in untraced runs).
    """

    def __init__(self, package, only=None):
        self.package = package
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []
        targets = find_targets(package)
        checks = {} if only is not None else find_checks(package)
        if only is not None:
            targets = {fn: n for fn, n in targets.items() if n in only}
        self.names = sorted(set(targets.values()) | set(checks.values()))
        self._wrappers = {fn: self._wrap(n, fn) for fn, n in targets.items()}
        self._check_wrappers = {fn: self._wrap(n, fn)
                                for fn, n in checks.items()}

    def reset(self):
        """Drop recorded spans and counts; call between passes only."""
        self.spans = []
        self.counts = {}

    @contextlib.contextmanager
    def span(self, name, grid_points=None):
        """Record one span; also used around the benchmark's own gates."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  grid_points]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        observe = _protocol_counts if name == "protocol.run_protocol" \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, _grid_points(args[0]) if args else None):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced

    def _patch(self, container, key, new):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = new
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, new)

    def install(self):
        prefix = self.package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package.__name__
                                         or n.startswith(prefix))]
        checks = getattr(sys.modules.get(prefix + "verification"), "CHECKS",
                         None)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patch(mod, attr, self._wrappers[value])
                elif isinstance(value, dict):
                    table = (self._check_wrappers if value is checks
                             else self._wrappers)
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in table:
                            self._patch(value, key, table[item])
        return self

    def uninstall(self):
        for container, key, old in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)
        self._patches = []


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]
