"""Each layer module's __all__ names only attributes the module defines,
every public name and every member of a public class is used by the
program, every option of a public function or dataclass is set by some
caller of the program, and every error class is raised or warned.

bench/tracer.py finds the functions it times through __all__, and
`from optomech.<layer> import *` fails on a stale entry.  The tracer drops a
BENCHMARK.json row it cannot find, so every per-function and per-check row
there must name a function the tracer wraps (in its layer's __all__ and
defined in that layer) or a verification check.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from optomech.verification import CHECKS

LAYERS = ("measurement", "params", "protocol", "pulse", "states",
          "verification", "wigner")
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "bench")
# per-function statistics the tracer reports as <layer>.<function>.<stat>
TRACED_STATS = ("calls", "self_s", "p50_ms", "p90_ms", "elements_touched",
                "bytes_computed")

# defaulted parameters and dataclass fields that no caller outside the tests
# sets, with the reason each stays an option
UNSET_ALLOWED = {
    "pulse.optimal_square_spectrum.t_axis":
        "the time-grid tests drive the matched envelope on coarse, short and "
        "long grids; its default grid is the one every caller uses",
}

# public names and members of public classes that nothing in CALLER_DIRS
# reads, with the reason each stays
UNUSED_ALLOWED = {
    "states.state_from_npz":
        "the reading half of the state.npz format that the CLI writes",
    "states.validate_state":
        "the density-matrix invariant check the property tests run after "
        "every map; its O(n^3) eigvalsh keeps it off every program path",
    "measurement.linear_kraus_diagonal":
        "U(x; q) as the paper writes it: the tests' reference for every map "
        "built from its quadrant, and a BENCHMARK.json row",
    "protocol.free_evolve":
        "free evolution as a Fock map; tomography evaluates the marginals it "
        "needs in closed form, and the tests take it as their reference",
    "pulse.optimal_spectrum_amplitude":
        "the oracle of the matched time-domain envelope",
    "pulse.lorentzian_spectrum_amplitude":
        "the oracle of the Lorentzian time-domain envelope",
    "params.DerivedParams.g_sq": "written to params.json through asdict",
    "params.DerivedParams.omega_sq": "written to params.json through asdict",
    "verification.CheckResult.description":
        "written to verify.json through asdict",
    "verification.CheckResult.detail":
        "written to verify.json through asdict",
}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"optomech.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _calls_by_name():
    """Every call in the program's own code, keyed by the called name; the
    CLI's cli._parsed(where, X, ...) counts as a call X(...)."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                if _name(node.func) == "_parsed" and len(node.args) >= 2:
                    node = ast.Call(func=node.args[1], args=node.args[2:],
                                    keywords=node.keywords)
                if _name(node.func):
                    calls.setdefault(_name(node.func), []).append(node)
    return calls


def _names_used():
    """(names, attributes) read in the program's own code, except inside the
    function or class of the same name (recursion is not a use): every name
    or attribute, and the attributes loaded (not stored, not keywords)."""
    used, loaded = set(), set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        name = getattr(node, "id", None) if isinstance(node, ast.Name) \
            else getattr(node, "attr", None)
        if name and name not in defining:
            used.add(name)
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                loaded.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used, loaded


def _public_classes():
    """(layer, name, class) for every class in a layer's __all__."""
    for layer in LAYERS:
        mod = importlib.import_module(f"optomech.{layer}")
        for name in mod.__all__:
            if inspect.isclass(getattr(mod, name)):
                yield layer, name, getattr(mod, name)


def _members(cls):
    """Public methods, properties and dataclass fields of cls."""
    names = {f.name for f in dataclasses.fields(cls)} \
        if dataclasses.is_dataclass(cls) else set()
    names |= {name for name, value in vars(cls).items()
              if inspect.isfunction(value) or isinstance(value, property)}
    return sorted(name for name in names if not name.startswith("_"))


def test_every_public_name_is_used():
    # a public name or member that only tests reach is API kept alive by its
    # own tests; a member counts as used when some attribute of its name is
    # read, so a constructor keyword alone does not keep a field
    used, loaded = _names_used()
    unused = [f"{layer}.{name}" for layer in LAYERS
              for name in importlib.import_module(f"optomech.{layer}").__all__
              if name not in used]
    unused += [f"{layer}.{name}.{member}"
               for layer, name, cls in _public_classes()
               for member in _members(cls) if member not in loaded]
    assert sorted(set(unused) - set(UNUSED_ALLOWED)) == []
    assert sorted(set(UNUSED_ALLOWED) - set(unused)) == []


def _sets(call, index, param):
    """Whether call passes param, by keyword or by enough positionals; a
    starred argument may reach any parameter."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg in (None, param.name) for kw in call.keywords):
        return True
    return param.kind is not param.KEYWORD_ONLY and len(call.args) > index


def _options():
    """(layer, name, callable) for every public function and dataclass:
    public means in __all__ or, like the checks in verification.CHECKS,
    defined in the layer without a leading underscore."""
    for layer in LAYERS:
        mod = importlib.import_module(f"optomech.{layer}")
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                yield layer, name, fn
    for layer, name, cls in _public_classes():
        if dataclasses.is_dataclass(cls):
            yield layer, name, cls


def test_every_option_has_a_caller():
    # a defaulted parameter of a public function, or a defaulted field of a
    # public dataclass, that only tests set is a constant in disguise
    calls = _calls_by_name()
    unset = []
    for layer, name, fn in _options():
        params = inspect.signature(fn).parameters.values()
        for index, param in enumerate(params):
            if param.default is param.empty:
                continue
            if not any(_sets(call, index, param)
                       for call in calls.get(name, ())):
                unset.append(f"{layer}.{name}.{param.name}")
    assert sorted(set(unset) - set(UNSET_ALLOWED)) == []
    assert sorted(set(UNSET_ALLOWED) - set(unset)) == []


def _traced(layer, name):
    """Whether bench/tracer.find_targets keeps layer.name: listed in __all__
    and a plain function defined in that layer, not a re-export, a partial
    or a class."""
    mod = importlib.import_module(f"optomech.{layer}")
    fn = getattr(mod, name, None)
    return (name in mod.__all__ and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


def test_benchmark_rows_name_traced_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = []
    for row in spec["per_layer"]:
        parts = row["name"].split(".")
        if len(parts) != 3:
            continue
        layer, name, stat = parts
        if layer == "verification" and stat == "busy_s":
            known = name in CHECKS
        else:
            known = stat in TRACED_STATS and _traced(layer, name)
        if not known:
            unknown.append(row["name"])
    assert unknown == []


def _raised_or_warned():
    """Names raised, or passed to a warn call, in src."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                names.add(_name(exc.func if isinstance(exc, ast.Call)
                                else exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                names.update(_name(arg) for arg in node.args)
                names.update(_name(kw.value) for kw in node.keywords)
    return names


def test_every_error_class_is_raised_or_warned():
    # an error class outlives its last raise unnoticed otherwise; a base
    # class counts through any subclass that is raised
    errors = importlib.import_module("optomech.errors")
    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    raised = [classes[name] for name in _raised_or_warned() if name in classes]
    unused = [name for name, cls in classes.items()
              if not any(issubclass(sub, cls) for sub in raised)]
    assert sorted(unused) == []


def test_import_leaves_out_heavy_scipy_subpackages():
    # scipy.signal (which pulls in scipy.stats) and scipy.interpolate once
    # took over half of `import optomech`, scipy.ndimage about a tenth;
    # nothing in the package needs them
    heavy = ("scipy.signal", "scipy.interpolate", "scipy.stats",
             "scipy.ndimage")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, optomech; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
