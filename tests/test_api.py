"""Each layer module's __all__ names only attributes the module defines,
every public name is used by the program, and every option of a public
function is set by some caller of the program.

bench/tracer.py finds the functions it times through __all__, and
`from optomech.<layer> import *` fails on a stale entry.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = ("measurement", "params", "protocol", "pulse", "states",
          "verification", "wigner")
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "demos", "bench")

# defaulted parameters that no caller outside the tests sets, with the reason
# each stays an option
UNSET_ALLOWED = {
    "pulse.optimal_square_spectrum.t_axis":
        "the time-grid tests drive the matched envelope on coarse, short and "
        "long grids; its default grid is the one every caller uses",
}

# public names that nothing in CALLER_DIRS uses, with the reason each stays
UNUSED_ALLOWED = {
    "states.state_from_npz":
        "the reading half of the state.npz format that the CLI writes",
    "states.validate_state":
        "the density-matrix invariant check the property tests run after "
        "every map; its O(n^3) eigvalsh keeps it off every program path",
    "pulse.optimal_spectrum_amplitude":
        "the oracle of the matched time-domain envelope",
    "pulse.lorentzian_spectrum_amplitude":
        "the oracle of the Lorentzian time-domain envelope",
}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"optomech.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def _calls_by_name():
    """Every call in the program's own code, keyed by the called name."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _names_used():
    """Every name or attribute read in the program's own code, except inside
    the function or class of the same name (recursion is not a use)."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defining = defining | {node.name}
        name = getattr(node, "id", None) if isinstance(node, ast.Name) \
            else getattr(node, "attr", None)
        if name and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def test_every_public_name_is_used():
    # a public name that only tests reach is API kept alive by its own tests
    used = _names_used()
    unused = [f"{layer}.{name}" for layer in LAYERS
              for name in importlib.import_module(f"optomech.{layer}").__all__
              if name not in used]
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


def test_every_option_has_a_caller():
    # a defaulted parameter of a public function that only tests set is a
    # constant in disguise; public means in __all__ or, like the checks in
    # verification.CHECKS, defined in the layer without a leading underscore
    calls = _calls_by_name()
    unset = []
    for layer in LAYERS:
        mod = importlib.import_module(f"optomech.{layer}")
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            params = inspect.signature(fn).parameters.values()
            for index, param in enumerate(params):
                if param.default is param.empty:
                    continue
                if not any(_sets(call, index, param)
                           for call in calls.get(name, ())):
                    unset.append(f"{layer}.{name}.{param.name}")
    assert sorted(set(unset) - set(UNSET_ALLOWED)) == []
    assert sorted(set(UNSET_ALLOWED) - set(unset)) == []
