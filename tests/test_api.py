"""Each layer module's __all__ names only attributes the module defines.

bench/tracer.py finds the functions it times through __all__, and
`from optomech.<layer> import *` fails on a stale entry.
"""

import importlib

import pytest

LAYERS = ("measurement", "params", "protocol", "pulse", "states",
          "verification", "wigner")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"optomech.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
