"""Every name a divcurl module lists in __all__ is defined in it.

A stale __all__ entry breaks only `from divcurl.<module> import *`, which no
program runs, so deleting a name without its entry would pass every other test.
"""

import importlib
import pkgutil

import pytest

import divcurl

MODULES = sorted(info.name for info in pkgutil.iter_modules(divcurl.__path__))


def test_every_module_is_found():
    assert {"biot_savart", "grids", "quadrature", "disk", "stream"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"divcurl.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"divcurl.{name}.__all__ names what it does not define: {missing}"
