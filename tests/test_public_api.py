"""Every exported name resolves, so a removal cannot leave a dangling entry in __all__."""

import importlib
import pkgutil

import pytest

import nlprobe

MODULES = ["nlprobe"] + [f"nlprobe.{info.name}" for info in pkgutil.iter_modules(nlprobe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    scope = {}
    exec(f"from {name} import *", scope)
    assert set(getattr(importlib.import_module(name), "__all__", ())) <= scope.keys()
