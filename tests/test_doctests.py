import doctest
import importlib
import pkgutil

import pytest

import singlink

MODULES = sorted(
    f"singlink.{info.name}"
    for info in pkgutil.iter_modules(singlink.__path__)
    if info.name != "__main__"
)


def test_every_module_is_found():
    assert {"singlink.cli", "singlink.families", "singlink.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    # a stale name in __all__ breaks `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
