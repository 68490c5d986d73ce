"""Every name a module lists in ``__all__`` resolves, so a stale export fails at once."""

import importlib
import pkgutil

import pytest

import schoutencalc

MODULES = [
    info.name
    for info in pkgutil.iter_modules(schoutencalc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"schoutencalc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
