"""Every name a qplane module lists in ``__all__`` is defined there."""

import importlib
import pkgutil

import pytest

import qplane

MODULES = ["qplane", *(f"qplane.{m.name}" for m in pkgutil.iter_modules(qplane.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
