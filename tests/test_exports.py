"""Every name a qplane module lists in ``__all__`` is defined there, and
every cross-reference in its docstrings and comments names something."""

import importlib
import inspect
import pkgutil
import re

import pytest

import qplane

MODULES = ["qplane", *(f"qplane.{m.name}" for m in pkgutil.iter_modules(qplane.__path__))]

# :role:`target` or :role:`~target`
REFERENCE = re.compile(r":(?:func|class|meth|attr|data|mod):`~?([\w.]+)`")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _lookup(obj, path: list[str]) -> bool:
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _dotted(target: str) -> bool:
    """Whether ``target`` is a module path, or one followed by attributes."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return _lookup(module, parts[cut:])
    return False


def _resolves(module, target: str) -> bool:
    """A name (or dotted path) in ``module``, an attribute of one of its
    classes, or a dotted path from the top."""
    if _lookup(module, target.split(".")):
        return True
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
               if c.__module__ == module.__name__]
    return any(_lookup(c, target.split(".")) for c in classes) or _dotted(target)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_references_resolve(name):
    module = importlib.import_module(name)
    targets = REFERENCE.findall(inspect.getsource(module))
    assert [t for t in targets if not _resolves(module, t)] == []
