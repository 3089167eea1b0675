"""Every name a qplane module lists in ``__all__`` is defined there,
every cross-reference in its docstrings and comments names something,
and every public function has a user outside the tests."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import qplane

MODULES = ["qplane", *(f"qplane.{m.name}" for m in pkgutil.iter_modules(qplane.__path__))]

ROOT = Path(__file__).resolve().parents[1]

# Public functions whose only callers are tests, each with its reason.
NO_CALLER_NEEDED = {
    "qmul_opposite": "a declared cross-check of qmul",
    "calc_qseries": "the homomorphism x -> T, y -> S on polynomial tables",
    "resolvent_twist_residual": "the identity acceptance criterion 7 checks",
    "radical_decay_check": "the quasinilpotent decay of mixed terms on the pair",
    "point_q_closure": "the closure of a point in the spiral topology",
    "is_quasicompact_d": "quasicompactness in the disk topology",
}

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


def _users() -> dict[Path, str]:
    files = [*(ROOT / "src" / "qplane").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return {f: f.read_text() for f in files}


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_have_users(name):
    module = importlib.import_module(name)
    source = Path(inspect.getfile(module))
    users = [text for path, text in _users().items() if path != source]
    spare = [
        n for n in getattr(module, "__all__", ())
        if inspect.isfunction(getattr(module, n)) and n not in NO_CALLER_NEEDED
        and not any(re.search(rf"\b{n}\b", text) for text in users)
    ]
    assert spare == []
