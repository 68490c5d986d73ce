"""Every name a module lists in ``__all__`` resolves and is used by the program.

A stale export fails at once.  So does a public name that only the tests
call: each must be read outside its own definition, in ``src/`` (the
package root's re-exports do not count, being imports) or in ``bench/``.
Only the command line draws random cases: the library's laws are residuals.
No module keeps a hand-rolled memo table.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import schoutencalc

MODULES = [
    info.name
    for info in pkgutil.iter_modules(schoutencalc.__path__)
    if info.name != "__main__"
]
ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "schoutencalc").glob("*.py"))}
BENCH = [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]


def read_names(tree, skip=None) -> set[str]:
    """Bare names and attribute names read in ``tree``, outside the subtree ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def definition(tree, name):
    """The top-level statement of ``tree`` that binds ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def imported_modules(tree):
    """The dotted names that the imports of ``tree`` reach, relative dots dropped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_the_cli_draws_cases():
    # pairs.check_pair_morphism is the one library check that samples: its
    # anchor and multiplicativity conditions are not one residual.
    importers = {
        path.stem
        for path, tree in SOURCES.items()
        if any(name.split(".")[-1] == "sampling" for name in imported_modules(tree))
    }
    assert importers == {"cli", "pairs"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"schoutencalc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_used_outside_their_definition(name):
    module = importlib.import_module(f"schoutencalc.{name}")
    own_path = Path(module.__file__).resolve()
    elsewhere = set().union(
        *(read_names(tree) for path, tree in SOURCES.items() if path != own_path),
        *(read_names(tree) for tree in BENCH),
    )
    own = SOURCES[own_path]
    unused = [
        n
        for n in getattr(module, "__all__", ())
        if n not in elsewhere and n not in read_names(own, definition(own, n))
    ]
    assert unused == []


def empty_container(node) -> bool:
    """Whether ``node`` is an empty dict, list or set: ``{}``, ``[]``, ``dict()``, ``list()`` or ``set()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_no_module_binds_an_empty_container_at_top_level():
    # A pure memo table is functools.cache on the function that fills it; a
    # table of one pair is a slot of that pair.
    bound = [
        f"{path.stem}:{node.lineno}"
        for path, tree in SOURCES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and empty_container(node.value)
    ]
    assert bound == []
