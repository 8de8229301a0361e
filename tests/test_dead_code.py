"""No dead library code: every module-level name of the package is used somewhere, and every import is used.

Two scans of the syntax trees, with no import of the package:

- a module-level function, class or constant of ``src/centropoly`` must be
  named somewhere in ``src``, ``bench`` or ``tests`` other than where it
  is defined: read as a name, an attribute, an imported name, or a string
  that spells it (``monkeypatch.setattr(cli, "dual_of_dual", ...)``,
  ``"generators._convex_from_rng"``);
- a module of the package other than ``__init__.py`` must use every name
  it imports;
- a helper or fixture defined in ``tests/conftest.py`` must be named
  somewhere other than ``conftest.py``: a test that takes a parameter of a
  fixture's name names it.

Dunder names (``__version__``) are protocol and are not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "centropoly"
MODULES = sorted(PACKAGE.glob("*.py"))
CONFTEST = ROOT / "tests" / "conftest.py"


def trees(*dirs: str) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def defined(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assigned constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def named(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports, or spells in a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                found.update(parts)
    return found


def parameters(tree: ast.Module) -> set[str]:
    """The parameter names of every function of a module; a test requests a fixture by one."""
    return {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}


def test_every_module_level_name_is_used():
    everywhere = trees("src", "bench", "tests")
    used = set().union(*map(named, everywhere.values()))  # a definition does not name itself
    unused = [f"{p.name}: {name}" for p in MODULES for name in defined(everywhere[p]) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    assert sorted(f"line {line}: {name}" for name, line in imported.items() if name not in reads) == []


def test_every_conftest_helper_is_used_outside_conftest():
    others = [tree for path, tree in trees("src", "bench", "tests").items() if path != CONFTEST]
    used = set().union(*(named(tree) | parameters(tree) for tree in others))
    assert [name for name in defined(ast.parse(CONFTEST.read_text(encoding="utf-8"))) if name not in used] == []
