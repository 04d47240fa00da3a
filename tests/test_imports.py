"""Every name a package module imports is used in that module, and every
module-level private function or class is referenced in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schaudermat"
# __init__.py only re-exports what it imports.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source):
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}


def references(source):
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def dead_helpers(sources):
    """Module-level _private functions and classes that no source references."""
    used = set().union(*map(references, sources))
    return sorted(name for source in sources for name in private_definitions(source)
                  if name not in used)


def test_checker_flags_dead_helper():
    sources = ["def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
               "def public(): return _used()\n",
               "def _remote(): pass\n",
               "import m\nm._remote()\n"]
    assert dead_helpers(sources) == ["_Gone", "_dead"]


def test_no_dead_helpers():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_helpers(sources) == []
