"""Every module of the package uses each name it imports; ``__init__`` only re-exports."""

import ast
from pathlib import Path

import pytest

import zsmagic

MODULES = sorted(p for p in Path(zsmagic.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "groups"], ids=lambda p: p.stem)
def test_only_groups_parses_elements(path):
    """Element tokens are read by ``groups.read_elements`` alone."""
    uses = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "id", getattr(node, "attr", None)) == "parse_element"
    ]
    assert uses == []
