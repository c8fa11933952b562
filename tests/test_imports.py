"""Every module of the package uses each name it imports; ``__init__`` only re-exports.
The runtime imports the standard library only.  The README names only what exists.
Every source file parses as Python 3.10, the oldest version CI runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zsmagic

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(zsmagic.__file__).parent.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for folder in ("src", "bench", "demos") for p in (ROOT / folder).rglob("*.py"))


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
    """Element tokens are read by the codec in ``groups`` alone (``read_indices``)."""
    uses = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "id", getattr(node, "attr", None)) == "parse_element"
    ]
    assert uses == []


def test_cli_imports_no_third_party_package():
    """``import zsmagic.cli`` in a fresh interpreter loads none of the packages
    the tests use, so every command pays for the standard library only."""
    probe = "import sys, zsmagic.cli; print(sorted({'networkx', 'numpy', 'sympy', 'hypothesis'} & set(sys.modules)))"
    src = str(Path(zsmagic.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    """Newer syntax, such as ``except*``, would first fail on CI's Python 3.10."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_readme_library_layout_names_resolve():
    """Every backticked name in the README's "Library layout" table exists in its row's module."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(zsmagic[\w.]*)` \| (.*) \|$", section, re.MULTILINE)
    assert len(rows) >= 6
    missing = []
    for module_name, contents in rows:
        if module_name == "zsmagic.cli":  # its row names the `zsmagic` command, not an attribute
            continue
        module = importlib.import_module(module_name)
        names = re.findall(r"`(\w+)`", contents)
        missing += [f"{module_name}.{name}" for name in names if not hasattr(module, name)]
    assert missing == []
