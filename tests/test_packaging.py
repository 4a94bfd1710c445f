"""The installed package declares what it imports.

``pip install .`` pulls in ``[project] dependencies`` and nothing else,
so a third-party module that ``src/repro`` imports without declaring
makes ``import repro`` fail outside a development environment.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package_dir: Path) -> "dict[str, set[str]]":
    """Top-level module of every absolute import -> files importing it."""
    found: "dict[str, set[str]]" = {}
    for path in sorted(package_dir.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }
    imported = imported_top_level_modules(ROOT / "src" / "repro")
    third_party = {
        module: files
        for module, files in imported.items()
        if module not in sys.stdlib_module_names and module != "repro"
    }
    assert "numpy" in third_party  # the walk sees the package's imports
    undeclared = {
        module: sorted(files)
        for module, files in third_party.items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"
