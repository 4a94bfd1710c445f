"""Every code name the design docs cite resolves in the tree.

``docs/*.md`` describe the current design by naming its code: dotted
``repro.…`` names and ``path.py::name`` citations.  A rename or a
deletion that leaves a doc naming what is gone fails here, one row per
citation:

* ``repro.a.b.c`` — the longest importable module prefix is imported
  and the rest is reached by attribute access;
* ``path.py::name`` — ``path.py`` is a file under the repository root
  or under ``src/repro``, and ``name`` (``Class`` or ``Class.member``)
  is defined in it: a function, class or assignment at top level, then
  inside that class.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md"))
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
CITED = re.compile(r"([\w/]+\.py)::([A-Za-z_][\w.]*\w)")


def _citations(pattern):
    found = set()
    for doc in DOCS:
        for match in pattern.finditer(doc.read_text()):
            found.add((doc.name, match.group(0)))
    return sorted(found)


def _resolve_dotted(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(name)


def _defined(body, name):
    """The node that defines ``name`` among the statements ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


@pytest.mark.parametrize("doc, name", _citations(DOTTED))
def test_dotted_names_resolve(doc, name):
    _resolve_dotted(name)


@pytest.mark.parametrize("doc, citation", _citations(CITED))
def test_path_citations_resolve(doc, citation):
    path, name = citation.split("::")
    files = [base / path for base in (ROOT, ROOT / "src" / "repro")]
    existing = [f for f in files if f.is_file()]
    assert existing, f"{doc}: no file {path}"
    body = ast.parse(existing[0].read_text()).body
    for part in name.split("."):
        node = _defined(body, part)
        assert node is not None, f"{doc}: {path} defines no {name}"
        body = getattr(node, "body", [])


def test_the_docs_cite_code():
    """The patterns still match the docs' citation style."""
    assert len(_citations(DOTTED)) >= 20
    assert len(_citations(CITED)) >= 20
