"""Every name a library module imports is read somewhere in that module,
and every Python file of the project parses as Python 3.10."""

import ast

import pytest

from .conftest import FIXTURES

ROOT = FIXTURES.parent
SOURCES = sorted((ROOT / "src" / "impsynth").glob("*.py"))
ALL_SOURCES = sorted(p for d in ("src", "tests", "bench")
                     for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", ALL_SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # the oldest Python that pyproject.toml admits
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
