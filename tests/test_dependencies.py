"""The installed program needs numpy only; scipy is a test dependency."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "aaphase").rglob("*.py"))


def imported_modules(path):
    """Every module an import statement in the file names, at any depth,
    so imports inside functions count too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert ROOT / "src" / "aaphase" / "oracle.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_no_scipy_import(path):
    assert [name for name in imported_modules(path)
            if name.partition(".")[0] == "scipy"] == []


def test_lazy_import_is_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    from scipy.linalg import eigh\n")
    assert list(imported_modules(probe)) == ["scipy.linalg"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
             for spec in project["dependencies"]]
    assert names == ["numpy"]
    assert any(spec.startswith("scipy")
               for spec in project["optional-dependencies"]["test"])
