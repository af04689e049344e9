"""The installed program needs numpy only, and only where it builds an
array; scipy is a test dependency.  Its records are plain classes, so
importing it loads no dataclasses machinery, and it reads its command
line without argparse, so a run loads neither gettext nor locale."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "aaphase").rglob("*.py"))


def imported_modules(path, eager=False):
    """Every module an import statement in the file names, at any depth,
    so imports inside functions count too; with ``eager``, only those
    that run on importing the file: outside function bodies, class
    bodies included."""
    nodes = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while nodes:
        node = nodes.pop()
        if eager and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        nodes.extend(ast.iter_child_nodes(node))


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


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_no_eager_numpy_import(path):
    # the exact route builds no array, so importing the program must not
    # cost a numpy import
    assert [name for name in imported_modules(path, eager=True)
            if name.partition(".")[0] == "numpy"] == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_no_dataclasses_import(path):
    # every record is a plain __slots__ class; the dataclasses module
    # pulls in inspect, which costs milliseconds on every run
    assert "dataclasses" not in list(imported_modules(path))


def _modules():
    for path in SOURCES:
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        yield importlib.import_module(".".join(
            parts[:-1] if parts[-1] == "__init__" else parts))


def test_exact_route_classes_are_slotted():
    # every record the program defines is a plain __slots__ class, as
    # the spectrum and the state that the exact route reads level by
    # level; exceptions keep their own attributes.  The list names every
    # record, so adding or deleting one is an edit here
    classes = [cls for module in _modules() for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and not issubclass(cls, BaseException)]
    assert sorted(cls.__name__ for cls in classes) == [
        "Cyclicality", "CyclicityCandidate", "EvolutionResult",
        "GaugedCandidate", "Grid", "Hamiltonian", "LoadedRun", "PhaseReport",
        "SpectralPropagator", "Spectrum", "SpinHalfParams",
        "StateDecomposition", "ThreeMirrorParams", "TwoMirrorParams"]
    for cls in classes:
        assert "__slots__" in vars(cls), cls
        assert "__dataclass_fields__" not in vars(cls), cls


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # compared with the modules loaded before the import: a site hook can
    # load modules at interpreter start
    probe = ("import sys; before = set(sys.modules); import aaphase.cli; "
             "print(*sorted({'dataclasses', 'inspect'} "
             "& (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_no_argparse_import(path):
    # the command line is read in one table-driven pass; building an
    # argparse parser costs a millisecond and imports gettext and locale
    assert [name for name in imported_modules(path)
            if name.partition(".")[0] == "argparse"] == []


def test_cli_run_leaves_argparse_gettext_and_locale_unloaded():
    probe = ("import sys; import aaphase.cli; "
             "code = aaphase.cli.main(['analyze', '--config', sys.argv[1]]); "
             "print(code, *sorted({'argparse', 'gettext', 'locale'} "
             "& set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", probe,
         str(ROOT / "configs" / "three_mirror_exact.ini")],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.splitlines()[-1] == "0"


def test_eager_import_is_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nif os:\n    from numpy import pi\n"
                     "class C:\n    import numpy.linalg\n"
                     "    def f(self):\n        import numpy\n"
                     "def g():\n    import numpy as np\n")
    assert sorted(imported_modules(probe, eager=True)) \
        == ["numpy", "numpy.linalg", "os"]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
             for spec in project["dependencies"]]
    assert names == ["numpy"]
    assert any(spec.startswith("scipy")
               for spec in project["optional-dependencies"]["test"])
