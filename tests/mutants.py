"""Mutation check of the oracle's bounds: does the oracle test file catch
each cut to the terms that keep a near-recurrence or an aliased peak from
being taken for the period?

Each cut in CUTS is applied alone to a copy of ``src/aaphase/oracle.py``
in a temporary directory, and ``tests/test_oracle.py`` is run against
that copy (``pytest -x``).  A cut is caught when the run fails and
survived when it passes.  ``src/`` is never edited.  First the unmutated
copy must pass.

    python tests/mutants.py            # one line per cut
    python tests/mutants.py -k Window  # extra arguments go to pytest

Not collected by pytest: the file name has no ``test_`` prefix.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "aaphase" / "oracle.py"

# (name, [(text in oracle.py, its replacement), ...]); each text occurs
# once, which tests/test_oracle.py checks, so an edit of oracle.py that
# moves one fails tier-1 rather than this script
CUTS = (
    ("_prune's slope term",
     [("ok = fid + dt * np.abs((phases * (nu * w)).sum(axis=1)) >= floor",
       "ok = fid >= floor")]),
    ("_floor's margin term",
     [("return 1.0 - tol - (w @ (dt * nu) ** 2) / 2 - margin, margin",
       "return 1.0 - tol - (w @ (dt * nu) ** 2) / 2, margin")]),
    ("_floor's curvature term",
     [("return 1.0 - tol - (w @ (dt * nu) ** 2) / 2 - margin, margin",
       "return 1.0 - tol - margin, margin")]),
    ("coarse bound's curvature term",
     [("bound = bound[:coarse.size] + (w @ hnu ** 2) / 2",
       "bound = bound[:coarse.size]")]),
    ("coarse bound's |D| half",
     [("(both[:, :cols.size]\n" + " " * 50 + "+ both[:, cols.size:])",
       "both[:, :cols.size]")]),
    ("coarse floor's dt term",
     [("floor -= (w @ np.abs(dt * self._occ_nu)\n", "floor -= (0.0\n")]),
    ("coarse floor's rounding slack",
     [("+ 2 * (margin + omega.size * np.spacing(1.0)))", ")")]),
    ("detect_period's gap rule",
     [("left[1:] |= step > 1", "pass")]),
    ("window margins",
     [("at - reach - 2", "at - reach"), ("at + reach + 1", "at + reach")]),
)


def mutate(source: str, edits) -> str:
    """``source`` with each (old, new) of ``edits`` replaced; ValueError
    unless each old text occurs exactly once."""
    for old, new in edits:
        if source.count(old) != 1:
            raise ValueError(f"{old!r} does not occur once in oracle.py")
        source = source.replace(old, new)
    return source


def _run(src: Path, extra) -> int:
    # no bytecode: two mutants of one size written within one second
    # would share a stale cache entry
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # run from the temporary directory, so Hypothesis keeps the failing
    # examples of the mutants out of the repository's example database
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_oracle.py"), *extra],
        cwd=src.parent, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(extra) -> int:
    source = SOURCE.read_text()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "aaphase" / "oracle.py"
        if _run(src, extra) != 0:
            print("the unmutated oracle fails the tests; nothing to compare")
            return 2
        survived = 0
        for name, edits in CUTS:
            try:
                target.write_text(mutate(source, edits))
            except ValueError as exc:
                print(f"{name}: {exc}")
                return 2
            code = _run(src, extra)
            verdict = {0: "survived", 1: "caught"}.get(code, f"error {code}")
            survived += code == 0
            print(f"{name:32} {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
