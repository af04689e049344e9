"""Shared fixtures: seeded RNG, random fixture builders, angle helpers,
level lookup, report parsing and dense ladder operators."""

import math
from fractions import Fraction
from typing import Dict

import numpy as np
import pytest

from aaphase.engine import Spectrum, StateDecomposition
from aaphase.report import DELIM

TWO_PI = 2.0 * math.pi

# one visible pass/fail line per acceptance criterion, echoed after the
# run so the outcome survives pytest's stdout capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def level(spectrum: Spectrum, label: str):
    """The level of ``label``: Fraction(p, D) for an integer numerator p
    over the spectrum's denominator D, the float itself otherwise."""
    value = dict(spectrum.levels)[label]
    if isinstance(value, float):
        return value
    return Fraction(value, spectrum.denominator)


def parse_report(text: str) -> Dict[str, Dict[str, str]]:
    """Parse a structured report back into {section: {key: value}}.

    Table sections map each row's first cell to the remaining cells
    joined by the delimiter; used by round-trip and golden-file tests.
    """
    sections: Dict[str, Dict[str, str]] = {}
    current: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = {}
            sections[line[1:-1]] = current
            continue
        if DELIM in line:
            head, _, rest = line.partition(DELIM)
            current[head.strip()] = rest
        elif ": " in line:
            key, _, value = line.partition(": ")
            current[key] = value
        elif line.endswith(":"):
            current[line[:-1]] = ""
    return sections


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator as a dense array."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def create(dim: int) -> np.ndarray:
    return destroy(dim).T.copy()


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def circ(a: float, b: float) -> float:
    """Distance between two angles mod 2*pi."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_fraction(rng, max_num=9, max_den=9, allow_zero=True) -> Fraction:
    num = int(rng.integers(-max_num, max_num + 1))
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, int(rng.integers(1, max_den + 1)))


def random_exact_fixture(rng, min_levels=2, max_levels=5):
    """Random rational spectrum with a random fully-occupying state."""
    n = int(rng.integers(min_levels, max_levels + 1))
    values = []
    while len(values) < n:
        v = random_fraction(rng)
        if v not in values:
            values.append(v)
    labels = [f"L{i}" for i in range(n)]
    spectrum = Spectrum(levels=list(zip(labels, values)), unit=1.0)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    state = StateDecomposition(entries=list(zip(labels, amps)))
    return spectrum, state
