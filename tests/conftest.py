"""Shared fixtures: seeded RNG, random fixture builders, angle helpers,
spectrum building and level lookup, report parsing, dense ladder
operators, the Fraction references of the cavity levels and of the
constraint solver, and the references of the command-line parse and of
the verify angle distance."""

import argparse
import contextlib
import io
import math
from fractions import Fraction
from typing import Dict

import numpy as np
import pytest

from aaphase.cli import UsageError
from aaphase.config import FLAGS
from aaphase.constraints import CyclicityCandidate, GaugedCandidate
from aaphase.engine import Spectrum, StateDecomposition, _canonical_gamma
from aaphase.rational import over_one_denominator, parse_rational
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


def exact_spectrum(levels, unit: float = 1.0) -> Spectrum:
    """The `Spectrum` of (label, value) pairs whose values are ints,
    Fractions, "p/q" texts or floats: the rationals go over one
    denominator through `over_one_denominator`, the floats stay."""
    labels = [lab for lab, _ in levels]
    values = [parse_rational(v) if isinstance(v, str) else v
              for _, v in levels]
    *numerators, d = over_one_denominator(*values)
    return Spectrum(list(zip(labels, numerators)), unit=unit, denominator=d)


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
    spectrum = exact_spectrum(list(zip(labels, values)))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    state = StateDecomposition(spectrum, amps)
    return spectrum, state


def reference_three_mirror_levels(rho_D, rho_S, kappa_D, truncations):
    """{"n_a,n_b,m": rho_D n_a + rho_S n_b + m - kappa_D^2 n_a^2}, each
    level a Fraction computed block by block."""
    na, nb, nc = truncations
    return {f"{i},{j},{m}": rho_D * i + rho_S * j + m - kappa_D ** 2 * i * i
            for i in range(na) for j in range(nb) for m in range(nc)}


def reference_two_mirror_levels(r, k_squared, photons, mirror):
    """{"n,m": r n + m - k^2 n^2}, each level a Fraction."""
    return {f"{n},{m}": r * n + m - k_squared * n * n
            for n in range(photons) for m in range(mirror)}


def reference_candidates(lam1: Fraction, lam2: Fraction, n_range: int):
    """`enumerate_candidates` in Fraction arithmetic over every (n, m):
    the classes (phi mod 2*pi, tau) in first-seen order, each with the
    representative of phi/2pi in (-1/2, 1/2], sorted by tau, |n| + |m|
    and phi."""
    denom = lam1 - lam2
    seen = {}
    for n in range(-n_range, n_range + 1):
        for m in range(-n_range, n_range + 1):
            if n == m:
                continue
            tau = Fraction(n - m, 1) / denom
            if tau <= 0:
                continue
            phi2pi = (lam1 * m - lam2 * n) / denom
            k = math.ceil(phi2pi - Fraction(1, 2))
            key = (phi2pi - k, tau)
            if key not in seen:
                seen[key] = CyclicityCandidate(
                    tau_cycles=tau, n=n - k, m=m - k,
                    phi_over_pi=2 * (phi2pi - k))
    return sorted(seen.values(),
                  key=lambda c: (c.tau_cycles, abs(c.n) + abs(c.m),
                                 c.phi_over_pi))


def reference_gauge(candidate, lam1: Fraction, lam2: Fraction):
    """`gauge_to_zero_phi` in Fraction arithmetic."""
    n, m = candidate.n, candidate.m
    c = (lam1 * m - lam2 * n) / Fraction(n - m)
    g1, g2 = lam1 + c, lam2 + c
    tau = Fraction(n, 1) / g1 if n != 0 else Fraction(m, 1) / g2
    assert tau == candidate.tau_cycles, "gauge changed the period"
    return GaugedCandidate(candidate=candidate, shift=c, lam1=g1, lam2=g2)


def reference_gammas(candidate, mean_H, lam1: Fraction, lam2: Fraction):
    """`gamma_candidates` in Fraction arithmetic: the candidate's own
    gamma, then (j*<H'>/lam1' mod 1) turns for j = 1..denominator."""
    gauged = reference_gauge(candidate, lam1, lam2)
    tau = gauged.tau_cycles
    if isinstance(mean_H, float):
        mean = float(mean_H) + float(gauged.shift)
        return [_canonical_gamma(TWO_PI * float(tau) * mean)]
    own_turns = (Fraction(mean_H) + gauged.shift) * tau
    values = dict.fromkeys([_canonical_gamma(TWO_PI * float(own_turns % 1))])
    base = gauged.lam1 if gauged.n != 0 else gauged.lam2
    ratio = (Fraction(mean_H) + gauged.shift) / base
    for j in range(1, ratio.denominator + 1):
        values.setdefault(_canonical_gamma(TWO_PI * float((j * ratio) % 1)))
    return list(values)


def reference_mod_distance(a: float, b: float) -> float:
    """The CLI's angle distance mod 2*pi in its branch form: fold the
    remainder into [-pi, pi], then take its absolute value."""
    d = math.fmod(a - b, TWO_PI)
    if d < -math.pi:
        d += TWO_PI
    elif d > math.pi:
        d -= TWO_PI
    return abs(d)


class _ReferenceParser(argparse.ArgumentParser):
    """argparse front end whose refusals raise the CLI's UsageError."""

    def error(self, message):
        raise UsageError(message)


def reference_parse(argv):
    """``cli._parse`` as the argparse parser the CLI used before its
    table-driven pass: (command, {option: value}), (None, None) for a
    help request, and UsageError where argparse refused the line."""
    parser = _ReferenceParser(prog="aaphase",
                              description="Periods and geometric phases of "
                                          "cyclic quantum evolutions")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ReferenceParser)
    for name, text in (("analyze", "exact-route phase report"),
                       ("verify", "exact route vs brute-force oracle"),
                       ("constrain", "partial-spectrum candidates")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="<path>")
        cmd.add_argument("--out", metavar="<path>")
        for key, cast in FLAGS.items():
            cmd.add_argument("--" + key.replace("_", "-"), type=cast,
                             dest=key)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = vars(parser.parse_args(argv))
    except SystemExit as exc:           # help printed, exit 0
        assert exc.code == 0
        return None, None
    return args.pop("command"), args


def whole_grid_survival(prop, times) -> np.ndarray:
    """<psi0|psi(t)> at every point of the uniform grid ``times``, as one
    (n/B x levels) @ (levels x B) product with B = FINE_BLOCK (or n, if
    less), in chunks of CHUNK_ENTRIES // max(levels, B) rows: the
    reference that `SpectralPropagator.survival_grid` must equal bit for
    bit wherever it evaluates."""
    from aaphase import oracle
    t = times[:]
    omega = prop._occ_omega
    fine = min(oracle.FINE_BLOCK, t.size)
    rows = max(1, oracle.CHUNK_ENTRIES // max(omega.size, fine))
    factors = np.exp(-1j * np.outer(omega, t[:fine]))
    coarse = t[::fine]
    out = np.empty((coarse.size, fine), dtype=complex)
    for start in range(0, coarse.size, rows):
        head = np.exp(-1j * np.outer(coarse[start:start + rows], omega))
        head *= prop._occ_w
        out[start:start + rows] = head @ factors
    return out.ravel()[:t.size]


def whole_grid_result(prop, times):
    """An `EvolutionResult` that holds every point of the grid."""
    from aaphase.oracle import EvolutionResult
    return EvolutionResult(times, np.arange(times.size),
                           whole_grid_survival(prop, times), prop)
