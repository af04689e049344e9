"""Partial-spectrum constraints on cyclic evolutions.

Knowing only two distinct eigenvalues occupied by the state, cyclicality
alone restricts the possible periods and total phases to a lattice of
candidates indexed by two branch integers (n, m):

    phi/2pi = (L1*m - L2*n)/(L1 - L2),   tau = (n - m)/(L1 - L2)

with tau in units of 2*pi*hbar/unit.  A spectral shift (gauge change)
c = (L1*m - L2*n)/(n - m) makes phi vanish, after which any further
eigenvalue L of the occupied set must satisfy L*tau in Z, an exact
rational divisibility test.  The geometric phase over the candidate
family takes finitely many values whenever <H>/L1 is rational in the
gauged frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .engine import TWO_PI, _canonical_gamma

__all__ = [
    "CyclicityCandidate",
    "GaugedCandidate",
    "PartialSpectrum",
    "constrain_unknown",
    "enumerate_candidates",
    "gamma_candidates",
    "gauge_to_zero_phi",
]

Rationalish = Union[Fraction, int, str]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float eigenvalue; rationalize() it explicitly first")
    return Fraction(value)


@dataclass(frozen=True)
class PartialSpectrum:
    """Known portion of the occupied spectrum, exact and dimensionless.

    Entries are (label, eigenvalue) pairs; eigenvalues are distinct
    multiples of ``unit``.
    """

    known: Tuple[Tuple[str, Fraction], ...]
    unit: float = 1.0

    def __init__(self, known: Sequence, unit: float = 1.0):
        entries = tuple((str(label), _as_fraction(value))
                        for label, value in known)
        if not entries:
            raise ValueError("at least one known eigenvalue required")
        values = [v for _, v in entries]
        if len(set(values)) != len(values):
            raise ValueError("known eigenvalues must be distinct")
        if not 0 < unit < math.inf:
            raise ValueError("unit must be positive and finite")
        object.__setattr__(self, "known", entries)
        object.__setattr__(self, "unit", float(unit))

    @property
    def eigenvalues(self) -> Tuple[Fraction, ...]:
        return tuple(v for _, v in self.known)


@dataclass(frozen=True, order=True)
class CyclicityCandidate:
    """One admissible (phi, tau) pair, exact.

    phi_over_pi is the total phase in pi units, tau_cycles the period in
    2*pi*hbar/unit units; both follow from the branch integers (n, m) by
    the defining relations, which hold exactly by construction.
    """

    tau_cycles: Fraction
    n: int
    m: int
    phi_over_pi: Fraction

    def __post_init__(self):
        if self.tau_cycles <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class GaugedCandidate:
    """Candidate with the spectral shift that sets phi = 0.

    ``shift`` is added to every eigenvalue (H -> H + shift*unit); the
    shifted reference eigenvalues lam1, lam2 then satisfy lam1*m = lam2*n
    and the period is tau_cycles = n/lam1 (m/lam2 when n = 0).
    """

    candidate: CyclicityCandidate
    shift: Fraction
    lam1: Fraction
    lam2: Fraction

    @property
    def tau_cycles(self) -> Fraction:
        return self.candidate.tau_cycles

    @property
    def n(self) -> int:
        return self.candidate.n

    @property
    def m(self) -> int:
        return self.candidate.m


def _reference_pair(ps: PartialSpectrum) -> Tuple[Fraction, Fraction]:
    if len(ps.known) < 2:
        raise ValueError("two known eigenvalues required")
    lam1, lam2 = ps.eigenvalues[:2]
    if lam1 == lam2:
        raise ValueError("reference eigenvalues must differ")
    return lam1, lam2


def enumerate_candidates(ps: PartialSpectrum,
                         n_range: int = 16) -> List[CyclicityCandidate]:
    """All (phi, tau) candidates with branch integers bounded by n_range.

    Pairs (n, m) with |n|, |m| <= n_range, n != m and tau > 0 are
    generated, reduced to one representative per (phi mod 2*pi, tau)
    class, and sorted by tau ascending with |n| + |m| breaking ties.
    The representative is the member of the class with phi/2pi in
    (-1/2, 1/2], mirroring the branch convention of the full-spectrum
    route; enlarging n_range only ever appends classes.
    """
    lam1, lam2 = _reference_pair(ps)
    if n_range < 1:
        raise ValueError("n_range must be >= 1")
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
            # shift both integers so the representative phase is canonical
            k = math.ceil(phi2pi - Fraction(1, 2))
            key = (phi2pi - k, tau)
            if key not in seen:
                seen[key] = CyclicityCandidate(
                    tau_cycles=tau, n=n - k, m=m - k,
                    phi_over_pi=2 * (phi2pi - k))
    return sorted(seen.values(),
                  key=lambda c: (c.tau_cycles, abs(c.n) + abs(c.m),
                                 c.phi_over_pi))


def gauge_to_zero_phi(candidate: CyclicityCandidate,
                      ps: PartialSpectrum) -> GaugedCandidate:
    """Spectral shift removing the total phase of the candidate.

    The period is unchanged by the shift and equals n/lam1 against the
    shifted reference eigenvalue (Fraction arithmetic, checked).
    """
    lam1, lam2 = _reference_pair(ps)
    n, m = candidate.n, candidate.m
    c = (lam1 * m - lam2 * n) / Fraction(n - m)
    g1, g2 = lam1 + c, lam2 + c
    tau = Fraction(n, 1) / g1 if n != 0 else Fraction(m, 1) / g2
    assert tau == candidate.tau_cycles, "gauge changed the period"
    return GaugedCandidate(candidate=candidate, shift=c, lam1=g1, lam2=g2)


def constrain_unknown(gauged: GaugedCandidate,
                      trial_lambda: Rationalish) -> bool:
    """Whether a further eigenvalue is compatible with the candidate.

    ``trial_lambda`` is given in the original (unshifted) frame; after
    applying the candidate's gauge it must wind an integer number of
    times over the period: (trial + shift) * tau_cycles in Z.
    """
    trial = _as_fraction(trial_lambda)
    return ((trial + gauged.shift) * gauged.tau_cycles).denominator == 1


def gamma_candidates(candidate: CyclicityCandidate, mean_H,
                     ps: PartialSpectrum) -> List[float]:
    """Geometric-phase values compatible with the candidate, in [0, 2*pi).

    The candidate's own branch gives gamma = 2*pi*tau_cycles*(<H> + shift)
    mod 2*pi and heads the list.  With exact (Fraction) mean energy the
    gauged ratio <H'>/lam1' = a/b is rational and the run over admissible
    branch integers yields exactly b distinct values, appended first-seen
    for n = 1..b.  Float mean energies cannot certify rationality, so
    only the single candidate value is returned.  The candidate is gauged
    against the reference pair of ``ps``.
    """
    gauged = gauge_to_zero_phi(candidate, ps)
    exact = not isinstance(mean_H, float)
    tau = gauged.tau_cycles
    if exact:
        own_turns = (Fraction(mean_H) + gauged.shift) * tau
        own = _canonical_gamma(TWO_PI * float(own_turns % 1))
        values = dict.fromkeys([own])  # first-seen order, hashed dedupe
        base, n0 = ((gauged.lam1, gauged.n) if gauged.n != 0
                    else (gauged.lam2, gauged.m))
        ratio = (Fraction(mean_H) + gauged.shift) / base
        for j in range(1, ratio.denominator + 1):
            turns = (j * ratio) % 1
            values.setdefault(_canonical_gamma(TWO_PI * float(turns)))
        return list(values)
    mean = float(mean_H) + float(gauged.shift)
    return [_canonical_gamma(TWO_PI * float(tau) * mean)]
