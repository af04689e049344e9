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
gauged frame.  The known eigenvalues are a `Spectrum` whose first two
levels are the reference pair L1, L2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple, Union

from .engine import TWO_PI, Spectrum, _canonical_gamma

__all__ = [
    "CyclicityCandidate",
    "GaugedCandidate",
    "constrain_unknown",
    "enumerate_candidates",
    "gamma_candidates",
    "gamma_count",
    "gauge_to_zero_phi",
]

Rationalish = Union[Fraction, int, str]


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float eigenvalue; rationalize() it explicitly first")
    return Fraction(value)


class CyclicityCandidate:
    """One admissible (phi, tau) pair, exact.

    phi_over_pi is the total phase in pi units, tau_cycles the period in
    2*pi*hbar/unit units; both follow from the branch integers (n, m) by
    the defining relations, which hold exactly by construction.
    """

    __slots__ = ("tau_cycles", "n", "m", "phi_over_pi")

    def __init__(self, tau_cycles: Fraction, n: int, m: int,
                 phi_over_pi: Fraction):
        if tau_cycles <= 0:
            raise ValueError("tau must be positive")
        self.tau_cycles, self.n, self.m = tau_cycles, n, m
        self.phi_over_pi = phi_over_pi

    def __eq__(self, other):
        return isinstance(other, CyclicityCandidate) and (
            (self.tau_cycles, self.n, self.m, self.phi_over_pi)
            == (other.tau_cycles, other.n, other.m, other.phi_over_pi))


class GaugedCandidate:
    """Candidate with the spectral shift that sets phi = 0.

    ``shift`` is added to every eigenvalue (H -> H + shift*unit); the
    shifted reference eigenvalues lam1, lam2 then satisfy lam1*m = lam2*n
    and the period is tau_cycles = n/lam1 (m/lam2 when n = 0).
    """

    __slots__ = ("candidate", "shift", "lam1", "lam2")

    def __init__(self, candidate: CyclicityCandidate, shift: Fraction,
                 lam1: Fraction, lam2: Fraction):
        self.candidate, self.shift = candidate, shift
        self.lam1, self.lam2 = lam1, lam2

    def __eq__(self, other):
        return isinstance(other, GaugedCandidate) and (
            (self.candidate, self.shift, self.lam1, self.lam2)
            == (other.candidate, other.shift, other.lam1, other.lam2))

    @property
    def tau_cycles(self) -> Fraction:
        return self.candidate.tau_cycles

    @property
    def n(self) -> int:
        return self.candidate.n

    @property
    def m(self) -> int:
        return self.candidate.m


def _reference_pair(ps: Spectrum) -> Tuple[int, int, int]:
    """(a, b, d): the reference eigenvalues lam1 = a/d and lam2 = b/d,
    the first two levels of ``ps`` over its denominator d."""
    if len(ps.levels) < 2:
        raise ValueError("two known eigenvalues required")
    (_, a), (_, b) = ps.levels[:2]
    if isinstance(a, float) or isinstance(b, float):
        raise TypeError("float eigenvalue; rationalize() it explicitly first")
    if a == b:
        raise ValueError("known eigenvalues must be distinct")
    return a, b, ps.denominator


def enumerate_candidates(ps: Spectrum,
                         n_range: int = 16) -> List[CyclicityCandidate]:
    """All (phi, tau) candidates with branch integers bounded by n_range.

    Pairs (n, m) with |n|, |m| <= n_range, n != m and tau > 0, one per
    (phi mod 2*pi, tau) class, sorted by tau ascending.  The
    representative is the member of the class with phi/2pi in
    (-1/2, 1/2], mirroring the branch convention of the full-spectrum
    route; enlarging n_range only ever appends classes.

    With lam1 = a/d and lam2 = b/d over the spectrum's denominator and
    s = a - b, tau = (n - m)*d/s, and adding 1 to both n and m adds
    1 to phi/2pi = (a*m - b*n)/s.  A class is therefore one value of
    n - m, of the sign of s and at most 2*n_range in size, and its
    representative has m = floor(b*(n - m)/s + 1/2).
    """
    a, b, d = _reference_pair(ps)
    if n_range < 1:
        raise ValueError("n_range must be >= 1")
    s = a - b
    out = []
    for size in range(1, 2 * n_range + 1):
        delta = size if s > 0 else -size            # n - m
        m = (2 * b * delta + s) // (2 * s)
        out.append(CyclicityCandidate(
            tau_cycles=Fraction(delta * d, s), n=m + delta, m=m,
            phi_over_pi=Fraction(2 * (m * s - b * delta), s)))
    return out


def _gauge(candidate: CyclicityCandidate,
           ps: Spectrum) -> Tuple[int, int, int]:
    """(c, e, s): the shift that sets phi = 0 is c/e, with e = d*(n - m),
    and the shifted reference eigenvalues are n*s/e and m*s/e, so the
    period is e/s from either one (checked against the candidate's)."""
    a, b, d = _reference_pair(ps)
    n, m, s = candidate.n, candidate.m, a - b
    e = d * (n - m)
    tau = candidate.tau_cycles
    assert tau.numerator * s == tau.denominator * e, \
        "gauge changed the period"
    return a * m - b * n, e, s


def gauge_to_zero_phi(candidate: CyclicityCandidate,
                      ps: Spectrum) -> GaugedCandidate:
    """Spectral shift removing the total phase of the candidate.

    The period is unchanged by the shift and equals n/lam1 against the
    shifted reference eigenvalue (checked, in integers).
    """
    c, e, s = _gauge(candidate, ps)
    return GaugedCandidate(candidate=candidate, shift=Fraction(c, e),
                           lam1=Fraction(candidate.n * s, e),
                           lam2=Fraction(candidate.m * s, e))


def constrain_unknown(gauged: GaugedCandidate,
                      trial_lambda: Rationalish) -> bool:
    """Whether a further eigenvalue is compatible with the candidate.

    ``trial_lambda`` is given in the original (unshifted) frame; after
    applying the candidate's gauge it must wind an integer number of
    times over the period: (trial + shift) * tau_cycles in Z.
    """
    trial = _as_fraction(trial_lambda)
    return ((trial + gauged.shift) * gauged.tau_cycles).denominator == 1


def _gauged_mean(candidate: CyclicityCandidate, mean: Fraction,
                 ps: Spectrum) -> Tuple[int, int, int]:
    """(top, v, s): <H'> = top/(v*e) in the gauge of `_gauge`, so
    <H'>*tau = top/(v*s) and <H'>/lam1' = top/(v*n*s) (lam2' and m
    when n = 0)."""
    c, e, s = _gauge(candidate, ps)
    v = mean.denominator
    return mean.numerator * e + v * c, v, s


def gamma_count(candidate: CyclicityCandidate, mean_H,
                ps: Spectrum) -> int:
    """How many values `gamma_candidates` lists for the candidate, read
    off the gauged ratio p/q without building the list: q (the
    candidate's own value is one of them), or 1 for a float mean."""
    if isinstance(mean_H, float):
        return 1
    top, v, s = _gauged_mean(candidate, Fraction(mean_H), ps)
    bottom = abs(v * (candidate.n or candidate.m) * s)
    return bottom // math.gcd(top, bottom)


def gamma_candidates(candidate: CyclicityCandidate, mean_H,
                     ps: Spectrum) -> List[float]:
    """Geometric-phase values compatible with the candidate, in [0, 2*pi).

    The candidate's own branch gives gamma = 2*pi*tau_cycles*(<H> + shift)
    mod 2*pi and heads the list.  With exact (Fraction) mean energy the
    gauged ratio <H'>/lam1' = p/q is rational and the run over admissible
    branch integers yields exactly q distinct values (j*p mod q)/q,
    appended first-seen for j = 1..q.  Float mean energies cannot certify
    rationality, so only the single candidate value is returned.  The
    candidate is gauged against the reference pair of ``ps``.  Turns are
    integer ratios, and int / int is correctly rounded.
    """
    if isinstance(mean_H, float):
        c, e, _ = _gauge(candidate, ps)
        mean = float(mean_H) + float(Fraction(c, e))
        return [_canonical_gamma(
            TWO_PI * float(candidate.tau_cycles) * mean)]
    top, v, s = _gauged_mean(candidate, Fraction(mean_H), ps)
    own = _canonical_gamma(TWO_PI * float(Fraction(top, v * s) % 1))
    ratio = Fraction(top, v * (candidate.n or candidate.m) * s)
    p, q = ratio.numerator, ratio.denominator
    # dict keys: first-seen order, hashed dedupe; a listed value is at
    # most 2*pi*(1 - 1/q), clear of the sliver `_canonical_gamma` folds
    return list(dict.fromkeys(
        [own, *(TWO_PI * (j * p % q / q) for j in range(1, q + 1))]))
