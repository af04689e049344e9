"""Period, total phase, and geometric phase from an exact spectrum.

The closed-form route: with the occupied eigenvalues known exactly, the
period is 2*pi times the LCM of the inverse level spacings, the total
phase follows from any one occupied level via its branch integer, and the
geometric phase is the total phase plus the winding of the mean energy.

Eigenvalues are `fractions.Fraction` in units of ``Spectrum.unit``, with
hbar = 1: the unit is the only scale, and times are in 1/unit.  A
float eigenvalue marks a failed rationalization and is tolerated only
when at most two distinct values are occupied (two-level evolutions are
cyclic regardless of commensurability); with three or more distinct
values a float renders the state non-cyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, NamedTuple, Sequence, Tuple, Union

from .rational import lcm_rationals

__all__ = [
    "Cyclicality",
    "NonCyclicError",
    "PhaseReport",
    "Spectrum",
    "StateDecomposition",
    "check_cyclicality",
    "gamma_from_single_eigenvalue_phi",
    "gamma_from_single_eigenvalue_tau",
    "gauge_shift",
    "geometric_phase",
]

TWO_PI = 2.0 * math.pi

Value = Union[Fraction, float]
NORMALIZATION_TOL = 1e-12


class NonCyclicError(ValueError):
    """The state does not undergo cyclic motion under this spectrum."""


def _coerce_value(v) -> Value:
    """Fractions (and ints/strings) stay exact; bare floats stay floats."""
    return v if isinstance(v, float) else Fraction(v)


@dataclass(frozen=True)
class Spectrum:
    """Occupied-or-not eigenvalue table: (label, value) pairs in `unit`.

    Labels are unique; values may repeat (degeneracy allowed).
    """

    levels: Tuple[Tuple[str, Value], ...]
    unit: float = 1.0

    def __init__(self, levels, unit: float = 1.0):
        lv = tuple((str(lab), _coerce_value(val)) for lab, val in levels)
        if not lv:
            raise ValueError("spectrum needs at least one level")
        labels = [lab for lab, _ in lv]
        if len(set(labels)) != len(labels):
            raise ValueError("spectrum labels must be unique")
        if not 0 < unit < math.inf:
            raise ValueError("unit must be positive and finite")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "unit", float(unit))

    def value(self, label: str) -> Value:
        for lab, val in self.levels:
            if lab == label:
                return val
        raise KeyError(label)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(lab for lab, _ in self.levels)


@dataclass(frozen=True)
class StateDecomposition:
    """Complex amplitudes of the state over spectrum labels.

    Zero-amplitude entries are rejected so the entry list IS the occupied
    set; total weight must be 1 within 1e-12.
    """

    entries: Tuple[Tuple[str, complex], ...]

    def __init__(self, entries):
        ent = tuple((str(lab), complex(a)) for lab, a in entries)
        if not ent:
            raise ValueError("state needs at least one entry")
        labels = [lab for lab, _ in ent]
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        if any(a == 0 for _, a in ent):
            raise ValueError("zero-amplitude entries must be absent")
        total = math.fsum(abs(a) ** 2 for _, a in ent)
        if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: sum |a|^2 = {total!r}")
        object.__setattr__(self, "entries", ent)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(lab for lab, _ in self.entries)

    def weights(self) -> dict[str, float]:
        return {lab: abs(a) ** 2 for lab, a in self.entries}


class _Occupation(NamedTuple):
    """One pass over the occupied levels of a (spectrum, state) pair."""

    spectrum: Spectrum
    state: StateDecomposition
    levels: List[Tuple[str, Value, float]]   # (label, value, weight)
    distinct: List[Value]                    # first-seen order
    exact: bool                              # every distinct value a Fraction


@dataclass(frozen=True)
class Cyclicality:
    """Verdict of `check_cyclicality`.

    ``occupation`` is the pass the verdict was read from; handing the
    verdict to `geometric_phase` lets it reuse that pass.
    """

    kind: str  # "cyclic" | "stationary" | "non-cyclic"
    reason: Union[str, None] = None
    occupation: Union[_Occupation, None] = field(
        default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return self.kind if self.reason is None else f"{self.kind}({self.reason})"


@dataclass(frozen=True)
class PhaseReport:
    """(tau, phi, gamma) with branch integers and method provenance.

    ``tau_cycles`` is tau in units of 2*pi/unit (exact when the
    spectrum is exact, float on the two-level irrational path, None when
    only the oracle produced the report).  ``phi_over_pi`` is the
    canonical total phase in pi units, exact when available.  ``phi`` is
    in (-pi, pi], ``gamma`` in [0, 2*pi).
    """

    method: str
    unit: float
    tau_cycles: Union[Fraction, float, None]
    tau: float
    phi_over_pi: Union[Fraction, None]
    phi: float
    gamma: float
    mean_energy: float
    branch_integers: Mapping[str, int] = field(default_factory=dict)
    stationary: bool = False
    fidelity: Union[float, None] = None


def _occupy(spectrum: Spectrum, state: StateDecomposition) -> _Occupation:
    """Occupied (label, value, weight) triples and their distinct values.

    Errors on labels missing from the spectrum.  Equal values merge by
    hash (``Fraction`` and ``float`` hash consistently), keeping the
    first one seen.
    """
    table = dict(spectrum.levels)
    levels = []
    for lab, amp in state.entries:
        if lab not in table:
            raise ValueError(f"state/spectrum mismatch: unknown label {lab!r}")
        levels.append((lab, table[lab], abs(amp) ** 2))
    distinct = list(dict.fromkeys(v for _, v, _ in levels))
    exact = all(isinstance(v, Fraction) for v in distinct)
    return _Occupation(spectrum, state, levels, distinct, exact)


def check_cyclicality(spectrum: Spectrum, state: StateDecomposition) -> Cyclicality:
    """Classify the motion: stationary, cyclic, or non-cyclic(reason).

    All occupied eigenvalues equal -> stationary (the loop is a point).
    Exactly two distinct occupied values -> always cyclic, even when the
    values are irrational.  Three or more distinct values are cyclic only
    when all are exact rationals; any float (= failed rationalization)
    makes the spacings incommensurable.
    """
    occ = _occupy(spectrum, state)
    if len(occ.distinct) == 1:
        return Cyclicality("stationary", occupation=occ)
    if len(occ.distinct) == 2 or occ.exact:
        return Cyclicality("cyclic", occupation=occ)
    return Cyclicality("non-cyclic", "incommensurable", occupation=occ)


def _branch_data(distinct: Sequence[Value]):
    """(L, phi_over_2pi, {value: n}) for the distinct occupied values of a
    stationary or cyclic state.

    One value lambda (stationary) has L = 1/|lambda| (the
    single-exponential special case; infinite for lambda = 0), phi = 0
    exactly and branch integer sign(lambda).  Otherwise L is the LCM of
    the inverse spacings from the first level; every pairwise spacing is
    an integer combination of these, so L is also the LCM over all
    pairs.  For two levels L = |1/(lambda_1 - lambda_0)| whatever the
    number type, which also covers the irrational two-level case in
    floats.  The canonical branch puts phi/(2*pi) = n - lambda*L in
    (-1/2, 1/2], the same value for every occupied lambda (their
    differences lambda_k*L - lambda_i*L are integers by construction of
    L); in exact arithmetic this is asserted, in floats the branch
    integers are rounded.
    """
    ref = distinct[0]
    if len(distinct) == 1:
        # returned before the LCM arithmetic, where 1 - lambda*(1/lambda)
        # need not round to 0 for a float lambda
        L = 1 / abs(ref) if ref else math.inf
        return L, Fraction(0), {ref: (ref > 0) - (ref < 0)}
    if len(distinct) == 2:
        L = abs(1 / (distinct[1] - ref))
    else:
        L = lcm_rationals(1 / (v - ref) for v in distinct[1:])
    g_ref = ref * L
    n_ref = math.floor(g_ref + Fraction(1, 2))
    phi_over_2pi = n_ref - g_ref  # in (-1/2, 1/2]
    branch = {}
    for v in distinct:
        n_v = v * L + phi_over_2pi
        branch[v] = round(n_v)
        if isinstance(n_v, Fraction) and n_v != branch[v]:
            raise AssertionError(
                "internal consistency: branch integer is not an integer "
                f"for eigenvalue {v} (got {n_v})")
    return L, phi_over_2pi, branch


def _canonical_gamma(total: float) -> float:
    """Reduce a phase to [0, 2*pi)."""
    g = math.fmod(total, TWO_PI)
    if g < 0:
        g += TWO_PI
    # Roundoff can leave g a few ulp below 2*pi when the true value is 0
    # (and the negative-input shift can land exactly on 2*pi); fold the
    # sliver back.  1e-14 rad is below every tolerance in use.
    if g >= TWO_PI - 1e-14:
        g = 0.0
    return g


def geometric_phase(spectrum: Spectrum, state: StateDecomposition, *,
                    cyclicality: Union[Cyclicality, None] = None
                    ) -> PhaseReport:
    """Full closed-form report: gamma = phi + tau<H>, reduced to [0, 2*pi).

    The reduction happens before leaving rational-weighted arithmetic:
    gamma/(2*pi) = sum_k w_k n_k + (phi/2*pi)(sum_k w_k - 1) modulo 1,
    which keeps float magnitudes at the size of the branch integers
    instead of tau*<H>.  Stationary states report gamma = 0 with the
    `stationary` flag set.  A ``cyclicality`` verdict that
    `check_cyclicality` returned for this same (spectrum, state) pair is
    reused instead of classifying the state again.  A non-cyclic state
    raises NonCyclicError.
    """
    occ = cyclicality.occupation if cyclicality is not None else None
    if occ is None or occ.spectrum is not spectrum or occ.state is not state:
        cyclicality = check_cyclicality(spectrum, state)
        occ = cyclicality.occupation
    if cyclicality.kind == "non-cyclic":
        raise NonCyclicError(f"non-cyclic state: {cyclicality.reason}")
    L, phi2pi, branch = _branch_data(occ.distinct)

    total_weight = math.fsum(w for _, _, w in occ.levels)
    # Weights are renormalized so the 1e-12 normalization slack cannot be
    # amplified by large branch integers; summing w*(n - n_min) keeps the
    # float magnitudes at the spread of the branch integers, and the
    # integer n_min drops out of the mod-1 reduction.
    n_min = min(branch.values())
    acc = math.fsum((w / total_weight) * (branch[val] - n_min)
                    for _, val, w in occ.levels)
    gamma = _canonical_gamma(TWO_PI * (acc - math.floor(acc)))

    return PhaseReport(
        method="full-spectrum", unit=spectrum.unit,
        tau_cycles=L, tau=TWO_PI * float(L) / spectrum.unit,
        phi_over_pi=(2 * phi2pi) if occ.exact else None,
        phi=TWO_PI * float(phi2pi),
        gamma=gamma,
        mean_energy=spectrum.unit * math.fsum(w * float(v)
                                              for _, v, w in occ.levels),
        branch_integers={lab: branch[val] for lab, val, _ in occ.levels},
        stationary=cyclicality.kind == "stationary")


def gauge_shift(spectrum: Spectrum, c: Union[Fraction, int, float]) -> Spectrum:
    """Shift every eigenvalue by c (same unit); labels preserved.

    Adding a multiple of the identity to H moves the spectrum's origin
    and the total phase but not the geometric phase.
    """
    shift = c if isinstance(c, float) else Fraction(c)
    # a Fraction plus a float is the float sum of the two as floats
    return Spectrum([(lab, val + shift) for lab, val in spectrum.levels],
                    unit=spectrum.unit)


def gamma_from_single_eigenvalue_phi(lam: Union[Fraction, float],
                                     mean_H: Union[Fraction, float],
                                     phi_over_pi: Fraction) -> float:
    """gamma from one nonzero eigenvalue and an externally known total phase.

    gamma = phi * (1 - <H>/lambda) mod 2*pi, valid on the branch where
    lambda*tau = -phi exactly; feed the branch-matched phase
    phi_over_pi - 2*n_lambda (n_lambda the level's branch integer), not
    an arbitrary representative.  lambda and <H> share one energy unit;
    the phase is exact, in pi units.  With exact lam and mean_H the
    mod-2*pi reduction happens in rational arithmetic.
    """
    if lam == 0:
        raise ValueError("zero eigenvalue carries no period information: "
                         "phi is already 0 mod 2*pi; use a nonzero eigenvalue")
    a = Fraction(phi_over_pi)
    if isinstance(lam, Fraction) and isinstance(mean_H, Fraction):
        return _canonical_gamma(math.pi * float((a * (1 - mean_H / lam)) % 2))
    # a mod 2 first: keeps the float product small when the branch
    # integer inside a is large.
    k, b = divmod(a, 2)
    u = 1.0 - float(mean_H) / float(lam)
    total = 2.0 * math.fmod(int(k) * u, 1.0) + float(b) * u
    return _canonical_gamma(math.pi * math.fmod(total, 2.0))


def gamma_from_single_eigenvalue_tau(lam: Union[Fraction, float],
                                     mean_H: Union[Fraction, float],
                                     tau_cycles: Fraction) -> float:
    """gamma from one eigenvalue and an externally known period.

    gamma = tau(<H> - lambda) mod 2*pi.  lambda and <H> share one
    energy unit; the period is exact, in 2*pi/unit units.  With exact
    lam and mean_H the reduction happens in rational arithmetic.
    """
    tc = Fraction(tau_cycles)
    if tc <= 0:
        raise ValueError("tau must be positive")
    if isinstance(lam, Fraction) and isinstance(mean_H, Fraction):
        return _canonical_gamma(TWO_PI * float(((mean_H - lam) * tc) % 1))
    return _canonical_gamma(TWO_PI * math.fmod(
        (float(mean_H) - float(lam)) * float(tc), 1.0))
