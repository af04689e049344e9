"""Period, total phase, and geometric phase from an exact spectrum.

The closed-form route: with the occupied eigenvalues known exactly, the
period is 2*pi times the LCM of the inverse level spacings, the total
phase follows from any one occupied level via its branch integer, and the
geometric phase is the total phase plus the winding of the mean energy.

Exact eigenvalues are integer numerators p_k over one common
denominator D (``Spectrum.denominator``), in units of ``Spectrum.unit``
with hbar = 1: the unit is the only scale, and times are in 1/unit.
With G = gcd(p_k - p_0) over the occupied levels the period is
L = D/G cycles, and the branch data are integers: n_0 = floor(p_0/G +
1/2), phi/(2*pi) = n_0 - p_0/G and n_k = n_0 + (p_k - p_0)/G.  A float
eigenvalue marks a failed rationalization and is tolerated only when at
most two distinct values are occupied (two-level evolutions are cyclic
regardless of commensurability); with three or more distinct values a
float renders the state non-cyclic.  The state is built over the
spectrum by position, one amplitude per level, and keeps the weights
|a|^2 and the distinct occupied values that a verdict and a report read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

__all__ = [
    "Cyclicality",
    "NonCyclicError",
    "PhaseReport",
    "Spectrum",
    "StateDecomposition",
    "check_cyclicality",
    "geometric_phase",
    "squared_moduli",
]

TWO_PI = 2.0 * math.pi

Value = Union[int, float]
NORMALIZATION_TOL = 1e-12


def squared_moduli(amplitudes) -> Tuple[float, ...]:
    """|a|^2 per amplitude; (inf,) where an |a| or its square overflows,
    which Python floats report by raising OverflowError."""
    try:
        return tuple(abs(a) ** 2 for a in amplitudes)
    except OverflowError:
        return (math.inf,)


class NonCyclicError(ValueError):
    """The state does not undergo cyclic motion under this spectrum."""


class Spectrum:
    """Every level, occupied or not: (label, value) pairs in `unit`.

    An int value is a numerator over ``denominator``; a float value is
    the level itself and marks a failed rationalization.  The
    constructor also takes Fraction and "p/q" values and puts every
    rational over their least common denominator; pairs of a str label
    and an int value are kept as given.  Labels are unique; values may
    repeat (degeneracy allowed).
    """

    __slots__ = ("levels", "unit", "denominator")

    def __init__(self, levels, unit: float = 1.0, denominator: int = 1):
        lv = tuple(levels)
        plain = all(type(lab) is str and type(val) is int for lab, val in lv)
        if not plain:
            lv = tuple((str(lab), val) for lab, val in lv)
        if not lv:
            raise ValueError("spectrum needs at least one level")
        if len({lab for lab, _ in lv}) != len(lv):
            raise ValueError("spectrum labels must be unique")
        if not 0 < unit < math.inf:
            raise ValueError("unit must be positive and finite")
        if not (isinstance(denominator, int) and denominator > 0):
            raise ValueError("denominator must be a positive integer")
        if not (plain or all(isinstance(val, (int, float)) for _, val in lv)):
            exact = [val if isinstance(val, float) else
                     Fraction(val, denominator) if isinstance(val, int) else
                     Fraction(val) for _, val in lv]
            denominator = math.lcm(*(f.denominator for f in exact
                                     if not isinstance(f, float)))
            lv = [(lab, f if isinstance(f, float) else
                   f.numerator * (denominator // f.denominator))
                  for (lab, _), f in zip(lv, exact)]
        self.levels = tuple(lv)
        self.unit, self.denominator = float(unit), denominator


class StateDecomposition:
    """The state over ``spectrum``: one complex amplitude per level.

    Zero amplitudes are dropped, so ``entries``, the (label, amplitude)
    pairs in level order, are the occupied set; total weight must be 1
    within 1e-12.  ``weights`` holds |a|^2 per entry and ``total`` their
    correctly rounded sum.  ``keys`` holds the key of each entry's value
    and ``distinct`` maps the keys to the distinct occupied values, in
    first-seen order: a float equal to a rational level p/D gets the key
    p, so it merges onto the value seen first, and other floats are their
    own keys.  The engine takes the state only with ``spectrum``.
    """

    __slots__ = ("spectrum", "entries", "weights", "total", "keys",
                 "distinct")

    def __init__(self, spectrum: Spectrum, amplitudes):
        if len(amplitudes) != len(spectrum.levels):
            raise ValueError("one amplitude per level required")
        occupied = [(level, a) for level, a in zip(spectrum.levels, amplitudes)
                    if a != 0]
        if not occupied:
            raise ValueError("state needs at least one entry")
        ent = tuple((lab, complex(a)) for (lab, _), a in occupied)
        weights = squared_moduli(a for _, a in ent)
        total = math.fsum(weights)
        if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: sum |a|^2 = {total!r}")
        values = [val for (_, val), _ in occupied]
        keys = [val if isinstance(val, int) or not math.isfinite(val)
                else Fraction(val) * spectrum.denominator for val in values]
        distinct: Dict[object, Value] = {}
        for key, val in zip(keys, values):
            distinct.setdefault(key, val)
        self.spectrum, self.entries = spectrum, ent
        self.weights, self.total = weights, total
        self.keys, self.distinct = keys, distinct


class Cyclicality:
    """Verdict of `check_cyclicality`."""

    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: Union[str, None] = None):
        self.kind = kind  # "cyclic" | "stationary" | "non-cyclic"
        self.reason = reason


class PhaseReport:
    """(tau, phi, gamma) with branch integers and method provenance.

    ``tau_cycles`` is tau in units of 2*pi/unit (exact when the
    spectrum is exact, float on the two-level irrational path, None when
    only the oracle produced the report).  ``phi_over_pi`` is the
    canonical total phase in pi units, exact when available.  ``phi`` is
    in (-pi, pi], ``gamma`` in [0, 2*pi).
    """

    __slots__ = ("method", "unit", "tau_cycles", "tau", "phi_over_pi", "phi",
                 "gamma", "mean_energy", "branch_integers", "stationary",
                 "fidelity")

    def __init__(self, method: str, unit: float,
                 tau_cycles: Union[Fraction, float, None], tau: float,
                 phi_over_pi: Union[Fraction, None], phi: float,
                 gamma: float, mean_energy: float,
                 branch_integers: Mapping[str, int],
                 stationary: bool = False,
                 fidelity: Union[float, None] = None):
        self.method, self.unit = method, unit
        self.tau_cycles, self.tau = tau_cycles, tau
        self.phi_over_pi, self.phi, self.gamma = phi_over_pi, phi, gamma
        self.mean_energy, self.branch_integers = mean_energy, branch_integers
        self.stationary, self.fidelity = stationary, fidelity


def _distinct(spectrum: Spectrum, state: StateDecomposition
              ) -> List[Value]:
    """The distinct occupied values of a state built over ``spectrum``."""
    if state.spectrum is not spectrum:
        raise ValueError("the state was built over another spectrum")
    return list(state.distinct.values())


def _verdict(distinct: Sequence[Value]) -> Cyclicality:
    if len(distinct) == 1:
        return Cyclicality("stationary")
    if len(distinct) == 2 or all(isinstance(v, int) for v in distinct):
        return Cyclicality("cyclic")
    return Cyclicality("non-cyclic", "incommensurable")


def check_cyclicality(spectrum: Spectrum, state: StateDecomposition) -> Cyclicality:
    """Classify the motion: stationary, cyclic, or non-cyclic(reason).

    All occupied eigenvalues equal -> stationary (the loop is a point).
    Exactly two distinct occupied values -> always cyclic, even when the
    values are irrational.  Three or more distinct values are cyclic only
    when all are exact rationals; any float (= failed rationalization)
    makes the spacings incommensurable.
    """
    return _verdict(_distinct(spectrum, state))


def _branch_data(distinct: Sequence[Value], denominator: int):
    """(L, phi_over_2pi, [n per value]) for the distinct occupied values
    of a stationary or cyclic state, ints being numerators over
    ``denominator``.

    One value lambda (stationary) has L = 1/|lambda| (the
    single-exponential special case; infinite for lambda = 0), phi = 0
    exactly and branch integer sign(lambda).  Exact values p_k have
    L = D/G with G = gcd(p_k - p_0): L*(p_k - p_i)/D is an integer for
    all pairs exactly when L*G/D is, as G is an integer combination of
    the spacings and divides each.  The canonical branch puts
    phi/(2*pi) = n - lambda*L in (-1/2, 1/2], the same value for every
    occupied lambda.  Two values with a float among them are taken in
    floats, L = |1/(lambda_1 - lambda_0)|, and their branch integers are
    rounded.
    """
    ref = distinct[0]
    if len(distinct) == 1:
        # phi = 0 exactly: for a float lambda, 1 - lambda*(1/lambda) need
        # not round to 0
        lam = Fraction(ref, denominator) if isinstance(ref, int) else ref
        return (1 / abs(lam) if lam else math.inf), Fraction(0), \
            [(ref > 0) - (ref < 0)]
    if all(isinstance(v, int) for v in distinct):
        g = math.gcd(*(p - ref for p in distinct[1:]))
        n_ref = (2 * ref + g) // (2 * g)  # floor(ref/g + 1/2)
        return (Fraction(denominator, g), Fraction(n_ref * g - ref, g),
                [n_ref + (p - ref) // g for p in distinct])
    v0, v1 = (v / denominator if isinstance(v, int) else v for v in distinct)
    L = abs(1 / (v1 - v0))
    g_ref = v0 * L
    phi_over_2pi = math.floor(g_ref + 0.5) - g_ref  # in (-1/2, 1/2]
    return L, phi_over_2pi, [round(v * L + phi_over_2pi) for v in (v0, v1)]


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


def geometric_phase(spectrum: Spectrum, state: StateDecomposition
                    ) -> PhaseReport:
    """Full closed-form report: gamma = phi + tau<H>, reduced to [0, 2*pi).

    The reduction happens before leaving rational-weighted arithmetic:
    gamma/(2*pi) = sum_k w_k n_k + (phi/2*pi)(sum_k w_k - 1) modulo 1,
    which keeps float magnitudes at the size of the branch integers
    instead of tau*<H>.  Stationary states report gamma = 0 with the
    `stationary` flag set.  A non-cyclic state raises NonCyclicError.
    """
    values = _distinct(spectrum, state)
    verdict = _verdict(values)
    if verdict.kind == "non-cyclic":
        raise NonCyclicError(f"non-cyclic state: {verdict.reason}")
    d = spectrum.denominator
    L, phi2pi, ns = _branch_data(values, d)
    branch = dict(zip(state.distinct, ns))
    keys = state.keys

    # Weights are renormalized so the 1e-12 normalization slack cannot be
    # amplified by large branch integers; summing w*(n - n_min) keeps the
    # float magnitudes at the spread of the branch integers, and the
    # integer n_min drops out of the mod-1 reduction.
    n_min = min(ns)
    acc = math.fsum((w / state.total) * (branch[key] - n_min)
                    for key, w in zip(keys, state.weights))
    gamma = _canonical_gamma(TWO_PI * (acc - math.floor(acc)))
    # p/d is the correctly rounded level, as is each float merged onto it
    level = {key: v / d if isinstance(v, int) else v
             for key, v in state.distinct.items()}
    mean = math.fsum(w * level[key] for key, w in zip(keys, state.weights))

    return PhaseReport(
        method="full-spectrum", unit=spectrum.unit,
        tau_cycles=L, tau=TWO_PI * float(L) / spectrum.unit,
        phi_over_pi=(2 * phi2pi if all(isinstance(v, int) for v in values)
                     else None),
        phi=TWO_PI * float(phi2pi),
        gamma=gamma,
        mean_energy=spectrum.unit * mean,
        branch_integers={lab: branch[key]
                         for (lab, _), key in zip(state.entries, keys)},
        stationary=verdict.kind == "stationary")
