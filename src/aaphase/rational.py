"""Exact arithmetic on rationals.

Everything in this module is pure and exact.  Values are
`fractions.Fraction` instances; floating point enters only through
`rationalize`, which converts a real input to an exact rational once, at
the boundary, or fails loudly.  Downstream phase arithmetic never mixes
exact and approximate numbers.  `over_one_denominator` puts exact values
into the form the engine stores: integer numerators over one denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Tuple, Union

__all__ = [
    "IncommensurableError",
    "format_rational",
    "over_one_denominator",
    "parse_rational",
    "rationalize",
]


class IncommensurableError(ValueError):
    """A real input admits no rational approximation within tolerance."""


_RATIONAL_FORM = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``p/q`` text form (``q`` omitted when 1).

    The sign sits on the numerator only.  Decimal strings are rejected:
    reading "1.41421356..." as an exact power-of-ten fraction would
    silently manufacture commensurability, so real-number inputs must go
    through ``rationalize`` instead.
    """
    s = text.strip()
    if not _RATIONAL_FORM.match(s):
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Canonical ``p/q`` text form, denominator omitted when 1.

    Round-trips bit-exactly through `parse_rational`.
    """
    return str(Fraction(x))


def rationalize(x: Union[float, int, Fraction], max_denominator: int,
                tolerance: Union[float, Fraction]) -> Fraction:
    """Best rational approximation p/q of ``x`` with q <= max_denominator.

    Uses the continued-fraction best-approximation algorithm
    (``Fraction.limit_denominator``); succeeds only if |x - p/q| <=
    tolerance, measured exactly.  Exact inputs (int, Fraction) with small
    enough denominator pass through unchanged, so
    ``rationalize(p/q, q, 0) == p/q``.

    Raises IncommensurableError("incommensurable input") when no
    approximation is close enough; the caller must then treat the
    spectrum as non-cyclic or retry with a larger ``max_denominator``.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    tol = Fraction(tolerance)
    if tol < 0:
        raise ValueError("tolerance must be >= 0")
    exact = Fraction(x)  # binary floats convert exactly
    best = exact.limit_denominator(max_denominator)
    if abs(exact - best) > tol:
        raise IncommensurableError("incommensurable input")
    return best


def over_one_denominator(*values: Union[Fraction, int, float]
                         ) -> Tuple[Union[int, float], ...]:
    """The values over their least common denominator D, then D.

    Each rational (Fraction or int) becomes its int numerator over D; a
    float, a failed rationalization, passes through unchanged.  D is 1
    when no value is rational.
    """
    d = math.lcm(*(v.denominator for v in values if not isinstance(v, float)))
    return (*(v if isinstance(v, float) else v.numerator * (d // v.denominator)
              for v in values), d)
