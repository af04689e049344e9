"""Exact rational arithmetic: parsing, LCM, rationalization, and the
common-denominator form of exact levels."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aaphase.rational import (
    IncommensurableError,
    format_rational,
    over_one_denominator,
    parse_rational,
    rationalize,
)
from paper import lcm_rationals

fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=50)


class TestParseFormat:
    @pytest.mark.parametrize("text,expect", [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("7", Fraction(7)),
        ("0", Fraction(0)),
        ("  15/2 ", Fraction(15, 2)),
        ("+2/6", Fraction(1, 3)),
    ])
    def test_parse(self, text, expect):
        assert parse_rational(text) == expect

    @pytest.mark.parametrize("bad", [
        "3/-4", "0.75", "1.4142135623730951", "1e3", "3 / 4", "", "a/b",
        "3/0",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-6, 8)) == "-3/4"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(0)) == "0"

    @given(fractions_st)
    def test_round_trip(self, f):
        assert parse_rational(format_rational(f)) == f


class TestLcm:
    def test_singleton_is_itself(self):
        assert lcm_rationals(["1/2"]) == Fraction(1, 2)

    @pytest.mark.parametrize("n_max", [1, 3, 7, 12])
    def test_unit_fraction_family(self, n_max):
        # the LCM of {1/1, ..., 1/N} is 1 for every N
        assert lcm_rationals([Fraction(1, n) for n in range(1, n_max + 1)]) == 1

    def test_mixed_sets(self):
        assert lcm_rationals(["1/2", "1/3"]) == 1
        assert lcm_rationals(["3/4", "5/6"]) == Fraction(15, 2)

    def test_negatives_by_absolute_value(self):
        assert lcm_rationals(["-3/4", "5/6"]) == Fraction(15, 2)

    def test_empty_set_error(self):
        with pytest.raises(ValueError, match="empty spacing set"):
            lcm_rationals([])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            lcm_rationals([Fraction(1, 2), 0])

    @given(st.lists(fractions_st.filter(lambda f: f != 0),
                    min_size=1, max_size=6))
    def test_divisibility_property(self, values):
        lcm = lcm_rationals(values)
        assert lcm > 0
        for x in values:
            ratio = lcm / abs(x)
            assert ratio.denominator == 1 and ratio >= 1

    @given(st.lists(st.fractions(min_value=Fraction(-12),
                                 max_value=Fraction(12),
                                 max_denominator=12).filter(lambda f: f != 0),
                    min_size=1, max_size=4))
    def test_minimality_property(self, values):
        # any common multiple strictly smaller would make lcm/p one as
        # well for some prime p, so deleting primes one at a time is a
        # complete minimality proof
        lcm = lcm_rationals(values)
        scale = math.lcm(*(abs(x).denominator for x in values))
        lcm_int = lcm * scale
        assert lcm_int.denominator == 1
        lcm_int = lcm_int.numerator
        rest = lcm_int
        p = 2
        primes = set()
        while p * p <= rest:
            while rest % p == 0:
                primes.add(p)
                rest //= p
            p += 1
        if rest > 1:
            primes.add(rest)
        for p in primes:
            smaller = Fraction(lcm_int // p, scale)
            assert any((smaller / abs(x)).denominator != 1 for x in values)


class TestRationalize:
    def test_exact_dyadic(self):
        assert rationalize(0.5, 100, 1e-9) == Fraction(1, 2)

    def test_recovers_float_thirds(self):
        assert rationalize(2.0 / 3.0, 100, 1e-9) == Fraction(2, 3)

    def test_exact_input_passthrough(self):
        assert rationalize(Fraction(3, 7), 7, 0) == Fraction(3, 7)

    def test_sqrt2_has_no_close_convergent(self):
        # continued fraction of sqrt(2) is [1; 2, 2, 2, ...]; walk its
        # convergents up to denominator 100 and confirm none is within
        # 1e-9, independently of the implementation under test
        sqrt2 = Fraction(math.sqrt(2))  # exact binary value of the float
        p0, q0, p1, q1 = 1, 1, 3, 2
        best = abs(sqrt2 - Fraction(p0, q0))
        while q1 <= 100:
            best = min(best, abs(sqrt2 - Fraction(p1, q1)))
            p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        assert best > Fraction(1, 10 ** 9)
        with pytest.raises(IncommensurableError, match="incommensurable"):
            rationalize(math.sqrt(2), 100, 1e-9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="max_denominator"):
            rationalize(0.5, 0, 1e-9)
        with pytest.raises(ValueError, match="tolerance"):
            rationalize(0.5, 10, -1e-9)

    @given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                        max_denominator=400))
    def test_float_round_trip(self, f):
        # doubles carry ~16 digits; any p/q with q <= 400 survives the
        # float round trip at tolerance 1e-9
        assert rationalize(float(f), 400, 1e-9) == f



class TestOverOneDenominator:
    def test_mixed_values(self):
        # rationals become int numerators over the lcm; floats stay
        got = over_one_denominator(Fraction(1, 1024), 0.0009765625,
                                   Fraction(3, 7), 2)
        assert got == (7, 0.0009765625, 3072, 14336, 7168)
        assert [type(v) for v in got] == [int, float, int, int, int]

    def test_no_rational_gives_denominator_one(self):
        assert over_one_denominator() == (1,)
        assert over_one_denominator(0.5, -2.25) == (0.5, -2.25, 1)

    @given(st.lists(fractions_st, min_size=1, max_size=6))
    def test_numerators_over_lcm_round_trip(self, values):
        *numerators, d = over_one_denominator(*values)
        assert d == math.lcm(*(v.denominator for v in values))
        assert [Fraction(p, d) for p in numerators] == values
