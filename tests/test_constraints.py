"""Partial-spectrum candidate lattice, gauging, and admissibility tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aaphase.constraints import (
    CyclicityCandidate,
    constrain_unknown,
    enumerate_candidates,
    gamma_candidates,
    gamma_count,
    gauge_to_zero_phi,
)
from aaphase.engine import Spectrum, StateDecomposition, geometric_phase

from conftest import circ, exact_spectrum, reference_candidates, \
    reference_gammas, reference_gauge

TWO_PI = 2.0 * math.pi


def two_known(a, b):
    return exact_spectrum([("l1", a), ("l2", b)])


class TestPartialSpectrum:
    def test_known_levels_share_one_denominator(self):
        # the solver reads the first two levels as numerators over the
        # spectrum's denominator; a third known level rescales all three
        ps = exact_spectrum([("a", Fraction(2)), ("b", 0)])
        assert ps.levels == (("a", 2), ("b", 0)) and ps.denominator == 1
        pair = two_known(Fraction(1, 3), Fraction(5, 7))
        three = exact_spectrum([("l1", Fraction(1, 3)), ("l2", Fraction(5, 7)),
                                ("l3", Fraction(9, 11))])
        assert (pair.denominator, three.denominator) == (21, 231)
        assert enumerate_candidates(three, 4) == enumerate_candidates(pair, 4)

    @pytest.mark.parametrize("unit", [0.0, -1.0, math.inf, math.nan])
    def test_unit_positive_and_finite(self, unit):
        with pytest.raises(ValueError, match="unit"):
            exact_spectrum([("a", 1)], unit=unit)

    def test_float_eigenvalue_rejected(self):
        for a, b in ((0.5, 1), (1, 0.5)):
            with pytest.raises(TypeError, match="rationalize"):
                enumerate_candidates(two_known(a, b))

    def test_duplicates_rejected(self):
        ps = two_known(Fraction(1, 2), Fraction(2, 4))
        with pytest.raises(ValueError, match="distinct"):
            enumerate_candidates(ps)
        cand = enumerate_candidates(two_known(2, 3))[0]
        for solve in (gauge_to_zero_phi,
                      lambda c, p: gamma_candidates(c, Fraction(1), p)):
            with pytest.raises(ValueError, match="distinct"):
                solve(cand, ps)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            exact_spectrum([])

    def test_single_value_cannot_enumerate(self):
        ps = exact_spectrum([("a", 1)])
        with pytest.raises(ValueError, match="two known"):
            enumerate_candidates(ps)


class TestCandidateObjects:
    def test_positive_tau_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            CyclicityCandidate(tau_cycles=Fraction(-1), n=1, m=0,
                               phi_over_pi=Fraction(0))


class TestEnumeration:
    def test_two_three_lattice(self):
        ps = two_known(2, 3)
        cands = enumerate_candidates(ps, n_range=5)
        assert len(cands) == 10
        first = cands[0]
        # the shortest candidate is the true full-spectrum answer
        assert first.tau_cycles == 1
        assert first.phi_over_pi == 0
        assert (first.n, first.m) == (2, 3)
        # sorted by period, all distinct (phi, tau) classes
        taus = [c.tau_cycles for c in cands]
        assert taus == sorted(taus)
        assert len({(c.phi_over_pi, c.tau_cycles) for c in cands}) == len(cands)

    def test_spin_pair(self):
        cands = enumerate_candidates(two_known(1, -1), n_range=4)
        first = cands[0]
        assert first.tau_cycles == Fraction(1, 2)
        assert first.phi_over_pi == 1
        assert (first.n, first.m) == (1, 0)

    def test_shifted_spin_pair(self):
        cands = enumerate_candidates(two_known(2, 0), n_range=4)
        first = cands[0]
        assert first.tau_cycles == Fraction(1, 2)
        assert first.phi_over_pi == 0
        assert (first.n, first.m) == (1, 0)

    def test_n_range_validation(self):
        with pytest.raises(ValueError, match="n_range"):
            enumerate_candidates(two_known(2, 3), n_range=0)

    def test_n_range_monotone(self):
        small = enumerate_candidates(two_known(2, 3), n_range=5)
        large = enumerate_candidates(two_known(2, 3), n_range=10)
        assert len(large) <= 32
        keys = {(c.phi_over_pi, c.tau_cycles) for c in large}
        assert {(c.phi_over_pi, c.tau_cycles) for c in small} <= keys


class TestGauging:
    def test_two_three_gauge_is_identity(self):
        ps = two_known(2, 3)
        cand = enumerate_candidates(ps, n_range=5)[0]
        gauged = gauge_to_zero_phi(cand, ps)
        assert gauged.shift == 0 and gauged.tau_cycles == 1
        assert (gauged.lam1, gauged.lam2) == (2, 3)
        assert (gauged.n, gauged.m) == (2, 3)

    def test_gauged_references_satisfy_integer_winding(self):
        ps = two_known(Fraction(5, 3), Fraction(-1, 4))
        for cand in enumerate_candidates(ps, n_range=3):
            gauged = gauge_to_zero_phi(cand, ps)
            assert (gauged.lam1 * gauged.tau_cycles) == gauged.n
            assert (gauged.lam2 * gauged.tau_cycles) == gauged.m

    @pytest.mark.parametrize("trial,ok", [
        (3, True),
        (Fraction(1, 2), False),
        (2, True),
        (0, True),
    ])
    def test_admissibility(self, trial, ok):
        ps = two_known(2, 3)
        gauged = gauge_to_zero_phi(enumerate_candidates(ps, n_range=5)[0], ps)
        assert constrain_unknown(gauged, trial) is ok

    def test_trial_floats_rejected(self):
        ps = two_known(2, 3)
        gauged = gauge_to_zero_phi(enumerate_candidates(ps)[0], ps)
        with pytest.raises(TypeError, match="rationalize"):
            constrain_unknown(gauged, 0.5)


class TestGammaCandidates:
    def setup_method(self):
        self.ps = two_known(2, 3)
        self.cand = enumerate_candidates(self.ps, n_range=5)[0]

    def test_exact_family_own_value_first(self):
        vals = gamma_candidates(self.cand, Fraction(5, 2), self.ps)
        expect = [math.pi, math.pi / 2, 1.5 * math.pi, 0.0]
        assert len(vals) == 4
        for got, want in zip(vals, expect):
            assert circ(got, want) < 1e-12

    def test_integer_mean_energy(self):
        vals = gamma_candidates(self.cand, Fraction(1), self.ps)
        assert len(vals) == 2
        assert vals[0] == 0.0
        assert circ(vals[1], math.pi) < 1e-12

    def test_mean_energy_on_reference_level(self):
        assert gamma_candidates(self.cand, Fraction(2), self.ps) == [0.0]

    def test_float_mean_energy_gives_single_value(self):
        vals = gamma_candidates(self.cand, 2.5, self.ps)
        assert len(vals) == 1
        assert circ(vals[0], math.pi) < 1e-12


def test_candidate_family_contains_full_spectrum_answer():
    # occupy exactly the two known levels: the engine's (tau, phi, gamma)
    # must appear in the constraint family
    sp = Spectrum(levels=[("l1", 2), ("l2", 3)])
    state = StateDecomposition(sp, [math.sqrt(0.5), math.sqrt(0.5)])
    rep = geometric_phase(sp, state)
    ps = two_known(2, 3)
    cands = enumerate_candidates(ps, n_range=5)
    match = [c for c in cands if c.tau_cycles == rep.tau_cycles
             and c.phi_over_pi == rep.phi_over_pi]
    assert len(match) == 1
    vals = gamma_candidates(match[0], Fraction(5, 2), ps)
    assert any(circ(v, rep.gamma) < 1e-12 for v in vals)


eigen_st = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                        max_denominator=6)


@settings(deadline=None, max_examples=60)
@given(st.tuples(eigen_st, eigen_st).filter(lambda t: t[0] != t[1]))
def test_defining_relations_hold_exactly(pair):
    lam1, lam2 = pair
    ps = two_known(lam1, lam2)
    cands = enumerate_candidates(ps, n_range=3)
    assert cands
    denom = lam1 - lam2
    for c in cands:
        assert c.tau_cycles == Fraction(c.n - c.m) / denom
        assert c.phi_over_pi == 2 * (lam1 * c.m - lam2 * c.n) / denom
        assert -1 < c.phi_over_pi <= 1
        assert c.tau_cycles > 0


@settings(deadline=None, max_examples=60)
@given(st.tuples(eigen_st, eigen_st).filter(lambda t: t[0] != t[1]))
def test_gauge_and_own_gamma(pair):
    lam1, lam2 = pair
    ps = two_known(lam1, lam2)
    for c in enumerate_candidates(ps, n_range=3)[:6]:
        gauged = gauge_to_zero_phi(c, ps)
        # references always admissible against their own candidate
        assert constrain_unknown(gauged, lam1)
        assert constrain_unknown(gauged, lam2)
        # mean energy sitting on a reference level winds integrally
        vals = gamma_candidates(c, lam1, ps)
        assert vals[0] == 0.0


big_fraction_st = st.builds(Fraction, st.integers(-10**6, 10**6),
                            st.integers(1, 10**6))


@settings(deadline=None, max_examples=60)
@given(st.tuples(big_fraction_st, big_fraction_st).filter(
           lambda t: t[0] != t[1]),
       st.integers(1, 12), st.integers(-10**6, 10**6), st.integers(1, 500),
       st.floats(-1e6, 1e6))
def test_integer_solver_matches_fraction_reference(pair, n_range, i, j,
                                                   float_mean):
    # enumeration, gauge and gamma values equal the Fraction formulas
    # over every (n, m), to the bit
    lam1, lam2 = pair
    ps = two_known(lam1, lam2)
    cands = enumerate_candidates(ps, n_range)
    assert cands == reference_candidates(lam1, lam2, n_range)
    for c in cands[:3] + cands[-1:]:
        gauged = reference_gauge(c, lam1, lam2)
        assert gauge_to_zero_phi(c, ps) == gauged
        # an exact <H> whose gauged ratio <H'>/lam1' is i/j yields at
        # most j + 1 values, whatever the size of the levels
        base = gauged.lam1 if gauged.n else gauged.lam2
        for mean in (base * Fraction(i, j) - gauged.shift, float_mean):
            got = gamma_candidates(c, mean, ps)
            want = reference_gammas(c, mean, lam1, lam2)
            assert [g.hex() for g in got] == [g.hex() for g in want]
            assert gamma_count(c, mean, ps) == len(got)
