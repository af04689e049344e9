"""Closed-form period/phase engine against hand-computed spectra.

The hypothesis block cross-checks the engine against an in-test exact
recomputation from integer-amplitude states, whose weights are exact
rationals, so the branch identity and both single-eigenvalue routes can
be verified without tolerances.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aaphase.engine import (
    NonCyclicError,
    Spectrum,
    StateDecomposition,
    check_cyclicality,
    geometric_phase,
)
from aaphase.models import free_field
from conftest import circ, level
from paper import (
    gamma_from_single_eigenvalue_phi,
    gamma_from_single_eigenvalue_tau,
    gauge_shift,
    lcm_rationals,
)

TWO_PI = 2.0 * math.pi
EQUAL = [math.sqrt(0.5), math.sqrt(0.5)]


def fields(record):
    """Every slot of a plain record, by name."""
    return {name: getattr(record, name) for name in type(record).__slots__}


def spectrum2(va, vb, unit=1.0):
    return Spectrum(levels=[("a", va), ("b", vb)], unit=unit)


def equal_state(spectrum):
    """Equal weights over every level of ``spectrum``."""
    n = len(spectrum.levels)
    return StateDecomposition(spectrum, [math.sqrt(1 / n)] * n)


class TestSpectrumValidation:
    def test_coercion(self):
        sp = Spectrum(levels=[("a", 2), ("b", "3/4"), ("c", 0.25)])
        assert level(sp, "a") == Fraction(2)
        assert level(sp, "b") == Fraction(3, 4)
        v = level(sp, "c")
        assert isinstance(v, float) and v == 0.25

    def test_labels_unique(self):
        with pytest.raises(ValueError, match="unique"):
            Spectrum(levels=[("a", 1), ("a", 2)])

    def test_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Spectrum(levels=[])

    def test_unit_positive(self):
        with pytest.raises(ValueError, match="unit"):
            Spectrum(levels=[("a", 1)], unit=0.0)
        with pytest.raises(ValueError, match="finite"):
            Spectrum(levels=[("a", 1)], unit=math.inf)

    def test_rationals_share_one_denominator(self):
        sp = Spectrum(levels=[("a", "1/2"), ("b", Fraction(-2, 3)),
                              ("c", 0.25), ("d", 5)])
        assert sp.denominator == 6
        assert sp.levels == (("a", 3), ("b", -4), ("c", 0.25), ("d", 30))
        assert all(type(v) in (int, float) for _, v in sp.levels)
        # ints given with a denominator are numerators over it
        sp = Spectrum(levels=[("a", 3), ("b", 5)], denominator=4)
        assert sp.levels == (("a", 3), ("b", 5)) and sp.denominator == 4
        sp = Spectrum(levels=[("a", 3), ("b", Fraction(1, 6))], denominator=4)
        assert sp.denominator == 12
        assert (level(sp, "a"), level(sp, "b")) == (Fraction(3, 4),
                                                    Fraction(1, 6))

    def test_denominator_positive_integer(self):
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError, match="denominator"):
                Spectrum(levels=[("a", 1)], denominator=bad)


class TestStateValidation:
    def test_normalization_enforced(self):
        sp = spectrum2(2, 3)
        with pytest.raises(ValueError, match="not normalized"):
            StateDecomposition(sp, [1.0, 0.5])
        with pytest.raises(ValueError, match="not normalized"):
            StateDecomposition(sp, [1.0, math.nan])

    def test_zero_amplitude_rejected(self):
        # the state drops zeros, so the occupied set is its entry list; a
        # model given its occupied levels refuses a zero among them
        sp = Spectrum(levels=[("a", 2), ("b", 3), ("c", 5)])
        st_ = StateDecomposition(sp, [0.6, 0.0, 0.8])
        assert [lab for lab, _ in st_.entries] == ["a", "c"]
        with pytest.raises(ValueError, match="at least one"):
            StateDecomposition(sp, [0, 0j, 0.0])
        with pytest.raises(ValueError, match="zero-amplitude"):
            free_field(1.0, [0, 1], [1.0, 0.0])

    def test_duplicate_labels_rejected(self):
        # the state's labels are its spectrum's, which must be unique
        with pytest.raises(ValueError, match="unique"):
            StateDecomposition(Spectrum(levels=[("a", 2), ("a", 3)]),
                               [0.6, 0.8])

    def test_one_amplitude_per_level(self):
        for amps in ([1.0], [0.6, 0.8, 0.0]):
            with pytest.raises(ValueError, match="one amplitude per level"):
                StateDecomposition(spectrum2(2, 3), amps)

    def test_entries_are_complex(self):
        st_ = StateDecomposition(spectrum2(2, 3), [0.6, 0.8j])
        assert st_.entries == (("a", 0.6 + 0j), ("b", 0.8j))
        assert all(type(a) is complex for _, a in st_.entries)

    def test_state_keeps_its_weights(self):
        state = StateDecomposition(spectrum2(2, 3), [0.6, 0.8j])
        assert state.weights == (abs(0.6) ** 2, abs(0.8j) ** 2)
        assert state.total == math.fsum(state.weights)

    def test_state_keeps_its_distinct_values(self):
        # the float 0.5 merges onto the rational 1/2 seen first, the
        # numerator 1 over the denominator 2; the unoccupied 1.0 is ignored
        sp = Spectrum(levels=[("a", "1/2"), ("b", 0.5), ("c", 1.0),
                              ("d", math.sqrt(2))])
        state = StateDecomposition(sp, [0.6, 0.48, 0.0, 0.64])
        assert [lab for lab, _ in state.entries] == ["a", "b", "d"]
        root = Fraction(math.sqrt(2)) * 2
        assert state.keys == [1, 1, root]
        assert state.distinct == {1: 1, root: math.sqrt(2)}
        assert type(state.distinct[1]) is int

    def test_state_refuses_another_spectrum(self):
        # an equal spectrum is another one: the state's amplitudes are
        # positions in the spectrum it was built over
        state = StateDecomposition(spectrum2(2, 3), [0.6, 0.8])
        for other in (spectrum2(2, 3), spectrum2(3, 2)):
            for use in (check_cyclicality, geometric_phase):
                with pytest.raises(ValueError, match="another spectrum"):
                    use(other, state)


class TestCyclicality:
    def test_stationary_single_level(self):
        sp = Spectrum(levels=[("g", Fraction(5, 3))])
        st_ = StateDecomposition(sp, [1.0])
        assert check_cyclicality(sp, st_).kind == "stationary"

    def test_stationary_degenerate_levels(self):
        sp = Spectrum(levels=[("g", "1/2"), ("h", "1/2")])
        st_ = StateDecomposition(sp, EQUAL)
        assert check_cyclicality(sp, st_).kind == "stationary"

    def test_two_irrational_levels_cyclic(self):
        sp = spectrum2(0.0, math.sqrt(2))
        st_ = StateDecomposition(sp, EQUAL)
        assert check_cyclicality(sp, st_).kind == "cyclic"

    def test_three_levels_with_float_non_cyclic(self):
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", math.sqrt(2))])
        st_ = StateDecomposition(sp, [0.6, 0.6, math.sqrt(0.28)])
        verdict = check_cyclicality(sp, st_)
        assert verdict.kind == "non-cyclic"
        assert verdict.reason == "incommensurable"
        with pytest.raises(NonCyclicError, match="incommensurable"):
            geometric_phase(sp, st_)

    def test_unoccupied_floats_ignored(self):
        # the float level exists but carries no amplitude
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", math.sqrt(2))])
        st_ = StateDecomposition(sp, [*EQUAL, 0])
        assert check_cyclicality(sp, st_).kind == "cyclic"

    @pytest.mark.parametrize("values, verdict", [
        ([0.5, Fraction(1, 2)], "stationary"),
        ([Fraction(1, 2), 0.5], "stationary"),
        ([0.5, Fraction(1, 2), Fraction(1)], "cyclic"),
        ([0.5, Fraction(1, 2), Fraction(1), Fraction(3, 2)],
         "non-cyclic(incommensurable)"),
        # the first-seen representative of equal values decides exactness
        ([Fraction(1, 2), 0.5, Fraction(1), Fraction(3, 2)], "cyclic"),
        ([-0.0, Fraction(0), Fraction(1)], "cyclic"),
    ])
    def test_equal_float_and_fraction_values_merge(self, values, verdict):
        labels = [f"L{i}" for i in range(len(values))]
        sp = Spectrum(levels=list(zip(labels, values)))
        got = check_cyclicality(sp, equal_state(sp))
        assert (f"{got.kind}({got.reason})" if got.reason
                else got.kind) == verdict


class TestTwoLevelExact:
    # diag(2, 3) equal weights: L = 1, phi = 0, <H> = 5/2, gamma = pi
    def setup_method(self):
        self.sp = spectrum2(2, 3)
        self.st = StateDecomposition(self.sp, EQUAL)

    def test_period(self):
        assert geometric_phase(self.sp, self.st).tau_cycles == 1

    def test_total_phase(self):
        rep = geometric_phase(self.sp, self.st)
        assert rep.phi_over_pi == 0
        assert rep.branch_integers == {"a": 2, "b": 3}

    def test_report(self):
        rep = geometric_phase(self.sp, self.st)
        assert rep.tau_cycles == 1
        assert rep.tau == pytest.approx(TWO_PI, abs=0)
        assert rep.phi == 0.0 and rep.phi_over_pi == 0
        assert circ(rep.gamma, math.pi) < 1e-12
        assert rep.mean_energy == pytest.approx(2.5, abs=1e-14)
        assert rep.method == "full-spectrum"
        assert not rep.stationary

    def test_single_eigenvalue_routes_need_branch_matching(self):
        rep = geometric_phase(self.sp, self.st)
        mh = Fraction(5, 2)
        # canonical phi fed raw would give gamma = 0; the matched branch
        # for lambda = 2 is phi/pi = 0 - 2*2 = -4
        matched = rep.phi_over_pi - 2 * rep.branch_integers["a"]
        assert matched == -4
        g = gamma_from_single_eigenvalue_phi(Fraction(2), mh, phi_over_pi=matched)
        assert circ(g, math.pi) < 1e-12
        matched_b = rep.phi_over_pi - 2 * rep.branch_integers["b"]
        g = gamma_from_single_eigenvalue_phi(Fraction(3), mh, phi_over_pi=matched_b)
        assert circ(g, math.pi) < 1e-12

    def test_tau_route_needs_no_matching(self):
        for lam in (Fraction(2), Fraction(3)):
            g = gamma_from_single_eigenvalue_tau(lam, Fraction(5, 2), tau_cycles=1)
            assert circ(g, math.pi) < 1e-12
        # float levels and mean energy take the float reduction
        g = gamma_from_single_eigenvalue_tau(2.0, 2.5, tau_cycles=1)
        assert circ(g, math.pi) < 1e-12


class TestSpinHalfSpectrum:
    # eigenvalues +1/-1: tau = pi, phi = pi, gamma = 2*pi*cos^2(theta/2)
    def fixture(self, theta):
        sp = spectrum2(1, -1)
        st_ = StateDecomposition(
            sp, [math.cos(theta / 2), math.sin(theta / 2)])
        return sp, st_

    def test_canonical_branch(self):
        sp, st_ = self.fixture(math.pi / 2)
        rep = geometric_phase(sp, st_)
        assert rep.tau_cycles == Fraction(1, 2)
        assert rep.phi_over_pi == 1
        assert rep.branch_integers == {"a": 1, "b": 0}

    @pytest.mark.parametrize("theta", [0.3, 1.1, math.pi / 2, 2.0, 3.0])
    def test_solid_angle_formula(self, theta):
        sp, st_ = self.fixture(theta)
        rep = geometric_phase(sp, st_)
        assert circ(rep.gamma, TWO_PI * math.cos(theta / 2) ** 2) < 1e-12

    def test_energy_shift_moves_phi_not_gamma(self):
        # same weights on eigenvalues {2, 0}: phi collapses to 0 while
        # gamma is untouched
        theta = 1.1
        _, st_ = self.fixture(theta)
        shifted = spectrum2(2, 0)
        amps = [a for _, a in st_.entries]
        rep = geometric_phase(shifted, StateDecomposition(shifted, amps))
        assert rep.phi_over_pi == 0
        assert rep.branch_integers == {"a": 1, "b": 0}
        assert circ(rep.gamma, TWO_PI * math.cos(theta / 2) ** 2) < 1e-12


class TestThreeLevelExact:
    def test_spacing_lcm(self):
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", "3/2")])
        st_ = StateDecomposition(sp, [0.7, 0.7, math.sqrt(0.02)])
        rep = geometric_phase(sp, st_)
        # inverse spacings {1, 2/3, 2} -> L = 2
        assert rep.tau_cycles == 2
        assert rep.phi_over_pi == 0
        assert rep.branch_integers == {"a": 0, "b": 2, "c": 3}


class TestStationary:
    def test_nonzero_eigenvalue(self):
        # float levels too: 1 - 49.0*(1/49.0) is not 0 in floats
        for lam, n in ((Fraction(5, 3), 1), (49.0, 1), (2.5, 1),
                       (Fraction(-5, 3), -1)):
            sp = Spectrum(levels=[("g", lam)])
            st_ = StateDecomposition(sp, [1.0])
            rep = geometric_phase(sp, st_)
            assert rep.stationary
            assert rep.tau_cycles == 1 / abs(lam)
            assert rep.gamma == 0.0 and rep.phi == 0.0
            assert rep.phi_over_pi == (0 if isinstance(lam, Fraction)
                                       else None)
            assert rep.branch_integers == {"g": n}

    def test_zero_eigenvalue_has_no_period_but_reports_gamma(self):
        # the command line turns the infinite period into a non-cyclic exit
        sp = Spectrum(levels=[("g", 0)])
        st_ = StateDecomposition(sp, [1.0])
        rep = geometric_phase(sp, st_)
        assert rep.stationary
        assert rep.gamma == 0.0
        assert math.isinf(rep.tau) and math.isinf(rep.tau_cycles)
        assert rep.branch_integers == {"g": 0}


class TestTwoLevelIrrational:
    def test_sqrt2_gap(self):
        sp = spectrum2(0.0, math.sqrt(2))
        st_ = StateDecomposition(sp, EQUAL)
        rep = geometric_phase(sp, st_)
        assert rep.tau_cycles == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert rep.phi_over_pi is None
        assert rep.phi == 0.0
        assert circ(rep.gamma, math.pi) < 1e-12
        assert rep.branch_integers == {"a": 0, "b": 1}


class TestUnits:
    def test_unit_scales_tau_and_energy_not_gamma(self):
        r1, r3 = (geometric_phase(sp, StateDecomposition(sp, EQUAL))
                  for sp in (spectrum2(2, 3, unit=1.0),
                             spectrum2(2, 3, unit=3.0)))
        assert r3.tau == pytest.approx(r1.tau / 3, rel=1e-15)
        assert r3.mean_energy == pytest.approx(3 * r1.mean_energy, rel=1e-15)
        assert r3.gamma == r1.gamma
        assert r3.tau_cycles == r1.tau_cycles

    def test_mean_energy_rational(self):
        # weights 1/4 and 3/4: <H> is the exact rational, to rounding
        sp = spectrum2("1/3", "1/5", unit=3.0)
        st_ = StateDecomposition(sp, [0.5, math.sqrt(0.75)])
        exact = 3 * (Fraction(1, 3) / 4 + Fraction(3, 20))
        assert geometric_phase(sp, st_).mean_energy == pytest.approx(
            float(exact), rel=1e-14)


class TestSingleRouteValidation:
    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="zero eigenvalue"):
            gamma_from_single_eigenvalue_phi(0, 1, phi_over_pi=Fraction(1))

    def test_nonpositive_tau_rejected(self):
        for tau_cycles in (Fraction(-2), Fraction(0)):
            with pytest.raises(ValueError, match="positive"):
                gamma_from_single_eigenvalue_tau(1, 0, tau_cycles=tau_cycles)


class TestGaugeShift:
    def test_exact_shift_stays_exact(self):
        sp = spectrum2(2, 3)
        shifted, st_ = gauge_shift(sp, StateDecomposition(sp, [0.6, 0.8j]),
                                   Fraction(-1, 2))
        assert shifted.levels == (("a", 3), ("b", 5))
        assert shifted.denominator == 2 and shifted.unit == 1.0
        assert st_.spectrum is shifted
        assert st_.entries == (("a", 0.6), ("b", 0.8j))

    def test_float_shift_floats_everything(self):
        sp = spectrum2(2, 3)
        shifted, _ = gauge_shift(sp, StateDecomposition(sp, EQUAL), 0.5)
        assert shifted.levels == (("a", 2.5), ("b", 3.5))
        assert all(type(v) is float for _, v in shifted.levels)

    def test_float_shift_preserves_gamma(self):
        sp = spectrum2(2, 3)
        st_ = StateDecomposition(sp, EQUAL)
        g0 = geometric_phase(sp, st_).gamma
        g1 = geometric_phase(*gauge_shift(sp, st_, 0.5)).gamma
        assert circ(g0, g1) < 1e-12


# hypothesis strategies: exact spectra with integer-complex amplitudes so
# the occupation weights are exact rationals

values_st = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                         max_denominator=4)


@st.composite
def exact_fixtures(draw):
    n = draw(st.integers(2, 4))
    values = draw(st.lists(values_st, min_size=n, max_size=n, unique=True))
    re_im = draw(st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
            lambda t: t != (0, 0)),
        min_size=n, max_size=n))
    norm_sq = sum(a * a + b * b for a, b in re_im)
    scale = 1.0 / math.sqrt(norm_sq)
    labels = [f"L{i}" for i in range(n)]
    spectrum = Spectrum(levels=list(zip(labels, values)))
    state = StateDecomposition(
        spectrum, [complex(a, b) * scale for a, b in re_im])
    weights = {lab: Fraction(a * a + b * b, norm_sq)
               for lab, (a, b) in zip(labels, re_im)}
    return spectrum, state, weights


@settings(deadline=None)
@given(exact_fixtures())
def test_branch_identity_is_exact(fix):
    # phi/(2*pi) = n_lambda - lambda*L for every occupied lambda, exactly
    spectrum, state, _ = fix
    rep = geometric_phase(spectrum, state)
    assert -1 < rep.phi_over_pi <= 1
    for lab, n in rep.branch_integers.items():
        assert rep.phi_over_pi == 2 * (n - level(spectrum, lab) * rep.tau_cycles)


@settings(deadline=None)
@given(exact_fixtures())
def test_gamma_against_exact_recomputation(fix):
    spectrum, state, weights = fix
    rep = geometric_phase(spectrum, state)
    assert 0.0 <= rep.gamma < TWO_PI
    assert rep.tau_cycles > 0
    # gamma/(2*pi) = sum_k w_k n_k mod 1 with exact weights
    acc = sum(w * rep.branch_integers[lab] for lab, w in weights.items()) % 1
    gamma_exact = TWO_PI * float(acc)
    assert circ(rep.gamma, gamma_exact) < 1e-6

    mh = sum((w * level(spectrum, lab) for lab, w in weights.items()),
             Fraction(0))
    g_tau = gamma_from_single_eigenvalue_tau(
        level(spectrum, state.entries[0][0]), mh, tau_cycles=rep.tau_cycles)
    assert circ(g_tau, gamma_exact) < 1e-9
    for lab, _ in state.entries:
        lam = level(spectrum, lab)
        if lam == 0:
            continue
        matched = rep.phi_over_pi - 2 * rep.branch_integers[lab]
        g_phi = gamma_from_single_eigenvalue_phi(lam, mh, phi_over_pi=matched)
        assert circ(g_phi, gamma_exact) < 1e-9


@settings(deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                             max_denominator=60),
                min_size=2, max_size=8, unique=True))
def test_reference_spacing_lcm_equals_all_pairs_lcm(values):
    labels = [f"L{i}" for i in range(len(values))]
    spectrum = Spectrum(levels=list(zip(labels, values)))
    state = equal_state(spectrum)
    pairs = [a - b for i, a in enumerate(values) for b in values[i + 1:]]
    assert geometric_phase(spectrum, state).tau_cycles == \
        lcm_rationals([1 / s for s in pairs])


def fraction_branch_reference(values):
    """(L, phi/pi, [n per value]) in Fraction arithmetic: L is the LCM of
    the inverse spacings from the first level, phi/(2*pi) = n_0 - v_0*L
    with n_0 = floor(v_0*L + 1/2), and n_k = v_k*L + phi/(2*pi)."""
    ref = values[0]
    L = lcm_rationals(1 / (v - ref) for v in values[1:])
    n_ref = math.floor(ref * L + Fraction(1, 2))
    phi_over_2pi = n_ref - ref * L
    ns = [v * L + phi_over_2pi for v in values]
    assert all(n.denominator == 1 for n in ns)
    return L, 2 * phi_over_2pi, [int(n) for n in ns]


@st.composite
def exact_spectra(draw):
    """3-8 distinct rationals with denominators <= 1000, zero and negative
    values included.  Every other draw builds the levels on a grid of
    step s around v_0 = (k + 1/2)*g*s, g the gcd of the grid offsets, so
    that p_0/G = v_0*L = k + 1/2 is a tie of the canonical branch."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        return draw(st.lists(
            st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                         max_denominator=1000),
            min_size=n, max_size=n, unique=True))
    step = draw(st.fractions(min_value=Fraction(1, 500), max_value=20,
                             max_denominator=500))
    offsets = [0] + draw(st.lists(st.integers(-50, 50).filter(bool),
                                  min_size=n - 1, max_size=n - 1, unique=True))
    ref = (draw(st.integers(-20, 20)) + Fraction(1, 2)) \
        * math.gcd(*offsets) * step
    return [ref + o * step for o in offsets]


@settings(deadline=None)
@given(exact_spectra())
def test_integer_branch_data_matches_fraction_reference(values):
    labels = [f"L{i}" for i in range(len(values))]
    spectrum = Spectrum(levels=list(zip(labels, values)))
    rep = geometric_phase(spectrum, equal_state(spectrum))
    L, phi_over_pi, ns = fraction_branch_reference(values)
    assert isinstance(rep.tau_cycles, Fraction) and rep.tau_cycles == L
    assert isinstance(rep.phi_over_pi, Fraction)
    assert rep.phi_over_pi == phi_over_pi
    assert rep.branch_integers == dict(zip(labels, ns))


@settings(deadline=None)
@given(exact_fixtures(),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                    max_denominator=4))
def test_gauge_invariance(fix, c):
    spectrum, state, _ = fix
    r0 = geometric_phase(spectrum, state)
    r1 = geometric_phase(*gauge_shift(spectrum, state, c))
    assert r1.gamma == r0.gamma
    assert r1.tau_cycles == r0.tau_cycles
    assert r1.mean_energy == pytest.approx(r0.mean_energy + float(c),
                                           abs=1e-12)


def two_level_float_reference(distinct):
    """The separate float routine that two irrational levels used to take;
    the engine must reproduce it bit for bit."""
    v0, v1 = float(distinct[0]), float(distinct[1])
    L = 1.0 / abs(v1 - v0)
    g0 = v0 * L
    n0 = math.floor(g0 + 0.5)
    phi_over_2pi = n0 - g0
    branch = [round(float(v) * L + phi_over_2pi) for v in distinct]
    return L, phi_over_2pi, branch


level_st = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_subnormal=False),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                 max_denominator=1000))


@settings(deadline=None, max_examples=300)
@given(level_st, level_st)
# a float beside a rational stored as a numerator over D > 1
@example(Fraction(1, 2), math.sqrt(2))
@example(math.sqrt(2), Fraction(-7, 3))
def test_two_level_branch_data_matches_float_formula(v0, v1):
    assume(isinstance(v0, float) or isinstance(v1, float))
    assume(v0 != v1 and math.isfinite(1.0 / abs(float(v1) - float(v0))))
    sp = spectrum2(v0, v1)
    rep = geometric_phase(sp, StateDecomposition(sp, EQUAL))
    want_L, want_phi2pi, (n0, n1) = two_level_float_reference([v0, v1])
    assert isinstance(rep.tau_cycles, float)
    assert rep.tau_cycles.hex() == want_L.hex()
    assert rep.tau.hex() == (TWO_PI * want_L).hex()
    assert rep.phi.hex() == (TWO_PI * want_phi2pi).hex()
    assert rep.phi_over_pi is None
    assert rep.branch_integers == {"a": n0, "b": n1}
    assert all(type(n) is int for n in rep.branch_integers.values())
