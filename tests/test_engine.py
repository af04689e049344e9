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
from hypothesis import assume, given, settings, strategies as st

from aaphase.engine import (
    Cyclicality,
    NonCyclicError,
    Spectrum,
    StateDecomposition,
    check_cyclicality,
    gamma_from_single_eigenvalue_phi,
    gamma_from_single_eigenvalue_tau,
    gauge_shift,
    geometric_phase,
)
from aaphase.engine import _branch_data
from aaphase.rational import lcm_rationals
from conftest import circ

TWO_PI = 2.0 * math.pi
EQUAL = [("a", math.sqrt(0.5)), ("b", math.sqrt(0.5))]


def spectrum2(va, vb, unit=1.0):
    return Spectrum(levels=[("a", va), ("b", vb)], unit=unit)


class TestSpectrumValidation:
    def test_coercion(self):
        sp = Spectrum(levels=[("a", 2), ("b", "3/4"), ("c", 0.25)])
        assert sp.value("a") == Fraction(2)
        assert sp.value("b") == Fraction(3, 4)
        v = sp.value("c")
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

    def test_lookup(self):
        sp = spectrum2(2, 3)
        assert sp.labels == ("a", "b")
        with pytest.raises(KeyError):
            sp.value("nope")


class TestStateValidation:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateDecomposition(entries=[("a", 1.0), ("b", 0.5)])
        with pytest.raises(ValueError, match="not normalized"):
            StateDecomposition(entries=[("a", 1.0), ("b", math.nan)])

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match="zero-amplitude"):
            StateDecomposition(entries=[("a", 1.0), ("b", 0.0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            StateDecomposition(entries=[("a", 0.6), ("a", 0.8)])

    def test_weights(self):
        st_ = StateDecomposition(entries=[("a", 0.6), ("b", 0.8j)])
        w = st_.weights()
        assert math.isclose(w["a"], 0.36) and math.isclose(w["b"], 0.64)

    def test_unknown_label_errors_at_use(self):
        sp = spectrum2(2, 3)
        bad = StateDecomposition(entries=[("a", 0.6), ("zz", 0.8)])
        with pytest.raises(ValueError, match="unknown label"):
            geometric_phase(sp, bad)


class TestCyclicality:
    def test_stationary_single_level(self):
        sp = Spectrum(levels=[("g", Fraction(5, 3))])
        st_ = StateDecomposition(entries=[("g", 1.0)])
        assert check_cyclicality(sp, st_).kind == "stationary"

    def test_stationary_degenerate_levels(self):
        sp = Spectrum(levels=[("g", "1/2"), ("h", "1/2")])
        st_ = StateDecomposition(entries=[("g", math.sqrt(0.5)), ("h", math.sqrt(0.5))])
        assert check_cyclicality(sp, st_).kind == "stationary"

    def test_two_irrational_levels_cyclic(self):
        sp = spectrum2(0.0, math.sqrt(2))
        st_ = StateDecomposition(entries=EQUAL)
        assert check_cyclicality(sp, st_).kind == "cyclic"

    def test_three_levels_with_float_non_cyclic(self):
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", math.sqrt(2))])
        st_ = StateDecomposition(
            entries=[("a", 0.6), ("b", 0.6), ("c", math.sqrt(0.28))])
        verdict = check_cyclicality(sp, st_)
        assert verdict.kind == "non-cyclic"
        assert verdict.reason == "incommensurable"
        assert str(verdict) == "non-cyclic(incommensurable)"
        with pytest.raises(NonCyclicError, match="incommensurable"):
            geometric_phase(sp, st_)

    def test_unoccupied_floats_ignored(self):
        # the float level exists but carries no amplitude
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", math.sqrt(2))])
        st_ = StateDecomposition(entries=EQUAL)
        assert check_cyclicality(sp, st_).kind == "cyclic"
        assert str(Cyclicality("cyclic")) == "cyclic"

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
        st_ = StateDecomposition(
            entries=[(lab, math.sqrt(1 / len(values))) for lab in labels])
        assert str(check_cyclicality(sp, st_)) == verdict

    def test_verdict_reused_only_for_its_own_pair(self):
        sp = spectrum2(2, 3)
        st_ = StateDecomposition(entries=EQUAL)
        verdict = check_cyclicality(sp, st_)
        assert geometric_phase(sp, st_, cyclicality=verdict) == \
            geometric_phase(sp, st_)
        # a verdict for another spectrum is recomputed, not trusted
        other = spectrum2(2, 5)
        assert geometric_phase(other, st_, cyclicality=verdict) == \
            geometric_phase(other, st_)


class TestTwoLevelExact:
    # diag(2, 3) equal weights: L = 1, phi = 0, <H> = 5/2, gamma = pi
    def setup_method(self):
        self.sp = spectrum2(2, 3)
        self.st = StateDecomposition(entries=EQUAL)

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
            entries=[("a", math.cos(theta / 2)), ("b", math.sin(theta / 2))])
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
        rep = geometric_phase(shifted, st_)
        assert rep.phi_over_pi == 0
        assert rep.branch_integers == {"a": 1, "b": 0}
        assert circ(rep.gamma, TWO_PI * math.cos(theta / 2) ** 2) < 1e-12


class TestThreeLevelExact:
    def test_spacing_lcm(self):
        sp = Spectrum(levels=[("a", 0), ("b", 1), ("c", "3/2")])
        st_ = StateDecomposition(entries=[("a", 0.7), ("b", 0.7), ("c", math.sqrt(0.02))])
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
            st_ = StateDecomposition(entries=[("g", 1.0)])
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
        st_ = StateDecomposition(entries=[("g", 1.0)])
        rep = geometric_phase(sp, st_)
        assert rep.stationary
        assert rep.gamma == 0.0
        assert math.isinf(rep.tau) and math.isinf(rep.tau_cycles)
        assert rep.branch_integers == {"g": 0}


class TestTwoLevelIrrational:
    def test_sqrt2_gap(self):
        sp = spectrum2(0.0, math.sqrt(2))
        st_ = StateDecomposition(entries=EQUAL)
        rep = geometric_phase(sp, st_)
        assert rep.tau_cycles == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert rep.phi_over_pi is None
        assert rep.phi == 0.0
        assert circ(rep.gamma, math.pi) < 1e-12
        assert rep.branch_integers == {"a": 0, "b": 1}


class TestUnits:
    def test_unit_scales_tau_and_energy_not_gamma(self):
        st_ = StateDecomposition(entries=EQUAL)
        r1 = geometric_phase(spectrum2(2, 3, unit=1.0), st_)
        r3 = geometric_phase(spectrum2(2, 3, unit=3.0), st_)
        assert r3.tau == pytest.approx(r1.tau / 3, rel=1e-15)
        assert r3.mean_energy == pytest.approx(3 * r1.mean_energy, rel=1e-15)
        assert r3.gamma == r1.gamma
        assert r3.tau_cycles == r1.tau_cycles

    def test_mean_energy_rational(self):
        # weights 1/4 and 3/4: <H> is the exact rational, to rounding
        sp = spectrum2("1/3", "1/5", unit=3.0)
        st_ = StateDecomposition(entries=[("a", 0.5), ("b", math.sqrt(0.75))])
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
        sp = gauge_shift(spectrum2(2, 3), Fraction(-1, 2))
        assert sp.value("a") == Fraction(3, 2)
        assert sp.value("b") == Fraction(5, 2)
        assert sp.unit == 1.0

    def test_float_shift_floats_everything(self):
        sp = gauge_shift(spectrum2(2, 3), 0.5)
        assert isinstance(sp.value("a"), float) and sp.value("a") == 2.5

    def test_float_shift_preserves_gamma(self):
        st_ = StateDecomposition(entries=EQUAL)
        g0 = geometric_phase(spectrum2(2, 3), st_).gamma
        g1 = geometric_phase(gauge_shift(spectrum2(2, 3), 0.5), st_).gamma
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
        entries=[(lab, complex(a, b) * scale) for lab, (a, b) in zip(labels, re_im)])
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
        assert rep.phi_over_pi == 2 * (n - spectrum.value(lab) * rep.tau_cycles)


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

    mh = sum((w * spectrum.value(lab) for lab, w in weights.items()),
             Fraction(0))
    g_tau = gamma_from_single_eigenvalue_tau(
        spectrum.value(state.labels[0]), mh, tau_cycles=rep.tau_cycles)
    assert circ(g_tau, gamma_exact) < 1e-9
    for lab in state.labels:
        lam = spectrum.value(lab)
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
    state = StateDecomposition(
        entries=[(lab, math.sqrt(1 / len(values))) for lab in labels])
    pairs = [a - b for i, a in enumerate(values) for b in values[i + 1:]]
    assert geometric_phase(spectrum, state).tau_cycles == \
        lcm_rationals([1 / s for s in pairs])


@settings(deadline=None)
@given(exact_fixtures(),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                    max_denominator=4))
def test_gauge_invariance(fix, c):
    spectrum, state, _ = fix
    shifted = gauge_shift(spectrum, c)
    r0 = geometric_phase(spectrum, state)
    r1 = geometric_phase(shifted, state)
    assert r1.gamma == r0.gamma
    assert r1.tau_cycles == r0.tau_cycles
    assert r1.mean_energy == pytest.approx(r0.mean_energy + float(c),
                                           abs=1e-12)


def two_level_float_reference(distinct):
    """The separate float routine that two irrational levels used to take;
    the branch routine must reproduce it bit for bit."""
    v0, v1 = float(distinct[0]), float(distinct[1])
    L = 1.0 / abs(v1 - v0)
    g0 = v0 * L
    n0 = math.floor(g0 + 0.5)
    phi_over_2pi = n0 - g0
    branch = {}
    for v in distinct:
        branch[v] = round(float(v) * L + phi_over_2pi)
    return L, phi_over_2pi, branch


level_st = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_subnormal=False),
    st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                 max_denominator=1000))


@settings(deadline=None, max_examples=300)
@given(level_st, level_st)
def test_two_level_branch_data_matches_float_formula(v0, v1):
    assume(isinstance(v0, float) or isinstance(v1, float))
    assume(v0 != v1 and math.isfinite(1.0 / abs(float(v1) - float(v0))))
    L, phi2pi, branch = _branch_data([v0, v1])
    want_L, want_phi2pi, want_branch = two_level_float_reference([v0, v1])
    assert isinstance(L, float) and L.hex() == want_L.hex()
    assert isinstance(phi2pi, float) and phi2pi.hex() == want_phi2pi.hex()
    assert branch == want_branch
    assert all(type(n) is int for n in branch.values())
