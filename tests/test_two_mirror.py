"""Single-movable-mirror cavity: exact block spectrum and closed forms.

The closed-form gamma has premises (0 occupies the spectrum, period
2*pi*p/omega_m); the grid below asserts the match where they hold and
pins down the exact deviation where they do not.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, expm

from aaphase.engine import geometric_phase
from aaphase.fock import coherent_amplitudes
from aaphase.models import TwoMirrorParams, two_mirror_dense, \
    two_mirror_spectrum
from aaphase.oracle import generic_gamma

from conftest import (circ, create, destroy, level, number,
                      reference_two_mirror_levels)
from paper import (
    two_mirror_g,
    two_mirror_gamma_closed_form,
    two_mirror_mean_energy,
    two_mirror_mean_photon,
    two_mirror_omega_f,
    two_mirror_p,
    two_mirror_q,
)

TWO_PI = 2.0 * math.pi
INV_SQRT2 = 1.0 / math.sqrt(2.0)

SUP = (INV_SQRT2, INV_SQRT2)   # (|0> + |1>)/sqrt(2)
ONE = (0.0, 1.0)               # |1>
VAC = (1.0,)                   # |0>


def make_params(field, beta, **kw):
    kw.setdefault("r", Fraction(2))
    kw.setdefault("k_squared", Fraction(1, 2))
    kw.setdefault("mirror_truncation", 40)
    return TwoMirrorParams(field_amplitudes=field, beta=beta, **kw)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_params(SUP, 0, k_squared=Fraction(-1, 2))
        with pytest.raises(ValueError, match="k_sign"):
            make_params(SUP, 0, k_sign=0)
        with pytest.raises(ValueError, match="omega_m"):
            make_params(SUP, 0, omega_m=-1.0)
        with pytest.raises(ValueError, match="mirror_truncation"):
            make_params(SUP, 0, mirror_truncation=0)
        with pytest.raises(ValueError, match="non-empty"):
            make_params((), 0)
        with pytest.raises(ValueError, match="not normalized"):
            make_params((0.9, 0.9), 0)
        with pytest.raises(ValueError, match="positive integer"):
            two_mirror_gamma_closed_form(make_params(SUP, 0), 0)

    def test_derived_quantities(self):
        p = make_params(SUP, 0.3, omega_m=2.0)
        assert (two_mirror_p(p), two_mirror_q(p)) == (2, 1)
        assert p.k == pytest.approx(INV_SQRT2)
        assert two_mirror_omega_f(p) == pytest.approx(4.0)
        assert two_mirror_g(p) == pytest.approx(2.0 * INV_SQRT2)
        assert two_mirror_mean_photon(p) == pytest.approx(0.5)
        neg = make_params(SUP, 0.3, k_sign=-1)
        assert neg.k == pytest.approx(-INV_SQRT2)


class TestBlockDiagonalization:
    def test_block_eigenvalues_match_exact_values(self):
        # per photon block the mirror is a displaced oscillator; the low
        # part of the truncated block spectrum must match r*n + m - k^2n^2
        params = make_params(SUP, 0.0)
        r, k2, k = float(params.r), float(params.k_squared), params.k
        nm = params.mirror_truncation
        for n in (0, 1):
            block = r * n * np.eye(nm) + number(nm) - k * n * (
                destroy(nm) + create(nm))
            w = eigh(block, eigvals_only=True)
            for m in range(10):
                assert abs(w[m] - (r * n + m - k2 * n * n)) < 1e-8

    def test_block_eigenvectors_are_displaced_fock_states(self):
        params = make_params(SUP, 0.0)
        k = params.k
        nm = 60
        n = 1
        block = (float(params.r) * n * np.eye(nm) + number(nm)
                 - k * n * (destroy(nm) + create(nm)))
        d = k * n
        D = expm(d * create(nm) - np.conj(d) * destroy(nm))
        for m in range(4):
            v = D @ np.eye(nm)[m]
            lam = float(params.r) * n + m - float(params.k_squared) * n * n
            resid = block @ v - lam * v
            assert np.max(np.abs(resid[: nm // 2])) < 1e-10

    def test_spectrum_labels_and_values(self):
        params = make_params(SUP, 0.0)
        sp, state = two_mirror_spectrum(params)
        assert level(sp, "1,3") == float(params.r) * 1 + 3 - Fraction(1, 2)
        assert level(sp, "0,2") == 2
        assert sp.unit == params.omega_m
        # beta = 0: the n = 0 block occupies only m = 0
        occupied = dict(state.entries)
        assert "0,0" in occupied and "0,1" not in occupied

    @settings(deadline=None, max_examples=60)
    @given(st.fractions(min_value=Fraction(1, 9), max_value=9,
                        max_denominator=10 ** 6),
           st.fractions(min_value=0, max_value=9, max_denominator=10 ** 6),
           st.integers(1, 5), st.integers(1, 6))
    def test_levels_match_block_formula(self, r, k_squared, photons, mirror):
        # the integer block offsets against the Fraction formula; the
        # field starts in |0>, so the state is the mirror vacuum
        params = TwoMirrorParams(
            r=r, k_squared=k_squared, mirror_truncation=mirror,
            field_amplitudes=(1,) + (0,) * (photons - 1))
        sp, _ = two_mirror_spectrum(params)
        assert all(type(v) is int for _, v in sp.levels)
        assert {lab: level(sp, lab) for lab, _ in sp.levels} == \
            reference_two_mirror_levels(r, k_squared, photons, mirror)

    def test_truncation_tail_is_an_error(self):
        with pytest.raises(ValueError, match="truncation too small"):
            two_mirror_spectrum(make_params(VAC, 2.0, mirror_truncation=8))


BETAS = (0.0, 0.3, 0.5 + 0.2j)


class TestClosedFormGrid:
    @pytest.mark.parametrize("beta", BETAS)
    def test_superposition_column_meets_premises(self, beta):
        # 0 occupies the spectrum and tau = p cycles, so the closed form
        # must match the full-spectrum route exactly
        params = make_params(SUP, beta)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == two_mirror_p(params) == 2
        assert rep.phi_over_pi == 0
        closed = two_mirror_gamma_closed_form(params, two_mirror_p(params))
        assert circ(closed, rep.gamma) < 1e-12

    def test_pure_one_photon_breaks_the_period_premise(self):
        # |1>: the occupied spectrum is {r + m - k^2}, tau is 1 cycle not
        # p = 2, and at beta = 0 the closed form misses by exactly pi
        params = make_params(ONE, 0.0)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == 1
        assert rep.phi_over_pi == 1
        closed = two_mirror_gamma_closed_form(params, two_mirror_p(params))
        assert circ(closed, rep.gamma) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("beta", BETAS[1:])
    def test_vacuum_column_deviation_is_beta_winding(self, beta):
        # |0>: only the free mirror evolves; gamma = 2*pi|beta|^2 while
        # the closed form adds one spurious mirror turn per extra cycle
        params = make_params(VAC, beta)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == 1
        assert rep.phi_over_pi == 0
        assert circ(rep.gamma, TWO_PI * abs(beta) ** 2) < 1e-10
        closed = two_mirror_gamma_closed_form(params, two_mirror_p(params))
        assert circ(closed, rep.gamma) == pytest.approx(
            circ(TWO_PI * abs(beta) ** 2, 0.0), abs=1e-10)

    def test_vacuum_at_rest_is_stationary(self):
        params = make_params(VAC, 0.0)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        assert rep.stationary and rep.gamma == 0.0
        p = two_mirror_p(params)
        assert two_mirror_gamma_closed_form(params, p) == 0.0
        h, psi0 = two_mirror_dense(params)
        orc = generic_gamma(h, psi0, t_max=4.0 * TWO_PI)
        assert orc.stationary and orc.gamma == 0.0


class TestGoldenCell:
    # frozen reference: r = 2, k^2 = 1/2, beta = 0.3, (|0>+|1>)/sqrt(2)
    def test_engine_values(self):
        params = make_params(SUP, 0.3)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == 2
        assert rep.tau == pytest.approx(12.566370614359172, abs=1e-12)
        assert rep.phi_over_pi == 0
        assert rep.gamma == pytest.approx(4.748428899576893, abs=1e-12)
        assert rep.mean_energy == pytest.approx(0.8778679656440359, abs=1e-12)

    def test_closed_form_value(self):
        params = make_params(SUP, 0.3)
        closed = two_mirror_gamma_closed_form(params, 2)
        assert closed == pytest.approx(4.748428899576893, abs=1e-12)

    def test_oracle_value(self):
        params = make_params(SUP, 0.3)
        h, psi0 = two_mirror_dense(params)
        orc = generic_gamma(h, psi0, t_max=1.3 * 2 * TWO_PI)
        assert orc.tau == pytest.approx(2 * TWO_PI, abs=1e-6)
        assert circ(orc.gamma, 4.748428899576893) < 1e-6


class TestMeanEnergy:
    @pytest.mark.parametrize("field,beta", [
        (SUP, 0.3), (ONE, 0.5 + 0.2j), (VAC, 0.3), (SUP, 0.0),
    ])
    def test_three_routes_agree(self, field, beta):
        params = make_params(field, beta)
        sp, state = two_mirror_spectrum(params)
        closed = two_mirror_mean_energy(params)
        assert abs(geometric_phase(sp, state).mean_energy - closed) < 1e-10
        h, psi0 = two_mirror_dense(params)
        dense = np.vdot(psi0, h.matrix @ psi0).real * h.unit
        assert abs(dense - closed) < 1e-10

    def test_k_sign_flips_the_coupling_term(self):
        plus = two_mirror_mean_energy(make_params(SUP, 0.3))
        minus = two_mirror_mean_energy(make_params(SUP, 0.3, k_sign=-1))
        assert minus - plus == pytest.approx(
            4.0 * INV_SQRT2 * 0.3 * 0.5, rel=1e-12)


def kron_dense(params):
    """H and psi0 in the Kronecker-sum form, built independently."""
    nf, nm = len(params.field_amplitudes), params.mirror_truncation
    n_f = number(nf)
    h = (float(params.r) * np.kron(n_f, np.eye(nm))
         + np.kron(np.eye(nf), number(nm))
         - params.k * np.kron(n_f, destroy(nm) + create(nm)))
    psi0 = np.kron(np.asarray(params.field_amplitudes, dtype=complex),
                   coherent_amplitudes(params.beta, nm))
    return h, psi0 / np.linalg.norm(psi0)


class TestDenseMatchesKroneckerForm:
    # the shared block fill must reproduce the Kronecker sum bit for bit,
    # signed zeros included, for any rational r (the params accept r <= 0)
    @pytest.mark.parametrize("r", [Fraction(2), Fraction(3, 2), Fraction(0),
                                   Fraction(-1)])
    @pytest.mark.parametrize("k_sign", [1, -1])
    @pytest.mark.parametrize("field", [SUP, VAC, ONE, (0.6, 0.0, 0.8)])
    def test_bit_identical(self, r, k_sign, field):
        params = make_params(field, 0.3 + 0.1j, r=r, k_sign=k_sign,
                             mirror_truncation=30, omega_m=2.0)
        h, psi0 = two_mirror_dense(params)
        want_h, want_psi0 = kron_dense(params)
        assert h.unit == 2.0
        assert h.matrix.dtype == want_h.dtype == np.float64
        assert np.array_equal(h.matrix.view(np.uint64),
                              want_h.view(np.uint64))
        assert psi0.dtype == want_psi0.dtype
        assert np.array_equal(psi0.view(np.uint64), want_psi0.view(np.uint64))


class TestFrequencyScaling:
    def test_gamma_is_scale_free(self):
        base = make_params(SUP, 0.3)
        fast = make_params(SUP, 0.3, omega_m=2.0)
        sp_b, st_b = two_mirror_spectrum(base)
        sp_f, st_f = two_mirror_spectrum(fast)
        rb, rf = geometric_phase(sp_b, st_b), geometric_phase(sp_f, st_f)
        assert rf.gamma == pytest.approx(rb.gamma, abs=1e-12)
        assert rf.tau == pytest.approx(rb.tau / 2.0, rel=1e-12)
        # dimensionless closed form is invariant too
        assert two_mirror_gamma_closed_form(fast, 2) == pytest.approx(
            two_mirror_gamma_closed_form(base, 2), abs=1e-12)

    def test_frequency_dividing_prefactor_is_wrong(self):
        # dividing the winding prefactor by omega_m would make gamma
        # dimensional; at omega_m = 2 that misses the true value
        params = make_params(SUP, 0.3, omega_m=2.0)
        sp, state = two_mirror_spectrum(params)
        rep = geometric_phase(sp, state)
        nbar = two_mirror_mean_photon(params)
        turns_bad = 1.0 + (two_mirror_p(params) / params.omega_m) * (
            (float(params.r) - 2.0 * params.k * params.beta.real) * nbar
            + abs(params.beta) ** 2)
        gamma_bad = TWO_PI * math.fmod(turns_bad, 1.0)
        assert circ(gamma_bad, rep.gamma) > 0.7
        assert circ(two_mirror_gamma_closed_form(params, 2), rep.gamma) < 1e-12
