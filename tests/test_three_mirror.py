"""Two driven modes sharing a mirror: exact family, chi law, dense route."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from aaphase.engine import geometric_phase
from aaphase.fock import coherent_amplitudes
from aaphase.models import (
    ThreeMirrorParams,
    three_mirror_dense,
    three_mirror_exact,
    three_mirror_gamma_closed_form,
    three_mirror_initial_state,
    three_mirror_scaled_mean_energy,
)
from aaphase.oracle import SpectralPropagator, generic_gamma

from conftest import (circ, create, destroy, level, number,
                      reference_three_mirror_levels)
from paper import three_mirror_chi

TWO_PI = 2.0 * math.pi


def decoupled_params(**kw):
    kw.setdefault("truncations", (15, 15, 25))
    return ThreeMirrorParams(rho_D=Fraction(2), rho_S=Fraction(3),
                             kappa_D=Fraction(0), kappa_S=Fraction(0),
                             alpha=0.7, beta=0.5, mu=0.6 + 0.2j, **kw)


def displaced_params(**kw):
    kw.setdefault("truncations", (10, 10, 26))
    return ThreeMirrorParams(rho_D=Fraction(2), rho_S=Fraction(3),
                             kappa_D=Fraction(1, 4), kappa_S=Fraction(0),
                             alpha=0.4, beta=0.4, mu=0.3, **kw)


class TestParams:
    def test_int_ratios_coerce_to_fractions(self):
        p = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=0, kappa_S=0)
        assert isinstance(p.rho_D, Fraction) and p.exact_family

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ThreeMirrorParams(rho_D=0, rho_S=1)
        with pytest.raises(ValueError, match="omega_m"):
            ThreeMirrorParams(rho_D=1, rho_S=1, omega_m=0.0)
        with pytest.raises(ValueError, match="truncations"):
            ThreeMirrorParams(rho_D=1, rho_S=1, truncations=(5, 5))
        with pytest.raises(ValueError, match="truncations"):
            ThreeMirrorParams(rho_D=1, rho_S=1, truncations=(5, 0, 5))

    def test_exact_family_boundaries(self):
        assert not ThreeMirrorParams(rho_D=2, rho_S=3,
                                     kappa_S=Fraction(1, 4)).exact_family
        assert not ThreeMirrorParams(rho_D=2.0, rho_S=3).exact_family
        assert ThreeMirrorParams(rho_D=2, rho_S=3,
                                 kappa_D=Fraction(1, 2)).exact_family

    def test_mode_inputs_coerce(self):
        p = ThreeMirrorParams(rho_D=1, rho_S=1, alpha=0.5,
                              beta=[0.6, 0.8], mu=0)
        assert p.alpha == 0.5 + 0j
        assert p.beta == (0.6 + 0j, 0.8 + 0j)
        assert not p.coherent_product

    def test_mode_vector_validation(self):
        bad_norm = ThreeMirrorParams(rho_D=1, rho_S=1, beta=[0.6, 0.7],
                                     truncations=(5, 5, 5))
        with pytest.raises(ValueError, match="not normalized"):
            three_mirror_initial_state(bad_norm)
        too_long = ThreeMirrorParams(rho_D=1, rho_S=1,
                                     beta=[1.0, 0, 0, 0, 0, 0],
                                     truncations=(5, 5, 5))
        with pytest.raises(ValueError, match="does not fit"):
            three_mirror_initial_state(too_long)


class TestExactRoute:
    def test_requires_exact_family(self):
        p = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_S=Fraction(1, 4))
        with pytest.raises(ValueError, match="exact route"):
            three_mirror_exact(p)

    def test_displaced_blocks_need_coherent_mirror(self):
        p = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=Fraction(1, 4),
                              mu=[1.0, 0.0])
        with pytest.raises(ValueError, match="coherent mirror"):
            three_mirror_exact(p)

    def test_truncation_tail_is_an_error(self):
        # each coherent mode fits its truncation, but the displaced
        # mirror blocks at high photon number spill over the top
        p = ThreeMirrorParams(rho_D=Fraction(2), rho_S=Fraction(3),
                              kappa_D=Fraction(1, 2), kappa_S=Fraction(0),
                              alpha=0.5, beta=0.4, mu=0.3,
                              truncations=(12, 12, 20))
        with pytest.raises(ValueError, match="truncation too small"):
            three_mirror_exact(p)

    def test_decoupled_spectrum_values(self):
        p = decoupled_params()
        sp, state = three_mirror_exact(p)
        assert level(sp, "1,2,3") == 2 + 6 + 3
        assert level(sp, "0,0,0") == 0

    @settings(deadline=None, max_examples=60)
    @given(st.fractions(min_value=Fraction(1, 9), max_value=9,
                        max_denominator=10 ** 6).filter(
                            lambda f: f.denominator > 1),
           st.fractions(min_value=Fraction(1, 9), max_value=9,
                        max_denominator=10 ** 6).filter(
                            lambda f: f.denominator > 1),
           st.fractions(min_value=-3, max_value=3,
                        max_denominator=10 ** 6).filter(
                            lambda f: f.denominator > 1),
           st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)))
    def test_levels_match_block_formula(self, rho_D, rho_S, kappa_D,
                                        truncations):
        # the integer block offsets against the Fraction formula; vacuum
        # inputs occupy one level, so every truncation passes the tail
        # check, and all levels are still listed
        p = ThreeMirrorParams(rho_D=rho_D, rho_S=rho_S, kappa_D=kappa_D,
                              truncations=truncations)
        sp, _ = three_mirror_exact(p)
        assert all(type(v) is int for _, v in sp.levels)
        assert {lab: level(sp, lab) for lab, _ in sp.levels} == \
            reference_three_mirror_levels(rho_D, rho_S, kappa_D, truncations)

    def test_decoupled_matches_closed_form(self):
        p = decoupled_params()
        sp, state = three_mirror_exact(p)
        rep = geometric_phase(sp, state)
        # integer spectrum: one fundamental cycle, phi = 2*pi -> 0
        assert rep.tau_cycles == 1
        assert rep.phi_over_pi == 0
        closed = three_mirror_gamma_closed_form(p, 1)
        assert circ(rep.gamma, closed) < 1e-10

    def test_decoupled_matches_oracle(self):
        p = decoupled_params(truncations=(12, 10, 14))
        sp, state = three_mirror_exact(p)
        rep = geometric_phase(sp, state)
        h = three_mirror_dense(p)
        psi0 = three_mirror_initial_state(p)
        orc = generic_gamma(h, psi0, t_max=1.3 * rep.tau)
        assert abs(orc.tau - rep.tau) < 1e-6
        assert circ(orc.gamma, rep.gamma) < 1e-6


class TestDisplacedFamily:
    def test_period_is_sixteen_cycles(self):
        p = displaced_params()
        sp, state = three_mirror_exact(p)
        rep = geometric_phase(sp, state)
        # kappa_D^2 = 1/16 sets the fundamental: tau = 16 mirror cycles
        assert rep.tau_cycles == 16
        assert rep.phi_over_pi == 0
        closed = three_mirror_gamma_closed_form(p, 16)
        assert circ(closed, rep.gamma) < 1e-8

    def test_wrong_period_multiplier_misses(self):
        p = displaced_params()
        sp, state = three_mirror_exact(p)
        rep = geometric_phase(sp, state)
        assert circ(three_mirror_gamma_closed_form(p, 1), rep.gamma) > 0.1

    def test_dense_oracle_agrees(self):
        p = displaced_params()
        sp, state = three_mirror_exact(p)
        rep = geometric_phase(sp, state)
        h = three_mirror_dense(p)
        psi0 = three_mirror_initial_state(p)
        orc = generic_gamma(h, psi0, t_max=1.2 * rep.tau)
        assert abs(orc.tau - rep.tau) < 1e-6
        assert circ(orc.gamma, rep.gamma) < 1e-8


class TestClosedFormEquivalence:
    def test_coherent_and_explicit_vectors_agree(self):
        # the quadratic coherent form and the explicit cross-sum route
        # are the same functional on coherent inputs
        coh = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=Fraction(1, 4),
                                kappa_S=Fraction(1, 8),
                                alpha=0.4, beta=0.5, mu=0.3 + 0.2j,
                                truncations=(18, 18, 30))
        a = coherent_amplitudes(0.4, 18)
        b = coherent_amplitudes(0.5, 18)
        m = coherent_amplitudes(0.3 + 0.2j, 30)
        lst = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=Fraction(1, 4),
                                kappa_S=Fraction(1, 8),
                                alpha=list(a), beta=list(b), mu=list(m),
                                truncations=(18, 18, 30))
        assert coh.coherent_product and not lst.coherent_product
        g_coh = three_mirror_gamma_closed_form(coh, 3)
        g_lst = three_mirror_gamma_closed_form(lst, 3)
        assert circ(g_coh, g_lst) < 1e-9

    def test_p_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            three_mirror_gamma_closed_form(decoupled_params(), 0)


class TestMeanEnergy:
    @pytest.mark.parametrize("params", [
        decoupled_params(),
        displaced_params(),
        ThreeMirrorParams(rho_D=Fraction(5, 2), rho_S=3,
                          kappa_D=Fraction(1, 4), kappa_S=Fraction(1, 8),
                          alpha=0.5, beta=0.4, mu=0.3 + 0.3j,
                          truncations=(12, 12, 20)),
        ThreeMirrorParams(rho_D=2, rho_S=3, kappa_S=Fraction(1, 8),
                          beta=[0.6, 0.8j], mu=[0.0, 1.0],
                          truncations=(8, 8, 16)),
    ])
    def test_matches_dense_expectation(self, params):
        h = three_mirror_dense(params)
        psi0 = three_mirror_initial_state(params)
        scaled = three_mirror_scaled_mean_energy(params)
        dense = np.vdot(psi0, h.matrix @ psi0).real * h.unit
        assert abs(scaled * params.omega_m - dense) < 1e-10


def kronecker_dense(params):
    """Reference H as a sum of full-size Kronecker products."""
    na, nb, nc = params.truncations
    num_a, num_b, num_c = number(na), number(nb), number(nc)
    eye_a, eye_b, eye_c = np.eye(na), np.eye(nb), np.eye(nc)
    x_c = destroy(nc) + create(nc)
    sq_c = destroy(nc) @ destroy(nc) + create(nc) @ create(nc)
    ks = float(params.kappa_S)
    return (float(params.rho_D) * np.kron(num_a, np.kron(eye_b, eye_c))
            + float(params.rho_S) * np.kron(eye_a, np.kron(num_b, eye_c))
            + float(params.kappa_D) * np.kron(num_a, np.kron(eye_b, x_c))
            + np.kron(eye_a, np.kron(eye_b, num_c))
            + ks * np.kron(eye_a, np.kron(num_b, num_c))
            + 0.5 * ks * np.kron(eye_a, np.kron(num_b, eye_c + sq_c)))


class TestDenseBuild:
    @pytest.mark.parametrize("params", [
        ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=1e-3, kappa_S=1e-3,
                          truncations=(4, 3, 6)),
        ThreeMirrorParams(rho_D=Fraction(1, 3), rho_S=Fraction(5, 7),
                          kappa_D=Fraction(1, 10), kappa_S=0,
                          truncations=(5, 6, 7)),
        ThreeMirrorParams(rho_D=2.3, rho_S=0.7, kappa_D=-0.37,
                          kappa_S=0.45, truncations=(3, 4, 9)),
        ThreeMirrorParams(rho_D=1, rho_S=1, truncations=(1, 1, 1)),
    ])
    def test_blockwise_build_equals_kronecker_sum(self, params):
        assert np.array_equal(three_mirror_dense(params).matrix,
                              kronecker_dense(params))

    def test_build_and_solve_never_form_the_matrix(self):
        # 144 blocks of 20: the 2880 x 2880 matrix alone would take 66 MB
        params = ThreeMirrorParams(rho_D=2, rho_S=3, kappa_D=1e-3,
                                   kappa_S=1e-3, alpha=0.7, beta=0.5,
                                   mu=0.6 + 0.2j, truncations=(12, 12, 20))
        psi0 = three_mirror_initial_state(params)
        tracemalloc.start()
        try:
            SpectralPropagator(three_mirror_dense(params), psi0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestChiLaw:
    def test_block_frequency_follows_square_root(self):
        # the (0, n_b) mirror block is a squeezed oscillator; its level
        # spacing is chi = omega_m*sqrt(1 + 2*kappa_S*n_b), visibly below
        # the naive 1 + kappa_S*n_b
        ks = Fraction(3, 10)
        nb_occ = 2
        nc = 60
        p = ThreeMirrorParams(rho_D=1, rho_S=1, kappa_S=ks,
                              truncations=(2, nb_occ + 1, nc))
        chi = three_mirror_chi(p, nb_occ)
        assert chi == pytest.approx(math.sqrt(1.0 + 2.0 * 0.3 * nb_occ),
                                    rel=1e-15)
        h = three_mirror_dense(p).matrix
        start = nb_occ * nc      # (i=0, j=nb) block offset
        block = h[start:start + nc, start:start + nc]
        w = eigh(block, eigvals_only=True)
        spacings = np.diff(w[:6])
        assert np.max(np.abs(spacings - chi)) / chi < 1e-6
        naive = 1.0 + 0.3 * nb_occ
        assert abs(spacings[0] - naive) > 0.05

    def test_chi_reduces_to_omega_m_without_coupling(self):
        p = ThreeMirrorParams(rho_D=1, rho_S=1, omega_m=2.5)
        assert three_mirror_chi(p, 5) == pytest.approx(2.5, rel=1e-15)

