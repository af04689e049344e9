"""Truncated Fock-space operators and coherent expansions."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from aaphase.fock import (
    coherent_amplitudes,
    create,
    destroy,
    displaced_frame_amplitudes,
    fock_state,
    number,
)


class TestLadderOperators:
    def test_commutator_off_the_edge(self):
        # [a, a+] = 1 except in the last row, where truncation bites
        dim = 8
        a = destroy(dim)
        comm = a @ create(dim) - create(dim) @ a
        expect = np.eye(dim)
        expect[-1, -1] = -(dim - 1)
        assert np.allclose(comm, expect, atol=1e-14)

    def test_number_is_create_destroy(self):
        dim = 7
        assert np.allclose(create(dim) @ destroy(dim), number(dim), atol=1e-14)

    def test_destroy_action(self):
        dim = 6
        a = destroy(dim)
        for n in range(1, dim):
            v = a @ fock_state(n, dim)
            assert np.allclose(v, math.sqrt(n) * fock_state(n - 1, dim))
        assert np.allclose(a @ fock_state(0, dim), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            destroy(0)
        with pytest.raises(ValueError, match="truncation"):
            fock_state(5, 5)
        with pytest.raises(ValueError, match="truncation"):
            fock_state(-1, 5)


class TestCoherent:
    def test_poisson_weights(self):
        alpha = 0.8 + 0.3j
        amps, tail = coherent_amplitudes(alpha, 25, renormalize=False)
        nbar = abs(alpha) ** 2
        for n in range(6):
            poisson = math.exp(-nbar) * nbar ** n / math.factorial(n)
            assert abs(abs(amps[n]) ** 2 - poisson) < 1e-15

    def test_tail_below_tolerance(self):
        _, tail = coherent_amplitudes(1.0, 20)
        assert 0 <= tail < 1e-10

    def test_renormalized_to_unity(self):
        amps, _ = coherent_amplitudes(0.9, 18)
        assert abs(np.vdot(amps, amps).real - 1.0) < 1e-14

    def test_undersized_truncation_is_an_error(self):
        with pytest.raises(ValueError, match="increase the truncation"):
            coherent_amplitudes(2.0, 6)
        with pytest.raises(ValueError, match=">= 1"):
            coherent_amplitudes(0.5, 0)

    @pytest.mark.parametrize("alpha", [math.inf, complex(math.nan, 0), 1e200])
    def test_non_finite_or_huge_alpha_is_an_error(self, alpha):
        # inf makes the recurrence multiply 0 by inf; the guard must fail
        # on the NaN tail that follows, and 1e200 must not overflow
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="tail mass"):
            coherent_amplitudes(alpha, 5)

    def test_eigenvector_of_destroy(self):
        alpha = 0.6 - 0.4j
        dim = 30
        amps, _ = coherent_amplitudes(alpha, dim, renormalize=False)
        resid = destroy(dim) @ amps - alpha * amps
        # exact except the top component lost to truncation
        assert np.max(np.abs(resid[:-1])) < 1e-14

    def test_mean_occupation(self):
        alpha = 1.1
        amps, _ = coherent_amplitudes(alpha, 30)
        nbar = float(np.real(np.conj(amps) @ number(30) @ amps))
        assert abs(nbar - abs(alpha) ** 2) < 1e-9


class TestDisplacedFrame:
    @pytest.mark.parametrize("alpha,d", [
        (0.7, 0.4),
        (0.5 + 0.2j, -0.3j),
        (0.9j, 0.6 + 0.1j),
        (0.0, 0.8),
    ])
    def test_matches_displacement_matrix(self, alpha, d):
        # independent check of the phase convention: apply exp(-d a+ + d* a)
        # to the raw coherent vector and compare componentwise
        dim = 40
        got = displaced_frame_amplitudes(alpha, d, dim)
        D_minus = expm(-d * create(dim) + np.conj(d) * destroy(dim))
        raw, _ = coherent_amplitudes(alpha, dim, renormalize=False)
        want = D_minus @ raw
        assert np.max(np.abs(got[: dim // 2] - want[: dim // 2])) < 1e-12

    def test_zero_displacement_is_identity(self):
        alpha = 0.4 + 0.1j
        got = displaced_frame_amplitudes(alpha, 0.0, 15)
        raw, _ = coherent_amplitudes(alpha, 15, renormalize=False)
        assert np.allclose(got, raw, atol=1e-15)

    def test_displacing_to_vacuum(self):
        # the frame displaced by alpha itself sees the vacuum
        alpha = 0.8 + 0.5j
        got = displaced_frame_amplitudes(alpha, alpha, 12)
        assert abs(abs(got[0]) - 1.0) < 1e-12
        assert np.max(np.abs(got[1:])) < 1e-12
