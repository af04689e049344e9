"""Spin-1/2 and free-field models against the closed form and the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from aaphase.engine import check_cyclicality, geometric_phase
from aaphase.models import (
    SpinHalfParams,
    free_field,
    free_field_coherent,
    free_field_dense,
    spin_half,
    spin_half_dense,
)
from aaphase.oracle import generic_gamma

from conftest import circ

TWO_PI = 2.0 * math.pi


class TestSpinHalf:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="mu_B0"):
            SpinHalfParams(mu_B0=0.0)
        with pytest.raises(ValueError, match="theta"):
            SpinHalfParams(theta=-0.1)
        with pytest.raises(ValueError, match="theta"):
            SpinHalfParams(theta=3.2)

    def test_north_pole_is_stationary(self):
        sp, state = spin_half(SpinHalfParams(theta=0.0))
        assert [lab for lab, _ in state.entries] == ["up"]
        assert check_cyclicality(sp, state).kind == "stationary"
        assert geometric_phase(sp, state).gamma == 0.0

    def test_south_pole_gamma_wraps_to_zero(self):
        # cos(pi/2) is ~6e-17 in floats, so a vanishing "up" weight
        # survives; gamma = pi*(1 - cos(pi)) = 2*pi still folds to 0
        sp, state = spin_half(SpinHalfParams(theta=math.pi))
        rep = geometric_phase(sp, state)
        assert rep.gamma == 0.0

    @pytest.mark.parametrize("theta", [0.4, 1.1, math.pi / 2, 2.3, 2.9])
    def test_solid_angle_gamma(self, theta):
        sp, state = spin_half(SpinHalfParams(theta=theta))
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == Fraction(1, 2)
        assert rep.phi_over_pi == 1
        assert circ(rep.gamma, math.pi * (1.0 - math.cos(theta))) < 1e-12

    def test_mean_energy_tracks_field_strength(self):
        theta = 1.1
        sp, state = spin_half(SpinHalfParams(mu_B0=2.0, theta=theta))
        assert geometric_phase(sp, state).mean_energy == pytest.approx(
            -2.0 * math.cos(theta), abs=1e-14)

    def test_dense_form_agrees(self):
        params = SpinHalfParams(mu_B0=2.0, theta=1.1)
        sp, state = spin_half(params)
        h, psi0 = spin_half_dense(params)
        assert np.vdot(psi0, h.matrix @ psi0).real * h.unit == pytest.approx(
            geometric_phase(sp, state).mean_energy, abs=1e-13)

    def test_oracle_cross_check(self):
        params = SpinHalfParams(theta=1.1)
        sp, state = spin_half(params)
        rep = geometric_phase(sp, state)
        h, psi0 = spin_half_dense(params)
        orc = generic_gamma(h, psi0, t_max=4.0)
        assert abs(orc.tau - rep.tau) < 1e-6
        assert circ(orc.gamma, rep.gamma) < 1e-6
        assert orc.method == "oracle"


class TestFreeField:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            free_field(1.0, [], [])
        with pytest.raises(ValueError, match="non-negative"):
            free_field(1.0, [0, -1], [0.6, 0.8])
        with pytest.raises(ValueError, match="one amplitude per"):
            free_field(1.0, [0, 1], [1.0])

    def test_sparse_occupation(self):
        omega = 3.0
        a = 1.0 / math.sqrt(3.0)
        sp, state = free_field(omega, [0, 2, 5], [a, a, a])
        rep = geometric_phase(sp, state)
        # spacings {2, 5, 3} give one full cycle of the fundamental
        assert rep.tau_cycles == 1
        assert rep.tau == pytest.approx(TWO_PI / omega, rel=1e-15)
        assert rep.phi_over_pi == 0
        assert rep.branch_integers == {"0": 0, "2": 2, "5": 5}
        assert circ(rep.gamma, TWO_PI / 3) < 1e-12
        assert rep.mean_energy == pytest.approx(omega * 7 / 3, rel=1e-14)

    def test_sparse_occupation_oracle(self):
        omega = 3.0
        a = 1.0 / math.sqrt(3.0)
        sp, state = free_field(omega, [0, 2, 5], [a, a, a])
        rep = geometric_phase(sp, state)
        h = free_field_dense(omega, 6)
        psi0 = np.zeros(6, dtype=complex)
        psi0[[0, 2, 5]] = a
        orc = generic_gamma(h, psi0, t_max=1.3 * rep.tau)
        assert abs(orc.tau - rep.tau) < 1e-6
        assert circ(orc.phi, rep.phi) < 1e-6
        assert circ(orc.gamma, rep.gamma) < 1e-6

    def test_coherent_winds_mean_occupation(self):
        alpha = 0.9
        sp, state = free_field_coherent(1.0, alpha, 18)
        rep = geometric_phase(sp, state)
        assert rep.tau_cycles == 1
        assert rep.phi_over_pi == 0
        # gamma = 2*pi<n>, and the truncated <n> sits within the tail
        # budget of |alpha|^2
        assert circ(rep.gamma, TWO_PI * abs(alpha) ** 2) < 1e-7
        assert rep.mean_energy == pytest.approx(abs(alpha) ** 2, abs=1e-8)

    def test_coherent_oracle_cross_check(self):
        alpha = 0.9
        dim = 18
        sp, state = free_field_coherent(1.0, alpha, dim)
        rep = geometric_phase(sp, state)
        h = free_field_dense(1.0, dim)
        amps = np.array([complex(a) for _, a in state.entries])
        orc = generic_gamma(h, amps, t_max=1.5 * TWO_PI)
        assert abs(orc.tau - TWO_PI) < 1e-6
        assert circ(orc.gamma, rep.gamma) < 1e-6
