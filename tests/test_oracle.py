"""Brute-force route: propagation, period detection, gamma.

The propagator is checked against scipy's matrix exponential, which
shares no code with the phase-advance implementation.
"""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from aaphase.oracle import (
    DenseHamiltonian,
    NoReturnError,
    SpectralPropagator,
    _components,
    detect_period,
    evolve,
    expectation,
    generic_gamma,
)

from conftest import circ

TWO_PI = 2.0 * math.pi


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestDenseHamiltonian:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            DenseHamiltonian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DenseHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="positive"):
            DenseHamiltonian(np.eye(2), unit=0.0)
        with pytest.raises(ValueError, match="positive"):
            DenseHamiltonian(np.eye(2), hbar=-1.0)

    def test_matrix_frozen(self):
        h = DenseHamiltonian(np.eye(2))
        assert h.dimension == 2
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


class TestPropagator:
    def test_psi0_validation(self):
        h = DenseHamiltonian(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            SpectralPropagator(h, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            SpectralPropagator(h, np.array([1.0, 1.0]))

    def test_against_matrix_exponential(self, rng):
        # independent route: psi(t) = expm(-iHt) psi0
        dim = 6
        H = random_hermitian(rng, dim)
        psi0 = random_state(rng, dim)
        h = DenseHamiltonian(H, unit=1.3, hbar=0.7)
        prop = SpectralPropagator(h, psi0)
        for t in (0.3, 1.7, 4.9):
            U = expm(-1j * H * (1.3 / 0.7) * t)
            want_state = U @ psi0
            got_state = prop.state_at(t)
            assert np.max(np.abs(got_state - want_state)) < 1e-12
            want_surv = complex(np.vdot(psi0, want_state))
            got_surv = complex(prop.survival_amplitude(t)[0])
            assert abs(got_surv - want_surv) < 1e-12

    def test_unitarity_and_energy_conservation(self, rng):
        dim = 8
        H = random_hermitian(rng, dim)
        h = DenseHamiltonian(H)
        psi0 = random_state(rng, dim)
        prop = SpectralPropagator(h, psi0)
        e0 = prop.mean_energy()
        for t in np.linspace(0.0, 9.0, 13):
            state = prop.state_at(float(t))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
            assert abs(expectation(h, state) - e0) < 1e-11

    def test_stationary_spread(self):
        h = DenseHamiltonian(np.diag([2.0, 2.0]))
        prop = SpectralPropagator(h, np.array([0.6, 0.8]))
        assert prop.occupied_spread() == 0.0

    def test_expectation_value(self):
        h = DenseHamiltonian(np.diag([2.0, 3.0]), unit=2.0)
        assert expectation(h, np.array([0.6, 0.8])) == pytest.approx(
            2.0 * (0.36 * 2 + 0.64 * 3), rel=1e-14)


class TestBlocks:
    def test_scattered_blocks_against_matrix_exponential(self, rng):
        sizes = [1, 12, 7, 9, 3, 1, 6]
        blocks = [random_hermitian(rng, s) for s in sizes]
        # blocks 1 and 2 joined only by a purely imaginary (sigma_y-type)
        # coupling, which a real-valued graph would lose
        joined = np.zeros((19, 19), dtype=complex)
        joined[:12, :12], joined[12:, 12:] = blocks[1], blocks[2]
        joined[11, 12], joined[12, 11] = 0.7j, -0.7j
        blocks[1:3] = [joined]
        dim = sum(sizes)           # above the size that is solved whole
        perm = rng.permutation(dim)
        H = block_diag(*blocks)[np.ix_(perm, perm)]
        psi0 = random_state(rng, dim)
        h = DenseHamiltonian(H, unit=1.3, hbar=0.7)
        prop = SpectralPropagator(h, psi0)
        assert len(prop._blocks) == len(blocks)
        assert np.max(np.abs(np.sort(prop.eigenvalues)
                             - np.linalg.eigvalsh(H))) < 1e-12
        times = np.linspace(0.0, 6.0, 25)
        survival = prop.survival_amplitude(times)
        for t, got in zip(times, survival):
            want_state = expm(-1j * H * (1.3 / 0.7) * t) @ psi0
            assert abs(got - np.vdot(psi0, want_state)) < 1e-12
            assert np.max(np.abs(prop.state_at(t) - want_state)) < 1e-12

    def test_chain_of_blocks_stays_one_component(self, rng):
        sizes = [3, 2, 4, 1, 3]
        H = block_diag(*[random_hermitian(rng, s) for s in sizes])
        assert len(_components(H)) == len(sizes)
        # each block touches the next through one entry (and its mirror)
        ends = np.cumsum(sizes)[:-1]
        H[ends - 1, ends] = H[ends, ends - 1] = 0.25
        perm = rng.permutation(H.shape[0])
        components = _components(H[np.ix_(perm, perm)])
        assert len(components) == 1
        assert np.array_equal(components[0], np.arange(H.shape[0]))


class TestEvolve:
    def test_argument_validation(self):
        h = DenseHamiltonian(np.diag([1.0, 2.0]))
        psi0 = np.array([0.6, 0.8])
        with pytest.raises(ValueError, match="steps"):
            evolve(h, psi0, 1.0, steps=1)
        with pytest.raises(ValueError, match="t_max"):
            evolve(h, psi0, 0.0)


class TestDetectPeriod:
    def run_detect(self, values, weights, t_max, steps=8192, tol=1e-8):
        dim = len(values)
        h = DenseHamiltonian(np.diag(np.asarray(values, dtype=float)))
        psi0 = np.sqrt(np.asarray(weights, dtype=float)).astype(complex)
        res = evolve(h, psi0, t_max, steps=steps)
        return detect_period(res, fidelity_tol=tol), h, res

    def test_tolerance_validation(self):
        (_, h, res) = self.run_detect([2.0, 3.0], [0.5, 0.5], 7.0)[1:] + (None,)
        with pytest.raises(ValueError, match="fidelity_tol"):
            detect_period(res, fidelity_tol=0.0)
        with pytest.raises(ValueError, match="fidelity_tol"):
            detect_period(res, fidelity_tol=1e-2)

    def test_two_level_period_and_phase(self):
        (tau, phi), _, res = self.run_detect([2.0, 3.0], [0.5, 0.5], 7.0)
        assert abs(tau - TWO_PI) < 1e-6
        assert abs(phi) < 1e-6
        assert res.fidelity_at(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_first_return_wins(self):
        # t_max spans three periods; the detector must stop at the first
        (tau, _), _, _ = self.run_detect([2.0, 3.0], [0.5, 0.5], 19.5)
        assert abs(tau - TWO_PI) < 1e-6

    def test_partial_revival_rejected(self):
        # levels {0, 1, 3/2}: at t = 2*pi the third level is out of phase
        # and fidelity peaks near 0.92; the true return is t = 4*pi
        weights = [0.49, 0.49, 0.02]
        (tau, phi), h, res = self.run_detect([0.0, 1.0, 1.5], weights,
                                             4.3 * math.pi, steps=16384)
        assert abs(tau - 2 * TWO_PI) < 1e-6
        partial = float(res.propagator.fidelity(TWO_PI)[0])
        assert partial == pytest.approx(0.96, abs=1e-3)

    def test_no_return_raises(self):
        h = DenseHamiltonian(np.diag([1.0, math.sqrt(2.0)]))
        psi0 = np.array([0.6, 0.8])
        res = evolve(h, psi0, 10.0, steps=4096)
        with pytest.raises(NoReturnError):
            detect_period(res)


class TestGenericGamma:
    def test_spin_half_value(self):
        theta = math.pi / 2
        h = DenseHamiltonian(np.diag([-1.0, 1.0]))
        psi0 = np.array([math.cos(theta / 2), math.sin(theta / 2)],
                        dtype=complex)
        rep = generic_gamma(h, psi0, t_max=4.0)
        assert abs(rep.tau - math.pi) < 1e-6
        assert circ(rep.gamma, math.pi * (1 - math.cos(theta))) < 1e-6
        assert rep.method == "oracle"
        assert rep.tau_cycles is None and rep.fidelity is None

    def test_stationary_short_circuit(self):
        h = DenseHamiltonian(np.diag([2.0, 2.0]))
        rep = generic_gamma(h, np.array([0.6, 0.8]), t_max=5.0)
        assert rep.stationary
        assert rep.gamma == 0.0 and math.isnan(rep.tau)
        assert rep.fidelity == 1.0

    def test_two_irrational_levels_still_return_exactly(self):
        # any two-level system is cyclic: the gap sqrt(2) - 1 returns at
        # t = 2*pi/(sqrt(2) - 1), irrational but exact
        h = DenseHamiltonian(np.diag([1.0, math.sqrt(2.0)]))
        rep = generic_gamma(h, np.array([0.6, 0.8]), t_max=20.0)
        assert abs(rep.tau - TWO_PI / (math.sqrt(2.0) - 1.0)) < 1e-6

    def test_no_return_propagates(self):
        # three mutually incommensurable gaps: nothing returns by t = 10
        h = DenseHamiltonian(np.diag([0.0, 1.0, math.sqrt(2.0)]))
        psi0 = np.array([0.6, 0.6, math.sqrt(0.28)], dtype=complex)
        with pytest.raises(NoReturnError):
            generic_gamma(h, psi0, t_max=10.0)

    def test_approximate_mode_reports_fidelity(self):
        # a slightly detuned third level spoils the exact return at
        # t = 4*pi (1 - F ~ 1e-6): strict mode must refuse, approximate
        # mode must accept and report the achieved fidelity
        h = DenseHamiltonian(np.diag([0.0, 1.0, 0.5 + 1e-3]))
        psi0 = np.sqrt(np.array([0.49, 0.49, 0.02])).astype(complex)
        with pytest.raises(NoReturnError):
            generic_gamma(h, psi0, t_max=4.3 * math.pi)
        rep = generic_gamma(h, psi0, t_max=4.3 * math.pi, approximate=True)
        assert rep.fidelity is not None
        assert 0.0 < 1.0 - rep.fidelity < 1e-4
        assert abs(rep.tau - 2 * TWO_PI) < 0.05
        # the detuned gamma stays near the commensurate limit's 0
        assert circ(rep.gamma, 0.0) < 0.05

    def test_steps_override(self):
        h = DenseHamiltonian(np.diag([2.0, 3.0]))
        psi0 = np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
        rep = generic_gamma(h, psi0, t_max=7.0, steps=3000)
        assert circ(rep.gamma, math.pi) < 1e-6
