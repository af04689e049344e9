"""Brute-force reference route: dense evolution, period and phase detection.

Independent of the exact-arithmetic engine: a Hermitian matrix is
diagonalized once, block by block over the connected components of its
nonzero pattern, states are propagated by phase-advancing the
eigencomponents (exactly unitary, no integrator error), the period is
read off the first fidelity return, and the dynamical phase is the
period times the mean energy, which is constant along the evolution.
Every closed-form result is validated against this route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np
from scipy.linalg import eigh

from .engine import PhaseReport, TWO_PI, _canonical_gamma

__all__ = [
    "DenseHamiltonian",
    "EvolutionResult",
    "NoReturnError",
    "SpectralPropagator",
    "detect_period",
    "evolve",
    "expectation",
    "generic_gamma",
]

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
# Weights below this floor cannot move any detection tolerance used here;
# dropping them keeps the fidelity scan linear in the occupied levels.
WEIGHT_FLOOR = 1e-16
# Up to this dimension one dense eigh costs less than finding the blocks
# (the graph search alone takes about as long as eigh at dimension 40).
SMALL_DIMENSION = 32


class NoReturnError(RuntimeError):
    """No fidelity return was found within t_max."""


@dataclass(frozen=True)
class DenseHamiltonian:
    """Explicit Hermitian matrix on a truncated Hilbert space.

    ``matrix`` entries are dimensionless multiples of ``unit``; time
    evolution uses angular frequencies matrix*unit/hbar.
    """

    matrix: np.ndarray
    unit: float = 1.0
    hbar: float = 1.0

    def __init__(self, matrix, unit: float = 1.0, hbar: float = 1.0):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        scale = float(np.max(np.abs(m))) if m.size else 0.0
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > HERMITICITY_TOL * max(scale, 1e-300):
            raise ValueError(f"matrix is not Hermitian: max|H - H^dag| = {dev:g}")
        if not unit > 0 or not hbar > 0:
            raise ValueError("unit and hbar must be positive")
        m = m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unit", float(unit))
        object.__setattr__(self, "hbar", float(hbar))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _components(matrix: np.ndarray) -> list:
    """Index arrays of the connected components of the nonzero pattern.

    The graph is built from ``matrix != 0`` because csgraph casts a
    complex matrix to float and would drop purely imaginary couplings.
    Indices within each component stay in ascending order.
    """
    # imported here so that loading the CLI never loads scipy.sparse
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(csr_matrix(matrix != 0),
                                         directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


class SpectralPropagator:
    """One-time eigendecomposition of (H, psi0); evolution is then diagonal.

    H is split into the connected components of its nonzero pattern (for
    the cavity models, the conserved photon-number blocks) and each block
    is diagonalized on its own; matrices up to SMALL_DIMENSION are solved
    whole.  The blocks come from the matrix alone, so the route stays
    independent of any model labels or exact levels.
    Eigenvalues (ascending) and amplitudes span all blocks.  The
    survival amplitude <psi0|psi(t)> = sum_k |a_k|^2 exp(-i w_k t) needs
    only the occupied weights, so fidelity scans never materialize
    states; `state_at` reconstructs a state vector on demand.
    """

    def __init__(self, hamiltonian: DenseHamiltonian, psi0: np.ndarray):
        psi0 = np.asarray(psi0, dtype=complex).ravel()
        if psi0.shape[0] != hamiltonian.dimension:
            raise ValueError("psi0 dimension mismatch")
        norm = float(np.linalg.norm(psi0))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"psi0 not normalized: |psi0| = {norm!r}")
        self.hamiltonian = hamiltonian
        matrix = hamiltonian.matrix
        dim = hamiltonian.dimension
        blocks = (_components(matrix) if dim > SMALL_DIMENSION
                  else [np.arange(dim)])
        values, amplitudes, vectors = [], [], []
        for idx in blocks:
            # real-symmetric input takes the faster LAPACK path
            w, v = eigh(matrix[np.ix_(idx, idx)])
            values.append(w)
            amplitudes.append(v.conj().T @ psi0[idx])
            vectors.append(v)
        # ascending across blocks, as one solve of the whole matrix gives,
        # so the scan sums the levels in the same order
        w = np.concatenate(values)
        order = np.argsort(w, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        positions = np.split(rank, np.cumsum([idx.size for idx in blocks])[:-1])
        self._blocks = list(zip(blocks, vectors, positions))
        self.eigenvalues = w[order]                 # in units of `unit`
        self.omegas = self.eigenvalues * (hamiltonian.unit / hamiltonian.hbar)
        a = np.concatenate(amplitudes)[order]
        self.amplitudes = a
        self.weights = np.abs(a) ** 2
        self._occ = self.weights > WEIGHT_FLOOR
        self._occ_w = self.weights[self._occ]
        self._occ_omega = self.omegas[self._occ]
        self.psi0 = psi0

    def survival_amplitude(self, times) -> np.ndarray:
        """<psi0|psi(t)> for an array of times, via the occupied levels only.

        Evaluated in chunks so the (times x levels) phase table never
        exceeds a fixed memory footprint on long scans.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        levels = max(self._occ_omega.size, 1)
        chunk = max(1, (1 << 20) // levels)
        out = np.empty(t.size, dtype=complex)
        for start in range(0, t.size, chunk):
            block = t[start:start + chunk]
            out[start:start + chunk] = (
                np.exp(-1j * np.outer(block, self._occ_omega)) @ self._occ_w)
        return out

    def fidelity(self, times) -> np.ndarray:
        return np.abs(self.survival_amplitude(times))

    def state_at(self, t: float) -> np.ndarray:
        coeffs = self.amplitudes * np.exp(-1j * self.omegas * t)
        state = np.empty(coeffs.size, dtype=complex)
        for idx, v, pos in self._blocks:
            state[idx] = v @ coeffs[pos]
        return state

    def mean_energy(self) -> float:
        """<psi0|H|psi0> in energy units (constant along the evolution)."""
        return float(np.real(np.vdot(self.psi0,
                                     self.hamiltonian.matrix @ self.psi0))
                     * self.hamiltonian.unit)

    def occupied_spread(self) -> float:
        """Spread of occupied angular frequencies; zero means stationary."""
        if self._occ_omega.size == 0:
            return 0.0
        return float(self._occ_omega.max() - self._occ_omega.min())


@dataclass(frozen=True)
class EvolutionResult:
    """Time grid with the survival-amplitude track.

    States are reconstructed on demand from the propagator: a dense
    state per grid point would not fit in memory for the larger cavity
    runs.
    """

    times: np.ndarray
    overlap_track: np.ndarray
    fidelity_track: np.ndarray
    propagator: SpectralPropagator

    def state_at(self, t: float) -> np.ndarray:
        return self.propagator.state_at(t)

    def fidelity_at(self, t: float) -> float:
        return float(self.propagator.fidelity(t)[0])


def evolve(hamiltonian: DenseHamiltonian, psi0, t_max: float,
           steps: int = 4096, *,
           propagator: Union[SpectralPropagator, None] = None) -> EvolutionResult:
    """Evolve psi0 on a uniform grid over [0, t_max].

    Norm preservation is exact by construction (diagonal phase advance);
    a sample of reconstructed states is still checked to 1e-10 as a guard
    against degenerate eigenbases.  An existing propagator for the same
    (H, psi0) pair may be passed to skip rediagonalization.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    prop = propagator or SpectralPropagator(hamiltonian, psi0)
    times = np.linspace(0.0, float(t_max), int(steps))
    overlap = prop.survival_amplitude(times)
    result = EvolutionResult(times=times, overlap_track=overlap,
                             fidelity_track=np.abs(overlap), propagator=prop)
    for t in times[:: max(1, steps // 8)]:
        norm = float(np.linalg.norm(prop.state_at(float(t))))
        if abs(norm - 1.0) > NORM_TOL:
            raise AssertionError(f"norm drift at t={t}: {norm!r}")
    return result


def _golden_max(f, a: float, b: float, iterations: int = 48) -> float:
    """Golden-section maximizer of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


# Grid peaks this far below full fidelity are still refined; the strict
# acceptance test happens on the refined maximum, so the scan threshold
# only needs to beat the "fidelity varies < 0.1 per step" grid premise.
SCAN_BAND = 0.1


def detect_period(result: EvolutionResult,
                  fidelity_tol: float = 1e-8) -> Tuple[float, float]:
    """First fidelity return: (tau_est, phi_est).

    Local fidelity maxima after t=0 are refined in time order by
    golden-section maximization; the first refined peak reaching
    1 - |<psi0|psi(tau)>| <= fidelity_tol is the period estimate, so
    partial revivals are examined and rejected rather than mistaken for
    the return.  phi_est = arg<psi0|psi(tau)> in (-pi, pi].  A fidelity
    track that never leaves the band (stationary input) degenerates to
    the first grid point; callers screen stationarity beforehand.
    """
    if not 0 < fidelity_tol <= 1e-3:
        raise ValueError("fidelity_tol must be in (0, 1e-3]")
    fid = result.fidelity_track
    times = result.times
    prop = result.propagator
    n = fid.size
    interior = np.flatnonzero(
        (fid[1:-1] >= fid[:-2]) & (fid[1:-1] >= fid[2:])) + 1
    peaks = [int(i) for i in interior if fid[i] >= 1.0 - SCAN_BAND]
    if n >= 2 and fid[-1] >= max(fid[-2], 1.0 - SCAN_BAND):
        peaks.append(n - 1)
    last = -2
    for peak in peaks:
        if peak == last + 1:          # flat plateau, one bracket is enough
            last = peak
            continue
        last = peak
        lo = float(times[max(peak - 1, 0)])
        hi = float(times[min(peak + 1, n - 1)])
        tau_est = _golden_max(lambda t: float(prop.fidelity(t)[0]), lo, hi)
        if tau_est <= 0.0:
            continue
        if 1.0 - float(prop.fidelity(tau_est)[0]) <= fidelity_tol:
            phi_est = cmath.phase(complex(prop.survival_amplitude(tau_est)[0]))
            if phi_est <= -math.pi:
                phi_est += TWO_PI
            return float(tau_est), phi_est
    raise NoReturnError("no period detected <= t_max")


def expectation(hamiltonian: DenseHamiltonian, psi) -> float:
    """<psi|H|psi> in energy units."""
    v = np.asarray(psi, dtype=complex).ravel()
    return float(np.real(np.vdot(v, hamiltonian.matrix @ v)) * hamiltonian.unit)


def generic_gamma(hamiltonian: DenseHamiltonian, psi0, t_max: float, *,
                  fidelity_tol: float = 1e-8, steps: Union[int, None] = None,
                  approximate: bool = False) -> PhaseReport:
    """Full numerical route: gamma = phi_est + (tau_est/hbar)<H>, mod 2*pi.

    Assembled entirely from the detected period, the detected total
    phase, and the numerically evaluated mean energy; no exact-spectrum
    information enters.  ``approximate=True`` switches to the
    near-recurrence regime (default acceptance 1 - F <= 1e-4) used when
    exact commensurability fails; the achieved fidelity is reported.
    Stationary inputs short-circuit to a flagged report.
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    prop = SpectralPropagator(hamiltonian, psi0)
    e_mean = prop.mean_energy()
    spread = prop.occupied_spread()
    if spread == 0.0:
        return PhaseReport(method="oracle", unit=hamiltonian.unit,
                           tau_cycles=None, tau=math.nan,
                           phi_over_pi=None, phi=0.0, gamma=0.0,
                           mean_energy=e_mean, branch_integers={},
                           stationary=True, fidelity=1.0)
    if steps is None:
        # 4096 points per natural cycle 2*pi*hbar/unit, bounded above;
        # return peaks are much wider than this spacing for any occupied
        # spread that fits the truncations in use.
        cycles = max(1.0, float(t_max) * hamiltonian.unit
                     / (TWO_PI * hamiltonian.hbar))
        steps = int(min(4096 * math.ceil(cycles), 1 << 21))
    tol = 1e-4 if approximate else fidelity_tol
    result = evolve(hamiltonian, psi0, t_max, steps=steps, propagator=prop)
    tau_est, phi_est = detect_period(result, fidelity_tol=tol)
    achieved = float(prop.fidelity(tau_est)[0])
    gamma = _canonical_gamma(
        phi_est + tau_est * e_mean / hamiltonian.hbar)
    return PhaseReport(method="oracle", unit=hamiltonian.unit,
                       tau_cycles=None, tau=float(tau_est),
                       phi_over_pi=None, phi=float(phi_est), gamma=gamma,
                       mean_energy=e_mean, branch_integers={},
                       stationary=False,
                       fidelity=achieved if approximate else None)
