"""Brute-force reference route: block evolution, period and phase detection.

Independent of the exact-arithmetic engine: a Hermitian matrix, kept as
its nonzero entries, is diagonalized once, block by block over the
connected components of its nonzero pattern, states are propagated by
phase-advancing the eigencomponents (exactly unitary, no integrator
error), the period is read off the first fidelity return, and the
dynamical phase is the period times the mean energy, which is constant
along the evolution.  Every closed-form result is validated against this
route.

numpy is imported inside the functions that use it, so that importing
this module (and with it the command-line front end) does not load it:
the exact route never builds an array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple, Union

from .engine import PhaseReport, TWO_PI, _canonical_gamma

__all__ = [
    "EvolutionResult",
    "Hamiltonian",
    "NoReturnError",
    "SpectralPropagator",
    "detect_period",
    "evolve",
    "generic_gamma",
]

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
# Weights below this floor cannot move any detection tolerance used here;
# dropping them keeps the fidelity scan linear in the occupied levels.
WEIGHT_FLOOR = 1e-16
# Up to this dimension one whole eigh costs no more than the block route
# (component search plus one stacked eigh per block size): on random
# Hermitian matrices with blocks of 1, 2 or 4 (2-core Xeon, OpenBLAS) the
# whole solve wins at 8 and 16, the two are within 0.05 ms at 24 and 32,
# and the block route is ahead from 48.
SMALL_DIMENSION = 32
# No temporary array of the fidelity scan holds more entries than this.
CHUNK_ENTRIES = 1 << 20
# Largest grid the step rule may choose.
MAX_STEPS = 1 << 21


def eigh(a):
    """numpy.linalg.eigh; a module attribute looked up at call time, so a
    test or a tracer can substitute it."""
    import numpy as np
    return np.linalg.eigh(a)


class NoReturnError(RuntimeError):
    """No fidelity return was found within t_max."""


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian matrix on a truncated Hilbert space, kept as its entries.

    Entry k is ``values[k]`` at row ``rows[k]`` and column ``cols[k]``;
    entries are dimensionless multiples of ``unit``, and time evolution
    uses angular frequencies H*unit (hbar = 1).  Zeros are dropped, the
    rest are sorted by row, then column, and every array is read-only;
    ``values`` is float64 for real input and complex128 otherwise.  No
    N x N array is formed except on reading ``matrix``.
    """

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    unit: float = 1.0

    def __init__(self, dimension: int, rows, cols, values, unit: float = 1.0):
        import numpy as np
        n = int(dimension)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        values = values.astype(np.float64 if np.isrealobj(values)
                               else np.complex128)
        if not (values.ndim == 1 and rows.shape == cols.shape == values.shape
                and np.all((0 <= rows) & (rows < n) & (0 <= cols) & (cols < n))):
            raise ValueError(f"need one row and column index inside "
                             f"dimension {n} per value")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            size = np.abs(values)
        if not np.all(size < math.inf):
            # |H - H^dag| and its scale would both be inf, and
            # inf > 1e-12*inf is false
            raise ValueError("matrix entries must have a finite modulus")
        scale = float(np.max(size, initial=0.0))
        keep = values != 0
        key = rows[keep] * n + cols[keep]
        order = np.argsort(key, kind="stable")
        key, values = key[order], values[keep][order]
        same = np.flatnonzero(key[1:] == key[:-1])
        if same.size:
            raise ValueError("duplicate entry (%d, %d)"
                             % divmod(int(key[same[0]]), n))
        rows, cols = np.divmod(key, max(n, 1))
        # each entry against its (j, i) partner; a missing partner is 0
        mirror = cols * n + rows
        at = np.minimum(np.searchsorted(key, mirror), max(key.size - 1, 0))
        partner = np.where(key[at] == mirror, values[at], 0)
        with np.errstate(over="ignore"):   # entries near the float range
            dev = float(np.max(np.abs(values - partner.conj()), initial=0.0))
        if dev > HERMITICITY_TOL * max(scale, 1e-300):
            raise ValueError(f"matrix is not Hermitian: max|H - H^dag| = {dev:g}")
        if not 0 < unit < math.inf:
            raise ValueError("unit must be positive and finite")
        for array in (rows, cols, values):
            array.setflags(write=False)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "unit", float(unit))

    @classmethod
    def from_dense(cls, matrix, unit: float = 1.0) -> "Hamiltonian":
        """The entries of a square array that compare unequal to zero."""
        import numpy as np
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        rows, cols = np.nonzero(m)
        return cls(m.shape[0], rows, cols, m[rows, cols], unit)

    @classmethod
    def diagonal(cls, levels, unit: float = 1.0) -> "Hamiltonian":
        """The diagonal matrix with these levels."""
        import numpy as np
        index = np.arange(len(levels))
        return cls(index.size, index, index, levels, unit)

    @property
    def matrix(self) -> np.ndarray:
        """The dense array, built anew on every read."""
        import numpy as np
        m = np.zeros((self.dimension,) * 2, dtype=self.values.dtype)
        m[self.rows, self.cols] = self.values
        return m


def _grid_shape(steps: int, levels: int) -> Tuple[int, int]:
    """(fine, rows): the fine block length B, about sqrt(steps), and the
    coarse rows per chunk, so that no scan table exceeds CHUNK_ENTRIES."""
    fine = max(1, min(math.isqrt(max(steps - 1, 0)) + 1,
                      CHUNK_ENTRIES // max(levels, 1)))
    return fine, max(1, CHUNK_ENTRIES // max(levels, fine))


def _components(dimension: int, rows: np.ndarray,
                cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(indices, sizes): the connected components of the pattern with an
    edge (rows[k], cols[k]) per entry, as consecutive runs of ``indices``
    of the given sizes, ordered by their smallest index, with indices
    ascending in each.

    Labels start as the indices and only fall, always to an index of the
    same component: each round lowers the label at each edge end's label
    to the other end's label, then replaces every label by its label's
    label.  A round that moves nothing leaves every index labelled with
    its component's least index.
    """
    import numpy as np
    labels = np.arange(dimension)
    while True:
        new = labels.copy()
        np.minimum.at(new, labels[rows], labels[cols])
        np.minimum.at(new, labels[cols], labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    indices = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[indices], prepend=-1))
    return indices, np.diff(starts, append=dimension)


class SpectralPropagator:
    """One-time eigendecomposition of (H, psi0); evolution is then diagonal.

    H is split into the connected components of its nonzero pattern (for
    the cavity models, the conserved photon-number blocks), and the
    blocks of each size are diagonalized in one stacked ``eigh``;
    matrices up to SMALL_DIMENSION are solved whole.  The blocks come
    from the stored entries alone, so the route stays independent of any
    model labels or exact levels.
    Eigenvalues (ascending) and amplitudes span all blocks.  The
    survival amplitude <psi0|psi(t)> = sum_k |a_k|^2 exp(-i w_k t) needs
    only the occupied weights, so fidelity scans never materialize
    states; `state_at` reconstructs a state vector on demand.
    """

    def __init__(self, hamiltonian: Hamiltonian, psi0: np.ndarray):
        import numpy as np
        psi0 = np.asarray(psi0, dtype=complex).ravel()
        if psi0.shape[0] != hamiltonian.dimension:
            raise ValueError("psi0 dimension mismatch")
        norm = float(np.linalg.norm(psi0))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"psi0 not normalized: |psi0| = {norm!r}")
        self.hamiltonian = hamiltonian
        h, dim = hamiltonian, hamiltonian.dimension
        indices, sizes = (_components(dim, h.rows, h.cols)
                          if dim > SMALL_DIMENSION
                          else (np.arange(dim), np.array([dim])))
        # slot of each index: its place in `indices`, where component c
        # holds the run starting at starts[c]
        starts = np.cumsum(sizes) - sizes
        slot = np.empty(dim, dtype=np.int64)
        slot[indices] = np.arange(dim)
        local = slot - np.repeat(starts, sizes)[slot]
        entry_block = np.repeat(np.arange(sizes.size), sizes)[slot[h.rows]]
        # eigenvalues and amplitudes in component order, as solving the
        # blocks one by one and concatenating them gives
        w = np.empty(dim)
        amplitudes = np.empty(dim, dtype=complex)
        groups = []
        # np.unique would import numpy.ma on first use
        for size in np.flatnonzero(np.bincount(sizes)):
            members = np.flatnonzero(sizes == size)
            slots = starts[members, None] + np.arange(size)
            idx = indices[slots]
            # entries of these blocks, and each block's place in the stack
            mine = sizes[entry_block] == size
            place = np.cumsum(sizes == size) - 1
            stack = np.zeros((members.size, size, size), dtype=h.values.dtype)
            stack[place[entry_block[mine]], local[h.rows[mine]],
                  local[h.cols[mine]]] = h.values[mine]
            # real-symmetric input takes the faster LAPACK path
            values, vectors = eigh(stack)
            w[slots] = values
            amplitudes[slots] = (vectors.conj().transpose(0, 2, 1)
                                 @ psi0[idx][..., None])[..., 0]
            groups.append((idx, vectors, slots))
        # ascending across blocks, as one solve of the whole matrix gives,
        # so the scan sums the levels in the same order
        order = np.argsort(w, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self._groups = [(idx, vectors, rank[slots])
                        for idx, vectors, slots in groups]
        self.eigenvalues = w[order]                 # in units of `unit`
        self.omegas = self.eigenvalues * hamiltonian.unit
        a = amplitudes[order]
        self.amplitudes = a
        self.weights = np.abs(a) ** 2
        # the phase advance is unitary by construction; what can fail is
        # the orthonormality of the eigenbasis, which moves the weights
        total = float(self.weights.sum())
        if not abs(total - norm * norm) <= NORM_TOL:
            raise AssertionError(
                f"eigenbasis not orthonormal: weights sum to {total!r}, "
                f"|psi0|^2 = {norm * norm!r}")
        self._occ = self.weights > WEIGHT_FLOOR
        self._occ_w = self.weights[self._occ]
        self._occ_omega = self.omegas[self._occ]
        self._occ_nu = self._occ_omega - self._occ_omega @ self._occ_w / total
        self.psi0 = psi0

    def survival_amplitude(self, times) -> np.ndarray:
        """<psi0|psi(t)> for a few arbitrary times, via the occupied levels
        only; whole grids go through `survival_grid`."""
        import numpy as np
        t = np.atleast_1d(np.asarray(times, dtype=float))
        return np.exp(-1j * np.outer(t, self._occ_omega)) @ self._occ_w

    def survival_grid(self, times) -> np.ndarray:
        """<psi0|psi(t)> on a uniform grid ``times = linspace(0, t_max, n)``.

        For k = a*B + b, exp(-i w t_k) = exp(-i w t_{aB}) exp(-i w t_b),
        so the amplitude is the (n/B x levels) @ (levels x B) product of
        weighted coarse factors and fine factors, taken from the grid's
        own points: about (n/B + B) * levels exponentials instead of
        n * levels.  Coarse rows go in chunks under CHUNK_ENTRIES.
        """
        import numpy as np
        t = np.asarray(times, dtype=float)
        omega = self._occ_omega
        fine, rows = _grid_shape(t.size, omega.size)
        factors = np.exp(-1j * np.outer(omega, t[:fine]))
        coarse = t[::fine]
        out = np.empty((coarse.size, fine), dtype=complex)
        for start in range(0, coarse.size, rows):
            head = np.exp(-1j * np.outer(coarse[start:start + rows], omega))
            head *= self._occ_w
            out[start:start + rows] = head @ factors
        return out.ravel()[:t.size]

    def fidelity(self, times) -> np.ndarray:
        return abs(self.survival_amplitude(times))

    def state_at(self, t: float) -> np.ndarray:
        import numpy as np
        coeffs = self.amplitudes * np.exp(-1j * self.omegas * t)
        state = np.empty(coeffs.size, dtype=complex)
        for idx, vectors, pos in self._groups:
            state[idx] = (vectors @ coeffs[pos][..., None])[..., 0]
        return state

    def mean_energy(self) -> float:
        """<psi0|H|psi0> = unit * sum_k w_k lambda_k, constant in time."""
        return float(self.weights @ self.omegas)

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


def evolve(hamiltonian: Hamiltonian, psi0, t_max: float,
           steps: int = 4096, *,
           propagator: Union[SpectralPropagator, None] = None) -> EvolutionResult:
    """Evolve psi0 on a uniform grid over [0, t_max].

    Norm preservation is exact by construction (diagonal phase advance).
    An existing propagator for the same (H, psi0) pair may be passed to
    skip rediagonalization.
    """
    import numpy as np
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    prop = propagator or SpectralPropagator(hamiltonian, psi0)
    times = np.linspace(0.0, float(t_max), int(steps))
    overlap = prop.survival_grid(times)
    return EvolutionResult(times=times, overlap_track=overlap,
                           fidelity_track=np.abs(overlap), propagator=prop)


# Grid peaks this far below full fidelity are still candidates; the strict
# acceptance test happens on the refined maximum, so the scan threshold
# only needs to beat the "fidelity varies < 0.1 per step" grid premise.
SCAN_BAND = 0.1
# Exact-mode return certificate: occupied levels of at least this weight
# must be back in phase within CERTIFICATE_TOL rad (measured residuals in
# CHANGES.md; lighter levels of truncated cavity matrices never return).
CERTIFICATE_FLOOR = 1e-8
CERTIFICATE_TOL = 1e-6


def _prune(prop: SpectralPropagator, times: np.ndarray, fid: np.ndarray,
           peaks: np.ndarray, fidelity_tol: float, certify: bool) -> np.ndarray:
    """The peaks i whose bracket [t_i - dt, t_i + dt] can hold a return.

    With nu_k = omega_k - sum_j p_j omega_j, B(t) = sum_k p_k exp(-i nu_k t)
    has |B| = |A| and |B''| <= sigma^2 = sum_k p_k nu_k^2, so there
    |A| <= fid[i] + dt |B'(t_i)| + dt^2 sigma^2 / 2.  A certified return
    also needs heavy levels adjacent in frequency to be in phase at t_i
    within |nu_k - nu_j| dt + 2 CERTIFICATE_TOL.  The margin covers
    rounding and the levels below CERTIFICATE_FLOOR.
    """
    import numpy as np
    w, nu = prop._occ_w, prop._occ_nu
    dt, heavy = times[1] - times[0], w >= CERTIFICATE_FLOOR
    margin = (32 * np.spacing(1.0 + np.max(np.abs(prop._occ_omega)) * times[-1])
              + prop.weights.sum() - w.sum()
              + dt * (w[~heavy] @ np.abs(nu[~heavy])))
    # (dt*nu)^2, not dt^2*nu^2: nu^2 alone overflows for huge frequencies
    floor = 1.0 - fidelity_tol - (w @ (dt * nu) ** 2) / 2 - margin
    w, nu = w[heavy], nu[heavy]                 # ascending in nu
    phases = np.exp(-1j * np.outer(times[peaks], nu))
    # an elementwise sum: a threaded complex gemv of this size costs ms
    ok = fid[peaks] + dt * np.abs((phases * (nu * w)).sum(axis=1)) >= floor
    if certify:
        turn = np.abs(np.angle(phases[:, 1:] * phases[:, :-1].conj()))
        ok &= np.all(turn <= np.diff(nu) * dt + 2 * CERTIFICATE_TOL + margin,
                     axis=1)
    return peaks[ok]


def _refine(prop: SpectralPropagator, lo: float, hi: float, t: float) -> float:
    """The maximum of |A| on [lo, hi], from t: safeguarded Newton on
    g = Re(conj B B') = 0 (B as in `_prune`), bisecting whenever a step
    leaves the bracket or meets g' >= 0.  B, B' and B'' share one
    exponential per occupied level."""
    import numpy as np
    w, nu = prop._occ_w, prop._occ_nu
    # huge frequencies overflow the slope; a non-finite slope bisects.
    # 100 is a cap: bisecting a grid bracket takes < 60 steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            terms = w * np.exp(-1j * nu * t)
            b, db, ddb = terms.sum(), -1j * (terms @ nu), -(terms @ nu ** 2)
            g = (b.conjugate() * db).real
            slope = abs(db) ** 2 + (b.conjugate() * ddb).real
            lo, hi = (t if g >= 0 else lo), (t if g <= 0 else hi)
            step = t - g / slope if slope < 0 else math.nan
            if abs(step - t) <= 4 * np.spacing(t):  # converged to rounding
                return min(max(step, lo), hi)
            new = step if lo < step < hi else 0.5 * (lo + hi)
            if new == t:
                break
            t = new
    return t


def detect_period(result: EvolutionResult, fidelity_tol: float = 1e-8, *,
                  approximate: bool = False) -> Tuple[float, float]:
    """First fidelity return: (tau_est, phi_est).

    Local fidelity maxima after t=0 that `_prune` keeps are refined in
    time order by `_refine`; the first refined peak reaching
    1 - |<psi0|psi(tau)>| <= fidelity_tol is the period estimate, so
    partial revivals are examined and rejected rather than mistaken for
    the return.  Unless ``approximate``, every occupied level of weight
    at least CERTIFICATE_FLOOR must also lie within CERTIFICATE_TOL rad
    of phi_est: a near-recurrence whose out-of-phase levels weigh too
    little to show in the fidelity fails this certificate.
    phi_est = arg<psi0|psi(tau)> in (-pi, pi].  Stationary input
    degenerates to the first grid peak; callers screen it beforehand.
    """
    import numpy as np
    if not 0 < fidelity_tol <= 1e-3:
        raise ValueError("fidelity_tol must be in (0, 1e-3]")
    fid, times, prop = result.fidelity_track, result.times, result.propagator
    n = fid.size
    peaks = np.flatnonzero(
        (fid[1:-1] >= fid[:-2]) & (fid[1:-1] >= fid[2:])) + 1
    if n >= 2 and fid[-1] >= fid[-2]:
        peaks = np.append(peaks, n - 1)
    peaks = peaks[fid[peaks] >= 1.0 - SCAN_BAND]
    peaks = peaks[np.diff(peaks, prepend=-2) != 1]  # one bracket per plateau
    certified = prop.omegas[prop.weights >= CERTIFICATE_FLOOR]
    size = max(1, CHUNK_ENTRIES // prop._occ_w.size)
    for start in range(0, peaks.size, size):
        for i in _prune(prop, times, fid, peaks[start:start + size],
                        fidelity_tol, not approximate):
            tau = _refine(prop, times[max(i - 1, 0)],
                          times[min(i + 1, n - 1)], times[i])
            amplitude = complex(prop.survival_amplitude(tau)[0])
            if not (tau > 0.0 and 1.0 - abs(amplitude) <= fidelity_tol):
                continue
            phi = cmath.phase(amplitude)
            phi += TWO_PI if phi <= -math.pi else 0.0
            residual = np.abs(np.angle(np.exp(-1j * (certified * tau + phi))))
            if approximate or np.max(residual) <= CERTIFICATE_TOL:
                return float(tau), phi
    raise NoReturnError("no period detected <= t_max")


def generic_gamma(hamiltonian: Hamiltonian, psi0, t_max: float, *,
                  approximate: bool = False) -> PhaseReport:
    """Full numerical route: gamma = phi_est + tau_est<H>, mod 2*pi.

    Assembled entirely from the detected period, the detected total
    phase, and the numerically evaluated mean energy; no exact-spectrum
    information enters.  A return must reach 1 - F <= 1e-8;
    ``approximate=True`` switches to the near-recurrence regime
    (1 - F <= 1e-4) used when exact commensurability fails, and the
    achieved fidelity is reported.
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
    # 4096 points per natural cycle 2*pi/unit, and at least enough that
    # no two occupied phases drift apart by more than SCAN_BAND radians
    # per step, so no return peak falls between grid points
    cycles = max(1.0, float(t_max) * hamiltonian.unit / TWO_PI)
    needed = math.ceil(spread * t_max / SCAN_BAND) + 1
    if needed > MAX_STEPS:
        raise NoReturnError(
            f"the occupied frequency spread {spread:.6g} needs "
            f"{needed} grid steps up to t_max = {t_max:g}, above the "
            f"cap of {MAX_STEPS}; set a shorter t_max")
    steps = max(int(min(4096 * math.ceil(cycles), MAX_STEPS)), needed)
    result = evolve(hamiltonian, psi0, t_max, steps=steps, propagator=prop)
    tau_est, phi_est = detect_period(
        result, fidelity_tol=1e-4 if approximate else 1e-8,
        approximate=approximate)
    achieved = float(prop.fidelity(tau_est)[0])
    gamma = _canonical_gamma(phi_est + tau_est * e_mean)
    return PhaseReport(method="oracle", unit=hamiltonian.unit,
                       tau_cycles=None, tau=float(tau_est),
                       phi_over_pi=None, phi=float(phi_est), gamma=gamma,
                       mean_energy=e_mean, branch_integers={},
                       stationary=False,
                       fidelity=achieved if approximate else None)
