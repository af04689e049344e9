"""Brute-force reference route: block evolution, period and phase detection.

Independent of the exact-arithmetic engine: a Hermitian matrix, kept as
its nonzero entries, is diagonalized once, block by block over the
connected components of its nonzero pattern (one solve path for every
dimension, 2 x 2 included), the survival amplitude
sums the weight of each eigencomponent under its phase advance (exactly
unitary, no integrator error), the period is read off the first fidelity
return, and the dynamical phase is the period times the mean energy,
which is constant along the evolution.  Every closed-form result is
validated against this route.

The survival amplitude is scanned in two passes: a coarse pass bounds
|<psi0|psi(t)>| near every COARSE_STRIDE-th grid point, and the fine
grid is evaluated only where that bound leaves room for a return, with
the same bits as a scan of the whole grid.  The scan holds one
levels x B table of phase factors (B about sqrt(steps)), forms the
coarse bound in chunks of at most COARSE_ENTRIES entries, and never
forms the grid: ``EvolutionResult.times`` is a `Grid`, which computes
its points where they are read.

numpy is imported inside the functions that use it, so that importing
this module (and with it the command-line front end) does not load it.
The exact route builds no matrix; numpy computes the coherent amplitudes
of `three_mirror_exact`, `two_mirror_spectrum` and `free_field_coherent`.
"""

from __future__ import annotations

import cmath
import math
from typing import Tuple

from .engine import PhaseReport, TWO_PI, _canonical_gamma

__all__ = [
    "EvolutionResult",
    "Grid",
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
# No temporary array of the fidelity scan holds more entries than this.
CHUNK_ENTRIES = 1 << 20
# Entries per chunk of the coarse bound's phase table (one row when a
# row is longer): 512 KiB of complex values.
COARSE_ENTRIES = 1 << 15
# Largest grid the step rule may choose.
MAX_STEPS = 1 << 21
# The scan's coarse pass takes every COARSE_STRIDE-th grid point; each
# coarse value bounds the fidelity COARSE_STRIDE // 2 steps either side.
COARSE_STRIDE = 16
# Largest fidelity_tol that detect_period accepts; the scan evaluates
# every point near which a return within it can lie.
MAX_FIDELITY_TOL = 1e-3


def eigh(a):
    """numpy.linalg.eigh; a module attribute looked up at call time, so a
    test or a tracer can substitute it."""
    import numpy as np
    return np.linalg.eigh(a)


class NoReturnError(RuntimeError):
    """No fidelity return was found within t_max."""


class Hamiltonian:
    """Hermitian matrix on a truncated Hilbert space, kept as its entries.

    Entry k is ``values[k]`` at row ``rows[k]`` and column ``cols[k]``;
    entries are dimensionless multiples of ``unit``, and time evolution
    uses angular frequencies H*unit (hbar = 1).  Zeros are dropped, the
    rest are sorted by row, then column, and every array is read-only;
    ``values`` is float64 for real input and complex128 otherwise.  No
    N x N array is formed except on reading ``matrix``.
    """

    __slots__ = ("dimension", "rows", "cols", "values", "unit")

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
        self.dimension, self.rows, self.cols = n, rows, cols
        self.values, self.unit = values, float(unit)

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


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-1j * np.outer(a, b)) bit for bit, in one array: the exponent
    -1j * x is (+0.0, -x) exactly, so -a b is written into the imaginary
    part of a zeroed table and exp runs in place."""
    import numpy as np
    table = np.zeros((a.size, b.size), dtype=complex)
    np.multiply.outer(a, -b, out=table.imag)
    return np.exp(table, out=table)


class Grid:
    """The uniform grid ``np.linspace(0, t_max, size)``, computed where read.

    An int, a slice or an index array selects points with linspace's own
    bits: point i is i * step + 0.0, or i / (size - 1) * t_max + 0.0 when
    the step t_max / (size - 1) rounds to 0, and the last point is t_max.
    """

    __slots__ = ("size", "t_max")

    def __init__(self, size: int, t_max: float):
        self.size, self.t_max = int(size), float(t_max)

    def __getitem__(self, key):
        import numpy as np
        n, t_max = self.size, self.t_max
        div = n - 1
        step = t_max / div
        if isinstance(key, slice):
            i = np.arange(*key.indices(n))
        elif isinstance(key, (int, np.integer)) or not np.ndim(key):
            # one point in Python floats, whose arithmetic is numpy's: a
            # few array operations per point would cost the small scans
            # more than the whole linspace did
            i = range(n)[key]
            if i == div:
                return np.float64(t_max)
            return np.float64((i / div * t_max if step == 0 else i * step)
                              + 0.0)
        else:
            i = np.asarray(key)
            if np.any((i < -n) | (i >= n)):
                raise IndexError("grid index out of range")
            i = np.where(i < 0, i + n, i)
        t = (i / div * t_max if step == 0 else i * step) + 0.0
        return np.where(i == div, t_max, t)


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

    Every H, the 2 x 2 spin included, is split into the connected
    components of its nonzero pattern (for the cavity models, the
    conserved photon-number blocks), and the blocks of each size are
    diagonalized in one stacked ``eigh``.  The blocks come from the
    stored entries alone, so the route stays independent of any model
    labels or exact levels.
    Angular frequencies ``omegas`` (ascending) and weights |<k|psi0>|^2
    span all blocks; the eigenvalues and eigenvectors are dropped once
    psi0 is projected on them.  The survival
    amplitude <psi0|psi(t)> = sum_k |a_k|^2 exp(-i w_k t) and the fidelity
    need only the occupied weights, so no state is ever formed.
    """

    __slots__ = ("omegas", "weights", "_occ_w", "_occ_omega", "_occ_nu")

    def __init__(self, hamiltonian: Hamiltonian, psi0: np.ndarray):
        import numpy as np
        psi0 = np.asarray(psi0, dtype=complex).ravel()
        if psi0.shape[0] != hamiltonian.dimension:
            raise ValueError("psi0 dimension mismatch")
        norm = float(np.linalg.norm(psi0))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"psi0 not normalized: |psi0| = {norm!r}")
        h, dim = hamiltonian, hamiltonian.dimension
        indices, sizes = _components(dim, h.rows, h.cols)
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
        # np.unique would import numpy.ma on first use
        for size in np.flatnonzero(np.bincount(sizes)):
            members = np.flatnonzero(sizes == size)
            slots = starts[members, None] + np.arange(size)
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
                                 @ psi0[indices[slots]][..., None])[..., 0]
        # ascending across blocks, as one solve of the whole matrix gives,
        # so the scan sums the levels in the same order
        order = np.argsort(w, kind="stable")
        # frequencies past the float range are inf here; the step rule
        # of generic_gamma refuses their spread
        with np.errstate(over="ignore", invalid="ignore"):
            self.omegas = w[order] * hamiltonian.unit
        self.weights = np.abs(amplitudes[order]) ** 2
        # the phase advance is unitary by construction; what can fail is
        # the orthonormality of the eigenbasis, which moves the weights
        total = float(self.weights.sum())
        if not abs(total - norm * norm) <= NORM_TOL:
            raise AssertionError(
                f"eigenbasis not orthonormal: weights sum to {total!r}, "
                f"|psi0|^2 = {norm * norm!r}")
        occupied = self.weights > WEIGHT_FLOOR
        self._occ_w = self.weights[occupied]
        self._occ_omega = self.omegas[occupied]
        with np.errstate(over="ignore", invalid="ignore"):
            self._occ_nu = (self._occ_omega
                            - self._occ_omega @ self._occ_w / total)

    def survival_amplitude(self, times) -> np.ndarray:
        """<psi0|psi(t)> for a few arbitrary times, via the occupied levels
        only; whole grids go through `survival_grid`."""
        import numpy as np
        t = np.atleast_1d(np.asarray(times, dtype=float)).ravel()
        return _phases(t, self._occ_omega) @ self._occ_w

    def survival_grid(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """(index, overlap): <psi0|psi(t)> at ``times[index]`` on a uniform
        grid ``times``, a `Grid` or the array ``linspace(0, t_max, n)``,
        wherever a return can be.  Only the grid points it uses are read.

        For k = a*B + b, exp(-i w t_k) = exp(-i w t_{aB}) exp(-i w t_b),
        so the amplitude on the whole grid is the (n/B x levels) @
        (levels x B) product of weighted coarse factors and fine factors,
        taken from the grid's own points; coarse rows go in chunks under
        CHUNK_ENTRIES, and the fine factors are the scan's one
        levels x B table.  A coarse pass takes that product with every
        COARSE_STRIDE-th fine column and the last point's only, for A(t)
        and for D(t) = sum_k p_k h nu_k exp(-i w_k t), h being
        COARSE_STRIDE // 2 steps and nu_k as in `_prune`, whose shifted
        amplitude has h |B'| = |D|.  Within h of such a point t_c,
        |A| <= |A(t_c)| + |D(t_c)| + h^2 sigma^2 / 2, and no grid point is
        further than h from one.  The fine pass multiplies out the rows of
        B points that meet a window [t_c - h - 2 dt, t_c + h + dt] around
        a t_c where this bound reaches `_prune`'s floor for
        MAX_FIDELITY_TOL less dt sum_k p_k |nu_k| (at least dt |B'|): every
        grid peak that `_prune` can keep is then evaluated with both
        neighbours and the point before them.  Each product takes at least
        two rows, because numpy multiplies a single row by gemv, which
        rounds differently; a row that the whole-grid product took alone,
        in a chunk of one, is taken alone.  So every value equals the
        whole-grid product's bit for bit.
        """
        import numpy as np
        n, omega, w = times.size, self._occ_omega, self._occ_w
        fine, rows = _grid_shape(n, omega.size)
        coarse = times[::fine]
        cols = np.arange(0, fine, COARSE_STRIDE)
        if (n - 1) % fine % COARSE_STRIDE:
            cols = np.append(cols, (n - 1) % fine)
        reach = COARSE_STRIDE // 2
        dt = times[1] - times[0]
        hnu = reach * dt * self._occ_nu
        # the bound needs no particular bits: it runs before the fine
        # factors exist, on its own factors of the columns, and its coarse
        # factors are products exp(-i w t_{a1 S B}) exp(-i w t_{a2 B}) for
        # a = a1 S + a2: about 2 sqrt(n/B) exponentials per level instead
        # of n/B, multiplied out in chunks of COARSE_ENTRIES
        chunk_rows = max(1, COARSE_ENTRIES // omega.size)
        split = min(math.isqrt(coarse.size - 1) + 1, chunk_rows)
        lows = _phases(coarse[:split], omega)
        edge = _phases(omega, times[cols])
        pair = np.concatenate((edge * w[:, None], edge * (w * hnu)[:, None]),
                              axis=1)
        chunk = chunk_rows // split * split
        bound = np.empty((-(-coarse.size // split) * split, cols.size))
        for start in range(0, coarse.size, chunk):
            tops = _phases(coarse[start:start + chunk:split], omega)
            both = np.abs((tops[:, None] * lows).reshape(-1, omega.size)
                          @ pair)
            bound[start:start + both.shape[0]] = (both[:, :cols.size]
                                                  + both[:, cols.size:])
        bound = bound[:coarse.size] + (w @ hnu ** 2) / 2
        floor, margin = _floor(self, times, MAX_FIDELITY_TOL)
        # a kept peak has fid >= floor - dt |B'|; the coarse values round
        # as fid does, up to one ulp per level in each sum
        floor -= (w @ np.abs(dt * self._occ_nu)
                  + 2 * (margin + omega.size * np.spacing(1.0)))
        row, col = np.nonzero(bound >= floor)
        at = row * fine + cols[col]
        at = at[at < n]
        # rows from each window's first point to its last, as +1 and -1
        # marks whose running sum is positive inside a window
        marks = np.zeros(coarse.size + 1, dtype=np.int64)
        np.add.at(marks, np.maximum(at - reach - 2, 0) // fine, 1)
        np.add.at(marks, np.minimum(at + reach + 1, n - 1) // fine + 1, -1)
        need = np.flatnonzero(np.cumsum(marks[:-1]))
        factors = _phases(omega, times[:fine])
        out = [np.empty((0, fine), dtype=complex)]
        for start in range(0, coarse.size, rows):
            batch = need[(start <= need) & (need < start + rows)]
            if batch.size:
                # a lone row goes in twice, unless its chunk has one row
                alone = batch.size == 1 < min(rows, coarse.size - start)
                head = _phases(coarse[batch.repeat(1 + alone)], omega)
                head *= w
                out.append((head @ factors)[:batch.size])
        index = (need[:, None] * fine + np.arange(fine)).ravel()
        keep = index < n
        return index[keep], np.concatenate(out).ravel()[keep]

    def fidelity(self, times) -> np.ndarray:
        return abs(self.survival_amplitude(times))

    def mean_energy(self) -> float:
        """<psi0|H|psi0> = unit * sum_k w_k lambda_k, constant in time."""
        return float(self.weights @ self.omegas)

    def occupied_spread(self) -> float:
        """Spread of occupied angular frequencies; zero means stationary.
        A frequency past the float range is inf, and so is the spread
        (in Python floats, without a warning)."""
        if self._occ_omega.size == 0:
            return 0.0
        hi, lo = float(self._occ_omega.max()), float(self._occ_omega.min())
        return hi - lo if -math.inf < lo and hi < math.inf else math.inf


class EvolutionResult:
    """The survival amplitude on a uniform grid, where a return can be.

    ``times`` is the whole grid, a `Grid` from `evolve`;
    ``fidelity_track`` holds |<psi0|psi(t)>| at ``times[index]``, for
    the ``overlap`` that `SpectralPropagator.survival_grid` gives there,
    ``index`` ascending.
    """

    __slots__ = ("times", "index", "fidelity_track", "propagator")

    def __init__(self, times, index, overlap, propagator: SpectralPropagator):
        self.times, self.index, self.propagator = times, index, propagator
        self.fidelity_track = abs(overlap)


def evolve(propagator: SpectralPropagator, t_max: float, *,
           steps: int) -> EvolutionResult:
    """The survival amplitude on a uniform grid of ``steps`` points over
    [0, t_max], evaluated only near the points where a return can be."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    times = Grid(steps, t_max)
    return EvolutionResult(times, *propagator.survival_grid(times),
                           propagator)


# Grid peaks this far below full fidelity are still candidates; the strict
# acceptance test happens on the refined maximum, so the scan threshold
# only needs to beat the "fidelity varies < 0.1 per step" grid premise.
SCAN_BAND = 0.1
# Exact-mode return certificate: occupied levels of at least this weight
# must be back in phase within CERTIFICATE_TOL rad (measured residuals in
# CHANGES.md; lighter levels of truncated cavity matrices never return).
CERTIFICATE_FLOOR = 1e-8
CERTIFICATE_TOL = 1e-6


def _floor(prop: SpectralPropagator, times: np.ndarray,
           fidelity_tol: float) -> Tuple[float, float]:
    """(floor, margin) of `_prune` on the uniform grid ``times``."""
    import numpy as np
    w, nu = prop._occ_w, prop._occ_nu
    dt, light = times[1] - times[0], w < CERTIFICATE_FLOOR
    margin = (32 * np.spacing(1.0 + np.max(np.abs(prop._occ_omega)) * times[-1])
              + prop.weights.sum() - w.sum()
              + dt * (w[light] @ np.abs(nu[light])))
    # (dt*nu)^2, not dt^2*nu^2: nu^2 alone overflows for huge frequencies
    return 1.0 - fidelity_tol - (w @ (dt * nu) ** 2) / 2 - margin, margin


def _prune(prop: SpectralPropagator, times: np.ndarray, fid: np.ndarray,
           peaks: np.ndarray, fidelity_tol: float, certify: bool) -> np.ndarray:
    """The grid peaks i (fidelity ``fid``) whose bracket
    [t_i - dt, t_i + dt] can hold a return.

    With nu_k = omega_k - sum_j p_j omega_j, B(t) = sum_k p_k exp(-i nu_k t)
    has |B| = |A| and |B''| <= sigma^2 = sum_k p_k nu_k^2, so there
    |A| <= fid_i + dt |B'(t_i)| + dt^2 sigma^2 / 2.  A certified return
    also needs heavy levels adjacent in frequency to be in phase at t_i
    within |nu_k - nu_j| dt + 2 CERTIFICATE_TOL.  The margin covers
    rounding and the levels below CERTIFICATE_FLOOR.
    """
    import numpy as np
    floor, margin = _floor(prop, times, fidelity_tol)
    heavy = prop._occ_w >= CERTIFICATE_FLOOR
    w, nu, dt = prop._occ_w[heavy], prop._occ_nu[heavy], times[1] - times[0]
    phases = _phases(times[peaks], nu)                      # ascending in nu
    # an elementwise sum: a threaded complex gemv of this size costs ms
    ok = fid + dt * np.abs((phases * (nu * w)).sum(axis=1)) >= floor
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

    Grid peaks after t=0 are the evaluated points whose two grid
    neighbours are evaluated and no higher, and the last grid point when
    the one before it is evaluated and no higher; of a run of equal
    peaks only the first counts.  `evolve` evaluates every peak that
    `_prune` can keep with its neighbours and the point before them, so
    the peaks `_prune` keeps are those of the whole grid.  They are
    refined in time order by `_refine`; the first refined peak reaching
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
    if not 0 < fidelity_tol <= MAX_FIDELITY_TOL:
        raise ValueError("fidelity_tol must be in (0, 1e-3]")
    fid, index = result.fidelity_track, result.index
    times, prop = result.times, result.propagator
    n = times.size
    step = np.diff(index)
    # positions in the evaluated arrays
    peaks = np.flatnonzero((step[:-1] == 1) & (step[1:] == 1)
                           & (fid[1:-1] >= fid[:-2])
                           & (fid[1:-1] >= fid[2:])) + 1
    if step.size and index[-1] == n - 1 and step[-1] == 1 \
            and fid[-1] >= fid[-2]:
        peaks = np.append(peaks, fid.size - 1)
    peaks = peaks[fid[peaks] >= 1.0 - SCAN_BAND]
    # one bracket per plateau
    peaks = peaks[np.diff(index[peaks], prepend=-2) != 1]
    certified = prop.omegas[prop.weights >= CERTIFICATE_FLOOR]
    size = max(1, CHUNK_ENTRIES // prop._occ_w.size)
    for start in range(0, peaks.size, size):
        chunk = peaks[start:start + size]
        for i in _prune(prop, times, fid[chunk], index[chunk],
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
    spread = prop.occupied_spread()
    if spread == 0.0:
        return PhaseReport(method="oracle", unit=hamiltonian.unit,
                           tau_cycles=None, tau=math.nan,
                           phi_over_pi=None, phi=0.0, gamma=0.0,
                           mean_energy=prop.mean_energy(),
                           branch_integers={}, stationary=True, fidelity=1.0)
    # 4096 points per natural cycle 2*pi/unit, and at least enough that
    # no two occupied phases drift apart by more than SCAN_BAND radians
    # per step, so no return peak falls between grid points.  Both
    # products may be inf, so they meet the cap before any rounding up
    cycles = max(1.0, float(t_max) * hamiltonian.unit / TWO_PI)
    span = spread * t_max / SCAN_BAND
    needed = math.ceil(span) + 1 if span < math.inf else span
    if needed > MAX_STEPS:
        raise NoReturnError(
            f"the occupied frequency spread {spread:.6g} needs "
            f"{needed} grid steps up to t_max = {t_max:g}, above the "
            f"cap of {MAX_STEPS}; set a shorter t_max")
    steps = max(4096 * math.ceil(cycles) if cycles <= MAX_STEPS // 4096
                else MAX_STEPS, needed)
    e_mean = prop.mean_energy()
    result = evolve(prop, t_max, steps=steps)
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
