"""Brute-force route: propagation, period detection, gamma.

The propagator is checked against scipy's matrix exponential, which
shares no code with the phase-advance implementation.
"""

import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import block_diag, expm

from aaphase import oracle
from aaphase.config import load_config
from aaphase.oracle import (
    CHUNK_ENTRIES,
    FINE_BLOCK,
    Grid,
    Hamiltonian,
    NoReturnError,
    SpectralPropagator,
    _components,
    _phases,
    _refine,
    detect_period,
    evolve,
    generic_gamma,
)

from conftest import circ, whole_grid_result, whole_grid_survival
from mutants import CUTS, SOURCE, mutate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# every shipped config whose model has a matrix: 8, dimensions 2 to 2880
MATRIX_CONFIGS = sorted(p.name for p in CONFIGS.glob("*.ini")
                        if p.name != "partial_spectrum.ini")

TWO_PI = 2.0 * math.pi


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def direct_survival(prop, times, chunk=4096):
    """The per-time path over the whole grid, a few thousand times at once."""
    return np.concatenate([prop.survival_amplitude(times[i:i + chunk])
                           for i in range(0, times.size, chunk)])


def diagonal_propagator(omegas, weights):
    h = Hamiltonian.from_dense(np.diag(np.asarray(omegas, dtype=float)))
    psi0 = np.sqrt(np.asarray(weights, dtype=float) / np.sum(weights))
    return SpectralPropagator(h, psi0.astype(complex))


# more entries than CHUNK_ENTRIES
CHUNKED_DIMENSION = math.isqrt(CHUNK_ENTRIES) + 100


def entries(*triples):
    """Hamiltonian.__init__ arguments (rows, cols, values) of triples."""
    rows, cols, values = zip(*triples)
    return list(rows), list(cols), list(values)


class TestDenseHamiltonian:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Hamiltonian.from_dense(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="positive"):
            Hamiltonian.from_dense(np.eye(2), unit=0.0)
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian.from_dense(np.eye(2), unit=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN deviation would otherwise hide the asymmetry next to it
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian.from_dense(np.array([[bad, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian.from_dense(np.array([[1.0, bad], [bad, 1.0]]))

    def test_asymmetry_in_last_row_chunk_rejected(self, rng):
        n = CHUNKED_DIMENSION
        m = rng.normal(size=(n, n))
        m = m + m.T
        Hamiltonian.from_dense(m)
        m[n - 1, n - 2] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian.from_dense(m)

    def test_complex_hermiticity_uses_the_conjugate(self, rng):
        n = CHUNKED_DIMENSION
        sym = rng.normal(size=(n, n))
        anti = rng.normal(size=(n, n))
        # sigma_y-type imaginary part: antisymmetric, so H = H^dag
        h = Hamiltonian.from_dense((sym + sym.T) + 1j * (anti - anti.T))
        assert np.iscomplexobj(h.values) and np.iscomplexobj(h.matrix)
        # a symmetric imaginary part gives H = H^T but not H^dag
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian.from_dense((sym + sym.T) + 1j * (anti + anti.T))

    def test_stores_sorted_entries_not_the_matrix(self, rng):
        m = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, -3.0]])
        h = Hamiltonian.from_dense(m)
        assert (h.dimension, h.rows.tolist(), h.cols.tolist(),
                h.values.tolist()) == (3, [0, 0, 2, 2], [0, 2, 0, 2],
                                       [1.0, 2.0, 2.0, -3.0])
        assert np.array_equal(h.matrix, m) and not np.shares_memory(h.values, m)
        assert m.flags.writeable
        # entries in any order come out sorted by row, then column
        order = rng.permutation(4)
        shuffled = Hamiltonian(3, h.rows[order], h.cols[order],
                               h.values[order])
        assert np.array_equal(shuffled.rows, h.rows)
        assert np.array_equal(shuffled.cols, h.cols)
        assert np.array_equal(shuffled.values, h.values)
        assert Hamiltonian.from_dense(np.eye(2, dtype=int)).values.dtype \
            == np.float64

    def test_matrix_frozen(self):
        h = Hamiltonian.from_dense(np.eye(2))
        assert h.dimension == 2
        for array in (h.rows, h.cols, h.values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        # the dense view is a new array on every read
        h.matrix[0, 0] = 5.0
        assert h.matrix[0, 0] == 1.0

    def test_missing_partner_counts_as_zero(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(3, *entries((0, 0, 1.0), (0, 2, 0.5)))
        # below the tolerance a one-sided entry is accepted and kept
        h = Hamiltonian(3, *entries((0, 0, 1.0), (0, 2, 1e-13)))
        assert h.values.tolist() == [1.0, 1e-13]

    def test_conjugate_partner(self):
        h = Hamiltonian(2, *entries((0, 1, 0.5j), (1, 0, -0.5j)))
        assert np.array_equal(h.matrix, np.array([[0, 0.5j], [-0.5j, 0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(2, *entries((0, 1, 0.5j), (1, 0, 0.5j)))

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(2, *entries((0, 0, 1.0 + 1e-3j), (1, 1, 2.0)))
        Hamiltonian(2, *entries((0, 0, 1.0 + 1e-13j), (1, 1, 2.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(1.0, math.nan),
                                     complex(math.inf, 0.0)])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0)])
    def test_non_finite_entry_anywhere(self, bad, at):
        triples = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 2.0}
        triples[at] = bad
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian(2, *entries(*((i, j, v)
                                      for (i, j), v in triples.items())))

    def test_explicit_zeros_dropped(self):
        h = Hamiltonian(3, *entries((0, 0, 1.0), (1, 2, 0.0), (2, 1, -0.0),
                                    (2, 2, 0.0)))
        assert (h.rows.tolist(), h.cols.tolist()) == ([0], [0])
        # a zero never pairs with, or stands for, a missing partner
        with pytest.raises(ValueError, match="Hermitian"):
            Hamiltonian(2, *entries((0, 1, 1.0), (1, 0, 0.0)))

    def test_duplicate_entry_refused(self):
        with pytest.raises(ValueError, match=r"duplicate entry \(1, 0\)"):
            Hamiltonian(2, *entries((0, 1, 0.5), (1, 0, 0.25), (1, 0, 0.25)))

    def test_index_outside_dimension_refused(self):
        with pytest.raises(ValueError, match="inside dimension"):
            Hamiltonian(2, *entries((0, 2, 1.0), (2, 0, 1.0)))
        with pytest.raises(ValueError, match="inside dimension"):
            Hamiltonian(2, *entries((-1, 0, 1.0)))


class TestPropagator:
    def test_psi0_validation(self):
        h = Hamiltonian.from_dense(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            SpectralPropagator(h, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not normalized"):
            SpectralPropagator(h, np.array([1.0, 1.0]))

    def test_against_matrix_exponential(self, rng):
        # independent route: psi(t) = expm(-iHt) psi0
        dim = 6
        H = random_hermitian(rng, dim)
        psi0 = random_state(rng, dim)
        h = Hamiltonian.from_dense(H, unit=1.3 / 0.7)
        prop = SpectralPropagator(h, psi0)
        for t in (0.3, 1.7, 4.9):
            U = expm(-1j * H * (1.3 / 0.7) * t)
            want_state = U @ psi0
            want_surv = complex(np.vdot(psi0, want_state))
            got_surv = complex(prop.survival_amplitude(t)[0])
            assert abs(got_surv - want_surv) < 1e-12

    def test_unitarity_and_energy_conservation(self, rng):
        # states from the independent route: psi(t) = expm(-iHt) psi0
        dim = 8
        H = random_hermitian(rng, dim)
        h = Hamiltonian.from_dense(H)
        psi0 = random_state(rng, dim)
        prop = SpectralPropagator(h, psi0)
        assert abs(prop.weights.sum() - 1.0) < 1e-12
        e0 = prop.mean_energy()
        for t in np.linspace(0.0, 9.0, 13):
            state = expm(-1j * H * t) @ psi0
            assert abs(np.vdot(state, H @ state).real - e0) < 1e-11
            assert abs(prop.fidelity(float(t))[0]
                       - abs(np.vdot(psi0, state))) < 1e-12

    def test_stationary_spread(self):
        h = Hamiltonian.from_dense(np.diag([2.0, 2.0]))
        prop = SpectralPropagator(h, np.array([0.6, 0.8]))
        assert prop.occupied_spread() == 0.0

    def test_expectation_value(self):
        h = Hamiltonian.from_dense(np.diag([2.0, 3.0]), unit=2.0)
        prop = SpectralPropagator(h, np.array([0.6, 0.8]))
        assert prop.mean_energy() == pytest.approx(
            2.0 * (0.36 * 2 + 0.64 * 3), rel=1e-14)

    def test_real_matrix_energy_matches_complex_form(self, rng):
        H = random_hermitian(rng, 9).real
        psi0 = random_state(rng, 9)
        want = float(np.real(np.vdot(psi0, H.astype(complex) @ psi0)))
        got = SpectralPropagator(Hamiltonian.from_dense(H, unit=1.5),
                                 psi0).mean_energy()
        assert got == pytest.approx(1.5 * want, rel=1e-13)

    def test_nan_psi0_rejected(self):
        h = Hamiltonian.from_dense(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="not normalized"):
            SpectralPropagator(h, np.array([math.nan, 1.0]))

    def test_weights_must_sum_to_the_norm(self, monkeypatch):
        # an eigenbasis that is not orthonormal moves the weights
        def skewed(matrix):
            w, v = np.linalg.eigh(matrix)
            return w, v * 1.001

        monkeypatch.setattr(oracle, "eigh", skewed)
        with pytest.raises(AssertionError, match="orthonormal"):
            SpectralPropagator(Hamiltonian.from_dense(np.diag([1.0, 2.0])),
                               np.array([0.6, 0.8]))


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
        dim = sum(sizes)
        perm = rng.permutation(dim)
        H = block_diag(*blocks)[np.ix_(perm, perm)]
        psi0 = random_state(rng, dim)
        h = Hamiltonian.from_dense(H, unit=1.3 / 0.7)
        prop = SpectralPropagator(h, psi0)
        assert _components(dim, h.rows, h.cols)[1].size == len(blocks)
        assert np.max(np.abs(np.sort(prop.omegas) / (1.3 / 0.7)
                             - np.linalg.eigvalsh(H))) < 1e-12
        times = np.linspace(0.0, 6.0, 25)
        survival = prop.survival_amplitude(times)
        for t, got in zip(times, survival):
            want_state = expm(-1j * H * (1.3 / 0.7) * t) @ psi0
            assert abs(got - np.vdot(psi0, want_state)) < 1e-12

    def test_chain_of_blocks_stays_one_component(self, rng):
        sizes = [3, 2, 4, 1, 3]
        H = block_diag(*[random_hermitian(rng, s) for s in sizes])
        assert len(components(H)) == len(sizes)
        # each block touches the next through one entry (and its mirror)
        ends = np.cumsum(sizes)[:-1]
        H[ends - 1, ends] = H[ends, ends - 1] = 0.25
        perm = rng.permutation(H.shape[0])
        found = components(H[np.ix_(perm, perm)])
        assert len(found) == 1
        assert np.array_equal(found[0], np.arange(H.shape[0]))


def per_block_solve(h, psi0):
    """(eigenvalues, amplitudes) in ascending order, one ``eigh`` per
    breadth-first component of the dense matrix, concatenated."""
    m = h.matrix
    values, amplitudes = [], []
    for idx in bfs_components(*pattern(m)):
        w, v = np.linalg.eigh(m[np.ix_(idx, idx)])
        values.append(w)
        amplitudes.append(v.conj().T @ psi0[idx])
    w = np.concatenate(values)
    order = np.argsort(w, kind="stable")
    return w[order], np.concatenate(amplitudes)[order]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStackedSolve:
    """Each stacked ``eigh`` matches one ``eigh`` per block, bit for bit,
    and so does the order of the levels, ties included."""

    @pytest.mark.parametrize("name", MATRIX_CONFIGS)
    def test_shipped_configs(self, name):
        run = load_config(CONFIGS / name)
        h, psi0 = run.dense()
        prop = SpectralPropagator(h, psi0)
        want_w, want_a = per_block_solve(h, psi0)
        assert_bitwise(prop.omegas, want_w * h.unit)
        assert_bitwise(prop.weights, np.abs(want_a) ** 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_complex_blocks(self, seed):
        rng = np.random.default_rng(seed)
        five = random_hermitian(rng, 5)
        blocks = [random_hermitian(rng, 1), random_hermitian(rng, 2),
                  five, five]
        # scattered over shuffled indices, each block kept in its own
        # order, so the two equal blocks tie level for level
        H = np.zeros((13, 13), dtype=complex)
        spots = np.split(rng.permutation(13), [1, 3, 8])
        for block, idx in zip(blocks, spots):
            idx = np.sort(idx)
            H[np.ix_(idx, idx)] = block
        h = Hamiltonian.from_dense(H)
        psi0 = random_state(rng, H.shape[0])
        prop = SpectralPropagator(h, psi0)
        assert _components(13, h.rows, h.cols)[1].size == 4
        assert np.count_nonzero(np.diff(prop.omegas) == 0) == 5
        want_w, want_a = per_block_solve(h, psi0)
        assert_bitwise(prop.omegas, want_w)
        assert_bitwise(prop.weights, np.abs(want_a) ** 2)


def bfs_components(n, rows, cols):
    """Components of the pattern by breadth-first search: ordered by
    their least index, indices ascending in each."""
    linked = [set() for _ in range(n)]
    for i, j in zip(rows, cols):
        linked[i].add(int(j))
        linked[j].add(int(i))
    seen, out = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            queue = [start]
            for node in queue:          # the queue grows while it is read
                fresh = sorted(linked[node] - seen)
                seen.update(fresh)
                queue.extend(fresh)
            out.append(np.array(sorted(queue)))
    return out


def pattern(matrix):
    """(dimension, rows, cols) of the nonzero entries of a matrix."""
    return (matrix.shape[0], *np.nonzero(matrix))


def components(matrix):
    indices, sizes = _components(*pattern(matrix))
    return np.split(indices, np.cumsum(sizes)[:-1])


def sparse_hermitian(seed, kind):
    """A random sparse pattern of a few components; ``imaginary`` has
    only purely imaginary couplings off the diagonal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    edges = int(rng.integers(0, n + 1))
    i, j = rng.integers(0, n, edges), rng.integers(0, n, edges)
    values = {"real": rng.normal(size=edges),
              "complex": rng.normal(size=edges) + 1j * rng.normal(size=edges),
              "imaginary": 1j * rng.normal(size=edges)}[kind]
    m = np.zeros((n, n), dtype=float if kind == "real" else complex)
    m[i, j] = values
    m[j, i] = np.conj(values)
    m[i[i == j], i[i == j]] = 1.0               # a diagonal stays real
    return m


def assert_same_components(n, rows, cols):
    indices, sizes = _components(n, np.asarray(rows), np.asarray(cols))
    got = np.split(indices, np.cumsum(sizes)[:-1]) if n else []
    want = bfs_components(n, rows, cols)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestComponents:
    @pytest.mark.parametrize("kind", ["real", "complex", "imaginary"])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sparse_patterns(self, seed, kind):
        assert_same_components(*pattern(sparse_hermitian(seed, kind)))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sided_entries_link(self, seed):
        # a coupling below the Hermiticity tolerance may have no mirror
        assert_same_components(
            *pattern(np.triu(sparse_hermitian(seed, "complex"))))
        assert_same_components(
            *pattern(np.tril(sparse_hermitian(seed, "real"))))

    def test_zero_rows_are_their_own_components(self, rng):
        m = sparse_hermitian(3, "complex")
        lone = rng.choice(m.shape[0], m.shape[0] // 3, replace=False)
        m[lone, :] = m[:, lone] = 0.0
        assert_same_components(*pattern(m))
        assert len(components(np.zeros((5, 5)))) == 5

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_long_path(self, rng, shuffle):
        n = 4000
        rows = np.r_[np.arange(n - 1), np.arange(1, n)]
        cols = np.r_[np.arange(1, n), np.arange(n - 1)]
        if shuffle:
            order = rng.permutation(n)
            rows, cols = order[rows], order[cols]
        assert_same_components(n, rows, cols)
        assert _components(n, rows, cols)[1].tolist() == [n]

    def test_star(self):
        m = np.zeros((300, 300), dtype=complex)
        m[171, :], m[:, 171] = 0.5j, -0.5j
        m[171, 171] = 1.0
        assert_same_components(*pattern(m))

    def test_interleaved_blocks(self, rng):
        sizes, stride = [5, 9, 1, 7], 4
        m = np.zeros((stride * max(sizes),) * 2, dtype=complex)
        for offset, size in enumerate(sizes):
            idx = offset + stride * np.arange(size)
            m[np.ix_(idx, idx)] = random_hermitian(rng, size)
        assert_same_components(*pattern(m))
        assert len(components(m)) == len(sizes) + stride * max(sizes) \
            - sum(sizes)


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestGrid:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(2, 3000),
           t_max=st.floats(5e-324, 1e300),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(size=2, t_max=1.0, seed=0)
    @example(size=7, t_max=5e-324, seed=1)      # the step rounds to 0
    @example(size=4099, t_max=1e300, seed=2)
    def test_points_are_linspace_bits(self, size, t_max, seed):
        want = np.linspace(0.0, t_max, size)
        grid = Grid(size, t_max)
        assert grid.size == size
        every = [grid[i] for i in range(size)]
        assert all(type(t) is np.float64 for t in every)
        assert same_bits(np.array(every), want)
        assert same_bits(grid[-1], want[-1]) and grid[-1] == t_max
        assert same_bits(grid[np.int64(-size)], want[0])
        for key in (slice(None), slice(None, None, 16), slice(3, -2, 5),
                    slice(None, None, -3), slice(size, None)):
            assert same_bits(grid[key], want[key])
        picks = np.random.default_rng(seed).integers(-size, size, 50)
        assert same_bits(grid[picks], want[picks])
        assert same_bits(grid[picks.tolist()], want[picks])
        assert same_bits(grid[:], want)
        for bad in (size, -size - 1, np.array([0, size])):
            with pytest.raises(IndexError):
                grid[bad]


FREQUENCIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                     1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestPhases:
    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(FREQUENCIES, max_size=6),
           b=st.lists(FREQUENCIES, max_size=6))
    @example(a=[0.0, -0.0, 5e-324, -2.5, 1e300], b=[-0.0, 1e-310, 1e300, 3.0])
    def test_equals_the_outer_exponential(self, a, b):
        """Also where a product overflows or the exponential is NaN."""
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        with np.errstate(all="ignore"):
            want = np.exp(-1j * np.outer(a, b))
            got = _phases(a, b)
        assert got.dtype == want.dtype and same_bits(got, want)


@st.composite
def commensurate_levels(draw):
    """Levels p/q with random weights, so that returns recur, or random
    real levels, on a grid of a few periods."""
    count = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    q = draw(st.integers(1, 4))
    values = (rng.integers(-20, 21, count) / q if draw(st.booleans())
              else rng.uniform(-20.0, 20.0, count))
    weights = rng.uniform(0.01, 1.0, count) ** draw(st.sampled_from((1, 8)))
    return values, weights, draw(st.floats(0.05, 3.0)) * TWO_PI * q


def documented_windows(prop, times, block):
    """(points, gap): the grid points in blocks of ``block`` that meet a
    window [t_c - h - 2 dt, t_c + h + dt] around a coarse point t_c where
    |A(t_c)| + |D(t_c)| + h^2 sigma^2 / 2 reaches `_prune`'s floor for
    MAX_FIDELITY_TOL less dt sum_k p_k |nu_k| and the rounding slack
    2 (margin + levels ulp), each sum taken directly; and the least
    distance of a coarse bound from that floor."""
    n, w, omega = times.size, prop._occ_w, prop._occ_omega
    nu = prop._occ_nu
    width = oracle._coarse_width(n, omega.size)
    reach = oracle.COARSE_STRIDE // 2
    cols = list(range(0, width, oracle.COARSE_STRIDE)) + [(n - 1) % width]
    coarse = np.unique([r + c for r in range(0, n, width) for c in cols
                        if r + c < n])
    dt = times[1] - times[0]
    phases = np.exp(-1j * np.outer(times[coarse], omega))
    bound = (np.abs(phases @ w) + np.abs(phases @ (w * reach * dt * nu))
             + w @ (reach * dt * nu) ** 2 / 2)
    floor, margin = oracle._floor(prop, times, oracle.MAX_FIDELITY_TOL)
    floor -= w @ np.abs(dt * nu) + 2 * (margin + omega.size * np.spacing(1.0))
    points = set()
    for c in coarse[bound >= floor]:
        first = max(c - reach - 2, 0) // block * block
        last = min(c + reach + 1, n - 1) // block * block + block
        points.update(range(first, min(last, n)))
    return sorted(points), float(np.min(np.abs(bound - floor)))


class TestSurvivalGrid:
    @settings(max_examples=60, deadline=None)
    @given(case=commensurate_levels(),
           steps=st.sampled_from([2, 3, 17, 4099, 64 * 64, 2 ** 14 + 1]),
           chunk=st.sampled_from([CHUNK_ENTRIES, 64, 200, 1000]),
           block=st.sampled_from([FINE_BLOCK, 2, 7, 16]))
    def test_windows_equal_the_whole_grid(self, case, steps, chunk, block):
        """At every evaluated point the windowed overlap is the whole-grid
        product's in blocks of the same length, bit for bit, also with
        blocks in several chunks and a last chunk of one block."""
        values, weights, t_max = case
        prop = diagonal_propagator(values, weights)
        times = np.linspace(0.0, t_max, steps)
        with mock.patch.object(oracle, "CHUNK_ENTRIES", chunk), \
                mock.patch.object(oracle, "FINE_BLOCK", block):
            index, overlap = prop.survival_grid(times)
            want = whole_grid_survival(prop, times)
        assert np.all(np.diff(index) > 0)
        assert index.size == 0 or 0 <= index[0] and index[-1] < steps
        assert same_bits(overlap, want[index])
        # t = 0 is a full return, so its point is always evaluated
        assert index.size and index[0] == 0 and overlap[0] == want[0]

    @settings(max_examples=30, deadline=None)
    @given(levels=st.integers(1, 300),
           steps=st.sampled_from([2, 3, 4099, 64 * 64, 2 ** 16 + 1]),
           scale=st.floats(0.0, 1e3),
           t_max=st.floats(1e-3, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_matches_direct_path(self, levels, steps, scale, t_max, seed):
        rng = np.random.default_rng(seed)
        prop = diagonal_propagator(rng.uniform(-scale, scale, levels),
                                   rng.uniform(0.01, 1.0, levels))
        times = np.linspace(0.0, t_max, steps)
        index, overlap = prop.survival_grid(times)
        assert times[-1] == t_max and index.shape == overlap.shape
        want = direct_survival(prop, times[index])
        assert np.max(np.abs(overlap - want)) <= 1e-12

    def test_fine_blocks_in_several_chunks(self, rng):
        levels = 1500
        rows = CHUNK_ENTRIES // levels
        # 22 chunks of blocks and a 23rd that holds one block, the grid's
        # last point alone; the coarse row length is capped below sqrt(steps)
        steps = 22 * rows * FINE_BLOCK + 1
        assert levels * (math.isqrt(steps - 1) + 1) > CHUNK_ENTRIES
        # integer levels return at every multiple of 2 pi: t = 0 in the
        # first chunk, 2 pi on the first point of chunk 11, 4 pi at the
        # grid's last point
        prop = diagonal_propagator(rng.integers(-50, 51, levels),
                                   rng.uniform(0.01, 1.0, levels))
        times = np.linspace(0.0, 2 * TWO_PI, steps)
        index, overlap = prop.survival_grid(times)
        assert np.array_equal(np.unique(index // FINE_BLOCK // rows),
                              [0, 10, 11, 21, 22])
        assert index[-1] == steps - 1 and index.size < steps / 50
        assert same_bits(overlap, whole_grid_survival(prop, times)[index])
        want = direct_survival(prop, times[index])
        assert np.max(np.abs(overlap - want)) <= 1e-12

    def test_window_across_blocks_and_last_point(self):
        """A return on a block's first point is evaluated with the points
        before it in the block before, and a return on the grid's last
        point, alone in its block, with the points before it."""
        prop = diagonal_propagator([2.0, 3.0, 5.0], [0.5, 0.3, 0.2])
        # returns at t = 2 pi, point k = 100 FINE_BLOCK, and 4 pi, point 2k
        k = 100 * FINE_BLOCK
        res = evolve(prop, 2 * TWO_PI, steps=2 * k + 1)
        index, overlap = prop.survival_grid(res.times)
        assert {k - 2, k - 1, k, k + 1, 2 * k - 2, 2 * k - 1, 2 * k} \
            <= set(index.tolist())
        assert (k - 1) // FINE_BLOCK < k // FINE_BLOCK
        assert (2 * k) % FINE_BLOCK == 0 and index[-1] == 2 * k
        assert same_bits(overlap, whole_grid_survival(prop, res.times)[index])
        tau, _ = detect_period(res)
        assert abs(tau - TWO_PI) < 1e-9

    @pytest.mark.parametrize("block", [1, FINE_BLOCK])
    @pytest.mark.parametrize("values, weights, periods, steps", [
        ([2.0, 3.0, 5.0], [0.5, 0.3, 0.2], 2, 2 * 100 * FINE_BLOCK + 1),
        ([0.0, 1.0, 1.5], [0.49, 0.49, 0.02], 2.15, 16384),
        ([0.0, 1.0, 101.5], [0.49, 0.49, 0.02], 2.15, 9 * 4096),
        # a light level (below CERTIFICATE_FLOOR) whose margin term makes
        # the rounding slack 1.8e-7; at this t_max one coarse bound lies
        # 8e-8 inside it
        ([0.0, 1.0, 1.5, 1.2e4], [0.49, 0.49, 0.02, 9e-9], 2.101201953125,
         16384),
    ])
    def test_windows_follow_the_coarse_bound(self, values, weights, periods,
                                             steps, block):
        """The evaluated points are the blocks that meet a window
        [t_c - h - 2 dt, t_c + h + dt] around each coarse point t_c whose
        bound reaches the scan's floor, as the docstring states; with
        blocks of one point the windows show through unpadded."""
        prop = diagonal_propagator(values, weights)
        times = Grid(steps, periods * TWO_PI)
        with mock.patch.object(oracle, "FINE_BLOCK", block):
            index, _ = prop.survival_grid(times)
        want, gap = documented_windows(prop, times, block)
        assert gap > 1e-9     # no bound sits where rounding could move it
        assert index.tolist() == want


class TestEvolve:
    def test_argument_validation(self):
        h = Hamiltonian.from_dense(np.diag([1.0, 2.0]))
        psi0 = np.array([0.6, 0.8])
        prop = SpectralPropagator(h, psi0)
        with pytest.raises(ValueError, match="steps"):
            evolve(prop, 1.0, steps=1)
        with pytest.raises(ValueError, match="t_max"):
            evolve(prop, 0.0, steps=4096)

    def test_survival_grid_on_three_mirror_matrix(self):
        run = load_config(CONFIGS / "three_mirror_exact.ini")
        res = evolve(SpectralPropagator(*run.dense()),
                     2.2 * TWO_PI, steps=3 * 4096)
        assert res.times.size == 3 * 4096
        assert 0 < res.index.size < res.times.size
        index, overlap = res.propagator.survival_grid(res.times)
        assert np.array_equal(index, res.index)
        want = direct_survival(res.propagator, res.times[res.index])
        assert np.max(np.abs(overlap - want)) <= 1e-12
        assert np.array_equal(res.fidelity_track, np.abs(overlap))

    def test_memory_holds_no_grid(self):
        """The result holds less than the grid's times would take, and
        the scan's peak is about the fine pass's levels x FINE_BLOCK table
        and head rows plus one chunk of the coarse bound's."""
        run = load_config(CONFIGS / "three_mirror_exact.ini")
        prop = SpectralPropagator(*run.dense())
        steps = 3 * 4096
        tracemalloc.start()
        try:
            res = evolve(prop, 2.2 * TWO_PI, steps=steps)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = np.unique(res.index // FINE_BLOCK).size
        table = prop._occ_w.size * (FINE_BLOCK + blocks) * 16
        assert res.times.size == steps
        assert held < steps * 8
        assert peak < 1.5 * (table + oracle.COARSE_ENTRIES * 16)


class TestDetectPeriod:
    def run_detect(self, values, weights, t_max, steps=8192):
        dim = len(values)
        h = Hamiltonian.from_dense(np.diag(np.asarray(values, dtype=float)))
        psi0 = np.sqrt(np.asarray(weights, dtype=float)).astype(complex)
        res = evolve(SpectralPropagator(h, psi0), t_max, steps=steps)
        return detect_period(res), h, res

    def test_two_level_period_and_phase(self):
        (tau, phi), _, res = self.run_detect([2.0, 3.0], [0.5, 0.5], 7.0)
        assert abs(tau - TWO_PI) < 1e-6
        assert abs(phi) < 1e-6
        assert res.propagator.fidelity(0.0)[0] == pytest.approx(1.0, abs=1e-14)

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
        h = Hamiltonian.from_dense(np.diag([1.0, math.sqrt(2.0)]))
        psi0 = np.array([0.6, 0.8])
        res = evolve(SpectralPropagator(h, psi0), 10.0, steps=4096)
        with pytest.raises(NoReturnError):
            detect_period(res)


@st.composite
def detuned_spectra(draw):
    """A few levels p/q, some detuned by a small offset, random weights, a
    horizon past the exact return and either detection mode, which sets
    the return tolerance."""
    q = draw(st.integers(1, 4))
    nums = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=4,
                         unique=True))
    offsets = draw(st.lists(st.sampled_from((0.0, 0.0, 1e-2, 1e-4, 1e-6)),
                            min_size=len(nums), max_size=len(nums)))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(nums),
                            max_size=len(nums)))
    values = [p / q + d for p, d in zip(nums, offsets)]
    t_max = draw(st.floats(0.5, 2.5)) * TWO_PI * q
    return values, weights, t_max, draw(st.booleans())


class TestPrune:
    @settings(max_examples=60, deadline=None)
    @given(case=detuned_spectra())
    def test_never_drops_the_accepted_peak(self, case):
        """With pruning off every grid peak is refined; the first accepted
        one must be the one the pruned scan returns."""
        values, weights, t_max, approximate = case
        prop = diagonal_propagator(values, weights)
        steps = max(4096 * math.ceil(t_max / TWO_PI),
                    math.ceil(prop.occupied_spread() * t_max
                              / oracle.SCAN_BAND) + 1)
        res = evolve(prop, t_max, steps=steps)

        def detect():
            try:
                return detect_period(res, approximate=approximate)
            except NoReturnError:
                return None

        pruned = detect()
        with mock.patch.object(oracle, "_prune", lambda p, t, f, peaks, *a:
                               peaks):
            assert detect() == pruned


@st.composite
def scan_cases(draw):
    """`detuned_spectra` with, half the time, one level moved 100 higher,
    so that the occupied spread sets the grid (more than 4096 points per
    cycle); the grid follows the step rule of `generic_gamma`."""
    values, weights, t_max, approximate = draw(detuned_spectra())
    if draw(st.booleans()):
        values = values[:-1] + [values[-1] + 100]
    return values, weights, t_max, approximate


def grid_steps(prop, t_max):
    return max(4096 * math.ceil(max(1.0, t_max / TWO_PI)),
               math.ceil(prop.occupied_spread() * t_max
                         / oracle.SCAN_BAND) + 1)


def detect_or_none(result, approximate):
    try:
        return detect_period(result, approximate=approximate)
    except NoReturnError:
        return None


class TestWindowedScan:
    """`detect_period` on the windows `evolve` evaluates returns what it
    returns on every grid point."""

    @settings(max_examples=80, deadline=None)
    @given(case=scan_cases())
    def test_same_return_as_the_whole_grid(self, case):
        values, weights, t_max, approximate = case
        prop = diagonal_propagator(values, weights)
        steps = grid_steps(prop, t_max)
        res = evolve(prop, t_max, steps=steps)
        whole = whole_grid_result(prop, res.times)
        assert res.times.size == steps
        found = detect_or_none(res, approximate)
        assert found == detect_or_none(whole, approximate)
        if found is not None:
            assert all(map(math.isfinite, found))

    def test_spread_sets_the_grid(self):
        prop = diagonal_propagator([0.0, 1.0, 101.5], [0.49, 0.49, 0.02])
        t_max = 4.3 * math.pi
        assert grid_steps(prop, t_max) > 4096 * math.ceil(t_max / TWO_PI)
        res = evolve(prop, t_max, steps=grid_steps(prop, t_max))
        for approximate in (False, True):
            tau, phi = detect_period(res, approximate=approximate)
            assert abs(tau - 2 * TWO_PI) < 1e-6
            assert (tau, phi) == detect_period(
                whole_grid_result(prop, res.times), approximate=approximate)

    @pytest.mark.parametrize("name", ["two_mirror", "three_mirror_exact",
                                      "free_field_coherent", "spin_half",
                                      "raw_spectrum"])
    def test_shipped_configs(self, name):
        run = load_config(CONFIGS / f"{name}.ini")
        h, psi0 = run.dense()
        prop = SpectralPropagator(h, psi0)
        t_max = 2.2 * TWO_PI / h.unit * 4
        res = evolve(prop, t_max, steps=grid_steps(prop, t_max))
        assert res.index.size < res.times.size / 4
        whole = whole_grid_result(prop, res.times)
        for approximate in (False, True):
            found = detect_or_none(res, approximate)
            assert found is not None
            assert found == detect_or_none(whole, approximate)


class TestGenericGamma:
    def test_spin_half_value(self):
        theta = math.pi / 2
        h = Hamiltonian.from_dense(np.diag([-1.0, 1.0]))
        psi0 = np.array([math.cos(theta / 2), math.sin(theta / 2)],
                        dtype=complex)
        rep = generic_gamma(h, psi0, t_max=4.0)
        assert abs(rep.tau - math.pi) < 1e-6
        assert circ(rep.gamma, math.pi * (1 - math.cos(theta))) < 1e-6
        assert rep.method == "oracle"
        assert rep.tau_cycles is None and rep.fidelity is None

    def test_stationary_short_circuit(self):
        h = Hamiltonian.from_dense(np.diag([2.0, 2.0]))
        rep = generic_gamma(h, np.array([0.6, 0.8]), t_max=5.0)
        assert rep.stationary
        assert rep.gamma == 0.0 and math.isnan(rep.tau)
        assert rep.fidelity == 1.0

    def test_two_irrational_levels_still_return_exactly(self):
        # any two-level system is cyclic: the gap sqrt(2) - 1 returns at
        # t = 2*pi/(sqrt(2) - 1), irrational but exact
        h = Hamiltonian.from_dense(np.diag([1.0, math.sqrt(2.0)]))
        rep = generic_gamma(h, np.array([0.6, 0.8]), t_max=20.0)
        assert abs(rep.tau - TWO_PI / (math.sqrt(2.0) - 1.0)) < 1e-6

    def test_no_return_propagates(self):
        # three mutually incommensurable gaps: nothing returns by t = 10
        h = Hamiltonian.from_dense(np.diag([0.0, 1.0, math.sqrt(2.0)]))
        psi0 = np.array([0.6, 0.6, math.sqrt(0.28)], dtype=complex)
        with pytest.raises(NoReturnError):
            generic_gamma(h, psi0, t_max=10.0)

    def test_approximate_mode_reports_fidelity(self):
        # a slightly detuned third level spoils the exact return at
        # t = 4*pi (1 - F ~ 1e-6): strict mode must refuse, approximate
        # mode must accept and report the achieved fidelity
        h = Hamiltonian.from_dense(np.diag([0.0, 1.0, 0.5 + 1e-3]))
        psi0 = np.sqrt(np.array([0.49, 0.49, 0.02])).astype(complex)
        with pytest.raises(NoReturnError):
            generic_gamma(h, psi0, t_max=4.3 * math.pi)
        rep = generic_gamma(h, psi0, t_max=4.3 * math.pi, approximate=True)
        assert rep.fidelity is not None
        assert 0.0 < 1.0 - rep.fidelity < 1e-4
        assert abs(rep.tau - 2 * TWO_PI) < 0.05
        # the detuned gamma stays near the commensurate limit's 0
        assert circ(rep.gamma, 0.0) < 0.05


class TestDefaultGrid:
    # levels {0, 3000, 3000.5}: the fast phase needs far more than the
    # 4096 points per cycle of the base rule
    H = Hamiltonian.from_dense(np.diag([0.0, 3000.0, 3000.5]))
    PSI0 = np.array([0.6, 0.6, math.sqrt(0.28)], dtype=complex)

    @staticmethod
    def grid_steps(monkeypatch, h, psi0, **kwargs):
        seen = []

        def record(propagator, t_max, *, steps):
            seen.append(steps)
            raise NoReturnError("stop")

        monkeypatch.setattr(oracle, "evolve", record)
        with pytest.raises(NoReturnError, match="stop"):
            generic_gamma(h, psi0, **kwargs)
        return seen[0]

    def test_spread_sets_the_step_count(self, monkeypatch):
        t_max = 27.6
        steps = self.grid_steps(monkeypatch, self.H, self.PSI0, t_max=t_max)
        assert steps == math.ceil(3000.5 * t_max / oracle.SCAN_BAND) + 1
        assert 3000.5 * t_max / (steps - 1) <= oracle.SCAN_BAND

    def test_base_rule_when_the_spread_is_narrow(self, monkeypatch):
        h = Hamiltonian.from_dense(np.diag([2.0, 3.0]))
        psi0 = np.array([0.6, 0.8], dtype=complex)
        assert self.grid_steps(monkeypatch, h, psi0, t_max=7.0) == 2 * 4096

    def test_finds_the_return_the_base_grid_aliases(self):
        rep = generic_gamma(self.H, self.PSI0, t_max=27.6)
        assert abs(rep.tau - 2 * TWO_PI) < 1e-6

    def test_refines_a_handful_of_peaks(self, monkeypatch):
        # 5457 grid peaks reach the scan band up to t_max; golden section
        # refined the 2183 before the return at 4*pi, 50 evaluations each
        t_max = 27.6
        res = evolve(SpectralPropagator(self.H, self.PSI0), t_max,
                     steps=math.ceil(3000.5 * t_max / oracle.SCAN_BAND) + 1)
        refined, evaluated = [], []
        monkeypatch.setattr(oracle, "_refine", lambda *a: refined.append(a)
                            or _refine(*a))
        survival = SpectralPropagator.survival_amplitude
        monkeypatch.setattr(SpectralPropagator, "survival_amplitude",
                            lambda self, t: evaluated.append(t)
                            or survival(self, t))
        tau, _ = detect_period(res)
        assert abs(tau - 2 * TWO_PI) <= 1e-14 * tau
        assert 1 <= len(refined) <= 3 and len(evaluated) == len(refined)
        assert not hasattr(oracle, "_golden_max")

    def test_step_cap_raises(self):
        t_max = 1.01 * oracle.MAX_STEPS * oracle.SCAN_BAND / 3000.5
        with pytest.raises(NoReturnError, match=r"needs \d+ grid steps"):
            generic_gamma(self.H, self.PSI0, t_max=t_max)


@pytest.mark.parametrize("edits", [edits for _, edits in CUTS],
                         ids=[name for name, _ in CUTS])
def test_mutant_cuts_apply(edits):
    """Each cut of tests/mutants.py finds its text once in the source
    oracle.py it copies and leaves code that compiles, so an edit of the
    oracle keeps the tool runnable."""
    compile(mutate(SOURCE.read_text(encoding="utf-8"), edits), str(SOURCE),
            "exec")
