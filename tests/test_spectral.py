import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from oscluster import (
    SyntheticSpec,
    build_affinity,
    cluster_sequential,
    detect_boundaries_peaks,
    estimate_k,
    generate_synthetic,
    kmeans,
    ncut_cluster,
    normalize_columns,
    normalized_laplacian,
    sce,
    sim_closed_form,
)
from oscluster import spectral
from oscluster.spectral import (
    _AFFINITY_TILE,
    _ZERO_ROW_NORM,
    LaplacianSpectrum,
    _check_affinity,
)

from helpers import double_reduction_spectrum, ncut_full_eigh


def _noisy_blocks(k, seed, isolated=0, noise=0.3):
    """Permuted affinity of k dense blocks (sizes 8..7+k) plus within-block
    noise and ``isolated`` zero-degree nodes."""
    rng = np.random.default_rng(seed)
    blocks = []
    for size in range(8, 8 + k):
        e = noise * np.abs(rng.standard_normal((size, size)))
        blocks.append(1.0 + e + e.T)
    w = block_diag(*blocks, np.zeros((isolated, isolated)))
    perm = rng.permutation(w.shape[0])
    return w[np.ix_(perm, perm)]


# ncut_cluster has one Laplacian, the normalized one. The tests below once
# ran under both Laplacians; the single value keeps their case ids as they were.
_NORMALIZED = pytest.mark.parametrize("normalized", [True])


def _subset_eigh_embedding(w, k):
    """The k smallest eigenvectors of the normalized Laplacian, from
    LAPACK's index-subset symmetric solver on a C-ordered copy."""
    lap = np.ascontiguousarray(normalized_laplacian(w))
    return scipy.linalg.eigh(lap, subset_by_index=[0, k - 1], check_finite=False)[1]


def _random_affinity(n, seed):
    z = np.random.default_rng(seed).standard_normal((n, n))
    return np.abs(z) + np.abs(z).T


def _tied_cliques(t, seed=0):
    """Two 8-node cliques, self-loops included, joined by weight t between
    every cross pair, permuted.  L's eigenvalues are 0, 2t/(1+t) and 1
    (14 times), so its two nonzero gaps, 2t/(1+t) and (1-t)/(1+t), tie at
    t = 1/3."""
    w = np.full((16, 16), t)
    w[:8, :8] = w[8:, 8:] = 1.0
    perm = np.random.default_rng(seed).permutation(16)
    return w[np.ix_(perm, perm)]


@st.composite
def noisy_block_affinities(draw):
    """Permuted affinity of 1-6 blocks of 1-10 nodes, with within-block
    noise, weak links between every pair of block nodes and 0-3 isolated
    nodes; at least 2 nodes.  Blocks of one node each make k = N blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=6))
    isolated = draw(st.integers(0 if sum(sizes) > 1 else 1, 3))
    noise = draw(st.sampled_from([0.0, 0.3, 1.0]))
    link = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    blocks = [1.0 + noise * np.abs(rng.standard_normal((size, size))) for size in sizes]
    w = block_diag(*blocks, np.zeros((isolated, isolated)))
    m = sum(sizes)
    w[:m, :m] += link * np.abs(rng.standard_normal((m, m)))
    w = w + w.T
    perm = rng.permutation(w.shape[0])
    return w[np.ix_(perm, perm)]


def _assert_gap_after(w, k):
    # Only eigenvalues k and k+1 apart make the k-dimensional embedding
    # (and so the labels) independent of the eigensolver.
    vals = np.linalg.eigvalsh(normalized_laplacian(w))
    assert vals[k] - vals[k - 1] > 0.05


class TestAffinity:
    def test_zero_matrix(self):
        assert np.array_equal(build_affinity(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_upper_triangular_ones(self):
        z = np.triu(np.ones((3, 3)))
        want = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        assert np.array_equal(build_affinity(z), want)

    def test_symmetric_and_sign_invariant(self, rng):
        z = rng.standard_normal((6, 6))
        w = build_affinity(z)
        assert np.array_equal(w, w.T)
        assert np.array_equal(w, build_affinity(-z))
        assert w.min() >= 0.0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            build_affinity(np.ones((3, 4)))

    @pytest.mark.parametrize(
        "n", [1, 2, _AFFINITY_TILE - 1, _AFFINITY_TILE, _AFFINITY_TILE + 1, 2 * _AFFINITY_TILE + 1]
    )
    def test_tiles_equal_abs_plus_transpose_bitwise(self, n):
        z = np.random.default_rng(n).standard_normal((n, n))
        a = np.abs(z)
        assert np.array_equal(build_affinity(z), a + a.T)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_equals_abs_plus_transpose_bitwise_property(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8, size=(n, n))
        a = np.abs(z)
        assert np.array_equal(build_affinity(z), a + a.T)

    def test_leaves_its_input_alone(self, rng):
        z = rng.standard_normal((70, 70))
        before = z.copy()
        build_affinity(z)
        assert np.array_equal(z, before)


class TestCheckAffinity:
    def test_exactly_symmetric_input_is_returned_as_is(self, rng):
        w = build_affinity(rng.standard_normal((9, 9)))
        assert _check_affinity(w) is w

    def test_asymmetric_within_tolerance_gets_the_symmetrized_copy(self, rng):
        w = build_affinity(rng.standard_normal((9, 9)))
        w[0, 1] += 1e-12
        checked = _check_affinity(w)
        assert checked is not w
        assert np.array_equal(checked, 0.5 * (w + w.T))
        assert np.array_equal(checked, checked.T)

    @pytest.mark.parametrize(
        "w, message",
        [
            (np.array([[np.inf, -1.0], [0.0, 1.0]]), "non-finite"),
            (np.array([[1.0, -1.0], [0.0, 1.0]]), "symmetric"),
            (np.array([[-1.0, 0.0], [0.0, 1.0]]), "nonnegative"),
        ],
    )
    def test_checks_run_finite_then_symmetric_then_nonnegative(self, w, message):
        with pytest.raises(ValueError, match=message):
            _check_affinity(w)


class TestLaplacians:
    def test_normalized_spectrum_bounded(self, rng):
        w = np.abs(rng.standard_normal((6, 6)))
        w = w + w.T
        vals = np.linalg.eigvalsh(normalized_laplacian(w))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10

    def test_zero_degree_row_stays_finite(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        lap = normalized_laplacian(w)
        assert np.all(np.isfinite(lap))

    def test_rejects_asymmetric(self):
        w = np.eye(3)
        w[0, 1] = 1.0
        with pytest.raises(ValueError):
            normalized_laplacian(w)

    def test_rejects_negative(self):
        w = -np.eye(3)
        with pytest.raises(ValueError):
            normalized_laplacian(w)

    # The noisy blocks are symmetric only to roundoff, so the expected
    # Laplacians start from the symmetrized copy the affinity check returns.
    @pytest.mark.parametrize("exact", [True, False])
    def test_normalized_equals_the_broadcast_expression_bitwise(self, exact):
        w = _noisy_blocks(4, seed=6, isolated=2)
        if exact:
            w = 0.5 * (w + w.T)
        lap = normalized_laplacian(w)
        w = 0.5 * (w + w.T)
        degrees = w.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.where(degrees <= 0.0, 1e-12, degrees))
        want = -inv_sqrt[:, None] * w * inv_sqrt[None, :]
        want[np.diag_indices_from(want)] += 1.0
        assert lap.flags.f_contiguous
        assert np.array_equal(lap, want)

    @pytest.mark.parametrize("n", [63, 64, 65, 150])
    def test_normalized_equals_the_broadcast_expression_across_tiles(self, n):
        # L is formed N x 64 columns at a time; a partial last tile too.
        w = _random_affinity(n, n)
        w[:3] = w[:, :3] = 0.0  # zero-degree rows
        degrees = w.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.where(degrees <= 0.0, 1e-12, degrees))
        want = -inv_sqrt[:, None] * w * inv_sqrt[None, :]
        want[np.diag_indices_from(want)] += 1.0
        lap = normalized_laplacian(w)
        assert lap.flags.f_contiguous
        assert np.array_equal(lap, want)


class TestNcut:
    def test_block_diagonal_two_groups(self):
        w = block_diag(np.ones((3, 3)), np.ones((3, 3)))
        labels = ncut_cluster(w, 2, seed=0)
        assert sce(labels, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_k_equals_one(self):
        w = np.ones((5, 5))
        assert np.array_equal(ncut_cluster(w, 1), np.zeros(5, dtype=int))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        q = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        a = np.hstack([q[:, :2] @ rng.standard_normal((2, 6)), q[:, 2:] @ rng.standard_normal((2, 6))])
        from oscluster import SolverConfig, solve_relaxed

        z, _ = solve_relaxed(a / np.linalg.norm(a, axis=0), SolverConfig(lambda1=0.1, lambda2=1.0))
        w = build_affinity(z)
        base = ncut_cluster(w, 2, seed=3)
        for c in (0.1, 10.0):
            assert np.array_equal(ncut_cluster(c * w, 2, seed=3), base)

    def test_k_out_of_range(self):
        w = np.ones((4, 4))
        with pytest.raises(ValueError):
            ncut_cluster(w, 5)
        with pytest.raises(ValueError):
            ncut_cluster(w, 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True, None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an int"):
            ncut_cluster(np.ones((4, 4)), k)

    def test_numpy_integer_k_accepted(self):
        w = block_diag(np.ones((3, 3)), np.ones((3, 3)))
        assert np.array_equal(ncut_cluster(w, np.int64(2), seed=0), ncut_cluster(w, 2, seed=0))

    @pytest.mark.parametrize("k", [1, 2])
    @_NORMALIZED
    @pytest.mark.parametrize(
        "w",
        [
            np.ones((3, 4)),
            np.ones(4),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            -np.ones((2, 2)),
        ],
        ids=["rectangular", "one-d", "non-finite", "asymmetric", "negative"],
    )
    def test_rejects_malformed_affinity(self, w, normalized, k):
        with pytest.raises(ValueError):
            ncut_cluster(w, k)

    @_NORMALIZED
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_eigensolve_matches_full(self, k, normalized, seed):
        w = _noisy_blocks(k, seed)
        _assert_gap_after(w, k)
        want = ncut_full_eigh(w, k, seed=seed)
        assert np.array_equal(ncut_cluster(w, k, seed=seed), want)

    @_NORMALIZED
    def test_partial_eigensolve_with_isolated_nodes(self, normalized):
        # Three blocks and three zero-degree nodes: the normalized Laplacian
        # has 0 three times, then 1 for each guarded isolated node.
        # An isolated node's embedding row is zero up to roundoff; k-means
        # distance ties at those rows can break either way, so the
        # partitions are compared, not label ids.
        w = _noisy_blocks(3, seed=4, isolated=3)
        _assert_gap_after(w, 3)
        want = ncut_full_eigh(w, 3, seed=0)
        labels = ncut_cluster(w, 3)
        assert sce(labels, want) == 0.0
        isolated = w.sum(axis=1) == 0
        assert len(set(labels[isolated])) == 1

    @_NORMALIZED
    def test_partial_eigensolve_k_equals_n(self, normalized):
        w = _noisy_blocks(2, seed=5)
        n = w.shape[0]
        want = ncut_full_eigh(w, n, seed=0)
        labels = ncut_cluster(w, n)
        assert np.array_equal(labels, want)
        assert sorted(labels) == list(range(n))

    @_NORMALIZED
    @pytest.mark.parametrize("seed", [0, 1])
    def test_in_place_eigensolve_matches_a_solve_on_a_c_ordered_copy(self, normalized, seed):
        # The embedding from the in-place reduction spans the subset solver's
        # eigenspace, and k-means finds the same partition in both.
        w = _noisy_blocks(5, seed, isolated=1)
        _assert_gap_after(w, 5)
        want = _subset_eigh_embedding(w, 5)
        embedding = LaplacianSpectrum(w).embedding(5)
        assert np.max(scipy.linalg.subspace_angles(embedding, want)) < 1e-10
        row_norms = np.linalg.norm(want, axis=1)
        want = want / np.where(row_norms > _ZERO_ROW_NORM, row_norms, np.inf)[:, None]
        assert sce(ncut_cluster(w, 5, seed=seed), kmeans(want, 5, seed=seed)) == 0.0

    def test_rotated_basis_sequences_are_recovered(self, clean_sweep):
        exact_hits = sum(1 for rec in clean_sweep if rec["sce_relaxed"] == 0.0)
        assert exact_hits >= 18


class TestLaplacianSpectrum:
    @pytest.mark.parametrize(
        "n, k", [(2, 1), (2, 2), (3, 2), (17, 5), (64, 3), (150, 8), (150, 150)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_embedding_spans_the_subset_eigh_eigenspace(self, n, k, seed):
        w = _random_affinity(n, seed)
        embedding = LaplacianSpectrum(w).embedding(k)
        assert embedding.shape == (n, k)
        assert np.abs(embedding.T @ embedding - np.eye(k)).max() < 1e-10
        want = _subset_eigh_embedding(w, k)
        assert np.max(scipy.linalg.subspace_angles(embedding, want)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_embedding_with_isolated_nodes(self, seed):
        # Eigenvalue 0 three times, one per block, then the rest near 1.
        w = _noisy_blocks(3, seed, isolated=3)
        _assert_gap_after(w, 3)
        embedding = LaplacianSpectrum(w).embedding(3)
        assert np.abs(embedding.T @ embedding - np.eye(3)).max() < 1e-10
        want = _subset_eigh_embedding(w, 3)
        assert np.max(scipy.linalg.subspace_angles(embedding, want)) < 1e-10

    @pytest.mark.parametrize("n", [2, 9, 100])
    def test_eigenvalues_are_the_laplacian_spectrum(self, n):
        w = _random_affinity(n, n)
        want = np.linalg.eigvalsh(normalized_laplacian(w))
        assert np.allclose(LaplacianSpectrum(w).eigenvalues(), want, rtol=0, atol=1e-12)

    def test_checks_its_affinity_and_keeps_it(self, rng):
        w = build_affinity(rng.standard_normal((6, 6)))
        assert LaplacianSpectrum(w).affinity is w
        with pytest.raises(ValueError, match="symmetric"):
            LaplacianSpectrum(np.triu(w))


class TestFloat32Certificates:
    """The spectrum reduces L in float32 and keeps an answer only with its
    certificate.  Without one it takes the double reduction, which gives
    bitwise what the spectral stage gave before the float32 reduction."""

    @staticmethod
    def _assert_double_answers(spectrum, w, k, labels):
        values, want = double_reduction_spectrum(w, k)
        assert spectrum.precision == "float64"
        assert np.array_equal(spectrum.embedding(k), want)
        assert np.array_equal(spectrum.eigenvalues(), values)
        rows = np.linalg.norm(want, axis=1)
        points = want / np.where(rows > _ZERO_ROW_NORM, rows, np.inf)[:, None]
        assert np.array_equal(labels, kmeans(points, k, seed=3))

    def test_near_tied_eigengaps_take_the_double_reduction(self):
        # The two widest gaps differ by 2.25e-9, the second the wider,
        # against a float32 eigenvalue error bound near 1e-5 at N = 16.
        w = _tied_cliques(1 / 3 - 1e-9)
        values, _ = double_reduction_spectrum(w, 1)
        gaps = np.sort(np.diff(values))
        assert 0.0 < gaps[-1] - gaps[-2] < 1e-8
        spectrum = LaplacianSpectrum(w)
        k = estimate_k(spectrum)
        assert k == int(np.argmax(np.diff(values))) + 1 == 2
        self._assert_double_answers(spectrum, w, k, ncut_cluster(spectrum, k, seed=3))

    @pytest.mark.parametrize(
        "w, k",
        [(_tied_cliques(0.2), 3), (_random_affinity(150, 0), 8)],
        ids=["tied", "near-tied"],
    )
    def test_given_k_inside_a_near_tie_takes_the_double_reduction(self, w, k):
        # l_3 = l_4 = 1 for the cliques; l_8 and l_9 of the random affinity
        # sit in the bulk of its spectrum.
        spectrum = LaplacianSpectrum(w)
        labels = ncut_cluster(spectrum, k, seed=3)
        self._assert_double_answers(spectrum, w, k, labels)

    def test_lrr_sim_affinity_is_certified(self):
        # Four subspaces of 100: the eigengap and the embedding are both
        # certified in float32.
        x, _ = generate_synthetic(SyntheticSpec(num_subspaces=4, points_per_subspace=100, seed=1))
        w = build_affinity(sim_closed_form(normalize_columns(x)))
        spectrum = LaplacianSpectrum(w)
        assert estimate_k(spectrum) == 4
        embedding = spectrum.embedding(4)
        assert spectrum.precision == "float32"
        assert np.abs(embedding.T @ embedding - np.eye(4)).max() < 1e-10
        want = _subset_eigh_embedding(w, 4)
        assert np.max(scipy.linalg.subspace_angles(embedding, want)) < 1e-10

    def test_k_equal_to_n_takes_the_double_reduction(self):
        w = _noisy_blocks(2, seed=5)
        spectrum = LaplacianSpectrum(w)
        n = w.shape[0]
        self._assert_double_answers(spectrum, w, n, ncut_cluster(spectrum, n, seed=3))

    def test_laplacian_is_the_double_one_rounded(self):
        w = _noisy_blocks(4, seed=6, isolated=2)
        w = 0.5 * (w + w.T)
        spectrum = LaplacianSpectrum(w)
        formed = []
        original = spectral._LAPACK["float32"]["sytrd"]

        def ssytrd(lap, **kwargs):
            formed.append((lap.flags.f_contiguous, lap.copy()))
            return original(lap, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(spectral._LAPACK["float32"], "sytrd", ssytrd)
            spectrum.embedding(4)
        ((fortran, lap),) = formed
        assert fortran and lap.dtype == np.float32
        assert np.array_equal(lap, normalized_laplacian(w).astype(np.float32))

    def test_fallback_laplacian_is_the_double_one(self):
        # The given k sits in the bulk of the spectrum: the float32
        # embedding is not certified, and L is formed again in double.
        w = _random_affinity(150, 0)
        spectrum = LaplacianSpectrum(w)
        formed = []
        original = spectral._LAPACK["float64"]["sytrd"]

        def dsytrd(lap, **kwargs):
            formed.append((lap.flags.f_contiguous, lap.copy()))
            return original(lap, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(spectral._LAPACK["float64"], "sytrd", dsytrd)
            spectrum.embedding(8)
        ((fortran, lap),) = formed
        assert spectrum.precision == "float64"
        assert fortran and lap.dtype == np.float64
        assert np.array_equal(lap, normalized_laplacian(w))

    @staticmethod
    def _products_of(spectrum, k):
        """Products with L the embedding of ``spectrum`` takes, and its labels."""
        count = []
        original = spectral._laplacian_product

        def product(*args):
            count.append(1)
            return original(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_laplacian_product", product)
            labels = ncut_cluster(spectrum, k, seed=3)
        return len(count), labels

    @pytest.mark.parametrize(
        "w, k, want",
        [(_tied_cliques(0.2), 3, 9), (_random_affinity(150, 0), 8, 18)],
        ids=["no-gap", "slow"],
    )
    def test_filter_gives_up_early(self, w, k, want):
        # One pass is 9 products: 8 for the degree-8 filter, 1 for
        # Rayleigh-Ritz.  With k inside a tie the Ritz value k stays above
        # eigenvalue k+1's lower bound after the first pass.  In the bulk,
        # the bound falls too slowly after two passes to reach 1e-10 in the
        # two passes left.  Both used to run all 4 passes.
        spectrum = LaplacianSpectrum(w)
        products, labels = self._products_of(spectrum, k)
        assert products == want
        self._assert_double_answers(spectrum, w, k, labels)

    def test_filter_runs_every_pass_a_certificate_needs(self):
        # k = 9 on five 4-dimensional subspaces is certified only by the
        # fourth pass: the rate seen after each earlier pass must not give up.
        x, _ = generate_synthetic(SyntheticSpec())
        spectrum = LaplacianSpectrum(build_affinity(sim_closed_form(normalize_columns(x))))
        products, _ = self._products_of(spectrum, 9)
        assert (products, spectrum.precision) == (36, "float32")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(w=noisy_block_affinities())
    @example(w=2.0 * np.eye(6))  # six one-node blocks: k = N
    def test_certified_eigengap_is_the_double_eigengap(self, w):
        double = LaplacianSpectrum(w).eigenvalues()
        assert estimate_k(w) == int(np.argmax(np.diff(double))) + 1


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes of the numpy arrays allocated during ``fn(*args, **kwargs)``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """How many N x N arrays the spectral stage holds at once, at N = 400.

    tracemalloc sees every array numpy and scipy's wrappers allocate, but not
    the buffers LAPACK or numpy.linalg.eigvalsh allocate inside, such as the
    copy of W that the sv-threshold estimator's eigvalsh decomposes.
    Resident memory therefore stays the benchmark's job (perfbench's
    peak_rss_mb); these tests pin the arrays the library itself keeps
    alive.
    """

    N = 400
    NN = N * N * 8

    def _z(self):
        return np.random.default_rng(0).standard_normal((self.N, self.N))

    def test_build_affinity_allocates_only_its_output(self):
        assert _traced_peak(build_affinity, self._z()) <= 1.1 * self.NN

    @_NORMALIZED
    @pytest.mark.parametrize("k", [2, 8])
    def test_ncut_cluster_allocates_one_laplacian(self, normalized, k):
        w = build_affinity(self._z())
        # dsytrd's blocked workspace (32 N doubles), the tridiagonal T and
        # its reflector scalars, the N x k embedding and k-means' distances.
        small = 8 * self.N * (64 + 4 * k)
        assert _traced_peak(ncut_cluster, w, k) <= self.NN + small

    def test_certified_ncut_cluster_allocates_half_a_laplacian(self):
        # The float32 L, and not the double one.  Beside it: the N x 64
        # double tile L is rounded from, ssytrd's workspace (32 N floats),
        # T and its reflector scalars, and the embedding's O(N k) arrays.
        x, _ = generate_synthetic(SyntheticSpec(num_subspaces=4, points_per_subspace=100, seed=1))
        spectrum = LaplacianSpectrum(build_affinity(sim_closed_form(normalize_columns(x))))
        small = 8 * self.N * (96 + 4 * 4)
        assert _traced_peak(ncut_cluster, spectrum, 4) <= self.NN // 2 + small
        assert spectrum.precision == "float32"

    def test_lrr_sim_segmentation_holds_three_n_by_n_arrays(self):
        # Z, W and the Laplacian, plus the eigensolve's O(N) and O(N k)
        # arrays (k = 4 here).
        x, _ = generate_synthetic(SyntheticSpec(num_subspaces=4, points_per_subspace=100, seed=1))
        assert x.shape[1] == self.N
        small = 8 * self.N * (64 + 4 * 4)
        assert _traced_peak(cluster_sequential, x, method="lrr-sim") <= 3 * self.NN + small


class TestKmeans:
    def test_deterministic(self, rng):
        pts = rng.standard_normal((30, 3))
        a = kmeans(pts, 4, seed=7)
        b = kmeans(pts, 4, seed=7)
        assert np.array_equal(a, b)

    def test_separated_clusters(self):
        pts = np.vstack([np.zeros((5, 2)), 10.0 + np.zeros((5, 2))])
        pts += 0.01 * np.random.default_rng(0).standard_normal((10, 2))
        labels = kmeans(pts, 2, seed=0)
        assert sce(labels, [0] * 5 + [1] * 5) == 0.0

    def test_k_one(self):
        assert np.array_equal(kmeans(np.ones((4, 2)), 1), np.zeros(4, dtype=int))

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 4)

    def test_point_layout_does_not_change_labels(self, rng, monkeypatch):
        # k-means runs on a Fortran-ordered copy whatever the caller's
        # layout, so C- and F-ordered points give the same labels.
        pts = rng.standard_normal((200, 9))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        layouts = []
        original = spectral._lloyd

        def lloyd(points, centers):
            layouts.append(points.flags.f_contiguous)
            return original(points, centers)

        monkeypatch.setattr(spectral, "_lloyd", lloyd)
        c_labels = kmeans(np.ascontiguousarray(pts), 9, seed=4)
        f_labels = kmeans(np.asfortranarray(pts), 9, seed=4)
        assert np.array_equal(c_labels, f_labels)
        assert layouts == [True] * (2 * spectral.KMEANS_RESTARTS)


class TestCountEstimation:
    def test_sv_threshold_identity(self):
        assert estimate_k(np.eye(6), "sv-threshold", 0.5) == 6

    def test_sv_threshold_zero_affinity(self):
        # No singular value lies above tau: k would be 0, which no
        # partition has.
        with pytest.raises(ValueError, match=r"sv-threshold estimated k = 0: tau 0\.5"):
            estimate_k(np.zeros((4, 4)), "sv-threshold", 0.5)

    def test_sv_threshold_above_every_singular_value(self):
        w = np.abs(np.random.default_rng(0).standard_normal((5, 5)))
        w = w + w.T
        largest = float(np.max(np.abs(np.linalg.eigvalsh(w))))
        assert estimate_k(w, "sv-threshold", 0.999 * largest) == 1
        for tau in (largest, 1e6):
            with pytest.raises(ValueError, match="sv-threshold estimated k = 0: tau"):
                estimate_k(w, "sv-threshold", tau)

    def test_sv_threshold_block_constant_rank(self):
        w = block_diag(*[np.ones((20, 20)) for _ in range(5)])
        sigma_max = float(np.linalg.svd(w, compute_uv=False)[0])
        assert estimate_k(w, "sv-threshold", 1e-6 * sigma_max) == 5

    def test_sv_threshold_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            estimate_k(np.eye(3), "sv-threshold", 0.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_sv_threshold_rejects_nonfinite_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            estimate_k(np.eye(3), "sv-threshold", tau)

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_singular_values_match_svd(self, rng, n):
        # sv-threshold reads W's singular values off its eigenvalues; its
        # counts must agree with the SVD's.
        w = np.abs(rng.standard_normal((n, n)))
        w = w + w.T
        sv = np.linalg.svd(w, compute_uv=False)
        for i, tau in enumerate(np.append(0.5 * (sv[:-1] + sv[1:]), 0.5 * sv[-1])):
            assert estimate_k(w, "sv-threshold", tau) == i + 1

    def test_eigengap_two_dominant(self):
        # Two dense blocks joined by weak links: the Laplacian's two
        # smallest eigenvalues are near 0, the rest near 1.5.
        w = block_diag(np.ones((4, 4)), np.ones((3, 3))) + 1e-3
        assert estimate_k(w) == 2

    def test_eigengap_zero_affinity(self):
        # Every node is isolated, so the Laplacian is the identity: no gap.
        assert estimate_k(np.zeros((4, 4))) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigengap_counts_blocks_not_isolated_nodes(self, seed):
        # An isolated node adds eigenvalue 1, next to the blocks' own
        # eigenvalues near 1, so the largest gap stays after the blocks' zeros.
        assert estimate_k(_noisy_blocks(3, seed, isolated=3)) == 3

    def test_eigengap_reads_the_spectrum_it_is_given(self):
        w = _noisy_blocks(4, seed=1)
        spectrum = LaplacianSpectrum(w)
        assert estimate_k(spectrum) == estimate_k(w) == 4
        assert np.array_equal(ncut_cluster(spectrum, 4, seed=2), ncut_cluster(w, 4, seed=2))

    def test_eigengap_flat_spectrum(self):
        assert estimate_k(3.0 * np.eye(5)) == 1

    def test_eigengap_permutation_invariant(self, rng):
        w = np.abs(rng.standard_normal((7, 7)))
        w = w + w.T
        perm = rng.permutation(7)
        assert estimate_k(w) == estimate_k(w[np.ix_(perm, perm)])

    def test_eigengap_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_k(np.ones((1, 1)))

    def test_eigengap_recovers_five_groups(self, clean_sweep):
        hits = sum(1 for rec in clean_sweep if estimate_k(rec["w_relaxed"]) == 5)
        assert hits >= 18


class TestBoundaryDetection:
    def test_two_block_coefficients(self):
        z = block_diag(np.ones((3, 3)), np.ones((3, 3)))
        assert detect_boundaries_peaks(z) == [3]

    def test_constant_columns_have_no_boundaries(self):
        z = np.tile(np.arange(5.0)[:, None], (1, 5))
        assert detect_boundaries_peaks(z) == []

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            detect_boundaries_peaks(np.ones((2, 2)))

    def test_segment_starts_localized_in_bulk(self, clean_sweep):
        # The group penalty blurs the transition across adjacent column
        # differences, so peaks can land one sample off; localization
        # within +/-1 holds for >= 80% of the 80 true segment starts.
        truth = (20, 40, 60, 80)
        pooled = 0
        for rec in clean_sweep:
            found = set(detect_boundaries_peaks(rec["z_relaxed"]))
            pooled += sum(1 for b in truth if found & {b - 1, b, b + 1})
        assert pooled >= 64
