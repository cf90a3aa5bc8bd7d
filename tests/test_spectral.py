import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from oscluster import (
    SolverConfig,
    SyntheticSpec,
    add_noise_psnr,
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
    _GAP_BLOCK,
    _ZERO_ROW_NORM,
    LaplacianSpectrum,
    _check_affinity,
)

from helpers import build_difference_operator, ncut_full_eigh


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


def _tied_cliques(t, seed=0, size=8):
    """Two cliques of ``size`` nodes, self-loops included, joined by weight
    t between every cross pair, permuted.  L's eigenvalues are 0, 2t/(1+t)
    and 1 (2 size - 2 times), so its two nonzero gaps, 2t/(1+t) and
    (1-t)/(1+t), tie at t = 1/3."""
    w = np.full((2 * size, 2 * size), t)
    w[:size, :size] = w[size:, size:] = 1.0
    perm = np.random.default_rng(seed).permutation(2 * size)
    return w[np.ix_(perm, perm)]


@st.composite
def noisy_block_affinities(draw, min_nodes=2):
    """Permuted affinity of 1-6 blocks of 1-10 nodes, with within-block
    noise, weak links between every pair of block nodes and 0-3 isolated
    nodes; at least ``min_nodes`` nodes.  Blocks of one node each make k =
    N blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(
        st.lists(st.integers(1, 10), min_size=1, max_size=6).filter(lambda s: sum(s) + 3 >= min_nodes)
    )
    isolated = draw(st.integers(max(min_nodes - sum(sizes), 0), 3))
    noise = draw(st.sampled_from([0.0, 0.3, 1.0]))
    link = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    blocks = [1.0 + noise * np.abs(rng.standard_normal((size, size))) for size in sizes]
    w = block_diag(*blocks, np.zeros((isolated, isolated)))
    m = sum(sizes)
    w[:m, :m] += link * np.abs(rng.standard_normal((m, m)))
    w = w + w.T
    perm = rng.permutation(w.shape[0])
    return w[np.ix_(perm, perm)]


def _twin_blocks(seed, size=8, noise=0.3):
    """Two copies of one noisy dense block, permuted: each eigenvalue of L
    twice, so l_1 = l_2 = 0, l_3 = l_4 and so on."""
    rng = np.random.default_rng(seed)
    e = noise * np.abs(rng.standard_normal((size, size)))
    block = 1.0 + e + e.T
    w = block_diag(block, block)
    perm = rng.permutation(2 * size)
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
        # L is formed _LAPLACIAN_TILE (32) columns at a time; a partial last
        # tile too.
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

    def test_checks_its_affinity_and_keeps_it(self, rng):
        w = build_affinity(rng.standard_normal((6, 6)))
        assert LaplacianSpectrum(w).affinity is w
        with pytest.raises(ValueError, match="symmetric"):
            LaplacianSpectrum(np.triu(w))


class TestFloat32Certificates:
    """The subspace tier keeps an answer only when float32 Cholesky checks
    prove it.  Without that the answer falls back to scipy's eigh on L
    formed in double."""

    @staticmethod
    def _assert_fallback_answers(spectrum, w, k, labels):
        # The labels are bitwise those from scipy's index-subset eigh of the
        # Fortran-ordered double L.  The embedding lies in the span of
        # numpy's eigenvectors of l_1..l_k, and of those tied with l_k: with
        # a tie any basis of the tied eigenspace is an equally valid answer.
        assert spectrum.precision == "float64"
        want = scipy.linalg.eigh(normalized_laplacian(w), subset_by_index=[0, k - 1])[1]
        embedding = spectrum.embedding(k)
        values, vectors = np.linalg.eigh(normalized_laplacian(w))
        tied = np.searchsorted(values, values[k - 1] + 1e-10, side="right")
        assert np.max(scipy.linalg.subspace_angles(embedding, vectors[:, :tied])) <= 1e-10
        rows = np.linalg.norm(want, axis=1)
        points = want / np.where(rows > _ZERO_ROW_NORM, rows, np.inf)[:, None]
        assert np.array_equal(labels, kmeans(points, k, seed=3))

    @staticmethod
    def _lrr_sim_affinity():
        # Four subspaces of 100: L's four zero eigenvalues, then a bulk from
        # about 0.69 to 1.05.
        x, _ = generate_synthetic(SyntheticSpec(num_subspaces=4, points_per_subspace=100, seed=1))
        return build_affinity(sim_closed_form(normalize_columns(x)))

    def test_near_tied_eigengaps_take_the_double_reduction(self):
        # The two widest gaps differ by 2.25e-9, the second the wider: far
        # inside the margin the eigengap certificate needs.  At N = 24 the
        # gap block of 16 is narrower than L, so the subspace tier runs, and
        # eigh gives k.  l_2 and l_3 stand well apart, so the tier then
        # proves the embedding for k = 2; precision still reads float64.
        w = _tied_cliques(1 / 3 - 1e-9, size=12)
        values = np.linalg.eigvalsh(normalized_laplacian(w))
        gaps = np.sort(np.diff(values))
        assert 0.0 < gaps[-1] - gaps[-2] < 1e-8
        spectrum = LaplacianSpectrum(w)
        k = estimate_k(spectrum)
        assert k == int(np.argmax(np.diff(values))) + 1 == 2
        self._assert_fallback_answers(spectrum, w, k, ncut_cluster(spectrum, k, seed=3))

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
        self._assert_fallback_answers(spectrum, w, k, labels)

    def test_lrr_sim_affinity_is_certified(self):
        # The eigengap and the embedding are both certified by the subspace
        # tier.
        w = self._lrr_sim_affinity()
        spectrum = LaplacianSpectrum(w)
        assert estimate_k(spectrum) == 4
        embedding = spectrum.embedding(4)
        assert spectrum.precision == "subspace"
        assert np.abs(embedding.T @ embedding - np.eye(4)).max() < 1e-10
        want = _subset_eigh_embedding(w, 4)
        assert np.max(scipy.linalg.subspace_angles(embedding, want)) < 1e-10

    def test_k_equal_to_n_takes_the_double_reduction(self):
        w = _noisy_blocks(2, seed=5)
        spectrum = LaplacianSpectrum(w)
        n = w.shape[0]
        self._assert_fallback_answers(spectrum, w, n, ncut_cluster(spectrum, n, seed=3))

    def test_laplacian_is_the_double_one_rounded(self):
        # Each matrix a Cholesky check factors is formed from the double L
        # and rounded to float32 once, in rectangular full packed storage:
        # N (N + 1) / 2 entries that unpack to its lower triangle, sign (L -
        # point I) + c V V^T to within one float32 rounding of each entry.
        w = self._lrr_sim_affinity()
        spectrum = LaplacianSpectrum(w)
        checks, factored = [], []
        definite, pftrf = LaplacianSpectrum._definite, spectral._LAPACK["pftrf"]

        def record(self, sign, point, vectors=None):
            checks.append((sign, point, vectors))
            return definite(self, sign, point, vectors)

        def spftrf(n, a, **kwargs):
            assert kwargs["transr"] == "N" and kwargs["uplo"] == "L"
            lower, info = scipy.linalg.lapack.stfttr(n, a, transr="N", uplo="L")
            factored.append((a.dtype, a.size, np.tril(lower), info))
            return pftrf(n, a, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LaplacianSpectrum, "_definite", record)
            patch.setitem(spectral._LAPACK, "pftrf", spftrf)
            assert estimate_k(spectrum) == 4
        assert spectrum.precision == "subspace"
        # One check proves l_max < tau, the other l_5 > sigma.
        assert [sign for sign, _, _ in checks] == [-1.0, 1.0]
        n = w.shape[0]
        lap, eye = normalized_laplacian(w), np.eye(n)
        for (sign, point, vectors), (dtype, size, lower, info) in zip(checks, factored, strict=True):
            want = sign * (lap - point * eye)
            if vectors is not None:
                want += spectral._DEFLATION * vectors @ vectors.T
            want = np.tril(want)
            assert (dtype, size, info) == (np.float32, n * (n + 1) // 2, 0)
            assert np.all(np.abs(lower - want) <= 2.0**-24 * np.abs(want) + 1e-13)

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 66, 130])
    def test_packed_matrix_is_the_lower_triangle_in_packed_storage(self, n):
        # Every tile layout: one packed column, partial tiles, N even and odd.
        w = _random_affinity(n, n)
        rng = np.random.default_rng(n)
        vectors = rng.standard_normal((n, 3))
        spectrum = LaplacianSpectrum(w)
        a = -(normalized_laplacian(w) - 0.3 * np.eye(n)) + vectors @ vectors.T
        want, _ = scipy.linalg.lapack.strttf(a.astype(np.float32, order="F"), transr="N", uplo="L")
        packed = spectrum._packed(-1.0, 0.3, vectors)
        assert packed.dtype == np.float32 and packed.shape == want.shape
        assert np.all(np.abs(packed - want) <= 2.0**-23 * np.abs(want) + 1e-12)

    @staticmethod
    def _rump(w):
        """Rump's shift gamma_{N+1} / (1 - gamma_{N+1}) tr(H) for H = sign (L
        - point I) + 2 V V^T, V with ``rank`` orthonormal columns."""
        n = w.shape[0]
        gamma = (n + 1) * 2.0**-24 / (1.0 - (n + 1) * 2.0**-24)
        trace = float(np.trace(normalized_laplacian(w)))
        return lambda sign, point, rank: gamma / (1.0 - gamma) * (sign * (trace - n * point) + 2.0 * rank)

    def test_cholesky_checks_prove_only_past_rumps_shift(self):
        # A check factors H at a point and proves l_5 > point - rho, or
        # l_max < point + rho, with rho at least Rump's shift (1e-3 to 3e-3
        # here, N = 400).  It completes at a point inside L's gap and refuses
        # one past l_5, or below l_max.  Without the rank-4 term the count
        # check sees L's four zero eigenvalues below the point and refuses.
        w = self._lrr_sim_affinity()
        spectrum = LaplacianSpectrum(w)
        values = np.linalg.eigvalsh(normalized_laplacian(w))
        vectors = _subset_eigh_embedding(w, 4)
        rump = self._rump(w)
        low, top = values[4], values[-1]
        for sign, point, rank in [(1.0, low - 0.05, 4), (-1.0, top + 0.05, 0)]:
            assert 1e-3 < rump(sign, point, rank) <= spectrum._cholesky_shift(sign, point, rank) < 1e-2
        assert spectrum._definite(1.0, low - 0.05, vectors)
        assert not spectrum._definite(1.0, low + 1e-3, vectors)
        assert not spectrum._definite(1.0, low - 0.05)
        assert spectrum._definite(-1.0, top + 0.05)
        assert not spectrum._definite(-1.0, top - 1e-3)

    def test_proved_bounds_lie_rumps_shift_past_the_points_factored(self):
        # The eigengap certificate reads sigma and tau: each lies Rump's
        # shift, at least, past the point its Cholesky check factored.
        w = self._lrr_sim_affinity()
        spectrum = LaplacianSpectrum(w)
        factored, read = {}, []
        definite, certified = LaplacianSpectrum._definite, spectral._gap_is_certified

        def record(self, sign, point, vectors=None):
            factored[sign] = (point, 0 if vectors is None else vectors.shape[1])
            return definite(self, sign, point, vectors)

        def gap_is_certified(ritz, residual, sigma, tau, intervals, n):
            read.append((sigma, tau))
            return certified(ritz, residual, sigma, tau, intervals, n)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LaplacianSpectrum, "_definite", record)
            patch.setattr(spectral, "_gap_is_certified", gap_is_certified)
            assert estimate_k(spectrum) == 4
        assert spectrum.precision == "subspace"
        ((sigma, tau),) = read
        rump = self._rump(w)
        (low, rank), (top, _) = factored[1.0], factored[-1.0]
        assert rank == 4
        assert sigma <= low - rump(1.0, low, 4) and tau >= top + rump(-1.0, top, 0)

    def test_sigma_above_l_k_plus_1_is_refused(self, monkeypatch):
        # A margin of -1/2 the Ritz gap puts sigma above l_5: the count check
        # factors a matrix with a negative eigenvalue, spftrf stops, and the
        # fallback serves.
        monkeypatch.setattr(spectral, "_CHOLESKY_MARGIN", -0.5)
        infos = []
        pftrf = spectral._LAPACK["pftrf"]

        def spftrf(*args, **kwargs):
            factor, info = pftrf(*args, **kwargs)
            infos.append(info)
            return factor, info

        monkeypatch.setitem(spectral._LAPACK, "pftrf", spftrf)
        w = self._lrr_sim_affinity()
        spectrum = LaplacianSpectrum(w)
        labels = ncut_cluster(spectrum, 4, seed=3)
        assert len(infos) == 1 and infos[0] > 0
        self._assert_fallback_answers(spectrum, w, 4, labels)

    def test_fallback_laplacian_is_the_double_one(self):
        # The given k sits in the bulk of the spectrum: the subspace tier
        # gives up, and L is formed in double, Fortran-ordered, for eigh to
        # decompose in place.
        w = _random_affinity(150, 0)
        spectrum = LaplacianSpectrum(w)
        formed = []
        original = scipy.linalg.eigh

        def eigh(lap, **kwargs):
            formed.append((lap.flags.f_contiguous, lap.copy(), kwargs))
            return original(lap, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy.linalg, "eigh", eigh)
            spectrum.embedding(8)
        ((fortran, lap, kwargs),) = formed
        assert spectrum.precision == "float64"
        assert fortran and lap.dtype == np.float64
        assert np.array_equal(lap, normalized_laplacian(w))
        assert kwargs == dict(subset_by_index=[0, 7], overwrite_a=True, check_finite=False)

    @staticmethod
    def _products_of(spectrum, k):
        """Products with L that ``ncut_cluster(spectrum, k)`` (or, with k
        None, ``estimate_k``) takes, the checks spftrf ran, and its labels
        (or k)."""
        count, checks = [], []
        product, pftrf = spectral._laplacian_product, spectral._LAPACK["pftrf"]

        def counted(*args):
            count.append(1)
            return product(*args)

        def spftrf(*args, **kwargs):
            checks.append(1)
            return pftrf(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_laplacian_product", counted)
            patch.setitem(spectral._LAPACK, "pftrf", spftrf)
            answer = estimate_k(spectrum) if k is None else ncut_cluster(spectrum, k, seed=3)
        return len(count), len(checks), answer

    @pytest.mark.parametrize(
        "w, k, want",
        [
            (_tied_cliques(0.2), 3, 4),
            (_random_affinity(150, 0), 8, 40),
            (_twin_blocks(0), 3, 31),
        ],
        ids=["no-gap", "slow", "tie"],
    )
    def test_filter_gives_up_early(self, w, k, want):
        # Up to 12 Lanczos steps (the cliques' L has three distinct
        # eigenvalues, so three there), one product for the start block's
        # Rayleigh-Ritz step, then 9 a pass: 8 for the degree-8 filter, 1
        # for Rayleigh-Ritz.  The cliques' start block already reaches the
        # top of the spectrum, so no filter can damp anything.  In the bulk,
        # the bound falls too slowly after two passes to reach 1e-10 in the
        # passes left.  The twin blocks' l_3 = l_4: once the second pass
        # resolves the tie, Rump's shift puts sigma below theta_3, so there
        # is no gap to bound.  None runs a Cholesky check.
        spectrum = LaplacianSpectrum(w)
        products, checks, labels = self._products_of(spectrum, k)
        assert (products, checks) == (want, 0)
        self._assert_fallback_answers(spectrum, w, k, labels)

    def test_filter_runs_every_pass_a_certificate_needs(self):
        # spatsc on protocol seed 7 at 20 dB: L's bulk reaches 1.7, so the
        # bound falls slowly, and the embedding for k = 5 is certified only
        # by the sixth pass.  The first pass, from the random start, gains
        # little; judged at its rate the filter gave up after the second.
        x, _ = generate_synthetic(SyntheticSpec(seed=7))
        x = add_noise_psnr(x, 20.0, seed=1007)
        config = SolverConfig(lambda1=0.1, lambda2=0.01, diag_zero=True)
        w = cluster_sequential(x, method="spatsc", config=config, k=5).affinity
        spectrum = LaplacianSpectrum(w)
        products, checks, _ = self._products_of(spectrum, 5)
        assert (products, checks, spectrum.precision) == (12 + 1 + 6 * 9, 1, "subspace")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(w=noisy_block_affinities())
    @example(w=2.0 * np.eye(6))  # six one-node blocks: k = N
    def test_certified_eigengap_is_the_double_eigengap(self, w):
        double = np.linalg.eigvalsh(normalized_laplacian(w))
        assert estimate_k(w) == int(np.argmax(np.diff(double))) + 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(w=noisy_block_affinities(min_nodes=_GAP_BLOCK + 1))
    def test_certified_eigengap_past_the_gap_block_is_the_double_eigengap(self, w):
        # Past N = 16 the gap block is narrower than L, so the subspace tier
        # runs and proves most of these counts.
        double = np.linalg.eigvalsh(normalized_laplacian(w))
        assert estimate_k(w) == int(np.argmax(np.diff(double))) + 1

    @pytest.mark.parametrize("k, want", [(15, 22 + 10), (20, 22 + 19), (31, 22 + 10 + 10)])
    def test_estimated_k_past_the_gap_block_takes_the_double_reduction(self, k, want):
        # k disconnected blocks: L's k zero eigenvalues, then a bulk near
        # 0.9.  After the first pass (12 Lanczos products, 1 for the start
        # block, 9 for the pass) the widest gap of the 16 Ritz values is
        # their last (for k = 20 the filter damps l_17..l_20 no more than
        # l_16).  The block doubles to 32, keeping its 16 filtered vectors:
        # a Rayleigh-Ritz step and one pass prove k = 15, two prove k = 20.
        # For k = 31 the widest of the 32 Ritz gaps is again the last after
        # one pass, and one pass of a block of 64 proves it.
        w = _noisy_blocks(k, seed=k)
        spectrum = LaplacianSpectrum(w)
        products, checks, answer = self._products_of(spectrum, None)
        assert (products, checks, answer, spectrum.precision) == (want, 2, k, "subspace")

    def test_shifts_that_fill_the_ritz_gap_give_up_after_one_pass(self, monkeypatch):
        # A top check's shift of 1 leaves the eigengap certificate no room
        # (the Ritz gap is about 0.69): the tier stops after its first pass
        # (12 + 1 + 9 products), before any check, and the fallback gives k.
        shift = LaplacianSpectrum._cholesky_shift

        def wider(self, sign, point, rank):
            return shift(self, sign, point, rank) + (1.0 if sign < 0 else 0.0)

        monkeypatch.setattr(LaplacianSpectrum, "_cholesky_shift", wider)
        spectrum = LaplacianSpectrum(self._lrr_sim_affinity())
        products, checks, answer = self._products_of(spectrum, None)
        assert (products, checks, answer, spectrum.precision) == (22, 0, 4, "float64")


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
        # scipy's eigh workspace (driver evr: 33 N doubles and 10 N ints,
        # by LAPACK's query at N = 400), the eigenvalues, the N x k
        # embedding and k-means' distances.
        small = 8 * self.N * (64 + 4 * k)
        assert _traced_peak(ncut_cluster, w, k) <= self.NN + small

    def test_certified_ncut_cluster_allocates_half_a_laplacian(self):
        # The packed float32 matrix a Cholesky check factors (N (N + 1) / 2
        # entries, a quarter of a double L), and no double L.  Beside it:
        # the N x 32 and N/2 x 32 double tiles it is rounded from, the k
        # Ritz vectors, and the O(N k) arrays of the filter and of k-means.
        x, _ = generate_synthetic(SyntheticSpec(num_subspaces=4, points_per_subspace=100, seed=1))
        spectrum = LaplacianSpectrum(build_affinity(sim_closed_form(normalize_columns(x))))
        small = 8 * self.N * (96 + 4 * 4)
        assert _traced_peak(ncut_cluster, spectrum, 4) <= self.NN // 2 + small
        assert spectrum.precision == "subspace"

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

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [None, True, 1.5, "1", -1], ids=repr)
    def test_seed_must_be_a_non_negative_int(self, k, seed):
        # None would draw OS entropy, True would read as 1, and a float or
        # a string fails inside numpy; all are refused, whatever k is.
        with pytest.raises(ValueError, match="seed must be a non-negative int"):
            kmeans(np.eye(4), k, seed=seed)

    def test_numpy_integer_seed_accepted(self, rng):
        pts = rng.standard_normal((30, 3))
        assert np.array_equal(kmeans(pts, 4, seed=np.uint32(7)), kmeans(pts, 4, seed=7))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_refused(self, k, bad):
        # Checked before the k = 1 shortcut and before D^2 seeding.
        pts = np.ones((4, 2))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(pts, k)

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

    @pytest.mark.parametrize("seed", range(8))
    def test_scores_n_minus_one_pairs(self, seed):
        # The scores are the N - 1 columns of the dense |Z R| averaged over
        # rows; a zero-padded product's pad column would add an N-th score
        # and shift the mean and spread of the cutoff.
        rng = np.random.default_rng(seed)
        n = 12
        z = rng.standard_normal((n, n))
        scores = np.abs(z @ build_difference_operator(n)).mean(axis=0)
        cutoff = scores.mean() + 0.5 * scores.std()
        want = [
            i + 1
            for i, value in enumerate(scores)
            if (i == 0 or value > scores[i - 1])
            and (i == n - 2 or value > scores[i + 1])
            and value >= cutoff
        ]
        assert detect_boundaries_peaks(z, prominence=0.5) == want
        # Pair scores 1, 3, 2 put the cutoff at 2 + 1.3 * 0.816 = 3.06, above
        # the peak; an N-th score of 0 would lower it to 1.5 + 1.3 * 1.118.
        z = np.tile([0.0, 1.0, 4.0, 6.0], (4, 1))
        assert detect_boundaries_peaks(z, prominence=1.3) == []
        assert detect_boundaries_peaks(z, prominence=1.2) == [2]

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            detect_boundaries_peaks(np.ones((2, 2)))

    @pytest.mark.parametrize("prominence", [np.nan, np.inf, -np.inf, True, "1", None])
    def test_malformed_prominence_refused(self, prominence):
        z = block_diag(np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="prominence"):
            detect_boundaries_peaks(z, prominence=prominence)

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
