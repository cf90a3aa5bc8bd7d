import numpy as np
import pytest

from oscluster import (
    SyntheticSpec,
    add_noise_psnr,
    generate_semisynthetic,
    generate_synthetic,
    psnr,
)
from oscluster.datagen import (
    generate_dataset,
    random_orthonormal,
    random_rotation,
    tridiagonal_covariance,
)


class TestSyntheticSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_subspaces": 0},
            {"points_per_subspace": 1},
            {"ambient_dim": 0},
            {"subspace_dim": 0},
            {"subspace_dim": 101},
            {"cov_diag": 0.0},
            {"cov_offdiag": 0.002},  # tridiagonal matrix loses positive definiteness
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    def test_negative_seed_refused_at_construction(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticSpec(seed=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num_subspaces": 2.5}, "num_subspaces must be an int"),
            ({"points_per_subspace": 20.0}, "points_per_subspace must be an int"),
            ({"ambient_dim": 100.0}, "ambient_dim must be an int"),
            ({"subspace_dim": 4.0}, "subspace_dim must be an int"),
            ({"seed": 1.5}, "seed must be an int"),
            ({"seed": True}, "seed must be an int"),
            ({"cov_diag": np.inf}, "cov_diag must be a finite number"),
            ({"cov_offdiag": np.nan}, "cov_offdiag must be a finite number"),
            ({"cov_offdiag": -np.inf}, "cov_offdiag must be a finite number"),
            ({"cov_diag": "0.001"}, "cov_diag must be a finite number"),
        ],
        ids=[
            "subspaces-float", "points-float", "ambient-float", "subspace-dim-float",
            "seed-float", "seed-bool", "diag-inf", "offdiag-nan", "offdiag-minus-inf", "diag-str",
        ],
    )
    def test_rejects_non_int_counts_and_non_finite_covariances(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        spec = SyntheticSpec(num_subspaces=np.int64(2), seed=np.uint32(7))
        x, _ = generate_synthetic(spec)
        assert np.array_equal(x, generate_synthetic(SyntheticSpec(num_subspaces=2, seed=7))[0])

    def test_defaults(self):
        spec = SyntheticSpec()
        assert (spec.num_subspaces, spec.points_per_subspace) == (5, 20)
        assert (spec.ambient_dim, spec.subspace_dim) == (100, 4)
        assert (spec.cov_diag, spec.cov_offdiag) == (0.001, 0.0005)


class TestBuildingBlocks:
    def test_tridiagonal_covariance_shape(self):
        c = tridiagonal_covariance(4, 2.0, 0.5)
        want = np.array(
            [
                [2.0, 0.5, 0.0, 0.0],
                [0.5, 2.0, 0.5, 0.0],
                [0.0, 0.5, 2.0, 0.5],
                [0.0, 0.0, 0.5, 2.0],
            ]
        )
        assert np.array_equal(c, want)

    def test_orthonormal_columns(self, rng):
        q = random_orthonormal(rng, 10, 4)
        assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_orthonormal_rejects_wide(self, rng):
        with pytest.raises(ValueError):
            random_orthonormal(rng, 3, 5)

    def test_rotation_is_special_orthogonal(self, rng):
        r = random_rotation(rng, 6)
        assert np.allclose(r.T @ r, np.eye(6), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)


class TestSynthetic:
    def test_default_shape_and_labels(self):
        x, labels = generate_synthetic()
        assert x.shape == (100, 100)
        assert np.array_equal(labels, np.repeat(np.arange(5), 20))

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec(seed=9))
        b, _ = generate_synthetic(SyntheticSpec(seed=9))
        assert np.array_equal(a, b)
        c, _ = generate_synthetic(SyntheticSpec(seed=10))
        assert not np.array_equal(a, c)

    def test_each_segment_spans_low_dimensional_subspace(self):
        x, labels = generate_synthetic(SyntheticSpec(seed=1))
        for g in range(5):
            block = x[:, labels == g]
            s = np.linalg.svd(block, compute_uv=False)
            assert s[4] <= 1e-10 * s[0]

    def test_column_covariance_matches_spec(self):
        # With the off-diagonal at zero the pooled column covariance is
        # cov_diag times the identity; Monte Carlo at 10000 columns.
        spec = SyntheticSpec(
            num_subspaces=5,
            points_per_subspace=2000,
            ambient_dim=4,
            subspace_dim=4,
            cov_offdiag=0.0,
            seed=3,
        )
        x, _ = generate_synthetic(spec)
        cov = np.cov(x, bias=True)
        assert np.abs(cov - 0.001 * np.eye(4)).max() <= 2e-4


class TestSemisynthetic:
    def test_shape_and_block_orthogonality(self):
        rng = np.random.default_rng(11)
        library = np.linalg.qr(rng.standard_normal((321, 25)))[0]
        x, labels = generate_semisynthetic(library, SyntheticSpec(seed=4))
        assert x.shape == (321, 100)
        assert np.array_equal(labels, np.repeat(np.arange(5), 20))
        # Disjoint orthonormal bases make the segments mutually orthogonal.
        assert np.abs(x[:, :20].T @ x[:, 20:40]).max() <= 1e-12

    def test_single_subspace(self):
        rng = np.random.default_rng(12)
        library = np.linalg.qr(rng.standard_normal((50, 10)))[0]
        x, labels = generate_semisynthetic(
            library, SyntheticSpec(num_subspaces=1, seed=0)
        )
        assert x.shape == (50, 20)
        assert np.array_equal(labels, np.zeros(20, dtype=int))

    def test_insufficient_library(self):
        library = np.ones((40, 10))
        with pytest.raises(ValueError):
            generate_semisynthetic(library, SyntheticSpec(seed=0))

    def test_bases_per_subspace_validated(self):
        library = np.ones((40, 30))
        with pytest.raises(ValueError):
            generate_semisynthetic(library, SyntheticSpec(seed=0), bases_per_subspace=0)

    @pytest.mark.parametrize("bases", [2.0, 2.5, True, "2"])
    def test_bases_per_subspace_must_be_an_int(self, bases):
        library = np.ones((40, 30))
        with pytest.raises(ValueError, match="bases_per_subspace must be an int"):
            generate_semisynthetic(library, SyntheticSpec(seed=0), bases_per_subspace=bases)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        library = np.linalg.qr(rng.standard_normal((60, 25)))[0]
        a, _ = generate_semisynthetic(library, SyntheticSpec(seed=5))
        b, _ = generate_semisynthetic(library, SyntheticSpec(seed=5))
        assert np.array_equal(a, b)


class TestNoise:
    def test_hits_target_exactly(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        noisy = add_noise_psnr(x, 30.0, seed=1)
        assert psnr(x, noisy) == pytest.approx(30.0, abs=1e-9)

    def test_deterministic(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        a = add_noise_psnr(x, 20.0, seed=5)
        b = add_noise_psnr(x, 20.0, seed=5)
        assert np.array_equal(a, b)
        c = add_noise_psnr(x, 20.0, seed=6)
        assert not np.array_equal(a, c)

    def test_high_target_barely_perturbs(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=2))
        noisy = add_noise_psnr(x, 120.0, seed=0)
        assert psnr(x, noisy) == pytest.approx(120.0, abs=1e-9)
        assert np.abs(noisy - x).max() <= 1e-5 * np.abs(x).max()

    def test_rejects_nonpositive_target(self):
        x = np.ones((3, 3)) + np.eye(3)
        with pytest.raises(ValueError):
            add_noise_psnr(x, 0.0)

    def test_rejects_nan_target(self):
        x = np.ones((3, 3)) + np.eye(3)
        with pytest.raises(ValueError, match="PSNR"):
            add_noise_psnr(x, float("nan"))

    def test_infinite_target_returns_the_clean_matrix(self):
        x = np.ones((3, 3)) + np.eye(3)
        assert np.array_equal(add_noise_psnr(x, float("inf")), x)

    def test_rejects_constant_matrix(self):
        with pytest.raises(ValueError):
            add_noise_psnr(np.ones((3, 3)), 20.0)

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ValueError):
            add_noise_psnr(-np.ones((2, 3)) - np.eye(2, 3), 20.0)

    @pytest.mark.parametrize(
        "seed", [None, True, 1.5, -1], ids=["none", "bool", "float", "negative"]
    )
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        # Unchecked, None would draw OS entropy and True would read as 1;
        # 1.5 and -1 would fail inside numpy without naming the argument.
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        with pytest.raises(ValueError, match=r"^seed must be a non-negative int"):
            add_noise_psnr(x, 20.0, seed=seed)
        with pytest.raises(ValueError, match=r"^noise_seed must be a non-negative int"):
            generate_dataset(SyntheticSpec(seed=0), psnr_db=20.0, noise_seed=seed)

    def test_accepts_a_numpy_int_seed(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        want = add_noise_psnr(x, 20.0, seed=5)
        assert np.array_equal(add_noise_psnr(x, 20.0, seed=np.uint32(5)), want)
        noisy, _ = generate_dataset(SyntheticSpec(seed=0), psnr_db=20.0, noise_seed=np.int64(5))
        assert np.array_equal(noisy, want)
