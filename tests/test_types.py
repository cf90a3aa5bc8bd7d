import numpy as np
import pytest

from oscluster import (
    SolveDiagnostics,
    SolverConfig,
    apply_difference_adjoint,
    as_coefficient_matrix,
    as_data_matrix,
    as_labels,
    build_difference_operator,
    column_differences,
    operator_norm_squared,
)
from oscluster.types import difference_norm_squared, frobenius_distance


class TestDifferenceOperator:
    def test_two_samples(self):
        r = build_difference_operator(2)
        assert np.array_equal(r, np.array([[-1.0], [1.0]]))

    def test_identity_columns(self):
        r = build_difference_operator(3)
        expected = np.array([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])
        assert np.array_equal(np.eye(3) @ r, expected)

    def test_equal_columns_vanish(self):
        z = np.tile(np.arange(4.0)[:, None], (1, 5))
        assert np.array_equal(z @ build_difference_operator(5), np.zeros((4, 4)))

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_difference_operator(1)

    def test_columns_are_consecutive_differences(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 50):
            z = rng.standard_normal((6, n))
            prod = z @ build_difference_operator(n)
            for i in range(n - 1):
                assert np.array_equal(prod[:, i], z[:, i + 1] - z[:, i])

    def test_structural_product_matches_dense(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 9))
        r = build_difference_operator(9)
        assert np.allclose(column_differences(z), z @ r, atol=1e-14)
        m = rng.standard_normal((5, 8))
        assert np.allclose(apply_difference_adjoint(m), m @ r.T, atol=1e-14)


class TestDifferenceNormSquared:
    @pytest.mark.parametrize("n", [*range(2, 65), 1600])
    def test_closed_form_matches_svd(self, n):
        want = np.linalg.norm(build_difference_operator(n), 2) ** 2
        assert difference_norm_squared(n) == pytest.approx(want, rel=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            difference_norm_squared(1)


class TestFrobeniusDistance:
    def test_matches_norm_of_difference(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 7, 3))
        scratch = np.empty(30)
        assert frobenius_distance(a, b, scratch) == np.linalg.norm(a - b)

    def test_scratch_too_small(self):
        with pytest.raises(ValueError, match="scratch"):
            frobenius_distance(np.ones((4, 3)), np.zeros((4, 3)), np.empty(9))


class TestOperatorNormSquared:
    def test_identity(self):
        assert operator_norm_squared(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert operator_norm_squared(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-10)

    def test_difference_operator_matches_svd(self):
        r = build_difference_operator(10)
        want = float(np.linalg.svd(r, compute_uv=False)[0] ** 2)
        assert operator_norm_squared(r) == pytest.approx(want, rel=1e-9)

    def test_upper_bounds_rayleigh_quotients(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 12))
        norm2 = operator_norm_squared(m)
        for _ in range(100):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            assert norm2 + 1e-9 >= float(np.sum((m @ v) ** 2))

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            operator_norm_squared(np.empty((0, 3)))

    def test_zero_matrix(self):
        assert operator_norm_squared(np.zeros((4, 4))) == 0.0


class TestValidators:
    def test_data_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.arange(5.0))

    def test_data_matrix_rejects_single_column(self):
        with pytest.raises(ValueError):
            as_data_matrix(np.ones((3, 1)))

    def test_data_matrix_rejects_nan(self):
        bad = np.ones((2, 3))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            as_data_matrix(bad)

    def test_coefficient_matrix_square_only(self):
        with pytest.raises(ValueError):
            as_coefficient_matrix(np.ones((2, 3)))

    def test_coefficient_matrix_zero_diag_check(self):
        z = np.ones((3, 3))
        with pytest.raises(ValueError):
            as_coefficient_matrix(z, expect_zero_diag=True)
        np.fill_diagonal(z, 0.0)
        assert as_coefficient_matrix(z, expect_zero_diag=True).shape == (3, 3)

    def test_labels_range_check(self):
        assert np.array_equal(as_labels([0, 1, 1], num_clusters=2), [0, 1, 1])
        with pytest.raises(ValueError):
            as_labels([0, 2], num_clusters=2)
        with pytest.raises(ValueError):
            as_labels([-1, 0])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps1 == 1e-4
        assert cfg.eps2 == 1e-4
        assert cfg.mu_max == 1e10
        assert cfg.gamma0 == 1.1
        assert cfg.max_iter == 2000
        assert cfg.mu_schedule == "multiplicative"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -0.1},
            {"lambda2": -1.0},
            {"mu0": 0.0},
            {"mu_max": 0.5},  # below mu0
            {"gamma0": 0.9},
            {"eta_j": 0.0},
            {"eps1": 0.0},
            {"eps2": -1e-4},
            {"max_iter": 0},
            {"mu_schedule": "bogus"},
            # Non-finite numbers, which the range checks above let through.
            {"eps1": float("nan")},
            {"eps2": float("nan")},
            {"gamma0": float("nan")},
            {"lambda1": float("nan")},
            {"mu0": float("nan")},
            {"eta_z": float("nan")},
            {"eta_j": float("nan")},
            {"lambda2": float("inf")},
            {"mu_max": float("inf")},
            {"eta_z": float("inf")},
            {"max_iter": 2.5},
            {"max_iter": 100.0},
            {"max_iter": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.lambda1 = 0.5


class TestDiagnosticsShape:
    def test_history_lengths_match_iterations(self, clean_sweep):
        d = clean_sweep[0]["diag_relaxed"]
        assert isinstance(d, SolveDiagnostics)
        assert len(d.feasibility_history) == d.iterations
        assert len(d.change_history) == d.iterations
        assert len(d.mu_history) == d.iterations

    def test_mu_history_monotone_and_capped(self, clean_sweep):
        for key in ("diag_relaxed", "diag_exact"):
            d = clean_sweep[0][key]
            mu = np.asarray(d.mu_history)
            assert np.all(np.diff(mu) >= 0)
            assert mu[-1] <= 1e10
