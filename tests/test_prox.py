import numpy as np
import pytest

from oscluster.prox import group_shrink_columns, ridge_error_update, soft_threshold

from helpers import (
    first_order_group_prox,
    grid_prox_l1,
    group_prox_stationarity,
    never_improved_by_perturbation,
    prox_objective_group,
    prox_objective_l1,
    prox_objective_ridge,
    ridge_prox_oracle,
)


class TestSoftThreshold:
    def test_scalar_values(self):
        v = np.array([[3.0, -0.5, 0.2]])
        out = soft_threshold(v, 1.0)
        assert np.allclose(out, [[2.0, 0.0, 0.0]], atol=1e-15)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 4))
        assert np.array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 2)), -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            soft_threshold(np.ones((2, 2)), np.nan)

    def test_grid_oracle(self, rng):
        v = 3.0 * rng.standard_normal((6, 6))
        tau = 0.7
        got = soft_threshold(v, tau)
        want = grid_prox_l1(v, tau, step=1e-3)
        assert np.max(np.abs(got - want)) <= 1e-3

    def test_nonexpansive(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        fa, fb = soft_threshold(a, 0.3), soft_threshold(b, 0.3)
        assert np.linalg.norm(fa - fb) <= np.linalg.norm(a - b) + 1e-12

    def test_perturbation_optimality(self, rng):
        v = rng.standard_normal((4, 4))
        tau = 0.4
        zstar = soft_threshold(v, tau)
        assert never_improved_by_perturbation(
            lambda z: prox_objective_l1(z, v, tau), zstar, rng
        )

    @pytest.mark.parametrize("tau", [np.float64(0.6)], ids=["scalar"])
    def test_equals_sign_formula_with_positive_zeros(self, rng, tau):
        v = rng.standard_normal((9, 7))
        # Entries on the threshold, at both zeros, and far outside it.
        v[0] = tau
        v[1] = -tau
        v[2, :3] = (0.0, -0.0, 1e300)
        want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        inside = np.abs(v) <= tau
        assert inside.sum() >= 16
        for got in (soft_threshold(v, tau), soft_threshold(v, tau, out=np.empty_like(v))):
            assert np.array_equal(got, want)
            assert not np.any(np.signbit(got[inside]))


class TestGroupShrinkColumns:
    def test_long_column_shrinks_toward_zero(self):
        u = np.array([[3.0], [4.0]])  # norm 5
        out = group_shrink_columns(u, 1.0)
        assert np.allclose(out, 0.8 * u, atol=1e-12)

    def test_short_column_zeroed(self):
        u = np.array([[0.3], [0.4]])  # norm 0.5
        out = group_shrink_columns(u, 1.0)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_boundary_norm_equals_kappa(self):
        u = np.array([[0.6], [0.8]])  # norm 1 exactly
        out = group_shrink_columns(u, 1.0)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_direction_preserved(self, rng):
        u = rng.standard_normal((6, 8))
        out = group_shrink_columns(u, 0.2)
        for i in range(8):
            n = np.linalg.norm(out[:, i])
            if n > 0:
                cos = out[:, i] @ u[:, i] / (n * np.linalg.norm(u[:, i]))
                assert cos == pytest.approx(1.0, abs=1e-12)

    def test_zero_kappa_identity(self, rng):
        u = rng.standard_normal((3, 4))
        assert np.array_equal(group_shrink_columns(u, 0.0), u)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            group_shrink_columns(np.ones((2, 2)), -1.0)

    def test_nan_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            group_shrink_columns(np.ones((2, 2)), np.nan)

    def test_stationarity_of_output(self, rng):
        u = rng.standard_normal((5, 12))
        kappa = 0.8
        j = group_shrink_columns(u, kappa)
        assert group_prox_stationarity(j, u, kappa) <= 1e-10

    def test_first_order_oracle(self, rng):
        u = 2.0 * rng.standard_normal((4, 10))
        kappa = 0.9
        got = group_shrink_columns(u, kappa)
        want = first_order_group_prox(u, kappa)
        assert np.max(np.abs(got - want)) <= 1e-5

    def test_perturbation_optimality(self, rng):
        u = rng.standard_normal((4, 5))
        kappa = 0.6
        jstar = group_shrink_columns(u, kappa)
        assert never_improved_by_perturbation(
            lambda j: prox_objective_group(j, u, kappa), jstar, rng
        )


class TestRidgeErrorUpdate:
    def test_closed_form_value(self):
        # residual s = 2, y = 1, mu = 1: argmin of e^2/2 + y(s+e) + (s+e)^2/2
        # is e = -(mu*s + y)/(1+mu) = -1.5
        out = ridge_error_update(np.array([[2.0]]), np.array([[1.0]]), 1.0)
        assert np.allclose(out, [[-1.5]], atol=1e-15)

    def test_spec_worked_matrix(self):
        m = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = ridge_error_update(m, np.zeros((2, 2)), 1.0)
        assert np.allclose(out, -m / 2.0, atol=1e-15)

    def test_large_mu_forces_negative_residual(self):
        residual = np.array([[1.0, -0.5]])
        y1 = np.array([[0.2, 0.3]])
        out = ridge_error_update(residual, y1, 1e8)
        assert np.allclose(out, -residual - y1 * 1e-8, atol=1e-10)

    def test_parabola_oracle(self, rng):
        residual = rng.standard_normal((5, 7))
        y1 = rng.standard_normal((5, 7))
        mu = 2.5
        got = ridge_error_update(residual, y1, mu)
        want = ridge_prox_oracle(residual, y1, mu)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            ridge_error_update(np.ones((2, 2)), np.ones((2, 2)), 0.0)

    def test_nan_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            ridge_error_update(np.ones((2, 2)), np.ones((2, 2)), np.nan)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ridge_error_update(np.ones((2, 2)), np.ones((2, 3)), 1.0)

    def test_perturbation_optimality(self, rng):
        residual = rng.standard_normal((3, 4))
        y1 = rng.standard_normal((3, 4))
        mu = 1.7
        estar = ridge_error_update(residual, y1, mu)
        assert never_improved_by_perturbation(
            lambda e: prox_objective_ridge(e, residual, y1, mu), estar, rng
        )
