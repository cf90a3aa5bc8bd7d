import warnings
from dataclasses import replace

import numpy as np
import pytest

from oscluster import (
    SolverConfig,
    SyntheticSpec,
    add_noise_psnr,
    generate_synthetic,
    normalize_columns,
    sim_closed_form,
    spatsc_solve,
    ssc_solve,
)

from conftest import SPATSC_PARAMS, SSC_PARAMS
from helpers import assert_default_step_saves_sweeps, lasso_cd_matrix

TIGHT = SolverConfig(eps1=1e-6, eps2=1e-6, max_iter=20000)


def unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestSparseSelfExpression:
    def test_large_weight_gives_zero(self):
        rng = np.random.default_rng(0)
        x = unit_columns(rng, 6, 8)
        gram = np.abs(x.T @ x)
        np.fill_diagonal(gram, 0.0)
        lam = 1.01 * float(gram.max())
        z = ssc_solve(x, lam)
        assert np.max(np.abs(z)) == 0.0

    def test_identical_columns(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((5, 1))
        c /= np.linalg.norm(c)
        x = np.hstack([c, c])
        z = ssc_solve(x, 0.1)
        # min_b 0.5*(1-b)^2 + 0.1*|b| has solution 0.9
        assert abs(z[1, 0] - 0.9) <= 1e-4
        assert abs(z[0, 1] - 0.9) <= 1e-4
        assert z[0, 0] == 0.0 and z[1, 1] == 0.0

    def test_matches_coordinate_descent(self):
        rng = np.random.default_rng(1)
        x = unit_columns(rng, 10, 8)
        z = ssc_solve(x, 0.15)
        want = lasso_cd_matrix(x, 0.15)
        assert np.linalg.norm(z - want) <= 1e-4

    def test_per_column_weights(self):
        rng = np.random.default_rng(4)
        x = unit_columns(rng, 8, 6)
        lam = np.full(6, 0.05)
        lam[0] = 10.0
        z = ssc_solve(x, lam)
        assert np.max(np.abs(z[:, 0])) == 0.0
        assert np.max(np.abs(z[:, 1:])) > 0.0

    def test_rejects_nonpositive_weights(self):
        x = unit_columns(np.random.default_rng(5), 4, 5)
        with pytest.raises(ValueError):
            ssc_solve(x, 0.0)
        with pytest.raises(ValueError):
            ssc_solve(x, np.array([0.1, 0.1, -0.1, 0.1, 0.1]))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        x = unit_columns(rng, 10, 8)
        perm = np.array([3, 1, 0, 2, 6, 7, 4, 5])
        z = ssc_solve(x, 0.15)
        zp = ssc_solve(x[:, perm], 0.15)
        for m in range(8):
            for j in range(8):
                assert zp[m, j] == pytest.approx(z[perm[m], perm[j]], abs=1e-6)

    def test_diagnostics_on_request(self):
        x = unit_columns(np.random.default_rng(6), 6, 7)
        z, diag = ssc_solve(x, 0.2, return_diagnostics=True)
        assert diag.converged
        assert z.shape == (7, 7)

    def test_converges_on_clean_protocol(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        _, diag = ssc_solve(normalize_columns(x), 0.2, SSC_PARAMS, return_diagnostics=True)
        assert diag.converged
        assert diag.iterations <= SSC_PARAMS.max_iter
        assert diag.feasibility_history[-1] <= 1e-6

    @pytest.mark.parametrize("zero_columns", [slice(None), [2]], ids=["all", "one"])
    def test_zero_columns(self, zero_columns):
        x = unit_columns(np.random.default_rng(7), 5, 6)
        x[:, zero_columns] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, diag = ssc_solve(x, 0.1, return_diagnostics=True)
        assert np.all(np.isfinite(z))
        assert np.all(np.diag(z) == 0.0)
        assert diag.converged
        # A zero sample neither uses nor is used by the others.
        assert np.all(z[:, zero_columns] == 0.0) and np.all(z[zero_columns, :] == 0.0)

    def test_all_zero_data_needs_no_sweep(self):
        _, diag = ssc_solve(np.zeros((3, 4)), 0.1, return_diagnostics=True)
        assert diag.l_z == 0.0
        assert diag.iterations == 0 and diag.feasibility_history == []
        assert diag.objective_value == 0.0


class TestEntrywiseSmoothedVariant:
    def test_no_smoothing_matches_sparse_solver(self):
        rng = np.random.default_rng(3)
        x = unit_columns(rng, 8, 7)
        z_plain = ssc_solve(x, 0.1, config=TIGHT)
        z_smooth = spatsc_solve(x, 0.1, 0.0, config=TIGHT)
        assert np.linalg.norm(z_plain - z_smooth) <= 1e-3

    def test_heavy_smoothing_flattens_columns(self):
        rng = np.random.default_rng(10)
        x = unit_columns(rng, 8, 10)
        z = spatsc_solve(x, 0.01, 100.0)
        diffs = np.abs(np.diff(z, axis=1))
        assert diffs.max() <= 1e-3

    def test_diagonal_is_zero(self):
        x = unit_columns(np.random.default_rng(11), 6, 9)
        z = spatsc_solve(x, 0.1, 0.01)
        assert np.max(np.abs(np.diag(z))) == 0.0

    def test_rejects_negative_weights(self):
        x = unit_columns(np.random.default_rng(12), 4, 5)
        with pytest.raises(ValueError):
            spatsc_solve(x, -0.1, 0.01)
        with pytest.raises(ValueError):
            spatsc_solve(x, 0.1, -0.01)

    def test_converges_on_rotated_basis_sequence(self):
        from oscluster import SyntheticSpec, generate_synthetic, normalize_columns

        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        xn = normalize_columns(x)
        # The entrywise penalty's change criterion is slow to settle at
        # these weights; the residual itself is tiny long before that.
        cfg = SolverConfig(max_iter=8000)
        _, diag = spatsc_solve(xn, 0.1, 0.01, config=cfg, return_diagnostics=True)
        assert diag.converged
        assert diag.feasibility_history[-1] < 1e-4

    def test_default_step_saves_sweeps_at_20db(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        noisy = normalize_columns(add_noise_psnr(x, 20.0, seed=1000))

        def solve(x, eta_z):
            config = replace(SPATSC_PARAMS, eta_z=eta_z)
            return spatsc_solve(x, 0.1, 0.01, config=config, return_diagnostics=True)

        assert_default_step_saves_sweeps(solve, noisy, SPATSC_PARAMS.mu0, 5)


class TestShapeInteraction:
    def test_single_column(self):
        z = sim_closed_form(np.array([[2.0], [1.0], [-0.5]]))
        assert np.allclose(z, [[1.0]], atol=1e-12)

    def test_projector_properties(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 10))
        z = sim_closed_form(a)
        assert np.abs(z - z.T).max() <= 1e-10
        assert np.linalg.norm(z @ z - z) <= 1e-8

    def test_reconstructs_exactly(self):
        rng = np.random.default_rng(14)
        basis = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        a = basis @ rng.standard_normal((4, 12))
        z = sim_closed_form(a)
        assert np.linalg.norm(a - a @ z) / np.linalg.norm(a) <= 1e-8

    def test_block_structure_for_orthogonal_subspaces(self):
        rng = np.random.default_rng(15)
        q = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        b1, b2 = q[:, :2], q[:, 2:]
        a = np.hstack([b1 @ rng.standard_normal((2, 5)), b2 @ rng.standard_normal((2, 5))])
        z = sim_closed_form(a)
        assert np.abs(z[:5, 5:]).max() <= 1e-8
        assert np.linalg.norm(a - a @ z) / np.linalg.norm(a) <= 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            sim_closed_form(np.zeros((3, 4)))

    def test_non_finite_rejected(self):
        a = np.ones((3, 3))
        a[1, 1] = np.inf
        with pytest.raises(ValueError):
            sim_closed_form(a)
