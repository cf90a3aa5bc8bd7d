import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from oscluster.baselines import SpatscWorkspace
from oscluster.types import difference_eigenbasis

from conftest import SPATSC_PARAMS, SSC_PARAMS
from helpers import build_difference_operator, kronecker_z_step, lasso_cd_matrix

TIGHT = SolverConfig(eps=1e-6, max_iter=20000)


def unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestSparseSelfExpression:
    def test_large_weight_gives_zero(self):
        rng = np.random.default_rng(0)
        x = unit_columns(rng, 6, 8)
        gram = np.abs(x.T @ x)
        np.fill_diagonal(gram, 0.0)
        z, _ = ssc_solve(x, SolverConfig(lambda1=1.01 * float(gram.max())))
        assert np.max(np.abs(z)) == 0.0

    def test_identical_columns(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((5, 1))
        c /= np.linalg.norm(c)
        x = np.hstack([c, c])
        z, _ = ssc_solve(x, SolverConfig(lambda1=0.1))
        # min_b 0.5*(1-b)^2 + 0.1*|b| has solution 0.9
        assert abs(z[1, 0] - 0.9) <= 1e-4
        assert abs(z[0, 1] - 0.9) <= 1e-4
        assert z[0, 0] == 0.0 and z[1, 1] == 0.0

    def test_matches_coordinate_descent(self):
        rng = np.random.default_rng(1)
        x = unit_columns(rng, 10, 8)
        z, _ = ssc_solve(x, SolverConfig(lambda1=0.15))
        want = lasso_cd_matrix(x, 0.15)
        assert np.linalg.norm(z - want) <= 1e-4

    def test_rejects_nonpositive_weights(self):
        x = unit_columns(np.random.default_rng(5), 4, 5)
        # SolverConfig allows lambda1 = 0; the lasso needs a positive weight.
        with pytest.raises(ValueError, match="lambda1 > 0"):
            ssc_solve(x, SolverConfig(lambda1=0.0))
        with pytest.raises(ValueError):
            ssc_solve(x, SolverConfig(lambda1=-0.1))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        x = unit_columns(rng, 10, 8)
        perm = np.array([3, 1, 0, 2, 6, 7, 4, 5])
        config = SolverConfig(lambda1=0.15)
        z, _ = ssc_solve(x, config)
        zp, _ = ssc_solve(x[:, perm], config)
        for m in range(8):
            for j in range(8):
                assert zp[m, j] == pytest.approx(z[perm[m], perm[j]], abs=1e-6)

    def test_returns_diagnostics(self):
        x = unit_columns(np.random.default_rng(6), 6, 7)
        z, diag = ssc_solve(x, SolverConfig(lambda1=0.2))
        assert diag.converged
        assert z.shape == (7, 7)
        assert len(diag.feasibility_history) == diag.iterations

    def test_converges_on_clean_protocol(self):
        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        _, diag = ssc_solve(normalize_columns(x), SSC_PARAMS)
        assert diag.converged
        assert diag.iterations <= SSC_PARAMS.max_iter
        assert diag.feasibility_history[-1] <= 1e-6

    @pytest.mark.parametrize("zero_columns", [slice(None), [2]], ids=["all", "one"])
    def test_zero_columns(self, zero_columns):
        x = unit_columns(np.random.default_rng(7), 5, 6)
        x[:, zero_columns] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, diag = ssc_solve(x, SolverConfig(lambda1=0.1))
        assert np.all(np.isfinite(z))
        assert np.all(np.diag(z) == 0.0)
        assert diag.converged
        # A zero sample neither uses nor is used by the others.
        assert np.all(z[:, zero_columns] == 0.0) and np.all(z[zero_columns, :] == 0.0)

    def test_all_zero_data_needs_no_sweep(self):
        _, diag = ssc_solve(np.zeros((3, 4)), SolverConfig(lambda1=0.1))
        assert diag.l_z == 0.0
        assert diag.iterations == 0 and diag.feasibility_history == []
        assert diag.objective_value == 0.0


class TestEntrywiseSmoothedVariant:
    def test_no_smoothing_matches_sparse_solver(self):
        rng = np.random.default_rng(3)
        x = unit_columns(rng, 8, 7)
        config = replace(TIGHT, lambda1=0.1, lambda2=0.0)
        z_plain, _ = ssc_solve(x, config)
        z_smooth, _ = spatsc_solve(x, config)
        assert np.linalg.norm(z_plain - z_smooth) <= 1e-3

    def test_heavy_smoothing_flattens_columns(self):
        rng = np.random.default_rng(10)
        x = unit_columns(rng, 8, 10)
        z, _ = spatsc_solve(x, SolverConfig(lambda1=0.01, lambda2=100.0))
        diffs = np.abs(np.diff(z, axis=1))
        assert diffs.max() <= 1e-3

    def test_diagonal_is_zero(self):
        # Whatever diag_zero says: the flag belongs to the sequential solvers.
        x = unit_columns(np.random.default_rng(11), 6, 9)
        z, _ = spatsc_solve(x, SolverConfig(lambda1=0.1, lambda2=0.01, diag_zero=False))
        assert np.max(np.abs(np.diag(z))) == 0.0

    def test_rejects_negative_weights(self):
        x = unit_columns(np.random.default_rng(12), 4, 5)
        with pytest.raises(ValueError, match="lambda1"):
            spatsc_solve(x, SolverConfig(lambda1=-0.1, lambda2=0.01))
        with pytest.raises(ValueError, match="lambda2"):
            spatsc_solve(x, SolverConfig(lambda1=0.1, lambda2=-0.01))

    def test_converges_on_rotated_basis_sequence(self):
        from oscluster import SyntheticSpec, generate_synthetic, normalize_columns

        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        xn = normalize_columns(x)
        # The entrywise penalty's change criterion is slow to settle at
        # these weights; the residual itself is tiny long before that.
        cfg = SolverConfig(lambda1=0.1, lambda2=0.01, max_iter=8000)
        _, diag = spatsc_solve(xn, cfg)
        assert diag.converged
        assert diag.feasibility_history[-1] < 1e-4


@pytest.mark.parametrize("n", [2, 3, 4, 7, 100])
def test_difference_eigenbasis_diagonalizes_r_rt(n):
    # The closed-form DCT-II basis is orthonormal and R R^T Q = Q diag(beta).
    beta, q = difference_eigenbasis(n)
    r = build_difference_operator(n)
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
    assert np.max(np.abs(r @ r.T @ q - q * beta)) <= 1e-13
    assert np.all(np.diff(beta) > 0) and beta[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 9),
    n=st.integers(2, 9),
    rank=st.integers(0, 9),
    log_mu=st.integers(-2, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, n=2, rank=1, log_mu=0, seed=0)
@example(d=4, n=3, rank=4, log_mu=0, seed=1)
@example(d=3, n=8, rank=3, log_mu=0, seed=2)  # D < N
@example(d=9, n=5, rank=9, log_mu=1, seed=3)  # D > N, full rank
@example(d=8, n=9, rank=2, log_mu=-1, seed=4)  # rank-deficient
@example(d=5, n=6, rank=0, log_mu=0, seed=5)  # X = 0
def test_exact_z_step_matches_kronecker_solve(d, n, rank, log_mu, seed):
    # spatsc's Z step through the two eigenbases against the dense
    # Kronecker system, at any D, N and rank of X.
    rng = np.random.default_rng(seed)
    rank = min(rank, d, n)
    x = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    norms = np.linalg.norm(x, axis=0)
    x /= np.where(norms > 0, norms, 1.0)
    mu = 10.0**log_mu
    m = rng.standard_normal((n, n))
    want = kronecker_z_step(x, m, mu)
    got = SpatscWorkspace(x).z_step(m.copy(), mu, np.empty((n, n)), np.empty((n, n)))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestSpatscQuality:
    @pytest.mark.parametrize("seed", range(4))
    def test_objective_close_to_a_tight_solve(self, seed):
        # The default stop lands within 1e-6 relative of the objective a
        # tight solve (eps 1e-9) reaches, on the 20 dB protocol.
        x, _ = generate_synthetic(SyntheticSpec(seed=seed))
        xn = normalize_columns(add_noise_psnr(x, 20.0, seed=seed))
        _, diag = spatsc_solve(xn, SPATSC_PARAMS)
        _, tight = spatsc_solve(xn, replace(SPATSC_PARAMS, eps=1e-9, max_iter=40000))
        assert diag.converged and tight.converged
        gap = (diag.objective_value - tight.objective_value) / tight.objective_value
        assert abs(gap) <= 1e-6

    def test_all_zero_data_converges_to_zero(self):
        z, diag = spatsc_solve(np.zeros((3, 5)), SPATSC_PARAMS)
        assert np.array_equal(z, np.zeros((5, 5)))
        assert diag.converged and diag.iterations == 1
        assert diag.l_z == 0.0 and diag.objective_value == 0.0


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
