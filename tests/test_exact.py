import dataclasses

import numpy as np
import pytest

from oscluster import (
    SolverConfig,
    SyntheticSpec,
    add_noise_psnr,
    generate_synthetic,
    initial_exact_state,
    initial_relaxed_state,
    normalize_columns,
    solve_exact,
    solve_relaxed,
)
from oscluster.admm import ETA_J
from oscluster.exact import ExactWorkspace, exact_iteration
from oscluster.prox import group_shrink_columns, ridge_error_update
from oscluster.types import column_differences, difference_norm_squared


def unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestSolutionStructure:
    def test_large_lambda1_pushes_error_to_data(self):
        # With a huge sparsity weight the optimum is Z = 0, E = X.
        rng = np.random.default_rng(7)
        x = unit_columns(rng, 8, 10)
        cfg = SolverConfig(lambda1=50.0, lambda2=1.0, eps=1e-5, max_iter=5000)
        z, diag = solve_exact(x, cfg)
        assert diag.converged
        assert np.max(np.abs(z)) == 0.0
        # Z = 0 and convergence force E ~ X through the fit constraint.
        assert diag.feasibility_history[-1] < 1e-4

    def test_smoke_over_random_instances(self):
        cfg = SolverConfig(lambda1=0.1, lambda2=1.0, mu0=1.0)
        worst = 0
        for s in range(20):
            x = unit_columns(np.random.default_rng(100 + s), 10, 20)
            _, diag = solve_exact(x, cfg)
            assert diag.converged
            worst = max(worst, diag.iterations)
        assert worst <= 2000

    def test_all_zero_data_needs_no_sweep(self):
        # X = 0 is solved by Z = 0, and every residual is normalized by
        # ||X||_F = 0, so no sweep runs.
        z, diag = solve_exact(np.zeros((3, 5)), SolverConfig())
        assert np.array_equal(z, np.zeros((5, 5)))
        assert diag.converged and diag.iterations == 0 and diag.objective_value == 0.0
        assert diag.feasibility_history == [] and diag.l_z == 0.0


class TestSweepOrder:
    def test_sweep_is_reproducible_bitwise(self):
        rng = np.random.default_rng(5)
        x = unit_columns(rng, 6, 9)
        state = initial_exact_state(6, 9, 1.0)
        state = dataclasses.replace(
            state,
            z=rng.standard_normal((9, 9)),
            j=rng.standard_normal((9, 8)),
            y1=rng.standard_normal((6, 9)),
            y2=rng.standard_normal((9, 8)),
        )
        # One workspace each: a shared one would hand both calls the same
        # output arrays, and a and b would be one iterate.
        args = (0.1, 1.0, 30.0, False)
        a = exact_iteration(x, state, *args, workspace=ExactWorkspace(x))
        b = exact_iteration(x, state, *args, workspace=ExactWorkspace(x))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.j, b.j)
        assert np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.y2, b.y2)

    def test_error_and_coupling_read_the_fresh_z(self):
        # Z moves first; E = -Y1 and J are then the closed-form updates at
        # the returned Z, not at the Z the sweep started from.  The start is
        # consistent by construction: its E is -Y1.
        rng = np.random.default_rng(6)
        x = unit_columns(rng, 5, 7)
        state = dataclasses.replace(
            initial_exact_state(5, 7, 2.0),
            z=rng.standard_normal((7, 7)),
            j=rng.standard_normal((7, 6)),
            y1=rng.standard_normal((5, 7)),
            y2=rng.standard_normal((7, 6)),
        )
        lam2, mu = 1.0, 2.0
        out = exact_iteration(x, state, 0.1, lam2, 30.0, False, workspace=ExactWorkspace(x))
        sigma_j = mu * ETA_J

        def e_at(z):
            return ridge_error_update(x @ z - x, state.y1, mu)

        def j_at(z):
            return group_shrink_columns(column_differences(z)[:, :-1] - state.y2 / sigma_j, lam2 / sigma_j)

        np.testing.assert_allclose(-out.y1, e_at(out.z), rtol=0, atol=1e-14)
        np.testing.assert_allclose(out.j, j_at(out.z), rtol=0, atol=1e-14)
        assert not np.allclose(-out.y1, e_at(state.z))
        assert not np.allclose(out.j, j_at(state.z))


class TestStep:
    def test_step_is_just_above_the_floor(self):
        n = 12
        x = unit_columns(np.random.default_rng(9), 6, n)
        _, diag = solve_exact(x, SolverConfig(max_iter=1))
        assert diag.eta_z == 1.02 * (diag.l_z + difference_norm_squared(n))

    @pytest.mark.parametrize("psnr", [None, 20.0], ids=["clean", "20dB"])
    def test_default_stop_is_near_the_optimum(self, psnr):
        # Eliminating E = X - X Z gives the sequential solver's objective,
        # so a tight solve_relaxed locates the optimum both solvers share.
        tight = SolverConfig(eps=1e-9, max_iter=40000)
        for seed in range(4):
            x, _ = generate_synthetic(SyntheticSpec(seed=seed))
            if psnr is not None:
                x = add_noise_psnr(x, psnr, seed=seed + 1000)
            x = normalize_columns(x)
            _, diag = solve_exact(x, SolverConfig())
            _, reference = solve_relaxed(x, tight)
            assert diag.converged and reference.converged
            optimum = reference.objective_value
            assert abs(diag.objective_value - optimum) <= 1e-4 * abs(optimum)


class TestDiagnostics:
    def test_mu_monotone_and_capped(self, clean_sweep):
        d = clean_sweep[0]["diag_exact"]
        mu = np.asarray(d.mu_history)
        assert np.all(np.diff(mu) >= 0)
        assert mu[-1] <= 1e10

    def test_converged_runs_satisfy_both_residuals(self, clean_sweep):
        ok = sum(1 for rec in clean_sweep if rec["diag_exact"].converged)
        assert ok >= 19
        for rec in clean_sweep:
            d = rec["diag_exact"]
            if d.converged:
                assert d.iterations <= 2000
                assert d.feasibility_history[-1] < 1e-4

    def test_objective_close_to_relaxed(self, clean_sweep):
        rec = clean_sweep[0]
        a = rec["diag_relaxed"].objective_value
        b = rec["diag_exact"].objective_value
        assert abs(a - b) / abs(a) <= 0.01

    def test_initial_state_shape_checked(self):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        bad = initial_exact_state(4, 6, 1.0)
        with pytest.raises(ValueError):
            solve_exact(x, SolverConfig(), initial_state=bad)

    def test_initial_state_of_the_relaxed_solver_refused(self):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        with pytest.raises(ValueError, match="initial state must be of type ExactState"):
            solve_exact(x, SolverConfig(), initial_state=initial_relaxed_state(4, 5, 1.0))

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 1e12, float("nan"), float("inf"), True, "1"])
    def test_initial_mu_must_be_positive_finite(self, mu):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        bad = dataclasses.replace(initial_exact_state(4, 5, 1.0), mu=mu)
        with pytest.raises(ValueError, match="initial state mu"):
            solve_exact(x, SolverConfig(), initial_state=bad)

    def test_initial_multiplier_shape_checked(self):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        bad = dataclasses.replace(initial_exact_state(4, 5, 1.0), y1=np.ones((4, 6)))
        with pytest.raises(ValueError, match="initial state"):
            solve_exact(x, SolverConfig(), initial_state=bad)
