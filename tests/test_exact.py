import dataclasses

import numpy as np
import pytest

from oscluster import (
    SolverConfig,
    initial_exact_state,
    initial_relaxed_state,
    solve_exact,
)
from oscluster.exact import ExactWorkspace, exact_iteration


def unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestSolutionStructure:
    def test_large_lambda1_pushes_error_to_data(self):
        # With a huge sparsity weight the optimum is Z = 0, E = X.
        rng = np.random.default_rng(7)
        x = unit_columns(rng, 8, 10)
        cfg = SolverConfig(lambda1=50.0, lambda2=1.0, eps1=1e-5, eps2=1e-5, max_iter=5000)
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


class TestParallelSweep:
    def test_sweep_is_reproducible_bitwise(self):
        rng = np.random.default_rng(5)
        x = unit_columns(rng, 6, 9)
        state = initial_exact_state(6, 9, 1.0)
        state = dataclasses.replace(
            state,
            z=rng.standard_normal((9, 9)),
            e=rng.standard_normal((6, 9)),
            j=rng.standard_normal((9, 8)),
            y1=rng.standard_normal((6, 9)),
            y2=rng.standard_normal((9, 8)),
        )
        # One workspace each: a shared one would hand both calls the same
        # output arrays, and a and b would be one iterate.
        args = (0.1, 1.0, 30.0, 1.0, False)
        a = exact_iteration(x, state, *args, workspace=ExactWorkspace(6, 9))
        b = exact_iteration(x, state, *args, workspace=ExactWorkspace(6, 9))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.j, b.j)
        assert np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.y2, b.y2)

    def test_blocks_read_only_previous_iterate(self):
        # The E update depends on the old Z, not the fresh one: feeding a
        # state with a different J/Y2 leaves E unchanged.
        rng = np.random.default_rng(6)
        x = unit_columns(rng, 5, 7)
        state = initial_exact_state(5, 7, 1.0)
        state = dataclasses.replace(state, z=rng.standard_normal((7, 7)))
        args = (0.1, 1.0, 30.0, 1.0, False)
        out1 = exact_iteration(x, state, *args, workspace=ExactWorkspace(5, 7))
        other = dataclasses.replace(state, j=rng.standard_normal((7, 6)))
        out2 = exact_iteration(x, other, *args, workspace=ExactWorkspace(5, 7))
        assert np.array_equal(out1.e, out2.e)


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

    @pytest.mark.parametrize("mu", [-1.0, 0.0, float("nan"), float("inf"), True, "1"])
    def test_initial_mu_must_be_positive_finite(self, mu):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        bad = dataclasses.replace(initial_exact_state(4, 5, 1.0), mu=mu)
        with pytest.raises(ValueError, match="initial state mu"):
            solve_exact(x, SolverConfig(), initial_state=bad)

    def test_iterations_count_this_solve_only(self):
        # A warm start's own counter does not carry into the report.
        x = unit_columns(np.random.default_rng(9), 4, 5)
        start = dataclasses.replace(initial_exact_state(4, 5, 1.0), iteration=100)
        _, diag = solve_exact(x, SolverConfig(max_iter=5), initial_state=start)
        assert diag.iterations == len(diag.feasibility_history) == 5

    def test_initial_multiplier_shape_checked(self):
        x = unit_columns(np.random.default_rng(9), 4, 5)
        bad = dataclasses.replace(initial_exact_state(4, 5, 1.0), y1=np.ones((4, 6)))
        with pytest.raises(ValueError, match="initial state"):
            solve_exact(x, SolverConfig(), initial_state=bad)
