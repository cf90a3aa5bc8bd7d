import dataclasses

import numpy as np
import pytest

from oscluster import (
    SolverConfig,
    initial_exact_state,
    initial_relaxed_state,
    normalize_columns,
    solve_exact,
    solve_relaxed,
    spatsc_solve,
)
from oscluster.relaxed import lyapunov_s, relaxed_iteration, solve_monitored
from oscluster.types import difference_norm_squared, operator_norm_squared

from helpers import (
    bisect_nonneg_lasso,
    build_difference_operator,
    eta_z_with_fit_headroom,
    lasso_cd_matrix,
)


def unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestSolutionStructure:
    def test_large_lambda1_gives_zero(self):
        rng = np.random.default_rng(42)
        x = unit_columns(rng, 5, 6)
        lam = 1.2 * float(np.abs(x.T @ x).max())
        cfg = SolverConfig(lambda1=lam, lambda2=1.0, eps1=1e-6, eps2=1e-6, max_iter=5000)
        z, diag = solve_relaxed(x, cfg)
        assert np.max(np.abs(z)) == 0.0
        assert diag.converged

    def test_two_identical_columns_match_scalar_lasso(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal((6, 1))
        c /= np.linalg.norm(c)
        x = np.hstack([c, c])
        cfg = SolverConfig(lambda1=0.1, lambda2=0.0, diag_zero=True)
        z, diag = solve_relaxed(x, cfg)
        assert diag.converged
        # Each column's problem is min_b 0.5*(1-b)^2 + 0.1*|b|, solved by 0.9.
        want = bisect_nonneg_lasso(1.0, 1.0, 0.1)
        assert abs(z[1, 0] - want) <= 1e-3
        assert abs(z[0, 1] - want) <= 1e-3
        assert z[0, 0] == 0.0 and z[1, 1] == 0.0

    def test_matches_coordinate_descent_when_uncoupled(self):
        rng = np.random.default_rng(0)
        rng.standard_normal((6, 1))  # keep the stream aligned with the recipe above
        x = unit_columns(rng, 8, 6)
        cfg = SolverConfig(
            lambda1=0.1, lambda2=0.0, diag_zero=True, eps1=1e-6, eps2=1e-6, max_iter=20000
        )
        z, diag = solve_relaxed(x, cfg)
        assert diag.converged
        want = lasso_cd_matrix(x, 0.1)
        assert np.linalg.norm(z - want) <= 1e-4


class TestConvergenceSweep:
    def test_rotated_basis_sequences_converge(self, clean_sweep):
        ok = sum(1 for rec in clean_sweep if rec["diag_relaxed"].converged)
        assert ok >= 19
        for rec in clean_sweep:
            d = rec["diag_relaxed"]
            if d.converged:
                assert d.iterations <= 2000
                assert d.feasibility_history[-1] < 1e-4

    def test_history_invariants(self, clean_sweep):
        d = clean_sweep[0]["diag_relaxed"]
        assert d.iterations == len(d.feasibility_history)
        assert all(np.isfinite(v) for v in d.feasibility_history)
        assert all(v >= 0 for v in d.change_history)
        assert d.eta_z > operator_norm_squared(build_difference_operator(100))
        assert d.objective_value > 0


class TestLyapunov:
    def test_zero_at_reference(self):
        state = initial_relaxed_state(4, 6, 2.0)
        ref = (state.z.copy(), state.j.copy(), state.y.copy())
        assert lyapunov_s(state, ref, eta_z=5.0, l_z=3.0) == 0.0

    def test_nonnegative_when_eta_dominates(self, rng):
        n = 8
        r2 = operator_norm_squared(build_difference_operator(n))
        eta_z = r2 + 0.5
        for _ in range(50):
            state = initial_relaxed_state(4, n, 1.5)
            state.z = rng.standard_normal((n, n))
            state.j = rng.standard_normal((n, n - 1))
            state.y = rng.standard_normal((n, n - 1))
            ref = (
                rng.standard_normal((n, n)),
                rng.standard_normal((n, n - 1)),
                rng.standard_normal((n, n - 1)),
            )
            assert lyapunov_s(state, ref, eta_z, 2.0) >= 0.0

    def test_shape_mismatch(self):
        state = initial_relaxed_state(4, 6, 1.0)
        ref = (np.zeros((5, 5)), np.zeros((5, 4)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            lyapunov_s(state, ref, 5.0, 3.0)

    def test_monitored_run_is_nonincreasing(self):
        from oscluster import SyntheticSpec, generate_synthetic

        x, _ = generate_synthetic(SyntheticSpec(seed=0))
        xn = normalize_columns(x)
        cfg = SolverConfig(
            lambda1=0.1,
            lambda2=1.0,
            mu0=1.0,
        )
        _, diag = solve_monitored(xn, cfg)
        vals = np.asarray(diag.lyapunov_history)
        assert vals.min() >= 0.0
        assert vals[-1] == 0.0  # reference is the final iterate
        steps = np.diff(vals)
        assert steps.max() <= 1e-8

    @pytest.mark.parametrize("schedule", ["multiplicative", "additive"])
    def test_only_the_additive_relaxed_solve_records_the_monitor(self, schedule):
        # The additive schedule is solve_monitored's alone; every other
        # solver runs the multiplicative one and leaves the monitor unset.
        x = unit_columns(np.random.default_rng(11), 6, 10)
        config = SolverConfig(max_iter=30)
        if schedule == "additive":
            _, diag = solve_monitored(x, config)
            assert len(diag.lyapunov_history) == diag.iterations
            assert diag.lyapunov_history[-1] == 0.0  # reference is the final iterate
        else:
            assert solve_relaxed(x, config)[1].lyapunov_history is None
            assert solve_exact(x, config)[1].lyapunov_history is None
            spatsc = dataclasses.replace(config, lambda2=0.01)
            assert spatsc_solve(x, spatsc)[1].lyapunov_history is None


class TestWarmStart:
    def test_perturbed_start_reaches_same_objective(self):
        rng = np.random.default_rng(3)
        x = unit_columns(np.random.default_rng(7), 10, 12)
        cfg = SolverConfig(lambda1=0.1, lambda2=1.0, eps1=1e-6, eps2=1e-6, max_iter=5000)
        _, cold = solve_relaxed(x, cfg)
        start = initial_relaxed_state(10, 12, cfg.mu0)
        start = dataclasses.replace(
            start,
            z=0.01 * rng.standard_normal((12, 12)),
            j=0.01 * rng.standard_normal((12, 11)),
        )
        _, warm = solve_relaxed(x, cfg, initial_state=start)
        rel = abs(cold.objective_value - warm.objective_value) / abs(cold.objective_value)
        assert rel <= 0.01

    def test_initial_state_shape_checked(self):
        x = unit_columns(np.random.default_rng(1), 4, 5)
        bad = initial_relaxed_state(4, 7, 1.0)
        with pytest.raises(ValueError):
            solve_relaxed(x, SolverConfig(), initial_state=bad)

    def test_initial_state_of_the_exact_solver_refused(self):
        x = unit_columns(np.random.default_rng(1), 4, 5)
        with pytest.raises(ValueError, match="initial state must be of type RelaxedState"):
            solve_relaxed(x, SolverConfig(), initial_state=initial_exact_state(4, 5, 1.0))

    @pytest.mark.parametrize("mu", [-1.0, 0.0, float("nan"), float("inf"), True, "1"])
    def test_initial_mu_must_be_positive_finite(self, mu):
        x = unit_columns(np.random.default_rng(1), 4, 5)
        bad = dataclasses.replace(initial_relaxed_state(4, 5, 1.0), mu=mu)
        with pytest.raises(ValueError, match="initial state mu"):
            solve_relaxed(x, SolverConfig(), initial_state=bad)

    def test_initial_multiplier_shape_checked(self):
        x = unit_columns(np.random.default_rng(1), 4, 5)
        bad = dataclasses.replace(initial_relaxed_state(4, 5, 1.0), y=np.ones((5, 5)))
        with pytest.raises(ValueError, match="initial state"):
            solve_relaxed(x, SolverConfig(), initial_state=bad)


class TestDefaultStep:
    @pytest.mark.parametrize("solver", ["relaxed", "spatsc"])
    def test_default_eta_z_per_schedule(self, solver):
        # Multiplicative: 1e-3 above the floor ||R||^2.  Additive (the
        # monitored relaxed solve): also ||X||^2 / mu0, so that its increment
        # ||X||^2 / (eta_z - ||R||^2) is about mu0; that value stays bitwise
        # what it was.
        x = unit_columns(np.random.default_rng(5), 4, 7)
        config = SolverConfig(mu0=2.0, max_iter=3)
        if solver == "relaxed":
            assert solve_relaxed(x, config)[1].eta_z == difference_norm_squared(7) + 1e-3
            _, diag = solve_monitored(x, config)
            assert diag.eta_z == eta_z_with_fit_headroom(x, 2.0)
            increment = diag.l_z / (diag.eta_z - difference_norm_squared(7))
            assert diag.mu_history == [2.0, 2.0 + increment, 2.0 + increment + increment]
        else:
            _, diag = spatsc_solve(x, dataclasses.replace(config, lambda2=0.01))
            assert diag.eta_z == difference_norm_squared(7) + 1e-3


class TestValidation:
    def test_rejects_vector_input(self):
        with pytest.raises(ValueError):
            solve_relaxed(np.arange(5.0), SolverConfig())

    def test_unknown_j_prox(self):
        x = unit_columns(np.random.default_rng(4), 3, 4)
        state = initial_relaxed_state(3, 4, 1.0)
        with pytest.raises(ValueError):
            relaxed_iteration(x, state, 0.1, 1.0, 2.0, 5.0, 1.0, False, j_prox="huber")
