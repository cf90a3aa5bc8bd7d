"""The fused solver sweeps against sweeps written straight from the update
formulas (tests/helpers.py), which take every product afresh.

A sweep that reuses a product of the previous iterate (Z R, X Z, the fit
step) goes wrong here as soon as that product goes stale: the chained runs
change mu every sweep and start from a nonzero warm start.
"""

import dataclasses

import numpy as np
import pytest

from oscluster import (
    DivergenceError,
    SolverConfig,
    SyntheticSpec,
    exact_iteration,
    generate_synthetic,
    initial_exact_state,
    initial_relaxed_state,
    normalize_columns,
    relaxed_iteration,
    solve_exact,
    solve_relaxed,
)
from oscluster.exact import ExactWorkspace
from oscluster.relaxed import RelaxedWorkspace

from helpers import (
    reference_exact_solve,
    reference_exact_sweep,
    reference_relaxed_solve,
    reference_relaxed_sweep,
)

SWEEPS = 30
D, N = 12, 16


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= tol * scale


@pytest.fixture(scope="module")
def warm():
    """Unit-norm data and a nonzero warm start for every block."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((D, N))
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    blocks = {
        "z": 0.05 * rng.standard_normal((N, N)),
        "j": 0.05 * rng.standard_normal((N, N - 1)),
        "e": 0.05 * rng.standard_normal((D, N)),
        "y": rng.standard_normal((N, N - 1)),
        "y1": rng.standard_normal((D, N)),
    }
    return x, blocks


def mu_at(sweep):
    return 1.1**sweep


@pytest.mark.parametrize("shared", [True, False], ids=["workspace", "fresh"])
@pytest.mark.parametrize("j_prox, diag_zero", [("l12", False), ("l1", True)])
def test_relaxed_sweeps_match_reference(warm, shared, j_prox, diag_zero):
    x, b = warm
    lam1, lam2, l_z, eta_z, eta_j = 0.1, 0.5, 3.0, 6.0, 1.02
    state = dataclasses.replace(initial_relaxed_state(D, N, 1.0), z=b["z"], j=b["j"], y=b["y"])
    want = (b["z"], b["j"], b["y"])
    workspace = RelaxedWorkspace(D, N) if shared else None
    for sweep in range(SWEEPS):
        state = dataclasses.replace(state, mu=mu_at(sweep))
        state = relaxed_iteration(
            x, state, lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox, workspace=workspace
        )
        want = reference_relaxed_sweep(
            x, *want, mu_at(sweep), lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox
        )
        for got, expected in zip((state.z, state.j, state.y), want):
            assert_close(got, expected)
    assert state.iteration == SWEEPS
    assert np.count_nonzero(state.z) > 0


@pytest.mark.parametrize("shared", [True, False], ids=["workspace", "fresh"])
def test_exact_sweeps_match_reference(warm, shared):
    x, b = warm
    lam1, lam2, eta_z, eta_j = 0.1, 0.5, 40.0, 1.02
    state = dataclasses.replace(
        initial_exact_state(D, N, 1.0), z=b["z"], e=b["e"], j=b["j"], y1=b["y1"], y2=b["y"]
    )
    want = (b["z"], b["e"], b["j"], b["y1"], b["y"])
    workspace = ExactWorkspace(D, N) if shared else None
    for sweep in range(SWEEPS):
        state = dataclasses.replace(state, mu=mu_at(sweep))
        state = exact_iteration(x, state, lam1, lam2, eta_z, eta_j, False, workspace=workspace)
        want = reference_exact_sweep(x, *want, mu_at(sweep), lam1, lam2, eta_z, eta_j, False)
        for got, expected in zip((state.z, state.e, state.j, state.y1, state.y2), want):
            assert_close(got, expected)
    assert state.iteration == SWEEPS


def test_workspace_recomputes_for_a_state_it_did_not_produce(warm):
    # Re-running a sweep from an older state through the same workspace
    # gives what a fresh sweep gives.
    x, b = warm
    args = (0.1, 0.5, 3.0, 6.0, 1.02, False)
    start = dataclasses.replace(initial_relaxed_state(D, N, 1.0), z=b["z"], j=b["j"], y=b["y"])
    workspace = RelaxedWorkspace(D, N)
    relaxed_iteration(x, start, *args, workspace=workspace)
    again = relaxed_iteration(x, start, *args, workspace=workspace)
    fresh = relaxed_iteration(x, start, *args)
    for got, want in zip((again.z, again.j, again.y), (fresh.z, fresh.j, fresh.y)):
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def protocol_x():
    x, _ = generate_synthetic(SyntheticSpec(seed=0))
    return normalize_columns(x)


def assert_same_solve(z, diag, reference):
    want_z, sweeps, feasibility, change, mu = reference
    assert diag.iterations == sweeps
    np.testing.assert_allclose(diag.feasibility_history, feasibility, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(diag.change_history, change, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(diag.mu_history, mu, rtol=1e-12)
    assert_close(z, want_z, tol=1e-9)


def test_relaxed_solve_matches_reference(protocol_x):
    config = SolverConfig()
    z, diag = solve_relaxed(protocol_x, config)
    assert diag.converged
    n = protocol_x.shape[1]
    start = (np.zeros((n, n)), np.zeros((n, n - 1)), np.ones((n, n - 1)))
    assert_same_solve(
        z, diag, reference_relaxed_solve(protocol_x, config, diag.l_z, diag.eta_z, start)
    )


def test_exact_solve_matches_reference(protocol_x):
    config = SolverConfig()
    z, diag = solve_exact(protocol_x, config)
    assert diag.converged
    d, n = protocol_x.shape
    start = (
        np.zeros((n, n)), np.zeros((d, n)), np.zeros((n, n - 1)), np.ones((d, n)),
        np.ones((n, n - 1)),
    )
    assert_same_solve(z, diag, reference_exact_solve(protocol_x, config, diag.eta_z, start))


@pytest.mark.parametrize("solver", ["relaxed", "exact"])
def test_solve_with_more_rows_than_columns_matches_reference(solver):
    # With D > N the D x N blocks are larger than every N x N buffer.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 10))
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    d, n = x.shape
    config = SolverConfig()
    if solver == "relaxed":
        z, diag = solve_relaxed(x, config)
        start = (np.zeros((n, n)), np.zeros((n, n - 1)), np.ones((n, n - 1)))
        reference = reference_relaxed_solve(x, config, diag.l_z, diag.eta_z, start)
    else:
        z, diag = solve_exact(x, config)
        start = (
            np.zeros((n, n)), np.zeros((d, n)), np.zeros((n, n - 1)), np.ones((d, n)),
            np.ones((n, n - 1)),
        )
        reference = reference_exact_solve(x, config, diag.eta_z, start)
    assert diag.converged
    assert_same_solve(z, diag, reference)


def test_relaxed_warm_start_matches_reference(protocol_x):
    config = SolverConfig()
    n = protocol_x.shape[1]
    rng = np.random.default_rng(5)
    start = dataclasses.replace(
        initial_relaxed_state(protocol_x.shape[0], n, config.mu0),
        z=0.01 * rng.standard_normal((n, n)),
        j=0.01 * rng.standard_normal((n, n - 1)),
        y=rng.standard_normal((n, n - 1)),
    )
    blocks = (start.z.copy(), start.j.copy(), start.y.copy())
    z, diag = solve_relaxed(protocol_x, config, initial_state=start)
    assert diag.converged
    # The solve never writes into the caller's state.
    for kept, block in zip(blocks, (start.z, start.j, start.y)):
        assert np.array_equal(kept, block)
    assert_same_solve(
        z, diag, reference_relaxed_solve(protocol_x, config, diag.l_z, diag.eta_z, blocks)
    )


class TestDivergence:
    @pytest.fixture
    def x(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 8))
        return x / np.linalg.norm(x, axis=0, keepdims=True)

    def test_relaxed_infinite_multiplier(self, x):
        state = initial_relaxed_state(6, 8, 1.0)
        state.y[2, 3] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                solve_relaxed(x, SolverConfig(), initial_state=state)

    @pytest.mark.parametrize("block", ["y1", "y2"])
    def test_exact_infinite_multiplier(self, x, block):
        state = initial_exact_state(6, 8, 1.0)
        getattr(state, block)[2, 3] = np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                solve_exact(x, SolverConfig(), initial_state=state)
