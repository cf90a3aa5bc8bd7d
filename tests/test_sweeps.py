"""The fused solver sweeps against sweeps written straight from the update
formulas (tests/helpers.py), which take every product afresh.

A sweep that reuses a product of the previous iterate (Z R, X Z, the fit
step) goes wrong here as soon as that product goes stale: the chained runs
change mu every sweep and start from a nonzero warm start.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscluster import (
    DivergenceError,
    SolverConfig,
    SyntheticSpec,
    add_noise_psnr,
    generate_synthetic,
    initial_exact_state,
    initial_relaxed_state,
    normalize_columns,
    solve_exact,
    solve_relaxed,
    spatsc_solve,
    ssc_solve,
)
from oscluster import admm, exact, relaxed
from oscluster.baselines import SpatscState, SpatscWorkspace, _stationarity_gap
from oscluster.exact import ExactWorkspace, exact_iteration
from oscluster.admm import ETA_J
from oscluster.relaxed import OVER_RELAXATION, RelaxedWorkspace, relaxed_iteration
from oscluster.prox import group_shrink_columns
from oscluster.types import FitOperator, column_differences, operator_norm_squared, zero_padded

from helpers import (
    build_difference_operator,
    lasso_cd_matrix,
    plain_relaxed_sweep,
    reference_exact_solve,
    reference_exact_sweep,
    reference_fista_lasso,
    reference_relaxed_solve,
    reference_coupling_step,
    reference_relaxed_sweep,
    reference_spatsc_solve,
    reference_spatsc_sweep,
)

SWEEPS = 30
D, N = 12, 16


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= tol * scale


def low_rank(rng, d, n, rank):
    """A D x N matrix of the given rank (full rank when ``rank`` is None)."""
    if rank is None:
        return rng.standard_normal((d, n))
    return rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))


def warm_start(d, n, seed=11, rank=None):
    """Unit-norm D x N data of the given rank and a nonzero warm start for
    every block."""
    rng = np.random.default_rng(seed)
    x = low_rank(rng, d, n, rank)
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    blocks = {
        "z": 0.05 * rng.standard_normal((n, n)),
        "j": 0.05 * rng.standard_normal((n, n - 1)),
        "y": rng.standard_normal((n, n - 1)),
        "y1": rng.standard_normal((d, n)),
    }
    return x, blocks


@pytest.fixture(scope="module")
def warm():
    return warm_start(D, N)


# (D, N, rank of X; None for full rank).  The relaxed fit step is
# B (B^T - B^T Z), with the N x r factor B of G = X^T X, when twice the
# rank r of X is below N, and G - G Z otherwise: the full-rank shapes with
# N <= 2D take the Gram form, N > 2D (r = D) and the rank-4 shape the
# factored one.  Every form must give the same sweeps as X^T (X - X Z).
SHAPES = [(20, 30, None), (15, 30, None), (10, 30, None), (20, 30, 4)]
SHAPE_IDS = ["n<2d", "n=2d", "n>2d", "rank4"]


def mu_at(sweep):
    return 1.1**sweep


def check_chained_relaxed_sweeps(x, b, shared, diag_zero, alpha=1.0):
    d, n = x.shape
    lam1, lam2, l_z, eta_z, eta_j = 0.1, 0.5, 3.0, 6.0, 1.02
    state = dataclasses.replace(initial_relaxed_state(d, n, 1.0), z=b["z"], j=b["j"], y=b["y"])
    want = (b["z"], b["j"], b["y"])
    workspace = RelaxedWorkspace(FitOperator(x)) if shared else None
    for sweep in range(SWEEPS):
        state = dataclasses.replace(state, mu=mu_at(sweep))
        state = relaxed_iteration(
            x, state, lam1, lam2, l_z, eta_z, eta_j, diag_zero, workspace=workspace, alpha=alpha
        )
        want = reference_relaxed_sweep(
            x, *want, mu_at(sweep), lam1, lam2, l_z, eta_z, eta_j, diag_zero, alpha
        )
        for got, expected in zip((state.z, state.j, state.y), want):
            assert_close(got, expected)
    assert np.count_nonzero(state.z) > 0


@pytest.mark.parametrize("shared", [True, False], ids=["workspace", "fresh"])
@pytest.mark.parametrize("diag_zero", [False, True], ids=["free-diag", "zero-diag"])
def test_relaxed_sweeps_match_reference(warm, shared, diag_zero):
    check_chained_relaxed_sweeps(*warm, shared, diag_zero)


@pytest.mark.parametrize("d, n, rank", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("shared", [True, False], ids=["workspace", "fresh"])
@pytest.mark.parametrize("diag_zero", [False, True], ids=["free-diag", "zero-diag"])
def test_relaxed_sweeps_match_reference_across_shapes(d, n, rank, shared, diag_zero):
    check_chained_relaxed_sweeps(*warm_start(d, n, rank=rank), shared, diag_zero)


@pytest.mark.parametrize("d, n, rank", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("alpha", [0.5, OVER_RELAXATION])
@pytest.mark.parametrize("diag_zero", [False, True], ids=["free-diag", "zero-diag"])
def test_relaxed_sweeps_with_relaxation_match_reference(d, n, rank, alpha, diag_zero):
    # The J step and the multiplier read h = alpha Z+ R + (1 - alpha) J,
    # which the sweep builds over buffers it has already spent.
    check_chained_relaxed_sweeps(*warm_start(d, n, rank=rank), True, diag_zero, alpha)


SPATSC_SHAPES = [(12, 16, None), (20, 12, None), (20, 30, 4)]
SPATSC_SHAPE_IDS = ["d<n", "d>n", "rank4"]


@pytest.mark.parametrize("d, n, rank", SPATSC_SHAPES, ids=SPATSC_SHAPE_IDS)
def test_spatsc_sweeps_match_reference(d, n, rank):
    # mu moves every sweep, so every sweep rescales the scaled multipliers
    # and recomputes the Z step's weights; the reference keeps Y1 and Y2
    # unscaled and solves each Z step by Bartels-Stewart.
    x, b = warm_start(d, n, rank=rank)
    y1 = np.random.default_rng(4).standard_normal((n, n))
    want = (b["z"], b["j"], y1, b["y"])
    mu = mu_at(0)
    state = SpatscState(b["z"].copy(), zero_padded(b["j"]), y1 / mu, zero_padded(b["y"]) / mu, mu)
    workspace = SpatscWorkspace(x)
    r = build_difference_operator(n)
    for sweep in range(SWEEPS):
        mu = mu_at(sweep)
        state, steps, residuals = workspace.sweep(dataclasses.replace(state, mu=mu), 0.1, 0.05)
        z, *new = reference_spatsc_sweep(x, *want, mu, 0.1, 0.05, OVER_RELAXATION)
        got = (state.w, state.j[:, :-1], mu * state.u1, mu * state.u2[:, :-1])
        for got_block, expected in zip(got, new):
            assert_close(got_block, expected, tol=1e-9)
        want_steps = (np.linalg.norm(new[0] - want[0]), np.linalg.norm(new[1] - want[1]))
        want_residuals = (np.linalg.norm(z - new[0]), np.linalg.norm(z @ r - new[1]))
        assert steps == pytest.approx(want_steps, rel=1e-9, abs=1e-12)
        assert residuals == pytest.approx(want_residuals, rel=1e-9, abs=1e-12)
        for block in (state.j, state.u2):
            assert not block[:, -1].view(np.int64).any()
        want = new
    assert 0 < np.count_nonzero(state.w) < state.w.size


@pytest.mark.parametrize("d, n, rank", SHAPES + SPATSC_SHAPES[1:2], ids=SHAPE_IDS + ["d>n"])
def test_spatsc_holds_no_more_than_the_linearized_sweep(d, n, rank):
    # Seven rotating N x N buffers, P, V_r and the r x N weights, against
    # the linearized sweep's workspace and fit operator.
    x, _ = warm_start(d, n, rank=rank)
    workspace = SpatscWorkspace(x)
    held = workspace.scratch + list(vars(workspace.start(1.0)).values())[:4]
    held += [workspace.p, workspace.v, workspace.weights]
    assert len(held) == 10 and sum(a.size for a in held[:8]) == 8 * n * n
    fit = FitOperator(x)
    linearized = owned_arrays(RelaxedWorkspace(fit)) + [fit.gram, *(fit.factor or ())]
    linearized = [a for a in linearized if a is not None]
    assert sum(a.nbytes for a in held) <= sum(a.nbytes for a in linearized)


def lasso_objectives(x, z, lam):
    """Each column's lasso objective 0.5 ||x_i - X z_i||^2 + lam ||z_i||_1."""
    return 0.5 * np.sum((x - x @ z) ** 2, axis=0) + lam * np.sum(np.abs(z), axis=0)


@pytest.mark.parametrize("d, n, rank", SHAPES, ids=SHAPE_IDS)
def test_ssc_matches_reference_across_shapes(d, n, rank):
    # ssc's FISTA steps run on the fit operator's step, Gram or factored
    # by shape, and take the extrapolated point's fit step from the last
    # two.  A KKT gap of 1e-6 pins each column's objective to far below
    # 1e-6; it pins Z only as well as the lasso is conditioned.
    x, _ = warm_start(d, n, rank=rank)
    lam = 0.05
    z, diag = ssc_solve(x, SolverConfig(lambda1=lam))
    want = lasso_cd_matrix(x, lam)
    objective_gap = lasso_objectives(x, z, lam) - lasso_objectives(x, want, lam)
    assert np.max(np.abs(objective_gap)) <= 1e-6
    assert np.max(np.abs(z - want)) <= 1e-3
    assert np.all(np.diag(z) == 0.0)
    gap = _stationarity_gap(x.T @ (x - x @ z), z, lam)
    assert diag.converged and gap <= 1e-6
    assert diag.feasibility_history[-1] == pytest.approx(gap, rel=1e-6, abs=1e-12)
    assert len(diag.feasibility_history) == diag.iterations


@pytest.mark.parametrize("d, n, rank", SHAPES, ids=SHAPE_IDS)
def test_ssc_sweeps_match_reference(d, n, rank):
    # The extrapolated point's fit step is combined from the last two
    # iterates'; the reference takes it afresh every sweep.
    x, _ = warm_start(d, n, rank=rank)
    lam = 0.05
    z, diag = ssc_solve(x, SolverConfig(lambda1=lam, max_iter=SWEEPS))
    assert diag.iterations == SWEEPS and len(diag.feasibility_history) == SWEEPS
    assert_close(z, reference_fista_lasso(x, lam, diag.l_z, SWEEPS), tol=1e-10)
    # Stopped by max_iter short of the gap, and saying so.
    gap = _stationarity_gap(x.T @ (x - x @ z), z, lam)
    assert not diag.converged and gap > 1e-6


def test_exact_sweeps_match_reference(warm):
    # The library keeps Y1 alone; the reference keeps E and Y1 apart, from
    # a consistent start E = -Y1, and the library's -Y1 must be its E.
    x, b = warm
    lam1, lam2, eta_z = 0.1, 0.5, 40.0
    state = dataclasses.replace(
        initial_exact_state(D, N, 1.0), z=b["z"], j=b["j"], y1=b["y1"], y2=b["y"]
    )
    want = (b["z"], -b["y1"], b["j"], b["y1"], b["y"])
    workspace = ExactWorkspace(x)
    for sweep in range(SWEEPS):
        state = dataclasses.replace(state, mu=mu_at(sweep))
        state = exact_iteration(x, state, lam1, lam2, eta_z, False, workspace=workspace)
        want = reference_exact_sweep(x, *want, mu_at(sweep), lam1, lam2, eta_z, ETA_J, False)
        got = (state.z, -state.y1, state.j, state.y1, state.y2)
        for got_block, expected in zip(got, want):
            assert_close(got_block, expected)


@pytest.mark.parametrize("start", ["zero", "random"])
def test_reference_exact_sweep_keeps_y1_at_minus_e(warm, start):
    # The relations the library's exact sweep rests on, pinned on the dense
    # reference, which forms E and Y1 each from its own formula: Y1+ = -E+,
    # and the fit residual X Z+ - X + E+ is (Y1+ - Y1) / mu.
    x, b = warm
    lam1, lam2, eta_z = 0.1, 0.5, 40.0
    if start == "zero":
        state = initial_exact_state(D, N, 1.0)
        blocks = (state.z, -state.y1, state.j, state.y1, state.y2)
    else:
        blocks = (b["z"], -b["y1"], b["j"], b["y1"], b["y"])
    for sweep in range(SWEEPS):
        mu = mu_at(sweep)
        new = reference_exact_sweep(x, *blocks, mu, lam1, lam2, eta_z, ETA_J, False)
        z, e, y1 = new[0], new[1], new[3]
        assert_close(y1, -e, tol=1e-13)
        fit = np.linalg.norm(x @ z - x + e)
        assert fit == pytest.approx(np.linalg.norm(y1 - blocks[3]) / mu, rel=1e-12)
        blocks = new
    assert np.count_nonzero(blocks[0]) > 0


def test_workspace_recomputes_for_a_state_it_did_not_produce(warm):
    # Re-running a sweep from an older state through the same workspace
    # gives what a fresh sweep gives.
    x, b = warm
    args = (0.1, 0.5, 3.0, 6.0, 1.02, False)
    start = dataclasses.replace(initial_relaxed_state(D, N, 1.0), z=b["z"], j=b["j"], y=b["y"])
    workspace = RelaxedWorkspace(FitOperator(x))
    relaxed_iteration(x, start, *args, workspace=workspace)
    again = relaxed_iteration(x, start, *args, workspace=workspace)
    fresh = relaxed_iteration(x, start, *args)
    for got, want in zip((again.z, again.j, again.y), (fresh.z, fresh.j, fresh.y)):
        assert np.array_equal(got, want)


def owned_arrays(workspace):
    """The arrays a workspace allocated: its own and its two output sets',
    without the caller's data matrix it holds."""
    owned = [a for a in vars(workspace).values() if isinstance(a, np.ndarray)]
    owned = [a for a in owned if a is not workspace.x]
    return owned + [a for out in workspace.sets for a in vars(out).values()]


@pytest.mark.parametrize("d, n", [(D, N), (20, 12)], ids=["d<n", "d>n"])
def test_workspace_sizes(d, n):
    # Every coupling-space block is held zero-padded, N x N.  The shared
    # admm.Workspace: Z, J, Y twice, then Z R and J - Z R, all N x N.
    # Relaxed adds the fit step: 9 N x N arrays.  Exact's Y slots hold Y2,
    # and it adds dZ R, the gradient step and a max(D, N) x N distance
    # buffer, for 11 N x N-sized arrays, and 3 D x N (Y1 twice and X Z - X).
    square = n * n
    x = np.ones((d, n))
    relaxed = owned_arrays(RelaxedWorkspace(FitOperator(x)))
    assert len(relaxed) == 9
    assert all(a.shape == (n, n) and a.flags.c_contiguous for a in relaxed)
    exact = owned_arrays(ExactWorkspace(x))
    assert len(exact) == 11 + 3
    assert sum(a.nbytes for a in exact) == 8 * (10 * square + max(d, n) * n + 3 * d * n)


@pytest.mark.parametrize("solver", ["relaxed", "exact"])
def test_workspace_refuses_other_data(warm, solver):
    # A workspace belongs to one data matrix; another one of its shape, or
    # an equal copy of it, is refused before any buffer is written.
    x, b = warm
    if solver == "relaxed":
        start = dataclasses.replace(initial_relaxed_state(D, N, 1.0), z=b["z"], j=b["j"], y=b["y"])
        sweep, args = relaxed_iteration, (0.1, 0.5, 3.0, 6.0, 1.02, False)
        workspace = RelaxedWorkspace(FitOperator(x))
    else:
        start = dataclasses.replace(
            initial_exact_state(D, N, 1.0), z=b["z"], j=b["j"], y1=b["y1"], y2=b["y"]
        )
        sweep, args = exact_iteration, (0.1, 0.5, 40.0, False)
        workspace = ExactWorkspace(x)
    for other in (warm_start(D, N, seed=12)[0], x.copy()):
        with pytest.raises(ValueError, match="another data matrix"):
            sweep(other, start, *args, workspace=workspace)
    assert workspace.j is None


@pytest.mark.parametrize("alpha", [0.5, 1.0, OVER_RELAXATION])
def test_coupling_step_matches_reference(warm, alpha):
    # The shared J step, residual and multiplier update alone, from a fresh
    # Z+ and a warm J and Y, against the J and Y lines of the dense
    # reference sweep.  Every pad it writes stays bit-pattern +0.0.
    x, b = warm
    mu, lam2 = 2.5, 4.0  # a part of J shrinks out
    z_new = 0.05 * np.random.default_rng(3).standard_normal((N, N))
    workspace = admm.Workspace(x)
    workspace.sync(x, b["z"], b["j"], b["y"])
    out = admm.free_set(workspace.sets, b["z"])
    out.z[:] = z_new
    column_differences(out.z, out=workspace.zr)
    j, y = workspace.couple(out, mu, mu * ETA_J, lam2, group_shrink_columns, alpha, np.empty((N, N)))
    want_j, want_y = reference_coupling_step(z_new, b["j"], b["y"], mu, lam2, ETA_J, alpha)
    assert_close(j, want_j)
    assert_close(y, want_y)
    assert_close(workspace.residual[:, :-1], want_j - z_new @ build_difference_operator(N))
    assert 0 < np.count_nonzero(want_j) < want_j.size
    for block in (out.j, out.y, workspace.residual):
        assert not block[:, -1].view(np.int64).any()
    assert j.base is out.j and y.base is out.y
    assert workspace.j is out.j and workspace.y is out.y


def check_fit_step(x, z, factored):
    """The operator's fit step against G - G Z taken densely, to 1e-12 of
    the size of G Z, so at any scale of X; its l_z is bitwise
    operator_norm_squared's."""
    fit = FitOperator(x)
    got = fit.fit(z)
    assert (fit.factor is not None) == factored
    assert fit.l_z == operator_norm_squared(x)
    gram = x.T @ x
    scale = np.max(np.abs(gram)) * max(1.0, np.max(np.sum(np.abs(z), axis=0)))
    assert np.max(np.abs(got - (gram - gram @ z))) <= 1e-12 * scale


@pytest.mark.parametrize(
    "d, n, rank, factored",
    [
        (30, 30, 6, True),  # square, rank 6
        (10, 40, None, True),  # N > 2D: r = D
        (40, 12, 3, True),  # D > N: the factor comes from X^T X
        (1, 9, None, True),  # D = 1
        (8, 16, None, False),  # 2 r = N: the Gram form
        (20, 12, None, False),  # full rank with D > N
    ],
    ids=["square-rank6", "n>2d", "d>n-rank3", "d=1", "2r=n", "d>n"],
)
def test_fit_step_matches_dense_gram_form(d, n, rank, factored):
    rng = np.random.default_rng(d * n)
    x = low_rank(rng, d, n, rank)
    check_fit_step(x, rng.standard_normal((n, n)), factored)


def test_fit_step_of_zero_data_is_zero():
    fit = FitOperator(np.zeros((4, 6)))
    z = np.random.default_rng(0).standard_normal((6, 6))
    assert np.array_equal(fit.fit(z), np.zeros((6, 6)))
    assert fit.l_z == 0.0 and fit.rank == 0 and fit.factor[0].shape == (6, 0)


def test_gram_factor_rank_is_the_numerical_rank():
    rng = np.random.default_rng(3)
    for rank in range(6):
        fit = FitOperator(low_rank(rng, 12, 20, rank))
        assert fit.rank == rank and fit.factor[0].shape == (20, rank)
    # Half of N or more: no factor.
    fit = FitOperator(low_rank(rng, 12, 20, 10))
    assert fit.rank == 10 and fit.factor is None


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.integers(3, 14),
    rank=st.integers(0, 6),
    log_scale=st.integers(-4, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_fit_step_matches_gram_form(d, n, rank, log_scale, seed):
    # Any X whose rank r has 2 r < N takes the factored form, at any scale.
    rank = min(rank, d, (n - 1) // 2)
    rng = np.random.default_rng(seed)
    x = 10.0**log_scale * low_rank(rng, d, n, rank)
    check_fit_step(x, rng.standard_normal((n, n)), factored=True)


@pytest.fixture(scope="module")
def protocol_x():
    x, _ = generate_synthetic(SyntheticSpec(seed=0))
    return normalize_columns(x)


SOLVES = {
    "relaxed": solve_relaxed,
    "spatsc": spatsc_solve,
    "ssc": ssc_solve,
    "exact": solve_exact,
}


@pytest.mark.parametrize("solve", list(SOLVES))
@pytest.mark.parametrize("rank", [20, 100], ids=["rank20", "full-rank"])
def test_one_eigenvalue_solve_per_solve(protocol_x, monkeypatch, solve, rank):
    # l_z and the rank of X come from one eigvalsh of the smaller Gram
    # matrix; the factored fit step (2 r < N) adds one eigh for its factor.
    # osc-exact takes only l_z.  spatsc's exact Z step takes l_z, r and its
    # eigenbasis from one eigh of X^T X, at any rank.
    x = protocol_x
    if rank == 100:
        x = normalize_columns(add_noise_psnr(protocol_x, 20.0, seed=1))
    assert np.linalg.matrix_rank(x) == rank
    calls = dict.fromkeys(("eigvalsh", "eigh"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    SOLVES[solve](x, SolverConfig(max_iter=5))
    if solve == "spatsc":
        assert calls == {"eigvalsh": 0, "eigh": 1}
    else:
        assert calls == {"eigvalsh": 1, "eigh": int(rank == 20 and solve != "exact")}


def assert_same_solve(z, diag, reference):
    want_z, sweeps, feasibility, change, mu = reference
    assert diag.iterations == sweeps
    np.testing.assert_allclose(diag.feasibility_history, feasibility, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(diag.change_history, change, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(diag.mu_history, mu, rtol=1e-12)
    assert_close(z, want_z, tol=1e-9)


@pytest.mark.parametrize("solver", ["relaxed", "spatsc", "exact"])
def test_objective_matches_dense_difference_product(protocol_x, monkeypatch, solver):
    # The reported objective reads the N - 1 columns of Z R, not the zero
    # pad of the sweeps' layout: it matches a dense Z @ R recomputation.
    x = protocol_x
    n = x.shape[1]
    r = build_difference_operator(n)
    config = SolverConfig(max_iter=60)
    if solver == "exact":
        states = []
        sweep = exact.exact_iteration

        def kept(*args, **kwargs):
            states.append(sweep(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(exact, "exact_iteration", kept)
        z, diag = solve_exact(x, config)
        fit = 0.5 * np.sum(states[-1].y1**2)  # E = -Y1
        smooth = np.sum(np.linalg.norm(z @ r, axis=0))
    else:
        solve = solve_relaxed if solver == "relaxed" else spatsc_solve
        if solver == "spatsc":
            config = dataclasses.replace(config, lambda1=0.1, lambda2=0.01)
        z, diag = solve(x, config)
        fit = 0.5 * np.sum((x - x @ z) ** 2)
        zr = z @ r
        smooth = np.sum(np.abs(zr)) if solver == "spatsc" else np.sum(np.linalg.norm(zr, axis=0))
    want = fit + config.lambda1 * np.sum(np.abs(z)) + config.lambda2 * smooth
    assert diag.objective_value == pytest.approx(want, rel=1e-12)


def relaxed_start(x, mu0):
    """The default start's blocks, as the reference drivers take them."""
    state = initial_relaxed_state(*x.shape, mu0)
    return state.z, state.j, state.y


def exact_start(x, mu0):
    """The default start's blocks with E = -Y1, as the reference takes them."""
    state = initial_exact_state(*x.shape, mu0)
    return state.z, -state.y1, state.j, state.y1, state.y2


def test_relaxed_solve_matches_reference(protocol_x):
    # The default start (every block zero) and the over-relaxed sweep of
    # the multiplicative schedule, against the dense formulas.
    config = SolverConfig()
    z, diag = solve_relaxed(protocol_x, config)
    assert diag.converged
    start = relaxed_start(protocol_x, config.mu0)
    assert_same_solve(
        z, diag, reference_relaxed_solve(protocol_x, config, diag.l_z, diag.eta_z, start)
    )


@pytest.fixture(scope="module")
def protocol_x_20db():
    x, _ = generate_synthetic(SyntheticSpec(seed=0))
    return normalize_columns(add_noise_psnr(x, 20.0, seed=1))


def test_spatsc_solve_matches_reference(protocol_x_20db):
    # The zero start, the scaled multipliers and the exact Z step through
    # the eigenbases, against unscaled multipliers and Bartels-Stewart.
    x = protocol_x_20db
    n = x.shape[1]
    config = SolverConfig(lambda1=0.1, lambda2=0.01)
    w, diag = spatsc_solve(x, config)
    assert diag.converged
    start = (np.zeros((n, n)), np.zeros((n, n - 1)), np.zeros((n, n)), np.zeros((n, n - 1)))
    assert_same_solve(w, diag, reference_spatsc_solve(x, config, start))


def test_exact_solve_matches_reference(protocol_x):
    config = SolverConfig()
    z, diag = solve_exact(protocol_x, config)
    assert diag.converged
    start = exact_start(protocol_x, config.mu0)
    assert_same_solve(z, diag, reference_exact_solve(protocol_x, config, diag.eta_z, start))


def test_additive_schedule_runs_the_plain_sweep_bitwise(protocol_x, monkeypatch):
    # From the all-ones multiplier the default start once had, the
    # additive-schedule solve_monitored is bitwise the solve of the
    # unrelaxed sweep: the same Z, sweep count and histories.
    start = initial_relaxed_state(*protocol_x.shape, 1.0)
    start.y[:] = 1.0
    config = SolverConfig(max_iter=200)
    z, diag = relaxed.solve_monitored(protocol_x, config, initial_state=start)
    monkeypatch.setattr(relaxed, "relaxed_iteration", plain_relaxed_sweep)
    want_z, want = relaxed.solve_monitored(protocol_x, config, initial_state=start)
    assert np.array_equal(z, want_z)
    assert diag.iterations == want.iterations == 200
    for name in ("feasibility_history", "change_history", "mu_history"):
        assert getattr(diag, name) == getattr(want, name)


@pytest.mark.parametrize("solver", ["relaxed", "exact"])
def test_solve_with_more_rows_than_columns_matches_reference(solver):
    # With D > N the D x N blocks are larger than every N x N buffer.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((20, 10))
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    config = SolverConfig()
    if solver == "relaxed":
        z, diag = solve_relaxed(x, config)
        start = relaxed_start(x, config.mu0)
        reference = reference_relaxed_solve(x, config, diag.l_z, diag.eta_z, start)
    else:
        z, diag = solve_exact(x, config)
        reference = reference_exact_solve(x, config, diag.eta_z, exact_start(x, config.mu0))
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

    # A warm start with a non-finite block is refused before the solve (see
    # test_admm.py); a finite multiplier near the largest double overflows
    # in the first sweep instead.  The exact Z step reads Y1 + mu (XZ - X -
    # Y1), which cancels Y1 at mu = 1, so its start takes mu = 2.
    def test_relaxed_infinite_multiplier(self, x):
        state = initial_relaxed_state(6, 8, 1.0)
        state.y[2, 3] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                solve_relaxed(x, SolverConfig(), initial_state=state)

    @pytest.mark.parametrize("block", ["y1", "y2"])
    def test_exact_infinite_multiplier(self, x, block):
        state = initial_exact_state(6, 8, 2.0)
        getattr(state, block)[2, 3] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iteration"):
                solve_exact(x, SolverConfig(), initial_state=state)
