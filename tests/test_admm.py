"""The one stop of the linearized-ADMM solvers, driven through ``admm.run``
with a fake state and a scripted sweep, and the warm-start check both
solvers share."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from oscluster import (
    DivergenceError,
    SolveDiagnostics,
    SolverConfig,
    initial_exact_state,
    initial_relaxed_state,
    solve_exact,
    solve_relaxed,
)
from oscluster import relaxed
from oscluster.admm import run
from oscluster.exact import ExactWorkspace, exact_iteration
from oscluster.relaxed import RelaxedWorkspace, relaxed_iteration
from oscluster.types import MU_GROWTH, MU_MAX, FitOperator

N = 4
BIG, SMALL = 1.0, 1e-6  # above and below the default eps = 1e-4


@dataclass
class FakeState:
    z: np.ndarray
    y: np.ndarray
    mu: float


def start(mu=1.0):
    return FakeState(np.zeros((N, N)), np.zeros((N, N - 1)), mu)


def scripted(script):
    """A sweep that replays ``script``, one ``(residual norms, step norms)``
    or ``(residual norms, step norms, multiplier entry)`` per sweep."""
    entries = iter(script)

    def sweep(state):
        residual_norms, steps, *multiplier = next(entries)
        y = state.y.copy()
        if multiplier:
            y[0, 0] = multiplier[0]
        return replace(state, y=y), steps, residual_norms

    return sweep


def solve(config, script, scale=(1.0, 1.0), increment=None, state=None):
    diag = SolveDiagnostics()
    state = run(
        config, state or start(config.mu0), scripted(script), ("y",), diag,
        increment=increment, scale=scale,
    )
    return state, diag


class TestStop:
    def test_stops_only_when_feasible_and_still(self):
        script = [
            ((SMALL,), (BIG, SMALL)),  # feasible, moving
            ((BIG,), (SMALL, SMALL)),  # infeasible, still
            ((SMALL,), (SMALL, SMALL)),  # both: stop here
            ((SMALL,), (SMALL, SMALL)),
        ]
        _, diag = solve(SolverConfig(), script)
        assert diag.converged and diag.iterations == 3
        assert diag.feasibility_history == [SMALL, BIG, SMALL]
        assert diag.change_history == [BIG, SMALL, 1.1 * SMALL]

    def test_every_residual_must_pass(self):
        # Exact-shaped: a fit residual that passes does not stop the solve
        # while the coupling residual does not.
        normalizer, weight = 2.0, 3.0
        script = [
            ((SMALL, BIG), (SMALL,) * 4),
            ((BIG, SMALL), (SMALL,) * 4),
            ((SMALL, SMALL), (SMALL,) * 4),
        ]
        _, diag = solve(SolverConfig(), script, scale=(normalizer, weight))
        assert diag.converged and diag.iterations == 3
        assert diag.feasibility_history == [BIG / normalizer, BIG / normalizer, SMALL / normalizer]
        mus = diag.mu_history
        assert diag.change_history == [mu * weight / normalizer * SMALL for mu in mus]

    def test_the_change_is_scaled_by_mu_weight_and_normalizer(self):
        # Feasible, and the raw step is under eps, but mu * weight /
        # normalizer lifts the change above it.
        script = [((SMALL, SMALL), (1e-5, 3e-5, 2e-5))] * 2
        config = SolverConfig(mu0=10.0, max_iter=2)
        _, diag = solve(config, script, scale=(0.5, 1.0))
        assert not diag.converged and diag.iterations == 2
        assert diag.change_history == [10.0 / 0.5 * 3e-5] * 2

    def test_budget_ends_the_solve_unconverged(self):
        _, diag = solve(SolverConfig(max_iter=3), [((BIG,), (BIG,))] * 3)
        assert not diag.converged and diag.iterations == 3

    def test_iterations_count_this_call_only(self):
        # A solve warm-started from another's last state counts its own
        # sweeps only.
        config = SolverConfig(max_iter=2)
        state, first = solve(config, [((BIG,), (BIG,))] * 2)
        _, second = solve(config, [((BIG,), (BIG,))] * 2, state=state)
        assert first.iterations == second.iterations == len(second.feasibility_history) == 2


class TestPenalty:
    # Warm starts just below the cap reach it in a few sweeps.  A still
    # sweep takes zero steps, so its change is 0 < eps at any mu; every
    # sweep is infeasible, so none stops the solve.

    def test_multiplicative_growth_only_when_still_and_capped(self):
        mu = 0.85 * MU_MAX
        assert mu * MU_GROWTH < MU_MAX < mu * MU_GROWTH**2
        config = SolverConfig(max_iter=6)
        steps = [BIG, 0.0, BIG, 0.0, 0.0, 0.0]
        state, diag = solve(config, [((BIG,), (s,)) for s in steps], state=start(mu))
        assert diag.mu_history == [mu, mu, mu * MU_GROWTH, mu * MU_GROWTH, MU_MAX, MU_MAX]
        assert state.mu == MU_MAX

    def test_additive_increment(self):
        # A given increment is added every sweep, still or not, up to MU_MAX.
        increment = 1e9
        config = SolverConfig(max_iter=4)
        script = [((BIG,), (s,)) for s in (BIG, 0.0, BIG, 0.0)]
        state, diag = solve(config, script, increment=increment, state=start(MU_MAX - 2.5e9))
        assert diag.mu_history == [7.5e9, 8.5e9, 9.5e9, MU_MAX]
        assert state.mu == MU_MAX


class TestDivergence:
    def test_non_finite_multiplier_with_finite_steps(self):
        script = [((BIG,), (BIG,)), ((BIG,), (BIG,), np.inf), ((BIG,), (BIG,))]
        with pytest.raises(DivergenceError, match="non-finite at iteration 2"):
            solve(SolverConfig(), script)

    def test_large_finite_multiplier_passes(self):
        # The multiplier sum overflows, but every entry is finite.
        state = start()
        state.y[1, 1] = 1e308
        with np.errstate(over="ignore"):
            _, diag = solve(SolverConfig(max_iter=1), [((BIG,), (BIG,), 1e308)], state=state)
        assert diag.iterations == 1 and not diag.converged


SOLVERS = {
    "relaxed": (solve_relaxed, initial_relaxed_state, ("z", "j", "y")),
    "exact": (solve_exact, initial_exact_state, ("z", "j", "y1", "y2")),
}
MALFORMED = {
    "list": lambda block: block.tolist(),
    "nan": lambda block: np.full_like(block, np.nan),
    "inf": lambda block: np.full_like(block, -np.inf),
    "complex": lambda block: block.astype(complex),
    "bool": lambda block: block.astype(bool),
}
BLOCK_CASES = [(s, b) for s, (_, _, blocks) in SOLVERS.items() for b in blocks]


def unit_columns(d, n):
    x = np.random.default_rng(3).standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0, keepdims=True)


class TestWarmStartBlocks:
    @pytest.mark.parametrize("malformed", list(MALFORMED))
    @pytest.mark.parametrize("solver, block", BLOCK_CASES)
    def test_malformed_block_is_refused_by_name(self, solver, block, malformed):
        # A list, a non-finite entry or a non-real dtype is bad input: a
        # ValueError naming the block, not AttributeError, DivergenceError
        # or UFuncTypeError from inside the first sweep.
        solve, initial, _ = SOLVERS[solver]
        state = initial(4, 6, 1.0)
        setattr(state, block, MALFORMED[malformed](getattr(state, block)))
        with pytest.raises(ValueError, match=f"initial state block {block} "):
            solve(unit_columns(4, 6), SolverConfig(max_iter=3), initial_state=state)

    @pytest.mark.parametrize("solver", list(SOLVERS))
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_integer_and_float_blocks_still_run(self, solver, dtype):
        # The solve reads a warm start's blocks as float64, so an integer or
        # float32 start gives the float64 start's solve.
        solve, initial, blocks = SOLVERS[solver]
        x, config = unit_columns(4, 6), SolverConfig(max_iter=20)
        state, cast = initial(4, 6, 1.0), initial(4, 6, 1.0)
        for name in blocks:
            values = np.arange(getattr(state, name).size).reshape(getattr(state, name).shape) % 3
            setattr(state, name, values.astype(float))
            setattr(cast, name, values.astype(dtype))
        z, diag = solve(x, config, initial_state=state)
        z_cast, diag_cast = solve(x, config, initial_state=cast)
        assert np.array_equal(z, z_cast) and diag.iterations == diag_cast.iterations == 20


# The coupling-space blocks of each state: N x (N-1) at the public edge,
# zero-padded N x N buffers inside the sweeps.
COUPLING = {"relaxed": ("j", "y"), "exact": ("j", "y2")}
LAYOUTS = {
    "C": lambda values: values.astype(float),
    "F": lambda values: np.asfortranarray(values, dtype=float),
    "int": lambda values: values,
}


def one_sweep(solver, x, state, workspace=None):
    if solver == "relaxed":
        return relaxed_iteration(x, state, 0.1, 0.5, 3.0, 6.0, 1.02, False, workspace=workspace)
    return exact_iteration(x, state, 0.1, 0.5, 40.0, False, workspace=workspace or ExactWorkspace(x))


def workspace_of(solver, x):
    return RelaxedWorkspace(FitOperator(x)) if solver == "relaxed" else ExactWorkspace(x)


def assert_public_layout(state, n):
    # Every coupling block is an N x (N-1) view of a zero-padded N x N buffer.
    for name in ("j", "y", "y2"):
        block = getattr(state, name, None)
        if block is not None:
            assert block.shape == (n, n - 1)
            assert block.base.shape == (n, n) and not block.base[:, -1].view(np.int64).any()


class TestCouplingLayout:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_plain_blocks_solve_like_library_blocks(self, solver, layout):
        # A caller's plain N x (N-1) blocks, C- or F-ordered or integer, are
        # padded once on entry and solve bitwise like the same values written
        # into a library-made state; neither start is written to.
        solve = SOLVERS[solver][0]
        initial = SOLVERS[solver][1]
        x, config = unit_columns(5, 8), SolverConfig(max_iter=30)
        rng = np.random.default_rng(4)
        library, plain = initial(5, 8, 1.0), initial(5, 8, 1.0)
        for name in COUPLING[solver]:
            values = rng.integers(-2, 3, size=(8, 7))
            getattr(library, name)[:] = values
            setattr(plain, name, LAYOUTS[layout](values))
        kept = {
            name: (getattr(library, name).base.copy(), getattr(plain, name).copy())
            for name in COUPLING[solver]
        }
        z, diag = solve(x, config, initial_state=library)
        z_plain, diag_plain = solve(x, config, initial_state=plain)
        assert np.array_equal(z, z_plain) and diag.iterations == diag_plain.iterations == 30
        for history in ("feasibility_history", "change_history", "mu_history"):
            assert getattr(diag, history) == getattr(diag_plain, history)
        for name, (library_buffer, plain_block) in kept.items():
            assert np.array_equal(getattr(library, name).base, library_buffer)
            assert np.array_equal(getattr(plain, name), plain_block)
            assert getattr(plain, name).dtype == plain_block.dtype

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_returned_blocks_are_n_by_n_minus_one(self, solver):
        x = unit_columns(5, 8)
        state = SOLVERS[solver][1](5, 8, 1.0)
        assert_public_layout(state, 8)
        workspace = workspace_of(solver, x)
        for _ in range(3):
            state = one_sweep(solver, x, state, workspace)
            assert_public_layout(state, 8)
        assert_public_layout(one_sweep(solver, x, state), 8)  # a fresh workspace
        if solver == "relaxed":
            final, _ = relaxed._solve_core(x, SolverConfig(max_iter=5))
            assert_public_layout(final, 8)

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_in_place_edit_of_a_returned_block_reaches_the_next_sweep(self, solver):
        # A returned multiplier is a view of the buffer the next sweep reads:
        # an edit through it gives the sweep of a plain start holding the edit.
        x = unit_columns(5, 8)
        workspace = workspace_of(solver, x)
        state = one_sweep(solver, x, SOLVERS[solver][1](5, 8, 2.0), workspace)
        state = one_sweep(solver, x, state, workspace)
        blocks = SOLVERS[solver][2]
        unedited = replace(state, **{name: getattr(state, name).copy() for name in blocks})
        getattr(state, COUPLING[solver][1])[2, 3] += 0.5
        plain = replace(state, **{name: getattr(state, name).copy() for name in blocks})
        got = one_sweep(solver, x, state, workspace)
        want = one_sweep(solver, x, plain, workspace_of(solver, x))
        for name in blocks:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert not np.array_equal(got.z, one_sweep(solver, x, unedited, workspace_of(solver, x)).z)
