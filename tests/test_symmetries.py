"""The objectives' exact symmetries, kept by the solvers up to rounding.

Reversing the sample order (X -> X P, with P the N x N reversal) maps a
solution Z to P Z P, and J to -P J Q with Q the (N-1) x (N-1) reversal.
Rotating the ambient space (X -> U X, with U orthogonal) leaves Z, J and
the coupling multiplier as they are.  Every solver starts from zero
blocks, which both maps fix, and each of its steps commutes with both, so
the transformed problem's iterates are the transformed iterates up to
rounding, and its stopping test reads the same norms.

A boundary column of R or R^T handled asymmetrically breaks the reversal;
a fit step that depends on the basis breaks the rotation; a start that
either map moves (a constant nonzero multiplier, say) breaks both.

The order-blind baselines, ssc and lrr-sim, keep every column permutation
(X -> X P maps Z to P^T Z P), not only the reversal, and the rotation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscluster import (
    SolverConfig,
    SyntheticSpec,
    add_noise_psnr,
    cluster_sequential,
    generate_synthetic,
    normalize_columns,
    sce,
    sim_closed_form,
    solve_exact,
    solve_relaxed,
    spatsc_solve,
    ssc_solve,
)

TOL = 1e-10
SOLVERS = {
    "osc-relaxed": (solve_relaxed, SolverConfig()),
    "osc-exact": (solve_exact, SolverConfig()),
    "spatsc": (spatsc_solve, SolverConfig(lambda1=0.1, lambda2=0.01, diag_zero=True)),
}
BASELINES = {
    "ssc": (ssc_solve, SolverConfig()),
    "lrr-sim": (lambda x, config: (sim_closed_form(x), None), None),
}


def reversed_order(x):
    """X P and the map that takes its Z back to the original order."""
    return x[:, ::-1], lambda z: z[::-1, ::-1]


def rotated(x, seed):
    """U X for a random orthogonal U, and the identity map on its Z."""
    u, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((x.shape[0],) * 2))
    return u @ x, lambda z: z


def permuted(x, seed):
    """X P for a random column permutation P, the map that takes its Z =
    P^T Z P back to the original order, and the permutation."""
    perm = np.random.default_rng(seed).permutation(x.shape[1])
    back = np.argsort(perm)
    return x[:, perm], lambda z: z[np.ix_(back, back)], perm


def assert_symmetric(method, x, transformed):
    solve, config = {**SOLVERS, **BASELINES}[method]
    z, diag = solve(x, config)
    x_moved, undo = transformed
    z_moved, diag_moved = solve(x_moved, config)
    gap = float(np.max(np.abs(undo(z_moved) - z)))
    assert gap <= TOL, f"{method}: max |dZ| {gap:.3g}"
    if diag is not None:
        assert diag_moved.iterations == diag.iterations


@pytest.fixture(scope="module")
def protocol_noisy():
    x, _ = generate_synthetic(SyntheticSpec(seed=3))
    return normalize_columns(add_noise_psnr(x, 20.0, seed=1003))


@pytest.mark.parametrize("method", list(SOLVERS))
@pytest.mark.parametrize("symmetry", ["reversal", "rotation"])
def test_protocol_solve_keeps_symmetry(protocol_noisy, method, symmetry):
    # The paper's 5 x 20 protocol at 20 dB: full rank, D = N = 100.
    x = protocol_noisy
    moved = reversed_order(x) if symmetry == "reversal" else rotated(x, 7)
    assert_symmetric(method, x, moved)


@pytest.mark.parametrize("method", list(BASELINES))
@pytest.mark.parametrize("symmetry", ["permutation", "rotation"])
def test_baseline_keeps_symmetry(protocol_noisy, method, symmetry):
    # ssc on the 20 dB protocol, where it converges.  That X has full rank,
    # so lrr-sim's projector would be the identity: it runs on the clean
    # protocol instead, of rank 20.
    if method == "lrr-sim":
        x, _ = generate_synthetic(SyntheticSpec(seed=3))
        x = normalize_columns(x)
    else:
        x = protocol_noisy
    if symmetry == "rotation":
        assert_symmetric(method, x, rotated(x, 7))
        return
    x_moved, undo, perm = permuted(x, 11)
    assert_symmetric(method, x, (x_moved, undo))
    # The same partition, not the same label bytes: k-means seeding
    # depends on the node order.
    config = BASELINES[method][1]
    labels = cluster_sequential(x, method=method, config=config, k=5).labels
    moved = cluster_sequential(x_moved, method=method, config=config, k=5).labels
    assert sce(moved, labels[perm]) == 0.0


@settings(max_examples=12, deadline=None)
@given(
    d=st.integers(1, 12),
    n=st.integers(3, 10),
    rank=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_solves_keep_symmetry(d, n, rank, seed):
    # D > N and rank-deficient X included, so both forms of the relaxed fit
    # step (Gram and factored) run.
    rng = np.random.default_rng(seed)
    rank = min(rank, d, n)
    x = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, n))
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    for method in SOLVERS:
        assert_symmetric(method, x, reversed_order(x))
        assert_symmetric(method, x, rotated(x, seed))
