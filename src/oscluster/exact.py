"""Two-block linearized ADMM with exact self-expression constraints.

Solves

    min_{Z,E,J}  0.5*||E||_F^2 + lambda1*||Z||_1 + lambda2*||J||_{1,2}
    s.t.         X = X Z + E,   J = Z R

keeping the fitting error as an explicit block instead of folding it into
the objective.  E and J are separable given Z, so a sweep updates Z first
and then (E, J) from the fresh Z, a two-block LADMAP (Lin, Liu & Su, NIPS
2011); the multipliers then move with the fresh blocks.  That order
leaves Y1 = -E after every sweep, so a state keeps Y1 alone: E is -Y1.
The proximal weight eta_z must exceed ||X||^2 + ||R||^2, and the solver
takes 1.02 times that floor.  The sweep loop, the stop and the penalty
schedule are shared with the other solvers in ``admm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import admm
from .prox import group_shrink_columns, ridge_error_update, soft_threshold, soft_threshold_zero_diag
from .types import (
    SolveDiagnostics,
    SolverConfig,
    apply_difference_adjoint,
    as_data_matrix,
    column_differences,
    difference_norm_squared,
    frobenius_distance,
    operator_norm_squared,
    zero_padded,
)


@dataclass
class ExactState:
    """One iterate: Z, J, two multipliers and the penalty; E is -Y1."""

    z: np.ndarray
    j: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    mu: float


def initial_exact_state(d, n, mu0):
    """Default start: zero blocks, zero multipliers, penalty mu0.

    J and Y2 are N x (N-1) views of zero-padded N x N buffers, the layout
    of every state a sweep returns (see ``ExactWorkspace``).  As in
    ``initial_relaxed_state``, the zero multipliers keep the objective's
    symmetries: a rotation X -> Q X maps Y1 to Q Y1, and an order reversal
    maps Y2 to -P Y2 Q; a nonzero constant start moves.
    """
    return ExactState(
        z=np.zeros((n, n)),
        j=np.zeros((n, n))[:, :-1],
        y1=np.zeros((d, n)),
        y2=np.zeros((n, n))[:, :-1],
        mu=float(mu0),
    )


class ExactWorkspace:
    """Buffers shared by the sweeps of one solve on a D x N data matrix.

    Besides two output sets (see ``admm.buffer_sets``) the workspace keeps
    products of the iterate it last produced: X Z - X, Z R and the coupling
    residual J - Z R, plus that sweep's step dZ (in ``nn``) and dZ R.

    Every coupling-space block (J, Y2, Z R, dZ R and J - Z R) is held as an
    N x N C-contiguous buffer whose last column is a zero pad, +0.0 (see
    ``types.column_differences``), so Z R, M R^T and every pass over them
    run on whole contiguous buffers.  Shrinkage and the multiplier update
    keep the pad at +0.0 by themselves.  ``j`` and ``y2`` are the padded J
    and Y2 of that iterate, whose state exposes their N x (N-1) views.  A
    sweep that starts from any other iterate pads its J and Y2 once into
    fresh buffers and recomputes the products from its state.
    """

    def __init__(self, d, n):
        self.sets = admm.buffer_sets(z=(n, n), j=(n, n), y1=(d, n), y2=(n, n))
        self.zr = np.empty((n, n))  # Z R of the iterate in ``_of``
        self.dzr = np.empty((n, n))  # dZ R of the last sweep
        self.xz_x = np.empty((d, n))  # X Z - X
        self.coupling = np.empty((n, n))  # J - Z R
        self.nn = np.empty((n, n))  # the gradient step, then dZ of the last sweep
        self.scratch = np.empty(max(d, n) * n)  # for the step distances of a solve
        self.j = self.y2 = None
        self._of = None

    def sync(self, x, state):
        """Make the padded blocks and the kept products belong to ``state``,
        padding and recomputing them if needed."""
        of = (x, state.z, state.j, state.y2)
        if self._of is None or any(a is not b for a, b in zip(self._of, of)):
            self.j, self.y2 = zero_padded(state.j), zero_padded(state.y2)
            np.subtract(np.matmul(x, state.z, out=self.xz_x), x, out=self.xz_x)
            np.subtract(self.j, column_differences(state.z, out=self.zr), out=self.coupling)
            self._of = of


def exact_iteration(x, state, lam1, lam2, eta_z, diag_zero, *, workspace):
    """One sweep: Z from the k-th iterate, then E and J from the fresh Z.

    E+ = ridge_error_update(X Z+ - X, Y1, mu) makes Y1 + mu (X Z+ - X + E+)
    equal to -E+, so the sweep keeps Y1+ = -E+ alone.  J's proximal weight
    is mu * ``admm.ETA_J``.  Re-running this on the same state reproduces
    the output bitwise.  The ``workspace`` (see ExactWorkspace) lets
    successive sweeps share buffers and the products one sweep leaves for
    the next.
    """
    ws = workspace
    ws.sync(x, state)
    z, y1, y2, mu = state.z, state.y1, ws.y2, state.mu
    sigma_z = mu * eta_z
    sigma_j = mu * admm.ETA_J
    out = admm.free_set(ws.sets, z)
    z_new, j_new, y1_new, y2_new = out.z, out.j, out.y1, out.y2

    # grad = X^T (Y1 + mu (X Z - X - Y1)) - (Y2 + mu (J - Z R)) R^T.  Each
    # temporary lives in an output slot until that slot takes its block.
    a = np.subtract(ws.xz_x, y1, out=y1_new)
    a *= mu
    a += y1
    grad = np.matmul(x.T, a, out=ws.nn)
    b = np.multiply(ws.coupling, mu, out=y2_new)
    b += y2
    grad -= apply_difference_adjoint(b, out=z_new)
    grad /= sigma_z
    v = np.subtract(z, grad, out=grad)
    if diag_zero:
        soft_threshold_zero_diag(v, lam1 / sigma_z, out=z_new)
    else:
        soft_threshold(v, lam1 / sigma_z, out=z_new)

    # Products of the fresh Z, each computed once.
    column_differences(z_new, out=ws.zr)
    column_differences(np.subtract(z_new, z, out=ws.nn), out=ws.dzr)
    np.subtract(np.matmul(x, z_new, out=ws.xz_x), x, out=ws.xz_x)

    ridge_error_update(ws.xz_x, y1, mu, out=y1_new)
    y1_new *= -1.0
    u = np.divide(y2, sigma_j, out=y2_new)
    np.subtract(ws.zr, u, out=u)
    group_shrink_columns(u, lam2 / sigma_j, out=j_new)

    np.subtract(j_new, ws.zr, out=ws.coupling)
    np.multiply(ws.coupling, mu, out=y2_new)
    y2_new += y2
    new = ExactState(z_new, j_new[:, :-1], y1_new, y2_new[:, :-1], mu)
    ws.j, ws.y2, ws._of = j_new, y2_new, (x, z_new, new.j, new.y2)
    return new


def solve_exact(x, config=None, initial_state=None):
    """Solve the exact-constraint objective; returns ``(z, diagnostics)``.

    ``admm.run`` stops it once three residual tests hold at once, each
    normalized by ||X||_F: the fit residual ||X Z - X + E|| and the coupling
    residual ||J - Z R|| under eps1, and the scaled iterate change
    ``mu * sqrt(eta_z) * max(||dZ||, ||dY1||, ||dJ||, ||dZ R||) / ||X||_F``
    under eps2.  With E = -Y1, ||dY1|| is ||dE||, and the fit residual is
    read from it as ||dY1|| / mu (see ``exact_iteration``).  An all-zero X
    gives Z = 0 without a sweep, reported as converged.
    """
    config = config if config is not None else SolverConfig()
    x = as_data_matrix(x)
    d, n = x.shape
    l_z = operator_norm_squared(x)
    # E and J read the fresh Z, so only the Z step linearizes the
    # constraints, and its weight needs only to clear ||X||^2 + ||R||^2.
    eta_z = 1.02 * (l_z + difference_norm_squared(n))
    x_fro = float(np.linalg.norm(x))
    state = admm.start_state(initial_state, initial_exact_state(d, n, config.mu0))
    diag = SolveDiagnostics(eta_z=eta_z, l_z=l_z)
    if x_fro == 0.0:
        # X = 0 is solved exactly by Z = E = J = 0, at objective 0; the
        # residuals below, normalized by ||X||_F, are undefined.
        diag.converged = True
        diag.objective_value = 0.0
        return np.zeros((n, n)), diag
    workspace = ExactWorkspace(d, n)

    def sweep(state):
        workspace.sync(x, state)
        j = workspace.j  # the padded J of ``state``; the norms run on whole buffers
        new = exact_iteration(
            x, state, config.lambda1, config.lambda2, eta_z, config.diag_zero, workspace=workspace
        )
        dy1 = frobenius_distance(new.y1, state.y1, workspace.scratch)
        steps = (
            float(np.linalg.norm(workspace.nn)),  # dZ
            dy1,
            frobenius_distance(workspace.j, j, workspace.scratch),
            float(np.linalg.norm(workspace.dzr)),  # dZ R
        )
        return new, steps, (dy1 / new.mu, float(np.linalg.norm(workspace.coupling)))

    scale = (x_fro, float(np.sqrt(eta_z)))
    state = admm.run(config, state, sweep, ("y1", "y2"), diag, scale=scale)
    zr = workspace.zr[:, :-1]  # Z R of the final iterate
    diag.objective_value = (
        0.5 * float(np.sum(state.y1**2))  # E = -Y1
        + config.lambda1 * float(np.sum(np.abs(state.z)))
        + config.lambda2 * float(np.sum(np.linalg.norm(zr, axis=0)))
    )
    return state.z, diag
