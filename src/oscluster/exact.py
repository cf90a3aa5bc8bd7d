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
takes 1.02 times that floor.  The J step and Y2 (``admm.Workspace.couple``,
unrelaxed), the sweep loop, the stop and the penalty schedule are shared
with the other solvers in ``admm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import admm
from .prox import group_shrink_columns, ridge_error_update, soft_threshold, soft_threshold_zero_diag
from .types import (
    SolveDiagnostics,
    apply_difference_adjoint,
    as_data_matrix,
    as_solver_config,
    column_differences,
    difference_norm_squared,
    frobenius_distance,
    operator_norm_squared,
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
    of every state a sweep returns (see ``admm.Workspace``).  As in
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


class ExactWorkspace(admm.Workspace):
    """The ``admm.Workspace`` of the exact sweep on a D x N ``x``: its y slots
    hold Y2, its output sets add Y1, and it keeps X Z - X of the iterate held,
    that sweep's dZ (in ``nn``) and dZ R, and a solve's distance scratch."""

    def __init__(self, x):
        d, n = x.shape
        super().__init__(x, y1=(d, n))
        self.dzr = np.empty((n, n))  # dZ R of the last sweep
        self.xz_x = np.empty((d, n))  # X Z - X
        self.nn = np.empty((n, n))  # the gradient step, then dZ of the last sweep
        self.scratch = np.empty(max(d, n) * n)  # for the step distances of a solve

    def recompute(self, z):
        np.subtract(np.matmul(self.x, z, out=self.xz_x), self.x, out=self.xz_x)


def exact_iteration(x, state, lam1, lam2, eta_z, diag_zero, *, workspace):
    """One sweep: Z from the k-th iterate, then E and J from the fresh Z.

    E+ = ridge_error_update(X Z+ - X, Y1, mu) makes Y1 + mu (X Z+ - X + E+)
    equal to -E+, so the sweep keeps Y1+ = -E+ alone.  J and Y2 are
    ``admm.Workspace.couple``'s at alpha = 1, J's weight mu * ``admm.ETA_J``.
    Re-running this on the same state reproduces the output bitwise.  The
    ``workspace`` (see ExactWorkspace), of this very ``x``, lets successive
    sweeps share buffers and the products one sweep leaves for the next.
    """
    ws = workspace
    ws.sync(x, state.z, state.j, state.y2)
    z, y1, y2, mu = state.z, state.y1, ws.y, state.mu
    sigma_z = mu * eta_z
    out = admm.free_set(ws.sets, z)
    z_new, y1_new = out.z, out.y1

    # grad = X^T (Y1 + mu (X Z - X - Y1)) - (Y2 + mu (J - Z R)) R^T.  Each
    # temporary lives in an output slot until that slot takes its block.
    a = np.subtract(ws.xz_x, y1, out=y1_new)
    a *= mu
    a += y1
    grad = np.matmul(x.T, a, out=ws.nn)
    b = np.multiply(ws.residual, mu, out=out.y)
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
    j_new, y2_new = ws.couple(out, mu, mu * admm.ETA_J, lam2, group_shrink_columns, 1.0)
    return ExactState(z_new, j_new, y1_new, y2_new, mu)


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
    config = as_solver_config(config)
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
    workspace = ExactWorkspace(x)

    def sweep(state):
        workspace.sync(x, state.z, state.j, state.y2)
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
        return new, steps, (dy1 / new.mu, float(np.linalg.norm(workspace.residual)))

    scale = (x_fro, float(np.sqrt(eta_z)))
    state = admm.run(config, state, sweep, ("y1", "y2"), diag, scale=scale)
    fit_term = 0.5 * float(np.sum(state.y1**2))  # E = -Y1
    diag.objective_value = workspace.objective(fit_term, config.lambda1, config.lambda2, True)
    return state.z, diag
