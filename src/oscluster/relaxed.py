"""Sequential linearized ADMM for ordered self-expressive clustering.

Solves the relaxed objective

    min_Z,J  0.5*||X - X Z||_F^2 + lambda1*||Z||_1 + lambda2*||J||_{1,2}
    s.t.     J = Z R

where R is the forward-difference operator, so the group penalty pushes
neighbouring columns of Z toward each other and the coefficient matrix
becomes nearly block-constant along the sample order.  The two blocks are
updated in sequence with linearized proximal steps and an adaptive
penalty mu.  The sweep loop and the penalty schedule are shared with the
other solvers in ``admm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import admm
from .prox import group_shrink_columns, soft_threshold, soft_threshold_zero_diag
from .types import (
    SolveDiagnostics,
    SolverConfig,
    apply_difference_adjoint,
    as_data_matrix,
    check_finite,
    column_differences,
    difference_norm_squared,
    frobenius_distance,
    operator_norm_squared,
)


@dataclass
class RelaxedState:
    """One iterate of the sequential solver: blocks, multiplier and penalty."""

    z: np.ndarray
    j: np.ndarray
    y: np.ndarray
    mu: float
    iteration: int = 0


def initial_relaxed_state(d, n, mu0):
    """Default start: Z = 0, J = 0, Y = all-ones, penalty mu0."""
    return RelaxedState(
        z=np.zeros((n, n)),
        j=np.zeros((n, n - 1)),
        y=np.ones((n, n - 1)),
        mu=float(mu0),
        iteration=0,
    )


class RelaxedWorkspace:
    """Buffers shared by the sweeps of one solve on a D x N data matrix.

    A sweep writes its iterate into whichever of two buffer sets does not
    hold its input, so an iterate survives the next sweep and is
    overwritten by the one after.  The workspace also keeps products of the
    iterate it last produced: the constraint residual J - Z R, and, once
    asked for, the fit step X^T (X - X Z).  A sweep that starts from any
    other iterate recomputes them from its state.

    The fit step is taken as G - G Z, where the Gram matrix G = X^T X is
    formed once per data matrix and kept: one N x N x N product a sweep
    (2 N^3 flops) instead of X^T (X - X Z), two D x N x N products
    (4 D N^2 flops).  That halves the sweep's matmul work at N = D and
    equals it at N = 2D; only a workspace that is reused across sweeps
    amortises G, and for N > 2D the Gram form costs more flops.
    """

    def __init__(self, n):
        self.z = (np.empty((n, n)), np.empty((n, n)))
        self.j = (np.empty((n, n - 1)), np.empty((n, n - 1)))
        self.y = (np.empty((n, n - 1)), np.empty((n, n - 1)))
        self.zr = np.empty((n, n - 1))
        self.residual = np.empty((n, n - 1))  # J - Z R of the iterate in ``_of``
        self.nm = np.empty((n, n - 1))
        self.gram = np.empty((n, n))  # X^T X of ``_gram_of``
        self.fit = np.empty((n, n))  # X^T (X - X Z) of the iterate in ``_fit_of``
        self.scratch = np.empty(n * n)
        self._of = None
        self._fit_of = None
        self._gram_of = None

    def sync(self, state):
        """Make ``residual`` belong to ``state``, recomputing it if needed."""
        if self._of is None or self._of[0] is not state.z or self._of[1] is not state.j:
            np.subtract(state.j, column_differences(state.z, out=self.zr), out=self.residual)
            self._of = (state.z, state.j)

    def fit_step(self, x, z):
        """X^T (X - X Z) as G - G Z, computed once per iterate."""
        if self._fit_of is None or self._fit_of[0] is not x or self._fit_of[1] is not z:
            if self._gram_of is not x:
                np.matmul(x.T, x, out=self.gram)
                self._gram_of = x
            np.matmul(self.gram, z, out=self.fit)
            np.subtract(self.gram, self.fit, out=self.fit)
            self._fit_of = (x, z)
        return self.fit


def relaxed_iteration(
    x, state, lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox="l12", *, workspace=None
):
    """One sweep: Z from the k-th blocks, then J from the fresh Z, then Y.

    ``lam1`` may be a scalar or a length-N vector of per-column weights.
    ``j_prox`` selects the penalty on J: ``"l12"`` shrinks whole columns,
    ``"l1"`` shrinks entries.  A ``workspace`` (see RelaxedWorkspace) lets
    successive sweeps share buffers and the products one sweep leaves for
    the next; without one the sweep allocates its own and also forms the
    Gram matrix X^T X, which a workspace forms once for all its sweeps.
    """
    if j_prox not in ("l12", "l1"):
        raise ValueError(f"unknown j_prox {j_prox!r}")
    ws = workspace if workspace is not None else RelaxedWorkspace(x.shape[1])
    ws.sync(state)
    z, y, mu = state.z, state.y, state.mu
    step = mu * eta_z + l_z
    sigma_j = mu * eta_j
    slot = 1 if z is ws.z[0] else 0
    z_new, j_new, y_new = ws.z[slot], ws.j[slot], ws.y[slot]

    # V = Z + (X^T (X - X Z) + (Y + mu (J - Z R)) R^T) / (sigma_z + l_z),
    # built in place over the fit step, which is then no longer kept.
    v = ws.fit_step(x, z)
    ws._fit_of = None
    y_tilde = np.multiply(ws.residual, mu, out=ws.nm)
    y_tilde += y
    v += apply_difference_adjoint(y_tilde, out=ws.scratch.reshape(v.shape))
    v /= step
    v += z
    threshold = lam1 / step
    if diag_zero:
        soft_threshold_zero_diag(v, threshold, out=z_new)
    else:
        soft_threshold(v, threshold, out=z_new)

    zr = column_differences(z_new, out=ws.zr)
    u = np.divide(y, sigma_j, out=ws.nm)
    np.subtract(zr, u, out=u)
    if j_prox == "l12":
        group_shrink_columns(u, lam2 / sigma_j, out=j_new)
    else:
        soft_threshold(u, lam2 / sigma_j, out=j_new)

    residual = np.subtract(j_new, zr, out=ws.residual)
    ws._of = (z_new, j_new)
    np.multiply(residual, mu, out=y_new)
    y_new += y
    return RelaxedState(z_new, j_new, y_new, mu, state.iteration + 1)


def lyapunov_s(state, reference, eta_z, eta_j, l_z):
    """Descent monitor for the sequential solver.

    For a reference triple (Z*, J*, Y*) this evaluates

        (eta_z + l_z / mu) * ||Z - Z*||_F^2 - ||(Z - Z*) R||_F^2
        + eta_j * ||J - J*||_F^2 + mu^-2 * ||Y - Y*||_F^2.

    With eta_z above the squared spectral norm of R the quantity is
    nonnegative, and it is nonincreasing along the iterates when mu grows
    by at least ``l_z / (eta_z - ||R||^2)`` each sweep.
    """
    z_ref, j_ref, y_ref = reference
    dz = state.z - z_ref
    dj = state.j - j_ref
    dy = state.y - y_ref
    if dz.shape[0] != dz.shape[1] or dj.shape != dy.shape:
        raise ValueError("state and reference shapes are inconsistent")
    mu = state.mu
    value = (
        (eta_z + l_z / mu) * float(np.sum(dz * dz))
        - float(np.sum(column_differences(dz) ** 2))
        + eta_j * float(np.sum(dj * dj))
        + float(np.sum(dy * dy)) / mu**2
    )
    return value


def _stationarity_gap(fit_step, z, lam1, diag_zero):
    """Largest KKT violation of the per-column lasso at Z (diagonal excluded
    when it is constrained to zero); ``fit_step`` is X^T (X - X Z), the
    negated gradient of the fit."""
    lam = np.broadcast_to(np.asarray(lam1, dtype=float), (z.shape[0],))
    on_support = np.abs(fit_step - np.sign(z) * lam[None, :])
    off_support = np.maximum(np.abs(fit_step) - lam[None, :], 0.0)
    gap = np.where(z != 0.0, on_support, off_support)
    if diag_zero:
        np.fill_diagonal(gap, 0.0)
    return float(gap.max())


def _objective(x, z, lam1, lam2, j_prox):
    fit = 0.5 * float(np.sum((x - x @ z) ** 2))
    lam = np.broadcast_to(np.asarray(lam1, dtype=float), (z.shape[0],))
    l1 = float(np.sum(np.abs(z) * lam[None, :]))
    zr = column_differences(z)
    if j_prox == "l12":
        smooth = float(np.sum(np.linalg.norm(zr, axis=0)))
    else:
        smooth = float(np.sum(np.abs(zr)))
    return fit + l1 + lam2 * smooth


def _solve_core(
    x, lam1, config, j_prox="l12", initial_state=None, stationarity_tol=None,
    lyapunov_reference=None,
):
    """Shared driver behind the sequential solver and its variants.

    Stops when the constraint residual ||J - Z R||_F falls under eps1 and
    the scaled change mu * max(||dZ||_F, ||dJ||_F) falls under eps2; with
    ``stationarity_tol`` set it stops on the lasso KKT gap instead.  When
    ``lyapunov_reference`` is given, the descent monitor is evaluated
    against it after every sweep.
    """
    x = as_data_matrix(x)
    d, n = x.shape
    lam2, diag_zero = config.lambda2, config.diag_zero
    l_z = operator_norm_squared(x)
    r_norm2 = difference_norm_squared(n)
    # The default keeps the descent condition satisfiable: above ||R||^2
    # with headroom proportional to l_z / mu0.
    eta_z = admm.resolve_eta(
        config, r_norm2 + l_z / config.mu0 + 1e-3, r_norm2, "the squared spectral norm of R"
    )
    eta_j = float(config.eta_j)
    state = admm.start_state(initial_state, initial_relaxed_state(d, n, config.mu0))
    diag = SolveDiagnostics(eta_z=eta_z, l_z=l_z, mu_schedule=config.mu_schedule)
    workspace = RelaxedWorkspace(n)

    def sweep(state):
        return relaxed_iteration(
            x, state, lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox, workspace=workspace
        )

    def measure(old, new):
        dz = frobenius_distance(new.z, old.z, workspace.scratch)
        dj = frobenius_distance(new.j, old.j, workspace.scratch)
        # The distances are finite only where both iterates' Z and J are.
        check_finite(dz + dj + float(np.sum(new.y)), (new.z, new.j, new.y), new.iteration)
        feasibility = float(np.linalg.norm(workspace.residual))
        change = old.mu * max(dz, dj)
        if stationarity_tol is None:
            converged = feasibility < config.eps1 and change < config.eps2
        else:
            # The next sweep starts from the same fit step.
            fit_step = workspace.fit_step(x, new.z)
            converged = _stationarity_gap(fit_step, new.z, lam1, diag_zero) <= stationarity_tol
        return feasibility, change, converged

    monitor = None
    if lyapunov_reference is not None:
        def monitor(state):
            return lyapunov_s(state, lyapunov_reference, eta_z, eta_j, l_z)

    state = admm.run(config, state, sweep, measure, l_z / (eta_z - r_norm2), diag, monitor)
    diag.objective_value = _objective(x, state.z, lam1, lam2, j_prox)
    return state, diag


def solve_relaxed(x, config=None, initial_state=None):
    """Solve the relaxed ordered-clustering objective.

    Returns ``(z, diagnostics)``.  With ``config.monitor_lyapunov`` the
    solve runs twice: once to locate the final iterate, once to record the
    descent monitor against it (memory stays flat, time doubles).
    ``initial_state`` allows warm starts.
    """
    config = config if config is not None else SolverConfig()
    state, diag = _solve_core(x, config.lambda1, config, initial_state=initial_state)
    if config.monitor_lyapunov:
        reference = (state.z, state.j, state.y)
        state, diag = _solve_core(
            x, config.lambda1, config, initial_state=initial_state, lyapunov_reference=reference
        )
    return state.z, diag
