"""Reference methods: per-column lasso, entrywise-smoothed variant, and the
closed-form shape-interaction projector.

The entrywise-smoothed variant (SpatSC) is a two-block ADMM (Boyd et al.,
Found. Trends ML 2011, section 4.2) that solves its Z step exactly, rather
than the linearized sweep of the sequential solvers; it shares their loop,
stop and penalty schedule, ``admm.run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import admm
from .prox import soft_threshold, soft_threshold_zero_diag
from .relaxed import OVER_RELAXATION, _solve_core  # noqa: F401 - a binding the perfbench tracer wraps
from .types import (
    FitOperator,
    SolveDiagnostics,
    apply_difference_adjoint,
    as_data_matrix,
    as_solver_config,
    column_differences,
    difference_eigenbasis,
)

SSC_TOL = 1e-6  # the lasso KKT gap at which ssc stops
SIM_RANK_TOL = 1e-10  # relative singular value below which sim drops a direction


def _stationarity_gap(fit_step, z, lam):
    """Largest lasso KKT violation at Z off its zero diagonal; ``fit_step`` is
    X^T (X - X Z), the negated gradient of the fit, ``lam`` the weight."""
    off_support = np.maximum(np.abs(fit_step) - lam, 0.0)
    gap = np.where(z != 0.0, np.abs(fit_step - np.sign(z) * lam), off_support)
    np.fill_diagonal(gap, 0.0)
    return float(gap.max())


def ssc_solve(x, config=None):
    """Sparse self-expression: each column solves its own lasso.

    Column i minimizes ``0.5*||x_i - X z||^2 + lambda1*||z||_1`` with the
    self-loop z_ii fixed to zero whatever ``config.diag_zero`` says.  FISTA
    (Beck & Teboulle, 2009) from Z = 0 with step 1 / ||X||^2, restarting
    its momentum whenever that points uphill (O'Donoghue & Candes, 2015).
    It stops at a lasso KKT gap of 1e-6 or after ``config.max_iter``
    sweeps; ``lambda1``, which must be positive, and ``max_iter`` are the
    only fields of ``config`` it reads.  Returns ``(z, diagnostics)``; the
    diagnostics record ``iterations``, ``converged``, ``objective_value``,
    ``l_z`` = ||X||^2 and each sweep's KKT gap in ``feasibility_history``.
    """
    x = as_data_matrix(x)
    n = x.shape[1]
    config = as_solver_config(config)
    lam = config.lambda1
    if lam <= 0:
        raise ValueError(f"ssc needs lambda1 > 0, got {lam}")
    operator = FitOperator(x)
    l_z = operator.l_z
    diag = SolveDiagnostics(l_z=l_z)
    # Z, the extrapolated point W and the next Z, each with its fit step.
    # The fit step is affine in Z, so W's follows from the other two.
    z, w, z_next = np.zeros((n, n)), np.zeros((n, n)), np.empty((n, n))
    fit = operator.fit(z)
    fit_w, fit_next = fit.copy(), np.empty((n, n))
    gap = _stationarity_gap(fit, z, lam)
    t = 1.0
    # A gap above zero needs a nonzero X, so l_z > 0 in the loop.
    while gap > SSC_TOL and diag.iterations < config.max_iter:
        # Z+ = prox(W + fit step of W / l_z), built over W's fit step.
        fit_w /= l_z
        fit_w += w
        soft_threshold_zero_diag(fit_w, lam / l_z, out=z_next)
        operator.fit(z_next, out=fit_next)
        gap = _stationarity_gap(fit_next, z_next, lam)
        diag.feasibility_history.append(gap)
        diag.iterations += 1
        # W - Z+ and Z+ - Z overwrite W and Z, which are done with.
        step = np.subtract(z_next, z, out=z)
        if np.vdot(np.subtract(w, z_next, out=w), step) > 0:
            t = 1.0  # the momentum points uphill: restart it
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        t, beta = t_next, (t - 1.0) / t_next
        # W = Z+ + beta (Z+ - Z), and its fit step likewise.
        np.multiply(step, beta, out=w)
        w += z_next
        np.subtract(fit_next, fit, out=fit_w)
        fit_w *= beta
        fit_w += fit_next
        z, z_next, fit, fit_next = z_next, z, fit_next, fit
    diag.converged = gap <= SSC_TOL
    fit_term = 0.5 * float(np.sum((x - x @ z) ** 2))
    diag.objective_value = fit_term + lam * float(np.abs(z).sum())
    return z, diag


@dataclass
class SpatscState:
    """One iterate of spatsc's ADMM: the split blocks W (= Z) and J (= Z R),
    their multipliers scaled by 1 / mu, U1 = Y1 / mu and U2 = Y2 / mu, and
    mu.  J and U2 are zero-padded N x N buffers (see ``admm.Workspace``)."""

    w: np.ndarray
    j: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    mu: float


class SpatscWorkspace:
    """The exact Z step of spatsc on a validated D x N ``x``, and the seven
    N x N buffers its sweeps rotate through: four hold the iterate, three
    are scratch.

    The Z step solves the Sylvester equation

        (X^T X + mu I) Z + mu Z R R^T = X^T X + mu M,

    which one eigenbasis on each side diagonalizes: V_r with the r
    eigenvalues lambda of one ``eigh`` of X^T X above ``FitOperator``'s
    rounding level (``l_z`` is the largest), and the closed-form DCT-II
    basis Q of R R^T, eigenvalues beta (``types.difference_eigenbasis``).
    Z = I solves it for M = I + R R^T, so with P = Q diag(1 + beta)^(-1/2)
    and E = (M - I - R R^T) P,

        Z = I + (E - V_r (L o V_r^T E)) P^T,   L_ij = lambda_i / (lambda_i + mu (1 + beta_j)),

    4 N^3 + 4 r N^2 flops; L is recomputed only when mu changes.
    """

    def __init__(self, x):
        d, n = x.shape
        eigenvalues, vectors = np.linalg.eigh(x.T @ x)
        self.l_z = float(eigenvalues[-1])
        top = eigenvalues > self.l_z * max(d, n) * np.finfo(float).eps
        self.lam = eigenvalues[top]
        self.v = np.ascontiguousarray(vectors[:, top])
        beta, q = difference_eigenbasis(n)
        self.c = 1.0 + beta
        self.p = q / np.sqrt(self.c)
        # The diagonal of I + R R^T; its off-diagonals are -1.
        self.shift = np.full(n, 3.0)
        self.shift[[0, -1]] = 2.0
        self.weights = np.empty((self.lam.size, n))  # L at ``mu``
        self.mu = None  # the last Z step's mu: L's, and the held multipliers' scale
        self.scratch = [np.empty((n, n)) for _ in range(3)]

    def start(self, mu0):
        """The zero start: every block and multiplier zero, penalty mu0."""
        n = self.p.shape[0]
        return SpatscState(*(np.zeros((n, n)) for _ in range(4)), float(mu0))

    def z_step(self, m, mu, out, scratch):
        """Z solving the equation above for the C-contiguous N x N ``m``,
        which it overwrites; ``out`` and ``scratch`` are two more N x N
        buffers, and Z is written to ``scratch``."""
        if mu != self.mu:
            np.add.outer(self.lam, mu * self.c, out=self.weights)
            np.divide(self.lam[:, None], self.weights, out=self.weights)
            self.mu = mu
        n, r = m.shape[0], self.lam.size
        flat = m.reshape(-1)  # M - I - R R^T, in place
        flat[:: n + 1] -= self.shift
        flat[1 :: n + 1] += 1.0
        flat[n :: n + 1] += 1.0
        e = np.matmul(m, self.p, out=out)
        s = np.matmul(self.v.T, e, out=flat[: r * n].reshape(r, n))
        s *= self.weights
        e -= np.matmul(self.v, s, out=scratch)
        z = np.matmul(e, self.p.T, out=scratch)
        z.reshape(-1)[:: n + 1] += 1.0
        return z

    def sweep(self, state, lam1, lam2):
        """One sweep from ``state``: Z exactly, then W and J from the fresh Z
        on the relaxed couplings h1 = alpha Z + (1 - alpha) W and h2 =
        alpha Z R + (1 - alpha) J, alpha = ``relaxed.OVER_RELAXATION``, then
        the scaled multipliers,

            W+ = prox(h1 - U1, lam1 / mu),  U1+ = U1 + W+ - h1,
            J+ = prox(h2 - U2, lam2 / mu),  U2+ = U2 + J+ - h2,

        with zero-diagonal and plain entrywise shrinkage.  The multipliers
        are updated in place, after a rescale by the old over the new mu if
        mu moved; W and J go to scratch buffers, and their old buffers
        become scratch.  Returns the next state, the steps (||dW||, ||dJ||)
        and the residuals (||Z+ - W+||, ||Z+ R - J+||) for ``admm.run``.
        """
        w, j, u1, u2, mu = state.w, state.j, state.u1, state.u2, state.mu
        if self.mu is not None and mu != self.mu:
            u1 *= self.mu / mu
            u2 *= self.mu / mu
        a, b, c = self.scratch
        np.add(j, u2, out=a)
        m = apply_difference_adjoint(a, out=b)
        m += w
        m += u1
        z = self.z_step(m, mu, a, c)

        h1 = _relaxed(z, w, out=a)
        v = np.subtract(h1, u1, out=u1)
        w_new = soft_threshold_zero_diag(v, lam1 / mu, out=b)
        np.subtract(w_new, v, out=u1)
        dw = float(np.linalg.norm(np.subtract(w_new, w, out=w)))
        rw = float(np.linalg.norm(np.subtract(z, w_new, out=w)))

        zr = column_differences(z, out=a)
        h2 = _relaxed(zr, j, out=c)
        v = np.subtract(h2, u2, out=u2)
        j_new = soft_threshold(v, lam2 / mu, out=w)
        np.subtract(j_new, v, out=u2)
        dj = float(np.linalg.norm(np.subtract(j_new, j, out=j)))
        rj = float(np.linalg.norm(np.subtract(zr, j_new, out=c)))
        self.scratch = [a, c, j]
        return SpatscState(w_new, j_new, u1, u2, mu), (dw, dj), (rw, rj)


def _relaxed(new, old, out):
    """alpha new + (1 - alpha) old, as old + alpha (new - old), in ``out``,
    with alpha = ``OVER_RELAXATION``."""
    h = np.subtract(new, old, out=out)
    h *= OVER_RELAXATION
    h += old
    return h


def spatsc_solve(x, config=None):
    """Entrywise-smoothed variant (SpatSC): minimizes

        0.5*||X - X Z||_F^2 + lambda1*||Z||_1 + lambda2*||Z R||_1

    with the diagonal of Z fixed to zero whatever ``config.diag_zero``
    says, by a two-block ADMM on the splits Z = W and J = Z R from zero
    blocks and multipliers (see ``SpatscWorkspace``).  Both couplings are
    over-relaxed by ``relaxed.OVER_RELAXATION``.  ``admm.run`` stops it
    once ||Z - W||_F, ||Z R - J||_F and mu * max(||dW||_F, ||dJ||_F) are
    all under eps, and grows mu by its multiplicative schedule.  Returns
    ``(w, diagnostics)``; ``eta_z`` stays NaN, since no step is linearized,
    and ``l_z`` is the top eigenvalue of the Z step's ``eigh``.
    """
    config = as_solver_config(config)
    x = as_data_matrix(x)
    lam1, lam2 = config.lambda1, config.lambda2
    workspace = SpatscWorkspace(x)
    diag = SolveDiagnostics(l_z=workspace.l_z)

    def sweep(state):
        return workspace.sweep(state, lam1, lam2)

    state = admm.run(config, workspace.start(config.mu0), sweep, ("u1", "u2"), diag)
    w = state.w
    smooth = np.abs(column_differences(w, out=workspace.scratch[0])[:, :-1])
    fit = 0.5 * float(np.sum((x - x @ w) ** 2))
    diag.objective_value = fit + lam1 * float(np.sum(np.abs(w))) + lam2 * float(np.sum(smooth))
    return w, diag


def sim_closed_form(a):
    """Shape-interaction projector Z = V V^T from the right singular vectors
    of ``a`` whose singular values exceed ``SIM_RANK_TOL`` times the largest.

    The result is a symmetric idempotent matrix with A Z = A.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"need a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if not np.any(a):
        raise ValueError("matrix is identically zero")
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt[s > SIM_RANK_TOL * s[0]].T
    return v @ v.T
