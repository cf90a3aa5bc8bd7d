"""Reference methods: per-column lasso, entrywise-smoothed variant, and the
closed-form shape-interaction projector."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .prox import soft_threshold_zero_diag
from .relaxed import _solve_core
from .types import FitOperator, SolveDiagnostics, SolverConfig, as_data_matrix

SSC_TOL = 1e-6  # the lasso KKT gap at which ssc stops


def _stationarity_gap(fit_step, z, lam):
    """Largest lasso KKT violation at Z off its zero diagonal; ``fit_step`` is
    X^T (X - X Z), the negated gradient of the fit, ``lam`` a weight per column."""
    off_support = np.maximum(np.abs(fit_step) - lam, 0.0)
    gap = np.where(z != 0.0, np.abs(fit_step - np.sign(z) * lam), off_support)
    np.fill_diagonal(gap, 0.0)
    return float(gap.max())


def ssc_solve(x, lam, config=None, return_diagnostics=False):
    """Sparse self-expression: each column solves its own lasso.

    Column i minimizes ``0.5*||x_i - X z||^2 + lam_i*||z||_1`` with the
    self-loop z_ii fixed to zero; ``lam`` is a positive scalar or a
    length-N vector.  FISTA (Beck & Teboulle, 2009) from Z = 0 with step
    1 / ||X||^2, restarting its momentum whenever that points uphill
    (O'Donoghue & Candes, 2015).  It stops at a lasso KKT gap of 1e-6 or
    after ``config.max_iter`` sweeps (default 5000), the only field of
    ``config`` it reads.  The diagnostics record ``iterations``,
    ``converged``, ``objective_value``, ``l_z`` = ||X||^2 and each sweep's
    KKT gap in ``feasibility_history``.
    """
    x = as_data_matrix(x)
    n = x.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,)).copy()
    if np.any(lam <= 0):
        raise ValueError("lasso weights must be positive")
    max_iter = config.max_iter if config is not None else 5000
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
    while gap > SSC_TOL and diag.iterations < max_iter:
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
    diag.objective_value = fit_term + float(np.abs(z).sum(axis=0) @ lam)
    if return_diagnostics:
        return z, diag
    return z


def spatsc_solve(x, lambda1, lambda2, config=None, return_diagnostics=False):
    """Entrywise-smoothed variant: same machinery as the sequential solver
    with the column-group shrinkage on J replaced by entrywise shrinkage,
    and the diagonal of Z constrained to zero.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("penalty weights must be nonnegative")
    config = config if config is not None else SolverConfig()
    config = replace(config, lambda1=lambda1, lambda2=lambda2, diag_zero=True)
    state, diag = _solve_core(x, config, j_prox="l1")
    if return_diagnostics:
        return state.z, diag
    return state.z


def sim_closed_form(a, rank_tol=1e-10):
    """Shape-interaction projector Z = V V^T from the right singular vectors
    of ``a`` whose singular values exceed ``rank_tol`` times the largest.

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
    v = vt[s > rank_tol * s[0]].T
    return v @ v.T
