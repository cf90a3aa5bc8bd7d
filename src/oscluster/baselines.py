"""Reference methods: per-column lasso, entrywise-smoothed variant, and the
closed-form shape-interaction projector."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .prox import soft_threshold_zero_diag
from .relaxed import _solve_core
from .types import FitOperator, SolveDiagnostics, as_data_matrix, as_solver_config

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


def spatsc_solve(x, config=None):
    """Entrywise-smoothed variant: same machinery as the sequential solver
    with the column-group shrinkage on J replaced by entrywise shrinkage,
    and the diagonal of Z fixed to zero whatever ``config.diag_zero`` says.
    Returns ``(z, diagnostics)``.
    """
    config = as_solver_config(config)
    state, diag = _solve_core(x, replace(config, diag_zero=True), j_prox="l1")
    return state.z, diag


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
