"""Reference methods: per-column lasso, entrywise-smoothed variant, and the
closed-form shape-interaction projector."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .relaxed import _solve_core
from .types import SolverConfig, as_data_matrix


def ssc_solve(x, lam, config=None, return_diagnostics=False):
    """Sparse self-expression: each column solves its own lasso.

    Column i minimizes ``0.5*||x_i - X z||^2 + lam_i*||z||_1`` with the
    self-loop z_ii fixed to zero.  ``lam`` is a positive scalar or a
    length-N vector.  The solve reuses the linearized coefficient step
    with the column-coupling weight at zero and the penalty held at mu0
    (there is no constraint left to enforce), stopping on a lasso
    stationarity gap of 1e-6.
    """
    x = as_data_matrix(x)
    n = x.shape[1]
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,)).copy()
    if np.any(lam <= 0):
        raise ValueError("lasso weights must be positive")
    config = config if config is not None else SolverConfig(max_iter=5000)
    # gamma0 = 1 under the multiplicative schedule holds mu at mu0.
    config = replace(config, lambda2=0.0, diag_zero=True, gamma0=1.0, mu_schedule="multiplicative")
    state, diag = _solve_core(x, lam, config, stationarity_tol=1e-6)
    if return_diagnostics:
        return state.z, diag
    return state.z


def spatsc_solve(x, lambda1, lambda2, config=None, return_diagnostics=False):
    """Entrywise-smoothed variant: same machinery as the sequential solver
    with the column-group shrinkage on J replaced by entrywise shrinkage,
    and the diagonal of Z constrained to zero.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("penalty weights must be nonnegative")
    config = config if config is not None else SolverConfig()
    config = replace(config, lambda1=lambda1, lambda2=lambda2, diag_zero=True)
    state, diag = _solve_core(x, lambda1, config, j_prox="l1")
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
