"""Proximal operators used by the alternating-direction solvers."""

from __future__ import annotations

import numpy as np


def soft_threshold(v, tau, out=None):
    """Entrywise shrinkage: sign(v) * max(|v| - tau, 0).

    Proximal operator of ``tau * ||.||_1``, taken in two passes as
    ``v - clip(v, -tau, tau)``, which equals the formula above except that
    every entry with |v| <= tau is +0.0 (never -0.0).  ``tau`` may be a
    scalar or an array broadcastable against ``v`` (one threshold per
    column, say).  ``clip`` is fast only for a scalar ``tau``: with one
    threshold per column it runs about 10% slower than the formula above
    in four passes.  ``out``, if given, receives the result and must not
    overlap ``v``; otherwise the result is the only array allocated.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("threshold tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(v.shape, tau.shape))
    np.clip(v, -tau, tau, out=out)
    return np.subtract(v, out, out=out)


def soft_threshold_zero_diag(v, tau, out=None):
    """Entrywise shrinkage on a square matrix with the diagonal forced to zero."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"zero-diagonal shrinkage needs a square matrix, got {v.shape}")
    out = soft_threshold(v, tau, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def group_shrink_columns(u, kappa, out=None):
    """Columnwise shrinkage: scale each column toward zero by kappa in norm.

    Proximal operator of ``kappa * sum_i ||u_i||_2`` over columns u_i.
    A column with norm at or below kappa maps to zero; otherwise it is
    scaled by ``(||u_i|| - kappa) / ||u_i||``.  ``out``, if given, receives
    the result and must not overlap ``u``.
    """
    if kappa < 0:
        raise ValueError("shrinkage weight kappa must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"column shrinkage needs a 2-D array, got shape {u.shape}")
    # The squares go through ``out`` before it takes the result; the sum
    # is the one np.linalg.norm(u, axis=0) takes.
    out = np.multiply(u, u, out=out)
    norms = np.sqrt(np.add.reduce(out, axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    scale = np.where(norms > kappa, (norms - kappa) / safe, 0.0)
    return np.multiply(u, scale, out=out)


def ridge_error_update(residual, y1, mu, out=None):
    """Closed-form error block of the augmented Lagrangian.

    Minimizes ``0.5*||E||_F^2 + <Y1, S + E> + (mu/2)*||S + E||_F^2`` over E
    for S = residual, giving ``E = -(mu*S + Y1) / (1 + mu)``.  As mu grows
    the minimizer approaches ``-S``, closing the constraint ``S + E = 0``.
    ``out``, if given, receives the result.
    """
    residual = np.asarray(residual, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    if residual.shape != y1.shape:
        raise ValueError(f"shape mismatch: residual {residual.shape} vs y1 {y1.shape}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    out = np.multiply(residual, mu, out=out)
    out += y1
    out /= -(1.0 + mu)
    return out
