"""The ADMM loop the solvers share, and the linearized solvers' coupling step.

The sequential solver and the exact-constraint solver are one linearized
ADMM with an adaptive penalty mu (LADMAP, Lin, Liu & Su, NIPS 2011).  They
differ only in their Z step and in what it leaves for the stop; each of
their sweeps ends with ``Workspace.couple``.  The SpatSC baseline is a
plain two-block ADMM whose Z step is exact (``baselines.SpatscWorkspace``)
and which keeps its own buffers.  For all three, ``run`` alone decides
convergence, mu growth and divergence.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np

from .types import (
    MU_GROWTH, MU_MAX, DivergenceError, column_differences, is_finite_real, zero_padded,
)

def buffer_sets(**shapes):
    """Two sets of sweep output buffers, each with one array per named shape.

    A sweep writes its iterate into ``free_set(sets, z)``, the set that does
    not hold its input's ``z``, so an iterate survives the next sweep and is
    overwritten by the one after.
    """
    return tuple(SimpleNamespace(**{k: np.empty(s) for k, s in shapes.items()}) for _ in range(2))


def free_set(sets, z):
    """The one of the two ``sets`` whose ``z`` is not ``z``."""
    return sets[1] if z is sets[0].z else sets[0]


def start_state(initial_state, default):
    """``initial_state`` if given, else ``default``; a given state must be of
    ``default``'s type, with a positive mu of at most ``MU_MAX`` (the
    schedule never lowers mu) and finite real blocks of ``default``'s
    shapes, which the solve reads as float64."""
    if initial_state is None:
        return default
    kind, got = type(default).__name__, type(initial_state).__name__
    if not isinstance(initial_state, type(default)):
        raise ValueError(f"initial state must be of type {kind}, got {got}")
    mu = initial_state.mu
    if not is_finite_real(mu) or not 0 < mu <= MU_MAX:
        raise ValueError(f"initial state mu must be a positive number <= {MU_MAX:g}, got {mu!r}")
    blocks = {}
    for name in [f.name for f in fields(default) if f.name != "mu"]:
        want, block = getattr(default, name), getattr(initial_state, name)
        if not (isinstance(block, np.ndarray) and block.dtype.kind in "iuf"):
            what = getattr(block, "dtype", type(block).__name__)
            raise ValueError(f"initial state block {name} must be a real array, got {what}")
        if block.shape != want.shape or not np.isfinite(block).all():
            raise ValueError(f"initial state block {name} must be finite, of shape {want.shape}")
        blocks[name] = block.astype(float, copy=False)
    return replace(initial_state, **blocks)


def check_finite(quick, state, sweep):
    """Raise DivergenceError unless every value in ``state`` is finite.
    ``quick`` cannot be finite while any entry is not; only a non-finite one
    runs the entrywise test, so a finite state whose sum overflows passes."""
    if not math.isfinite(quick) and not all(np.isfinite(v).all() for v in vars(state).values()):
        raise DivergenceError(f"solver state became non-finite at iteration {sweep}")


# The J step's proximal weight, sigma_j = mu * ETA_J: J enters J = Z R through
# the identity, of squared norm 1, so LADMAP needs a weight above 1.
ETA_J = 1.02


class Workspace:
    """Buffers shared by the sweeps of one solve on the data matrix ``x``
    (held, not copied): two output sets (see ``buffer_sets``) with slots z,
    j and y for Z, J and its multiplier Y, plus a subclass's ``slots``, and
    the padded ``j`` and ``y``, Z R and J - Z R of the iterate it last wrote.

    Every coupling-space block (J, Y, Z R, h, J - Z R and any a subclass
    adds) is an N x N C-contiguous buffer whose last column is a zero pad,
    +0.0 (see ``types.column_differences``), so Z R, M R^T and every pass
    over them run on whole buffers; shrinkage and the multiplier update
    keep the pad at +0.0, and states expose N x (N-1) views.  A sweep from
    any other iterate pads its J and Y once into fresh buffers and
    recomputes the products (``sync``).
    """

    def __init__(self, x, **slots):
        n = x.shape[1]
        self.x = x
        self.sets = buffer_sets(z=(n, n), j=(n, n), y=(n, n), **slots)
        self.zr = np.empty((n, n))
        self.residual = np.empty((n, n))  # J - Z R of the iterate in ``_of``
        self.j = self.y = None
        self._of = (None, None, None)

    def sync(self, x, z, j, y):
        """Make ``j``, ``y`` and the kept products those of the iterate (``z``,
        ``j``, ``y``) of ``x`` unless this workspace wrote it.  Another ``x``,
        an equal copy too, is refused."""
        if x is not self.x:
            raise ValueError("the workspace belongs to another data matrix")
        if any(a is not b for a, b in zip(self._of, (z, j, y))):
            self.j, self.y = zero_padded(j), zero_padded(y)
            np.subtract(self.j, column_differences(z, out=self.zr), out=self.residual)
            self.recompute(z)
            self._of = (z, j, y)

    def recompute(self, z):
        """Recompute the products a subclass keeps of a foreign iterate's Z."""

    def hold(self, z, j, y):
        """Hold the iterate a sweep just wrote, with padded ``j`` and ``y``;
        returns the N x (N-1) views of those two that its state exposes."""
        self.j, self.y = j, y
        self._of = (z, j[:, :-1], y[:, :-1])
        return self._of[1:]

    def couple(self, out, mu, sigma_j, lam2, prox, alpha, scratch=None):
        """The end of every sweep, after its Z step wrote Z+ to ``out.z`` and
        Z+ R to ``zr``: J+ = prox(h - Y / sigma_j, lam2 / sigma_j), the
        residual J+ - Z+ R (unrelaxed: the next Z step's and the stop's) and
        Y+ = Y + mu (J+ - h), on h = alpha Z+ R + (1 - alpha) J (Eckstein &
        Bertsekas, Math. Prog. 1992; alpha in (0, 2)).  At ``alpha`` = 1, h
        is Z+ R, read with no pass of its own; else it is built in the N x N
        ``scratch``.  J+ and Y+ go to ``out``; returns their views."""
        zr, j_new, y_new = self.zr, out.j, out.y
        h = zr
        if alpha != 1.0:
            # (1 - alpha) J passes through J+'s slot, which the J step then takes.
            h = np.multiply(zr, alpha, out=scratch)
            h += np.multiply(self.j, 1.0 - alpha, out=j_new)
        u = np.divide(self.y, sigma_j, out=y_new)
        np.subtract(h, u, out=u)
        prox(u, lam2 / sigma_j, out=j_new)
        np.subtract(j_new, zr, out=self.residual)
        if h is zr:
            np.multiply(self.residual, mu, out=y_new)
        else:
            np.subtract(j_new, h, out=y_new)
            y_new *= mu
        y_new += self.y
        return self.hold(out.z, j_new, y_new)

    def objective(self, fit, lam1, lam2):
        """``fit`` + lam1 ||Z||_1 + lam2 sum_i ||(Z R)_i|| at the iterate held."""
        z, zr = self._of[0], self.zr[:, :-1]
        smooth = np.linalg.norm(zr, axis=0)
        return fit + lam1 * float(np.sum(np.abs(z))) + lam2 * float(np.sum(smooth))


def run(config, state, sweep, multipliers, diag, monitor=None, increment=None, scale=(1.0, 1.0)):
    """Sweep from ``state`` until it converges or ``config.max_iter`` sweeps
    have run; returns the last state and records the solve in ``diag``.

    ``sweep(state)`` gives the next iterate at the same mu, its step norms
    and its residual norms; ``multipliers`` are the names of the multiplier
    blocks.  With ``scale = (normalizer, weight)`` the solve converges once

        feasibility = max residual norm / normalizer < eps  and
        change = mu * weight / normalizer * max step norm < eps,

    with ``eps = config.eps``.  Mu then grows, up to ``MU_MAX``, by the
    factor ``MU_GROWTH`` once change < eps, or, given an ``increment``, by
    that fixed amount every sweep (the descent monitor's rule, see
    ``relaxed.solve_monitored``).  A non-finite iterate, flagged by the step
    norms and multiplier sums, raises DivergenceError.  ``monitor(state)``
    goes to ``diag.lyapunov_history``; ``diag.iterations`` counts this
    call's sweeps.
    """
    normalizer, weight = scale
    if monitor is not None:
        diag.lyapunov_history = []
    converged = False
    for sweeps in range(1, config.max_iter + 1):
        mu = state.mu
        new, steps, residual_norms = sweep(state)
        quick = sum(steps)
        for name in multipliers:
            block = getattr(new, name)
            # A coupling multiplier is a view of its zero-padded buffer: sum
            # the whole contiguous buffer, not the strided view.
            quick += float(np.sum(block if block.base is None else block.base))
        check_finite(quick, new, sweeps)
        feasibility = max(residual_norms) / normalizer
        change = mu * weight / normalizer * max(steps)
        still = change < config.eps
        converged = feasibility < config.eps and still
        if increment is not None:
            mu_next = min(MU_MAX, mu + increment)
        else:
            mu_next = min(MU_MAX, (MU_GROWTH if still else 1.0) * mu)
        state = replace(new, mu=mu_next)
        diag.feasibility_history.append(feasibility)
        diag.change_history.append(change)
        diag.mu_history.append(mu)
        if monitor is not None:
            diag.lyapunov_history.append(monitor(state))
        if converged:
            break
    diag.iterations, diag.converged = sweeps, converged
    return state
