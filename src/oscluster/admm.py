"""The linearized-ADMM loop the solvers share.

The sequential solver, its SpatSC variant and the exact-constraint solver
are one linearized ADMM with an adaptive penalty mu (LADMAP, Lin, Liu & Su,
NIPS 2011).  They differ only in their sweep and stopping test, which they
pass to ``run`` as closures.
"""

from __future__ import annotations

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np


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
    """``initial_state`` if given, else ``default``; every array block of
    ``initial_state`` must have the shape of the same block of ``default``."""
    if initial_state is None:
        return default
    for f in fields(default):
        block = getattr(default, f.name)
        if isinstance(block, np.ndarray) and getattr(initial_state, f.name).shape != block.shape:
            raise ValueError("initial state shapes do not match the data matrix")
    return initial_state


def resolve_eta(config, default, floor, floor_name):
    """``config.eta_z`` if set, else ``default``; a set value must exceed ``floor``."""
    if config.eta_z is None:
        return default
    eta_z = float(config.eta_z)
    if eta_z <= floor:
        raise ValueError(f"eta_z must exceed {floor_name} ({floor:.6g}), got {eta_z}")
    return eta_z


def run(config, state, sweep, measure, additive_step, diag, monitor=None):
    """Sweep from ``state`` until ``measure`` reports convergence or
    ``config.max_iter`` sweeps have run; returns the last state.

    ``sweep(state)`` gives the next iterate at the same mu, ``measure(old,
    new)`` its ``(feasibility, change, converged)``.  Mu then grows by
    ``additive_step`` (additive schedule) or by ``gamma0`` once ``change``
    is under ``eps2``, up to ``mu_max``.  ``monitor(state)`` goes to
    ``diag.lyapunov_history``.
    """
    if monitor is not None:
        diag.lyapunov_history = []
    converged = False
    for _ in range(config.max_iter):
        mu = state.mu
        new = sweep(state)
        feasibility, change, converged = measure(state, new)
        if config.mu_schedule == "additive":
            mu_next = min(config.mu_max, mu + additive_step)
        else:
            gamma = config.gamma0 if change < config.eps2 else 1.0
            mu_next = min(config.mu_max, gamma * mu)
        state = replace(new, mu=mu_next)
        diag.feasibility_history.append(feasibility)
        diag.change_history.append(change)
        diag.mu_history.append(mu)
        if monitor is not None:
            diag.lyapunov_history.append(monitor(state))
        if converged:
            break
    diag.iterations = state.iteration
    diag.converged = converged
    return state
