"""Shared data model: dense matrices, configuration and diagnostics.

Data matrices are D x N with one sample per column; column order is the
sample order, so neighbouring columns are expected to be related.
Coefficient matrices are N x N and express each sample in terms of the
others.  Everything is dense float64; sparsity is only ever an internal
optimization, never a storage contract.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when a solver iterate leaves the finite domain (NaN or Inf)."""


def as_data_matrix(values):
    """Validate and return a D x N data matrix as float64.

    Requires a 2-D array with D >= 1, N >= 2 and finite entries.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data matrix must be 2-D, got shape {x.shape}")
    d, n = x.shape
    if d < 1 or n < 2:
        raise ValueError(f"data matrix needs D >= 1 and N >= 2, got {d}x{n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix contains non-finite entries")
    return x


def as_coefficient_matrix(values, expect_zero_diag=False):
    """Validate an N x N coefficient matrix; optionally require a zero diagonal."""
    z = np.asarray(values, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("coefficient matrix contains non-finite entries")
    if expect_zero_diag and np.any(np.diag(z) != 0.0):
        raise ValueError("coefficient matrix has nonzero diagonal entries")
    return z


def as_labels(values, num_clusters=None):
    """Validate an integer label vector; entries must lie in [0, num_clusters)."""
    labels = np.asarray(values)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    if not np.issubdtype(labels.dtype, np.integer):
        rounded = np.rint(np.asarray(labels, dtype=float))
        if not np.array_equal(rounded, np.asarray(labels, dtype=float)):
            raise ValueError("labels must be integers")
        labels = rounded.astype(int)
    labels = labels.astype(int)
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    if num_clusters is not None and labels.max() >= num_clusters:
        raise ValueError(
            f"label {labels.max()} out of range for {num_clusters} clusters"
        )
    return labels


def build_difference_operator(n):
    """Return the N x (N-1) forward-difference operator R.

    Column i of Z @ R is z_{i+1} - z_i, so penalties on Z @ R couple
    neighbouring columns of Z.  Entries: R[i, i] = -1, R[i+1, i] = +1.
    """
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    r = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    r[idx, idx] = -1.0
    r[idx + 1, idx] = 1.0
    return r


def column_differences(z, out=None):
    """Z @ R computed structurally: consecutive column differences.

    ``out``, if given, receives the N x (N-1) result.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"need a 2-D array with >= 2 columns, got shape {z.shape}")
    return np.subtract(z[:, 1:], z[:, :-1], out=out)


def apply_difference_adjoint(m, out=None):
    """M @ R.T computed structurally for M with N-1 columns, in one pass.

    ``out``, if given, receives the result and must not overlap ``m``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError(f"need a 2-D array with >= 1 column, got shape {m.shape}")
    if out is None:
        out = np.empty((m.shape[0], m.shape[1] + 1))
    # 0 - m rather than np.negative, which gave wrong values on strided
    # columns with numpy 2.4.6 on an AVX-512 machine.
    np.subtract(0.0, m[:, 0], out=out[:, 0])
    np.subtract(m[:, :-1], m[:, 1:], out=out[:, 1:-1])
    out[:, -1] = m[:, -1]
    return out


def difference_norm_squared(n):
    """Squared spectral norm of the N x (N-1) forward-difference operator R.

    R^T R is the (N-1) x (N-1) second-difference matrix tridiag(-1, 2, -1),
    whose eigenvalues are 4 sin^2(k pi / (2N)) for k = 1 .. N-1.
    """
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    return 4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2


def frobenius_distance(a, b, scratch):
    """||a - b||_F, with the difference written into the flat buffer ``scratch``.

    ``scratch`` must hold at least ``a.size`` entries.
    """
    if scratch.size < a.size:
        raise ValueError(f"scratch holds {scratch.size} entries, need {a.size}")
    diff = np.subtract(a, b, out=scratch[: a.size].reshape(a.shape))
    return float(np.linalg.norm(diff))


def check_finite(quick, arrays, iteration):
    """Raise DivergenceError unless every entry of ``arrays`` is finite.

    ``quick`` is a number the caller already has that cannot be finite
    while any entry is not (a sum of the arrays' norms and sums, say).  The
    entrywise test runs only when ``quick`` is not finite, so a large but
    finite state whose sum overflows still passes.
    """
    if not math.isfinite(quick) and not all(np.isfinite(a).all() for a in arrays):
        raise DivergenceError(f"solver state became non-finite at iteration {iteration}")


def operator_norm_squared(m):
    """Squared spectral norm (largest squared singular value) of a matrix:
    the top eigenvalue of the smaller of its two Gram matrices."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"operator norm needs a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator norm input contains non-finite entries")
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return float(np.linalg.eigvalsh(gram)[-1])


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the alternating-direction solvers.

    ``eta_z`` is the proximal weight on the coefficient block; ``None``
    selects a per-solver default that satisfies the solver's convergence
    condition.  ``mu_schedule`` picks how the penalty grows: the default
    ``"multiplicative"`` rule scales mu by ``gamma0`` whenever the scaled
    iterate change falls under ``eps2``, while ``"additive"`` adds a fixed
    increment every sweep (the mode used for descent-monitor analysis).
    Every number must be finite and ``max_iter`` an int; anything else
    raises ``ValueError``.
    """

    lambda1: float = 0.1
    lambda2: float = 1.0
    mu0: float = 1.0
    mu_max: float = 1e10
    gamma0: float = 1.1
    eta_z: float | None = None
    eta_j: float = 1.02
    eps1: float = 1e-4
    eps2: float = 1e-4
    max_iter: int = 2000
    diag_zero: bool = False
    monitor_lyapunov: bool = False
    mu_schedule: str = "multiplicative"

    def __post_init__(self):
        float_fields = (
            "lambda1", "lambda2", "mu0", "mu_max", "gamma0", "eta_z", "eta_j", "eps1", "eps2",
        )
        for name in float_fields:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be nonnegative, got {self.lambda1}")
        if self.lambda2 < 0:
            raise ValueError(f"lambda2 must be nonnegative, got {self.lambda2}")
        if self.mu0 <= 0:
            raise ValueError(f"mu0 must be positive, got {self.mu0}")
        if self.mu_max < self.mu0:
            raise ValueError(f"mu_max {self.mu_max} must be >= mu0 {self.mu0}")
        if self.gamma0 < 1:
            raise ValueError(f"gamma0 must be >= 1, got {self.gamma0}")
        if self.eta_z is not None and self.eta_z <= 0:
            raise ValueError(f"eta_z must be positive, got {self.eta_z}")
        if self.eta_j <= 1:
            raise ValueError(f"eta_j must be > 1, got {self.eta_j}")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("eps1 and eps2 must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.mu_schedule not in ("multiplicative", "additive"):
            raise ValueError(f"unknown mu_schedule {self.mu_schedule!r}")


@dataclass
class SolveDiagnostics:
    """Per-solve record: convergence flags, monitor histories, resolved knobs.

    All histories have one entry per completed iteration.  For the
    sequential solver ``feasibility_history`` holds the raw constraint
    residual; for the exact-constraint solver it holds the larger of the
    two normalized residuals.  ``change_history`` holds the scaled iterate
    change that gates both the stopping test and the penalty growth.
    ``lyapunov_history`` is filled only when descent monitoring is on.
    """

    iterations: int = 0
    converged: bool = False
    objective_value: float = float("nan")
    feasibility_history: list = field(default_factory=list)
    change_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)
    lyapunov_history: list | None = None
    eta_z: float = float("nan")
    l_z: float = float("nan")
    mu_schedule: str = "multiplicative"
