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


def is_int(value):
    """True for a Python or numpy integer; a bool does not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed, name="seed"):
    """Raise ValueError, naming the argument, unless ``seed`` is a
    non-negative int (not a bool)."""
    if not is_int(seed) or seed < 0:
        raise ValueError(f"{name} must be a non-negative int, got {seed!r}")


def is_finite_real(value):
    """True for a finite Python or numpy real number; a bool does not count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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


def as_coefficient_matrix(values):
    """Validate an N x N coefficient matrix of finite entries."""
    z = np.asarray(values, dtype=float)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("coefficient matrix contains non-finite entries")
    return z


def column_differences(z, out=None):
    """Z @ R computed structurally, in one flat pass over z's rows.

    The result has z's shape: column i < N-1 holds z[:, i+1] - z[:, i], and
    the last column is a zero pad, always +0.0.  The sweeps keep every block
    of the coupling J = Z R in this zero-padded N x N layout, so a whole
    product is one contiguous subtraction and no strided (N, N-1) pass;
    ``[:, :-1]`` is the N x (N-1) product itself.  ``out``, if given,
    receives the result and must be a C-contiguous float array of z's shape
    that does not overlap ``z``.
    """
    z = np.ascontiguousarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ValueError(f"need a 2-D array with >= 2 columns, got shape {z.shape}")
    if out is None:
        out = np.empty(z.shape)
    elif out.shape != z.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {z.shape}")
    flat = z.reshape(-1)
    # Entry k of the flat pass is z.flat[k+1] - z.flat[k]: each row's last
    # one straddles two rows, and the pad then overwrites it.
    np.subtract(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    out[:, -1] = 0.0
    return out


def apply_difference_adjoint(m, out=None):
    """M @ R.T computed structurally, in one flat pass, for M in the
    zero-padded layout of ``column_differences``.

    ``m`` is N_rows x N: its first N-1 columns are M and its last column is
    the zero pad, which must be +0.0.  The pad supplies both boundary terms:
    the flat pass makes out[i, 0] = pad[i-1] - m[i, 0] = 0.0 - m[i, 0] and
    out[i, N-1] = m[i, N-2] - pad[i] = m[i, N-2], bitwise the boundary
    columns of M @ R.T (0.0 - m keeps a +0.0 entry +0.0).  ``out``, if
    given, receives the N_rows x N result, must be C-contiguous and must
    not overlap ``m``.
    """
    m = np.ascontiguousarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] < 2:
        raise ValueError(f"need a 2-D array with >= 2 columns, got shape {m.shape}")
    if out is None:
        out = np.empty(m.shape)
    elif out.shape != m.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape {m.shape}")
    flat, result = m.reshape(-1), out.reshape(-1)
    result[0] = 0.0 - flat[0]
    np.subtract(flat[:-1], flat[1:], out=result[1:])
    return out


def zero_padded(block):
    """A fresh zero-padded copy of an N x (N-1) block: the N x N layout of
    ``column_differences``, whose last column is +0.0.  ``block`` is only
    read."""
    out = np.zeros((block.shape[0], block.shape[1] + 1))
    out[:, :-1] = block
    return out


def difference_norm_squared(n):
    """Squared spectral norm of the N x (N-1) forward-difference operator R.

    R^T R is the (N-1) x (N-1) second-difference matrix tridiag(-1, 2, -1),
    whose eigenvalues are 4 sin^2(k pi / (2N)) for k = 1 .. N-1.
    """
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    return 4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2


def difference_eigenbasis(n):
    """Eigenvalues and orthonormal eigenvectors of R R^T, the N x N Laplacian
    of the path on N nodes, in closed form: ``(beta, q)`` with beta_j =
    2 - 2 cos(pi j / N) ascending and column j of q the DCT-II vector
    q[k, j] = c_j cos(pi j (k + 1/2) / N), c_0 = sqrt(1/N), else sqrt(2/N)."""
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    j = np.arange(n)
    q = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(j + 0.5, j))
    q[:, 0] = math.sqrt(1.0 / n)
    return 2.0 - 2.0 * np.cos(np.pi / n * j), q


def frobenius_distance(a, b, scratch):
    """||a - b||_F, with the difference written into the contiguous buffer
    ``scratch`` of any shape.

    ``scratch`` must hold at least ``a.size`` entries.  The solvers pass
    whole contiguous buffers: coupling blocks in their zero-padded N x N
    layout (see ``column_differences``), whose pads subtract to +0.0 and
    leave the norm alone, and D x N multipliers in an N x N or larger
    scratch.
    """
    if scratch.size < a.size:
        raise ValueError(f"scratch holds {scratch.size} entries, need {a.size}")
    diff = np.subtract(a, b, out=scratch.reshape(-1)[: a.size].reshape(a.shape))
    return float(np.linalg.norm(diff))


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


class FitOperator:
    """The fit step X^T (X - X Z) of one D x N data matrix ``x``, with its
    Lipschitz constant ``l_z`` = ||X||^2 and the numerical rank ``rank`` of X.

    One eigenvalue solve of the smaller Gram matrix (X X^T if D <= N, else
    X^T X) gives both: l_z is its top eigenvalue, bitwise that of
    ``operator_norm_squared``, and r counts the eigenvalues above l_z *
    max(D, N) * eps, the rounding level of forming G = X^T X itself, so not
    a tuning knob.  The step takes the cheaper of two forms:

    * 2 r < N: B (B^T - B^T Z) with an N x r factor B of G (X^T U_r, or
      V_r sqrt(lambda_r) when D > N, from one ``eigh``), 4 r N^2 flops.
      Data drawn from a few low-dimensional subspaces has r far below N
      (20 of 200 on five 4-dimensional ones).
    * otherwise: G - G Z, one N x N x N product (2 N^3 flops) instead of
      X^T (X - X Z), two D x N x N products (4 D N^2 flops).

    ``x`` must already be a validated float matrix; it is held, not copied.
    """

    def __init__(self, x):
        d, n = x.shape
        self.x = x
        small = x @ x.T if d <= n else x.T @ x
        eigenvalues = np.linalg.eigvalsh(small)
        self.l_z = float(eigenvalues[-1])
        rounding = self.l_z * max(d, n) * np.finfo(float).eps
        self.rank = int(np.count_nonzero(eigenvalues > rounding))
        self.gram = self.factor = None
        if 2 * self.rank >= n:
            self.gram = small if d > n else x.T @ x
            return
        eigenvalues, vectors = np.linalg.eigh(small)
        top = slice(small.shape[0] - self.rank, None)
        b = x.T @ vectors[:, top] if d <= n else vectors[:, top] * np.sqrt(eigenvalues[top])
        bt = np.ascontiguousarray(b.T)
        self.factor = (b, bt, np.empty_like(bt))  # B, B^T and an r x N buffer

    def fit(self, z, out=None):
        """X^T (X - X Z), written to ``out`` if given."""
        if self.gram is not None:
            out = np.matmul(self.gram, z, out=out)
            return np.subtract(self.gram, out, out=out)
        b, bt, projected = self.factor
        np.matmul(bt, z, out=projected)
        np.subtract(bt, projected, out=projected)
        return np.matmul(b, projected, out=out)


# LADMAP's penalty schedule (Lin, Liu & Su, NIPS 2011), read by ``admm.run``:
# mu grows by MU_GROWTH once the scaled iterate change is under eps, and
# never past MU_MAX.
MU_GROWTH = 1.1
MU_MAX = 1e10


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the alternating-direction solvers.

    ``admm.run`` stops a solve once both its feasibility and its scaled
    iterate change are under ``eps``, and grows mu from ``mu0`` by the
    schedule above.  Each solver works out its own proximal weights from X
    (see ``SolveDiagnostics.eta_z``).  ``diag_zero`` fixes diag(Z) at zero
    in the two sequential solvers; ssc and spatsc always fix it there.
    Every number must be a finite real, ``max_iter`` an int and
    ``diag_zero`` a bool; anything else raises ``ValueError``.
    """

    lambda1: float = 0.1
    lambda2: float = 1.0
    mu0: float = 1.0
    eps: float = 1e-4
    max_iter: int = 2000
    diag_zero: bool = False

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu0", "eps"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not is_int(self.max_iter):
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if not isinstance(self.diag_zero, bool):
            raise ValueError(f"diag_zero must be a bool, got {self.diag_zero!r}")
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be nonnegative, got {self.lambda1}")
        if self.lambda2 < 0:
            raise ValueError(f"lambda2 must be nonnegative, got {self.lambda2}")
        if not 0 < self.mu0 <= MU_MAX:
            raise ValueError(f"mu0 must be positive and at most {MU_MAX:g}, got {self.mu0}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def as_solver_config(config):
    """``config``, or the default SolverConfig for None; else ValueError."""
    if config is not None and not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig or None, got {type(config).__name__}")
    return config if config is not None else SolverConfig()


@dataclass
class SolveDiagnostics:
    """Per-solve record: convergence flags, monitor histories, resolved knobs.

    All histories have one entry per completed iteration.  For the
    sequential solver ``feasibility_history`` holds the raw constraint
    residual; for spatsc the larger of its two raw residuals; for the
    exact-constraint solver the larger of its two normalized residuals; for
    ``ssc_solve`` the lasso KKT gap, its only history.  ``change_history`` holds the scaled iterate change that gates
    both the stopping test and the penalty growth; ``admm.run`` decides
    that stop for every solver but ssc.  ``iterations`` counts this solve's
    sweeps, warm start or not.  ``lyapunov_history`` is filled only by
    ``relaxed.solve_monitored``, the descent monitor's solve; it stays
    ``None`` otherwise.  ``l_z`` is ||X||^2 (for spatsc, the top
    eigenvalue of its Z step's ``eigh`` of X^T X); ``eta_z`` is the
    proximal weight the solver worked out and used, and stays NaN for
    ``ssc_solve`` and spatsc, which linearize nothing.
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
