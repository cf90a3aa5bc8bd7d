"""Synthetic and semi-synthetic generators for ordered subspace data.

The synthetic construction draws a random orthonormal basis for the first
subspace, rotates it repeatedly by one fixed random rotation to obtain the
remaining bases, and fills each subspace with coefficient columns whose
rows follow a tridiagonal covariance, so neighbouring columns inside a
segment are correlated.  Samples are laid out segment after segment, which
is what gives the data its sequential structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import as_data_matrix, check_seed, is_finite_real, is_int

BASES_PER_SUBSPACE = 5


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and covariance of the generated sequence."""

    num_subspaces: int = 5
    points_per_subspace: int = 20
    ambient_dim: int = 100
    subspace_dim: int = 4
    cov_diag: float = 0.001
    cov_offdiag: float = 0.0005
    seed: int = 0

    def __post_init__(self):
        counts = ("num_subspaces", "points_per_subspace", "ambient_dim", "subspace_dim", "seed")
        for name in counts:
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("cov_diag", "cov_offdiag"):
            if not is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.num_subspaces < 1:
            raise ValueError(f"num_subspaces must be >= 1, got {self.num_subspaces}")
        if self.points_per_subspace < 2:
            raise ValueError(
                f"points_per_subspace must be >= 2, got {self.points_per_subspace}"
            )
        if self.ambient_dim < 1:
            raise ValueError(f"ambient_dim must be >= 1, got {self.ambient_dim}")
        if not 1 <= self.subspace_dim <= self.ambient_dim:
            raise ValueError(
                f"subspace_dim must be in [1, {self.ambient_dim}], got {self.subspace_dim}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.cov_diag <= 0:
            raise ValueError(f"cov_diag must be positive, got {self.cov_diag}")
        # The tridiagonal covariance must be positive definite.
        try:
            np.linalg.cholesky(
                tridiagonal_covariance(
                    self.points_per_subspace, self.cov_diag, self.cov_offdiag
                )
            )
        except np.linalg.LinAlgError:
            raise ValueError(
                f"covariance (diag={self.cov_diag}, offdiag={self.cov_offdiag}) "
                "is not positive definite"
            ) from None


def tridiagonal_covariance(m, diag, offdiag):
    """m x m covariance with ``diag`` on the diagonal and ``offdiag`` on the
    first off-diagonals."""
    c = np.zeros((m, m))
    idx = np.arange(m)
    c[idx, idx] = diag
    c[idx[:-1], idx[:-1] + 1] = offdiag
    c[idx[:-1] + 1, idx[:-1]] = offdiag
    return c


def random_orthonormal(rng, rows, cols):
    """Matrix with orthonormal columns, Haar-distributed, sign-fixed."""
    if cols > rows:
        raise ValueError(f"cannot fit {cols} orthonormal columns in {rows} rows")
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[None, :]


def random_rotation(rng, n):
    """Random n x n rotation (orthogonal, determinant +1)."""
    q = random_orthonormal(rng, n, n)
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _stack_segments(spec, bases, streams):
    """(x, labels) with segment i = bases[i] @ Q_i, where Q_i has
    ``points_per_subspace`` columns whose rows are draws from N(0, C),
    C the spec's tridiagonal covariance, taken from ``streams[i]``."""
    chol_lower = np.linalg.cholesky(
        tridiagonal_covariance(spec.points_per_subspace, spec.cov_diag, spec.cov_offdiag)
    )
    blocks = []
    for basis, stream in zip(bases, streams):
        g = np.random.default_rng(stream).standard_normal(
            (basis.shape[1], spec.points_per_subspace)
        )
        blocks.append(basis @ (g @ chol_lower.T))
    labels = np.repeat(np.arange(spec.num_subspaces), spec.points_per_subspace)
    return np.hstack(blocks), labels


def generate_synthetic(spec=None):
    """Generate (x, labels) for the rotated-basis sequential construction.

    ``x`` is ambient_dim x (num_subspaces * points_per_subspace); labels
    are contiguous runs 0, 0, ..., 1, 1, ... in sample order.  Fixing the
    seed fixes the output exactly.
    """
    spec = spec if spec is not None else SyntheticSpec()
    streams = np.random.SeedSequence(spec.seed).spawn(2 + spec.num_subspaces)
    rng_basis = np.random.default_rng(streams[0])
    rng_rotation = np.random.default_rng(streams[1])

    bases = [random_orthonormal(rng_basis, spec.ambient_dim, spec.subspace_dim)]
    rotation = random_rotation(rng_rotation, spec.ambient_dim)
    for _ in range(spec.num_subspaces - 1):
        bases.append(rotation @ bases[-1])
    return _stack_segments(spec, bases, streams[2:])


def generate_semisynthetic(library, spec=None, bases_per_subspace=BASES_PER_SUBSPACE):
    """Generate (x, labels) using library columns as subspace bases.

    Each subspace draws ``bases_per_subspace`` distinct library columns
    (disjoint across subspaces) and mixes them with the same
    tridiagonal-covariance coefficients as the synthetic construction.
    The library must provide at least ``bases_per_subspace *
    num_subspaces`` columns.
    """
    spec = spec if spec is not None else SyntheticSpec()
    library = check_library(library, spec, bases_per_subspace)
    streams = np.random.SeedSequence(spec.seed).spawn(1 + spec.num_subspaces)
    rng_pick = np.random.default_rng(streams[0])
    chosen = rng_pick.choice(
        library.shape[1], size=(spec.num_subspaces, bases_per_subspace), replace=False
    )
    bases = [library[:, cols] for cols in chosen]
    return _stack_segments(spec, bases, streams[1:])


def check_library(library, spec, bases_per_subspace=BASES_PER_SUBSPACE):
    """``library`` as a data matrix; raises ValueError unless it has the
    ``bases_per_subspace * spec.num_subspaces`` columns that
    ``generate_semisynthetic`` draws."""
    library = as_data_matrix(library)
    if not is_int(bases_per_subspace) or bases_per_subspace < 1:
        raise ValueError(f"bases_per_subspace must be an int >= 1, got {bases_per_subspace!r}")
    needed = bases_per_subspace * spec.num_subspaces
    if library.shape[1] < needed:
        raise ValueError(
            f"library has {library.shape[1]} columns, needs at least {needed}"
        )
    return library


def generate_dataset(spec, library=None, bases_per_subspace=None, psnr_db=None, noise_seed=0):
    """(x, labels) from ``library``'s columns when it is given (with
    ``bases_per_subspace``, default ``BASES_PER_SUBSPACE``), else synthetic;
    then, unless ``psnr_db`` is None, with noise at ``psnr_db`` dB drawn
    from ``noise_seed``.  ``noise_seed`` must be a non-negative int, else
    ValueError."""
    check_seed(noise_seed, "noise_seed")
    if library is not None:
        bases = BASES_PER_SUBSPACE if bases_per_subspace is None else bases_per_subspace
        x, labels = generate_semisynthetic(library, spec, bases)
    elif bases_per_subspace is not None:
        raise ValueError(f"bases_per_subspace={bases_per_subspace!r} needs a library")
    else:
        x, labels = generate_synthetic(spec)
    if psnr_db is not None:
        x = add_noise_psnr(x, psnr_db, seed=noise_seed)
    return x, labels


def add_noise_psnr(a, target_psnr_db, seed=0):
    """Additive Gaussian noise scaled to hit a target peak SNR exactly.

    The noise draw is rescaled in closed form against its realized energy,
    so the measured PSNR of the output equals ``target_psnr_db`` up to
    float rounding.  Requires a positive target (infinity returns ``a``
    unchanged; NaN is refused), a nonconstant ``a`` with positive maximum
    and a ``seed`` that is a non-negative int; else ValueError.
    """
    check_seed(seed)
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    if not target_psnr_db > 0:
        raise ValueError(f"target PSNR must be positive, got {target_psnr_db}")
    if np.all(a == a.flat[0]):
        raise ValueError("matrix must not be constant")
    peak = float(a.max())
    if peak <= 0:
        raise ValueError("matrix peak must be positive")
    target_mse = peak * peak * 10.0 ** (-target_psnr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(a.shape)
    realized = float(np.mean(noise**2))
    return a + noise * np.sqrt(target_mse / realized)
