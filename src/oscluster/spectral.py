"""Affinity construction, spectral clustering, cluster-count estimation and
boundary detection on ordered coefficient matrices."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dormqr, dsterf, dsytrd, dsytrd_lwork

from .types import as_coefficient_matrix, column_differences, is_finite_real, is_int

_ZERO_DEGREE_EPS = 1e-12
# Embedding rows shorter than this are roundoff around an exact zero (an
# isolated node under the normalized Laplacian).  They stay zero instead of
# being scaled up to an arbitrary unit direction.
_ZERO_ROW_NORM = 1e-10
# k-means runs from this many seedings and keeps the best.
KMEANS_RESTARTS = 20
# The ways ``estimate_k`` reads the cluster count from the affinity spectrum.
K_ESTIMATORS = ("eigengap", "sv-threshold")


# Square tile of the in-place symmetrization.  Any size gives bitwise the
# same W.  Minimum of 15 interleaved runs, 1 BLAS thread: at N = 1600,
# tiles of 64, 96 and 128 took 9.3-9.8 ms (32 and 48 were slower, and
# a + a.T 18 ms); at N = 3200, 53-56 ms against 152 ms.  With 64 the
# temporaries numpy makes for one in-place tile update (a copy of the
# transposed tile and an iteration buffer) stay near 100 KB.
_AFFINITY_TILE = 64


def build_affinity(z):
    """Symmetric nonnegative affinity W = |Z| + |Z|^T.

    Symmetrized in place in |Z|, one pair of mirrored tiles at a time, so
    the only N x N array allocated is W itself.  Addition commutes, so
    each pair holds bitwise the entries of |Z| + |Z|^T.
    """
    w = np.abs(as_coefficient_matrix(z))
    n, b = w.shape[0], _AFFINITY_TILE
    for i in range(0, n, b):
        diagonal = w[i : i + b, i : i + b]
        diagonal += diagonal.T
        for j in range(i + b, n, b):
            upper = w[i : i + b, j : j + b]
            lower = w[j : j + b, i : i + b]
            upper += lower.T
            lower[...] = upper.T
    return w


def _check_affinity(w):
    """Validated affinity: ``w`` itself when it is exactly symmetric,
    otherwise the symmetrized copy of an input asymmetric within tolerance."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"affinity must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("affinity contains non-finite entries")
    # 0.5 * (w + w.T) equals an exactly symmetric w bitwise.
    exact = np.array_equal(w, w.T)
    if not exact and np.abs(w - w.T).max() > 1e-8 * max(1.0, np.abs(w).max()):
        raise ValueError("affinity must be symmetric")
    if w.min() < -1e-12:
        raise ValueError("affinity must be nonnegative")
    return w if exact else 0.5 * (w + w.T)


def normalized_laplacian(w):
    """I - D^{-1/2} W D^{-1/2}; rows with zero degree get a tiny guard degree.

    ``w`` is an affinity, or a ``LaplacianSpectrum`` whose affinity has
    already been checked.  Fortran-ordered, the layout LAPACK decomposes
    in place.
    """
    w = LaplacianSpectrum.of(w).affinity
    degrees = w.sum(axis=1)
    degrees = np.where(degrees <= 0.0, _ZERO_DEGREE_EPS, degrees)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # The checked W is exactly symmetric, so W^T is W in Fortran order.
    lap = np.multiply(-inv_sqrt[:, None], w.T, order="F")
    lap *= inv_sqrt[None, :]
    lap[np.diag_indices_from(lap)] += 1.0
    return lap


class LaplacianSpectrum:
    """The normalized Laplacian L of one affinity, reduced once.

    Checks the affinity when built.  On first use L is formed and reduced
    in place to a tridiagonal T = Q^T L Q (LAPACK ``dsytrd``), whose
    Householder reflectors stay in L's buffer.  ``eigenvalues`` reads all
    of L's eigenvalues off T; ``embedding`` maps T's eigenvectors back to
    L through the reflectors.  So a call that both estimates k and embeds
    reduces L once, and an estimator that reads only W (``affinity``) runs
    before L exists.
    """

    def __init__(self, w):
        self.affinity = _check_affinity(w)
        self._reduced = None

    @classmethod
    def of(cls, w):
        """``w`` itself if it is a ``LaplacianSpectrum``, else the spectrum of
        the affinity ``w``."""
        return w if isinstance(w, cls) else cls(w)

    def _reduction(self):
        if self._reduced is None:
            lap = normalized_laplacian(self)
            # scipy's default workspace of N doubles forces the unblocked
            # reduction: 588 ms instead of 316 ms at N = 1600 (1 BLAS
            # thread, Xeon).  L is Fortran-ordered, so it is reduced in place.
            lwork, _ = dsytrd_lwork(lap.shape[0], lower=1)
            lap, d, e, tau, _ = dsytrd(lap, lower=1, lwork=int(lwork), overwrite_a=1)
            self._reduced = lap, d, e, tau
        return self._reduced

    def eigenvalues(self):
        """All eigenvalues of L, ascending."""
        _, d, e, _ = self._reduction()
        values, info = dsterf(d, e)
        if info:
            raise np.linalg.LinAlgError(f"dsterf did not converge ({info})")
        return values

    def embedding(self, k):
        """Orthonormal eigenvectors of L's k smallest eigenvalues, N x k."""
        lap, d, e, tau = self._reduction()
        n = lap.shape[0]
        _, vectors = eigh_tridiagonal(
            d, e, select="i", select_range=(0, k - 1), check_finite=False
        )
        # Q = diag(1, Q'), where Q' is the product of the reflectors stored
        # in QR form below L's diagonal, what LAPACK's dormtr (which scipy
        # does not wrap) applies with dormqr.  Read from one element past
        # the buffer's start, column j of an N x (N-1) Fortran-contiguous
        # view holds L[1:, j] over L[0, j+1].  With row 0's unused upper
        # part zeroed that is Q's reflector j padded by a zero row, and
        # dormqr takes the view without copying it.
        lap[0, 1:] = 0.0
        flat = lap.reshape(-1, order="F")
        reflectors = flat[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
        c = np.zeros((n, k), order="F")
        c[:-1] = vectors[1:]
        _, work, _ = dormqr("L", "N", reflectors, tau, c, -1)
        c, _, _ = dormqr("L", "N", reflectors, tau, c, int(work[0]), overwrite_c=1)
        vectors[1:] = c[:-1]
        return vectors


def _kmeans_pp_init(points, k, rng):
    # D^2 seeding: next center drawn proportionally to squared distance
    # from the nearest chosen center.
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = rng.integers(n)
    centers[0] = points[first]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = dist2.sum()
        if total <= 0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=dist2 / total)
        centers[c] = points[idx]
        dist2 = np.minimum(dist2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, centers, max_iter=300):
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(max_iter):
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        new_labels = np.argmin(d2, axis=1)
        # Keep every cluster populated: hand the farthest point to an empty one.
        for c in range(k):
            if not np.any(new_labels == c):
                far = np.argmax(d2[np.arange(n), new_labels])
                new_labels[far] = c
                d2[far, :] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    d2 = np.sum((points - centers[labels]) ** 2, axis=1)
    return labels, float(d2.sum())


def check_cluster_count(k, n):
    """Raise ValueError unless ``k`` is an int (not a bool) in [1, n]."""
    if not is_int(k) or not 1 <= k <= n:
        raise ValueError(f"k must be an int in [1, {n}], got {k!r}")


def check_threshold(tau):
    """Raise ValueError unless ``tau`` is a positive finite real (not a bool)."""
    if not is_finite_real(tau) or tau <= 0:
        raise ValueError(f"threshold tau must be positive and finite, got {tau!r}")


def check_k_settings(k, k_method, sv_tau, n):
    """Raise ValueError unless the cluster-count settings can run on ``n``
    samples: ``k_method`` is in K_ESTIMATORS, a given ``k`` is in [1, n],
    and with ``k`` None the ``sv-threshold`` method has a valid ``sv_tau``."""
    if k_method not in K_ESTIMATORS:
        raise ValueError(f"unknown k estimator {k_method!r} (choose from {K_ESTIMATORS})")
    if k is not None:
        check_cluster_count(k, n)
    elif k_method == "sv-threshold":
        check_threshold(sv_tau)


def kmeans(points, k, seed=0):
    """Best-of-``KMEANS_RESTARTS`` k-means with D^2 seeding.

    Deterministic given ``seed``: restarts draw from spawned child streams
    and ties in the final objective keep the earliest restart.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"need a nonempty 2-D point array, got shape {points.shape}")
    n = points.shape[0]
    check_cluster_count(k, n)
    if k == 1:
        return np.zeros(n, dtype=int)
    best_labels, best_inertia = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _kmeans_pp_init(points, k, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels.astype(int)


def ncut_cluster(w, k, seed=0):
    """Normalized-cut spectral clustering of an affinity into k groups.

    Embeds each sample with the eigenvectors of the k smallest eigenvalues
    of the normalized graph Laplacian, normalizes the embedding rows to
    unit length, and k-means clusters them (``kmeans``, from ``seed``).
    Returns an integer label per sample.  ``w`` is an affinity or its
    ``LaplacianSpectrum``; given the spectrum ``estimate_k`` read k from,
    the Laplacian is not reduced again.

    Only those k eigenvectors are computed, from the tridiagonal reduction
    of the Laplacian, not the full N x N eigenbasis.  The embedding is
    well defined only when eigenvalues k and k+1 differ: with a tie there,
    any basis of the tied eigenspace is an equally valid answer, and the
    labels may depend on which one the solver returns.
    """
    spectrum = LaplacianSpectrum.of(w)  # validates the affinity
    n = spectrum.affinity.shape[0]
    check_cluster_count(k, n)
    if k == 1:
        return np.zeros(n, dtype=int)
    embedding = spectrum.embedding(k)
    row_norms = np.linalg.norm(embedding, axis=1)
    embedding = embedding / np.where(row_norms > _ZERO_ROW_NORM, row_norms, np.inf)[:, None]
    return kmeans(embedding, k, seed=seed)


def estimate_k(w, method="eigengap", tau=None):
    """Cluster count of an affinity W, or of its ``LaplacianSpectrum``, by
    ``method``.

    ``eigengap``: with the eigenvalues of the normalized Laplacian in
    ascending order l_1 <= l_2 <= ..., the smallest (1-based) i maximizing
    l_{i+1} - l_i (von Luxburg, "A tutorial on spectral clustering", 2007,
    section 8.3).  ``sv-threshold``: the number of singular values of W
    above the absolute threshold ``tau``; a ``tau`` at or above all of them
    raises ``ValueError``, since no partition has zero clusters.
    """
    spectrum = LaplacianSpectrum.of(w)
    n = spectrum.affinity.shape[0]
    check_k_settings(None, method, tau, n)
    if method == "eigengap":
        if n < 2:
            raise ValueError("gap estimation needs at least a 2x2 affinity")
        return int(np.argmax(np.diff(spectrum.eigenvalues()))) + 1
    # W is symmetric, so its singular values are its |eigenvalues|; one
    # eigvalsh is about 3x cheaper than an SVD.
    singular_values = np.abs(np.linalg.eigvalsh(spectrum.affinity))
    k = int(np.sum(singular_values > tau))
    if k == 0:
        raise ValueError(
            f"sv-threshold estimated k = 0: tau {tau:g} is not below any singular value "
            f"of the affinity (largest {singular_values.max():.6g})"
        )
    return k


def detect_boundaries_peaks(z, prominence=1.0):
    """Segment boundaries from the column-difference energy of Z.

    Averages |Z R| over rows to one score per adjacent column pair, then
    reports index i+1 for every strict local peak at position i whose
    score reaches ``mean + prominence * std``.  Returned indices are the
    positions where a new segment starts.
    """
    z = as_coefficient_matrix(z)
    n = z.shape[0]
    if n < 3:
        raise ValueError(f"boundary detection needs N >= 3, got {n}")
    scores = np.abs(column_differences(z)).mean(axis=0)
    cutoff = scores.mean() + prominence * scores.std()
    boundaries = []
    for i, value in enumerate(scores):
        left_ok = i == 0 or value > scores[i - 1]
        right_ok = i == len(scores) - 1 or value > scores[i + 1]
        if left_ok and right_ok and value >= cutoff:
            boundaries.append(i + 1)
    return boundaries
