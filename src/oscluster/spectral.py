"""Affinity construction, spectral clustering, cluster-count estimation and
boundary detection on ordered coefficient matrices."""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

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

# Unit roundoffs of float32 and float64.
_U32, _U64 = 2.0**-24, 2.0**-53
# Each float32 eigenvalue of L is within
#   error = _EIGENVALUE_ERROR * N * (u32 + u64) * ||T||_F
# of L's.  By Weyl's inequality an eigenvalue moves by at most the norm of
# the perturbation, and three add up here, each at most N u ||L||_F:
# rounding L to float32 (u ||L||_F), ssytrd's Householder backward error
# (c N u ||L||_F, Golub & Van Loan, "Matrix Computations", section 8.3.1,
# with c = 1) and ssterf's on T.  ||T||_F is ||L||_F to within that error.
# The u64 term covers the double reduction's own error, so a certified
# count is the one the double eigenvalues give.  On spectral-n1600 inputs
# the error was at most 2.4e-6 and the bound 1.1e-2.
_EIGENVALUE_ERROR = 3.0
# The embedding is accepted when the Davis-Kahan bound on the sine of its
# largest angle to L's eigenspace is at most this.
_EMBEDDING_TOLERANCE = 1e-10
# Degree of the Chebyshev filter, and how many filter and Rayleigh-Ritz
# passes may run at most before the embedding falls back to the double
# reduction.
# Measured on the benchmark's seed-1 pools: spectral-n1600 inputs needed
# one pass (a bound near 1e-14), relaxed-n200 inputs one (one input in 32
# two), and protocol-n100 inputs two (9 calls in 144 three).  Degree 6
# needed up to four passes there, and degree 5 fell back on 3 calls.
_FILTER_DEGREE = 8
_FILTER_PASSES = 4


# Square tile of the in-place symmetrization.  Any size gives bitwise the
# same W.  Minimum of 15 interleaved runs, 1 BLAS thread: at N = 1600,
# tiles of 64, 96 and 128 took 9.3-9.8 ms (32 and 48 were slower, and
# a + a.T 18 ms); at N = 3200, 53-56 ms against 152 ms.  With 64 the
# temporaries numpy makes for one in-place tile update (a copy of the
# transposed tile and an iteration buffer) stay near 100 KB.
_AFFINITY_TILE = 64
# Columns of L formed in double per step: an N x 64 tile stays near 800 KB
# at N = 1600.
_LAPLACIAN_TILE = 64
# Each precision's LAPACK routines: the reduction to tridiagonal form and
# its workspace query, T's eigenvalues, and the product with T's reflectors.
_LAPACK = {
    "float32": dict(
        sytrd=lapack.ssytrd, lwork=lapack.ssytrd_lwork, sterf=lapack.ssterf, ormqr=lapack.sormqr
    ),
    "float64": dict(
        sytrd=lapack.dsytrd, lwork=lapack.dsytrd_lwork, sterf=lapack.dsterf, ormqr=lapack.dormqr
    ),
}


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
    in place.  This is the L that ``LaplacianSpectrum`` reduces in float64.
    """
    return LaplacianSpectrum.of(w)._laplacian("float64")


def _widest_gap(values):
    """The smallest (1-based) i maximizing values[i] - values[i-1], and by
    how much that gap beats every other (inf when it is the only one)."""
    gaps = np.diff(values)
    i = int(np.argmax(gaps))
    return i + 1, gaps[i] - np.max(np.delete(gaps, i), initial=-np.inf)


def _laplacian_product(w, inv_sqrt, v):
    """L v in double, as v - D^{-1/2} W D^{-1/2} v, from W and D^{-1/2}."""
    inv_sqrt = inv_sqrt[:, None]
    return v - inv_sqrt * (w @ (inv_sqrt * v))


def _apply_reflectors(lap, tau, vectors):
    """Q @ ``vectors`` in place, for the Q = diag(1, Q') whose reflectors a
    lower ``?sytrd`` left in ``lap``, applied in ``lap``'s precision.

    Q' is the product of the reflectors stored in QR form below L's
    diagonal, what LAPACK's ?ormtr (which scipy does not wrap) applies with
    ?ormqr.  Read from one element past the buffer's start, column j of an
    N x (N-1) Fortran-contiguous view holds L[1:, j] over L[0, j+1].  With
    row 0's unused upper part zeroed that is Q's reflector j padded by a
    zero row, and ?ormqr takes the view without copying it.
    """
    n, k = lap.shape[0], vectors.shape[1]
    lap[0, 1:] = 0.0
    flat = lap.reshape(-1, order="F")
    reflectors = flat[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
    c = np.zeros((n, k), dtype=lap.dtype, order="F")
    c[:-1] = vectors[1:]
    ormqr = _LAPACK[lap.dtype.name]["ormqr"]
    _, work, _ = ormqr("L", "N", reflectors, tau, c, -1)
    c, _, _ = ormqr("L", "N", reflectors, tau, c, int(work[0]), overwrite_c=1)
    vectors[1:] = c[:-1]
    return vectors


class LaplacianSpectrum:
    """The normalized Laplacian L of one affinity, reduced once.

    Checks the affinity when built.  On first use one routine forms L from
    W and its degrees and reduces it in place to a tridiagonal T = Q^T L Q
    (LAPACK ``?sytrd``), keeping the reflectors in L's buffer.  It runs in
    float32, which halves the bytes the reduction (the bulk of the spectral
    stage) moves, and its answers are kept only when certified:

    * ``eigengap`` reads T's eigenvalues (``?sterf``), each within ``error``
      of L's by Weyl's inequality, and keeps the count when the winning gap
      beats every other by more than 4 ``error``: it is then the count the
      double eigenvalues give.
    * ``embedding`` maps T's eigenvectors back (``?ormqr``), refines them in
      double against L with Chebyshev filter and Rayleigh-Ritz passes, and
      keeps them when the Davis-Kahan bound puts them within
      ``_EMBEDDING_TOLERANCE`` of L's eigenspace.  The passes stop as soon
      as the bound shows it cannot get there.

    When a certificate fails, or k = N, the float32 L is dropped and the
    same routine runs once more in float64, whose answers need no
    certificate and serve from then on; ``eigenvalues`` always reads it.
    ``precision`` names the reduction serving: "float32", "float64", or
    None before L is reduced.  An estimator that reads only W
    (``affinity``) runs before L exists.
    """

    def __init__(self, w):
        self.affinity = _check_affinity(w)
        self.precision = None
        self._reduction = None  # (reduced L, d, e, tau, error) at ``precision``

    @classmethod
    def of(cls, w):
        """``w`` itself if it is a ``LaplacianSpectrum``, else the spectrum of
        the affinity ``w``."""
        return w if isinstance(w, cls) else cls(w)

    @cached_property
    def _inv_sqrt(self):
        """D^{-1/2}; rows with zero degree get a tiny guard degree."""
        degrees = self.affinity.sum(axis=1)
        degrees = np.where(degrees <= 0.0, _ZERO_DEGREE_EPS, degrees)
        return 1.0 / np.sqrt(degrees)

    def _laplacian(self, precision):
        """L in ``precision``, Fortran-ordered, formed in double N x 64
        columns at a time.  Below float64 each tile goes through one buffer
        and is rounded once, so L is the double L rounded."""
        w, inv_sqrt = self.affinity, self._inv_sqrt
        n, b = w.shape[0], _LAPLACIAN_TILE
        lap = np.empty((n, n), dtype=precision, order="F")
        buffer = None if precision == "float64" else np.empty((n, b), order="F")
        for j in range(0, n, b):
            columns = lap[:, j : j + b]
            tile = columns if buffer is None else buffer[:, : columns.shape[1]]
            # W is symmetric: its column j is its row j.
            np.multiply(-inv_sqrt[:, None], w[j : j + b].T, out=tile)
            tile *= inv_sqrt[None, j : j + b]
            diagonal = np.arange(tile.shape[1])
            tile[j + diagonal, diagonal] += 1.0
            if buffer is not None:
                columns[...] = tile
        return lap

    def _reduce(self, precision):
        """Form L in ``precision`` and reduce it in place, as the one
        reduction held."""
        self._reduction = None  # the float32 L goes before the double L is formed
        self.precision = precision
        routines = _LAPACK[precision]
        lap = normalized_laplacian(self) if precision == "float64" else self._laplacian(precision)
        # scipy's default workspace of N elements forces the unblocked
        # reduction: 588 ms instead of 316 ms for dsytrd at N = 1600 (1 BLAS
        # thread, Xeon).  L is Fortran-ordered, so it is reduced in place.
        n = lap.shape[0]
        lwork, _ = routines["lwork"](n, lower=1)
        lap, d, e, tau, _ = routines["sytrd"](lap, lower=1, lwork=int(lwork), overwrite_a=1)
        # ||T||_F, which is ||L||_F up to the reduction's own error.
        d64, e64 = d.astype(float), e.astype(float)
        error = _EIGENVALUE_ERROR * n * (_U32 + _U64) * np.sqrt(d64 @ d64 + 2.0 * (e64 @ e64))
        self._reduction = lap, d, e, tau, error

    def _serve(self, read, certifiable=True):
        """``read(True)`` from the float32 reduction, or None when its answer
        fails the certificate; then, or when not ``certifiable``, L is
        reduced in float64 and ``read(False)`` answers."""
        if self.precision != "float64":
            if certifiable:
                if self.precision is None:
                    self._reduce("float32")
                answer = read(True)
                if answer is not None:
                    return answer
            self._reduce("float64")
        return read(False)

    def _values(self, certify):
        """T's eigenvalues, ascending, in double; None if ?sterf fails while certifying."""
        _, d, e, _, _ = self._reduction
        values, info = _LAPACK[self.precision]["sterf"](d, e)
        if info and not certify:
            raise np.linalg.LinAlgError(f"{self.precision} ?sterf did not converge ({info})")
        return None if info else values.astype(float)

    def eigenvalues(self):
        """All eigenvalues of L, ascending, from the double reduction."""
        return self._serve(self._values, certifiable=False)

    def eigengap(self):
        """The smallest (1-based) i maximizing l_{i+1} - l_i over L's
        ascending eigenvalues l_1 <= l_2 <= ...; L must be at least 2 x 2."""

        def read(certify):
            values = self._values(certify)
            if values is not None:
                k, margin = _widest_gap(values)
                if not certify or margin > 4.0 * self._reduction[-1]:
                    return k

        return self._serve(read)

    def embedding(self, k):
        """Orthonormal eigenvectors of L's k smallest eigenvalues, N x k."""
        n = self.affinity.shape[0]

        def read(certify):
            lap, d, e, tau, error = self._reduction
            d, e = d.astype(float), e.astype(float)
            # Certifying needs eigenpair k+1 as well.
            values, vectors = eigh_tridiagonal(
                d, e, select="i", select_range=(0, k if certify else k - 1), check_finite=False
            )
            vectors = _apply_reflectors(lap, tau, vectors[:, :k])
            if not certify:
                return vectors
            (top,) = eigh_tridiagonal(
                d, e, eigvals_only=True, select="i", select_range=(n - 1, n - 1), check_finite=False
            )
            # L's eigenvalues k+1, ..., N lie in [low, high].
            return self._refine(vectors, values[k] - error, top + error)

        return self._serve(read, certifiable=k < n)

    def _refine(self, vectors, low, high):
        """``vectors`` refined in double against L, whose eigenvalues k+1 and
        up lie in [low, high]; None if the Davis-Kahan bound cannot certify."""
        centre, half = 0.5 * (high + low), 0.5 * (high - low)
        if half <= 0.0:  # L = 0: no gap to certify
            return None
        w, inv_sqrt = self.affinity, self._inv_sqrt
        last = np.inf
        for left in reversed(range(_FILTER_PASSES)):
            # Chebyshev filter (Zhou, Saad, Tiago & Chelikowsky, J. Comput.
            # Phys. 2006): T_m((L - centre) / half) is at most 1 in size on
            # [low, high] and grows fast below it, where the k wanted
            # eigenvalues lie.
            previous = vectors
            vectors = (_laplacian_product(w, inv_sqrt, vectors) - centre * vectors) / half
            for _ in range(_FILTER_DEGREE - 1):
                shifted = _laplacian_product(w, inv_sqrt, vectors) - centre * vectors
                previous, vectors = vectors, (2.0 / half) * shifted - previous
            # Rayleigh-Ritz on the filtered span.
            basis = np.linalg.qr(vectors)[0]
            l_basis = _laplacian_product(w, inv_sqrt, basis)
            ritz, rotation = np.linalg.eigh(basis.T @ l_basis)
            vectors = basis @ rotation
            residual = np.linalg.norm(l_basis @ rotation - vectors * ritz)
            # Davis-Kahan sin(theta): the largest angle between the span and
            # L's eigenspace is at most residual / (l_{k+1} - ritz_k), and
            # l_{k+1} >= low.  Without a gap there is no bound.
            gap = low - ritz[-1]
            if gap <= 0.0:
                return None
            if residual <= _EMBEDDING_TOLERANCE * gap:
                return vectors
            # Give up when the bound, falling at this pass's rate, cannot
            # reach the tolerance in the passes left.
            bound = residual / gap
            if bound * (bound / last) ** left > _EMBEDDING_TOLERANCE:
                return None
            last = bound
        return None


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


def check_k_settings(k, k_method, sv_tau, n):
    """Raise ValueError unless the cluster-count settings can run on ``n``
    samples: ``k_method`` is in K_ESTIMATORS, a given ``k`` is in [1, n],
    and with ``k`` None the ``sv-threshold`` method has a positive finite
    real (not a bool) ``sv_tau``."""
    if k_method not in K_ESTIMATORS:
        raise ValueError(f"unknown k estimator {k_method!r} (choose from {K_ESTIMATORS})")
    if k is not None:
        check_cluster_count(k, n)
    elif k_method == "sv-threshold" and (not is_finite_real(sv_tau) or sv_tau <= 0):
        raise ValueError(f"threshold tau must be positive and finite, got {sv_tau!r}")


def kmeans(points, k, seed=0):
    """Best-of-``KMEANS_RESTARTS`` k-means with D^2 seeding.

    Deterministic given ``seed``: restarts draw from spawned child streams
    and ties in the final objective keep the earliest restart.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"need a nonempty 2-D point array, got shape {points.shape}")
    # Row sums over k entries run 1.4x faster in Fortran order (N = 1600,
    # k = 8), and the labels do not depend on the caller's layout.
    points = np.asfortranarray(points)
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
    of the Laplacian, not the full N x N eigenbasis
    (``LaplacianSpectrum.embedding``).  The embedding is well defined only
    when eigenvalues k and k+1 differ: with a tie there, any basis of the
    tied eigenspace is an equally valid answer, the float32 embedding is
    not certified, and the labels may depend on which basis the double
    reduction returns.
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
    section 8.3).  The count is the one the double eigenvalues give, read
    off the float32 ones when certified (``LaplacianSpectrum.eigengap``).
    ``sv-threshold``: the number of singular values of W
    above the absolute threshold ``tau``; a ``tau`` at or above all of them
    raises ``ValueError``, since no partition has zero clusters.
    """
    spectrum = LaplacianSpectrum.of(w)
    n = spectrum.affinity.shape[0]
    check_k_settings(None, method, tau, n)
    if method == "eigengap":
        if n < 2:
            raise ValueError("gap estimation needs at least a 2x2 affinity")
        return spectrum.eigengap()
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
