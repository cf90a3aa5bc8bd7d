"""Affinity construction, spectral clustering, cluster-count estimation and
boundary detection on ordered coefficient matrices."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal, lapack

from .types import as_coefficient_matrix, check_seed, column_differences, is_finite_real, is_int

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
# The embedding is accepted when the Davis-Kahan bound on the sine of its
# largest angle to L's eigenspace is at most this.
_EMBEDDING_TOLERANCE = 1e-10
# Degree of the Chebyshev filter, and how many filter and Rayleigh-Ritz
# passes may run at most before the subspace tier gives up.  From the
# fixed-seed start, on the benchmark's seed-1 pools: spectral-n1600 inputs
# needed two passes, relaxed-n200 inputs three (5 in 32 four), and
# protocol-n100 inputs four (2 calls in 144 three, 56 five).  With at most
# four passes, and the rate judged from the first, 88 of those 144 calls
# gave up.
_FILTER_DEGREE = 8
_FILTER_PASSES = 6
# The subspace tier filters a block of this many vectors to read the
# eigengap off, doubled while the widest Ritz gap is the block's last, or
# of k + _BLOCK_EXTRA for a given k.
_GAP_BLOCK = 16
_BLOCK_EXTRA = 3
# Lanczos steps behind the estimate of L's largest eigenvalue.
_LANCZOS_STEPS = 12
# The Cholesky checks factor L - (theta_{k+1} - margin) I + ... and
# (top + margin) I - L: a margin of this share of the Ritz gap theta_{k+1}
# - theta_k inside the estimates of l_{k+1} and l_max, so that estimates a
# little off still pass.
_CHOLESKY_MARGIN = 0.05
# Weight c of the rank-k term c V_k V_k^T that lifts L's k smallest
# eigenvalues above sigma in the count check: L's spectrum lies in [0, 2].
_DEFLATION = 2.0


# Square tile of the in-place symmetrization.  Any size gives bitwise the
# same W.  Minimum of 15 interleaved runs, 1 BLAS thread: at N = 1600,
# tiles of 64, 96 and 128 took 9.3-9.8 ms (32 and 48 were slower, and
# a + a.T 18 ms); at N = 3200, 53-56 ms against 152 ms.  With 64 the
# temporaries numpy makes for one in-place tile update (a copy of the
# transposed tile and an iteration buffer) stay near 100 KB.
_AFFINITY_TILE = 64
# Columns of a Cholesky check's matrix formed in double per step (``_packed``):
# an N x 32 tile, and the rank-k product added to it, stay near 400 KB each
# at N = 1600.  Tiles of 32 and 64 formed both equally fast there (8-13 ms,
# best of 5, 1 BLAS thread).
_LAPLACIAN_TILE = 32
# The LAPACK routine behind the subspace tier's checks, looked up here so
# that tests can spy on it: the float32 Cholesky factorization, in
# rectangular full packed storage.
_LAPACK = dict(pftrf=lapack.spftrf)


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
    in place.  This is the L that ``LaplacianSpectrum``'s float64 fallback
    hands to scipy's ``eigh``.
    """
    return LaplacianSpectrum.of(w)._laplacian()


def _widest_gap(values):
    """The smallest (1-based) i maximizing values[i] - values[i-1]."""
    return int(np.argmax(np.diff(values))) + 1


def _laplacian_product(w, inv_sqrt, v):
    """L v in double, as v - D^{-1/2} W D^{-1/2} v, from W and D^{-1/2}."""
    inv_sqrt = inv_sqrt[:, None]
    return v - inv_sqrt * (w @ (inv_sqrt * v))


def _rayleigh_ritz(w, inv_sqrt, vectors):
    """Rayleigh-Ritz of L on the span of ``vectors``: the Ritz values,
    ascending, the Ritz vectors and the norm of each one's residual
    L v - value v."""
    basis = np.linalg.qr(vectors)[0]
    l_basis = _laplacian_product(w, inv_sqrt, basis)
    values, rotation = np.linalg.eigh(basis.T @ l_basis)
    vectors = basis @ rotation
    return values, vectors, np.linalg.norm(l_basis @ rotation - vectors * values, axis=0)


def _chebyshev(w, inv_sqrt, vectors, low, high):
    """T_m((L - centre) / half) ``vectors``, the Chebyshev filter of degree
    ``_FILTER_DEGREE`` on [low, high] (Zhou, Saad, Tiago & Chelikowsky,
    J. Comput. Phys. 2006): at most 1 in size on [low, high], it grows fast
    below ``low``, where the wanted eigenvalues lie."""
    centre, half = 0.5 * (high + low), 0.5 * (high - low)
    previous = vectors
    vectors = (_laplacian_product(w, inv_sqrt, vectors) - centre * vectors) / half
    for _ in range(_FILTER_DEGREE - 1):
        shifted = _laplacian_product(w, inv_sqrt, vectors) - centre * vectors
        previous, vectors = vectors, (2.0 / half) * shifted - previous
    return vectors


def _gap_is_certified(ritz, residual, sigma, tau, intervals, n):
    """Whether l_{k+1} - l_k is the widest gap of L's spectrum by a margin
    that the fallback's own error cannot close.  Given: k =
    len(ritz) Ritz values within ``residual`` of l_1..l_k, l_{k+1} > sigma,
    l_max < tau, and ``intervals``, a pair of arrays (lower ends, upper
    ends) of intervals that each hold an eigenvalue of L, one of them
    [sigma, theta_{k+1}].

    Eigengap certificate.  l_{k+1} - l_k > sigma - theta_k - r.  A gap below
    k is at most the Ritz gap there plus 2 r.  A gap (l_i, l_{i+1}) above k
    lies in (sigma, tau) and holds no interval whole.  With the intervals
    from sigma up sorted by lower end, take the last one, s, starting at or
    below l_i: the next one ends at or above l_{i+1}, so the gap is at most
    hi_{s+1} - lo_s, or tau - lo_s when s is the last (at most tau - sigma
    in all).  The fallback's eigenvalues come from scipy's ``eigh`` with
    driver "evd": values only, LAPACK's dsyevd reduces L to a tridiagonal
    T by Householder reflections and takes T's eigenvalues by root-free
    QR.  They lie within error = 3 N u64 ||L||_F of L's, by Weyl's
    inequality over three perturbations of at most N u64 ||L||_F each:
    rounding L, the reduction's backward error (Golub & Van Loan, "Matrix
    Computations", section 8.3.1) and the QR iteration's; ||L||_F <= 2
    sqrt(N), as L's spectrum lies in [0, 2].  Each gap they give is within
    2 error of L's, so a winning margin above 4 error makes k the count
    they give too.
    """
    lower, upper = intervals
    keep = lower >= sigma
    order = np.argsort(lower[keep])
    lower, upper = lower[keep][order], upper[keep][order]
    above = max(np.max(upper[1:] - lower[:-1], initial=-np.inf), tau - lower[-1])
    below = np.max(np.diff(ritz), initial=-np.inf) + 2.0 * residual
    winning = sigma - ritz[-1] - residual
    error = 3.0 * n * _U64 * 2.0 * np.sqrt(n)
    return winning - max(below, above) > 4.0 * error


class LaplacianSpectrum:
    """The normalized Laplacian L of one affinity, read in one of two tiers.

    Checks the affinity when built.  The "subspace" tier serves first.  It
    filters a block of vectors against L with products W V in double
    (``_chebyshev`` and ``_rayleigh_ritz`` passes from a fixed-seed start)
    and keeps an answer only when float32 Cholesky factorizations prove it
    (``_definite``):

    * ``eigengap`` reads k off the widest gap of a block of ``_GAP_BLOCK``
      Ritz values, doubled while that gap is the block's last, proves
      l_{k+1} > sigma and l_max < tau, and keeps k when the gap beats every
      other by a margin that covers the fallback's error: it is then the
      count the fallback's eigenvalues give (``_gap_is_certified``).
    * ``embedding`` keeps the k Ritz vectors of a block of k +
      ``_BLOCK_EXTRA`` when l_{k+1} > sigma is proved and the Davis-Kahan
      bound then puts them within ``_EMBEDDING_TOLERANCE`` of L's
      eigenspace.  An embedding for the k the eigengap proved is already
      there.

    The tier proves an estimate only while Rump's shifts, which grow as
    N^2 (about 0.06 in all at N = 1600, 0.23 at 3200), leave room in the
    gap; past that it gives up after one filter pass.  When the filter
    gives up (and then no Cholesky check runs), a check fails, or the
    block would not be narrower than L, the answer falls back to float64:
    L is formed in double (``normalized_laplacian``) and handed to scipy's
    ``eigh``, for all its eigenvalues or for the k smallest eigenpairs.
    The next answer tries the tier again.  ``precision`` reads "subspace"
    while the tier gave every answer, "float64" once the fallback gave
    any, and None before L is used.  An estimator that reads only W
    (``affinity``) runs before either.
    """

    def __init__(self, w):
        self.affinity = _check_affinity(w)
        self.precision = None
        self._certified = None  # (k, V_k) the subspace tier proved

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

    def _block(self, out, rows, columns, sign=1.0, diagonal=0.0, vectors=None):
        """Rows ``rows`` and columns ``columns`` (two ranges) of sign L +
        diagonal I + ``vectors`` ``vectors``^T, formed in double into ``out``
        from W's rows, which are contiguous."""
        (r0, r1), (c0, c1) = rows, columns
        inv_sqrt = self._inv_sqrt
        np.multiply(self.affinity[r0:r1, c0:c1], -sign * inv_sqrt[c0:c1], out=out)
        out *= inv_sqrt[r0:r1, None]
        d = np.arange(max(r0, c0), min(r1, c1))
        out[d - r0, d - c0] += sign + diagonal
        if vectors is not None:
            out += vectors[r0:r1] @ vectors[c0:c1].T
        return out

    def _laplacian(self):
        """L in double, Fortran-ordered: L's rows formed in one pass from W's
        and transposed, which as L is symmetric gives its columns."""
        n = self.affinity.shape[0]
        return self._block(np.empty((n, n)), (0, n), (0, n)).T

    def _packed(self, sign, diagonal, vectors):
        """The lower triangle of A = sign L + diagonal I + ``vectors``
        ``vectors``^T in float32, in LAPACK's rectangular full packed format
        (TRANSR = "N", UPLO = "L"), the storage ``spftrf`` factors: N (N + 1)
        / 2 entries, half of a float32 N x N array.  Formed in double
        ``_LAPLACIAN_TILE`` columns at a time and rounded once.

        With h = ceil(N / 2) and e = 1 for even N, 0 for odd, the format is
        an (N + e) x h Fortran array.  Its column c holds A[c:, c] in rows c
        + e.., and above them A[h : j + 1, j] for j = c + h - 1 + e: the
        upper part of A's trailing triangle, row j of it (none when N is odd
        and c = 0).  Each is formed from W's rows c and j.
        """
        n, b = self.affinity.shape[0], _LAPLACIAN_TILE
        h, e = (n + 1) // 2, 1 - n % 2
        packed = np.empty((n + e, h), dtype=np.float32, order="F")
        lower, upper = np.empty(b * n), np.empty(b * h)
        above = np.triu(np.ones((b, b), dtype=bool), 1)
        for c in range(0, h, b):
            width = min(b, h - c)
            j = c + h - 1 + e
            # Rows c.. and j.. of A, up to the columns each packed column
            # takes.  Both run into the width x width window of packed rows c
            # + e.., where column c + t takes row t of ``low`` on and below
            # its diagonal and row t of ``high`` above it.
            low = self._block(
                lower[: width * (n - c)].reshape(width, n - c),
                (c, c + width), (c, n), sign, diagonal, vectors,
            )
            high = self._block(
                upper[: width * (j + width - h)].reshape(width, j + width - h),
                (j, j + width), (h, j + width), sign, diagonal, vectors,
            )
            packed[: c + e, c : c + width] = high[:, : c + e].T
            window = packed[c + e : c + e + width, c : c + width]
            window[...] = low[:, :width].T
            np.copyto(
                window[: width - 1], high[:, c + e : c + e + width - 1].T, where=above[: width - 1, :width]
            )
            packed[c + e + width :, c : c + width] = low[:, width:].T
        return packed.reshape(-1, order="F")

    def _fallback(self):
        """L formed in double, for scipy's ``eigh`` to decompose in place:
        from now on ``precision`` reads "float64"."""
        self.precision = "float64"
        return normalized_laplacian(self)

    def eigengap(self):
        """The smallest (1-based) i maximizing l_{i+1} - l_i over L's
        ascending eigenvalues l_1 <= l_2 <= ...; L must be at least 2 x 2."""
        self._certified = self._subspace(None)
        if self._certified is not None:
            return self._certified[0]
        values = scipy.linalg.eigh(
            self._fallback(), eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd"
        )
        return _widest_gap(values)

    def embedding(self, k):
        """Orthonormal eigenvectors of L's k smallest eigenvalues, N x k."""
        if self._certified is None or self._certified[0] != k:
            self._certified = self._subspace(k)
        if self._certified is not None:
            return self._certified[1]
        return scipy.linalg.eigh(
            self._fallback(), subset_by_index=[0, k - 1], overwrite_a=True, check_finite=False
        )[1]

    @cached_property
    def _lanczos(self):
        """Ritz values of L, ascending, from ``_LANCZOS_STEPS`` Lanczos steps
        from a fixed-seed start, and the residual norm of each Ritz pair,
        formed explicitly: each value is within its residual of an
        eigenvalue of L (no orthogonality of the Lanczos vectors needed).
        The largest plus its residual estimates l_max (Zhou & Li, "Bounding
        the spectrum of large Hermitian matrices", Linear Algebra Appl.
        2011), though it is not a bound."""
        w, inv_sqrt = self.affinity, self._inv_sqrt
        n = w.shape[0]
        v = np.random.default_rng(0).standard_normal((n, 1))
        v /= np.linalg.norm(v)
        previous, beta = np.zeros_like(v), 0.0
        alphas, betas, basis, products = [], [], [], []
        for _ in range(_LANCZOS_STEPS):
            product = _laplacian_product(w, inv_sqrt, v)
            basis.append(v[:, 0])
            products.append(product[:, 0])
            u = product - beta * previous
            alpha = float(v[:, 0] @ u[:, 0])
            u -= alpha * v
            beta = float(np.linalg.norm(u))
            alphas.append(alpha)
            betas.append(beta)
            if beta <= n * _U64:  # an invariant subspace: no more directions
                break
            previous, v = v, u / beta
        values, rotation = eigh_tridiagonal(np.array(alphas), np.array(betas[:-1]))
        vectors = np.array(basis).T @ rotation
        residuals = np.array(products).T @ rotation - vectors * values
        return values, np.linalg.norm(residuals, axis=0) / np.linalg.norm(vectors, axis=0)

    def _subspace(self, k):
        """``(k, V_k)``: the Ritz vectors of L's k smallest eigenvalues, with
        k read off the eigengap when None, both proved; None when the block
        would not be narrower than L, the filter gives up or a check fails.
        The filter gives up when nothing above the block is left to damp,
        when Rump's shifts leave no gap to bound, or when the Davis-Kahan
        bound falls too slowly.  An estimated k of m - 1 doubles the block
        of m first."""
        n = self.affinity.shape[0]
        m = _GAP_BLOCK if k is None else k + _BLOCK_EXTRA
        if m >= n:
            return None
        w, inv_sqrt = self.affinity, self._inv_sqrt
        lanczos, lanczos_radii = self._lanczos
        high = lanczos[-1] + lanczos_radii[-1]
        rng = np.random.default_rng(0)
        vectors = np.empty((n, 0))
        while True:
            # A widened block keeps the vectors filtered so far.
            vectors = np.hstack([vectors, rng.standard_normal((n, m - vectors.shape[1]))])
            ritz, vectors, _ = _rayleigh_ritz(w, inv_sqrt, vectors)
            last = np.inf
            for left in reversed(range(_FILTER_PASSES)):
                if high <= ritz[-1]:  # nothing above the block to damp
                    return None
                vectors = _chebyshev(w, inv_sqrt, vectors, ritz[-1], high)
                ritz, vectors, radii = _rayleigh_ritz(w, inv_sqrt, vectors)
                count = k if k is not None else _widest_gap(ritz)
                if count == m - 1:
                    break
                residual = np.linalg.norm(radii[:count])
                # The count check factors at theta_{k+1} - margin, and proves
                # l_{k+1} above sigma, Rump's shift below that point.
                margin = _CHOLESKY_MARGIN * (ritz[count] - ritz[count - 1])
                point = ritz[count] - margin
                sigma = point - self._cholesky_shift(1.0, point, count)
                gap = sigma - ritz[count - 1]
                room = 0.0
                if k is None:
                    # The top check factors at the estimate of l_max + margin,
                    # and proves l_max below tau, Rump's shift above that
                    # point.  Every interval ``_gap_is_certified`` reads starts
                    # below high, so it bounds some gap above k by tau - high
                    # at least: the margin and Rump's shift, which grows as
                    # N^2.  A Ritz gap that these fill cannot win.
                    top = high + margin
                    tau = top + self._cholesky_shift(-1.0, top, 0)
                    room = tau - high
                # Embedding certificate (Davis-Kahan sin theta): once l_{k+1} >
                # sigma is proved, the largest angle between the span of the k
                # Ritz vectors and L's eigenspace of l_1..l_k is at most r_F /
                # (sigma - theta_k), r_F the Frobenius norm of their residuals.
                # Without a gap there is no bound.
                if gap <= room:
                    return None
                bound = residual / gap
                if bound <= _EMBEDDING_TOLERANCE:
                    break
                # Give up when the bound, falling at this pass's rate, cannot
                # reach the tolerance in the passes left.  The first pass,
                # filtered above the start's Ritz values, sets no rate.
                if bound * (bound / last) ** left > _EMBEDDING_TOLERANCE:
                    return None
                last = bound if left < _FILTER_PASSES - 1 else np.inf
            if count < m - 1:
                break
            # The widest Ritz gap is the block's last, so l_{m+1} and on may
            # lie below it: the passes start again on a block twice as wide.
            m *= 2
            if m >= n:
                return None
        if k is None:
            # Each Ritz pair, of the block or of the Lanczos steps, holds an
            # eigenvalue within its residual; l_{k+1} is in [sigma, theta_{k+1}].
            lower = np.concatenate([[sigma], (ritz - radii)[count:], lanczos - lanczos_radii])
            upper = np.concatenate([[ritz[count]], (ritz + radii)[count:], lanczos + lanczos_radii])
            certified = _gap_is_certified(ritz[:count], residual, sigma, tau, (lower, upper), n)
            if not (certified and self._definite(-1.0, top)):
                return None
        vectors = vectors[:, :count]
        if not self._definite(1.0, point, vectors):
            return None
        self.precision = self.precision or "subspace"
        return count, vectors

    def _cholesky_shift(self, sign, point, rank):
        """rho such that H + rho I is positive definite when float32
        Cholesky completes on H = sign (L - ``point`` I) + c V V^T, formed
        in double and rounded once, for V with ``rank`` orthonormal columns
        and c = ``_DEFLATION``.

        Cholesky shift (Rump, "Verification of positive definiteness", BIT
        46, 2006).  If floating-point Cholesky completes on a matrix G, then
        G + E = R^T R with ||E||_2 <= g tr(G), g = gamma_{N+1} / (1 -
        gamma_{N+1}), gamma_m = m u / (1 - m u) and u = u32.  Here G =
        fl32(H) = H + F, so H >= -(g tr(G) + ||F||_2) I.  F is the rounding
        of H into float32 and of the double operations that form it: ||F||_2
        <= eps sqrt(N) ||H||_2, eps = u32 + N u64, with ||H||_2 <=
        max(|p|, |2 - p|) + c for L's spectrum in [0, 2]; and tr(G) <= (1 +
        u32) tr(H).  So rho = (g tr(H) + eps sqrt(N) ||H||_2) / (1 - eps
        sqrt(N)) makes H + rho I positive definite if the bounds are met
        strictly; the 1.01 makes them strict and covers the roundings of
        tr(G) and tr(H).  Rump's underflow term is below 1e-30 here.  The
        bound on E holds whatever the order of the sums that form R, so also
        for the blocked factorization ``spftrf`` runs on the packed halves
        (``spotrf``, ``strsm``, ``ssyrk``).  The shift is read at the point
        factored: it grows as the point moves into L's spectrum.
        """
        w = self.affinity
        n = w.shape[0]
        trace = sign * (n - self._inv_sqrt**2 @ np.diagonal(w) - n * point) + _DEFLATION * rank
        gamma = (n + 1) * _U32 / (1.0 - (n + 1) * _U32)
        eps = (_U32 + n * _U64) * np.sqrt(n)
        norm = max(abs(point), abs(2.0 - point)) + _DEFLATION
        return 1.01 * (gamma / (1.0 - gamma) * max(trace, 0.0) + eps * norm) / (1.0 - eps)

    def _definite(self, sign, point, vectors=None):
        """Whether float32 Cholesky (LAPACK ``spftrf``) completes on H =
        sign (L - ``point`` I) + c V V^T, for V = ``vectors`` (none by
        default), formed by ``_packed`` and rounded once.  If it does, H +
        rho I is positive definite, rho = ``_cholesky_shift``.

        Count certificate.  With ``vectors`` the k Ritz vectors and sign 1,
        that is L - sigma I + c V V^T for sigma = point - rho, and it gives
        l_{k+1} > sigma: a positive semidefinite term of rank k lifts at
        most k eigenvalues.  The k Ritz values, each within r = r_F of an
        eigenvalue (Kahan; Parlett, "The Symmetric Eigenvalue Problem",
        11.5) and each with theta_i + r < sigma, are then l_1..l_k to within
        r.  With sign -1 and no vectors it proves l_max < point + rho.
        """
        if vectors is not None:
            vectors = np.sqrt(_DEFLATION) * vectors
        a = self._packed(sign, -sign * point, vectors)
        _, info = _LAPACK["pftrf"](self.affinity.shape[0], a, transr="N", uplo="L", overwrite_a=1)
        return info == 0


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

    Deterministic given ``seed``, a non-negative int: restarts draw from
    spawned child streams and ties in the final objective keep the earliest
    restart.  A point with a NaN or infinite coordinate, or any other seed,
    raises ``ValueError``, whatever k is.
    """
    check_seed(seed)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"need a nonempty 2-D point array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("k-means points contain non-finite entries")
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
    ``LaplacianSpectrum``; given the spectrum whose eigengap the subspace
    tier proved, the embedding is the block that proved it.

    Only those k eigenvectors are computed, not the full N x N eigenbasis
    (``LaplacianSpectrum.embedding``).  The embedding is well defined only
    when eigenvalues k and k+1 differ: with a tie there, any basis of the
    tied eigenspace is an equally valid answer, the subspace tier cannot
    certify one, and the labels may depend on which basis scipy's ``eigh``
    returns.
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
    section 8.3).  The count is the one the float64 eigenvalues give,
    proved without them when the subspace tier can
    (``LaplacianSpectrum.eigengap``).
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
    positions where a new segment starts.  ``prominence`` must be a finite
    real number; anything else (NaN, inf, a bool) raises ``ValueError``.
    """
    if not is_finite_real(prominence):
        raise ValueError(f"prominence must be a finite number, got {prominence!r}")
    z = as_coefficient_matrix(z)
    n = z.shape[0]
    if n < 3:
        raise ValueError(f"boundary detection needs N >= 3, got {n}")
    scores = np.abs(column_differences(z)[:, :-1]).mean(axis=0)  # N - 1 pair scores
    cutoff = scores.mean() + prominence * scores.std()
    boundaries = []
    for i, value in enumerate(scores):
        left_ok = i == 0 or value > scores[i - 1]
        right_ok = i == len(scores) - 1 or value > scores[i + 1]
        if left_ok and right_ok and value >= cutoff:
            boundaries.append(i + 1)
    return boundaries
