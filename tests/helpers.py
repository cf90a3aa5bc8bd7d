"""Independent numerical oracles the tests pin library outputs against.

Each oracle reaches the quantity by a different route than the library:
grid search, parabola fitting, quasi-Newton descent on a smoothed
objective, coordinate descent, exhaustive permutation search, bisection.
One helper is a frozen copy instead, so a test can require bitwise
equality with it: ``plain_relaxed_sweep`` keeps the unrelaxed fused sweep.
"""

import itertools
import math

import numpy as np

from oscluster import kmeans, normalized_laplacian
from oscluster import admm
from oscluster.prox import group_shrink_columns, soft_threshold, soft_threshold_zero_diag
from oscluster.relaxed import OVER_RELAXATION, RelaxedState
from oscluster.spectral import _ZERO_ROW_NORM
from oscluster.types import (
    apply_difference_adjoint,
    column_differences,
    difference_norm_squared,
    operator_norm_squared,
)


def grid_prox_l1(v, tau, step=1e-3):
    """Per-element grid argmin of tau*|z| + 0.5*(z - v)^2.

    The grid covers every attainable minimizer; the returned point is
    within step/2 of the continuum argmin.
    """
    v = np.asarray(v, dtype=float)
    span = float(np.max(np.abs(v))) + float(tau) + 0.5
    grid = np.arange(-span, span + step, step)
    flat = v.reshape(-1, 1)
    objective = tau * np.abs(grid)[None, :] + 0.5 * (grid[None, :] - flat) ** 2
    return grid[np.argmin(objective, axis=1)].reshape(v.shape)


def grid_prox_l1_refined(v, tau, coarse=1e-2, fine=1e-5):
    """Two-stage grid argmin of tau*|z| + 0.5*(z - v)^2.

    A coarse pass over the full span localizes the (unimodal) objective's
    minimizer, a fine pass over a window around it pins the answer to
    within fine/2.  Still pure objective evaluation, no calculus.
    """
    v = np.asarray(v, dtype=float)
    rough = grid_prox_l1(v, tau, step=coarse).reshape(-1, 1)
    flat = v.reshape(-1, 1)
    offsets = np.arange(-2.0 * coarse, 2.0 * coarse + fine, fine)
    candidates = rough + offsets[None, :]
    objective = tau * np.abs(candidates) + 0.5 * (candidates - flat) ** 2
    picked = candidates[np.arange(candidates.shape[0]), np.argmin(objective, axis=1)]
    return picked.reshape(v.shape)


def group_prox_stationarity(j, u, kappa, zero_tol=1e-7):
    """Subgradient optimality residual of kappa*sum_i ||j_i|| + 0.5*||J-U||_F^2.

    Columns treated as zero use the subdifferential ball at the origin;
    the rest use the smooth gradient.
    """
    j = np.asarray(j, dtype=float)
    u = np.asarray(u, dtype=float)
    worst = 0.0
    for i in range(u.shape[1]):
        ji, ui = j[:, i], u[:, i]
        norm = float(np.linalg.norm(ji))
        if norm <= zero_tol:
            residual = max(0.0, float(np.linalg.norm(ui - ji)) - kappa)
        else:
            residual = float(np.linalg.norm(ji - ui + kappa * ji / norm))
        worst = max(worst, residual)
    return worst


def first_order_group_prox(u, kappa, smooth=1e-12, gtol=1e-9, max_steps=100000):
    """Gradient-descent minimizer of kappa*sum_i ||j_i|| + 0.5*||J - U||_F^2.

    The objective separates per column, so each column runs its own
    backtracking descent on the smoothed objective (column norm replaced by
    sqrt(||j||^2 + smooth^2) - smooth) until the nonsmooth subgradient
    residual is below gtol.  Raises if a column fails to reach gtol, so a
    comparison never silently uses an unconverged point.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)

    def value(col, ucol):
        norm = math.sqrt(float(col @ col) + smooth * smooth)
        return 0.5 * float(np.sum((col - ucol) ** 2)) + kappa * (norm - smooth)

    for i in range(u.shape[1]):
        ucol = u[:, i]
        col = 0.5 * ucol.copy()
        for _ in range(max_steps):
            if group_prox_stationarity(col[:, None], ucol[:, None], kappa) <= gtol:
                break
            norm = math.sqrt(float(col @ col) + smooth * smooth)
            grad = col - ucol + kappa * col / norm
            base = value(col, ucol)
            grad_sq = float(grad @ grad)
            step = 1.0
            while step > 1e-18 and value(col - step * grad, ucol) > base - 1e-4 * step * grad_sq:
                step *= 0.5
            col = col - step * grad
        else:
            raise RuntimeError(f"column {i} did not reach {gtol} stationarity")
        out[:, i] = col
    return out


def ridge_prox_oracle(residual, y1, mu):
    """Element-wise argmin of 0.5*e^2 + y*(s+e) + (mu/2)*(s+e)^2.

    The objective is a separable parabola in each entry, so three function
    evaluations per entry determine the vertex exactly (up to roundoff),
    with no algebraic manipulation of the formula under test.
    """
    s = np.asarray(residual, dtype=float)
    y = np.asarray(y1, dtype=float)

    def g(e):
        return 0.5 * e * e + y * (s + e) + 0.5 * mu * (s + e) ** 2

    f_minus, f_zero, f_plus = g(-1.0), g(0.0), g(1.0)
    curvature = 0.5 * (f_plus + f_minus) - f_zero
    slope = 0.5 * (f_plus - f_minus)
    return -slope / (2.0 * curvature)


def lasso_cd(dictionary, target, lam, exclude=None, tol=1e-10, max_sweeps=100000):
    """Cyclic coordinate descent for 0.5*||target - D z||^2 + sum_j lam_j |z_j|.

    ``exclude`` pins one coordinate at zero (self-column of a
    self-expressive dictionary).  Sweeps until the largest coordinate move
    in a full pass is below tol.
    """
    d = np.asarray(dictionary, dtype=float)
    t = np.asarray(target, dtype=float).ravel()
    n = d.shape[1]
    lam_vec = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    col_sq = np.sum(d * d, axis=0)
    z = np.zeros(n)
    r = t.copy()
    active = [j for j in range(n) if j != exclude and col_sq[j] > 0]
    for _ in range(max_sweeps):
        delta = 0.0
        for j in active:
            old = z[j]
            rho = float(d[:, j] @ r) + col_sq[j] * old
            new = math.copysign(max(abs(rho) - lam_vec[j], 0.0), rho) / col_sq[j]
            if new != old:
                r += d[:, j] * (old - new)
                z[j] = new
                delta = max(delta, abs(new - old))
        if delta <= tol:
            break
    return z


def lasso_cd_matrix(x, lam, tol=1e-10):
    """Self-expressive lasso with zero diagonal and weight ``lam``, column
    by column."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    z = np.zeros((n, n))
    for i in range(n):
        z[:, i] = lasso_cd(x, x[:, i], lam, exclude=i, tol=tol)
    return z


def ncut_full_eigh(w, k, seed=0):
    """Spectral clustering as ncut_cluster, but embedding with the first k
    columns of a full ``np.linalg.eigh`` of the normalized Laplacian."""
    lap = normalized_laplacian(w)
    n = lap.shape[0]
    if k == 1:
        return np.zeros(n, dtype=int)
    _, vecs = np.linalg.eigh(lap)
    embedding = vecs[:, :k]
    for i, row in enumerate(embedding):
        norm = np.linalg.norm(row)
        embedding[i] = row / norm if norm > _ZERO_ROW_NORM else 0.0
    return kmeans(embedding, k, seed=seed)


def brute_force_sce(predicted, truth):
    """Minimum misclassification rate over all one-to-one label matchings."""
    p = np.asarray(predicted).ravel()
    t = np.asarray(truth).ravel()
    if p.size != t.size:
        raise ValueError("length mismatch")
    _, p = np.unique(p, return_inverse=True)
    _, t = np.unique(t, return_inverse=True)
    kp = int(p.max()) + 1
    kt = int(t.max()) + 1
    confusion = np.zeros((kp, kt), dtype=int)
    np.add.at(confusion, (p, t), 1)
    if kp <= kt:
        best = max(
            sum(confusion[i, perm[i]] for i in range(kp))
            for perm in itertools.permutations(range(kt), kp)
        )
    else:
        best = max(
            sum(confusion[perm[i], i] for i in range(kt))
            for perm in itertools.permutations(range(kp), kt)
        )
    return 1.0 - best / p.size


def bisect_nonneg_lasso(quad, lin, lam, hi=1e6, tol=1e-12):
    """Bisection solve of min_b 0.5*quad*b^2 - lin*b + lam*b over b >= 0.

    The derivative quad*b - lin + lam is increasing; its root (clamped at
    zero) is the minimizer.
    """
    if lin <= lam:
        return 0.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if quad * mid - lin + lam > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def prox_objective_l1(candidate, v, tau):
    return tau * float(np.sum(np.abs(candidate))) + 0.5 * float(np.sum((candidate - v) ** 2))


def prox_objective_group(candidate, u, kappa):
    return kappa * float(np.sum(np.linalg.norm(candidate, axis=0))) + 0.5 * float(
        np.sum((candidate - u) ** 2)
    )


def prox_objective_ridge(candidate, residual, y1, mu):
    shifted = residual + candidate
    return (
        0.5 * float(np.sum(candidate**2))
        + float(np.sum(y1 * shifted))
        + 0.5 * mu * float(np.sum(shifted**2))
    )


def never_improved_by_perturbation(objective, argmin, rng, trials=100, radius=1e-4, slack=1e-10):
    """First-order optimality probe: random perturbations of the claimed
    argmin must not lower the objective by more than slack."""
    base = objective(argmin)
    for _ in range(trials):
        direction = rng.standard_normal(argmin.shape)
        direction *= radius / np.linalg.norm(direction)
        if objective(argmin + direction) < base - slack:
            return False
    return True


def _shrink_entries(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _shrink_columns(u, kappa):
    norms = np.sqrt(np.sum(u * u, axis=0))
    return u * np.where(norms > kappa, 1.0 - kappa / np.where(norms > 0, norms, 1.0), 0.0)


def reference_relaxed_sweep(
    x, z, j, y, mu, lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox="l12", alpha=1.0
):
    """One sequential sweep written straight from its update formulas, with
    the J step and the multiplier on the relaxed coupling
    h = alpha Z+ R + (1 - alpha) J.

    Every product is taken afresh from the given blocks, and Z R is a dense
    product with the difference operator, so nothing is carried from an
    earlier sweep.  Returns ``(z, j, y)``.
    """
    r = build_difference_operator(z.shape[0])
    step = mu * eta_z + l_z
    v = z + (x.T @ (x - x @ z) + (y + mu * (j - z @ r)) @ r.T) / step
    z_new = _shrink_entries(v, lam1 / step)
    if diag_zero:
        np.fill_diagonal(z_new, 0.0)
    return (z_new, *reference_coupling_step(z_new, j, y, mu, lam2, eta_j, j_prox, alpha))


def reference_coupling_step(z_new, j, y, mu, lam2, eta_j, j_prox="l12", alpha=1.0):
    """The J and Y lines of ``reference_relaxed_sweep``: the J step and the
    multiplier on h = alpha Z+ R + (1 - alpha) J, with a dense R, from the
    fresh ``z_new`` and the old J and Y.  Returns ``(j, y)``."""
    h = alpha * (z_new @ build_difference_operator(z_new.shape[0])) + (1.0 - alpha) * j
    u = h - y / (mu * eta_j)
    kappa = lam2 / (mu * eta_j)
    j_new = _shrink_columns(u, kappa) if j_prox == "l12" else _shrink_entries(u, kappa)
    y_new = y + mu * (j_new - h)
    return j_new, y_new


def plain_relaxed_sweep(
    x, state, lam1, lam2, l_z, eta_z, eta_j, diag_zero, j_prox="l12", *, workspace, alpha
):
    """The sequential sweep without relaxation, as the library ran it before
    the relaxed coupling: the same fused passes in the same order, on the
    same zero-padded N x N coupling buffers, so its values are bitwise
    those of that sweep.  Takes ``relaxed_iteration``'s arguments and
    refuses any ``alpha`` but 1."""
    assert alpha == 1.0
    ws = workspace
    ws.sync(x, state.z, state.j, state.y)
    z, y, mu = state.z, ws.y, state.mu
    step = mu * eta_z + l_z
    sigma_j = mu * eta_j
    out = admm.free_set(ws.sets, z)
    z_new, j_new, y_new = out.z, out.j, out.y
    v = ws.operator.fit(z, out=ws.fit)
    y_tilde = np.multiply(ws.residual, mu, out=y_new)
    y_tilde += y
    v += apply_difference_adjoint(y_tilde, out=z_new)
    v /= step
    v += z
    shrink = soft_threshold_zero_diag if diag_zero else soft_threshold
    shrink(v, lam1 / step, out=z_new)
    zr = column_differences(z_new, out=ws.zr)
    u = np.divide(y, sigma_j, out=y_new)
    np.subtract(zr, u, out=u)
    shrink = group_shrink_columns if j_prox == "l12" else soft_threshold
    shrink(u, lam2 / sigma_j, out=j_new)
    residual = np.subtract(j_new, zr, out=ws.residual)
    np.multiply(residual, mu, out=y_new)
    y_new += y
    return RelaxedState(z_new, *ws.hold(z_new, j_new, y_new), mu)


def reference_exact_sweep(x, z, e, j, y1, y2, mu, lam1, lam2, eta_z, eta_j, diag_zero):
    """One sweep of the exact-constraint solver from its update formulas,
    with a dense R and nothing carried between sweeps: Z from the given
    blocks, then E and J from the fresh Z.  E and Y1 are separate blocks
    here, each from its own formula, so the relation the library relies on
    (Y1+ = -E+) is checked, not assumed.  Returns ``(z, e, j, y1, y2)``."""
    r = build_difference_operator(z.shape[0])
    sigma_z = mu * eta_z
    sigma_j = mu * eta_j
    grad = x.T @ (y1 + mu * (x @ z - x + e)) - (y2 + mu * (j - z @ r)) @ r.T
    z_new = _shrink_entries(z - grad / sigma_z, lam1 / sigma_z)
    if diag_zero:
        np.fill_diagonal(z_new, 0.0)
    e_new = -(mu * (x @ z_new - x) + y1) / (1.0 + mu)
    j_new = _shrink_columns(z_new @ r - y2 / sigma_j, lam2 / sigma_j)
    y1_new = y1 + mu * (x @ z_new - x + e_new)
    y2_new = y2 + mu * (j_new - z_new @ r)
    return z_new, e_new, j_new, y1_new, y2_new


def build_difference_operator(n):
    """The dense N x (N-1) forward-difference operator R.

    Column i of Z @ R is z_{i+1} - z_i: R[i, i] = -1, R[i+1, i] = +1.  The
    library never forms R; it applies it column by column.
    """
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    r = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    r[idx, idx] = -1.0
    r[idx + 1, idx] = 1.0
    return r


def _next_mu(config, mu, change):
    gamma = config.gamma0 if change < config.eps2 else 1.0
    return min(config.mu_max, gamma * mu)


def reference_relaxed_solve(x, config, l_z, eta_z, blocks):
    """The sequential solver's multiplicative-penalty loop around
    reference_relaxed_sweep, from ``blocks = (z, j, y)``, with that
    schedule's relaxation weight ``OVER_RELAXATION``.

    ``l_z`` and ``eta_z`` are taken as given, so the comparison isolates
    the sweeps.  Returns ``(z, sweeps, feasibility, change, mu)`` histories.
    """
    r = build_difference_operator(x.shape[1])
    z, j, y = blocks
    mu = config.mu0
    feasibility, changes, mus = [], [], []
    for sweep in range(1, config.max_iter + 1):
        z_new, j_new, y_new = reference_relaxed_sweep(
            x, z, j, y, mu, config.lambda1, config.lambda2, l_z, eta_z, admm.ETA_J,
            config.diag_zero, alpha=OVER_RELAXATION,
        )
        feas = float(np.linalg.norm(j_new - z_new @ r))
        change = mu * max(float(np.linalg.norm(z_new - z)), float(np.linalg.norm(j_new - j)))
        feasibility.append(feas)
        changes.append(change)
        mus.append(mu)
        z, j, y = z_new, j_new, y_new
        if feas < config.eps1 and change < config.eps2:
            break
        mu = _next_mu(config, mu, change)
    return z, sweep, feasibility, changes, mus


def reference_exact_solve(x, config, eta_z, blocks):
    """The exact-constraint solver's multiplicative-penalty loop around
    reference_exact_sweep, from ``blocks = (z, e, j, y1, y2)``; returns the
    same tuple as reference_relaxed_solve."""
    r = build_difference_operator(x.shape[1])
    x_fro = float(np.linalg.norm(x))
    z, e, j, y1, y2 = blocks
    mu = config.mu0
    feasibility, changes, mus = [], [], []
    for sweep in range(1, config.max_iter + 1):
        z_new, e_new, j_new, y1_new, y2_new = reference_exact_sweep(
            x, z, e, j, y1, y2, mu, config.lambda1, config.lambda2, eta_z, admm.ETA_J,
            config.diag_zero,
        )
        fit = float(np.linalg.norm(x @ z_new - x + e_new)) / x_fro
        coupling = float(np.linalg.norm(j_new - z_new @ r)) / x_fro
        step = max(
            float(np.linalg.norm(z_new - z)),
            float(np.linalg.norm(e_new - e)),
            float(np.linalg.norm(j_new - j)),
            float(np.linalg.norm((z_new - z) @ r)),
        )
        change = mu * np.sqrt(eta_z) / x_fro * step
        feasibility.append(max(fit, coupling))
        changes.append(change)
        mus.append(mu)
        z, e, j, y1, y2 = z_new, e_new, j_new, y1_new, y2_new
        if fit < config.eps1 and coupling < config.eps1 and change < config.eps2:
            break
        mu = _next_mu(config, mu, change)
    return z, sweep, feasibility, changes, mus


def reference_fista_lasso(x, lam, l_z, sweeps):
    """``sweeps`` steps of FISTA with gradient restart on the zero-diagonal
    self-expressive lasso, from Z = 0, written straight from the update
    formulas: each gradient X^T (X Z - X) is taken afresh at the
    extrapolated point.  ``l_z`` is the step's Lipschitz constant."""
    n = x.shape[1]
    z = w = np.zeros((n, n))
    t = 1.0
    for _ in range(sweeps):
        z_new = _shrink_entries(w + x.T @ (x - x @ w) / l_z, lam / l_z)
        np.fill_diagonal(z_new, 0.0)
        if np.sum((w - z_new) * (z_new - z)) > 0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = z_new + (t - 1.0) / t_new * (z_new - z)
        z, t = z_new, t_new
    return z


def eta_z_with_fit_headroom(x, mu0):
    """||R||^2 + ||X||^2 / mu0 + 1e-3, the additive schedule's eta_z for the
    sequential solver and spatsc, written as the solvers work it out.  It
    charges the fit's Lipschitz constant ||X||^2 a second time, on top of
    the one the Z step mu * eta_z + ||X||^2 already pays."""
    return difference_norm_squared(x.shape[1]) + operator_norm_squared(x) / mu0 + 1e-3

