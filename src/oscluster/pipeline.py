"""End-to-end segmentation: solve for coefficients, build the affinity,
pick the cluster count, spectral-cluster.

Columns are scaled to unit norm before solving (opt out with
``normalize=False``).  The sparse solvers' penalty weights assume roughly
unit-norm samples; on raw small-amplitude data the entrywise penalty would
simply zero the coefficients out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import sim_closed_form, spatsc_solve, ssc_solve
from .exact import solve_exact
from .relaxed import solve_relaxed
from .spectral import (
    LaplacianSpectrum,
    build_affinity,
    check_k_settings,
    estimate_k,
    ncut_cluster,
)
from .types import as_data_matrix, as_solver_config, check_seed

METHODS = ("osc-relaxed", "osc-exact", "ssc", "spatsc", "lrr-sim")


@dataclass
class ClusterResult:
    """Outcome of one segmentation run."""

    labels: np.ndarray
    k: int
    k_was_estimated: bool
    z: np.ndarray
    affinity: np.ndarray
    diagnostics: object
    wall_ms: float
    # Which tier of ``LaplacianSpectrum`` gave k and the embedding:
    # "subspace" when a filtered Ritz block, proved by float32 Cholesky
    # checks, gave both; "float64" when scipy's ``eigh`` on the double L,
    # the fallback, gave either; None when neither ran (k = 1, given or by
    # sv-threshold).
    spectrum: str | None

    def record(self):
        """The run's report fields, shared by the CLI report and the bench
        row: the count, the wall time, the tier of the Laplacian spectrum
        that served and, when the method iterates, its sweep count,
        convergence flag, objective and last residual."""
        record = {
            "k": self.k,
            "k_was_estimated": self.k_was_estimated,
            "wall_ms": self.wall_ms,
            "spectrum": self.spectrum,
        }
        d = self.diagnostics
        if d is not None:
            record.update(
                iterations=d.iterations,
                converged=d.converged,
                objective=d.objective_value,
                final_feasibility=d.feasibility_history[-1] if d.feasibility_history else None,
            )
        return record


def normalize_columns(x):
    """Scale each column to unit Euclidean norm; zero columns stay zero."""
    x = as_data_matrix(x)
    norms = np.linalg.norm(x, axis=0)
    return x / np.where(norms > 0, norms, 1.0)[None, :]


def solve_coefficients(x, method, config):
    """Run the chosen self-expression method; returns (z, diagnostics).

    Every iterative method is ``solve(x, config)``.  The table is built at
    call time from this module's bindings, so a wrapper set on them sees
    the call.  The closed-form ``lrr-sim`` has no diagnostics.
    """
    if method == "lrr-sim":
        return sim_closed_form(x), None
    solvers = {
        "osc-relaxed": solve_relaxed,
        "osc-exact": solve_exact,
        "ssc": ssc_solve,
        "spatsc": spatsc_solve,
    }
    if method not in solvers:
        raise ValueError(f"unknown method {method!r} (choose from {METHODS})")
    return solvers[method](x, config)


def cluster_sequential(
    x,
    method="osc-relaxed",
    config=None,
    k=None,
    k_method="eigengap",
    sv_tau=None,
    seed=0,
    normalize=True,
):
    """Segment ordered samples into subspaces.

    With ``k=None`` the cluster count is estimated by ``k_method``
    (``estimate_k``): by default from the eigengap of the normalized
    Laplacian that the embedding then reuses.  ``seed``, a non-negative
    int, seeds k-means; ``normalize`` must be a bool.  The reported wall
    time covers the solve and the clustering, not any file handling around
    it.
    """
    x = as_data_matrix(x)
    # Before the solve, which bad settings would only waste.
    check_k_settings(k, k_method, sv_tau, x.shape[1])
    check_seed(seed)
    if not isinstance(normalize, bool):
        raise ValueError(f"normalize must be true or false, got {normalize!r}")
    config = as_solver_config(config)
    start = time.perf_counter()
    # The normalized copy is dropped once Z exists.
    z, diagnostics = solve_coefficients(normalize_columns(x) if normalize else x, method, config)
    w = build_affinity(z)
    # Checks W once.  The eigengap and the embedding are proved from one
    # filtered Ritz block; the Laplacian is reduced in double only if a
    # certificate fails.
    spectrum = LaplacianSpectrum(w)
    k_was_estimated = k is None
    if k_was_estimated:
        k = estimate_k(spectrum, method=k_method, tau=sv_tau)
    labels = ncut_cluster(spectrum, k, seed=seed)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ClusterResult(
        labels=labels,
        k=int(k),
        k_was_estimated=k_was_estimated,
        z=z,
        affinity=w,
        diagnostics=diagnostics,
        wall_ms=wall_ms,
        spectrum=spectrum.precision,
    )
