"""Subspace clustering for sequentially ordered data.

Two linearized alternating-direction solvers recover a sparse
self-expressive coefficient matrix whose neighbouring columns are pushed
toward each other, so the affinity it induces segments the sample order
into subspaces.  The package adds spectral clustering, cluster-count
estimation, boundary detection, reference methods, data generators,
metrics and a benchmark CLI.
"""

from .baselines import sim_closed_form, spatsc_solve, ssc_solve
from .datagen import (
    SyntheticSpec,
    add_noise_psnr,
    generate_semisynthetic,
    generate_synthetic,
)
from .exact import ExactState, initial_exact_state, solve_exact
from .matio import (
    load_int_array,
    load_matrix,
    save_int_array,
    save_matrix,
)
from .metrics import psnr, sce
from .pipeline import ClusterResult, cluster_sequential, normalize_columns
from .relaxed import RelaxedState, initial_relaxed_state, solve_relaxed
from .spectral import (
    build_affinity,
    detect_boundaries_peaks,
    estimate_k,
    kmeans,
    ncut_cluster,
    normalized_laplacian,
)
from .types import DivergenceError, SolveDiagnostics, SolverConfig

__version__ = "0.1.0"

__all__ = [
    "ClusterResult",
    "DivergenceError",
    "ExactState",
    "RelaxedState",
    "SolveDiagnostics",
    "SolverConfig",
    "SyntheticSpec",
    "add_noise_psnr",
    "build_affinity",
    "cluster_sequential",
    "detect_boundaries_peaks",
    "estimate_k",
    "generate_semisynthetic",
    "generate_synthetic",
    "initial_exact_state",
    "initial_relaxed_state",
    "kmeans",
    "load_int_array",
    "load_matrix",
    "ncut_cluster",
    "normalize_columns",
    "normalized_laplacian",
    "psnr",
    "save_int_array",
    "save_matrix",
    "sce",
    "sim_closed_form",
    "solve_exact",
    "solve_relaxed",
    "spatsc_solve",
    "ssc_solve",
]
