"""Per-layer timing from outside the library.

``Tracer`` replaces a module attribute with a timing wrapper at the place
where the caller looks it up: ``pipeline`` imports the solvers and the
spectral functions by name, and ``relaxed`` and ``exact`` each hold their
own bindings of the proximal and difference operators.  A span's self time
is its duration minus the time its wrapped children took.  Spans are
grouped by the solver they ran under, so the sweeps of ``spatsc`` (which
shares the relaxed driver) are not counted as ``osc-relaxed`` sweeps.

Leaving the ``with`` block puts every original function back and checks
that it is there.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name).  Several bindings of one function share
# a span name, so e.g. ``types.column_differences`` sums the calls made
# from ``relaxed`` and from ``exact``.
TARGETS = (
    ("pipeline", "normalize_columns", "pipeline.normalize_columns"),
    ("pipeline", "solve_relaxed", "relaxed.solve"),
    ("pipeline", "solve_exact", "exact.solve"),
    ("pipeline", "spatsc_solve", "baselines.spatsc"),
    ("pipeline", "sim_closed_form", "baselines.sim_closed_form"),
    ("pipeline", "build_affinity", "spectral.build_affinity"),
    ("pipeline", "estimate_k", "pipeline.estimate_k"),
    ("pipeline", "ncut_cluster", "spectral.ncut_cluster"),
    ("spectral", "normalized_laplacian", "spectral.normalized_laplacian"),
    ("spectral", "kmeans", "spectral.kmeans"),
    ("relaxed", "_solve_core", "relaxed.driver"),
    ("baselines", "_solve_core", "relaxed.driver"),
    ("relaxed", "relaxed_iteration", "relaxed.iteration"),
    ("exact", "exact_iteration", "exact.iteration"),
    ("exact", "ridge_error_update", "prox.ridge_error_update"),
    ("prox", "soft_threshold", "prox.soft_threshold"),
) + tuple(
    (module, attr, f"{home}.{attr}")
    for module in ("relaxed", "exact")
    for home, attr in (
        ("types", "operator_norm_squared"),
        ("types", "column_differences"),
        ("types", "apply_difference_adjoint"),
        ("prox", "soft_threshold"),
        ("prox", "soft_threshold_zero_diag"),
        ("prox", "group_shrink_columns"),
    )
)

# Spans that own themselves and the spans below them: one per solver a
# method runs.
SOLVERS = ("relaxed.solve", "exact.solve", "baselines.spatsc")

# Operators reported by self time and call count.
OPERATORS = (
    "prox.soft_threshold",
    "prox.soft_threshold_zero_diag",
    "prox.group_shrink_columns",
    "prox.ridge_error_update",
    "types.column_differences",
    "types.apply_difference_adjoint",
    "types.operator_norm_squared",
)

# Fields of a stats record, and the solver value that matches every solver.
CALLS, TOTAL, SELF = 0, 1, 2
ANY_SOLVER = object()


class Tracer:
    """Context manager that installs the timing wrappers.

    ``stats[(solver, span)]`` holds ``[calls, total_s, self_s]``, where
    ``solver`` is the innermost span of ``SOLVERS`` that encloses or is
    ``span`` (None outside every solver).
    A target missing from the library is skipped and listed in
    ``missing``, so the trace still runs after a refactor renames it.
    """

    def __init__(self):
        self.stats = {}
        self.missing = []
        self._installed = []
        self._child_time = []  # one accumulator per open span
        self._solver = None
        self._plan = []
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"oscluster.{module_name}")
            if callable(getattr(module, attr, None)):
                self._plan.append((module, attr, span))
            else:
                self.missing.append(f"{module_name}.{attr}")

    def _wrap(self, fn, span):
        clock = time.perf_counter
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._solver
            solver = span if span in SOLVERS else outer
            self._solver = solver
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                self._solver = outer
                record = self.stats.setdefault((solver, span), [0, 0.0, 0.0])
                record[CALLS] += 1
                record[TOTAL] += elapsed
                record[SELF] += elapsed - children

        return wrapper

    def __enter__(self):
        try:
            for module, attr, span in self._plan:
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, span))
                self._installed.append((module, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self):
        """Put every original back and check that each one is in place."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        leftover = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._installed
            if getattr(module, attr) is not original
        ]
        self._installed = []
        if leftover:
            raise RuntimeError(f"tracing wrappers still installed: {leftover}")

    def total(self, span, field, solver=ANY_SOLVER):
        """Sum of one stats field over ``span``, under one solver or all."""
        return sum(
            record[field]
            for (owner, name), record in self.stats.items()
            if name == span and (solver is ANY_SOLVER or owner == solver)
        )


def _per(value, count):
    return value / count if count else 0.0


def layer_metrics(tracer, segments):
    """Per-layer metrics from a traced run of ``segments`` segmentations.

    Per segmentation: an operator's ``.ms`` is its self time and ``.calls``
    its call count; a pipeline stage's ``.ms`` includes its children, except
    ``spectral.ncut_self.ms`` and the two spectral helpers, which are self
    time.  The solver metrics are per sweep or per solve, as named.
    """
    t = tracer.total
    m = {}

    def solver(prefix, solve_span, iteration_span, driver_span):
        sweeps = t(iteration_span, CALLS, solve_span)
        m[f"{prefix}.sweeps"] = _per(sweeps, segments)
        m[f"{prefix}.sweep_ms"] = 1000.0 * _per(t(solve_span, TOTAL), sweeps)
        m[f"{prefix}.iteration_self_ms"] = 1000.0 * _per(t(iteration_span, SELF, solve_span), sweeps)
        m[f"{prefix}.driver_self_ms"] = 1000.0 * _per(t(driver_span, SELF, solve_span), sweeps)

    solver("relaxed", "relaxed.solve", "relaxed.iteration", "relaxed.driver")
    solver("exact", "exact.solve", "exact.iteration", "exact.solve")

    for span in OPERATORS:
        m[f"{span}.ms"] = 1000.0 * _per(t(span, SELF), segments)
        m[f"{span}.calls"] = _per(t(span, CALLS), segments)

    solves = t("baselines.spatsc", CALLS)
    m["baselines.spatsc.s"] = _per(t("baselines.spatsc", TOTAL), solves)
    m["baselines.spatsc.sweeps"] = _per(t("relaxed.iteration", CALLS, "baselines.spatsc"), solves)

    for span in (
        "baselines.sim_closed_form",
        "pipeline.normalize_columns",
        "pipeline.estimate_k",
        "spectral.build_affinity",
        "spectral.ncut_cluster",
    ):
        m[f"{span}.ms"] = 1000.0 * _per(t(span, TOTAL), segments)
    m["spectral.ncut_self.ms"] = 1000.0 * _per(t("spectral.ncut_cluster", SELF), segments)
    for span in ("spectral.normalized_laplacian", "spectral.kmeans"):
        m[f"{span}.ms"] = 1000.0 * _per(t(span, SELF), segments)
    return m
