"""Benchmark of ``oscluster.cluster_sequential``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relaxed-n200 --seed 1 --seconds 32 --trace 0

Load shape: a closed loop.  One process segments pre-generated inputs, one
``cluster_sequential`` call after another, with BLAS held to one thread
(set here before numpy is imported).  The inputs follow from ``--seed``
alone, and every result is checked against the generator's ground truth.

With ``--trace 0`` the run reports the end-to-end metrics.  A
segmentation's time is gated in units of a fixed reference kernel timed
just before it (see ``reference_seconds``); the wall seconds are printed
alongside.  With
``--trace 1`` it segments every input twice, once as is and once with
timing wrappers around the library's functions (see ``tracing.py``), and
reports the per-layer metrics, including how much the wrappers slowed a
segmentation.  No end-to-end number is ever taken with wrappers
installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine and library facts and a readable report.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Hold BLAS to one thread; this takes effect only before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

_import_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oscluster  # noqa: E402, F401
IMPORT_S = time.perf_counter() - _import_start

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MATMUL_REPEATS = 10
REFERENCE_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "segment_ref_p50": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "relaxed.sweeps": "count",
    "relaxed.sweep_ms": "ms",
    "relaxed.iteration_self_ms": "ms",
    "relaxed.driver_self_ms": "ms",
    "relaxed.matmul_floor_ms": "ms",
    "relaxed.sweep_gflop": "GFLOP",
    "exact.sweeps": "count",
    "exact.sweep_ms": "ms",
    "exact.iteration_self_ms": "ms",
    "exact.driver_self_ms": "ms",
    **{
        f"{span}.{field}": unit
        for span in tracing.OPERATORS
        for field, unit in (("ms", "ms"), ("calls", "count"))
    },
    "baselines.spatsc.s": "s",
    "baselines.spatsc.sweeps": "count",
    "baselines.sim_closed_form.ms": "ms",
    "pipeline.normalize_columns.ms": "ms",
    "pipeline.estimate_k.ms": "ms",
    "spectral.build_affinity.ms": "ms",
    "spectral.ncut_cluster.ms": "ms",
    "spectral.ncut_self.ms": "ms",
    "spectral.normalized_laplacian.ms": "ms",
    "spectral.kmeans.ms": "ms",
    "datagen.generate_synthetic.ms": "ms",
    "datagen.add_noise_psnr.ms": "ms",
    "trace.overhead_frac": "fraction",
}


def machine_facts():
    """Machine and library facts that a result depends on."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_threads_set": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def set_up(workload, seed):
    """Generate the inputs and warm up, ``SETUP_REPEATS`` times.

    Returns the inputs, the generator timings and the set-up seconds: the
    import time plus the median of the repeats.
    """
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs, gen_ms = workloads.make_inputs(workload, seed)
        workloads.warm_up(workload, *inputs[0])
        seconds.append(time.perf_counter() - start)
    return inputs, gen_ms, IMPORT_S + statistics.median(seconds)


def measure(workload, inputs, seconds):
    """Segment the inputs in order, cycling through the pool, while the
    next segmentation, judged by the last, still ends within ``seconds``;
    at least one always runs.

    Returns one list of call records per segmentation and, for each, the
    reference time taken just before it.
    """
    segments, references = [], []
    start = time.perf_counter()
    while True:
        references.append(reference_seconds())
        x, truth = inputs[len(segments) % len(inputs)]
        segments.append(workloads.run_segmentation(workload, x, truth))
        if time.perf_counter() - start + segment_seconds(segments[-1]) > seconds:
            return segments, references


def reference_seconds():
    """Fastest of a few runs of a fixed kernel shaped like a small solver
    sweep: a BLAS product pair, shrinkage and column differences, issued
    from Python.

    Other tenants of a shared machine move its speed by 20-30% over
    minutes, so wall times of whole runs drift with them.  A segmentation's
    time divided by this one, taken a moment before, keeps the program's
    cost and drops most of that drift.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 100))
    z_start = rng.standard_normal((100, 100))
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        z = z_start
        for _ in range(20):
            v = z + 1e-3 * (x.T @ (x - x @ z))
            z = np.sign(v) * np.maximum(np.abs(v) - 0.01, 0.0)
            z[:, 1:] - z[:, :-1]
        best = min(best, time.perf_counter() - start)
    return best


def segment_seconds(records):
    return sum(r.seconds for r in records)


def matmul_floor_ms(x):
    """Fastest of a few bare ``X^T (X - X Z)`` products at the input's shape:
    the two BLAS calls a relaxed sweep cannot avoid."""
    n = x.shape[1]
    z = np.random.default_rng(0).standard_normal((n, n))
    best = float("inf")
    for _ in range(MATMUL_REPEATS):
        start = time.perf_counter()
        x.T @ (x - x @ z)
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best


def calls_of(segments):
    return [record for records in segments for record in records]


def end_to_end(segments, references, setup_s):
    return {
        "setup_s": setup_s,
        "segment_ref_p50": statistics.median(
            segment_seconds(records) / reference for records, reference in zip(segments, references)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, inputs, gen_ms, seconds):
    """Each input segmented twice in a row, once untraced and once traced,
    for ``seconds``; returns the per-layer metrics and every segmentation.

    The order within a pair alternates, so a drift in machine speed does
    not read as tracing overhead.  Leaving the tracer restores and checks
    the library's functions before every untraced segmentation.
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        x, truth = inputs[len(traced) % len(inputs)]
        for wrapped in (False, True) if len(traced) % 2 == 0 else (True, False):
            if wrapped:
                with tracer:
                    traced.append(workloads.run_segmentation(workload, x, truth))
            else:
                untraced.append(workloads.run_segmentation(workload, x, truth))
        pair = segment_seconds(traced[-1]) + segment_seconds(untraced[-1])
        if time.perf_counter() - start + pair > seconds:
            break
    d, n = inputs[0][0].shape
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics.update(gen_ms)
    metrics["relaxed.matmul_floor_ms"] = matmul_floor_ms(inputs[0][0])
    metrics["relaxed.sweep_gflop"] = 4.0 * d * n * n / 1e9
    metrics["trace.overhead_frac"] = (
        statistics.median(
            segment_seconds(t) / segment_seconds(u) for t, u in zip(traced, untraced)
        )
        - 1.0
    )
    if tracer.missing:
        print(f"not traced (missing from the library): {', '.join(tracer.missing)}")
    return metrics, untraced + traced


def report(workload, seed, segments, metrics, units, notes):
    """The readable lines before the result; ``notes`` adds ungated
    ``{name: (value, unit)}`` entries."""
    calls = calls_of(segments)
    failures = [r for r in calls if r.failure is not None]
    sweeps = [sum(r.sweeps for r in records) for records in segments]
    times = [segment_seconds(records) for records in segments]
    print(f"workload {workload.name}, seed {seed}: {len(segments)} segmentations, "
          f"{len(calls)} calls, {len(failures)} failed")
    summary = {
        **{name: (metrics[name], unit) for name, unit in units.items()},
        **notes,
        "segment_s_p50": (statistics.median(times), "s"),
        "segment_s_min": (min(times), "s"),
        "sce_max": (max(r.sce for r in calls), "fraction"),
        "failed_frac": (len(failures) / len(calls), "fraction"),
        "sweeps_per_segment": (statistics.mean(sweeps), "count"),
    }
    for name, (value, unit) in summary.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    for record in failures[:5]:
        print(f"  failed {record.method}: {record.failure}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    print("facts " + json.dumps(machine_facts()))
    inputs, gen_ms, setup_s = set_up(workload, args.seed)
    if args.trace:
        metrics, segments = per_layer(workload, inputs, gen_ms, args.seconds)
        units, notes = PER_LAYER_UNITS, {}
    else:
        segments, references = measure(workload, inputs, args.seconds)
        metrics = end_to_end(segments, references, setup_s)
        units = END_TO_END_UNITS
        notes = {"reference_ms": (1000.0 * statistics.median(references), "ms")}
    report(workload, args.seed, segments, metrics, units, notes)
    calls = calls_of(segments)
    failed = sum(r.failure is not None for r in calls)
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
