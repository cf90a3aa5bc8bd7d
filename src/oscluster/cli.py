"""Command line front end.

Three subcommands:

* ``generate``: write a synthetic (or library-based) ordered dataset plus
  a label sidecar, echoing the resolved generator settings as JSON.
* ``cluster``: segment a data file with one of the methods and write a
  label file plus a diagnostics JSON.
* ``bench``: run the benchmark sweep described by a JSON config file.

Exit codes: 0 on success, 2 on usage errors, 3 when a solver diverges.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .bench import run_bench
from .datagen import SyntheticSpec, add_noise_psnr, generate_semisynthetic, generate_synthetic
from .matio import load_int_array, load_matrix, save_int_array, save_matrix
from .metrics import sce
from .pipeline import K_ESTIMATORS, METHODS, cluster_sequential
from .types import DivergenceError, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


def _sidecar(path, suffix):
    stem, _ = os.path.splitext(str(path))
    return stem + suffix


def _path_collision(paths):
    """Message naming the first two of ``{role: path}`` (None entries
    skipped) that resolve to the same file, or None when all differ."""
    seen = {}
    for role, path in paths.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            return f"{role} {path} is the same file as {seen[real]}"
        seen[real] = f"{role} {path}"
    return None


def _add_generate_parser(sub):
    p = sub.add_parser("generate", help="write a synthetic ordered dataset")
    p.add_argument("--out", default="synthetic.csv", help="output matrix (.csv or .json)")
    p.add_argument("--labels-out", default=None, help="label sidecar (default <out>.labels.json)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subspaces", type=int, default=5)
    p.add_argument("--points", type=int, default=20, help="samples per subspace")
    p.add_argument("--dim", type=int, default=100, help="ambient dimension")
    p.add_argument("--subspace-dim", type=int, default=4)
    p.add_argument("--cov-diag", type=float, default=0.001)
    p.add_argument("--cov-offdiag", type=float, default=0.0005)
    p.add_argument("--library", default=None, help="matrix file whose columns serve as bases")
    p.add_argument("--bases-per-subspace", type=int, default=5)
    p.add_argument("--psnr", type=float, default=None, help="add noise at this PSNR (dB)")


def _add_cluster_parser(sub):
    defaults = SolverConfig()
    p = sub.add_parser("cluster", help="segment an ordered data file")
    p.add_argument("data", help="matrix file (.csv or .json), one sample per column")
    p.add_argument("--method", choices=METHODS, default="osc-relaxed")
    p.add_argument("--k", type=int, default=None, help="cluster count (default: estimate)")
    p.add_argument("--estimate-k", choices=K_ESTIMATORS, default="eigengap")
    p.add_argument("--tau", type=float, default=None, help="threshold for sv-threshold estimation")
    p.add_argument("--lambda1", type=float, default=defaults.lambda1)
    p.add_argument("--lambda2", type=float, default=defaults.lambda2)
    p.add_argument("--mu", type=float, default=defaults.mu0)
    p.add_argument("--mu-max", type=float, default=defaults.mu_max)
    p.add_argument("--gamma0", type=float, default=defaults.gamma0)
    p.add_argument("--eps1", type=float, default=defaults.eps1)
    p.add_argument("--eps2", type=float, default=defaults.eps2)
    p.add_argument("--max-iter", type=int, default=defaults.max_iter)
    p.add_argument(
        "--diag-zero", action="store_true", help="constrain diag(Z) = 0 (ssc and spatsc always do)"
    )
    p.add_argument("--no-normalize", action="store_true", help="skip unit-norm column scaling")
    p.add_argument("--seed", type=int, default=0, help="clustering restart seed")
    p.add_argument("--truth", default=None, help="true label file; adds SCE to the report")
    p.add_argument("--labels-out", default=None, help="default <data>.predicted.json")
    p.add_argument("--diagnostics-out", default=None, help="default <data>.diagnostics.json")


def _add_bench_parser(sub):
    p = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    p.add_argument("config", help="bench config JSON file")
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--workers", type=int, default=1)


def cmd_generate(args):
    labels_path = args.labels_out or _sidecar(args.out, ".labels.json")
    collision = _path_collision({"--out": args.out, "--labels-out": labels_path})
    if collision:
        print(f"error: {collision}", file=sys.stderr)
        return EXIT_USAGE
    spec = SyntheticSpec(
        num_subspaces=args.subspaces,
        points_per_subspace=args.points,
        ambient_dim=args.dim,
        subspace_dim=args.subspace_dim,
        cov_diag=args.cov_diag,
        cov_offdiag=args.cov_offdiag,
        seed=args.seed,
    )
    if args.library:
        library = load_matrix(args.library)
        x, labels = generate_semisynthetic(library, spec, args.bases_per_subspace)
    else:
        x, labels = generate_synthetic(spec)
    if args.psnr is not None:
        x = add_noise_psnr(x, args.psnr, seed=args.seed)
    save_matrix(args.out, x)
    save_int_array(labels_path, labels)
    report = dataclasses.asdict(spec)
    report.update(
        rows=x.shape[0], cols=x.shape[1], out=str(args.out), labels_out=str(labels_path),
        library=args.library, psnr_db=args.psnr,
    )
    print(json.dumps(report))
    return EXIT_OK


def cmd_cluster(args):
    labels_path = args.labels_out or _sidecar(args.data, ".predicted.json")
    diagnostics_path = args.diagnostics_out or _sidecar(args.data, ".diagnostics.json")
    collision = _path_collision(
        {
            "data": args.data,
            "--truth": args.truth,
            "labels output": labels_path,
            "diagnostics output": diagnostics_path,
        }
    )
    if collision:
        print(f"error: {collision}", file=sys.stderr)
        return EXIT_USAGE
    x = load_matrix(args.data)
    config = SolverConfig(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        mu0=args.mu,
        mu_max=args.mu_max,
        gamma0=args.gamma0,
        eps1=args.eps1,
        eps2=args.eps2,
        max_iter=args.max_iter,
        diag_zero=args.diag_zero,
    )
    report = {"method": args.method, "data": str(args.data)}
    try:
        result = cluster_sequential(
            x,
            method=args.method,
            config=config,
            k=args.k,
            k_method=args.estimate_k,
            sv_tau=args.tau,
            seed=args.seed,
            normalize=not args.no_normalize,
        )
    except DivergenceError as exc:
        report["error"] = str(exc)
        with open(diagnostics_path, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    report.update(
        k=result.k,
        k_was_estimated=result.k_was_estimated,
        wall_ms=result.wall_ms,
        labels_out=str(labels_path),
    )
    if result.diagnostics is not None:
        report.update(
            iterations=result.diagnostics.iterations,
            converged=result.diagnostics.converged,
            objective=result.diagnostics.objective_value,
            final_feasibility=(
                result.diagnostics.feasibility_history[-1]
                if result.diagnostics.feasibility_history
                else None
            ),
        )
    if args.truth:
        report["sce"] = sce(result.labels, load_int_array(args.truth))
    save_int_array(labels_path, result.labels)
    with open(diagnostics_path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report))
    return EXIT_OK


def cmd_bench(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    try:
        paths = run_bench(raw, args.out_dir, workers=args.workers)
    except ValueError as exc:
        print(f"bad bench config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(paths))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscluster",
        description="Segment sequentially ordered samples into subspaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate_parser(sub)
    _add_cluster_parser(sub)
    _add_bench_parser(sub)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "cluster":
            return cmd_cluster(args)
        return cmd_bench(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
