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
import os
import sys

from .bench import run_bench
from .datagen import BASES_PER_SUBSPACE, SyntheticSpec, generate_dataset
from .matio import load_int_array, load_matrix, save_int_array, save_matrix
from .metrics import sce
from .pipeline import METHODS, cluster_sequential
from .spectral import K_ESTIMATORS
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


# (flag, field, help): each flag stores into a field of SyntheticSpec or
# SolverConfig and takes its type and default from that field's default.
_SPEC_FLAGS = (
    ("--seed", "seed", None),
    ("--subspaces", "num_subspaces", None),
    ("--points", "points_per_subspace", "samples per subspace"),
    ("--dim", "ambient_dim", "ambient dimension"),
    ("--subspace-dim", "subspace_dim", None),
    ("--cov-diag", "cov_diag", None),
    ("--cov-offdiag", "cov_offdiag", None),
)
_SOLVER_FLAGS = (
    ("--lambda1", "lambda1", None),
    ("--lambda2", "lambda2", None),
    ("--mu", "mu0", None),
    ("--mu-max", "mu_max", None),
    ("--gamma0", "gamma0", None),
    ("--eps1", "eps1", None),
    ("--eps2", "eps2", None),
    ("--max-iter", "max_iter", None),
    ("--diag-zero", "diag_zero", "constrain diag(Z) = 0 (ssc and spatsc always do)"),
)
# cluster flags passed to cluster_sequential under their dest names.
_RUN_ARGS = ("method", "k", "k_method", "sv_tau", "seed", "normalize")


def _add_field_flags(parser, table, defaults):
    for flag, name, text in table:
        default = getattr(defaults, name)
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_true", help=text)
        else:
            metavar = flag[2:].upper().replace("-", "_")
            parser.add_argument(
                flag, dest=name, type=type(default), default=default, metavar=metavar, help=text
            )


def _from_flags(cls, table, args):
    return cls(**{name: getattr(args, name) for _, name, _ in table})


def _add_generate_parser(sub):
    p = sub.add_parser("generate", help="write a synthetic ordered dataset")
    p.add_argument("--out", default="synthetic.csv", help="output matrix (.csv or .json)")
    p.add_argument("--labels-out", default=None, help="label sidecar (default <out>.labels.json)")
    _add_field_flags(p, _SPEC_FLAGS, SyntheticSpec())
    p.add_argument("--library", default=None, help="matrix file whose columns serve as bases")
    p.add_argument(
        "--bases-per-subspace", type=int, default=None,
        help=f"library columns per subspace (needs --library; default {BASES_PER_SUBSPACE})",
    )
    p.add_argument("--psnr", type=float, default=None, help="add noise at this PSNR (dB)")


def _add_cluster_parser(sub):
    p = sub.add_parser("cluster", help="segment an ordered data file")
    p.add_argument("data", help="matrix file (.csv or .json), one sample per column")
    p.add_argument("--method", choices=METHODS, default="osc-relaxed")
    p.add_argument("--k", type=int, default=None, help="cluster count (default: estimate)")
    p.add_argument(
        "--estimate-k", dest="k_method", choices=K_ESTIMATORS, default="eigengap",
        help="how k is estimated without --k: the largest gap in the normalized Laplacian's "
        "eigenvalues (eigengap, the default), or W's singular values above --tau (sv-threshold)",
    )
    p.add_argument(
        "--tau", dest="sv_tau", type=float, default=None, metavar="TAU",
        help="threshold for sv-threshold estimation",
    )
    _add_field_flags(p, _SOLVER_FLAGS, SolverConfig())
    p.add_argument(
        "--no-normalize", dest="normalize", action="store_false",
        help="skip unit-norm column scaling",
    )
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
    spec = _from_flags(SyntheticSpec, _SPEC_FLAGS, args)
    x, labels = generate_dataset(
        spec,
        library=load_matrix(args.library) if args.library else None,
        bases_per_subspace=args.bases_per_subspace,
        psnr_db=args.psnr,
        noise_seed=args.seed,
    )
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
    config = _from_flags(SolverConfig, _SOLVER_FLAGS, args)
    report = {"method": args.method, "data": str(args.data)}
    try:
        result = cluster_sequential(
            x, config=config, **{name: getattr(args, name) for name in _RUN_ARGS}
        )
    except DivergenceError as exc:
        report["error"] = str(exc)
    else:
        report.update(result.record(), labels_out=str(labels_path))
        if args.truth:
            report["sce"] = sce(result.labels, load_int_array(args.truth))
        save_int_array(labels_path, result.labels)
    with open(diagnostics_path, "w") as fh:
        json.dump(report, fh, indent=2)
    if "error" in report:
        print(f"solver failed: {report['error']}", file=sys.stderr)
        return EXIT_SOLVER
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
