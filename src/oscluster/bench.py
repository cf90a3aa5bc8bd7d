"""Benchmark harness: sweep methods over noise levels and repeats.

A JSON config drives the run:

    {
      "master_seed": 0,
      "repeats": 20,
      "psnr_db": [null, 40, 30, 20, 15, 10],
      "methods": [
        {"name": "osc-relaxed", "lambda1": 0.1, "lambda2": 1.0, "mu0": 1.0},
        {"name": "ssc", "lambda1": 0.2}
      ],
      "k": 5,
      "generator": {"num_subspaces": 5, "points_per_subspace": 20,
                    "ambient_dim": 100, "subspace_dim": 4},
      "library": null,
      "normalize": true,
      "timing": {"points_per_subspace": [10, 20, 30, 40], "repeats": 10,
                 "method": "osc-relaxed"}
    }

``psnr_db`` entries of ``null`` (or ``"inf"``) mean the clean matrix; the
default grid is infinity plus 40/30/20/15/10 dB.  Every cell derives its
seeds from the master seed and its own coordinates, so reruns and
reordering reproduce identical numbers; all methods in one (repeat, noise)
cell see the same data.  Failures are recorded per row and do not abort
the sweep.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np

from .datagen import SyntheticSpec, add_noise_psnr, generate_semisynthetic, generate_synthetic
from .matio import load_matrix
from .metrics import sce
from .pipeline import cluster_sequential
from .types import SolverConfig

DEFAULT_PSNR_GRID = (math.inf, 40.0, 30.0, 20.0, 15.0, 10.0)

_CONFIG_FIELDS = tuple(f.name for f in fields(SolverConfig))


def derive_seed(master_seed, *coords):
    """Stable 32-bit seed from the master seed and integer coordinates."""
    ss = np.random.SeedSequence([int(master_seed), *[int(c) for c in coords]])
    return int(ss.generate_state(1)[0])


def _parse_psnr(value):
    if value is None:
        return math.inf
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ValueError(f"bad psnr entry {value!r}")
    value = float(value)
    if value <= 0:
        raise ValueError(f"psnr must be positive, got {value}")
    return value


def _method_config(entry):
    name = entry.get("name")
    if name is None:
        raise ValueError("each method entry needs a 'name'")
    unknown = sorted(set(entry) - {"name", *_CONFIG_FIELDS})
    if unknown:
        raise ValueError(f"method {name!r} has unknown keys {unknown}")
    kwargs = {k: entry[k] for k in _CONFIG_FIELDS if k in entry}
    return name, SolverConfig(**kwargs)


def parse_bench_config(raw):
    """Normalize a raw config dict; raises ValueError on malformed input."""
    if not isinstance(raw, dict):
        raise ValueError("bench config must be a JSON object")
    if not raw.get("methods"):
        raise ValueError("bench config needs a nonempty 'methods' list")
    cfg = {
        "master_seed": int(raw.get("master_seed", 0)),
        "repeats": int(raw.get("repeats", 20)),
        "psnr_db": [_parse_psnr(v) for v in raw.get("psnr_db", DEFAULT_PSNR_GRID)],
        "methods": [_method_config(m) for m in raw["methods"]],
        "generator": SyntheticSpec(**raw.get("generator", {})),
        "library": raw.get("library"),
        "k": raw.get("k"),
        "k_method": raw.get("k_method", "eigengap"),
        "sv_tau": raw.get("sv_tau"),
        "normalize": bool(raw.get("normalize", True)),
        "timing": raw.get("timing"),
    }
    if cfg["repeats"] < 1:
        raise ValueError(f"repeats must be >= 1, got {cfg['repeats']}")
    return cfg


def _generate_cell_data(cfg, repeat, psnr_db, library_matrix):
    spec = replace(cfg["generator"], seed=derive_seed(cfg["master_seed"], 0, repeat))
    if library_matrix is not None:
        x, labels = generate_semisynthetic(library_matrix, spec)
    else:
        x, labels = generate_synthetic(spec)
    if math.isfinite(psnr_db):
        noise_seed = derive_seed(cfg["master_seed"], 1, repeat, int(round(psnr_db * 100)))
        x = add_noise_psnr(x, psnr_db, seed=noise_seed)
    return x, labels


def run_cell(cfg, method_name, config, repeat, psnr_db, library_matrix):
    """One (method, noise, repeat) measurement; exceptions become row errors."""
    row = {
        "method": method_name,
        "psnr_db": psnr_db,
        "repeat": repeat,
        "sce": None,
        "wall_ms": None,
        "iterations": None,
        "converged": None,
        "error": "",
    }
    try:
        x, labels = _generate_cell_data(cfg, repeat, psnr_db, library_matrix)
        result = cluster_sequential(
            x,
            method=method_name,
            config=config,
            k=cfg["k"],
            k_method=cfg["k_method"],
            sv_tau=cfg["sv_tau"],
            seed=derive_seed(cfg["master_seed"], 2, repeat),
            normalize=cfg["normalize"],
        )
        row["sce"] = sce(result.labels, labels)
        row["wall_ms"] = result.wall_ms
        if result.diagnostics is not None:
            row["iterations"] = result.diagnostics.iterations
            row["converged"] = result.diagnostics.converged
    except Exception as exc:  # recorded, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cell_worker(args):
    return run_cell(*args)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def run_timing_sweep(cfg):
    """Wall time per solve and per iteration as the sample count grows."""
    timing = cfg["timing"]
    points = [int(v) for v in timing.get("points_per_subspace", (10, 20, 30, 40))]
    repeats = int(timing.get("repeats", 10))
    method = timing.get("method", "osc-relaxed")
    name, config = _method_config({"name": method, **{k: timing[k] for k in _CONFIG_FIELDS if k in timing}})
    rows = []
    for m in points:
        spec = replace(cfg["generator"], points_per_subspace=m)
        walls, iters = [], []
        for rep in range(repeats):
            run_spec = replace(spec, seed=derive_seed(cfg["master_seed"], 3, m, rep))
            x, _ = generate_synthetic(run_spec)
            result = cluster_sequential(
                x, method=name, config=config, k=spec.num_subspaces,
                seed=derive_seed(cfg["master_seed"], 4, m, rep), normalize=cfg["normalize"],
            )
            walls.append(result.wall_ms)
            iters.append(result.diagnostics.iterations if result.diagnostics else 1)
        n_total = m * spec.num_subspaces
        mean_wall = float(np.mean(walls))
        mean_iters = float(np.mean(iters))
        rows.append((name, n_total, repeats, mean_wall, mean_iters, mean_wall / mean_iters))
    return rows


def run_bench(raw_config, out_dir, workers=1):
    """Execute the sweep; writes raw.csv, summary.csv and (optionally)
    timing.csv under ``out_dir``.  Returns the written paths.

    ``workers`` cells run at once in worker processes; 1 runs them in this
    process.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cfg = parse_bench_config(raw_config)
    os.makedirs(out_dir, exist_ok=True)
    library_matrix = load_matrix(cfg["library"]) if cfg["library"] else None

    tasks = [
        (cfg, name, config, repeat, psnr_db, library_matrix)
        for name, config in cfg["methods"]
        for psnr_db in cfg["psnr_db"]
        for repeat in range(cfg["repeats"])
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell_worker, tasks))
    else:
        rows = [run_cell(*task) for task in tasks]

    # Deterministic output order regardless of execution order.
    rows.sort(key=lambda r: (r["method"], -r["psnr_db"], r["repeat"]))
    raw_path = os.path.join(out_dir, "raw.csv")
    _write_csv(
        raw_path,
        ["method", "psnr_db", "repeat", "sce", "wall_ms", "iterations", "converged", "error"],
        [
            (r["method"], r["psnr_db"], r["repeat"], r["sce"], r["wall_ms"],
             r["iterations"], r["converged"], r["error"])
            for r in rows
        ],
    )

    summary_rows = []
    for name, _ in cfg["methods"]:
        for psnr_db in sorted(cfg["psnr_db"], reverse=True):
            values = [
                r["sce"]
                for r in rows
                if r["method"] == name and r["psnr_db"] == psnr_db and r["sce"] is not None
            ]
            if values:
                summary_rows.append(
                    (name, psnr_db, len(values), float(np.min(values)),
                     float(np.max(values)), float(np.median(values)), float(np.mean(values)))
                )
            else:
                summary_rows.append((name, psnr_db, 0, None, None, None, None))
    summary_path = os.path.join(out_dir, "summary.csv")
    _write_csv(
        summary_path,
        ["method", "psnr_db", "cells", "sce_min", "sce_max", "sce_median", "sce_mean"],
        summary_rows,
    )

    paths = {"raw": raw_path, "summary": summary_path}
    if cfg["timing"]:
        timing_path = os.path.join(out_dir, "timing.csv")
        _write_csv(
            timing_path,
            ["method", "n_samples", "repeats", "mean_wall_ms", "mean_iterations", "ms_per_iteration"],
            run_timing_sweep(cfg),
        )
        paths["timing"] = timing_path
    return paths
