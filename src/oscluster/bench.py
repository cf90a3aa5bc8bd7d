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
      "normalize": true
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
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np

from .datagen import SyntheticSpec, check_library, generate_dataset
from .matio import load_matrix
from .metrics import sce
from .pipeline import METHODS, cluster_sequential
from .spectral import check_k_settings
from .types import SolverConfig, is_int

DEFAULT_PSNR_GRID = (math.inf, 40.0, 30.0, 20.0, 15.0, 10.0)
RAW_COLUMNS = (
    "method", "psnr_db", "repeat", "sce", "wall_ms", "iterations", "converged", "spectrum", "error",
)

_CONFIG_FIELDS = tuple(f.name for f in fields(SolverConfig))
_GENERATOR_FIELDS = tuple(f.name for f in fields(SyntheticSpec))


def derive_seed(master_seed, *coords):
    """Stable 32-bit seed from the master seed and integer coordinates."""
    ss = np.random.SeedSequence([int(master_seed), *[int(c) for c in coords]])
    return int(ss.generate_state(1)[0])


def _parse_psnr(value):
    if value is None or (isinstance(value, str) and value.lower() in ("inf", "infinity")):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"bad psnr entry {value!r}")
    value = float(value)
    if not value > 0:
        raise ValueError(f"psnr must be positive, got {value}")
    return value


def _object_with_keys(value, allowed, what):
    """``value`` if it is a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    return value


def _method_config(entry):
    name = entry.get("name") if isinstance(entry, dict) else None
    if name is None:
        raise ValueError(f"each method entry must be an object with a 'name', got {entry!r}")
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r} (choose from {METHODS})")
    _object_with_keys(entry, ("name", *_CONFIG_FIELDS), f"method {name!r}")
    return name, SolverConfig(**{k: entry[k] for k in _CONFIG_FIELDS if k in entry})


def parse_bench_config(raw):
    """Normalize a raw config dict; raises ValueError on malformed input."""
    if not isinstance(raw, dict):
        raise ValueError("bench config must be a JSON object")
    if not isinstance(raw.get("methods"), (list, tuple)) or not raw["methods"]:
        raise ValueError("bench config needs a nonempty 'methods' list")
    psnr_db = raw.get("psnr_db", DEFAULT_PSNR_GRID)
    if not isinstance(psnr_db, (list, tuple)):
        raise ValueError(f"psnr_db must be a list, got {psnr_db!r}")
    if not psnr_db:
        raise ValueError("psnr_db must name at least one noise level")
    for key, default, least in (("master_seed", 0, 0), ("repeats", 20, 1)):
        value = raw.get(key, default)
        if not is_int(value):
            raise ValueError(f"{key} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{key} must be >= {least}, got {value}")
    cfg = {
        "master_seed": raw.get("master_seed", 0),
        "repeats": raw.get("repeats", 20),
        "psnr_db": [_parse_psnr(v) for v in psnr_db],
        "methods": [_method_config(m) for m in raw["methods"]],
        "generator": SyntheticSpec(
            **_object_with_keys(raw.get("generator", {}), _GENERATOR_FIELDS, "'generator'")
        ),
        "library": raw.get("library"),
        "k": raw.get("k"),
        "k_method": raw.get("k_method", "eigengap"),
        "sv_tau": raw.get("sv_tau"),
        "normalize": raw.get("normalize", True),
    }
    _object_with_keys(raw, cfg, "bench config")
    if not isinstance(cfg["normalize"], bool):
        raise ValueError(f"normalize must be true or false, got {cfg['normalize']!r}")
    generator = cfg["generator"]
    n = generator.num_subspaces * generator.points_per_subspace
    check_k_settings(cfg["k"], cfg["k_method"], cfg["sv_tau"], n)
    return cfg


def _generate_cell_data(cfg, repeat, psnr_db, library_matrix):
    spec = replace(cfg["generator"], seed=derive_seed(cfg["master_seed"], 0, repeat))
    if math.isinf(psnr_db):
        return generate_dataset(spec, library_matrix)
    noise_seed = derive_seed(cfg["master_seed"], 1, repeat, int(round(psnr_db * 100)))
    return generate_dataset(spec, library_matrix, psnr_db=psnr_db, noise_seed=noise_seed)


def run_cell(cfg, method_name, config, repeat, psnr_db, library_matrix):
    """One (method, noise, repeat) measurement; exceptions become row errors."""
    row = dict.fromkeys(RAW_COLUMNS)
    row.update(method=method_name, psnr_db=psnr_db, repeat=repeat, error="")
    try:
        x, labels = _generate_cell_data(cfg, repeat, psnr_db, library_matrix)
        result = cluster_sequential(
            x, method=method_name, config=config, seed=derive_seed(cfg["master_seed"], 2, repeat),
            **{name: cfg[name] for name in ("k", "k_method", "sv_tau", "normalize")},
        )
        row["sce"] = sce(result.labels, labels)
        row.update(result.record())
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


def run_bench(raw_config, out_dir, workers=1):
    """Execute the sweep; writes raw.csv and summary.csv under ``out_dir``.
    Returns the written paths.

    ``workers``, an int (not a bool), cells run at once in worker processes;
    1 runs them in this process.
    """
    if not is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an int of at least 1, got {workers!r}")
    cfg = parse_bench_config(raw_config)
    library_matrix = None
    if cfg["library"]:
        library_matrix = check_library(load_matrix(cfg["library"]), cfg["generator"])
    os.makedirs(out_dir, exist_ok=True)

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
    _write_csv(raw_path, RAW_COLUMNS, [[r[c] for c in RAW_COLUMNS] for r in rows])

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

    return {"raw": raw_path, "summary": summary_path}
