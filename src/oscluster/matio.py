"""Matrix and label file formats.

Two matrix formats are supported, chosen by file suffix:

* ``.csv``: D rows by N columns, comma separated, no header, ``.`` decimal
  point.  Values are written with 17 significant digits so a write/read
  cycle reproduces every float64 exactly.
* ``.json``: ``{"rows": D, "cols": N, "data": [...]}`` with ``data`` a
  flat list of JSON numbers in row-major order.  Round-trips are bit-exact
  for finite float64.

Labels and boundary lists serialize as plain JSON integer arrays.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .types import is_int


def save_matrix_csv(path, m):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    np.savetxt(path, m, delimiter=",", fmt="%.17g")


def load_matrix_csv(path):
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(m, dtype=float)


def save_matrix_json(path, m):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    payload = {"rows": rows, "cols": cols, "data": [float(v) for v in m.ravel(order="C")]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _is_json_number(value):
    """Whether a parsed JSON value came from a number: not a bool, string,
    null, list or object."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_matrix_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    try:
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: expected keys rows/cols/data") from exc
    for name, value in (("rows", rows), ("cols", cols)):
        if not is_int(value) or value < 0:
            raise ValueError(f"{path}: {name} must be a non-negative int, got {value!r}")
    if not isinstance(data, list) or not all(_is_json_number(v) for v in data):
        raise ValueError(f"{path}: data must be a flat list of numbers")
    m = np.asarray(data, dtype=float)
    if m.size != rows * cols:
        raise ValueError(f"{path}: data length {m.size} != rows*cols {rows * cols}")
    return m.reshape(rows, cols)


def save_matrix(path, m):
    """Write a matrix, dispatching on the ``.csv`` / ``.json`` suffix."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        save_matrix_csv(path, m)
    elif ext == ".json":
        save_matrix_json(path, m)
    else:
        raise ValueError(f"unsupported matrix format {ext!r} (use .csv or .json)")


def load_matrix(path):
    """Read a matrix, dispatching on the ``.csv`` / ``.json`` suffix."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        return load_matrix_csv(path)
    if ext == ".json":
        return load_matrix_json(path)
    raise ValueError(f"unsupported matrix format {ext!r} (use .csv or .json)")


def save_int_array(path, values):
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D integer array, got shape {values.shape}")
    with open(path, "w") as fh:
        json.dump([int(v) for v in values], fh)


def load_int_array(path):
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, list) or not all(is_int(v) for v in values):
        raise ValueError(f"{path}: expected a JSON array of integers")
    return np.asarray(values, dtype=int)
