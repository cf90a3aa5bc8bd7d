"""What a fresh interpreter loads to segment a sequence and score it."""

import os
import subprocess
import sys
from pathlib import Path

import oscluster

SCRIPT = """
import sys
import oscluster, oscluster.cli
from oscluster import SyntheticSpec, cluster_sequential, generate_synthetic, sce
x, truth = generate_synthetic(SyntheticSpec(num_subspaces=2, points_per_subspace=8, ambient_dim=12))
result = cluster_sequential(x, method="lrr-sim", k=None)
sce(result.labels, truth)
print(" ".join(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""


def test_segmenting_and_scoring_load_no_optimize_or_sparse():
    # A subprocess, because this test process has imported scipy.optimize
    # already.  The package root leads the path, so the child imports the
    # same oscluster as this process.
    root = str(Path(oscluster.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == ""
