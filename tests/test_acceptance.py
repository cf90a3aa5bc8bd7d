"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line
directly to the terminal, bypassing capture, so the gate status is visible
in any pytest run.
"""

import math
import time

import numpy as np
from scipy.linalg import block_diag

from oscluster import (
    SolverConfig,
    SyntheticSpec,
    estimate_k,
    generate_synthetic,
    normalize_columns,
    sce,
    sim_closed_form,
    solve_relaxed,
)
from oscluster.prox import group_shrink_columns, ridge_error_update, soft_threshold
from oscluster.relaxed import solve_monitored

from conftest import OSC_PARAMS, SWEEP_ELAPSED
from helpers import (
    brute_force_sce,
    first_order_group_prox,
    grid_prox_l1_refined,
    ridge_prox_oracle,
)


def report(capsys, num, description, ok, detail=""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {description}{detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def test_criterion_01_prox_operators_match_oracles(capsys):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()

    worst_l1 = 0.0
    for _ in range(100):
        v = 3.0 * rng.standard_normal((5, 5))
        tau = float(rng.uniform(0.05, 1.5))
        worst_l1 = max(
            worst_l1, float(np.max(np.abs(soft_threshold(v, tau) - grid_prox_l1_refined(v, tau))))
        )

    worst_group = 0.0
    for _ in range(100):
        u = 2.0 * rng.standard_normal((4, 6))
        kappa = float(rng.uniform(0.1, 1.2))
        worst_group = max(
            worst_group,
            float(np.max(np.abs(group_shrink_columns(u, kappa) - first_order_group_prox(u, kappa)))),
        )

    worst_ridge = 0.0
    for _ in range(100):
        residual = rng.standard_normal((5, 5))
        y1 = rng.standard_normal((5, 5))
        mu = float(rng.uniform(0.5, 10.0))
        worst_ridge = max(
            worst_ridge,
            float(np.max(np.abs(ridge_error_update(residual, y1, mu) - ridge_prox_oracle(residual, y1, mu)))),
        )

    elapsed = time.perf_counter() - start
    ok = worst_l1 <= 1e-4 and worst_group <= 1e-5 and worst_ridge <= 1e-5 and elapsed < 10.0
    report(
        capsys,
        1,
        "proximal operators match independent minimizers on 100 instances each",
        ok,
        f" (l1 {worst_l1:.2e}, group {worst_group:.2e}, ridge {worst_ridge:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_both_solvers_converge_on_protocol(capsys, clean_sweep):
    ok_runs = 0
    residual_ok = True
    for rec in clean_sweep:
        dr, de = rec["diag_relaxed"], rec["diag_exact"]
        if dr.converged and de.converged and dr.iterations <= 2000 and de.iterations <= 2000:
            ok_runs += 1
            if dr.feasibility_history[-1] >= 1e-4 or de.feasibility_history[-1] >= 1e-4:
                residual_ok = False
    ok = ok_runs >= 19 and residual_ok
    report(
        capsys,
        2,
        "both solvers converge within 2000 iterations on >= 19/20 protocol seeds",
        ok,
        f" ({ok_runs}/20 converged, final residuals < 1e-4: {residual_ok})",
    )


def test_criterion_03_descent_monitor_nonincreasing(capsys):
    cfg = SolverConfig(
        lambda1=0.1,
        lambda2=1.0,
        mu0=1.0,
        max_iter=3000,
        eps=1e-6,
    )
    worst_step = -math.inf
    min_value = math.inf
    for s in range(10):
        rng = np.random.default_rng(200 + s)
        x = rng.standard_normal((15, 20))
        x /= np.linalg.norm(x, axis=0, keepdims=True)
        _, diag = solve_monitored(x, cfg)
        vals = np.asarray(diag.lyapunov_history)
        min_value = min(min_value, float(vals.min()))
        if len(vals) > 1:
            worst_step = max(worst_step, float(np.diff(vals).max()))
    ok = worst_step <= 1e-8 and min_value >= 0.0
    report(
        capsys,
        3,
        "descent monitor is nonnegative and nonincreasing (1e-8 slack) on 10 instances",
        ok,
        f" (worst step {worst_step:.2e}, min value {min_value:.2e})",
    )


def test_criterion_04_accuracy_clean_and_20db(capsys, clean_sweep, noisy_sweep_20db):
    clean_mean = float(np.mean([rec["sce_relaxed"] for rec in clean_sweep]))
    noisy_mean = float(np.mean(noisy_sweep_20db))
    elapsed = SWEEP_ELAPSED.get("clean", 0.0) + SWEEP_ELAPSED.get("noisy20", 0.0)
    ok = clean_mean <= 0.02 and noisy_mean <= 0.10 and elapsed < 300.0
    report(
        capsys,
        4,
        "mean clustering error <= 0.02 clean and <= 0.10 at 20 dB over 20 seeds",
        ok,
        f" (clean {clean_mean:.4f}, 20 dB {noisy_mean:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_05_beats_references_at_15db(capsys, noisy_sweep_15db):
    means = {name: float(np.mean(vals)) for name, vals in noisy_sweep_15db.items()}
    ours = means["osc-relaxed"]
    others = {k: v for k, v in means.items() if k != "osc-relaxed"}
    ok = all(ours <= v for v in others.values())
    report(
        capsys,
        5,
        "ordered solver's mean error at 15 dB is lowest among all methods",
        ok,
        f" ({', '.join(f'{k} {v:.4f}' for k, v in sorted(means.items()))})",
    )


def test_criterion_06_cluster_count_estimation(capsys, clean_sweep):
    hits = sum(1 for rec in clean_sweep if estimate_k(rec["w_relaxed"]) == 5)
    w = block_diag(*[np.ones((20, 20)) for _ in range(5)])
    sigma_max = float(np.linalg.svd(w, compute_uv=False)[0])
    sv_estimate = estimate_k(w, "sv-threshold", 1e-6 * sigma_max)
    ok = hits >= 18 and sv_estimate == 5
    report(
        capsys,
        6,
        "eigengap finds k=5 on >= 90% of clean runs; sv-threshold finds 5 blocks",
        ok,
        f" (eigengap {hits}/20, sv-threshold {sv_estimate})",
    )


def test_criterion_07_projector_identities(capsys):
    a, _ = generate_synthetic(SyntheticSpec(seed=0))
    z = sim_closed_form(a)
    recon = float(np.linalg.norm(a - a @ z)) / float(np.linalg.norm(a))
    idem = float(np.linalg.norm(z @ z - z))
    ok = recon < 1e-8 and idem < 1e-8
    report(
        capsys,
        7,
        "shape-interaction projector reconstructs the data and is idempotent",
        ok,
        f" (reconstruction {recon:.2e}, idempotency {idem:.2e})",
    )


def test_criterion_08_error_metric_matches_brute_force(capsys):
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        predicted = rng.integers(0, int(rng.integers(1, 6)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 6)), size=n)
        if sce(predicted, truth) != brute_force_sce(predicted, truth):
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        8,
        "assignment-based error equals exhaustive matching on 200 label pairs",
        ok,
        f" ({mismatches} mismatches)",
    )


def test_criterion_09_solver_agreement(capsys, clean_sweep):
    gaps = [abs(rec["sce_relaxed"] - rec["sce_exact"]) for rec in clean_sweep[:10]]
    worst = max(gaps)
    ok = worst <= 0.05
    report(
        capsys,
        9,
        "relaxed and exact solvers agree within 0.05 error on every seed",
        ok,
        f" (worst gap {worst:.4f})",
    )


def test_criterion_10_per_iteration_scaling(capsys):
    warm, _ = generate_synthetic(SyntheticSpec(seed=0))
    solve_relaxed(normalize_columns(warm), OSC_PARAMS)

    # Other load on the machine can slow one solve several times over but
    # never speeds it up, so the minimum over repeats is the steady reading.
    def per_iteration_ms(points, repeats=5):
        best = math.inf
        for s in (0, 1):
            x, _ = generate_synthetic(SyntheticSpec(points_per_subspace=points, seed=s))
            xn = normalize_columns(x)
            for _ in range(repeats):
                t0 = time.perf_counter()
                _, diag = solve_relaxed(xn, OSC_PARAMS)
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                best = min(best, elapsed_ms / max(diag.iterations, 1))
        return best

    small = per_iteration_ms(20)
    large = per_iteration_ms(40)
    ratio = large / small
    ok = ratio <= 6.0
    report(
        capsys,
        10,
        "per-iteration cost at N=200 is at most 6x the N=100 cost",
        ok,
        f" (ratio {ratio:.2f})",
    )
