"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import run  # noqa: I001 - puts the library on the import path first
import oscluster
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

TINY = workloads.Workload(
    name="tiny",
    why="two small clean subspaces",
    spec=oscluster.SyntheticSpec(num_subspaces=2, points_per_subspace=10, ambient_dim=20),
    psnr_db=None,
    calls=(workloads.Call("osc-relaxed", oscluster.SolverConfig(), True, 0.02),),
    pool=2,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    return TINY


def result_of(capsys, *argv):
    run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.2", *argv])
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_and_units_follow_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for table in (run.END_TO_END_UNITS, run.PER_LAYER_UNITS):
        for metric, metric_unit in table.items():
            assert name.fullmatch(metric), metric
            assert unit.fullmatch(metric_unit), metric_unit
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)])
def test_result_line_has_exactly_the_declared_metrics(tiny, capsys, trace, units):
    result = result_of(capsys, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_wrong_labelling_counts_as_failed_not_as_a_crash(tiny, capsys, monkeypatch):
    solve = oscluster.cluster_sequential

    def mislabel(*args, **kwargs):
        result = solve(*args, **kwargs)
        return replace(result, labels=result.labels.argsort() % result.k)

    monkeypatch.setattr(oscluster, "cluster_sequential", mislabel)
    result = result_of(capsys, "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_raising_call_counts_as_failed(tiny):
    broken = replace(TINY.calls[0], method="no-such-method")
    records = workloads.run_segmentation(replace(TINY, calls=(broken,)), *workloads.make_inputs(TINY, 0)[0][0])
    assert records[0].failure.startswith("raised ValueError")


def test_traced_run_restores_every_wrapped_attribute(tiny):
    originals = {}
    for module_name, attr, _ in tracing.TARGETS:
        module = getattr(oscluster, module_name)
        originals[(module_name, attr)] = getattr(module, attr)
    inputs, _ = workloads.make_inputs(TINY, 0)
    with tracing.Tracer() as tracer:
        workloads.run_segmentation(TINY, *inputs[0])
        assert oscluster.pipeline.solve_relaxed is not originals[("pipeline", "solve_relaxed")]
    assert tracer.missing == []
    for (module_name, attr), original in originals.items():
        assert getattr(getattr(oscluster, module_name), attr) is original, (module_name, attr)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["relaxed.sweeps"] > 0
    assert metrics["exact.sweeps"] == 0


def test_self_time_excludes_wrapped_children():
    x, _ = oscluster.generate_synthetic(TINY.spec)
    state = oscluster.initial_relaxed_state(x.shape[0], x.shape[1], 1.0)
    with tracing.Tracer() as tracer:
        oscluster.relaxed.relaxed_iteration(x, state, 0.1, 1.0, 10.0, 5.0, 1.02, False)
    total = tracer.total("relaxed.iteration", tracing.TOTAL)
    own = tracer.total("relaxed.iteration", tracing.SELF)
    children = sum(
        tracer.total(span, tracing.TOTAL)
        for span in ("types.column_differences", "types.apply_difference_adjoint",
                     "prox.soft_threshold", "prox.group_shrink_columns")
    )
    assert children > 0
    assert own == pytest.approx(total - children, abs=1e-4)

