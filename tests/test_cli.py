import csv
import json

import numpy as np
import pytest

from oscluster import (
    DivergenceError,
    SolverConfig,
    SyntheticSpec,
    load_int_array,
    load_matrix,
    save_matrix,
)
from oscluster.cli import main


@pytest.fixture(scope="module")
def table_dataset(tmp_path_factory):
    """Default 5x20 sequence written once for the cluster subcommand tests."""
    root = tmp_path_factory.mktemp("dataset")
    data = root / "seq.csv"
    code = main(["generate", "--out", str(data), "--seed", "0"])
    assert code == 0
    return data


class TestGenerate:
    def test_writes_matrix_and_labels(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out), "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 100 and report["cols"] == 100
        assert report["seed"] == 3
        assert report["labels_out"] == str(tmp_path / "data.labels.json")
        x = load_matrix(out)
        assert x.shape == (100, 100)
        labels = load_int_array(tmp_path / "data.labels.json")
        assert np.array_equal(labels, np.repeat(np.arange(5), 20))

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--out", str(a), "--seed", "7"])
        main(["generate", "--out", str(b), "--seed", "7"])
        assert a.read_bytes() == b.read_bytes()

    def test_library_based_generation(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        library = np.linalg.qr(rng.standard_normal((321, 25)))[0]
        lib_path = tmp_path / "library.csv"
        save_matrix(lib_path, library)
        out = tmp_path / "semi.csv"
        code = main(
            ["generate", "--out", str(out), "--library", str(lib_path), "--seed", "4"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 321 and report["cols"] == 100
        assert report["library"] == str(lib_path)

    def test_noise_option_echoed(self, tmp_path, capsys):
        out = tmp_path / "noisy.json"
        assert main(["generate", "--out", str(out), "--psnr", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["psnr_db"] == 20.0
        assert load_matrix(out).shape == (100, 100)

    def test_nan_psnr_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["generate", "--out", str(out), "--psnr", "nan"]) == 2
        assert "PSNR" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", "--out", str(out), "--subspaces", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [("--cov-diag", "inf"), ("--cov-offdiag", "nan")])
    def test_non_finite_covariance_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["generate", "--out", str(out), flag, value]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bases_per_subspace_without_library_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["generate", "--out", str(out), "--bases-per-subspace", "3"]) == 2
        assert "needs a library" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_spec_defaults_are_the_spec_defaults(self, tmp_path, monkeypatch):
        seen = {}

        def generate(spec, **kwargs):
            seen["spec"] = spec
            raise ValueError("stop before generating")

        monkeypatch.setattr("oscluster.cli.generate_dataset", generate)
        assert main(["generate", "--out", str(tmp_path / "x.csv")]) == 2
        assert seen["spec"] == SyntheticSpec()

    def test_labels_path_equal_to_out_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"keep me")
        assert main(["generate", "--out", str(out), "--labels-out", str(out)]) == 2
        assert "--labels-out" in capsys.readouterr().err
        assert out.read_bytes() == b"keep me"
        assert not (tmp_path / "x.labels.json").exists()


class TestCluster:
    def test_end_to_end_with_truth(self, table_dataset, capsys):
        truth = table_dataset.parent / "seq.labels.json"
        code = main(
            ["cluster", str(table_dataset), "--k", "5", "--truth", str(truth)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "osc-relaxed"
        assert report["k"] == 5
        assert report["k_was_estimated"] is False
        assert report["converged"] is True
        assert report["final_feasibility"] < 1e-4
        assert report["sce"] == 0.0
        assert report["wall_ms"] > 0
        labels = load_int_array(report["labels_out"])
        assert labels.shape == (100,)
        sidecar = json.loads((table_dataset.parent / "seq.diagnostics.json").read_text())
        assert sidecar == report

    def test_exact_with_more_rows_than_columns(self, tmp_path, capsys):
        data = tmp_path / "tall.csv"
        assert main(["generate", "--out", str(data), "--points", "10"]) == 0
        capsys.readouterr()
        truth = tmp_path / "tall.labels.json"
        code = main(
            ["cluster", str(data), "--method", "osc-exact", "--k", "5", "--truth", str(truth)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["sce"] == 0.0

    def test_exact_on_all_zero_data(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        save_matrix(data, np.zeros((4, 6)))
        code = main(["cluster", str(data), "--method", "osc-exact", "--k", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["iterations"] == 0 and report["objective"] == 0.0
        assert set(load_int_array(report["labels_out"])) <= {0, 1}

    def test_estimated_k(self, table_dataset, capsys):
        code = main(["cluster", str(table_dataset)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 5
        assert report["k_was_estimated"] is True
        assert report["spectrum"] == "subspace"

    def test_solver_defaults_are_the_config_defaults(self, table_dataset, monkeypatch):
        seen = {}

        def solve(x, **kwargs):
            seen.update(kwargs)
            raise ValueError("stop before solving")

        monkeypatch.setattr("oscluster.cli.cluster_sequential", solve)
        assert main(["cluster", str(table_dataset)]) == 2
        assert seen["config"] == SolverConfig()

    @pytest.mark.parametrize(
        "method, solver_keys",
        [
            ("osc-relaxed", {"iterations", "converged", "objective", "final_feasibility"}),
            ("lrr-sim", set()),
        ],
    )
    def test_report_keys(self, table_dataset, capsys, method, solver_keys):
        assert main(["cluster", str(table_dataset), "--method", method, "--k", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        run_keys = {"method", "data", "k", "k_was_estimated", "wall_ms", "spectrum", "labels_out"}
        assert set(report) == run_keys | solver_keys

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_nonfinite_tau_is_usage_error(self, tmp_path, capsys, tau):
        data = tmp_path / "s.csv"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()
        code = main(["cluster", str(data), "--estimate-k", "sv-threshold", "--tau", tau])
        assert code == 2
        assert "tau" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.labels.json"]

    def test_tau_above_every_singular_value_is_usage_error(self, tmp_path, capsys):
        # sv-threshold would estimate k = 0; the estimator refuses, naming
        # itself and tau, and no output is written.
        data = tmp_path / "s.csv"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()
        code = main(["cluster", str(data), "--estimate-k", "sv-threshold", "--tau", "1e6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: sv-threshold estimated k = 0: tau 1e+06" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.labels.json"]

    def test_k_one(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data = tmp_path / "tiny.csv"
        save_matrix(data, rng.standard_normal((6, 8)))
        code = main(["cluster", str(data), "--method", "ssc", "--lambda1", "0.2", "--k", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 1
        assert np.array_equal(load_int_array(report["labels_out"]), np.zeros(8, dtype=int))

    def test_explicit_output_paths(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        data = tmp_path / "tiny.csv"
        save_matrix(data, rng.standard_normal((6, 8)))
        labels_out = tmp_path / "picked.json"
        diag_out = tmp_path / "diag.json"
        code = main(
            [
                "cluster",
                str(data),
                "--method",
                "ssc",
                "--k",
                "2",
                "--labels-out",
                str(labels_out),
                "--diagnostics-out",
                str(diag_out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert labels_out.exists() and diag_out.exists()

    def test_default_labels_path_keeps_truth(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        truth = tmp_path / "s.labels.json"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()
        before = truth.read_bytes()
        reports = []
        for _ in range(2):
            assert main(["cluster", str(data), "--k", "2", "--truth", str(truth)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["labels_out"] == str(tmp_path / "s.predicted.json")
        assert reports[0]["sce"] == reports[1]["sce"]
        assert truth.read_bytes() == before

    @pytest.mark.parametrize("via_subdir", [False, True])
    def test_labels_path_equal_to_truth_refused(self, tmp_path, capsys, monkeypatch, via_subdir):
        data = tmp_path / "s.csv"
        truth = tmp_path / "s.labels.json"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()
        before = truth.read_bytes()
        labels_out = truth
        if via_subdir:
            (tmp_path / "sub").mkdir()
            labels_out = tmp_path / "sub" / ".." / "s.labels.json"

        def solve(*args, **kwargs):
            raise AssertionError("solved despite the clash")

        monkeypatch.setattr("oscluster.cli.cluster_sequential", solve)
        code = main(
            ["cluster", str(data), "--truth", str(truth), "--labels-out", str(labels_out)]
        )
        assert code == 2
        assert "--truth" in capsys.readouterr().err
        assert truth.read_bytes() == before
        assert not (tmp_path / "s.diagnostics.json").exists()

    @pytest.mark.parametrize(
        "clash",
        [
            ("--diagnostics-out", "truth"),
            ("--labels-out", "data"),
            ("--diagnostics-out", "data"),
            ("--labels-out", "diagnostics"),
            ("--truth", "data"),
        ],
        ids=lambda c: f"{c[0]}={c[1]}",
    )
    def test_any_two_paths_equal_refused(self, tmp_path, capsys, monkeypatch, clash):
        data = tmp_path / "s.csv"
        truth = tmp_path / "s.labels.json"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()
        paths = {
            "data": data,
            "truth": truth,
            "diagnostics": tmp_path / "s.report.json",
        }
        before = {role: path.read_bytes() for role, path in paths.items() if path.exists()}

        def solve(*args, **kwargs):
            raise AssertionError("solved despite the clash")

        monkeypatch.setattr("oscluster.cli.cluster_sequential", solve)
        option, target = clash
        argv = ["cluster", str(data), "--diagnostics-out", str(paths["diagnostics"])]
        if option != "--truth":
            argv += ["--truth", str(truth)]
        argv += [option, str(paths[target])]
        assert main(argv) == 2
        assert "same file" in capsys.readouterr().err
        assert {role: path.read_bytes() for role, path in paths.items() if path.exists()} == before
        assert not (tmp_path / "s.predicted.json").exists()

    def test_non_finite_tolerance_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "s.csv"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "10"]) == 0
        capsys.readouterr()

        def solve(*args, **kwargs):
            raise AssertionError("solved with a NaN tolerance")

        monkeypatch.setattr("oscluster.cli.cluster_sequential", solve)
        assert main(["cluster", str(data), "--k", "2", "--eps1", "nan"]) == 2
        assert "eps1" in capsys.readouterr().err
        assert not (tmp_path / "s.predicted.json").exists()
        assert not (tmp_path / "s.diagnostics.json").exists()

    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (True, 5), ("2", "2"), (-1, -5)])
    def test_non_integer_json_shape_is_usage_error(self, tmp_path, capsys, rows, cols):
        data = tmp_path / "s.json"
        data.write_text(json.dumps({"rows": rows, "cols": cols, "data": [1, 2, 3, 4, 5]}))
        assert main(["cluster", str(data), "--k", "2"]) == 2
        assert "must be a non-negative int" in capsys.readouterr().err
        assert not (tmp_path / "s.predicted.json").exists()

    def test_non_numeric_json_data_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "m.json"
        data.write_text('{"rows": 1, "cols": 3, "data": [true, "2.5", false]}')
        assert main(["cluster", str(data)]) == 2
        assert "m.json: data must be a flat list of numbers" in capsys.readouterr().err
        assert not (tmp_path / "m.predicted.json").exists()

    def test_boolean_truth_labels_are_usage_error(self, tmp_path, capsys):
        data = tmp_path / "s.csv"
        assert main(["generate", "--out", str(data), "--subspaces", "2", "--points", "2"]) == 0
        capsys.readouterr()
        truth = tmp_path / "truth.json"
        truth.write_text("[true, false, 1, 0]")
        assert main(["cluster", str(data), "--k", "2", "--truth", str(truth)]) == 2
        assert "expected a JSON array of integers" in capsys.readouterr().err
        assert not (tmp_path / "s.predicted.json").exists()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["cluster", str(tmp_path / "absent.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(tmp_path / "x.csv"), "--method", "agglomerative"])
        assert exc.value.code == 2

    def test_removed_estimator_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(tmp_path / "x.csv"), "--estimate-k", "svd-gap"])
        assert exc.value.code == 2
        assert "invalid choice: 'svd-gap'" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        data = tmp_path / "tiny.csv"
        save_matrix(data, rng.standard_normal((5, 6)))

        def boom(*args, **kwargs):
            raise DivergenceError("solver state became non-finite at iteration 5")

        monkeypatch.setattr("oscluster.cli.cluster_sequential", boom)
        code = main(["cluster", str(data)])
        assert code == 3
        assert "solver failed" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "tiny.diagnostics.json").read_text())
        assert "iteration 5" in sidecar["error"]


TINY_BENCH = {
    "master_seed": 1,
    "repeats": 2,
    "psnr_db": [None, 20],
    "methods": [{"name": "ssc", "lambda1": 0.2}],
    "k": 2,
    "generator": {
        "num_subspaces": 2,
        "points_per_subspace": 5,
        "ambient_dim": 10,
        "subspace_dim": 2,
    },
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestBench:
    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(TINY_BENCH))
        out_dir = tmp_path / "results"
        code = main(["bench", str(cfg), "--out-dir", str(out_dir)])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)

        raw = read_csv(paths["raw"])
        assert raw[0] == [
            "method", "psnr_db", "repeat", "sce", "wall_ms", "iterations", "converged",
            "spectrum", "error",
        ]
        assert len(raw) == 1 + 2 * 2  # one method, two noise levels, two repeats
        assert {row[1] for row in raw[1:]} == {"inf", "20"}
        assert all(row[7] == "subspace" and row[8] == "" for row in raw[1:])

        summary = read_csv(paths["summary"])
        assert summary[0] == [
            "method", "psnr_db", "cells", "sce_min", "sce_max", "sce_median", "sce_mean",
        ]
        assert [row[1] for row in summary[1:]] == ["inf", "20"]
        # The summary must recompute from the raw rows.
        for srow in summary[1:]:
            cells = [
                float(r[3]) for r in raw[1:] if r[1] == srow[1] and r[3] != ""
            ]
            assert int(srow[2]) == len(cells)
            assert float(srow[6]) == pytest.approx(np.mean(cells), abs=1e-6)

    def test_parallel_run_is_identical_except_timing(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(TINY_BENCH))
        main(["bench", str(cfg), "--out-dir", str(tmp_path / "serial")])
        main(["bench", str(cfg), "--out-dir", str(tmp_path / "parallel"), "--workers", "2"])
        capsys.readouterr()
        serial = read_csv(tmp_path / "serial" / "raw.csv")
        parallel = read_csv(tmp_path / "parallel" / "raw.csv")
        # Wall time is machine noise; everything else must match exactly.
        strip = lambda rows: [r[:4] + r[5:] for r in rows]
        assert strip(serial) == strip(parallel)

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": []}))
        assert main(["bench", str(cfg)]) == 2
        assert "bench config" in capsys.readouterr().err

    def test_nan_psnr_token_is_usage_error(self, tmp_path, capsys):
        # json accepts the bare NaN token; a NaN noise level is refused.
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**TINY_BENCH, "psnr_db": [None, float("nan")]}))
        assert "NaN" in cfg.read_text()
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert "psnr must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_is_usage_error(self, tmp_path, capsys, workers):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(TINY_BENCH))
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("k", ["5", 2.5, 2.0, True, 0])
    def test_bad_k_is_usage_error(self, tmp_path, capsys, k):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**TINY_BENCH, "k": k}))
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert "k must be an int in [1, 10]" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"repets": 5}, "unknown keys"),
            ({"timing": {"repeats": 1}}, "unknown keys"),
            ({"methods": [{"name": "kmeans"}]}, "unknown method"),
            ({"k_method": "elbow"}, "unknown k estimator"),
            ({"k_method": "svd-gap"}, "unknown k estimator 'svd-gap'"),
            ({"generator": [2, 5]}, "'generator' must be an object"),
            ({"generator": {"num_subspace": 3}}, "'generator' has unknown keys"),
            ({"master_seed": 1.7}, "master_seed must be an int"),
            ({"repeats": 1.7}, "repeats must be an int"),
            ({"normalize": "false"}, "normalize must be true or false"),
            ({"psnr_db": [True]}, "bad psnr entry True"),
            ({"master_seed": -1}, "master_seed must be >= 0"),
            ({"k": 11}, "k must be an int in [1, 10], got 11"),
            ({"psnr_db": 20}, "psnr_db must be a list, got 20"),
            ({"methods": 5}, "nonempty 'methods' list"),
            ({"psnr_db": []}, "psnr_db must name at least one noise level"),
            # The solvers work out their own step; the monitor and its
            # additive schedule are relaxed.solve_monitored.
            ({"methods": [{"name": "osc-relaxed", "eta_z": 5.0}]}, "unknown keys ['eta_z']"),
            (
                {"methods": [{"name": "osc-relaxed", "monitor_lyapunov": True}]},
                "unknown keys ['monitor_lyapunov']",
            ),
            (
                {"methods": [{"name": "osc-relaxed", "mu_schedule": "additive"}]},
                "unknown keys ['mu_schedule']",
            ),
            ({"psnr_db": [[20]]}, "bad psnr entry [20]"),
        ],
        ids=[
            "unknown-key", "timing", "method", "k-method", "k-method-svd-gap", "generator-list",
            "generator-key",
            "seed-float", "repeats-float", "normalize-str", "psnr-bool", "seed-negative",
            "k-above-n", "psnr-not-list", "methods-not-list", "psnr-empty", "eta-z",
            "monitor-lyapunov", "mu-schedule", "psnr-list",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, change, message):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**TINY_BENCH, **change}))
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_or_narrow_library_is_usage_error(self, tmp_path, capsys):
        # TINY_BENCH's generator draws 2 subspaces x 5 columns from the library.
        save_matrix(tmp_path / "narrow.csv", np.ones((10, 9)))
        for library, message in (("missing.csv", "not found"), ("narrow.csv", "needs at least 10")):
            cfg = tmp_path / "bench.json"
            cfg.write_text(json.dumps({**TINY_BENCH, "library": str(tmp_path / library)}))
            out_dir = tmp_path / "results"
            assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "entry",
        [{"name": "ssc", "lambda1": "0.2"}, {"name": "osc-relaxed", "diag_zero": "false"}],
        ids=["lambda1-str", "diag-zero-str"],
    )
    def test_method_field_of_the_wrong_type_is_usage_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({**TINY_BENCH, "methods": [entry]}))
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "bad bench config" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text("{not json")
        assert main(["bench", str(cfg)]) == 2
        capsys.readouterr()
