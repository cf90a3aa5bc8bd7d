import csv
import json

import numpy as np
import pytest

from oscluster import DivergenceError, load_int_array, load_matrix, save_matrix
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

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["generate", "--out", str(out), "--subspaces", "0"]) == 2

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

    def test_estimated_k(self, table_dataset, capsys):
        code = main(["cluster", str(table_dataset)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 5
        assert report["k_was_estimated"] is True

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

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["cluster", str(tmp_path / "absent.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(tmp_path / "x.csv"), "--method", "agglomerative"])
        assert exc.value.code == 2

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
    "timing": {"points_per_subspace": [4, 6], "repeats": 1, "method": "ssc", "lambda1": 0.2},
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
            "method", "psnr_db", "repeat", "sce", "wall_ms", "iterations", "converged", "error",
        ]
        assert len(raw) == 1 + 2 * 2  # one method, two noise levels, two repeats
        assert {row[1] for row in raw[1:]} == {"inf", "20"}
        assert all(row[7] == "" for row in raw[1:])

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

        timing = read_csv(paths["timing"])
        assert timing[0] == [
            "method", "n_samples", "repeats", "mean_wall_ms", "mean_iterations", "ms_per_iteration",
        ]
        assert [row[1] for row in timing[1:]] == ["8", "12"]

    def test_parallel_run_is_identical_except_timing(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        spec = dict(TINY_BENCH)
        spec.pop("timing")
        cfg.write_text(json.dumps(spec))
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

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_is_usage_error(self, tmp_path, capsys, workers):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(TINY_BENCH))
        out_dir = tmp_path / "results"
        assert main(["bench", str(cfg), "--out-dir", str(out_dir), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text("{not json")
        assert main(["bench", str(cfg)]) == 2
        capsys.readouterr()
