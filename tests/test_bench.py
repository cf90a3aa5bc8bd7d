import numpy as np
import pytest

from oscluster import save_matrix
from oscluster.bench import parse_bench_config, run_bench


def config_with(method):
    return parse_bench_config({"methods": [method]})


def test_method_entry_accepts_every_solver_field():
    cfg = config_with({"name": "osc-relaxed", "diag_zero": True, "lambda1": 0.2})
    name, config = cfg["methods"][0]
    assert name == "osc-relaxed"
    assert config.diag_zero is True
    assert config.lambda1 == 0.2


@pytest.mark.parametrize("entry", ["ssc", {"lambda1": 0.2}, None])
def test_method_entry_without_a_name_rejected(entry):
    with pytest.raises(ValueError, match="'name'"):
        config_with(entry)


def test_method_entry_rejects_unknown_keys():
    with pytest.raises(ValueError, match="lamda1"):
        config_with({"name": "osc-relaxed", "lamda1": 0.2})


def test_method_entry_rejects_eta_j():
    # The J step's weight is a constant of the solvers, not a setting.
    with pytest.raises(ValueError, match="unknown keys.*eta_j"):
        config_with({"name": "osc-relaxed", "eta_j": 1.02})


def test_method_entry_rejects_mu_schedule():
    # The additive schedule is the descent monitor's own solve, not a setting.
    with pytest.raises(ValueError, match="unknown keys.*mu_schedule"):
        config_with({"name": "osc-relaxed", "mu_schedule": "additive"})


@pytest.mark.parametrize("key, value", [("gamma0", 1.5), ("mu_max", 1e9), ("eps1", 1e-6)])
def test_method_entry_rejects_removed_schedule_and_stop_keys(key, value):
    # The penalty schedule is fixed, and one eps stops every solve.
    with pytest.raises(ValueError, match=f"unknown keys.*{key}"):
        config_with({"name": "osc-relaxed", key: value})


@pytest.mark.parametrize("k", [None, 1, 5])
def test_k_accepts_null_or_positive_int(k):
    assert parse_bench_config({"methods": [{"name": "ssc"}], "k": k})["k"] == k


@pytest.mark.parametrize("k", ["5", 2.5, 5.0, True, 0, -3, [5]])
def test_k_rejects_anything_else(tmp_path, k):
    with pytest.raises(ValueError, match=r"k must be an int in \[1, 100\]"):
        parse_bench_config({"methods": [{"name": "ssc"}], "k": k})
    out_dir = tmp_path / "results"
    with pytest.raises(ValueError, match="k must be"):
        run_bench({"methods": [{"name": "ssc"}], "k": k}, out_dir)
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", [0, -1, 2.5, "2", True])
def test_run_bench_rejects_fewer_than_one_worker(tmp_path, workers):
    out_dir = tmp_path / "results"
    with pytest.raises(ValueError, match="workers"):
        run_bench({"methods": ["ssc"]}, out_dir, workers=workers)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"repets": 5}, "unknown keys"),
        ({"timing": {"repeats": 1}}, "unknown keys"),
        ({"methods": [{"name": "kmeans"}]}, "unknown method"),
        ({"k_method": "elbow"}, "unknown k estimator"),
        ({"k_method": "svd-gap"}, "unknown k estimator 'svd-gap'"),
        ({"generator": "synthetic"}, "'generator' must be an object"),
        ({"generator": {"num_subspace": 3}}, "'generator' has unknown keys"),
        ({"master_seed": 1.7}, "master_seed must be an int"),
        ({"master_seed": "1"}, "master_seed must be an int"),
        ({"master_seed": -1}, "master_seed must be >= 0"),
        ({"repeats": 1.7}, "repeats must be an int"),
        ({"repeats": True}, "repeats must be an int"),
        ({"normalize": "false"}, "normalize must be true or false"),
        ({"psnr_db": [None, True]}, "bad psnr entry True"),
        ({"psnr_db": [None, float("nan")]}, "psnr must be positive, got nan"),
        ({"psnr_db": [[20]]}, r"bad psnr entry \[20\]"),
        ({"psnr_db": [{"db": 20}]}, "bad psnr entry {'db': 20}"),
        ({"k_method": "sv-threshold"}, "tau"),
        ({"k_method": "sv-threshold", "sv_tau": -0.5}, "tau"),
        ({"k_method": "sv-threshold", "sv_tau": "0.5"}, "tau"),
        ({"k_method": "sv-threshold", "sv_tau": True}, "tau"),
        ({"k": 101}, r"k must be an int in \[1, 100\], got 101"),
        (
            {"k": 11, "generator": {"num_subspaces": 2, "points_per_subspace": 5}},
            r"k must be an int in \[1, 10\], got 11",
        ),
        ({"psnr_db": 20}, "psnr_db must be a list, got 20"),
        ({"methods": 5}, "nonempty 'methods' list"),
        ({"psnr_db": []}, "psnr_db must name at least one noise level"),
    ],
    ids=[
        "unknown-key", "timing", "method", "k-method", "k-method-svd-gap", "generator-str",
        "generator-key",
        "seed-float", "seed-str", "seed-negative", "repeats-float", "repeats-bool",
        "normalize-str", "psnr-bool", "psnr-nan", "psnr-list", "psnr-object",
        "tau-missing", "tau-negative", "tau-str", "tau-bool", "k-above-n", "k-above-small-n",
        "psnr-not-list", "methods-int", "psnr-empty",
    ],
)
def test_malformed_config_rejected_before_the_run(tmp_path, change, message):
    raw = {"methods": [{"name": "ssc"}], **change}
    with pytest.raises(ValueError, match=message):
        parse_bench_config(raw)
    out_dir = tmp_path / "results"
    with pytest.raises(ValueError, match=message):
        run_bench(raw, out_dir)
    assert not out_dir.exists()


def test_library_refused_before_the_run(tmp_path):
    out_dir = tmp_path / "results"
    with pytest.raises(FileNotFoundError):
        run_bench({"methods": [{"name": "ssc"}], "library": str(tmp_path / "missing.csv")}, out_dir)
    assert not out_dir.exists()
    # The default generator draws 5 subspaces x 5 columns from the library.
    library = tmp_path / "narrow.csv"
    save_matrix(library, np.random.default_rng(0).standard_normal((30, 10)))
    with pytest.raises(ValueError, match="library has 10 columns, needs at least 25"):
        run_bench({"methods": [{"name": "ssc"}], "library": str(library)}, out_dir)
    assert not out_dir.exists()


def test_every_known_key_accepted():
    cfg = parse_bench_config(
        {
            "master_seed": 3, "repeats": 2, "psnr_db": [None], "methods": [{"name": "lrr-sim"}],
            "generator": {"num_subspaces": 2, "seed": 9}, "library": None, "k": 2,
            "k_method": "sv-threshold", "sv_tau": 0.1, "normalize": False,
        }
    )
    assert (cfg["master_seed"], cfg["repeats"], cfg["k_method"]) == (3, 2, "sv-threshold")
    assert cfg["generator"].num_subspaces == 2
