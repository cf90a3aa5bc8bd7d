import pytest

from oscluster.bench import parse_bench_config


def config_with(method):
    return parse_bench_config({"methods": [method]})


def test_method_entry_accepts_every_solver_field():
    cfg = config_with(
        {"name": "osc-relaxed", "mu_schedule": "additive", "monitor_lyapunov": True, "lambda1": 0.2}
    )
    name, config = cfg["methods"][0]
    assert name == "osc-relaxed"
    assert config.mu_schedule == "additive"
    assert config.monitor_lyapunov is True
    assert config.lambda1 == 0.2


def test_method_entry_rejects_unknown_keys():
    with pytest.raises(ValueError, match="lamda1"):
        config_with({"name": "osc-relaxed", "lamda1": 0.2})
