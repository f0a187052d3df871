"""The benchmark's workload configs still load: retiring or renaming a config
key that ``perfbench/workloads.py`` sets fails here, not in a benchmark run."""

import importlib
from pathlib import Path

import pytest

from rlvs import cli, surface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_every_workload_config_loads(workloads, tmp_path):
    named = [*workloads.WORKLOADS.values(), *workloads.SMOKE.values()]
    assert named
    for w in named:
        path = tmp_path / f"{w.name}.ini"
        path.write_text(workloads.config_text(w))
        cfg = cli.load_config(path)
        cli.apply_master_seed(cfg, 1)
        # run_surface passes the section to SurfaceConfig as keyword arguments.
        surface.SurfaceConfig(**cfg["surface"], trading_days=cfg["synth"]["trading_days"])
        assert cfg["surface"]["n_param_draws"] == w.keep
