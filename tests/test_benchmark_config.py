"""The benchmark's workload configs still load, the functions its traced
spans name still exist, and the surface stage still enters each span the
metrics read of it: retiring or renaming a config key that
``perfbench/workloads.py`` sets, or a function it reads a span of, fails here,
not in a benchmark run. Nothing here edits ``perfbench/``."""

import ast
import importlib
import inspect
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


def _span_names(workloads_path):
    """The span names the per-layer metrics read: the string passed to
    ``calls``, ``total`` or ``own``, or used as a key of ``tracer.kept``."""
    names = set()
    for node in ast.walk(ast.parse(workloads_path.read_text())):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("calls", "total", "own")) or (
                    isinstance(func, ast.Attribute) and func.attr == "get"
                    and ast.unparse(func.value) == "tracer.kept"):
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "tracer.kept":
            key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            names.add(key.value)
    return names


def test_benchmark_span_names_resolve(workloads):
    # The tracer wraps each public function defined in a module of MODULES,
    # and the methods in METHODS; a span the metrics read under a name that no
    # longer resolves would read zero.
    tracer = importlib.import_module("tracer")
    names = _span_names(PERFBENCH / "workloads.py") | set(tracer.KEEP)
    traced = {name for name in names if name.split(".")[0] in workloads.MODULES}
    assert {"grid.GridData.from_dict", "model.Posterior.grad", "sampler.run_chain",
            "cli.load_checkpoint", "voltools.implied_vol"} <= traced
    methods = {(layer, *pair) for layer, pairs in tracer.METHODS.items() for pair in pairs}
    for layer, cls_name, attr in methods:
        raw = vars(getattr(importlib.import_module(f"rlvs.{layer}"), cls_name)).get(attr)
        assert inspect.isfunction(getattr(raw, "__func__", raw)), (layer, cls_name, attr)
    for name in traced:
        layer, *path = name.split(".")
        mod = importlib.import_module(f"rlvs.{layer}")
        if len(path) == 2:
            assert (layer, *path) in methods, name
            continue
        fn = getattr(mod, path[0], None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
        assert not path[0].startswith("_"), name


TOY_CONFIG = """
[synth]
n_ticks = 401
seed = 5

[grid]
n_time = 3
n_price = 3
resample_interval = 0

[model]
n_components = 2

[hmc]
n_burn = 5
n_draws = 5
keep_last = 3

[surface]
n_param_draws = 3
"""


def test_surface_path_spans_are_entered(workloads, tmp_path):
    # The metrics read these spans of the surface stage; one that
    # run_surface no longer enters would read 0 rather than fail. The
    # surface stage is traced on a toy fit's checkpoint, as perfbench traces it.
    tracer_mod = importlib.import_module("tracer")
    names = _span_names(PERFBENCH / "workloads.py") | set(tracer_mod.KEEP)
    stage = {"cli.run_surface", "cli.load_checkpoint", "grid.GridData.from_dict",
             *(name for name in names if name.startswith("surface."))}
    assert {"surface.build_surface", "surface.export_surface"} <= stage <= names
    (tmp_path / "toy.ini").write_text(TOY_CONFIG)
    cfg = cli.load_config(tmp_path / "toy.ini")
    cli.run_synth(cfg, tmp_path / "ticks.csv")
    cli.run_fit(cfg, tmp_path / "ticks.csv", tmp_path / "ckpt.json")
    tracer = tracer_mod.Tracer()
    tracer.install({m: importlib.import_module(f"rlvs.{m}") for m in workloads.MODULES})
    try:
        cli.run_surface(cfg, tmp_path / "ckpt.json", tmp_path / "surface.csv", "csv")
    finally:
        tracer.uninstall()
    entered, _ = tracer.summary()
    assert sorted(stage - set(entered)) == []
    assert "grid.GridData.from_dict" in tracer.kept
