"""Every name the package exports, and every public function and class of
its modules, is used by the pipeline, the benchmark or the acceptance
criteria; a name only other tests use belongs in the tests. Every config key
is read by the pipeline, and changing it changes an output or is refused by
name. Every file the package reads is opened by one opener."""

import ast
import copy
import inspect
import json
from pathlib import Path

import rlvs
from rlvs import cli, ingest, sampler, surface

SRC = Path(rlvs.__file__).resolve().parent
ROOT = SRC.parents[1]


def _exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _public_definitions():
    """The public top-level functions and classes of the package's modules."""
    return [node.name for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _reads(tree):
    """The names and attribute names that the code under ``tree`` reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller_outside_the_tests():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            reads = _reads(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads.discard(node.name)  # a definition does not call itself into use
            used |= reads
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        used |= _reads(ast.parse(path.read_text()))
    exports = _exports()
    assert exports
    assert [name for name in exports + _public_definitions() if name not in used] == []


def _mode(call):
    """The mode an ``open`` call passes, "r" when it passes none."""
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"


def test_every_file_is_read_through_one_opener():
    # ingest._open_text decodes UTF-8 and skips a byte-order mark for every reader.
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        opener = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_open_text"
                  for node in ast.walk(f)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open" and id(node) not in opener
                    and not set(_mode(node)) & set("wax")]
    assert readers == []


# The callees that receive a whole config section as keyword arguments.
SECTION_CALLEES = {"synth": ingest.synth_gbm_ticks, "hmc": sampler.HmcConfig,
                   "surface": surface.SurfaceConfig}


def _unread_keys(defaults):
    """The (section, key) pairs of ``defaults`` that cli.py never subscripts
    by name, outside ``DEFAULTS``, and that the section's callee does not take."""
    subscripted = set()
    for node in ast.parse((SRC / "cli.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["DEFAULTS"]:
            continue
        subscripted |= {sub.slice.value for sub in ast.walk(node)
                        if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)}
    return [(section, key) for section, keys in defaults.items() for key in keys
            if key not in subscripted and not (
                section in SECTION_CALLEES
                and key in inspect.signature(SECTION_CALLEES[section]).parameters)]


def test_every_config_key_has_a_reader():
    assert _unread_keys({"model": {"unread": 1.0}}) == [("model", "unread")]
    assert _unread_keys(cli.DEFAULTS) == []


# A protocol far smaller than any real fit, so each key's run is cheap: 201
# ticks at tick level on a 2 x 2 grid, K = 2, 10 iterations of 3 steps.
KNOB_BASE = {
    "synth": {"s0": 1.0, "n_ticks": 201},
    "grid": {"n_time": 2, "n_price": 2, "resample_interval": 0.0},
    "model": {"n_components": 2},
    "hmc": {"n_leapfrog": 3, "n_burn": 5, "n_draws": 5, "step_size": 0.05, "keep_last": 3},
    "surface": {"n_param_draws": 3},
}
# For every key, a value other than the protocol's.
KNOB_VALUES = {
    "synth": {"s0": 2.0, "mu": 0.5, "sigma": 0.3, "n_ticks": 150, "session_length": 600.0,
              "trading_days": 250, "seed": 9},
    "grid": {"n_time": 3, "n_price": 3, "price_min": 0.5, "price_max": 2.0,
             "resample_interval": 600.0, "standardize": False},
    "model": {"n_components": 3},
    "hmc": {"step_size": 0.02, "n_leapfrog": 4, "n_burn": 6, "n_draws": 6,
            "adapt_step_size": False, "target_accept": 0.9, "keep_last": 4, "seed": 9},
    "surface": {"n_param_draws": 2, "ci_level": 0.5},
}
# Keys that read nothing today, each with why it stays.
KNOB_EXEMPT = {
    ("surface", "n_returns_per_draw"): "the benchmark's workload configs set it",
    ("surface", "seed"): "acceptance criterion 10's config sets it",
}


def _knob_outputs(cfg, d: Path):
    """The synth -> fit -> surface files of ``cfg`` in ``d``, the checkpoint
    without the config it echoes, which holds every key."""
    ticks, ckpt, surf = d / "ticks.csv", d / "ckpt.json", d / "surface.csv"
    cli.run_synth(copy.deepcopy(cfg), ticks)
    checkpoint = cli.run_fit(copy.deepcopy(cfg), ticks, ckpt)
    cli.run_surface(copy.deepcopy(cfg), ckpt, surf, "csv")
    del checkpoint["config"]
    return ticks.read_bytes(), json.dumps(checkpoint), surf.read_bytes()


def test_every_config_key_changes_an_output_or_is_refused_by_name(tmp_path, capsys):
    base = cli.default_config()
    for section, values in KNOB_BASE.items():
        base[section].update(values)
    (tmp_path / "base").mkdir()
    expected = _knob_outputs(base, tmp_path / "base")
    inert = []
    for section, keys in cli.DEFAULTS.items():
        for key in keys:
            if (section, key) in KNOB_EXEMPT:
                continue
            cfg = copy.deepcopy(base)
            cfg[section][key] = KNOB_VALUES[section][key]  # a new key needs a value here
            d = tmp_path / f"{section}.{key}"
            d.mkdir()
            try:
                outputs = _knob_outputs(cfg, d)
            except ValueError as exc:
                assert f"[{section}] {key}" in str(exc), (section, key, exc)
                continue
            if outputs == expected:
                inert.append((section, key))
    capsys.readouterr()
    assert inert == []
    # An exemption outlives its key only by mistake.
    assert all(key in cli.DEFAULTS[section] for section, key in KNOB_EXEMPT)
