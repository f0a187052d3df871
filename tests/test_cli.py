import base64
import codecs
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import rlvs
from rlvs import cli, grid as grid_mod, model
from rlvs.cli import apply_master_seed, load_checkpoint, load_config, main
from rlvs.grid import GridData
from rlvs.ingest import TickSeries, save_ticks, synth_gbm_ticks
from rlvs.model import ModelDims, Posterior
from rlvs.surface import SurfaceConfig, build_surface, export_surface, load_surface
from rlvs.voltools import bs_price


TOY_CONFIG = """
[synth]
s0 = 1.0
sigma = 0.5
n_ticks = 2001
seed = 5

[grid]
n_time = 3
n_price = 3
resample_interval = 0

[model]
n_components = 2

[hmc]
n_burn = 50
n_draws = 60
step_size = 0.05
adapt_step_size = true
keep_last = 20
seed = 6

[surface]
n_param_draws = 10
seed = 7
"""


WHOLE_DRAWS = ("not whole draws of {n} float64 values, the number of coordinates a checkpoint "
               "stores for the dims and the grid's mask")
NOT_BASE64 = "draws is not strict base64 (RFC 4648, padded, with no line breaks)"
RETURN_COUNTS = ("grid returns counts must hold one integer >= 1 for each of the {visited} "
                 "cells the grid's mask visits")


@pytest.fixture
def toy_cfg(tmp_path):
    p = tmp_path / "toy.ini"
    p.write_text(TOY_CONFIG)
    return p


def run(argv):
    return main(argv)


# Floats whose bits a decimal or narrower round trip could lose: signed
# zeros, subnormals and the edges of the float range.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308,
                     np.finfo(float).max, -np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False))


def packed_values(ckpt: dict) -> np.ndarray:
    """``ckpt``'s packed ``draws`` as a writable (draws, stored coordinates)
    array, decoded without ``cli``."""
    n = ModelDims(**ckpt["dims"]).n_stored(ckpt["grid"]["mask"])
    return np.frombuffer(base64.b64decode(ckpt["draws"]), "<f8").reshape(-1, n).copy()


def pack_values(ckpt: dict, values: np.ndarray) -> None:
    """Set ``ckpt``'s packed ``draws`` to the (draws, coordinates) array ``values``."""
    ckpt["draws"] = base64.b64encode(values.astype("<f8").tobytes()).decode()


def list_returns(ckpt: dict) -> dict:
    """``ckpt`` with its packed grid ``returns`` rewritten in place as nested
    per-cell lists, the form fits wrote before the packing; returns ``ckpt``."""
    grid = ckpt["grid"]
    values = np.frombuffer(base64.b64decode(grid["returns"]["values"]), "<f8").tolist()
    ends = np.cumsum(grid["returns"]["counts"]).tolist()
    runs = iter([values[a:b] for a, b in zip([0] + ends[:-1], ends)])
    grid["returns"] = [[next(runs) if m else [] for m in row] for row in grid["mask"]]
    return ckpt


def set_packed_return(ckpt: dict, value: float) -> None:
    """Set the first return in ``ckpt``'s packed grid ``returns``."""
    packed = ckpt["grid"]["returns"]
    values = np.frombuffer(base64.b64decode(packed["values"]), "<f8").copy()
    values[0] = value
    packed["values"] = base64.b64encode(values.astype("<f8").tobytes()).decode()


def set_packed_value(ckpt: dict, value: float) -> None:
    """Set the first value of the third draw in ``ckpt``'s packed ``draws``."""
    values = packed_values(ckpt)
    values[2, 0] = value
    pack_values(ckpt, values)


def toy_checkpoint(d, config=TOY_CONFIG):
    """Synth and fit the toy config in directory d; returns the checkpoint path."""
    cfg = d / "toy.ini"
    cfg.write_text(config)
    ticks = d / "ticks.csv"
    ckpt = d / "ckpt.json"
    run(["synth", "--config", str(cfg), "--out", str(ticks)])
    run(["fit", "--config", str(cfg), "--ticks", str(ticks), "--out", str(ckpt)])
    return ckpt


class TestSynth:
    def test_default_tick_count(self, tmp_path, capsys):
        out = tmp_path / "ticks.csv"
        assert run(["synth", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 23_401 + 1
        assert "seed" in capsys.readouterr().out

    def test_sigma_zero_constant_drift(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["synth", "--sigma", "0", "--mu", "0",
                    "--n-ticks", "100", "--out", str(out)]) == 0
        prices = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert max(prices) == min(prices) == 100.0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--seed", "11", "--n-ticks", "500", "--out", str(a)])
        run(["synth", "--seed", "11", "--n-ticks", "500", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_echoes_resolved_config(self, tmp_path, capsys):
        run(["synth", "--n-ticks", "50", "--out", str(tmp_path / "t.csv")])
        out = capsys.readouterr().out
        assert "[synth]" in out and "[hmc]" in out
        assert "n_ticks = 50" in out


class TestFit:
    def test_toy_smoke_and_checkpoint_loads(self, tmp_path, toy_cfg, capsys):
        ticks = tmp_path / "ticks.csv"
        ckpt = tmp_path / "ckpt.json"
        assert run(["synth", "--config", str(toy_cfg), "--out", str(ticks)]) == 0
        assert run(["fit", "--config", str(toy_cfg), "--ticks", str(ticks),
                    "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        # One summary line holds the acceptance: no line repeats it.
        summary = [l for l in out.splitlines() if "acceptance" in l]
        assert len(summary) == 1, summary
        assert re.match(r"acceptance \d\.\d{4} \(post-burn \d\.\d{4}\), ", summary[0])
        loaded = load_checkpoint(ckpt)
        assert len(packed_values(loaded)) == 20
        assert loaded["dims"] == {"n_time": 3, "n_price": 3, "n_components": 2}
        # The config block and the draws hold these; the checkpoint holds each value once.
        assert not {"component_scale", "seed", "n_kept"} & set(loaded)

    def test_checkpoint_file_is_json_dumps_of_the_returned_dict(self, tmp_path, toy_cfg):
        cfg = load_config(toy_cfg)
        ticks, ckpt = tmp_path / "ticks.csv", tmp_path / "ckpt.json"
        cli.run_synth(cfg, ticks)
        returned = cli.run_fit(cfg, ticks, ckpt)
        assert ckpt.read_text() == json.dumps(returned)

    @pytest.mark.parametrize("n_draws", [0, 20])
    def test_fully_divergent_checkpoint_is_strict_json(self, tmp_path, toy_cfg, capsys,
                                                       n_draws):
        # At step 50 every trajectory passes the energy-error threshold, so
        # mean |dH| has no finite term; with no draws the post-burn rate is
        # undefined too. Both are written as null, not as NaN or Infinity.
        cfg = load_config(toy_cfg)
        cfg["hmc"].update(step_size=50.0, adapt_step_size=False, n_burn=5, n_draws=n_draws)
        ticks, ckpt = tmp_path / "ticks.csv", tmp_path / "ckpt.json"
        cli.run_synth(cfg, ticks)
        cli.run_fit(cfg, ticks, ckpt)

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        acc = json.loads(ckpt.read_text(), parse_constant=refuse)["acceptance"]
        assert acc["n_divergent"] == 5 + n_draws
        # The summary line splits the count at burn-in; the checkpoint holds the total.
        assert f", divergences {5 + n_draws} ({n_draws} after burn-in), " in (
            capsys.readouterr().out)
        assert acc["rate"] == 0.0 and acc["mean_abs_delta_h"] is None
        assert acc["post_burn_rate"] == (None if n_draws == 0 else 0.0)

    @pytest.mark.parametrize("keep", [0, -5])
    def test_keep_last_below_one_refused_before_fitting(self, tmp_path, capsys, keep):
        # draws[-0:] would write every draw, and draws[5:] drop the first five.
        cfg = tmp_path / "toy.ini"
        cfg.write_text(TOY_CONFIG.replace("keep_last = 20", f"keep_last = {keep}"))
        ticks, ckpt = tmp_path / "ticks.csv", tmp_path / "ckpt.json"
        assert run(["synth", "--config", str(cfg), "--out", str(ticks)]) == 0
        capsys.readouterr()
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks),
                    "--out", str(ckpt)]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: [hmc] keep_last must be >= 1, got {keep}\n"
        assert "acceptance" not in out
        assert not ckpt.exists()

    def test_missing_input_nonzero_exit_names_path(self, tmp_path, capsys):
        rc = run(["fit", "--ticks", str(tmp_path / "nope.csv")])
        assert rc != 0
        assert "nope.csv" in capsys.readouterr().err

    def test_constant_price_clear_error(self, tmp_path, toy_cfg, capsys):
        ticks = tmp_path / "flat.csv"
        run(["synth", "--config", str(toy_cfg), "--sigma", "0", "--mu", "0",
             "--out", str(ticks)])
        rc = run(["fit", "--config", str(toy_cfg), "--ticks", str(ticks)])
        assert rc != 0
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, band", [
        ("price_min", 200.0, "[200.0, 101.0]"),
        ("price_max", 50.0, "[99.0, 50.0]"),
    ])
    def test_half_set_price_band_outside_the_prices_refused_by_name(self, tmp_path, capsys,
                                                                    key, value, band):
        # The other end is the session's price range's.
        cfg, ticks, ckpt = tmp_path / "band.ini", tmp_path / "t.csv", tmp_path / "ckpt.json"
        cfg.write_text(f"[grid]\nresample_interval = 0\n{key} = {value}\n")
        ticks.write_text("time_s,price\n0,100\n300,101\n600,99\n900,100.5\n")
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks), "--burn", "1",
                    "--draws", "2", "--out", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ticks}: the price band {band} of [grid] price_min and price_max is "
            "empty; the session's prices span [99.0, 101.0]\n")
        assert not ckpt.exists()

    def test_summary_reports_coordinates_and_gradient_evaluations(self, tmp_path, capsys):
        ckpt_path = toy_checkpoint(tmp_path)
        out = capsys.readouterr().out
        ckpt = load_checkpoint(ckpt_path)
        n_visited = int(np.sum(ckpt["grid"]["mask"]))
        n_active = (3 + 3 + 1) * 2 + n_visited * 3
        assert f"coordinates sampled {n_active} of 41" in out
        n_grad = int(re.search(r"gradient evaluations ([\d,]+)", out)[1].replace(",", ""))
        full = 1 + 20 * (50 + 60)  # the start point, then n_leapfrog per iteration
        assert n_grad == full if ckpt["acceptance"]["n_divergent"] == 0 else n_grad < full

    def test_summary_reports_step_size_and_timing_outside_the_checkpoint(self, tmp_path,
                                                                          capsys):
        ckpt_path = toy_checkpoint(tmp_path)
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "coordinates sampled" in l)
        found = re.search(r", step size (\S+), chain (\d+\.\d{3}) s, (\d+\.\d) us per gradient "
                          r"evaluation$", line)
        assert found, line
        ckpt = load_checkpoint(ckpt_path)
        assert found[1] == f"{ckpt['step_size_used']:.4g}"
        n_grad = int(re.search(r"gradient evaluations ([\d,]+)", line)[1].replace(",", ""))
        chain_s, us = float(found[2]), float(found[3])
        assert us == pytest.approx(chain_s / n_grad * 1e6, abs=0.05 + 5e-4 / n_grad * 1e6)
        assert set(ckpt) == {"kind", "format", "dims", "standardize_scale", "bins_per_day",
                             "step_size_used", "acceptance", "draws", "grid", "config"}

    def test_checkpoint_line_reports_size_and_write_time(self, tmp_path, capsys):
        ckpt_path = toy_checkpoint(tmp_path)
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("wrote checkpoint"))
        found = re.fullmatch(r"wrote checkpoint \(20 retained draws, ([\d,]+) bytes in "
                             r"(\d+\.\d{3}) s\) to (.+)", line)
        assert found, line
        assert int(found[1].replace(",", "")) == ckpt_path.stat().st_size
        assert found[3] == str(ckpt_path)

    def test_checkpoint_packs_each_return_once(self, tmp_path):
        # The toy fit is tick level: 2,000 returns of 2,001 ticks, in one
        # string of 4 base64 characters for each 3 bytes, and nowhere else.
        ckpt = json.loads(toy_checkpoint(tmp_path).read_text())
        returns = ckpt["grid"]["returns"]
        assert set(returns) == {"counts", "values"}
        assert sum(returns["counts"]) == 2000
        assert len(returns["values"]) == 4 * math.ceil(8 * 2000 / 3)
        assert len(json.dumps(ckpt["grid"])) < len(returns["values"]) + 1000

    def test_tick_fit_and_surface_build_no_lists_of_returns(self, tmp_path, monkeypatch):
        # fit -> checkpoint -> surface reads the grid's flat record only: with
        # the nested lists' builder and flattener refusing, the files are the same.
        def outputs(d):
            d.mkdir()
            ckpt, surf = toy_checkpoint(d), d / "surf.csv"
            assert run(["surface", "--config", str(d / "toy.ini"), "--checkpoint", str(ckpt),
                        "--out", str(surf)]) == 0
            return ckpt.read_bytes(), surf.read_bytes()

        def refuse(*args):
            raise AssertionError("the grid built or flattened lists of returns")

        expected = outputs(tmp_path / "lists")
        monkeypatch.setattr(grid_mod, "_nest", refuse)
        monkeypatch.setattr(grid_mod, "_flatten", refuse)
        assert outputs(tmp_path / "flat") == expected

    @pytest.mark.parametrize("edit", [
        {},
        {"n_components = 2": "n_components = 1"},
        {"n_price = 3": "n_price = 1"},
        # One time bin, and every price (near s0 = 1) clamped into the lowest price bin.
        {"n_time = 3": "n_time = 1\nprice_min = 1000\nprice_max = 2000"},
    ], ids=["toy", "one_component", "one_price_bin", "one_visited_cell"])
    def test_checkpoint_draws_are_the_chain_on_its_stored_coordinates(
            self, tmp_path, monkeypatch, edit):
        chains = []
        run_chain = cli.sampler.run_chain
        monkeypatch.setattr(cli.sampler, "run_chain",
                            lambda *a: chains.append(run_chain(*a)) or chains[-1])
        config = TOY_CONFIG
        for old, new in edit.items():
            config = config.replace(old, new)
        ckpt = load_checkpoint(toy_checkpoint(tmp_path, config))
        grid = GridData.from_dict(ckpt["grid"])
        dims = ModelDims(**ckpt["dims"])
        assert "active" not in ckpt and ckpt["format"] == 2
        np.testing.assert_array_equal(dims.active(grid.mask), Posterior(grid, dims).active)
        # The mean coefficients and each visited cell's first K - 1 stick coordinates.
        stored = dims.stored(grid.mask)
        k = dims.n_components
        sticks = dims.n_shared + np.flatnonzero(grid.mask)[:, None] * k + np.arange(k - 1)
        np.testing.assert_array_equal(stored, np.r_[np.arange(dims.n_shared), sticks.ravel()])
        assert stored.size == dims.n_stored(grid.mask)
        if "n_time = 1" in config:
            assert grid.mask.sum() == 1 and grid.mask.size == 3
        kept = chains[0].draws[-20:]
        expanded = cli.checkpoint_draws(ckpt)
        assert len(expanded) == len(kept) == 20
        rest = np.setdiff1d(np.arange(dims.n_coords), stored)
        for params, draw in zip(expanded, kept):
            vec = params.to_vector()
            np.testing.assert_array_equal(vec[stored].view(np.uint64),
                                          draw[stored].view(np.uint64))
            assert not vec[rest].view(np.uint64).any()  # +0.0 elsewhere

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_kept=st.integers(0, 5), n_stored=st.integers(1, 20))
    def test_packed_draws_round_trip_bit_for_bit(self, data, n_kept, n_stored):
        values = data.draw(hnp.arrays(np.float64, (n_kept, n_stored), elements=EDGE_FLOATS))
        packed = json.loads(json.dumps(cli.grid_mod._pack_floats(values)))
        back = cli._unpack_draws(packed, n_stored).reshape(n_kept, n_stored)
        np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n_time=st.integers(1, 2), n_price=st.integers(1, 2),
           k=st.integers(1, 3), n_kept=st.integers(1, 5))
    def test_checkpoint_draws_expand_packed_values_bit_for_bit(self, data, n_time, n_price, k,
                                                               n_kept):
        mask = data.draw(hnp.arrays(bool, (n_time, n_price)))
        dims = ModelDims(n_time, n_price, k)
        stored = dims.stored(mask)
        values = data.draw(hnp.arrays(np.float64, (n_kept, stored.size), elements=EDGE_FLOATS))
        ckpt = {"dims": {"n_time": n_time, "n_price": n_price, "n_components": k},
                "grid": {"mask": mask.tolist()}, "draws": cli.grid_mod._pack_floats(values)}
        full = np.array([p.to_vector() for p in cli.checkpoint_draws(ckpt)])
        np.testing.assert_array_equal(full[:, stored].view(np.uint64), values.view(np.uint64))
        assert not np.delete(full, stored, axis=1).view(np.uint64).any()  # +0.0 elsewhere

    def test_surface_is_build_surface_on_the_chains_last_draws(self, tmp_path, monkeypatch):
        # fit -> checkpoint -> surface gives, bit for bit, the surface of the
        # chain's own last keep_last draws, which hold every coordinate.
        runs = []
        run_chain = cli.sampler.run_chain
        monkeypatch.setattr(cli.sampler, "run_chain",
                            lambda *a: runs.append((a[2], run_chain(*a))) or runs[-1][1])
        ckpt_path, out, ref = toy_checkpoint(tmp_path), tmp_path / "s.json", tmp_path / "ref.json"
        assert run(["surface", "--config", str(tmp_path / "toy.ini"), "--checkpoint",
                    str(ckpt_path), "--format", "json", "--out", str(out)]) == 0
        [(post, chain)] = runs
        cfg, ckpt = load_config(tmp_path / "toy.ini"), load_checkpoint(ckpt_path)
        kept = chain.draws[-cfg["hmc"]["keep_last"]:]
        draws = [model.ModelParams.from_vector(post.dims, vec) for vec in kept]
        surf_cfg = SurfaceConfig(**cfg["surface"], bins_per_day=ckpt["bins_per_day"],
                                 trading_days=cfg["synth"]["trading_days"])
        export_surface(build_surface(draws, post.grid, surf_cfg,
                                     destandardize_scale=ckpt["standardize_scale"]), ref, "json")
        assert out.read_bytes() == ref.read_bytes()

    def test_surface_level_does_not_depend_on_price_unit(self, tmp_path):
        # The acceptance protocol's session and fit at three price units. The
        # returns differ in their last bits, so the chains differ; the
        # visited-cell mean vol must not.
        vols = {}
        for s0 in (1.0, 100.0, 5000.0):
            d = tmp_path / f"s0_{s0:g}"
            d.mkdir()
            cfg = d / "proto.ini"
            cfg.write_text(
                f"[synth]\ns0 = {s0}\nsigma = 0.5\nseed = 1\n"
                "[hmc]\nn_burn = 200\nn_draws = 500\nkeep_last = 100\nseed = 2\n"
                "[surface]\nseed = 3\n"
            )
            ticks, ckpt, surf = d / "t.csv", d / "c.json", d / "s.json"
            assert run(["synth", "--config", str(cfg), "--out", str(ticks)]) == 0
            assert run(["fit", "--config", str(cfg), "--ticks", str(ticks),
                        "--out", str(ckpt)]) == 0
            assert run(["surface", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--format", "json", "--out", str(surf)]) == 0
            s = load_surface(surf)
            vols[s0] = float(s.vol_mean[~s.masked].mean())
        assert max(vols.values()) / min(vols.values()) < 1.05, vols

    def test_protocol_scale_acceptance_band(self, tmp_path, capsys):
        # Full grid / component count at reduced chain length: the tuned
        # acceptance rate should land inside the wide empirical band.
        cfg = tmp_path / "proto.ini"
        cfg.write_text(
            "[synth]\ns0 = 1.0\nseed = 4\n"
            "[hmc]\nn_burn = 100\nn_draws = 200\nkeep_last = 50\n"
        )
        ticks = tmp_path / "ticks.csv"
        ckpt = tmp_path / "ckpt.json"
        assert run(["synth", "--config", str(cfg), "--out", str(ticks)]) == 0
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks),
                    "--out", str(ckpt)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "coordinates sampled" in l)
        rate = float(re.match(r"acceptance (\S+) \(post-burn", line)[1])
        assert 0.4 <= rate <= 0.99

    def test_ticks_after_session_length_refused_by_name(self, tmp_path, capsys):
        ticks, ckpt = tmp_path / "late.csv", tmp_path / "ckpt.json"
        ticks.write_text("time_s,price\n0,100\n30000,101\n40000,102\n")
        argv = ["fit", "--ticks", str(ticks), "--burn", "1", "--draws", "2", "--out", str(ckpt)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {ticks}: a tick at time_s 30000.0 falls after the session's "
                       "end, [synth] session_length = 23400.0\n")
        assert not ckpt.exists()
        # A tick at the session's end is inside it: rlvs synth writes one there.
        ticks.write_text("time_s,price\n0,100\n11700,101\n23400,102\n")
        assert run(argv) == 0
        assert ckpt.exists()

    def test_empty_resample_refused_by_name(self, tmp_path, capsys):
        ticks, ckpt = tmp_path / "early.csv", tmp_path / "ckpt.json"
        ticks.write_text("time_s,price\n5,100\n6,101\n")
        assert run(["fit", "--ticks", str(ticks), "--out", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ticks}: resampling at [grid] resample_interval = 300.0 s leaves 0 "
            "price(s) of ticks from time_s 5.0 to 6.0; the fit needs at least 2\n")
        assert not ckpt.exists()

    def test_equal_returns_refused_with_tick_path(self, tmp_path, capsys):
        # Two ticks at tick level give one return, whose spread is zero.
        cfg, ticks, ckpt = tmp_path / "tick.ini", tmp_path / "two.csv", tmp_path / "ckpt.json"
        cfg.write_text("[grid]\nresample_interval = 0\n")
        ticks.write_text("time_s,price\n0,1.0\n1,1.1\n")
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks), "--out", str(ckpt)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ticks}: the 1 stored return(s) all equal {float(np.log(1.1))!r}, so "
            "their pooled standard deviation is zero; volatility is degenerate and cannot be "
            "standardized\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("interval", ["-300", "nan"])
    def test_negative_resample_interval_refused_by_name(self, tmp_path, capsys, interval):
        # A silent tick-level fit would pass the degenerate-file property below.
        cfg, ticks, ckpt = tmp_path / "neg.ini", tmp_path / "t.csv", tmp_path / "ckpt.json"
        cfg.write_text(f"[grid]\nresample_interval = {interval}\n")
        ticks.write_text("time_s,price\n0,100\n300,101\n600,100.5\n900,101\n")
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks), "--burn", "1",
                    "--draws", "2", "--out", str(ckpt)]) == 1
        # The config reader refuses nan before the fit's own check sees it.
        assert capsys.readouterr().err == (
            "error: [grid] resample_interval: expected a finite number, got 'nan'\n"
            if interval == "nan" else
            "error: [grid] resample_interval must be >= 0 (0 fits at tick level), "
            f"got {float(interval)}\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("config, flags, message", [
        # The unit component scale holds only in standardized returns.
        ("[grid]\nstandardize = false\n", [],
         "[grid] standardize must be true: the fit reads standardized returns"),
        ("", ["--components", "0"], "n_components must be >= 1, got 0"),
        ("[grid]\nn_time = 0\n", [], "n_time must be >= 1, got 0"),
        ("[grid]\nn_price = -2\n", [], "n_price must be >= 1, got -2"),
        ("[hmc]\nn_leapfrog = 0\n", [], "n_leapfrog must be >= 1, got 0"),
        ("[hmc]\ntarget_accept = 1.5\n", [], "target_accept must lie in (0, 1), got 1.5"),
        ("[hmc]\nn_burn = -1\n", [], "n_burn must be >= 0, got -1"),
    ])
    def test_bad_fit_config_refused_before_reading_ticks(self, tmp_path, capsys, config,
                                                         flags, message):
        cfg, ckpt = tmp_path / "bad.ini", tmp_path / "ckpt.json"
        cfg.write_text(config)
        assert run(["fit", "--config", str(cfg), "--ticks", str(tmp_path / "nope.csv"),
                    *flags, "--out", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists()


# A tick-level fit far shorter than any real one: the signals read the ticks alone.
SIGNALS_CONFIG = """
[grid]
n_time = 3
n_price = 3
resample_interval = 0
[model]
n_components = 2
[hmc]
n_burn = 0
n_draws = 2
n_leapfrog = 2
keep_last = 1
"""


class TestTickSignals:
    """On the tick path the summary line reports the share of zero tick
    returns, their lag-1 autocorrelation and the tick over 5-minute realized
    variance; fit warns when the autocorrelation is below -3 standard errors."""

    @staticmethod
    def fit(tmp_path, capsys, prices, config=SIGNALS_CONFIG):
        cfg, ticks, ckpt = tmp_path / "sig.ini", tmp_path / "ticks.csv", tmp_path / "ckpt.json"
        cfg.write_text(config)
        save_ticks(TickSeries(np.linspace(0.0, 23_400.0, prices.size), prices), ticks)
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks), "--out", str(ckpt)]) == 0
        out, err = capsys.readouterr()
        line = next(l for l in out.splitlines() if "coordinates sampled" in l)
        found = re.search(r", zero tick returns (\S+)%, lag-1 autocorrelation (\S+) \(se (\S+)\), "
                          r"tick/5-minute RV (\S+), step size ", line)
        assert found, line
        return [float(x) for x in found.groups()], err

    @staticmethod
    def session(s0=100.0, seed=5):
        return synth_gbm_ticks(s0, 0.0, 0.5, 23_401, seed=seed).prices

    def test_clean_session_reports_without_warning(self, tmp_path, capsys):
        prices = self.session()
        (zero, rho, se, ratio), err = self.fit(tmp_path, capsys, prices)
        r = np.diff(np.log(prices))
        five = np.diff(np.log(prices[::300]))
        assert zero == 0.0
        assert rho == pytest.approx(np.corrcoef(r[1:], r[:-1])[0, 1], abs=5e-4)
        assert se == pytest.approx(1.0 / np.sqrt(r.size), abs=5e-4)
        assert ratio == pytest.approx((r @ r) / (five @ five), abs=5e-4)
        assert "warning" not in err

    def test_log_price_noise_warns(self, tmp_path, capsys):
        prices = self.session()
        prices *= np.exp(1e-4 * np.random.default_rng(8).standard_normal(prices.size))
        (zero, rho, se, ratio), err = self.fit(tmp_path, capsys, prices)
        assert rho < -3.0 * se and ratio > 1.2
        assert err.startswith("warning: ") and "lag-1 autocorrelation" in err
        assert f"{rho:+.3f} is below -3 standard errors" in err

    def test_rounded_prices_report_their_zero_share_and_warn(self, tmp_path, capsys):
        # A $20 stock on a 0.01 tick, a tick a second: most prices repeat.
        prices = np.round(self.session(s0=20.0), 2)
        (zero, rho, se, ratio), err = self.fit(tmp_path, capsys, prices)
        share = np.count_nonzero(np.diff(prices) == 0.0) / (prices.size - 1)
        assert f"{zero:.1f}" == f"{100.0 * share:.1f}"
        assert zero > 50.0 and rho < -3.0 * se
        assert err.startswith("warning: ")

    def test_resampled_fit_reports_no_tick_signals(self, tmp_path, capsys):
        cfg, ticks = tmp_path / "fit.ini", tmp_path / "ticks.csv"
        cfg.write_text(SIGNALS_CONFIG.replace("resample_interval = 0", "resample_interval = 300"))
        save_ticks(TickSeries(np.linspace(0.0, 23_400.0, 23_401),
                              np.round(self.session(s0=20.0), 2)), ticks)
        assert run(["fit", "--config", str(cfg), "--ticks", str(ticks),
                    "--out", str(tmp_path / "ckpt.json")]) == 0
        out, err = capsys.readouterr()
        assert "zero tick returns" not in out and "warning" not in err


SHORT_SESSION = 600.0
RLVS_DIR = Path(rlvs.__file__).resolve().parent


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 5.0, 6.0, 300.0, SHORT_SESSION]),
                                       st.floats(0.0, 2.0 * SHORT_SESSION)),
                             st.sampled_from([99.0, 100.0, 100.5])),
                   min_size=1, max_size=6),
    k=st.integers(1, 3), n_time=st.integers(1, 3), n_price=st.integers(1, 3),
    interval=st.sampled_from([0.0, 300.0]),
    band=st.sampled_from([None, (1000.0, 2000.0), (1.0, 2.0)]),
)
@example(ticks=[(5.0, 100.0), (6.0, 101.0)], k=1, n_time=1, n_price=1, interval=300.0,
         band=None)
def test_degenerate_tick_files_fit_or_are_refused_by_rlvs(ticks, k, n_time, n_price,
                                                          interval, band):
    """A tick file either fits or is refused by a ``raise`` of rlvs, never by
    an error from inside numpy."""
    cfg = load_config()
    cfg["synth"]["session_length"] = SHORT_SESSION
    cfg["grid"].update(n_time=n_time, n_price=n_price, resample_interval=interval)
    if band:
        cfg["grid"].update(price_min=band[0], price_max=band[1])
    cfg["model"]["n_components"] = k
    cfg["hmc"].update(n_burn=1, n_draws=2)
    with tempfile.TemporaryDirectory() as d:
        path, ckpt = Path(d) / "ticks.csv", Path(d) / "ckpt.json"
        path.write_text("time_s,price\n" + "".join(f"{t!r},{p!r}\n" for t, p in ticks))
        try:
            cli.run_fit(cfg, path, ckpt)
        except Exception as exc:
            last = traceback.extract_tb(exc.__traceback__)[-1]
            assert Path(last.filename).resolve().parent == RLVS_DIR, (last, exc)
            assert last.line.startswith("raise"), (last, exc)
        else:
            assert len(packed_values(load_checkpoint(ckpt))) == 2


DELETE = object()
# Every field of a checkpoint's dims and grid, the two objects themselves,
# the packed returns' two fields and the packed draws.
CHECKPOINT_FIELDS = [("dims",), ("grid",), ("draws",),
                     *[("dims", key) for key in ("n_time", "n_price", "n_components")],
                     *[("grid", key) for key in ("spec", "mask", "returns", "cell_time",
                                                 "cell_logprice")],
                     *[("grid", "returns", key) for key in ("counts", "values")],
                     *[("grid", "spec", key) for key in ("n_time", "n_price", "price_min",
                                                         "price_max")]]


# One element of each list field the surface reads: FIRST stands for the
# first number of the field's nested lists.
FIRST = object()
ELEMENTS = [("grid", "mask", FIRST), ("grid", "cell_time", FIRST),
            ("grid", "cell_logprice", FIRST), ("grid", "returns", FIRST),
            ("grid", "returns", "counts", FIRST)]


def _first_number_list(values):
    """The innermost list of nested lists ``values`` whose first element is a
    number, or None if they hold no number."""
    for v in values:
        if not isinstance(v, list):
            return values
        found = _first_number_list(v)
        if found is not None:
            return found
    return None


def _retype_first(values, match, new):
    """Replace the first number of nested lists ``values`` that equals
    ``match`` (any number if None) with ``new``, or with ``new(number)``."""
    for k, v in enumerate(values):
        if isinstance(v, list):
            if _retype_first(v, match, new):
                return True
        elif match is None or v == match:
            values[k] = new(v) if callable(new) else new
            return True
    return False


class TestSurface:
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        return toy_checkpoint(tmp_path_factory.mktemp("fit"))

    def test_surface_shape(self, tmp_path, toy_cfg, fitted):
        out = tmp_path / "surf.csv"
        assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted),
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 3

    def test_svg_format(self, tmp_path, toy_cfg, fitted):
        out = tmp_path / "surf.svg"
        assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted),
                    "--format", "svg", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_insufficient_draws_names_count(self, tmp_path, toy_cfg, fitted, capsys):
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted),
                  "--param-draws", "50", "--out", str(tmp_path / "s.csv")])
        assert rc != 0
        assert "50" in capsys.readouterr().err

    @pytest.mark.parametrize("draws, param_draws", [(0, "10"), (20, "21")])
    def test_draw_shortfall_refused_with_checkpoint_path(self, tmp_path, toy_cfg, fitted,
                                                         capsys, draws, param_draws):
        ckpt = json.loads(fitted.read_text())
        pack_values(ckpt, packed_values(ckpt)[:draws])
        short = tmp_path / "short.json"
        short.write_text(json.dumps(ckpt))
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(short),
                  "--param-draws", param_draws, "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {short}: draws holds {draws} draws, fewer than the {param_draws} of "
            "[surface] n_param_draws\n")
        assert not (tmp_path / "s.csv").exists()

    def test_bitwise_equal_to_scipy_log_expit(self, tmp_path, toy_cfg, fitted, monkeypatch):
        # The surface reads stick weights through model._log_expit.
        from scipy.special import log_expit

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted), "--out", str(a)])
        monkeypatch.setattr(model, "_log_expit", log_expit)
        run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_reruns_identical(self, tmp_path, toy_cfg, fitted):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted), "--out", str(a)])
        run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_annualizes_at_checkpoint_bins_per_day(self, tmp_path, toy_cfg, fitted):
        ckpt = json.loads(fitted.read_text())
        ckpt["bins_per_day"] *= 4
        quadrupled = tmp_path / "ckpt4.json"
        quadrupled.write_text(json.dumps(ckpt))
        vols = []
        for path in (fitted, quadrupled):
            out = tmp_path / f"{path.stem}.json"
            assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(path),
                        "--format", "json", "--out", str(out)]) == 0
            vols.append(load_surface(out).vol_mean)
        np.testing.assert_allclose(vols[1], 2.0 * vols[0], rtol=1e-12)

    @pytest.mark.parametrize("edit, found", [
        # Every checkpoint written before format 2, such as one holding the
        # sampled coordinates of each draw, has no format field.
        (lambda c: c.pop("format"), "no format"),
        (lambda c: c.update(format=1), "format 1"),
        (lambda c: c.update(format=3), "format 3"),
        (lambda c: c.update(format="2"), 'format "2"'),
        (lambda c: c.update(format=None), "format null"),
    ])
    def test_checkpoint_of_other_format_refused_by_name(self, tmp_path, toy_cfg, fitted,
                                                        capsys, edit, found):
        ckpt = json.loads(fitted.read_text())
        edit(ckpt)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(ckpt))
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(old),
                  "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {old}: a checkpoint of {found}, where rlvs reads format 2 only: "
            "re-run rlvs fit\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_listed_returns_give_the_same_surface(self, tmp_path, toy_cfg, fitted, fmt):
        # GridData.from_dict also reads each cell's returns as a list of numbers.
        old = tmp_path / "old.json"
        old.write_text(json.dumps(list_returns(json.loads(fitted.read_text()))))
        assert old.stat().st_size > fitted.stat().st_size
        a, b = tmp_path / f"packed.{fmt}", tmp_path / f"list.{fmt}"
        for path, out in ((fitted, a), (old, b)):
            assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(path),
                        "--format", fmt, "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_read_line_reports_checkpoint_size_and_read_time(self, tmp_path, toy_cfg, fitted,
                                                             capsys):
        out = tmp_path / "s.csv"
        assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(fitted),
                    "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        found = re.fullmatch(r"read checkpoint \(([\d,]+) bytes in (\d+\.\d{3}) s\) from (.+)",
                             lines[-2])
        assert found, lines[-2:]
        assert int(found[1].replace(",", "")) == fitted.stat().st_size
        assert found[3] == str(fitted)
        assert lines[-1] == f"wrote surface (csv) to {out}"

    def test_checkpoint_with_repeated_fields_gives_the_same_surface(self, tmp_path, toy_cfg,
                                                                    fitted):
        # The fields an older fit also wrote, each a copy of a value held elsewhere.
        ckpt = json.loads(fitted.read_text())
        active = Posterior(GridData.from_dict(ckpt["grid"]), ModelDims(**ckpt["dims"])).active
        ckpt.update(component_scale=1.0, seed=ckpt["config"]["hmc"]["seed"],
                    n_kept=len(cli.checkpoint_draws(ckpt)), active=active.tolist())
        old = tmp_path / "old.json"
        old.write_text(json.dumps(ckpt))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, out in ((fitted, a), (old, b)):
            assert run(["surface", "--config", str(toy_cfg), "--checkpoint", str(path),
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_order_mark_skipped_in_checkpoint_and_config(self, tmp_path, toy_cfg, fitted):
        marked_cfg, marked_ckpt = tmp_path / "marked.ini", tmp_path / "marked.json"
        marked_cfg.write_bytes(codecs.BOM_UTF8 + toy_cfg.read_bytes())
        marked_ckpt.write_bytes(codecs.BOM_UTF8 + fitted.read_bytes())
        assert load_config(marked_cfg) == load_config(toy_cfg)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for cfg, ckpt, out in ((toy_cfg, fitted, a), (marked_cfg, marked_ckpt, b)):
            assert run(["surface", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_annualizes_at_synth_trading_days(self, tmp_path, toy_cfg, fitted):
        quartered = tmp_path / "quartered.ini"
        quartered.write_text(
            toy_cfg.read_text().replace("[synth]\n", "[synth]\ntrading_days = 63\n"))
        vols = []
        for cfg in (toy_cfg, quartered):
            out = tmp_path / f"{cfg.stem}.json"
            assert run(["surface", "--config", str(cfg), "--checkpoint", str(fitted),
                        "--format", "json", "--out", str(out)]) == 0
            vols.append(load_surface(out).vol_mean)
        np.testing.assert_allclose(vols[1], 0.5 * vols[0], rtol=1e-12)

    @pytest.mark.parametrize("edit, message", [
        # Packed draws: not a string, a character outside the alphabet, a line
        # break, lost padding.
        (lambda c: c.update(draws=5), NOT_BASE64),
        (lambda c: c.update(draws=[[0.5]]), NOT_BASE64),
        (lambda c: c.update(draws=c["draws"][:-4] + "*" + c["draws"][-3:]), NOT_BASE64),
        (lambda c: c.update(draws=c["draws"][:76] + "\n" + c["draws"][76:]), NOT_BASE64),
        (lambda c: c.update(draws=c["draws"].rstrip("=")[:-1]), NOT_BASE64),
        # 3 bytes, one float64 fewer than 20 draws hold, and one draw of every
        # sampled coordinate, as the fit wrote a draw before format 2.
        (lambda c: c.update(draws="AAAA"), "draws holds 3 bytes, " + WHOLE_DRAWS),
        (lambda c: c.update(draws=base64.b64encode(base64.b64decode(c["draws"])[8:]).decode()),
         "draws holds {bytes} bytes, " + WHOLE_DRAWS),
        (lambda c: pack_values(c, np.ones((1, ModelDims(**c["dims"]).active(
            c["grid"]["mask"]).size))), "draws holds {sampled_bytes} bytes, " + WHOLE_DRAWS),
        (lambda c: set_packed_value(c, np.nan), "a draw holds a value that is not finite"),
        (lambda c: set_packed_value(c, -np.inf), "a draw holds a value that is not finite"),
        # A JSON null reads as NaN.
        (lambda c: c["grid"]["cell_time"].__setitem__(0, None),
         "cell_time and cell_logprice must hold one finite value per bin"),
        # Element types: bool("0") and float("0.5") would read these.
        (lambda c: _retype_first(c["grid"]["mask"], 1, "0"),
         "grid mask must hold only 0, 1, true or false"),
        (lambda c: _retype_first(c["grid"]["cell_time"], None, str),
         "grid cell_time must hold numbers, not str"),
        (lambda c: _retype_first(list_returns(c)["grid"]["returns"], None, str),
         "grid returns must hold numbers, not str"),
        # Packed returns: the object, its counts, the strictness and length of its values.
        (lambda c: c["grid"].update(returns=5),
         "grid returns is malformed: object of type 'int' has no len()"),
        (lambda c: c["grid"]["returns"].update(cells=[]),
         "grid returns must hold exactly the fields counts and values, got cells, counts, values"),
        (lambda c: c["grid"]["returns"].__delitem__("values"),
         "grid returns must hold exactly the fields counts and values, got counts"),
        (lambda c: c["grid"]["returns"]["counts"].pop(), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"]["counts"].append(1), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"]["counts"].__setitem__(0, 0), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"]["counts"].__setitem__(0, True), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"]["counts"].__setitem__(0, 1.0), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"].update(counts=5), RETURN_COUNTS),
        (lambda c: c["grid"]["returns"].update(values=[0.1]),
         "grid returns values is not strict base64 (RFC 4648, padded, with no line breaks)"),
        (lambda c: c["grid"]["returns"].update(values=c["grid"]["returns"]["values"][:-4] + "*"
                                               + c["grid"]["returns"]["values"][-3:]),
         "grid returns values is not strict base64 (RFC 4648, padded, with no line breaks)"),
        (lambda c: c["grid"]["returns"].update(values=c["grid"]["returns"]["values"][:76] + "\n"
                                               + c["grid"]["returns"]["values"][76:]),
         "grid returns values is not strict base64 (RFC 4648, padded, with no line breaks)"),
        (lambda c: c["grid"]["returns"].update(values=base64.b64encode(
            base64.b64decode(c["grid"]["returns"]["values"])[8:]).decode()),
         "grid returns values holds {short} bytes, not {full}: 8 for each of the {n_returns} "
         "returns its counts give"),
        # The constructor refuses a non-finite return by its cell, packed or not.
        (lambda c: set_packed_return(c, np.nan), "non-finite return in cell {cell}"),
        (lambda c: set_packed_return(c, -np.inf), "non-finite return in cell {cell}"),
        (lambda c: c["dims"].update(n_time=4),
         "dims n_time = 4, n_price = 3 do not match the grid's 3 x 3 cells"),
        (lambda c: c.pop("dims"), "missing field 'dims'"),
        (lambda c: c.pop("bins_per_day"), "missing field 'bins_per_day'"),
        (lambda c: c.update(bins_per_day=0), "bins_per_day must be an integer >= 1, got 0"),
        (lambda c: c.update(standardize_scale=-1),
         "standardize_scale must be positive and finite, got -1"),
        (lambda c: json.dumps([c]), "not a fit checkpoint"),
        # Integers no float holds.
        (lambda c: c["grid"]["spec"].update(price_max=10 ** 400),
         f"price_max must be finite, got {10 ** 400}"),
        (lambda c: c.update(standardize_scale=10 ** 400),
         f"standardize_scale must be positive and finite, got {10 ** 400}"),
        (lambda c: c.update(bins_per_day=10 ** 400),
         f"bins_per_day must be an integer a float holds, got {10 ** 400}"),
        (lambda c: c["dims"].update(n_components=10 ** 30),
         f"dims n_components = {10 ** 30} exceeds the longest array, {np.iinfo(np.intp).max}"),
        (lambda c: json.dumps(c)[:27],
         "not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 28 (char 27)"),
    ])
    def test_corrupted_checkpoint_refused_by_name(self, tmp_path, toy_cfg, fitted, capsys,
                                                  edit, message):
        ckpt = json.loads(fitted.read_text())
        dims = ModelDims(**ckpt["dims"])
        n, n_sampled = dims.n_stored(ckpt["grid"]["mask"]), dims.active(ckpt["grid"]["mask"]).size
        visited = np.flatnonzero(ckpt["grid"]["mask"])
        n_returns = sum(ckpt["grid"]["returns"]["counts"])
        text = edit(ckpt)  # a string is the file's new text
        bad = tmp_path / "bad.json"
        bad.write_text(text if isinstance(text, str) else json.dumps(ckpt))
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(bad),
                  "--out", str(tmp_path / "s.csv")])
        assert rc != 0
        assert capsys.readouterr().err == f"error: {bad}: " + message.format(
            n=n, bytes=(20 * n - 1) * 8, sampled_bytes=8 * n_sampled,
            visited=visited.size, n_returns=n_returns,
            full=8 * n_returns, short=8 * n_returns - 8, cell=divmod(int(visited[0]), 3)) + "\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("field, message", [
        ("cell_time", "cell_time and cell_logprice must hold one finite value per bin"),
        ("returns", "non-finite return in cell"),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_element_no_float_holds_refused_by_name(self, tmp_path, toy_cfg, fitted, capsys,
                                                    field, message, sign):
        ckpt = json.loads(fitted.read_text())
        # An integer no float holds fits only the list form of the returns.
        values = (list_returns(ckpt) if field == "returns" else ckpt)["grid"][field]
        _retype_first(values, None, sign * 10 ** 400)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(ckpt))
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(bad),
                  "--out", str(tmp_path / "s.csv")])
        assert rc != 0
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    def test_checkpoint_with_session_length_named(self, tmp_path, toy_cfg, fitted, capsys):
        ckpt = json.loads(fitted.read_text())
        ckpt["grid"]["spec"]["session_length"] = 23400.0
        old = tmp_path / "old.json"
        old.write_text(json.dumps(ckpt))
        rc = run(["surface", "--config", str(toy_cfg), "--checkpoint", str(old),
                  "--out", str(tmp_path / "s.csv")])
        assert rc != 0
        assert "unknown grid spec field session_length" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from(CHECKPOINT_FIELDS + ELEMENTS),
           replacement=st.sampled_from([DELETE, "6", "AAAA", None, True, 7, 1.5, [], {}]))
    @example(path=("dims", "n_price"), replacement=DELETE)
    @example(path=("dims", "n_time"), replacement="6")
    @example(path=("grid", "mask"), replacement=DELETE)
    @example(path=("grid", "returns"), replacement=DELETE)
    @example(path=("grid", "mask", FIRST), replacement="6")
    @example(path=("grid", "cell_time", FIRST), replacement="6")
    @example(path=("grid", "returns", FIRST), replacement="6")
    @example(path=("draws",), replacement="6")
    @example(path=("draws",), replacement="AAAA")
    @example(path=("draws",), replacement=None)
    def test_malformed_dims_or_grid_refused_by_name(self, fitted, path, replacement):
        ckpt = json.loads(fitted.read_text())
        # A number of the list form of the returns, which GridData.from_dict also reads.
        if path == ("grid", "returns", FIRST):
            list_returns(ckpt)
        *parents, name = path
        holder = ckpt
        for key in parents:
            holder = holder[key]
        key = name
        if name is FIRST:
            # One element: the first number of the field's nested lists.
            assume(replacement is not DELETE)  # a cell may hold any number of returns
            holder, name, key = _first_number_list(holder), parents[-1], 0
        original = holder[key]
        if replacement is DELETE:
            del holder[key]
        else:
            # A retyping gives a value of another JSON type; an integer is a
            # valid float, and a boolean a valid mask flag. Packed draws and
            # returns take strings that are not a packing: "6" is not base64,
            # "AAAA" 3 bytes.
            assume((type(replacement) is not type(original)
                    or path in {("draws",), ("grid", "returns", "values")})
                   and not (type(original) is float and type(replacement) is int)
                   and not (key != name and name == "mask" and type(replacement) is bool))
            holder[key] = replacement
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            bad, out = Path(d) / "bad.json", Path(d) / "s.csv"
            bad.write_text(json.dumps(ckpt))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = run(["surface", "--checkpoint", str(bad), "--param-draws", "10",
                          "--out", str(out)])
            assert not out.exists()
        assert rc != 0
        message = err.getvalue()
        assert message.startswith(f"error: {bad}: ") and message.count("\n") == 1, message
        # A null reads as NaN, refused per draw or per cell of returns.
        assert {"draws": "draw", "returns": "return"}.get(name, name) in message, message


class TestImplied:
    def test_curve_from_quotes(self, tmp_path):
        quotes = tmp_path / "quotes.csv"
        rows = ["strike,expiry_years,mid,flag"]
        for k in (0.95, 1.0, 1.05):
            price = bs_price(1.0, k, 0.0, 0.0, 1.0 / 252.0, 0.5, k >= 1.0)
            rows.append(f"{k},{1.0 / 252.0},{price!r},{'C' if k >= 1.0 else 'P'}")
        quotes.write_text("\n".join(rows) + "\n")
        out = tmp_path / "curve.csv"
        assert run(["implied", "--quotes", str(quotes), "--spot", "1.0",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,iv"
        vols = [float(l.split(",")[1]) for l in lines[1:]]
        np.testing.assert_allclose(vols, 0.5, atol=1e-6)

    def test_empty_quote_file_error(self, tmp_path, capsys):
        quotes = tmp_path / "empty.csv"
        quotes.write_text("strike,expiry_years,mid,flag\n")
        rc = run(["implied", "--quotes", str(quotes), "--spot", "1.0",
                  "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        assert "no quotes" in capsys.readouterr().err

    def test_non_finite_strike_names_line(self, tmp_path, capsys):
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,expiry_years,mid,flag\n0.95,0.004,0.01,P\nnan,0.004,0.01,C\n")
        rc = run(["implied", "--quotes", str(quotes), "--spot", "1.0",
                  "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        assert f"{quotes}: line 3: strike must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--spot", "nan", "spot must be finite, got nan"),
        ("--spot", "-1", "spot must be positive, got -1.0"),
        ("--spot", "0", "spot must be positive, got 0.0"),
        ("--rate", "inf", "rate must be finite, got inf"),
        ("--yield", "nan", "yield_rate must be finite, got nan"),
    ])
    def test_bad_market_flag_named_before_any_row(self, tmp_path, capsys, flag, value,
                                                  message):
        # The flag is refused by its field, not blamed on the quote file's first line.
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,expiry_years,mid,flag\n0.95,0.004,0.01,P\n")
        argv = {"--spot": "1.0", "--rate": "0.0", "--yield": "0.0", flag: value}
        rc = run(["implied", "--quotes", str(quotes), *[a for kv in argv.items() for a in kv],
                  "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_one_quote_writes_one_row(self, tmp_path):
        quotes, out = tmp_path / "q.csv", tmp_path / "curve.csv"
        price = bs_price(1.0, 1.0, 0.0, 0.0, 1.0 / 252.0, 0.5)
        quotes.write_text(f"strike,expiry_years,mid,flag\n1.0,{1.0 / 252.0},{price!r},C\n")
        assert run(["implied", "--quotes", str(quotes), "--spot", "1.0",
                    "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "strike,iv" and row.startswith("1.0,")
        assert float(row.split(",")[1]) == pytest.approx(0.5, abs=1e-6)

    def test_echoes_no_config(self, tmp_path, capsys):
        quotes = tmp_path / "q.csv"
        rows = ["strike,expiry_years,mid,flag"]
        for k in (1.0, 1.05):
            rows.append(f"{k},{1.0 / 252.0},{bs_price(1.0, k, 0.0, 0.0, 1.0 / 252.0, 0.5)!r},C")
        quotes.write_text("\n".join(rows) + "\n")
        assert run(["implied", "--quotes", str(quotes), "--spot", "1.0",
                    "--out", str(tmp_path / "c.csv")]) == 0
        out = capsys.readouterr().out
        assert "[hmc]" not in out and "seed =" not in out


class TestCompare:
    @pytest.fixture(scope="class")
    def surface_file(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("surface")
        ckpt = toy_checkpoint(d)
        surf = d / "surf.json"
        run(["surface", "--config", str(d / "toy.ini"), "--checkpoint", str(ckpt),
             "--format", "json", "--out", str(surf)])
        return surf

    def make_quotes(self, tmp_path, surf_path, vol=0.5):
        surf = load_surface(surf_path)
        quotes = tmp_path / "q.csv"
        rows = ["strike,expiry_years,mid,flag"]
        for k in surf.spec.price_mid:
            price = bs_price(1.0, float(k), 0.0, 0.0, 1.0 / 252.0, vol, k >= 1.0)
            rows.append(f"{float(k)!r},{1.0 / 252.0},{price!r},{'C' if k >= 1.0 else 'P'}")
        quotes.write_text("\n".join(rows) + "\n")
        return quotes

    def test_compare_writes_rows(self, tmp_path, surface_file):
        quotes = self.make_quotes(tmp_path, surface_file)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                    "--spot", "1.0", "--snapshots", "0.25,0.75", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snapshot,strike,implied_vol,realized_vol,difference,masked"
        assert len(lines) == 1 + 2 * 3  # 2 snapshots x 3 in-range strikes

    def test_flat_quotes_match_fitted_surface(self, tmp_path, surface_file):
        # Quotes synthesized at the generator's own vol: on cells the path
        # visited the fitted surface should sit close to the implied level.
        import csv

        quotes = self.make_quotes(tmp_path, surface_file, vol=0.5)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                    "--spot", "1.0", "--snapshots", "0.2,0.5,0.8", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        path_rows = [r for r in rows if r["masked"] == "0"]
        assert path_rows
        for r in path_rows:
            assert float(r["implied_vol"]) == pytest.approx(0.5, abs=1e-6)
            assert abs(float(r["difference"])) < 0.1

    def test_no_overlap_error(self, tmp_path, surface_file, capsys):
        quotes = tmp_path / "far.csv"
        price = bs_price(1.0, 50.0, 0.0, 0.0, 1.0 / 252.0, 0.5, False)  # deep ITM put
        quotes.write_text(f"strike,expiry_years,mid,flag\n50.0,{1.0 / 252.0},{price!r},P\n")
        rc = run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                  "--spot", "1.0", "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        assert "overlap" in capsys.readouterr().err

    def test_unsolvable_strike_skipped_once(self, tmp_path, surface_file, capsys):
        quotes = self.make_quotes(tmp_path, surface_file)
        strike = float(load_surface(surface_file).spec.price_mid[0])
        # A call priced above spot has no implied vol.
        with open(quotes, "a") as fh:
            fh.write(f"{strike!r},{1.0 / 252.0},5.0,C\n")
        out = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                    "--spot", "1.0", "--snapshots", "0.2,0.5,0.8", "--out", str(out)]) == 0
        assert capsys.readouterr().err.count(f"skipped strike {strike!r}") == 1
        assert len(out.read_text().splitlines()) == 1 + 3 * 3

    @pytest.mark.parametrize("snapshots, message", [
        ("0.5,1.5", "snapshot time 1.5 outside the session [0, 1]"),
        ("0.5,-0.25", "snapshot time -0.25 outside the session [0, 1]"),
        ("0.5,nan", "snapshot time nan outside the session [0, 1]"),
        ("0.5,abc", "--snapshots: could not convert string to float: 'abc'"),
        (" , ", "--snapshots produced no snapshot times"),
    ])
    def test_snapshot_outside_session_names_value(self, tmp_path, surface_file, capsys,
                                                  snapshots, message):
        quotes = self.make_quotes(tmp_path, surface_file)
        out = tmp_path / "cmp.csv"
        rc = run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                  "--spot", "1.0", "--snapshots", snapshots, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_no_implied_vol_in_band_refused_without_output(self, tmp_path, surface_file,
                                                           capsys):
        # Every in-band call is priced above the spot, so none has an implied vol.
        strikes = load_surface(surface_file).spec.price_mid.tolist()
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,expiry_years,mid,flag\n"
                          + "".join(f"{k!r},{1.0 / 252.0},5.0,C\n" for k in strikes))
        out = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                    "--spot", "1.0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no valid quotes: strike ")
        for k in strikes:
            assert f"strike {k!r}: mid price 5.0 at or above no-arbitrage upper bound" in err
        assert not out.exists()

    def test_one_in_band_quote_gives_one_row_per_snapshot(self, tmp_path, surface_file):
        strike = float(load_surface(surface_file).spec.price_mid[1])
        price = bs_price(1.0, strike, 0.0, 0.0, 1.0 / 252.0, 0.5)
        quotes = tmp_path / "q.csv"
        # The second quote lies outside the band and is left out.
        quotes.write_text(f"strike,expiry_years,mid,flag\n{strike!r},{1.0 / 252.0},{price!r},C\n"
                          f"50.0,{1.0 / 252.0},1.0,C\n")
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                    "--spot", "1.0", "--snapshots", "0.2,0.5,0.8", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [[t, repr(strike)]
                                                     for t in ("0.2", "0.5", "0.8")]

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(8)))
    def test_shuffled_quote_file_gives_the_sorted_files_rows(self, surface_file, order):
        # Eight distinct strikes across the band and past both ends, on a smile.
        spec = load_surface(surface_file).spec
        strikes = np.linspace(spec.price_min - 0.01, spec.price_max + 0.01, 8).tolist()
        rows = []
        for k in strikes:
            vol = 0.4 + (k - 1.0) ** 2
            price = bs_price(1.0, k, 0.0, 0.0, 1.0 / 252.0, vol, k >= 1.0)
            rows.append(f"{k!r},{1.0 / 252.0},{price!r},{'C' if k >= 1.0 else 'P'}\n")
        with tempfile.TemporaryDirectory() as d:
            texts = []
            for name, chosen in (("sorted", range(8)), ("shuffled", order)):
                quotes, out = Path(d) / f"{name}.csv", Path(d) / f"{name}_cmp.csv"
                quotes.write_text("strike,expiry_years,mid,flag\n"
                                  + "".join(rows[n] for n in chosen))
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.run_compare(surface_file, quotes, 1.0, 0.0, 0.0, [0.25, 0.75], out)
                texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 1 + 2 * 6  # six of the strikes are in band

    @pytest.mark.parametrize("shuffle", [None, 0, 1])
    def test_implied_vol_column_is_implieds_iv(self, tmp_path, surface_file, shuffle):
        # Each strike's vol depends on its own quote alone: compare's column holds
        # the text of `rlvs implied`'s iv for every in-band strike, in any file order.
        spec = load_surface(surface_file).spec
        rows = []
        for k in np.linspace(spec.price_min - 0.02, spec.price_max + 0.02, 40).tolist():
            vol = 0.4 + (k - 1.0) ** 2
            price = bs_price(1.0, k, 0.0153, 0.0, 0.1, vol, k >= 1.0)
            rows.append(f"{k!r},0.1,{price!r},{'C' if k >= 1.0 else 'P'}\n")
        header = "strike,expiry_years,mid,flag\n"
        quotes, shuffled = tmp_path / "q.csv", tmp_path / "shuffled.csv"
        quotes.write_text(header + "".join(rows))
        if shuffle is not None:
            rows = [rows[n] for n in np.random.default_rng(shuffle).permutation(len(rows))]
        shuffled.write_text(header + "".join(rows))
        curve, out = tmp_path / "curve.csv", tmp_path / "cmp.csv"
        market = ["--spot", "1.0", "--rate", "0.0153"]
        assert run(["implied", "--quotes", str(quotes), *market, "--out", str(curve)]) == 0
        assert run(["compare", "--surface", str(surface_file), "--quotes", str(shuffled),
                    *market, "--snapshots", "0.25,0.75", "--out", str(out)]) == 0
        iv = dict(line.split(",") for line in curve.read_text().splitlines()[1:])
        in_band = [k for k in iv if spec.price_min <= float(k) <= spec.price_max]
        assert 0 < len(in_band) < len(iv)
        pairs = [line.split(",")[1:3] for line in out.read_text().splitlines()[1:]]
        assert [k for k, _ in pairs] == in_band * 2
        assert all(vol == iv[k] for k, vol in pairs)

    @pytest.mark.parametrize("fmt, edit, message", [
        ("json", lambda d: d.pop("vol_mean"), "surface has no field vol_mean"),
        ("json", lambda d: d.update(vol_mean=[[0.5]]),
         "surface vol_mean must hold 3 x 3 finite numbers, one per cell"),
        ("csv", lambda lines: lines.pop(5),
         "surface CSV has 8 rows for its 3 x 3 cells, which need one row each"),
    ])
    def test_malformed_surface_refused_by_name(self, tmp_path, surface_file, capsys, fmt,
                                               edit, message):
        surf = load_surface(surface_file)
        bad = tmp_path / f"bad.{fmt}"
        export_surface(surf, bad, fmt)
        if fmt == "json":
            d = json.loads(bad.read_text())
            edit(d)
            bad.write_text(json.dumps(d))
        else:
            lines = bad.read_text().splitlines()
            edit(lines)
            bad.write_text("\n".join(lines) + "\n")
        quotes = self.make_quotes(tmp_path, surface_file)
        out = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert run(["compare", "--surface", str(bad), "--quotes", str(quotes),
                    "--spot", "1.0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_empty_quotes_error(self, tmp_path, surface_file):
        quotes = tmp_path / "empty.csv"
        quotes.write_text("strike,expiry_years,mid,flag\n")
        rc = run(["compare", "--surface", str(surface_file), "--quotes", str(quotes),
                  "--spot", "1.0", "--out", str(tmp_path / "c.csv")])
        assert rc != 0


class TestConfig:
    def test_file_overrides_defaults(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[hmc]\nn_burn = 7\n")
        cfg = load_config(p)
        assert cfg["hmc"]["n_burn"] == 7
        assert cfg["hmc"]["n_draws"] == 5000

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[hmc]\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(p)

    @pytest.mark.parametrize("section, key", [
        # The surface annualizes at the bins per day the fit worked out,
        ("surface", "bins_per_day"),
        # with the component scale fixed at 1 in standardized returns,
        ("model", "component_scale"),
        # and at [synth] trading_days.
        ("surface", "trading_days"),
    ])
    def test_bins_per_day_key_rejected(self, tmp_path, section, key):
        p = tmp_path / "c.ini"
        p.write_text(f"[{section}]\n{key} = 78\n")
        with pytest.raises(ValueError, match=rf"unknown config key \[{section}\] {key}"):
            load_config(p)

    @pytest.mark.parametrize("argv", [
        ["synth", "--preset", "paper-protocol"],
        ["implied", "--quotes", "q.csv", "--spot", "1.0", "--seed", "1"],
        ["compare", "--surface", "s.json", "--quotes", "q.csv", "--spot", "1.0",
         "--config", "x.ini"],
    ])
    def test_flag_with_no_reader_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_without_section_header_named(self, tmp_path, capsys):
        p = tmp_path / "nohdr.ini"
        p.write_text("n_time = 3\n")
        out = tmp_path / "t.csv"
        rc = main(["synth", "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {p}: not a valid config file: ")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("section, key, raw, expected", [
        ("grid", "n_time", "1.5", "an integer"),
        ("hmc", "step_size", "fast", "a number"),
        ("grid", "price_min", "nan", "a finite number"),
        ("grid", "price_max", "inf", "a finite number"),
        ("hmc", "step_size", "nan", "a finite number"),
        ("hmc", "step_size", "inf", "a finite number"),
        ("synth", "session_length", "nan", "a finite number"),
        ("synth", "session_length", "inf", "a finite number"),
        ("grid", "resample_interval", "inf", "a finite number"),
    ])
    def test_malformed_number_names_key(self, tmp_path, capsys, section, key, raw, expected):
        p = tmp_path / "c.ini"
        p.write_text(f"[{section}]\n{key} = {raw}\n")
        rc = main(["synth", "--config", str(p), "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: [{section}] {key}: expected {expected}, got {raw!r}\n"

    def test_non_finite_flag_names_key(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        rc = main(["fit", "--ticks", str(tmp_path / "nope.csv"), "--step-size", "nan",
                   "--out", str(ckpt)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: [hmc] step_size: expected a finite number, got 'nan'\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["synth", "fit", "surface"])
    def test_negative_seed_flag_refused_before_any_work(self, tmp_path, capsys, command):
        # fit and surface would read their input only after the flag.
        argv = {"synth": [], "fit": ["--ticks", str(tmp_path / "nope.csv")],
                "surface": ["--checkpoint", str(tmp_path / "nope.json")]}[command]
        out = tmp_path / "out"
        assert main([command, "--seed", "-5", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -5\n")
        assert not out.exists()

    @pytest.mark.parametrize("section, command", [("synth", "synth"), ("hmc", "fit")])
    def test_negative_stage_seed_refused_by_name(self, tmp_path, capsys, section, command):
        p = tmp_path / "c.ini"
        p.write_text(f"[{section}]\nseed = -1\n")
        out = tmp_path / "out"
        rc = main([command, "--config", str(p), "--ticks", str(tmp_path / "nope.csv"),
                   "--out", str(out)] if command == "fit" else
                  [command, "--config", str(p), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: [{section}] seed: expected a non-negative integer, got '-1'\n")
        assert not out.exists()

    def test_surface_seed_has_no_reader_and_no_bound(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[surface]\nseed = -3\n")
        assert load_config(p)["surface"]["seed"] == -3

    def test_master_seed_derivation(self):
        cfg = load_config()
        apply_master_seed(cfg, 100)
        assert cfg["synth"]["seed"] == 100
        assert cfg["hmc"]["seed"] == 101
        assert cfg["surface"]["seed"] == 102

    def test_checkpoint_rejects_other_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError):
            load_checkpoint(p)


def test_import_leaves_scipy_stats_unloaded():
    # A fresh interpreter: this one has imported scipy.stats through the tests.
    src = str(Path(rlvs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rlvs.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_loads_no_scipy():
    # A fresh interpreter: this one has imported scipy through the tests.
    src = str(Path(rlvs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "def scipy(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "import rlvs; print(scipy())\n"
            "import rlvs.cli; print(scipy())\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]
