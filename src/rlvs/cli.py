"""Command-line pipeline: synth -> fit -> surface, plus implied/compare.

``synth``, ``fit`` and ``surface`` read an optional INI config (sections
mirror the run stages), apply flag overrides, echo the fully-resolved
configuration, and draw all randomness from config seeds so runs are
reproducible. ``implied`` and ``compare`` take only their flags.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import grid as grid_mod
from . import ingest, model, sampler, surface as surface_mod, voltools

# The defaults are the paper's protocol: 5-minute bins over a 23,400 s
# session, a 78 x 10 grid, 5 components, 1000 burn-in and 5000 retained HMC
# updates, and the last 100 draws for the surface.
DEFAULTS = {
    "synth": {
        "s0": 100.0,
        "mu": 0.0,
        "sigma": 0.5,
        "n_ticks": 23401,
        "session_length": 23400.0,
        "trading_days": 252,
        "seed": 1,
    },
    "grid": {
        "n_time": 78,
        "n_price": 10,
        "price_min": None,
        "price_max": None,
        "resample_interval": 300.0,
        "standardize": True,
    },
    "model": {"n_components": 5},
    "hmc": {
        "step_size": 0.01,
        "n_leapfrog": 20,
        "n_burn": 1000,
        "n_draws": 5000,
        "adapt_step_size": True,
        "target_accept": 0.75,
        "keep_last": 100,
        "seed": 2,
    },
    "surface": {
        "n_param_draws": 100,
        "n_returns_per_draw": 100,
        "ci_level": 0.95,
        "seed": 3,
    },
}

# Keys that may be left unset and resolved from data at run time.
_OPTIONAL = {("grid", "price_min"), ("grid", "price_max")}
# The layout of the checkpoints rlvs fit writes and rlvs surface reads:
# format 2 stores of each draw the first ModelDims.n_stored sampled coordinates.
CHECKPOINT_FORMAT = 2
# The largest length numpy can index, a bound on each checkpoint dimension.
_MAX_LENGTH = int(np.iinfo(np.intp).max)
# The seeds numpy reads, which it refuses when negative; [surface] seed has no reader.
_SEEDS = {("synth", "seed"), ("hmc", "seed")}


def default_config() -> dict:
    return {sec: dict(vals) for sec, vals in DEFAULTS.items()}


def _convert(section: str, key: str, raw: str):
    if key not in DEFAULTS[section]:
        raise ValueError(f"unknown config key [{section}] {key}")
    ref = DEFAULTS[section][key]
    raw = raw.strip()
    if (section, key) in _OPTIONAL and raw.lower() in ("", "none", "auto"):
        return None
    if isinstance(ref, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    kind = int if isinstance(ref, int) else float  # None marks an optional float
    try:
        value = kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    if (section, key) in _SEEDS and value < 0:
        raise ValueError(f"[{section}] {key}: expected a non-negative integer, got {raw!r}")
    return value


def load_config(path=None) -> dict:
    """Defaults, optionally overlaid with an INI file."""
    cfg = default_config()
    if path:
        parser = configparser.ConfigParser()
        with ingest._open_text(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                detail = " ".join(str(exc).split())
                raise ValueError(f"{path}: not a valid config file: {detail}") from None
        for section in parser.sections():
            if section not in cfg:
                raise ValueError(f"{path}: unknown config section [{section}]")
            for key, raw in parser.items(section):
                cfg[section][key] = _convert(section, key, raw)
    return cfg


def apply_master_seed(cfg: dict, seed: int) -> None:
    cfg["synth"]["seed"] = seed
    cfg["hmc"]["seed"] = seed + 1
    cfg["surface"]["seed"] = seed + 2


def echo_config(cfg: dict, out=None) -> None:
    out = out or sys.stdout
    for section, vals in cfg.items():
        print(f"[{section}]", file=out)
        for key, val in vals.items():
            print(f"{key} = {val}", file=out)
    out.flush()


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def run_synth(cfg: dict, out_path) -> ingest.TickSeries:
    series = ingest.synth_gbm_ticks(**cfg["synth"])
    ingest.save_ticks(series, out_path)
    print(f"wrote {len(series)} ticks to {out_path} (seed {cfg['synth']['seed']})")
    return series


def run_fit(cfg: dict, ticks_path, out_path) -> dict:
    g, m, h = cfg["grid"], cfg["model"], cfg["hmc"]
    if not g["standardize"]:
        raise ValueError("[grid] standardize must be true: the fit reads standardized returns")
    if h["keep_last"] < 1:
        # draws[-0:] would keep every draw, and a negative count drop the first ones.
        raise ValueError(f"[hmc] keep_last must be >= 1, got {h['keep_last']}")
    interval = g["resample_interval"]
    if not interval >= 0:
        raise ValueError(f"[grid] resample_interval must be >= 0 (0 fits at tick level), "
                         f"got {interval}")
    # Both refused before any tick is read.
    dims = model.ModelDims(g["n_time"], g["n_price"], m["n_components"])
    hmc_cfg = sampler.HmcConfig(**{k: v for k, v in h.items() if k != "keep_last"})
    session_length = cfg["synth"]["session_length"]
    series = ingest.load_ticks(ticks_path, session_length=session_length)
    late = series.times > session_length
    if late.any():
        raise ingest.TickDataError(
            f"{ticks_path}: a tick at time_s {series.times[late.argmax()]} falls after "
            f"the session's end, [synth] session_length = {session_length}")

    if interval > 0:
        first, last = series.times[0], series.times[-1]
        series = ingest.resample(series, interval)
        if len(series) < 2:
            raise ingest.TickDataError(
                f"{ticks_path}: resampling at [grid] resample_interval = {interval} s "
                f"leaves {len(series)} price(s) of ticks from time_s {first} to {last}; "
                "the fit needs at least 2")
        bins_per_day = int(round(session_length / interval))
    else:
        bins_per_day = len(series) - 1  # build_grid refuses fewer than 2 ticks

    lo, hi = float(series.prices.min()), float(series.prices.max())
    pmin = lo if g["price_min"] is None else g["price_min"]
    pmax = hi if g["price_max"] is None else g["price_max"]
    if pmax <= pmin:
        prices = (f"are all {lo}: volatility is degenerate" if lo == hi
                  else f"span [{lo}, {hi}]")
        raise ValueError(f"{ticks_path}: the price band [{pmin}, {pmax}] of [grid] price_min "
                         f"and price_max is empty; the session's prices {prices}")

    norm = ingest.normalize_time(series)
    spec = grid_mod.GridSpec(g["n_time"], g["n_price"], pmin, pmax)
    try:
        gdata, scale = grid_mod.standardize_returns(grid_mod.build_grid(norm, spec))
    except grid_mod.GridError as exc:
        raise grid_mod.GridError(f"{ticks_path}: {exc}") from None
    # The tick path only: a resampled fit's series holds the resampled prices.
    signals = ingest.tick_signals(series) if interval == 0 else None
    if signals is not None and signals.noisy:
        print(f"warning: {ticks_path}: the tick returns' lag-1 autocorrelation "
              f"{signals.autocorr:+.3f} is below -3 standard errors "
              f"({-3.0 * signals.autocorr_se:+.3f}): microstructure noise or price rounding "
              "inflates a tick-level fit's vols; [grid] resample_interval = 300 fits "
              "5-minute returns", file=sys.stderr)

    post = model.Posterior(gdata, dims)
    init_rng = np.random.default_rng([h["seed"], 1])  # init stream, distinct from chain
    init = init_rng.standard_normal(dims.n_coords)  # ModelParams.random_init's vector

    start = time.perf_counter()
    chain = sampler.run_chain(init, hmc_cfg, post)
    chain_s = time.perf_counter() - start
    report = sampler.diagnostics(chain)
    # Timings go to stdout alone: the checkpoint of a fixed seed is the same on every run.
    tick_fields = "" if signals is None else (
        f"zero tick returns {signals.zero_share:.1%}, lag-1 autocorrelation "
        f"{signals.autocorr:+.3f} (se {signals.autocorr_se:.4f}), tick/5-minute RV "
        f"{signals.rv_ratio:.3f}, ")
    print(f"{report}, coordinates sampled {post.active.size:,} of {dims.n_coords:,}, {tick_fields}"
          f"step size {chain.step_size_used:.4g}, chain {chain_s:.3f} s, "
          f"{chain_s / chain.n_grad * 1e6:.1f} us per gradient evaluation")

    # Of each kept draw, the coordinates the surface reads: the sampled ones
    # before the concentrations.
    kept = chain.draws[-h["keep_last"]:]
    start = time.perf_counter()
    checkpoint = {
        "kind": "rlvs-checkpoint",
        "format": CHECKPOINT_FORMAT,
        "dims": {"n_time": dims.n_time, "n_price": dims.n_price,
                 "n_components": dims.n_components},
        "standardize_scale": scale,
        "bins_per_day": bins_per_day,
        "step_size_used": chain.step_size_used,
        # null where a statistic is not finite (no draws, every draw divergent).
        "acceptance": {
            "rate": _json_number(report.acceptance_rate),
            "post_burn_rate": _json_number(report.post_burn_rate),
            "mean_abs_delta_h": _json_number(report.mean_abs_delta_h),
            "n_divergent": report.n_divergent,
        },
        "draws": grid_mod._pack_floats(kept.values[:, :dims.n_stored(gdata.mask)]),
        "grid": gdata.to_dict(),
        "config": cfg,
    }
    with open(out_path, "w", newline="\n") as fh:
        # The C encoder (json.dump streams in Python); strict JSON, no NaN or Infinity.
        fh.write(json.dumps(checkpoint, allow_nan=False))
    write_s = time.perf_counter() - start
    print(f"wrote checkpoint ({len(kept)} retained draws, {os.path.getsize(out_path):,} bytes "
          f"in {write_s:.3f} s) to {out_path}")
    return checkpoint


def _unpack_draws(draws, n_stored: int) -> np.ndarray:
    """The checkpoint's packed ``draws`` as one (draws, ``n_stored``) array,
    refused by name unless it holds whole draws of ``n_stored`` finite values."""
    raw = grid_mod._unpack_floats("draws", draws)
    if len(raw) % (8 * n_stored):
        raise ValueError(f"draws holds {len(raw)} bytes, not whole draws of {n_stored} float64 "
                         "values, the number of coordinates a checkpoint stores for the dims "
                         "and the grid's mask")
    values = np.frombuffer(raw, "<f8")
    if not np.isfinite(values).all():
        raise ValueError("a draw holds a value that is not finite")
    return values.reshape(-1, n_stored)


def _json_number(x: float) -> float | None:
    """x, or None where JSON has no number for it (inf, nan)."""
    return x if np.isfinite(x) else None


def load_checkpoint(path) -> dict:
    """The fit checkpoint at ``path``, refused with its path and the field at
    fault where a value ``run_surface`` reads is missing or out of range;
    ``run_surface`` checks the grid and the draws as it parses them."""
    try:
        ckpt = ingest._read_json(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(ckpt, dict) or ckpt.get("kind") != "rlvs-checkpoint":
        raise ValueError(f"{path}: not a fit checkpoint")
    if ckpt.get("format") != CHECKPOINT_FORMAT:
        found = f"format {json.dumps(ckpt['format'])}" if "format" in ckpt else "no format"
        raise ValueError(f"{path}: a checkpoint of {found}, where rlvs reads format "
                         f"{CHECKPOINT_FORMAT} only: re-run rlvs fit")
    missing = [k for k in ("dims", "standardize_scale", "bins_per_day", "draws", "grid")
               if k not in ckpt]
    if missing:
        raise ValueError(f"{path}: missing field {', '.join(map(repr, missing))}")
    dims, keys = ckpt["dims"], [f.name for f in dataclasses.fields(model.ModelDims)]
    if not isinstance(dims, dict) or set(dims) != set(keys):
        raise ValueError(f"{path}: dims must hold exactly the fields {', '.join(keys)}, "
                         f"got {json.dumps(dims)}")
    for key in keys:
        if type(dims[key]) is not int or dims[key] < 1:  # a JSON integer, not a bool
            raise ValueError(f"{path}: dims {key} must be an integer >= 1, got {dims[key]!r}")
        if dims[key] > _MAX_LENGTH:
            raise ValueError(f"{path}: dims {key} = {dims[key]} exceeds the longest array, "
                             f"{_MAX_LENGTH}")
    scale, bins = ckpt["standardize_scale"], ckpt["bins_per_day"]
    if type(scale) not in (int, float) or not 0 < grid_mod.as_float(scale) < np.inf:
        raise ValueError(f"{path}: standardize_scale must be positive and finite, got {scale}")
    if type(bins) is not int or bins < 1:  # a JSON number, not a bool, as for dims
        raise ValueError(f"{path}: bins_per_day must be an integer >= 1, got {bins}")
    if grid_mod.as_float(bins) == np.inf:
        raise ValueError(f"{path}: bins_per_day must be an integer a float holds, got {bins}")
    return ckpt


def checkpoint_draws(ckpt: dict) -> surface_mod.DrawStack:
    """The checkpoint's draws as a ``surface.DrawStack`` of views of its
    (draws, ``ModelDims.n_stored``) array."""
    dims = model.ModelDims(**ckpt["dims"])
    mask = np.asarray(ckpt["grid"]["mask"], dtype=bool)
    values = _unpack_draws(ckpt["draws"], dims.n_stored(mask))
    i, k, n = dims.n_time, dims.n_components, dims.n_shared
    coefs = values[:, :n].reshape(len(values), n // k, k)  # I time, J price rows, intercepts
    sticks = values[:, n:].reshape(len(values), np.count_nonzero(mask), k - 1)
    return surface_mod.DrawStack(coefs[:, :i], coefs[:, i:-1], coefs[:, -1], sticks)


def run_surface(cfg: dict, ckpt_path, out_path, fmt: str) -> surface_mod.VolSurface:
    start = time.perf_counter()
    ckpt = load_checkpoint(ckpt_path)
    surf_cfg = surface_mod.SurfaceConfig(**cfg["surface"], bins_per_day=ckpt["bins_per_day"],
                                         trading_days=cfg["synth"]["trading_days"])
    try:
        gdata = grid_mod.GridData.from_dict(ckpt["grid"])
        draws = checkpoint_draws(ckpt)
        read_s = time.perf_counter() - start
        surf = surface_mod.build_surface(draws, gdata, surf_cfg,
                                         destandardize_scale=ckpt["standardize_scale"])
    except ValueError as exc:
        raise ValueError(f"{ckpt_path}: {exc}") from None
    surface_mod.export_surface(surf, out_path, fmt)
    print(f"read checkpoint ({os.path.getsize(ckpt_path):,} bytes in {read_s:.3f} s) "
          f"from {ckpt_path}")
    print(f"wrote surface ({fmt}) to {out_path}")
    return surf


def run_implied(quotes_path, spot, rate, yield_rate, out_path) -> voltools.ImpliedCurve:
    quotes = voltools.load_quotes(quotes_path, spot=spot, rate=rate, yield_rate=yield_rate)
    curve = voltools.implied_curve(quotes)
    voltools.save_implied_curve(curve, out_path)
    for strike, reason in curve.skipped:
        print(f"skipped strike {strike}: {reason}", file=sys.stderr)
    print(f"wrote implied curve ({curve.strikes.size} strikes, "
          f"{len(curve.skipped)} skipped) to {out_path}")
    return curve


def run_compare(surface_path, quotes_path, spot, rate, yield_rate,
                snapshots, out_path) -> int:
    if not snapshots:
        raise ValueError("--snapshots produced no snapshot times")
    for t in snapshots:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"snapshot time {t!r} outside the session [0, 1]")
    surf = surface_mod.load_surface(surface_path)
    quotes = voltools.load_quotes(quotes_path, spot=spot, rate=rate, yield_rate=yield_rate)
    spec = surf.spec
    in_range = [q for q in quotes
                if spec.price_min <= q.strike <= spec.price_max]
    if not in_range:
        raise ValueError(
            f"no overlapping price range: quote strikes all outside "
            f"[{spec.price_min}, {spec.price_max}]"
        )
    curve = voltools.implied_curve(in_range)
    for strike, reason in curve.skipped:
        print(f"skipped strike {strike}: {reason}", file=sys.stderr)
    # Each snapshot time, strike and vol is formatted once, and each
    # snapshot's cells are read with one index.
    ivs = curve.vols.tolist()
    quoted = [f"{k!r},{iv!r}," for k, iv in zip(curve.strikes.tolist(), ivs)]
    rows = ["snapshot,strike,implied_vol,realized_vol,difference,masked\n"]
    for t in snapshots:
        i, cols = grid_mod.assign_cell(t, curve.strikes, spec)
        rvs, masked = surf.vol_mean[i, cols].tolist(), surf.masked[i, cols].tolist()
        when = f"{t!r},"
        rows += [f"{when}{kv}{rv!r},{rv - iv!r},{int(m)}\n"
                 for kv, iv, rv, m in zip(quoted, ivs, rvs, masked)]
    with open(out_path, "w", newline="\n") as fh:
        fh.write("".join(rows))
    n_rows = len(snapshots) * curve.strikes.size
    print(f"wrote {n_rows} comparison rows to {out_path}")
    return n_rows


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The config flags of each staged command and the key each one sets.
_FLAGS = {
    "synth": {"--s0": ("synth", "s0"), "--mu": ("synth", "mu"),
              "--sigma": ("synth", "sigma"), "--n-ticks": ("synth", "n_ticks")},
    "fit": {"--burn": ("hmc", "n_burn"), "--draws": ("hmc", "n_draws"),
            "--step-size": ("hmc", "step_size"), "--components": ("model", "n_components")},
    "surface": {"--param-draws": ("surface", "n_param_draws")},
}


def _add_staged(sub, command, help_text):
    """A command that resolves a config: --config, --seed and its key flags."""
    p = sub.add_parser(command, help=help_text)
    p.add_argument("--config", help="INI config file")
    p.add_argument("--seed", type=int, help="master seed (stage seeds derive from it)")
    for flag, (section, key) in _FLAGS[command].items():
        p.add_argument(flag, dest=key, help=f"sets [{section}] {key}")
    return p


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="rlvs",
        description="Realized local volatility surfaces from tick data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _add_staged(sub, "synth", "generate a synthetic tick CSV")

    p = _add_staged(sub, "fit", "fit the mixture model to a tick CSV")
    p.add_argument("--ticks", required=True, help="input tick CSV")

    p = _add_staged(sub, "surface", "build the volatility surface from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("implied", help="implied-volatility curve from a quote CSV")
    p.add_argument("--quotes", required=True)
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--yield", dest="yield_rate", type=float, default=0.0)

    p = sub.add_parser("compare", help="implied vs realized local vol at snapshots")
    p.add_argument("--surface", required=True, dest="surface_path")
    p.add_argument("--quotes", required=True)
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--yield", dest="yield_rate", type=float, default=0.0)
    p.add_argument("--snapshots", default="0.5",
                   help="comma-separated normalized session times in [0, 1]")
    for p in sub.choices.values():
        p.add_argument("--out", help="output path")
    return ap


def _resolve(args) -> dict:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    cfg = load_config(args.config)
    if args.seed is not None:
        apply_master_seed(cfg, args.seed)
    for section, key in _FLAGS[args.command].values():
        raw = getattr(args, key)
        if raw is not None:
            cfg[section][key] = _convert(section, key, raw)
    echo_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            run_synth(_resolve(args), args.out or "ticks.csv")
        elif args.command == "fit":
            run_fit(_resolve(args), args.ticks, args.out or "checkpoint.json")
        elif args.command == "surface":
            out = args.out or f"surface.{args.format}"
            run_surface(_resolve(args), args.checkpoint, out, args.format)
        elif args.command == "implied":
            run_implied(args.quotes, args.spot, args.rate, args.yield_rate,
                        args.out or "implied.csv")
        elif args.command == "compare":
            try:
                snapshots = [float(s) for s in args.snapshots.split(",") if s.strip()]
            except ValueError as exc:
                raise ValueError(f"--snapshots: {exc}") from None
            run_compare(args.surface_path, args.quotes, args.spot, args.rate,
                        args.yield_rate, snapshots, args.out or "compare.csv")
        return 0
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # All package error types subclass ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
