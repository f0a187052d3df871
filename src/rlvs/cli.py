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
import itertools
import json
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
        with open(path) as fh:
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
    gdata, scale = grid_mod.standardize_returns(grid_mod.build_grid(norm, spec))

    dims = model.ModelDims(g["n_time"], g["n_price"], m["n_components"])
    post = model.Posterior(gdata, dims)
    init_rng = np.random.default_rng([h["seed"], 1])  # init stream, distinct from chain
    init = model.ModelParams.random_init(dims, init_rng)

    hmc_cfg = sampler.HmcConfig(**{k: v for k, v in h.items() if k != "keep_last"})
    start = time.perf_counter()
    chain = sampler.run_chain(init.to_vector(), hmc_cfg, post)
    chain_s = time.perf_counter() - start
    report = sampler.diagnostics(chain)
    print(f"acceptance rate: {report.acceptance_rate:.4f}")
    # Timings go to stdout alone: the checkpoint of a fixed seed is the same on every run.
    print(f"{report}, coordinates sampled {post.active.size:,} of {dims.n_coords:,}, "
          f"step size {chain.step_size_used:.4g}, chain {chain_s:.3f} s, "
          f"{chain_s / chain.n_grad * 1e6:.1f} us per gradient evaluation")

    # The surface reads only the sampled coordinates: the others hold their
    # initial values in every draw.
    kept = chain.draws[-h["keep_last"]:]
    checkpoint = {
        "kind": "rlvs-checkpoint",
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
        "draws": kept.values.tolist(),
        "grid": gdata.to_dict(),
        "config": cfg,
    }
    with open(out_path, "w", newline="\n") as fh:
        # The C encoder (json.dump streams in Python); strict JSON, no NaN or Infinity.
        fh.write(json.dumps(checkpoint, allow_nan=False))
    print(f"wrote checkpoint ({len(kept)} retained draws) to {out_path}")
    return checkpoint


def _json_number(x: float) -> float | None:
    """x, or None where JSON has no number for it (inf, nan)."""
    return x if np.isfinite(x) else None


def load_checkpoint(path) -> dict:
    """The fit checkpoint at ``path``, refused with its path and the field at
    fault where a value ``run_surface`` reads is missing or out of range;
    ``run_surface`` checks the grid and the draws as it parses them."""
    with open(path) as fh:
        try:
            ckpt = json.load(fh)
        except ValueError as exc:  # also an integer of more digits than int() reads
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(ckpt, dict) or ckpt.get("kind") != "rlvs-checkpoint":
        raise ValueError(f"{path}: not a fit checkpoint")
    if ckpt.get("component_scale", model.COMPONENT_SCALE) != model.COMPONENT_SCALE:
        raise ValueError(f"{path}: an older rlvs checkpoint fitted at component_scale "
                         f"{ckpt['component_scale']}: re-run rlvs fit")
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
    if not isinstance(scale, (int, float)) or not 0 < grid_mod.as_float(scale) < np.inf:
        raise ValueError(f"{path}: standardize_scale must be positive and finite, got {scale}")
    if not isinstance(bins, int) or bins < 1:
        raise ValueError(f"{path}: bins_per_day must be an integer >= 1, got {bins}")
    if grid_mod.as_float(bins) == np.inf:
        raise ValueError(f"{path}: bins_per_day must be an integer a float holds, got {bins}")
    return ckpt


def checkpoint_draws(ckpt: dict) -> list:
    """The checkpoint's draws as full ``ModelParams``. A draw holds the
    coordinates ``ModelDims.active`` derives from the dims and the grid's
    mask; the others, which ``build_surface`` never reads, are zero."""
    dims = model.ModelDims(**ckpt["dims"])
    n_active = dims.n_active(ckpt["grid"]["mask"])
    draws = ckpt["draws"]
    if not isinstance(draws, list) or any(
            not isinstance(d, list) or len(d) != n_active for d in draws):
        raise ValueError(f"a draw is not of length {n_active}, the number of coordinates "
                         "the dims and the grid's mask leave the sampler")
    if not draws:  # the surface names the shortfall; the dims may be too large to index
        return []
    active = dims.active(ckpt["grid"]["mask"])
    values = grid_mod.float_array("draws", list(itertools.chain.from_iterable(draws)))
    values = values.reshape(-1, active.size)
    if not np.isfinite(values).all():
        raise ValueError("a draw holds a value that is not finite")
    full = np.asarray(sampler.Draws(np.zeros(dims.n_coords), active, values))
    return [model.ModelParams.from_vector(dims, v) for v in full]


def run_surface(cfg: dict, ckpt_path, out_path, fmt: str) -> surface_mod.VolSurface:
    ckpt = load_checkpoint(ckpt_path)
    try:
        gdata = grid_mod.GridData.from_dict(ckpt["grid"])
        draws = checkpoint_draws(ckpt)
    except ValueError as exc:
        raise ValueError(f"{ckpt_path}: {exc}") from None
    surf_cfg = surface_mod.SurfaceConfig(**cfg["surface"], bins_per_day=ckpt["bins_per_day"],
                                         trading_days=cfg["synth"]["trading_days"])
    surf = surface_mod.build_surface(
        draws, gdata, surf_cfg, destandardize_scale=ckpt["standardize_scale"]
    )
    surface_mod.export_surface(surf, out_path, fmt)
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
    solved = []
    for q in in_range:
        try:
            solved.append((q.strike, voltools.implied_vol(q)))
        except voltools.VolToolsError as exc:
            print(f"skipped strike {q.strike}: {exc}", file=sys.stderr)
    strikes = np.array([strike for strike, _ in solved])
    n_rows = 0
    with open(out_path, "w", newline="\n") as fh:
        fh.write("snapshot,strike,implied_vol,realized_vol,difference,masked\n")
        for t in snapshots:
            i, cols = grid_mod.assign_cell(t, strikes, spec)
            for (strike, iv), j in zip(solved, cols):
                rv = float(surf.vol_mean[i, j])
                fh.write(
                    f"{t!r},{strike!r},{iv!r},{rv!r},{rv - iv!r},"
                    f"{int(surf.masked[i, j])}\n"
                )
                n_rows += 1
    if n_rows == 0:
        raise ValueError("no comparable (snapshot, strike) pairs produced")
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
            snapshots = [float(s) for s in args.snapshots.split(",") if s.strip()]
            if not snapshots:
                raise ValueError("--snapshots produced no snapshot times")
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
