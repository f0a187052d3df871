"""Annualized volatility surface with credible intervals from fitted draws.

Every grid cell gets a value, including cells the price path never visited:
those counterfactual cells inherit the shared coefficient draws, with their
(data-free) stick fractions pinned at deterministic prior summaries instead
of prior noise. Each retained draw gives every cell the exact standard
deviation of its predictive mixture, so the surface is a deterministic
function of the draws and its interval shows only their spread.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .grid import GridData, GridSpec, _require_fields, float_array, mask_array
from .ingest import _csv_rows, _loadtxt_body, _open_text, _read_json
from .model import (COMPONENT_SCALE, component_means, mixture_mean_var, stick_break,
                    stick_weights_from_raw)

# Concentration pinned at its flat-prior median, stick fractions at the
# Beta(1, concentration) median for that value: 1 - 0.5**(1/0.5) = 0.75.
COUNTERFACTUAL_CONC = 0.5
COUNTERFACTUAL_STICK = 1.0 - 0.5 ** (1.0 / COUNTERFACTUAL_CONC)


_CSV_COLUMNS = ("i", "j", "t_norm", "price_mid", "price_lo", "price_hi",
                "vol_mean", "vol_lo", "vol_hi", "masked")
_VOLS = ("vol_mean", "vol_lo", "vol_hi")
_INT_COLUMNS = ("i", "j", "masked")


class SurfaceError(ValueError):
    pass


@dataclass
class SurfaceConfig:
    """``n_returns_per_draw`` and ``seed`` have no reader, since the surface
    draws no random numbers; they stay so that configs setting them load."""

    n_param_draws: int = 100
    n_returns_per_draw: int = 100
    ci_level: float = 0.95
    bins_per_day: int = 78
    trading_days: int = 252
    seed: int = 0

    def __post_init__(self):
        # A credible interval needs two draws.
        if self.n_param_draws < 2:
            raise SurfaceError(f"surface.n_param_draws must be >= 2, got {self.n_param_draws}")
        if not 0.0 < self.ci_level < 1.0:
            raise SurfaceError("ci_level must lie in (0, 1)")
        if self.bins_per_day < 1 or self.trading_days < 1:
            raise SurfaceError("bins_per_day and trading_days must be >= 1")


@dataclass
class VolSurface:
    """Per-cell annualized volatility mean and credible bounds.

    ``masked[i, j]`` is True for counterfactual cells (no observed data);
    it is the complement of the grid's presence mask. The cells' coordinates
    are the spec's bin midpoints, ``spec.cell_time`` and ``spec.price_mid``;
    the exports write them out and the readers take them from the spec.
    """

    spec: GridSpec
    vol_mean: np.ndarray
    vol_lo: np.ndarray
    vol_hi: np.ndarray
    masked: np.ndarray

    def __post_init__(self):
        shape = (self.spec.n_time, self.spec.n_price)
        for name in _VOLS:
            values = getattr(self, name)
            if isinstance(values, list) and all(isinstance(row, list) for row in values):
                # Rows of numbers, as a JSON surface holds them: read once, types checked.
                flat = float_array(f"surface {name}", list(itertools.chain.from_iterable(values)))
                if len(values) == shape[0] and all(len(row) == shape[1] for row in values):
                    values = flat.reshape(shape)
            try:
                values = np.asarray(values, dtype=float)
            except (TypeError, ValueError):  # ragged rows
                values = np.empty(0)
            if values.shape != shape or not np.isfinite(values).all():
                raise SurfaceError(f"surface {name} must hold {shape[0]} x {shape[1]} "
                                   "finite numbers, one per cell")
            setattr(self, name, values)
        self.masked = mask_array("surface masked", self.masked)
        if self.masked.shape != shape:
            raise SurfaceError(f"surface masked must hold {shape[0]} x {shape[1]} flags, "
                               "one per cell")

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "cell_time": self.spec.cell_time.tolist(),
            "price_mid": self.spec.price_mid.tolist(),
            "vol_mean": self.vol_mean.tolist(),
            "vol_lo": self.vol_lo.tolist(),
            "vol_hi": self.vol_hi.tolist(),
            "masked": self.masked.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VolSurface":
        """The inverse of ``to_dict``; a field missing or malformed is refused
        by name. ``cell_time`` and ``price_mid`` are not read: the spec fixes them."""
        _require_fields("surface", d, cls)
        for name in _VOLS:
            if not isinstance(d[name], list) or not all(isinstance(r, list) for r in d[name]):
                raise SurfaceError(f"surface {name} must be a list of rows of numbers")
        return cls(GridSpec.from_dict(d["spec"]), *(d[name] for name in _VOLS), d["masked"])


def annualize(std_per_bin, bins_per_day: int, trading_days: int):
    """Scale per-bin standard deviations (scalar or array) by sqrt(bins per year)."""
    if bins_per_day < 1 or trading_days < 1:
        raise SurfaceError("bins_per_day and trading_days must be >= 1")
    std = np.asarray(std_per_bin, dtype=float)
    if np.any(std < 0):
        raise SurfaceError("std_per_bin must be non-negative")
    return std * np.sqrt(bins_per_day * trading_days)


def credible_interval(samples, level: float):
    """Central empirical interval via linear interpolation of order stats.

    Samples lie along the first axis; the bounds have the shape of the rest.
    One sort serves both bounds, which follow ``np.quantile``'s default
    (linear) method to the bit: the order statistics around the index
    (n - 1) * q, weighted as its ``_lerp`` weights them. A slice holding a
    NaN gives NaN bounds, as there.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 0 or x.shape[0] < 2:
        raise SurfaceError("credible_interval needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise SurfaceError("level must lie in (0, 1)")
    tail = (1.0 - level) / 2.0
    x = np.sort(x, axis=0)  # NaNs last
    last = x.shape[0] - 1
    bounds = []
    for q in (tail, 1.0 - tail):
        index = last * q
        k = min(int(index), last)
        gamma = index - k
        below, above = x[k], x[min(k + 1, last)]
        step = above - below
        bounds.append(above - step * (1.0 - gamma) if gamma >= 0.5 else below + step * gamma)
    nan = np.isnan(x[-1])
    if nan.any():
        bounds = [np.where(nan, np.nan, b) for b in bounds]
    return tuple(bounds)


@dataclass(frozen=True)
class DrawStack:
    """What the surface reads of D posterior draws, stacked along a first
    axis: time effects (D, I, K), price effects (D, J, K), intercepts (D, K)
    and the visited cells' stick coordinates (D, V, K - 1) in the mask's C
    order. An index or a slice of a stack takes the same of each array."""

    time_effect: np.ndarray
    price_effect: np.ndarray
    alpha: np.ndarray
    sticks: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, key) -> "DrawStack":
        return DrawStack(*(getattr(self, f.name)[key] for f in fields(self)))


def build_surface(draws, grid: GridData, config: SurfaceConfig,
                  destandardize_scale: float = 1.0) -> VolSurface:
    """Posterior-predictive volatility surface from retained parameter draws,
    a ``DrawStack`` or a sequence of ``ModelParams``.

    Uses the last ``n_param_draws`` draws. For each draw, every cell's
    per-bin std is the exact std of the cell's mixture under that draw,
    destandardized and annualized; the cell's value is the arithmetic mean
    of those per-draw stds and its interval their empirical quantiles.
    The draws are taken a block at a time, and sticks are broken only in
    the visited cells; every other cell takes the counterfactual weights.
    """
    if not isinstance(draws, DrawStack):
        draws = list(draws)
    if len(draws) < config.n_param_draws:
        raise SurfaceError(f"draws holds {len(draws)} draws, fewer than the "
                           f"{config.n_param_draws} of [surface] n_param_draws")
    # Scaled in place and rebound: at most two (draws, I, J) arrays at a time.
    vols = _draw_stds(draws[-config.n_param_draws:], grid)
    vols *= destandardize_scale
    vols = annualize(vols, config.bins_per_day, config.trading_days)
    vol_lo, vol_hi = credible_interval(vols, config.ci_level)

    return VolSurface(
        spec=grid.spec,
        vol_mean=vols.mean(axis=0),
        vol_lo=vol_lo,
        vol_hi=vol_hi,
        masked=~grid.mask,
    )


# The most bytes of a block's (K, draws, I, J) arrays in ``_draw_stds``: 8
# draws, 250 KB, on the paper's 78 x 10 x 5 grid. Blocks of 4 took 16 % more
# time; at either size an ``rlvs surface`` process peaks at a lower RSS than
# with the draw-by-draw loop.
_BLOCK_BYTES = 256 * 1024


def _draw_stds(draws, grid: GridData) -> np.ndarray:
    """(draws, I, J) per-bin std of each cell's mixture under each draw.

    ``component_means`` stores a block's means component-major, so each sum
    over components in ``mixture_mean_var`` adds whole arrays: in the order
    a per-draw (I, J, K) array's sum takes for K < 8, so each std is the
    same float as a draw-by-draw loop's.
    """
    visited = grid.mask
    w_cf = stick_break(np.full(draws[0].alpha.size, COUNTERFACTUAL_STICK))
    stds = np.empty((len(draws), *visited.shape))
    n_block = max(1, _BLOCK_BYTES // (8 * w_cf.size * visited.size))
    for start in range(0, len(draws), n_block):
        block = slice(start, start + n_block)
        use = draws[block]
        if not isinstance(use, DrawStack):  # ModelParams, stacked a block at a time
            use = DrawStack(*(np.stack([getattr(p, name) for p in use])
                              for name in ("time_effect", "price_effect", "alpha")),
                            np.stack([p.stick_raw[visited] for p in use]))
        means = component_means(use.time_effect, use.price_effect, use.alpha, grid)
        _, var = mixture_mean_var(w_cf, means, COMPONENT_SCALE)
        weights = stick_weights_from_raw(use.sticks)
        var[:, visited] = mixture_mean_var(weights, means[:, visited], COMPONENT_SCALE)[1]
        np.sqrt(var, out=stds[block])
    return stds


def export_surface(surface: VolSurface, path, fmt: str = "csv") -> None:
    """Write the surface as CSV, JSON or an SVG heatmap."""
    if fmt == "csv":
        _write_csv(surface, path)
    elif fmt == "json":
        with open(path, "w", newline="\n") as fh:
            json.dump(surface.to_dict(), fh)
    elif fmt == "svg":
        with open(path, "w", newline="\n") as fh:
            fh.write(render_svg(surface))
    else:
        raise SurfaceError(f"unknown surface format {fmt!r} (csv, json or svg)")


def load_surface(path) -> VolSurface:
    """Read a surface back from its CSV or JSON export; a malformed file is
    refused with its path and the field at fault."""
    try:
        if str(path).endswith(".json"):
            return VolSurface.from_dict(_read_json(path))
        return _read_csv(path)
    except (ValueError, OverflowError, csv.Error) as exc:  # also undecodable text
        raise SurfaceError(f"{path}: {exc}") from None


def _write_csv(surface: VolSurface, path) -> None:
    spec = surface.spec
    # linspace pins the outer edges to price_min and price_max exactly.
    edges = np.linspace(spec.price_min, spec.price_max, spec.n_price + 1).tolist()
    # One string per time bin and one per price bin: each axis value is formatted once.
    times = [repr(t) for t in spec.cell_time.tolist()]
    prices = [f"{mid!r},{a!r},{b!r}"
              for mid, a, b in zip(spec.price_mid.tolist(), edges, edges[1:])]
    mean, lo, hi = surface.vol_mean.tolist(), surface.vol_lo.tolist(), surface.vol_hi.tolist()
    masked = surface.masked.astype(int).tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for i, t in enumerate(times):
            fh.write("".join(f"{i},{j},{t},{p},{v!r},{v_lo!r},{v_hi!r},{m}\n"
                             for j, (p, v, v_lo, v_hi, m)
                             in enumerate(zip(prices, mean[i], lo[i], hi[i], masked[i]))))


def _read_csv(path) -> VolSurface:
    """The surface of a CSV export, its header on line 1. The body is parsed
    in one ``np.loadtxt`` call; a body it refuses is read row by row, which
    accepts what ``int`` and ``float`` accept and names the file line or the
    column at fault."""
    with _open_text(path) as fh:
        header = next(csv.reader([fh.readline()]))
        table = _loadtxt_body(fh, ndmin=1, dtype=[(f"c{k}", _column_kind(name))
                                                  for k, name in enumerate(header)])
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if table is not None and table.size and not missing:
        return _surface_from_columns(table.size, lambda name: table[f"c{header.index(name)}"])
    rows = [(line, row) for line, row in _csv_rows(path) if line > 1]
    if not rows:
        raise SurfaceError("empty surface file")
    if missing:
        raise SurfaceError(f"surface CSV has no column {', '.join(missing)}")
    for line, row in rows:
        if len(row) != len(header):
            raise SurfaceError(f"surface CSV line {line} holds {len(row)} values "
                               f"for {len(header)} columns")

    def column(name):
        k = header.index(name)
        try:
            return np.array([row[k] for _, row in rows], dtype=_column_kind(name))
        except (TypeError, ValueError) as exc:
            raise SurfaceError(f"surface CSV column {name}: {exc}") from None

    return _surface_from_columns(len(rows), column)


def _column_kind(name: str) -> type:
    return int if name in _INT_COLUMNS else float


def _surface_from_columns(n_rows: int, column) -> VolSurface:
    """The surface of ``n_rows`` parsed CSV rows; ``column(name)`` gives a
    column's values, in file order."""
    i, j = column("i"), column("j")
    if min(i.min(), j.min()) < 0:
        raise SurfaceError("surface CSV cell indices i and j must be >= 0")
    i_n, j_n = int(i.max()) + 1, int(j.max()) + 1
    if i_n * j_n != n_rows:
        raise SurfaceError(f"surface CSV has {n_rows} rows for its {i_n} x {j_n} cells, "
                           "which need one row each")
    cell = i * j_n + j
    counts = np.bincount(cell, minlength=n_rows)
    if (counts != 1).any():
        k = int(np.argmax(counts != 1))
        raise SurfaceError(f"surface CSV has {counts[k]} rows for cell {divmod(k, j_n)}, "
                           "which needs one")
    order = np.argsort(cell)

    def cells(name):
        return column(name)[order].reshape(i_n, j_n)

    # linspace in _write_csv pins the outer edges to price_min and price_max.
    spec = GridSpec(i_n, j_n, float(cells("price_lo")[0, 0]), float(cells("price_hi")[0, -1]))
    return VolSurface(spec, *(cells(name) for name in _VOLS), cells("masked"))


def _heat_color(x: float) -> str:
    """Dark-blue -> yellow ramp for a value in [0, 1]."""
    x = min(max(x, 0.0), 1.0)
    r = int(round(30 + 225 * x))
    g = int(round(30 + 190 * x))
    b = int(round(90 + 60 * (1.0 - x) - 60 * x))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(surface: VolSurface) -> str:
    """Heatmap of vol_mean; cells the path visited are outlined."""
    i_n, j_n = surface.spec.n_time, surface.spec.n_price
    cell_px = 14
    margin = 40
    legend_h = 42
    w = margin + i_n * cell_px + 10
    h = margin + j_n * cell_px + legend_h
    vmin = float(np.min(surface.vol_mean))
    vmax = float(np.max(surface.vol_mean))
    span = vmax - vmin if vmax > vmin else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for i in range(i_n):
        for j in range(j_n):
            # Price axis drawn bottom-up.
            x = margin + i * cell_px
            y = margin + (j_n - 1 - j) * cell_px
            col = _heat_color((float(surface.vol_mean[i, j]) - vmin) / span)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" fill="{col}"/>'
            )
    for i in range(i_n):
        for j in range(j_n):
            if not surface.masked[i, j]:
                x = margin + i * cell_px
                y = margin + (j_n - 1 - j) * cell_px
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                    f'fill="none" stroke="black" stroke-width="1.5"/>'
                )
    # Legend: gradient bar with endpoint labels.
    ly = margin + j_n * cell_px + 14
    bar_w = max(i_n * cell_px, 120)
    n_seg = 32
    for s in range(n_seg):
        col = _heat_color(s / (n_seg - 1))
        parts.append(
            f'<rect x="{margin + s * bar_w / n_seg:.2f}" y="{ly}" '
            f'width="{bar_w / n_seg + 0.5:.2f}" height="10" fill="{col}"/>'
        )
    parts.append(
        f'<text x="{margin}" y="{ly + 24}" font-size="10" font-family="sans-serif">'
        f'{vmin:.4f}</text>'
    )
    parts.append(
        f'<text x="{margin + bar_w}" y="{ly + 24}" font-size="10" '
        f'font-family="sans-serif" text-anchor="end">{vmax:.4f}</text>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 8}" font-size="10" font-family="sans-serif">'
        'annualized vol mean (outlined cells: observed path)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
