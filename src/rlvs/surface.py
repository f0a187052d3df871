"""Annualized volatility surface with credible intervals from fitted draws.

Every grid cell gets a value, including cells the price path never visited:
those counterfactual cells inherit the shared coefficient draws, with their
(data-free) stick fractions pinned at deterministic prior summaries instead
of prior noise. Each retained draw samples all cells at once from its own
stream, keyed by (seed, draw index): one (cells, returns) block of uniforms
picks the components, then one block of standard normals adds the noise,
with cells in row-major (time, price) order. Results are reproducible, and
independent across draws.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .grid import GridData, GridSpec
from .model import COMPONENT_SCALE, component_means, stick_break, stick_weights_from_raw

# Concentration pinned at its flat-prior median, stick fractions at the
# Beta(1, concentration) median for that value: 1 - 0.5**(1/0.5) = 0.75.
COUNTERFACTUAL_CONC = 0.5
COUNTERFACTUAL_STICK = 1.0 - 0.5 ** (1.0 / COUNTERFACTUAL_CONC)


_CSV_COLUMNS = ("i", "j", "t_norm", "price_mid", "price_lo", "price_hi",
                "vol_mean", "vol_lo", "vol_hi", "masked")


class SurfaceError(ValueError):
    pass


@dataclass
class SurfaceConfig:
    n_param_draws: int = 100
    n_returns_per_draw: int = 100
    ci_level: float = 0.95
    bins_per_day: int = 78
    trading_days: int = 252
    seed: int = 0

    def __post_init__(self):
        # A sample std needs two returns, a credible interval two draws.
        for key in ("n_param_draws", "n_returns_per_draw"):
            value = getattr(self, key)
            if value < 2:
                raise SurfaceError(f"surface.{key} must be >= 2, got {value}")
        if not 0.0 < self.ci_level < 1.0:
            raise SurfaceError("ci_level must lie in (0, 1)")
        if self.bins_per_day < 1 or self.trading_days < 1:
            raise SurfaceError("bins_per_day and trading_days must be >= 1")
        if self.seed < 0:
            raise SurfaceError("seed must be non-negative")


@dataclass
class VolSurface:
    """Per-cell annualized volatility mean and credible bounds.

    ``masked[i, j]`` is True for counterfactual cells (no observed data);
    it is the complement of the grid's presence mask.
    """

    spec: GridSpec
    vol_mean: np.ndarray
    vol_lo: np.ndarray
    vol_hi: np.ndarray
    masked: np.ndarray
    cell_time: np.ndarray
    price_mid: np.ndarray

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "cell_time": self.cell_time.tolist(),
            "price_mid": self.price_mid.tolist(),
            "vol_mean": self.vol_mean.tolist(),
            "vol_lo": self.vol_lo.tolist(),
            "vol_hi": self.vol_hi.tolist(),
            "masked": self.masked.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VolSurface":
        return cls(
            spec=GridSpec.from_dict(d["spec"]),
            vol_mean=np.asarray(d["vol_mean"], dtype=float),
            vol_lo=np.asarray(d["vol_lo"], dtype=float),
            vol_hi=np.asarray(d["vol_hi"], dtype=float),
            masked=np.asarray(d["masked"], dtype=bool),
            cell_time=np.asarray(d["cell_time"], dtype=float),
            price_mid=np.asarray(d["price_mid"], dtype=float),
        )


class _Batch:
    """Work arrays for sampling n returns from each of C cell mixtures,
    allocated once and refilled for every draw, so a surface does not map
    and fault in fresh (C, n) blocks per draw."""

    def __init__(self, c: int, n: int):
        self.u = np.empty((c, n))
        self.z = np.empty((c, n))
        self.comp = np.empty((c, n), dtype=np.intp)
        self.above = np.empty((c, n), dtype=bool)

    def sample_std(self, weights: np.ndarray, means: np.ndarray, scale: float,
                   rng: np.random.Generator) -> np.ndarray:
        """Sample std of the n returns drawn from each cell's mixture.

        ``weights`` and ``means`` are (C, K). Draws one (C, n) block of
        uniforms to pick components, then one (C, n) block of standard normals.
        """
        c, k = weights.shape
        u, z, comp, above = self.u, self.z, self.comp, self.above
        rng.random(out=u)
        cum = np.cumsum(weights, axis=1)
        # Counting the cumulative weights below u, all but the last, equals
        # searchsorted clipped to K - 1: a u above a rounded-down cum[:, -1]
        # still picks the last component. comp indexes the flat means.
        comp[...] = np.arange(0, c * k, k)[:, None]
        for m in range(k - 1):
            comp += np.greater(u, cum[:, m:m + 1], out=above)
        vals = np.take(means.ravel(), comp, out=u)
        rng.standard_normal(out=z)
        vals += np.multiply(z, scale, out=z)
        return np.std(vals, axis=1, ddof=1)


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
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 0 or x.shape[0] < 2:
        raise SurfaceError("credible_interval needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise SurfaceError("level must lie in (0, 1)")
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(x, [tail, 1.0 - tail], axis=0)
    return lo, hi


def build_surface(draws, grid: GridData, config: SurfaceConfig,
                  destandardize_scale: float = 1.0) -> VolSurface:
    """Posterior-predictive volatility surface from retained parameter draws.

    Uses the last ``n_param_draws`` draws. For each draw and every cell,
    ``n_returns_per_draw`` returns are sampled from the cell's mixture and
    their sample std is annualized; the cell's value is the arithmetic mean
    of those per-draw stds and its interval their empirical quantiles.
    """
    draws = list(draws)
    if len(draws) < config.n_param_draws:
        raise SurfaceError(
            f"need at least {config.n_param_draws} parameter draws, got {len(draws)}"
        )
    use = draws[-config.n_param_draws:]
    spec = grid.spec
    i_n, j_n = spec.n_time, spec.n_price
    k = use[0].dims.n_components
    visited = grid.mask[..., None]
    w_cf = stick_break(np.full(k, COUNTERFACTUAL_STICK))

    stds = np.empty((len(use), i_n * j_n))
    batch = _Batch(i_n * j_n, config.n_returns_per_draw)
    for d, params in enumerate(use):
        weights = np.where(visited, stick_weights_from_raw(params.stick_raw), w_cf)
        means = component_means(params, grid)
        rng = np.random.default_rng([config.seed, d])
        stds[d] = batch.sample_std(weights.reshape(-1, k), means.reshape(-1, k),
                                   COMPONENT_SCALE, rng)
    vols = annualize(stds * destandardize_scale, config.bins_per_day,
                     config.trading_days).reshape(len(use), i_n, j_n)
    vol_lo, vol_hi = credible_interval(vols, config.ci_level)

    return VolSurface(
        spec=spec,
        vol_mean=vols.mean(axis=0),
        vol_lo=vol_lo,
        vol_hi=vol_hi,
        masked=~grid.mask,
        cell_time=grid.cell_time.copy(),
        price_mid=spec.price_mid,
    )


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
    """Read a surface back from its CSV or JSON export."""
    text = str(path)
    if text.endswith(".json"):
        with open(path) as fh:
            return VolSurface.from_dict(json.load(fh))
    return _read_csv(path)


def _write_csv(surface: VolSurface, path) -> None:
    spec = surface.spec
    # linspace pins the outer edges to price_min and price_max exactly.
    edges = np.linspace(spec.price_min, spec.price_max, spec.n_price + 1)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for i in range(spec.n_time):
            for j in range(spec.n_price):
                fh.write(
                    f"{i},{j},{float(surface.cell_time[i])!r},"
                    f"{float(surface.price_mid[j])!r},"
                    f"{float(edges[j])!r},{float(edges[j + 1])!r},"
                    f"{float(surface.vol_mean[i, j])!r},{float(surface.vol_lo[i, j])!r},"
                    f"{float(surface.vol_hi[i, j])!r},{int(surface.masked[i, j])}\n"
                )


def _read_csv(path) -> VolSurface:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise SurfaceError(f"{path}: empty surface file")
    missing = [c for c in _CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise SurfaceError(f"{path}: surface CSV has no column {', '.join(missing)}")
    i_n = max(int(r["i"]) for r in rows) + 1
    j_n = max(int(r["j"]) for r in rows) + 1
    cell_time = np.zeros(i_n)
    price_mid = np.zeros(j_n)
    edges = np.zeros(j_n + 1)
    vol_mean = np.zeros((i_n, j_n))
    vol_lo = np.zeros((i_n, j_n))
    vol_hi = np.zeros((i_n, j_n))
    masked = np.zeros((i_n, j_n), dtype=bool)
    for r in rows:
        i, j = int(r["i"]), int(r["j"])
        cell_time[i] = float(r["t_norm"])
        price_mid[j] = float(r["price_mid"])
        edges[j], edges[j + 1] = float(r["price_lo"]), float(r["price_hi"])
        vol_mean[i, j] = float(r["vol_mean"])
        vol_lo[i, j] = float(r["vol_lo"])
        vol_hi[i, j] = float(r["vol_hi"])
        masked[i, j] = r["masked"].strip() == "1"
    spec = GridSpec(n_time=i_n, n_price=j_n, price_min=float(edges[0]),
                    price_max=float(edges[-1]))
    return VolSurface(
        spec=spec, vol_mean=vol_mean, vol_lo=vol_lo, vol_hi=vol_hi,
        masked=masked, cell_time=cell_time, price_mid=price_mid,
    )


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
