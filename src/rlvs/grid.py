"""Time-price grid: presence mask and per-cell log-return observation sets.

The session is partitioned into ``n_time`` x ``n_price`` cells over
normalized time [0, 1] and a currency price band. Each consecutive-tick
log return is attributed to the cell of its *later* tick; the boolean mask
marks cells the price path visited.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ingest import TickSeries, normalize_price


class GridError(ValueError):
    """Invalid grid construction or degenerate cell data."""


@dataclass(frozen=True)
class GridSpec:
    n_time: int
    n_price: int
    price_min: float
    price_max: float

    def __post_init__(self):
        if self.n_time < 1 or self.n_price < 1:
            raise GridError("grid needs at least one bin per axis")
        for name in ("price_min", "price_max"):
            if not np.isfinite(getattr(self, name)):
                raise GridError(f"{name} must be finite, got {getattr(self, name)}")
        if self.price_max <= self.price_min:
            raise GridError("price_max must exceed price_min")
        if self.price_min < 0:
            raise GridError("price_min must be non-negative")

    @property
    def price_mid(self) -> np.ndarray:
        """The midpoint of each price bin."""
        width = (self.price_max - self.price_min) / self.n_price
        return self.price_min + (np.arange(self.n_price) + 0.5) * width

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """The inverse of ``asdict``; a field it does not know is refused by name."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise GridError(f"unknown grid spec field {', '.join(unknown)} "
                            "(an older rlvs file: re-run rlvs fit and rlvs surface)")
        return cls(**d)


@dataclass
class GridData:
    """Presence mask plus per-cell observation sets and cell coordinates.

    ``returns[i][j]`` holds the log returns observed in cell (i, j);
    ``mask[i, j]`` is True exactly when that list is non-empty.
    ``cell_time`` is the normalized midpoint of each time bin and
    ``cell_logprice`` the log of each price bin's midpoint relative to the
    session's first price, so it does not depend on the currency unit.
    """

    spec: GridSpec
    mask: np.ndarray
    returns: list
    cell_time: np.ndarray
    cell_logprice: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.cell_time = np.asarray(self.cell_time, dtype=float)
        self.cell_logprice = np.asarray(self.cell_logprice, dtype=float)
        i, j = self.spec.n_time, self.spec.n_price
        if self.mask.shape != (i, j):
            raise GridError("mask shape does not match spec")
        values, counts = _flatten(_cells(self))
        bad = (counts > 0) != self.mask.ravel()
        bad[np.repeat(np.arange(i * j), counts)[~np.isfinite(values)]] = True
        if bad.any():
            ii, jj = divmod(int(np.argmax(bad)), j)
            if bool(self.mask[ii, jj]) != (counts[ii * j + jj] > 0):
                raise GridError(f"mask/returns mismatch at cell ({ii}, {jj})")
            raise GridError(f"non-finite return in cell ({ii}, {jj})")

    def n_observations(self) -> int:
        return sum(len(c) for row in self.returns for c in row)

    def observations(self):
        """Flatten stored returns to (values, i_index, j_index) in cell order.

        The mask is the authoritative filter: cells with a False mask bit
        contribute nothing even if their lists hold data.
        """
        j_n = self.spec.n_price
        cells = np.flatnonzero(self.mask)
        xs, counts = _flatten([self.returns[c // j_n][c % j_n] for c in cells])
        ci, cj = np.divmod(np.repeat(cells, counts), j_n)
        return xs, ci, cj

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "mask": self.mask.astype(int).tolist(),
            "returns": [[list(map(float, c)) for c in row] for row in self.returns],
            "cell_time": self.cell_time.tolist(),
            "cell_logprice": self.cell_logprice.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridData":
        return cls(
            spec=GridSpec.from_dict(d["spec"]),
            mask=np.asarray(d["mask"], dtype=bool),
            returns=[[list(map(float, c)) for c in row] for row in d["returns"]],
            cell_time=np.asarray(d["cell_time"], dtype=float),
            cell_logprice=np.asarray(d["cell_logprice"], dtype=float),
        )


def assign_cell(time_norm, price, spec: GridSpec):
    """0-based (time, price) cell indices of a point, or of arrays of points;
    boundary and out-of-range values clamp."""
    frac = normalize_price(price, spec.price_min, spec.price_max)
    i = np.clip(np.floor(np.multiply(time_norm, spec.n_time)), 0, spec.n_time - 1)
    j = np.clip(np.floor(np.multiply(frac, spec.n_price)), 0, spec.n_price - 1)
    return i.astype(int), j.astype(int)


def _cells(grid: GridData) -> list:
    """Every cell's list of returns, in row-major (time, price) order."""
    return [grid.returns[i][j] for i in range(grid.spec.n_time) for j in range(grid.spec.n_price)]


def _flatten(cells: list):
    """(values, counts): the cells' returns end to end, and how many each holds."""
    counts = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    values = np.fromiter(itertools.chain.from_iterable(cells), dtype=float,
                         count=int(counts.sum()))
    return values, counts


def _nest(values: np.ndarray, counts: np.ndarray, spec: GridSpec) -> list:
    """Nested ``returns[i][j]`` lists from values laid out cell by cell in
    row-major order, ``counts`` of them per cell."""
    flat = values.tolist()
    ends = np.cumsum(counts).tolist()
    cells = [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return [cells[i * spec.n_price:(i + 1) * spec.n_price] for i in range(spec.n_time)]


def build_grid(series: TickSeries, spec: GridSpec) -> GridData:
    """Collect consecutive-tick log returns into grid cells.

    ``series`` must already be time-normalized (times in [0, 1]). The return
    of the pair (n-1, n) lands in the cell containing tick n. The price
    covariate is ``log(mid / series.prices[0])``.
    """
    if len(series) < 2:
        raise GridError("build_grid needs at least 2 ticks")
    i_all, j_all = assign_cell(series.times, series.prices, spec)
    log_ret = np.diff(np.log(series.prices))

    # A stable sort by cell keeps each cell's returns in tick order.
    cell = i_all[1:] * spec.n_price + j_all[1:]
    counts = np.bincount(cell, minlength=spec.n_time * spec.n_price)
    returns = _nest(log_ret[np.argsort(cell, kind="stable")], counts, spec)
    mask = counts.reshape(spec.n_time, spec.n_price) > 0
    cell_time = (np.arange(spec.n_time) + 0.5) / spec.n_time
    return GridData(
        spec=spec,
        mask=mask,
        returns=returns,
        cell_time=cell_time,
        cell_logprice=np.log(spec.price_mid / series.prices[0]),
    )


def standardize_returns(grid: GridData) -> tuple[GridData, float]:
    """Divide every stored return by the pooled standard deviation.

    Returns the rescaled grid and the scale, so volatilities can be mapped
    back to raw return units later. Constant-price sessions (zero pooled
    spread) are rejected: there is no volatility to model.
    """
    flat, counts = _flatten(_cells(grid))
    xs = flat[np.repeat(grid.mask.ravel(), counts)]  # the observations
    if xs.size == 0:
        raise GridError("standardize_returns needs at least one stored return")
    scale = float(np.std(xs))
    if scale <= 0.0:
        raise GridError(
            "pooled return standard deviation is zero (constant prices); "
            "volatility is degenerate and cannot be standardized"
        )
    scaled = _nest(flat / scale, counts, grid.spec)
    out = GridData(
        spec=grid.spec,
        mask=grid.mask.copy(),
        returns=scaled,
        cell_time=grid.cell_time.copy(),
        cell_logprice=grid.cell_logprice.copy(),
    )
    return out, scale

