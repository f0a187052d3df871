"""Time-price grid: presence mask and per-cell log-return observation sets.

The session is partitioned into ``n_time`` x ``n_price`` cells over
normalized time [0, 1] and a currency price band. Each consecutive-tick
log return is attributed to the cell of its *later* tick; the boolean mask
marks cells the price path visited.
"""

from __future__ import annotations

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
        if self.price_max <= self.price_min:
            raise GridError("price_max must exceed price_min")
        if self.price_min < 0:
            raise GridError("price_min must be non-negative")

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
        for ii in range(i):
            for jj in range(j):
                cell = self.returns[ii][jj]
                n = len(cell)
                if bool(self.mask[ii, jj]) != (n > 0):
                    raise GridError(f"mask/returns mismatch at cell ({ii}, {jj})")
                if n and not np.isfinite(cell).all():
                    raise GridError(f"non-finite return in cell ({ii}, {jj})")

    def n_observations(self) -> int:
        return sum(len(c) for row in self.returns for c in row)

    def observations(self):
        """Flatten stored returns to (values, i_index, j_index) in cell order.

        The mask is the authoritative filter: cells with a False mask bit
        contribute nothing even if their lists hold data.
        """
        xs, ci, cj = [], [], []
        for i in range(self.spec.n_time):
            for j in range(self.spec.n_price):
                if not self.mask[i, j]:
                    continue
                cell = self.returns[i][j]
                xs.extend(cell)
                ci.extend([i] * len(cell))
                cj.extend([j] * len(cell))
        return (
            np.asarray(xs, dtype=float),
            np.asarray(ci, dtype=np.intp),
            np.asarray(cj, dtype=np.intp),
        )

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


def assign_cell(time_norm: float, price: float, spec: GridSpec) -> tuple[int, int]:
    """0-based (time, price) cell indices; boundary and out-of-range values clamp."""
    i = int(np.floor(time_norm * spec.n_time))
    j = int(np.floor(normalize_price(price, spec.price_min, spec.price_max) * spec.n_price))
    i = min(max(i, 0), spec.n_time - 1)
    j = min(max(j, 0), spec.n_price - 1)
    return i, j


def build_grid(series: TickSeries, spec: GridSpec) -> GridData:
    """Collect consecutive-tick log returns into grid cells.

    ``series`` must already be time-normalized (times in [0, 1]). The return
    of the pair (n-1, n) lands in the cell containing tick n. The price
    covariate is ``log(mid / series.prices[0])``.
    """
    if len(series) < 2:
        raise GridError("build_grid needs at least 2 ticks")
    i_all = np.clip(
        np.floor(series.times * spec.n_time).astype(int), 0, spec.n_time - 1
    )
    frac = normalize_price(series.prices, spec.price_min, spec.price_max)
    j_all = np.clip(np.floor(frac * spec.n_price).astype(int), 0, spec.n_price - 1)
    log_ret = np.diff(np.log(series.prices))

    returns = [[[] for _ in range(spec.n_price)] for _ in range(spec.n_time)]
    for n in range(1, len(series)):
        returns[i_all[n]][j_all[n]].append(float(log_ret[n - 1]))

    mask = np.array(
        [[len(returns[i][j]) > 0 for j in range(spec.n_price)] for i in range(spec.n_time)]
    )
    cell_time = (np.arange(spec.n_time) + 0.5) / spec.n_time
    width = (spec.price_max - spec.price_min) / spec.n_price
    mid = spec.price_min + (np.arange(spec.n_price) + 0.5) * width
    return GridData(
        spec=spec,
        mask=mask,
        returns=returns,
        cell_time=cell_time,
        cell_logprice=np.log(mid / series.prices[0]),
    )


def standardize_returns(grid: GridData) -> tuple[GridData, float]:
    """Divide every stored return by the pooled standard deviation.

    Returns the rescaled grid and the scale, so volatilities can be mapped
    back to raw return units later. Constant-price sessions (zero pooled
    spread) are rejected: there is no volatility to model.
    """
    xs, _, _ = grid.observations()
    if xs.size == 0:
        raise GridError("standardize_returns needs at least one stored return")
    scale = float(np.std(xs))
    if scale <= 0.0:
        raise GridError(
            "pooled return standard deviation is zero (constant prices); "
            "volatility is degenerate and cannot be standardized"
        )
    scaled = [[[r / scale for r in cell] for cell in row] for row in grid.returns]
    out = GridData(
        spec=grid.spec,
        mask=grid.mask.copy(),
        returns=scaled,
        cell_time=grid.cell_time.copy(),
        cell_logprice=grid.cell_logprice.copy(),
    )
    return out, scale

