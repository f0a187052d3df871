"""Time-price grid: presence mask and per-cell log-return observation sets.

The session is partitioned into ``n_time`` x ``n_price`` cells over
normalized time [0, 1] and a currency price band. ``GridSpec`` owns that
geometry: its bin midpoints and, through ``assign_cell``, the cell a point
falls in. Each consecutive-tick log return is attributed to the cell of its
*later* tick; the boolean mask marks cells the price path visited.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ingest import TickSeries


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
            if not math.isfinite(as_float(getattr(self, name))):
                raise GridError(f"{name} must be finite, got {getattr(self, name)}")
        if self.price_max <= self.price_min:
            raise GridError("price_max must exceed price_min")
        if self.price_min < 0:
            raise GridError("price_min must be non-negative")

    @property
    def cell_time(self) -> np.ndarray:
        """The normalized midpoint of each time bin."""
        return (np.arange(self.n_time) + 0.5) / self.n_time

    @property
    def price_mid(self) -> np.ndarray:
        """The midpoint of each price bin."""
        width = (self.price_max - self.price_min) / self.n_price
        return self.price_min + (np.arange(self.n_price) + 0.5) * width

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """The inverse of ``asdict``; a field missing, unknown or mistyped is refused by name."""
        _require_fields("grid spec", d, cls)
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
        i, j = self.spec.n_time, self.spec.n_price
        self.mask = mask_array("grid mask", self.mask)
        if self.mask.shape != (i, j):
            raise GridError("mask shape does not match spec")
        for name in ("cell_time", "cell_logprice"):
            values = getattr(self, name)
            if isinstance(values, list):
                values = float_array(f"grid {name}", values)
            try:
                setattr(self, name, np.asarray(values, dtype=float))
            except (TypeError, ValueError) as exc:
                raise GridError(f"grid {name} is malformed: {exc}") from None
        coords = (self.cell_time, (i,)), (self.cell_logprice, (j,))
        if any(c.shape != n or not np.isfinite(c).all() for c, n in coords):
            raise GridError("cell_time and cell_logprice must hold one finite value per bin")
        try:
            if len(self.returns) != i or any(len(row) != j for row in self.returns):
                raise TypeError(f"expected {i} lists of {j} lists of returns")
            cells = _cells(self)
            values = float_array("grid returns", list(itertools.chain.from_iterable(cells)))
            counts = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
        except TypeError as exc:
            raise GridError(f"grid returns is malformed: {exc}") from None
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
        """The visited cells' returns end to end, their row-major flat indices,
        and how many returns each holds: (xs, cells, counts).

        The mask is the authoritative filter: cells with a False mask bit
        contribute nothing even if their lists hold data.
        """
        j_n = self.spec.n_price
        cells = np.flatnonzero(self.mask)
        xs, counts = _flatten([self.returns[c // j_n][c % j_n] for c in cells])
        return xs, cells, counts

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
        """The inverse of ``to_dict``; a field missing or unreadable is refused by name."""
        _require_fields("grid", d, cls)
        return cls(GridSpec.from_dict(d["spec"]), d["mask"], d["returns"], d["cell_time"],
                   d["cell_logprice"])


def _require_fields(what: str, d, cls) -> None:
    """Refuse ``d`` by name unless it is an object holding every field of
    ``cls``, each ``int`` or ``float`` field a JSON number of that type."""
    if not isinstance(d, dict):
        raise GridError(f"{what} must be an object, got {type(d).__name__}")
    for f in fields(cls):
        if f.name not in d:
            raise GridError(f"{what} has no field {f.name}")
        kinds = {"int": int, "float": (int, float)}.get(f.type)
        if kinds and (isinstance(d[f.name], bool) or not isinstance(d[f.name], kinds)):
            raise GridError(f"{what} {f.name} must be of type {f.type}, got {d[f.name]!r}")


_NUMBER_TYPES = (int, float, np.integer, np.floating, type(None))


def as_float(value) -> float:
    """A JSON number or null as a float: null reads as NaN and an integer too
    large for a float as inf of its sign, for a finiteness check to name."""
    if value is None:
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def float_array(what: str, values: list) -> np.ndarray:
    """The flat list ``values`` as a float array, refused by name unless each
    element is an int or a float, or None, each read by ``as_float``. A bool
    or a string is refused, although ``float`` would read it as a number."""
    odd = sorted({t.__name__ for t in set(map(type, values))
                  if t is bool or not issubclass(t, _NUMBER_TYPES)})
    if odd:
        raise GridError(f"{what} must hold numbers, not {', '.join(odd)}")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:  # an integer too large for a float
        return np.array([as_float(v) for v in values])


def mask_array(what: str, values) -> np.ndarray:
    """``values`` as a bool array, refused by name unless each element is 0,
    1, true or false: ``bool`` would read any other number or string as true."""
    try:
        mask = np.asarray(values)
    except ValueError as exc:
        raise GridError(f"{what} is malformed: {exc}") from None
    if mask.dtype.kind not in "biu" or ((mask != 0) & (mask != 1)).any():
        raise GridError(f"{what} must hold only 0, 1, true or false")
    return mask.astype(bool)


def assign_cell(time_norm, price, spec: GridSpec):
    """0-based (time, price) cell indices of a point, or of arrays of points.

    Normalized time and the price's place in the band, 0 at ``price_min`` and
    1 at ``price_max``, are each split into equal bins; a value at the upper
    end, or past either end, falls in the end bin.
    """
    frac = (price - spec.price_min) / (spec.price_max - spec.price_min)
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
    return GridData(
        spec=spec,
        mask=counts.reshape(spec.n_time, spec.n_price) > 0,
        returns=returns,
        cell_time=spec.cell_time,
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

