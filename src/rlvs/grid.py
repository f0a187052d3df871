"""Time-price grid: presence mask and per-cell log-return observation sets.

The session is partitioned into ``n_time`` x ``n_price`` cells over
normalized time [0, 1] and a currency price band. ``GridSpec`` owns that
geometry: its bin midpoints and, through ``assign_cell``, the cell a point
falls in. Each consecutive-tick log return is attributed to the cell of its
*later* tick; the boolean mask marks cells the price path visited.
"""

from __future__ import annotations

import base64
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
        for name in ("n_time", "n_price"):
            if getattr(self, name) < 1:
                raise GridError(f"{name} must be >= 1, got {getattr(self, name)}")
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

    The returns are held as one flat record, the one ``observations()``
    gives: the visited cells' returns end to end in row-major order, and how
    many each holds. ``returns[i][j]``, the log returns observed in cell
    (i, j) as nested lists, is built from that record the first time it is
    read; from then on the lists are the record, so an edit made to them in
    place is seen. A grid constructed from nested lists keeps them as its
    record. ``mask[i, j]`` is True exactly when cell (i, j) holds returns.
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
        if "returns" in vars(self):  # nested lists, which stay the record
            try:
                if len(self.returns) != i or any(len(row) != j for row in self.returns):
                    raise TypeError(f"expected {i} lists of {j} lists of returns")
                values, counts = _flatten([c for row in self.returns for c in row])
            except TypeError as exc:
                raise GridError(f"grid returns is malformed: {exc}") from None
        else:
            values, counts = self._values, np.zeros(i * j, dtype=np.intp)
            counts[self.mask.ravel()] = self._counts
        bad = (counts > 0) != self.mask.ravel()
        bad[np.repeat(np.arange(i * j), counts)[~np.isfinite(values)]] = True
        if bad.any():
            ii, jj = divmod(int(np.argmax(bad)), j)
            if bool(self.mask[ii, jj]) != (counts[ii * j + jj] > 0):
                raise GridError(f"mask/returns mismatch at cell ({ii}, {jj})")
            raise GridError(f"non-finite return in cell ({ii}, {jj})")

    @classmethod
    def _from_flat(cls, spec, mask, values, counts, cell_time, cell_logprice) -> "GridData":
        """A grid whose record is ``values`` and ``counts``, laid out as
        ``observations()`` gives them, checked as the constructor checks
        nested lists; the lists are built only if ``returns`` is read."""
        grid = cls.__new__(cls)
        vars(grid).update(spec=spec, mask=mask, cell_time=cell_time, cell_logprice=cell_logprice,
                          _values=values, _counts=counts)
        values.flags.writeable = counts.flags.writeable = False  # observations() hands them out
        grid.__post_init__()
        return grid

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: ``returns`` of a grid
        # built from the flat record. The lists replace the record.
        if name != "returns" or "_values" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.returns = _nest(vars(self).pop("_values"), vars(self).pop("_counts"), self.mask)
        return self.returns

    def __eq__(self, other):
        """Equal spec, mask, cell coordinates and returns, the last compared
        as ``observations()`` gives them, so no nested lists are built."""
        if not isinstance(other, GridData):
            return NotImplemented
        (xs, _, counts), (other_xs, _, other_counts) = self.observations(), other.observations()
        return (self.spec == other.spec and np.array_equal(self.mask, other.mask)
                and np.array_equal(counts, other_counts) and np.array_equal(xs, other_xs)
                and np.array_equal(self.cell_time, other.cell_time)
                and np.array_equal(self.cell_logprice, other.cell_logprice))

    def n_observations(self) -> int:
        """How many returns ``observations()`` gives: those of the visited cells."""
        return len(self.observations()[0])

    def observations(self):
        """The visited cells' returns end to end, their row-major flat indices,
        and how many returns each holds: (xs, cells, counts).

        The mask is the authoritative filter: cells with a False mask bit
        contribute nothing even if their lists hold data.
        """
        cells = np.flatnonzero(self.mask)
        if "returns" not in vars(self):
            return self._values, cells, self._counts
        j_n = self.spec.n_price
        xs, counts = _flatten([self.returns[c // j_n][c % j_n] for c in cells])
        return xs, cells, counts

    def to_dict(self) -> dict:
        xs, _, counts = self.observations()  # the mask alone says which cells hold returns
        return {
            "spec": asdict(self.spec),
            "mask": self.mask.astype(int).tolist(),
            "returns": {"counts": counts.tolist(), "values": _pack_floats(xs)},
            "cell_time": self.cell_time.tolist(),
            "cell_logprice": self.cell_logprice.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridData":
        """The inverse of ``to_dict``, which also reads the nested ``returns`` of older files;
        a field missing or unreadable is refused by name, a misshapen mask by the constructor."""
        _require_fields("grid", d, cls)
        spec, returns = GridSpec.from_dict(d["spec"]), d["returns"]
        mask = mask_array("grid mask", d["mask"])
        if isinstance(returns, dict) and mask.shape == (spec.n_time, spec.n_price):
            if set(returns) != {"counts", "values"}:
                raise GridError("grid returns must hold exactly the fields counts and values, "
                                f"got {', '.join(sorted(returns)) or 'none'}")
            counts, visited = returns["counts"], np.flatnonzero(mask)
            if (not isinstance(counts, list) or len(counts) != visited.size
                    or any(type(c) is not int or c < 1 for c in counts)):
                raise GridError("grid returns counts must hold one integer >= 1 for each of "
                                f"the {visited.size} cells the grid's mask visits")
            raw, n = _unpack_floats("grid returns values", returns["values"]), sum(counts)
            if len(raw) != 8 * n:
                raise GridError(f"grid returns values holds {len(raw)} bytes, not {8 * n}: "
                                f"8 for each of the {n} returns its counts give")
            return cls._from_flat(spec, mask, np.frombuffer(raw, "<f8"),
                                  np.array(counts, dtype=np.intp), d["cell_time"],
                                  d["cell_logprice"])
        return cls(spec, mask, returns, d["cell_time"], d["cell_logprice"])


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


def _pack_floats(values) -> str:
    """The array ``values`` as the base64 (RFC 4648, padded, one line) of its
    row-major little-endian float64 bytes. Each value keeps all its bits, and
    a JSON parser reads one string where a list took one number a value."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _unpack_floats(what: str, text) -> bytes:
    """The bytes ``_pack_floats`` packed into ``text``, refused by name unless
    it is strict base64; the caller checks that they hold its floats."""
    try:
        return base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # not a string, binascii.Error, or beyond ASCII
        raise GridError(f"{what} is not strict base64 (RFC 4648, padded, with no line "
                        "breaks)") from None


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


def _flatten(cells: list):
    """(values, counts): the lists ``cells``' returns end to end, and how many
    each holds; an element that is not a number is refused by name."""
    counts = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    return float_array("grid returns", list(itertools.chain.from_iterable(cells))), counts


def _nest(values: np.ndarray, counts: np.ndarray, mask: np.ndarray) -> list:
    """Nested ``returns[i][j]`` lists from the visited cells' values laid out
    end to end in row-major order, ``counts`` of them per visited cell."""
    full = np.zeros(mask.size, dtype=np.intp)
    full[mask.ravel()] = counts
    cells = [c.tolist() for c in np.split(values, np.cumsum(full)[:-1])]
    return [cells[a:a + mask.shape[1]] for a in range(0, mask.size, mask.shape[1])]


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
    return GridData._from_flat(
        spec,
        mask=counts.reshape(spec.n_time, spec.n_price) > 0,
        values=log_ret[np.argsort(cell, kind="stable")],
        counts=counts[counts > 0],
        cell_time=spec.cell_time,
        cell_logprice=np.log(spec.price_mid / series.prices[0]),
    )


def standardize_returns(grid: GridData) -> tuple[GridData, float]:
    """Divide every observation, the returns ``observations()`` gives, by
    their pooled standard deviation.

    Returns the rescaled grid and the scale, so volatilities can be mapped
    back to raw return units later. The mask decides what is stored: returns
    placed in a cell the mask leaves unvisited are neither pooled nor kept.
    Returns that are all equal (zero pooled spread) are rejected: there is no
    volatility to model.
    """
    xs, _, counts = grid.observations()
    if xs.size == 0:
        raise GridError("standardize_returns needs at least one stored return")
    scale = float(np.std(xs))
    if scale <= 0.0:
        raise GridError(
            f"the {xs.size} stored return(s) all equal {float(xs[0])!r}, so their pooled "
            "standard deviation is zero; volatility is degenerate and cannot be standardized"
        )
    out = GridData._from_flat(grid.spec, grid.mask.copy(), xs / scale, counts,
                              grid.cell_time.copy(), grid.cell_logprice.copy())
    return out, scale
