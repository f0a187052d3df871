"""Tick-data loading, synthesis, normalization and resampling, and the one
reader layer of every input file: ``_open_text`` opens it (UTF-8, a
byte-order mark skipped), ``_loadtxt_body`` parses a CSV body in bulk,
``_csv_rows`` gives a CSV's non-blank rows with their file lines, and
``_read_json`` reads JSON.

All times are seconds since session open; a regular US cash session is
23,400 seconds (09:30 to 16:00). Prices are plain currency units.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SESSION_SECONDS = 23_400.0
TRADING_DAYS = 252


class TickDataError(ValueError):
    """Malformed or degenerate tick input."""


@dataclass
class TickSeries:
    """Ordered ticks for one trading session, stored as parallel arrays."""

    times: np.ndarray
    prices: np.ndarray
    session_length: float = SESSION_SECONDS

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.prices.shape:
            raise TickDataError("times and prices must be 1-d arrays of equal length")
        if not 0 < self.session_length < np.inf:
            raise TickDataError(
                f"session_length must be positive and finite, got {self.session_length}")
        for name, values in (("times", self.times), ("prices", self.prices)):
            bad = ~np.isfinite(values)
            if bad.any():
                n = int(np.argmax(bad))
                raise TickDataError(f"tick {name} must be finite, got {values[n]} at index {n}")
        if self.times.size:
            if np.any(np.diff(self.times) < 0):
                raise TickDataError("tick times must be non-decreasing")
            if self.times[0] < 0:
                raise TickDataError("tick times must be >= 0")
        if np.any(self.prices <= 0):
            raise TickDataError("tick prices must be positive")

    def __len__(self) -> int:
        return int(self.times.size)


def _open_text(path):
    """The file at ``path`` open for reading as UTF-8 text, a byte-order mark
    skipped and line ends left to the reader (``newline=""``)."""
    return open(path, newline="", encoding="utf-8-sig")


def _csv_rows(path):
    """The ``(file line, fields)`` of each row of the CSV at ``path`` that
    holds a non-blank field; a row's line is the one it ends on."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        for row in reader:
            if any(field.strip() for field in row):
                yield reader.line_num, row


def _loadtxt_body(fh, **kw):
    """The rest of the open CSV ``fh`` parsed by one ``np.loadtxt`` call, or
    None where loadtxt refuses it. An empty body parses to an empty array."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: the callers refuse them
            return np.loadtxt(fh, delimiter=",", comments=None, **kw)
    except ValueError:  # also undecodable text, which the row reader names
        return None


def _read_json(path):
    """The JSON value in the file at ``path``; any ``ValueError``, undecodable
    text or an over-long integer included, is refused as ``not valid JSON``."""
    with _open_text(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None


def load_ticks(path, session_length: float = SESSION_SECONDS) -> TickSeries:
    """Read a tick CSV (header ``time_s,price`` on line 1) and return a
    sorted TickSeries.

    Rows are sorted ascending by time with a stable sort, so duplicate
    timestamps keep their file order. Errors name the offending file line.
    The rows are parsed in one ``np.loadtxt`` call; a file it refuses, or
    whose values do not all pass the checks, is read again row by row, which
    accepts what ``float`` accepts and names the first bad line.
    """
    table = None
    with _open_text(path) as fh:
        header = fh.readline()
        if header:
            row = next(csv.reader([header]))
            if [c.strip() for c in row[:2]] != ["time_s", "price"]:
                raise TickDataError(
                    f"{path}: line 1: expected header 'time_s,price', got {','.join(row)!r}"
                )
            table = _loadtxt_body(fh, usecols=(0, 1), ndmin=2)
    if (table is not None and table.size and np.isfinite(table).all()
            and np.all(table[:, 0] >= 0) and np.all(table[:, 1] > 0)):
        times, prices = table[:, 0], table[:, 1]
    else:
        times, prices = _parse_rows(path)
    order = np.argsort(times, kind="stable")
    return TickSeries(times[order], prices[order], session_length=session_length)


def _parse_rows(path):
    """(times, prices) of a tick CSV whose header was checked, row by row:
    the first bad row raises an error naming its file line."""
    times, prices = [], []
    for lineno, row in _csv_rows(path):
        if lineno == 1:
            continue
        if len(row) < 2:
            raise TickDataError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
        try:
            t = float(row[0])
            p = float(row[1])
        except ValueError as exc:
            raise TickDataError(f"{path}: line {lineno}: cannot parse row: {exc}") from exc
        if not math.isfinite(t):
            raise TickDataError(f"{path}: line {lineno}: non-finite time_s {t}")
        if t < 0:
            raise TickDataError(f"{path}: line {lineno}: negative time_s {t}")
        if not math.isfinite(p):
            raise TickDataError(f"{path}: line {lineno}: non-finite price {p}")
        if p <= 0:
            raise TickDataError(f"{path}: line {lineno}: non-positive price {p}")
        times.append(t)
        prices.append(p)
    if not times:
        raise TickDataError(f"{path}: file contains no tick rows")
    return np.asarray(times), np.asarray(prices)


def save_ticks(series: TickSeries, path) -> None:
    """Write a TickSeries in the tick CSV format (LF endings, repr floats)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("time_s,price\n")
        for t, p in zip(series.times, series.prices):
            fh.write(f"{float(t)!r},{float(p)!r}\n")


def synth_gbm_ticks(
    s0: float,
    mu: float,
    sigma: float,
    n_ticks: int,
    session_length: float = SESSION_SECONDS,
    trading_days: int = TRADING_DAYS,
    seed: int = 0,
) -> TickSeries:
    """Sample a geometric-Brownian session at n_ticks equispaced times.

    The log price follows drift ``mu`` per year and volatility ``sigma`` per
    sqrt-year, with one trading day spanning ``session_length`` seconds and
    ``trading_days`` days per year. Deterministic for a fixed seed.
    """
    if n_ticks < 2:
        raise TickDataError("synth_gbm_ticks needs n_ticks >= 2")
    if s0 <= 0:
        raise TickDataError("s0 must be positive")
    if sigma < 0:
        raise TickDataError("sigma must be non-negative")
    if trading_days < 1:
        raise TickDataError(f"trading_days must be >= 1, got {trading_days}")
    dt_years = 1.0 / ((n_ticks - 1) * trading_days)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_ticks - 1)
    steps = mu * dt_years + sigma * np.sqrt(dt_years) * z
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    times = np.linspace(0.0, session_length, n_ticks)
    return TickSeries(times, s0 * np.exp(cum), session_length=session_length)


def normalize_time(series: TickSeries) -> TickSeries:
    """Map session times onto [0, 1] (open -> 0, close -> 1)."""
    return TickSeries(
        series.times / series.session_length, series.prices.copy(), session_length=1.0
    )


def resample(series: TickSeries, interval: float) -> TickSeries:
    """Last-observation-carried-forward resampling at interval boundaries.

    Boundaries are the multiples of ``interval`` from 0 up to the last tick
    time; each carries the last price observed at or before it. Boundaries
    preceding the first tick are omitted.
    """
    if interval <= 0:
        raise TickDataError("resample interval must be positive")
    if len(series) == 0:
        return TickSeries(np.empty(0), np.empty(0), session_length=series.session_length)
    last = float(series.times[-1])
    # A time within 1e-9 of an interval of boundary k counts as on it, on
    # both sides: k * interval can divide back to just under k, and a tick
    # parsed from decimal text can land a few ulps past k * interval (2.1
    # against 3 * 0.7 = 2.0999999999999996).
    n_bounds = int(np.floor(last / interval + 1e-9)) + 1
    bounds = np.arange(n_bounds) * interval
    idx = np.searchsorted(series.times, bounds + 1e-9 * interval, side="right") - 1
    keep = idx >= 0
    return TickSeries(
        bounds[keep], series.prices[idx[keep]], session_length=series.session_length
    )


class TickSignals(NamedTuple):
    """What a session's tick log returns say about microstructure noise.

    ``zero_share`` is the share of returns that are exactly 0, as price
    rounding leaves them. ``autocorr`` is the returns' lag-1
    autocorrelation, with standard error ``autocorr_se`` = 1/sqrt(N) for N
    independent returns; additive noise and rounding both push it below 0.
    ``rv_ratio`` is the tick-level realized variance over that of the
    returns resampled at 5 minutes, a two-point volatility signature plot
    (Andersen, Bollerslev, Diebold & Labys 2000), about 1 when the ticks
    carry no noise. A statistic that the session cannot give (a single
    return, a constant price) is NaN or inf.
    """

    zero_share: float
    autocorr: float
    autocorr_se: float
    rv_ratio: float

    @property
    def noisy(self) -> bool:
        """The autocorrelation lies below -3 standard errors."""
        return self.autocorr < -3.0 * self.autocorr_se


def tick_signals(series: TickSeries) -> TickSignals:
    """The ``TickSignals`` of a series of at least 2 ticks. Reads only."""
    r = np.diff(np.log(series.prices))
    coarse = np.diff(np.log(resample(series, 300.0).prices))
    d = r - r.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        return TickSignals(
            zero_share=float(np.count_nonzero(r == 0.0) / r.size),
            autocorr=float(np.divide(d[1:] @ d[:-1], d @ d)),
            autocorr_se=1.0 / math.sqrt(r.size),
            rv_ratio=float(np.divide(r @ r, coarse @ coarse)),
        )
