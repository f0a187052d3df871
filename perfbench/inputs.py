"""Benchmark inputs, made by the benchmark's own code.

Nothing here calls into ``rlvs``: the tick session is a geometric Brownian
motion drawn with NumPy from the workload seed, and the option quotes are
priced with a Black-Scholes formula written here, so a change to the program
cannot change the inputs it is measured on.

The session's tick increments are scaled so that its 5-minute realized vol
is exactly ``SIGMA``. Without that, 78 five-minute returns put the realized
vol of a day within 15 % of ``SIGMA`` only about 95 % of the time, and the
recovery check would fail on some seeds for reasons outside the program.

The quote chain does not depend on the seed. The program's Newton solver
takes from 6 to about 50 pricing calls per quote, depending on the quote, so
a chain redrawn per seed would make the comparison stage's time a property of
the draw rather than of the program. A fixed chain needs a fixed price band,
``BAND``, which the workloads pass to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SESSION_SECONDS = 23_400.0
TRADING_DAYS = 252
N_TICKS = 23_401          # one tick per second, open to close
SIGMA = 0.5               # the acceptance fixture's session
S0 = 1.0

BAND = (0.85, 1.15)       # grid price band; a σ = 0.5 day rarely leaves it
SPOT = 1.0                # quotes are struck against the session's open
QUOTE_EXPIRY = 0.1        # years
QUOTE_RATE = 0.0153
QUOTE_VOL_RANGE = (0.3, 0.7)


@dataclass(frozen=True)
class Session:
    times: np.ndarray
    prices: np.ndarray

    def realized_vol(self, step: int) -> float:
        """Annualized sample std of log returns over bins of ``step`` ticks."""
        p = self.prices[::step] if step else self.prices
        r = np.diff(np.log(p))
        return float(np.std(r, ddof=1) * math.sqrt(r.size * TRADING_DAYS))


@dataclass(frozen=True)
class Quote:
    strike: float
    vol: float
    mid: float
    is_call: bool


def gbm_session(seed: int) -> Session:
    """One s0 = 1 trading day with a tick every second and a 5-minute
    realized vol of exactly ``SIGMA``."""
    rng = np.random.default_rng([seed, 1])
    steps = rng.standard_normal(N_TICKS - 1)
    five_min = steps.reshape(-1, 300).sum(axis=1)
    steps *= SIGMA / (np.std(five_min, ddof=1) * math.sqrt(five_min.size * TRADING_DAYS))
    prices = S0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    return Session(np.linspace(0.0, SESSION_SECONDS, N_TICKS), prices)


def write_ticks(session: Session, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("time_s,price\n")
        fh.writelines(f"{float(t)!r},{float(p)!r}\n"
                      for t, p in zip(session.times, session.prices))


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(spot, strike, rate, expiry, vol, is_call) -> float:
    """European Black-Scholes price without dividends."""
    srt = vol * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / srt
    d2 = d1 - srt
    df = strike * math.exp(-rate * expiry)
    if is_call:
        return spot * _norm_cdf(d1) - df * _norm_cdf(d2)
    return df * _norm_cdf(-d2) - spot * _norm_cdf(-d1)


def quote_chain(n_quotes: int) -> list[Quote]:
    """Out-of-the-money quotes at distinct strikes strictly inside ``BAND``.

    Each quote is priced at its own vol from ``QUOTE_VOL_RANGE``, so the
    implied-vol round trip is checked at many vols, not one.
    """
    lo, hi = BAND
    pad = 0.02 * (hi - lo)
    strikes = np.linspace(lo + pad, hi - pad, n_quotes)
    vols = np.random.default_rng(2).uniform(*QUOTE_VOL_RANGE, n_quotes)
    chain = []
    for k, v in zip(strikes.tolist(), vols.tolist()):
        call = k >= SPOT
        chain.append(Quote(k, v, bs_price(SPOT, k, QUOTE_RATE, QUOTE_EXPIRY, v, call),
                           call))
    return chain


def write_quotes(chain: list[Quote], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("strike,expiry_years,mid,flag\n")
        fh.writelines(f"{q.strike!r},{QUOTE_EXPIRY!r},{q.mid!r},{'C' if q.is_call else 'P'}\n"
                      for q in chain)
