"""Black-Scholes pricing, Newton-Raphson implied volatility and local
volatility from a call-price grid. Rates, yields and volatilities are annual
decimals; expiries are in years (252 trading days)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


class VolToolsError(ValueError):
    pass


@dataclass
class OptionQuote:
    strike: float
    expiry: float
    mid_price: float
    is_call: bool
    spot: float
    rate: float = 0.0
    yield_rate: float = 0.0

    def __post_init__(self):
        for name in ("strike", "expiry", "mid_price", "spot", "rate", "yield_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise VolToolsError(f"{name} must be finite, got {value!r}")
        if self.strike <= 0 or self.spot <= 0 or self.mid_price <= 0:
            raise VolToolsError("strike, spot and mid_price must be positive")
        if self.expiry <= 0:
            raise VolToolsError("expiry must be positive")


@dataclass
class CallGrid:
    strikes: np.ndarray
    expiries: np.ndarray
    prices: np.ndarray  # shape (len(expiries), len(strikes))

    def __post_init__(self):
        self.strikes = np.asarray(self.strikes, dtype=float)
        self.expiries = np.asarray(self.expiries, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        for name in ("strikes", "expiries", "prices"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise VolToolsError(f"{name} must be finite")
        if np.any(np.diff(self.strikes) <= 0) or np.any(np.diff(self.expiries) <= 0):
            raise VolToolsError("strikes and expiries must be strictly ascending")
        if self.prices.shape != (self.expiries.size, self.strikes.size):
            raise VolToolsError("prices must be (n_expiries, n_strikes)")
        if np.any(self.prices < 0):
            raise VolToolsError("call prices must be non-negative")


def _d1_d2(spot, strike, rate, yield_rate, expiry, vol):
    srt = vol * np.sqrt(expiry)
    d1 = (np.log(spot / strike) + (rate - yield_rate + 0.5 * vol * vol) * expiry) / srt
    return d1, d1 - srt


def _check_positive(spot, strike, expiry, vol):
    # One chained test per call on the Newton path; the loop only names the field.
    if not (0.0 < spot < math.inf and 0.0 < strike < math.inf
            and 0.0 < expiry < math.inf and 0.0 < vol < math.inf):
        for name, value in (("spot", spot), ("strike", strike), ("expiry", expiry), ("vol", vol)):
            if not 0.0 < value < math.inf:
                raise VolToolsError(f"{name} must be positive and finite, got {value!r}")


def bs_price(spot, strike, rate, yield_rate, expiry, vol, is_call: bool = True) -> float:
    _check_positive(spot, strike, expiry, vol)
    if not (math.isfinite(rate) and math.isfinite(yield_rate)):
        name, value = ("rate", rate) if not math.isfinite(rate) else ("yield_rate", yield_rate)
        raise VolToolsError(f"{name} must be finite, got {value!r}")
    d1, d2 = _d1_d2(spot, strike, rate, yield_rate, expiry, vol)
    df_s = spot * np.exp(-yield_rate * expiry)
    df_k = strike * np.exp(-rate * expiry)
    if is_call:
        return float(df_s * ndtr(d1) - df_k * ndtr(d2))
    return float(df_k * ndtr(-d2) - df_s * ndtr(-d1))


def _vega(spot, strike, rate, yield_rate, expiry, vol) -> float:
    """dPrice/dvol, the same for a call and a put; inputs already checked.

    The normal pdf is scipy's own formula, with ``d1 * d1`` for the square:
    a scalar ``d1**2`` takes another code path and differs in the last bit
    about once in 1,500 calls.
    """
    d1, _ = _d1_d2(spot, strike, rate, yield_rate, expiry, vol)
    pdf1 = np.exp(-d1 * d1 / 2.0) / np.sqrt(2.0 * np.pi)
    return float(spot * np.exp(-yield_rate * expiry) * pdf1 * np.sqrt(expiry))


def no_arbitrage_bounds(quote: OptionQuote) -> tuple[float, float]:
    """(lower, upper) price bounds for a European quote."""
    df_s = quote.spot * np.exp(-quote.yield_rate * quote.expiry)
    df_k = quote.strike * np.exp(-quote.rate * quote.expiry)
    if quote.is_call:
        return max(df_s - df_k, 0.0), df_s
    return max(df_k - df_s, 0.0), df_k


def implied_vol(quote: OptionQuote) -> float:
    """Newton-Raphson implied volatility with bracketed bisection fallback.

    Iterates until the volatility step stabilizes (well past the pricing
    tolerance of 1e-10 * spot), so round trips are accurate even deep out of
    the money where vega is tiny.
    """
    lower, upper = no_arbitrage_bounds(quote)
    if quote.mid_price <= lower:
        raise VolToolsError(
            f"mid price {quote.mid_price} at or below no-arbitrage lower bound {lower:.6g}"
        )
    if quote.mid_price >= upper:
        raise VolToolsError(
            f"mid price {quote.mid_price} at or above no-arbitrage upper bound {upper:.6g}"
        )

    def price(v):
        return bs_price(quote.spot, quote.strike, quote.rate, quote.yield_rate,
                        quote.expiry, v, quote.is_call)

    price_tol = 1e-10 * quote.spot
    lo, hi = 1e-12, 4.0
    while price(hi) < quote.mid_price:
        hi *= 2.0
        if hi > 1e6:
            raise VolToolsError("implied volatility bracket expansion failed")

    max_iter = 200
    sigma = min(max(0.3, lo), hi)  # Newton starts at 30 % vol
    diff = price(sigma) - quote.mid_price
    for _ in range(max_iter):
        if diff > 0:
            hi = min(hi, sigma)
        else:
            lo = max(lo, sigma)
        vega = _vega(quote.spot, quote.strike, quote.rate, quote.yield_rate,
                     quote.expiry, sigma)
        if vega > 1e-14:
            step = diff / vega
            new = sigma - step
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
        else:
            new = 0.5 * (lo + hi)
        moved = abs(new - sigma)
        sigma = new
        diff = price(sigma) - quote.mid_price
        if moved < 1e-12 and abs(diff) < price_tol:
            return float(sigma)
    if abs(diff) < price_tol:
        return float(sigma)
    raise VolToolsError(
        f"implied volatility did not converge after {max_iter} iterations "
        f"(strike {quote.strike}, mid {quote.mid_price})"
    )


def _central_first(f_minus, f_0, f_plus, h_minus, h_plus):
    return (
        f_plus * h_minus / (h_plus * (h_minus + h_plus))
        + f_0 * (h_plus - h_minus) / (h_minus * h_plus)
        - f_minus * h_plus / (h_minus * (h_minus + h_plus))
    )


def _central_second(f_minus, f_0, f_plus, h_minus, h_plus):
    return 2.0 * (
        f_plus / (h_plus * (h_minus + h_plus))
        - f_0 / (h_minus * h_plus)
        + f_minus / (h_minus * (h_minus + h_plus))
    )


def dupire_local_vol(grid: CallGrid, rate: float, yield_rate: float,
                     strike: float, expiry: float) -> float:
    """Local volatility at an interior grid node via central differences.

    sqrt( (dC/dT + (r - d) * (K dC/dK - C)) / (0.5 K^2 d2C/dK2) ).
    """
    j = int(np.argmin(np.abs(grid.strikes - strike)))
    i = int(np.argmin(np.abs(grid.expiries - expiry)))
    if abs(grid.strikes[j] - strike) > 1e-9 * max(1.0, abs(strike)):
        raise VolToolsError(f"strike {strike} is not a grid node")
    if abs(grid.expiries[i] - expiry) > 1e-9 * max(1.0, abs(expiry)):
        raise VolToolsError(f"expiry {expiry} is not a grid node")
    if not 0 < j < grid.strikes.size - 1 or not 0 < i < grid.expiries.size - 1:
        raise VolToolsError("(strike, expiry) must be interior to the grid")

    c = grid.prices
    k = grid.strikes[j]
    dc_dt = _central_first(
        c[i - 1, j], c[i, j], c[i + 1, j],
        grid.expiries[i] - grid.expiries[i - 1],
        grid.expiries[i + 1] - grid.expiries[i],
    )
    h_m = grid.strikes[j] - grid.strikes[j - 1]
    h_p = grid.strikes[j + 1] - grid.strikes[j]
    dc_dk = _central_first(c[i, j - 1], c[i, j], c[i, j + 1], h_m, h_p)
    d2c_dk2 = _central_second(c[i, j - 1], c[i, j], c[i, j + 1], h_m, h_p)

    denom = 0.5 * k * k * d2c_dk2
    if denom <= 0:
        raise VolToolsError(
            "non-positive strike convexity (butterfly arbitrage in input prices)"
        )
    numer = dc_dt + (rate - yield_rate) * (k * dc_dk - c[i, j])
    if numer < 0:
        raise VolToolsError("negative local variance (calendar arbitrage in input prices)")
    return float(np.sqrt(numer / denom))


@dataclass
class ImpliedCurve:
    strikes: np.ndarray
    vols: np.ndarray
    skipped: list  # (strike, reason) pairs


def implied_curve(quotes) -> ImpliedCurve:
    """Per-strike implied vols at one expiry; bound-violating quotes are
    skipped and reported rather than failing the whole curve."""
    quotes = list(quotes)
    if len(quotes) < 2:
        raise VolToolsError("implied_curve needs at least 2 quotes")
    good, skipped = [], []
    for q in quotes:
        try:
            good.append((q.strike, implied_vol(q)))
        except VolToolsError as exc:
            skipped.append((q.strike, str(exc)))
    if not good:
        raise VolToolsError("no valid quotes: " + "; ".join(r for _, r in skipped))
    good.sort(key=lambda kv: kv[0])
    return ImpliedCurve(
        strikes=np.asarray([kv[0] for kv in good]),
        vols=np.asarray([kv[1] for kv in good]),
        skipped=skipped,
    )


def load_quotes(path, spot: float, rate: float = 0.0,
                yield_rate: float = 0.0) -> list[OptionQuote]:
    """Read quote CSV rows `strike,expiry_years,mid,flag` (flag C or P)."""
    quotes = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0].strip().lower() == "strike":
                continue
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 4:
                raise VolToolsError(f"{path}: line {lineno}: expected 4 columns")
            try:
                strike, expiry, mid = float(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise VolToolsError(f"{path}: line {lineno}: {exc}") from exc
            flag = row[3].strip().upper()
            if flag not in ("C", "P"):
                raise VolToolsError(f"{path}: line {lineno}: flag must be C or P")
            try:
                quotes.append(OptionQuote(strike, expiry, mid, flag == "C",
                                          spot, rate, yield_rate))
            except VolToolsError as exc:
                raise VolToolsError(f"{path}: line {lineno}: {exc}") from exc
    if not quotes:
        raise VolToolsError(f"{path}: no quotes found")
    return quotes


def save_implied_curve(curve: ImpliedCurve, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("strike,iv\n")
        for k, v in zip(curve.strikes, curve.vols):
            fh.write(f"{float(k)!r},{float(v)!r}\n")
