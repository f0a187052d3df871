"""Black-Scholes pricing, Newton-Raphson implied volatility and local
volatility from a call-price grid. Rates, yields and volatilities are annual
decimals; expiries are in years (252 trading days)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ingest import _csv_rows


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
        for name in ("strike", "expiry", "mid_price", "spot"):
            if getattr(self, name) <= 0:
                raise VolToolsError(f"{name} must be positive, got {getattr(self, name)!r}")


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


_SQRT1_2 = 0.70710678118654752440
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ndtr(a: float) -> float:
    """Standard normal CDF at a float, from libm's ``erfc``.

    Rounding ``a / sqrt(2)`` makes the relative error grow like eps * a^2
    in the lower tail: up to about 1,500 ulp near a = -37, as for scipy's
    ``ndtr``. Exactly 0 and 1 at -inf and +inf; NaN gives NaN.
    """
    return 0.5 * math.erfc(-a * _SQRT1_2)


class _Terms(NamedTuple):
    """The parts of a Black-Scholes price that do not depend on the vol."""

    df_s: float    # spot * exp(-yield_rate * expiry)
    df_k: float    # strike * exp(-rate * expiry)
    log_m: float   # log(spot / strike)
    drift: float   # rate - yield_rate
    expiry: float
    sqrt_t: float


def _terms(spot, strike, rate, yield_rate, expiry) -> _Terms:
    try:
        return _Terms(spot * math.exp(-yield_rate * expiry), strike * math.exp(-rate * expiry),
                      math.log(spot / strike), rate - yield_rate, expiry, math.sqrt(expiry))
    except (OverflowError, ValueError):  # an exp past the float range, or spot / strike == 0
        raise VolToolsError(f"spot {spot}, strike {strike}, rate {rate}, yield_rate "
                            f"{yield_rate} and expiry {expiry} leave the float range") from None


def _d1(c: _Terms, vol):
    """(d1, vol * sqrt(expiry)); d2 is their difference."""
    srt = vol * c.sqrt_t
    return (c.log_m + (c.drift + 0.5 * vol * vol) * c.expiry) / srt, srt


def _price_vega(c: _Terms, vol, is_call: bool) -> tuple[float, float]:
    """Black-Scholes price and dPrice/dvol (the same for a call and a put)
    from one d1; inputs already checked."""
    d1, srt = _d1(c, vol)
    d2 = d1 - srt
    if is_call:
        price = c.df_s * _ndtr(d1) - c.df_k * _ndtr(d2)
    else:
        price = c.df_k * _ndtr(-d2) - c.df_s * _ndtr(-d1)
    pdf1 = math.exp(-0.5 * d1 * d1) / _SQRT_2PI
    return price, c.df_s * pdf1 * c.sqrt_t


def _check_positive(spot, strike, expiry, vol):
    # One chained test per call; the loop only names the field.
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
    return _price_vega(_terms(spot, strike, rate, yield_rate, expiry), vol, is_call)[0]


def _bounds(quote: OptionQuote) -> tuple[_Terms, float, float]:
    """The quote's vol-free terms and its (lower, upper) price bounds."""
    c = _terms(quote.spot, quote.strike, quote.rate, quote.yield_rate, quote.expiry)
    if quote.is_call:
        return c, max(c.df_s - c.df_k, 0.0), c.df_s
    return c, max(c.df_k - c.df_s, 0.0), c.df_k


# No implied vol above this is sought: a quote whose mid only a larger vol
# reaches is refused.
_MAX_VOL = 1e6


def _start_vol(c: _Terms, mid: float, is_call: bool) -> float:
    """Corrado & Miller's (1996) closed-form estimate of the vol that prices
    ``mid``, from the discounted spot and strike; a put goes through
    put-call parity. 0.3 when the estimate is not positive and finite."""
    gap = c.df_s - c.df_k
    a = (mid if is_call else mid + gap) - 0.5 * gap
    root = math.sqrt(max(a * a - gap * gap / math.pi, 0.0))  # NaN passes through
    est = _SQRT_2PI * (a + root) / ((c.df_s + c.df_k) * c.sqrt_t)
    return est if 0.0 < est < math.inf else 0.3


def implied_vol(quote: OptionQuote) -> float:
    """Newton-Raphson implied volatility with bracketed bisection fallback.

    Newton starts from Corrado & Miller's closed-form estimate. The bracket
    starts as (1e-12, inf); its upper end stays open until an iterate prices
    above the mid, and while it is open a step that leaves it doubles the
    lower end instead of bisecting. A quote whose vol lies above 1e6 is
    refused. Iterates until the volatility step stabilizes (well past the
    pricing tolerance of 1e-10 * spot), so round trips are accurate even
    deep out of the money where vega is tiny. A Newton step under 1e-12 from
    an iterate that prices the mid within 1e-10 * spot ends the solve at
    once: the stepped vol is returned without pricing it, and an iterate
    that reprices the mid exactly is the root, whatever its vega. The quote's
    vol-free terms are computed once, for the bounds, the start and the
    iteration alike, and each iterate's price and vega come from one d1.
    """
    c, lower, upper = _bounds(quote)
    if quote.mid_price <= lower:
        raise VolToolsError(
            f"mid price {quote.mid_price} at or below no-arbitrage lower bound {lower:.6g}"
        )
    if quote.mid_price >= upper:
        raise VolToolsError(
            f"mid price {quote.mid_price} at or above no-arbitrage upper bound {upper:.6g}"
        )

    price_tol = 1e-10 * quote.spot
    lo, hi = 1e-12, math.inf
    max_iter = 200
    sigma = _start_vol(c, quote.mid_price, quote.is_call)
    price, vega = _price_vega(c, sigma, quote.is_call)
    diff = price - quote.mid_price
    for _ in range(max_iter):
        if diff == 0:  # the root, also where vega is below the Newton floor
            return float(sigma)
        if diff > 0:
            hi = min(hi, sigma)
        else:
            lo = max(lo, sigma)
        new = math.nan  # no Newton step: bisect, or double while hi is open
        if vega > 1e-14:
            step = diff / vega
            if abs(step) < 1e-12 and abs(diff) < price_tol:
                return float(sigma - step)
            new = sigma - step
        if not lo < new < min(hi, _MAX_VOL):
            if hi < math.inf:
                new = 0.5 * (lo + hi)
            elif 2.0 * lo <= _MAX_VOL:
                new = 2.0 * lo
            else:
                raise VolToolsError("implied volatility bracket expansion failed")
        moved = abs(new - sigma)
        sigma = new
        price, vega = _price_vega(c, sigma, quote.is_call)
        diff = price - quote.mid_price
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
    """Per-strike implied vols at one expiry, in ascending strike order;
    bound-violating quotes are skipped and reported rather than failing the
    whole curve, which is refused, naming each strike's reason, only when no
    quote has an implied vol."""
    good, skipped = [], []
    for q in quotes:
        try:
            good.append((q.strike, implied_vol(q)))
        except VolToolsError as exc:
            skipped.append((q.strike, str(exc)))
    if not good:
        reasons = "; ".join(f"strike {k}: {r}" for k, r in skipped)
        raise VolToolsError(f"no valid quotes: {reasons or 'none given'}")
    good.sort(key=lambda kv: kv[0])
    return ImpliedCurve(
        strikes=np.asarray([kv[0] for kv in good]),
        vols=np.asarray([kv[1] for kv in good]),
        skipped=skipped,
    )


def load_quotes(path, spot: float, rate: float = 0.0,
                yield_rate: float = 0.0) -> list[OptionQuote]:
    """Read quote CSV rows `strike,expiry_years,mid,flag` (flag C or P); a
    UTF-8 byte-order mark is skipped.
    A bad ``spot``, ``rate`` or ``yield_rate`` is refused by name before any
    row is read, so that no line takes the blame for it."""
    OptionQuote(1.0, 1.0, 1.0, True, spot, rate, yield_rate)  # the other fields are valid
    quotes = []
    for lineno, row in _csv_rows(path):
        if lineno == 1 and row[0].strip().lower() == "strike":
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
            quotes.append(OptionQuote(strike, expiry, mid, flag == "C", spot, rate, yield_rate))
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
