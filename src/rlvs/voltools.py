"""Black-Scholes pricing, Newton-Raphson implied volatility and local
volatility from a call-price grid. Rates, yields and volatilities are annual
decimals; expiries are in years (252 trading days)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


# The standard normal CDF as scipy computes it (cephes ``ndtr``, ``erf`` and
# ``erfc`` by S. Moshier): the same branches, coefficients and Horner order
# on Python floats, with libm's exp through ``math.exp``, so prices match
# ``scipy.special.ndtr`` bit for bit without importing scipy. Only the
# branches ``ndtr`` reaches are kept, and the monic denominators (cephes
# ``p1evl``) carry their leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _polevl(x, coef):
    """Horner's rule, highest power first; for finite x the leading
    ``0 * x + c`` is exactly c."""
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def _erf(x):
    """erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x):
    """erfc for x >= 1; 0 once exp(-x * x) underflows."""
    if x * x > _MAXLOG:
        return 0.0
    z = math.exp(-x * x)
    if x < 8.0:
        return z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    return z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)


def _ndtr(a: float) -> float:
    """Standard normal CDF at a float, equal to ``scipy.special.ndtr``; NaN
    falls through every comparison to NaN."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * (1.0 - _erf(z) if z < 1.0 else _erfc(z))
    return 1.0 - y if x > 0 else y


class _Terms(NamedTuple):
    """The parts of a Black-Scholes price that do not depend on the vol."""

    df_s: float    # spot * exp(-yield_rate * expiry)
    df_k: float    # strike * exp(-rate * expiry)
    log_m: float   # log(spot / strike)
    drift: float   # rate - yield_rate
    expiry: float
    sqrt_t: float


def _terms(spot, strike, rate, yield_rate, expiry) -> _Terms:
    return _Terms(float(spot * np.exp(-yield_rate * expiry)),
                  float(strike * np.exp(-rate * expiry)),
                  float(np.log(spot / strike)), rate - yield_rate, expiry,
                  float(np.sqrt(expiry)))


def _d1(c: _Terms, vol):
    """(d1, vol * sqrt(expiry)); d2 is their difference."""
    srt = vol * c.sqrt_t
    return (c.log_m + (c.drift + 0.5 * vol * vol) * c.expiry) / srt, srt


def _price_vega(c: _Terms, vol, is_call: bool) -> tuple[float, float]:
    """Black-Scholes price and dPrice/dvol (the same for a call and a put)
    from one d1; inputs already checked.

    The normal pdf is scipy's own ``norm.pdf`` formula, with numpy's exp and
    ``d1 * d1`` for the square: a scalar ``d1**2`` takes another code path
    and differs in the last bit about once in 1,500 calls.
    """
    d1, srt = _d1(c, vol)
    d2 = d1 - srt
    if is_call:
        price = c.df_s * _ndtr(d1) - c.df_k * _ndtr(d2)
    else:
        price = c.df_k * _ndtr(-d2) - c.df_s * _ndtr(-d1)
    pdf1 = float(np.exp(-d1 * d1 / 2.0)) / _SQRT_2PI
    return price, c.df_s * pdf1 * c.sqrt_t


def _d1_d2(spot, strike, rate, yield_rate, expiry, vol):
    d1, srt = _d1(_terms(spot, strike, rate, yield_rate, expiry), vol)
    return d1, d1 - srt


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


def _vega(spot, strike, rate, yield_rate, expiry, vol) -> float:
    """dPrice/dvol, the same for a call and a put; inputs already checked."""
    return _price_vega(_terms(spot, strike, rate, yield_rate, expiry), vol, True)[1]


def no_arbitrage_bounds(quote: OptionQuote) -> tuple[float, float]:
    """(lower, upper) price bounds for a European quote."""
    c = _terms(quote.spot, quote.strike, quote.rate, quote.yield_rate, quote.expiry)
    if quote.is_call:
        return max(c.df_s - c.df_k, 0.0), c.df_s
    return max(c.df_k - c.df_s, 0.0), c.df_k


def implied_vol(quote: OptionQuote) -> float:
    """Newton-Raphson implied volatility with bracketed bisection fallback.

    Iterates until the volatility step stabilizes (well past the pricing
    tolerance of 1e-10 * spot), so round trips are accurate even deep out of
    the money where vega is tiny. The quote's vol-free terms are computed
    once, and each iterate's price and vega come from one d1.
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

    c = _terms(quote.spot, quote.strike, quote.rate, quote.yield_rate, quote.expiry)
    price_tol = 1e-10 * quote.spot
    lo, hi = 1e-12, 4.0
    while _price_vega(c, hi, quote.is_call)[0] < quote.mid_price:
        hi *= 2.0
        if hi > 1e6:
            raise VolToolsError("implied volatility bracket expansion failed")

    max_iter = 200
    sigma = min(max(0.3, lo), hi)  # Newton starts at 30 % vol
    price, vega = _price_vega(c, sigma, quote.is_call)
    diff = price - quote.mid_price
    for _ in range(max_iter):
        if diff > 0:
            hi = min(hi, sigma)
        else:
            lo = max(lo, sigma)
        if vega > 1e-14:
            step = diff / vega
            new = sigma - step
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
        else:
            new = 0.5 * (lo + hi)
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
