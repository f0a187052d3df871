import codecs

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from rlvs import voltools
from rlvs.voltools import (
    CallGrid,
    OptionQuote,
    VolToolsError,
    _d1,
    _ndtr,
    _price_vega,
    _terms,
    bs_price,
    dupire_local_vol,
    implied_curve,
    implied_vol,
    load_quotes,
    save_implied_curve,
)

EPS = np.finfo(float).eps


def flat_call_grid(sigma=0.25, spot=100.0, strikes=None, expiries=None,
                   rate=0.0, yield_rate=0.0):
    strikes = strikes if strikes is not None else np.arange(70.0, 131.0, 2.5)
    expiries = expiries if expiries is not None else np.arange(0.2, 1.21, 0.05)
    prices = np.array([
        [bs_price(spot, k, rate, yield_rate, t, sigma) for k in strikes]
        for t in expiries
    ])
    return CallGrid(strikes, expiries, prices)


class TestBsPrice:
    def test_atm_forward_reduction(self):
        s, sigma, t = 100.0, 0.3, 0.7
        expected = s * (2.0 * norm.cdf(sigma * np.sqrt(t) / 2.0) - 1.0)
        assert bs_price(s, s, 0.0, 0.0, t, sigma) == pytest.approx(expected, rel=1e-12)

    def test_zero_vol_limit(self):
        for k in (80.0, 100.0, 120.0):
            c = bs_price(100.0, k, 0.03, 0.01, 0.5, 1e-12)
            intrinsic = max(100.0 * np.exp(-0.01 * 0.5) - k * np.exp(-0.03 * 0.5), 0.0)
            assert c == pytest.approx(intrinsic, abs=1e-9)

    def test_put_call_parity_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.uniform(10, 500)
            k = rng.uniform(0.5 * s, 1.5 * s)
            r = rng.uniform(-0.02, 0.1)
            q = rng.uniform(0.0, 0.05)
            t = rng.uniform(0.05, 3.0)
            v = rng.uniform(0.05, 1.5)
            c = bs_price(s, k, r, q, t, v, True)
            p = bs_price(s, k, r, q, t, v, False)
            assert c - p == pytest.approx(s * np.exp(-q * t) - k * np.exp(-r * t), abs=1e-10)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(VolToolsError):
            bs_price(-1.0, 100.0, 0.0, 0.0, 1.0, 0.2)
        with pytest.raises(VolToolsError):
            bs_price(100.0, 100.0, 0.0, 0.0, 0.0, 0.2)
        with pytest.raises(VolToolsError):
            bs_price(100.0, 100.0, 0.0, 0.0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["spot", "strike", "expiry", "vol"])
    def test_rejects_non_finite_inputs(self, field, bad):
        args = {"spot": 100.0, "strike": 100.0, "rate": 0.0, "yield_rate": 0.0,
                "expiry": 1.0, "vol": 0.2}
        args[field] = bad
        with pytest.raises(VolToolsError, match=f"{field} must be positive and finite, got {bad!r}"):
            bs_price(**args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["rate", "yield_rate"])
    def test_rejects_non_finite_rates(self, field, bad):
        args = {"spot": 100.0, "strike": 100.0, "rate": 0.0, "yield_rate": 0.0,
                "expiry": 1.0, "vol": 0.2}
        args[field] = bad
        with pytest.raises(VolToolsError, match=f"{field} must be finite, got {bad!r}"):
            bs_price(**args)

    @pytest.mark.parametrize("spot,strike,rate,yield_rate", [
        (100.0, 100.0, -1000.0, 0.0), (100.0, 100.0, 0.0, -1000.0), (1e-300, 1e300, 0.0, 0.0)])
    def test_terms_past_float_range_named(self, spot, strike, rate, yield_rate):
        # A discount factor of exp(1000), or a log-moneyness of log(0).
        with pytest.raises(VolToolsError, match=f"rate {rate}, .* leave the float range"):
            bs_price(spot, strike, rate, yield_rate, 1.0, 0.2)
        quote = OptionQuote(strike, 1.0, 1.0, True, spot, rate, yield_rate)
        with pytest.raises(VolToolsError, match="no valid quotes: .* leave the float range"):
            implied_curve([quote, quote])

    def test_within_ndtr_bound_of_scipy_norm_cdf(self):
        # Each price carries _ndtr's bound, 4 eps (1 + d^2) relative, on the
        # larger of its two discounted terms; measured worst 1.44 of it. Deep
        # out of the money the two terms cancel, so relative to the price
        # itself the worst is 9.1e-12 (a price of 1.3e-64).
        rng = np.random.default_rng(6)
        for _ in range(1000):
            s, k = rng.uniform(1, 500, 2)
            r, q = rng.uniform(-0.02, 0.1), rng.uniform(0.0, 0.05)
            t, v = rng.uniform(0.002, 5.0), rng.uniform(0.01, 5.0)
            d1, srt = _d1(_terms(s, k, r, q, t), v)
            d2 = d1 - srt
            df_s, df_k = s * np.exp(-q * t), k * np.exp(-r * t)
            bound = 4.0 * EPS * (1.0 + max(d1 * d1, d2 * d2))
            call = (df_s * norm.cdf(d1), df_k * norm.cdf(d2))
            put = (df_k * norm.cdf(-d2), df_s * norm.cdf(-d1))
            for is_call, (a, b) in ((True, call), (False, put)):
                assert abs(bs_price(s, k, r, q, t, v, is_call) - float(a - b)) <= bound * max(a, b)


class TestNdtr:
    def test_within_relative_bound_of_scipy_ndtr(self):
        # Relative error within 4 eps (1 + a^2): rounding a / sqrt(2) costs
        # about eps a^2 in the lower tail. Measured worst 2.57 (2.14 on the
        # linspace). Results below the smallest normal double (a < -37.5)
        # have no relative accuracy; their absolute error is within 0.3 % of
        # it. The edges are those of scipy's cephes branches: |a| = 1,
        # sqrt(2), 8 sqrt(2) and about 37.68, where exp(-a * a / 2) underflows.
        rng = np.random.default_rng(8)
        edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 709.782712893384)]
        near = [sign * e + k * np.spacing(e) for e in edges for sign in (1.0, -1.0)
                for k in range(-300, 301)]
        xs = np.concatenate([rng.normal(0.0, 3.0, 100_000), rng.uniform(-40.0, 40.0, 50_000),
                             near, np.linspace(-38.0, 9.0, 200_001)])
        ours = np.array([_ndtr(x) for x in xs.tolist()])
        ref = ndtr(xs)
        bound = 4.0 * EPS * (1.0 + xs * xs) * ref + np.finfo(float).tiny
        assert np.all(np.abs(ours - ref) <= bound)
        exact = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf]
        assert [_ndtr(x) for x in exact] == ndtr(exact).tolist()
        assert np.isnan(_ndtr(np.nan))


class TestOptionQuote:
    FIELDS = {"strike": 105.0, "expiry": 0.5, "mid_price": 2.0, "is_call": True,
              "spot": 100.0, "rate": 0.01, "yield_rate": 0.0}

    @pytest.mark.parametrize("field", ["strike", "expiry", "mid_price", "spot",
                                       "rate", "yield_rate"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_named(self, field, bad):
        with pytest.raises(VolToolsError, match=f"^{field} must be finite, got {bad!r}$"):
            OptionQuote(**{**self.FIELDS, field: bad})

    def test_load_quotes_names_line(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("strike,expiry_years,mid,flag\n95,0.004,0.5,P\nnan,0.004,0.4,C\n")
        with pytest.raises(VolToolsError, match="line 3: strike must be finite, got nan"):
            load_quotes(path, spot=100.0)

    def test_load_quotes_names_the_line_after_a_two_line_field(self, tmp_path):
        # The quoted flag of line 2 ends on line 3.
        path = tmp_path / "quotes.csv"
        path.write_text('strike,expiry_years,mid,flag\n95,0.004,0.5,"P\n"\nnan,0.004,0.4,C\n')
        with pytest.raises(VolToolsError, match="line 4: strike must be finite, got nan"):
            load_quotes(path, spot=100.0)

    @pytest.mark.parametrize("field", ["strike", "expiry", "mid_price", "spot"])
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_field_named(self, field, bad):
        with pytest.raises(VolToolsError, match=f"^{field} must be positive, got {bad!r}$"):
            OptionQuote(**{**self.FIELDS, field: bad})

    def test_load_quotes_skips_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one.
        text = "strike,expiry_years,mid,flag\n95,0.004,0.5,P\n105,0.004,0.4,C\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(codecs.BOM_UTF8)
        assert load_quotes(marked, spot=100.0) == load_quotes(plain, spot=100.0)
        assert len(load_quotes(plain, spot=100.0)) == 2

    def test_load_quotes_names_spot(self, tmp_path):
        # Refused before any row is read: no line of the file is at fault.
        path = tmp_path / "quotes.csv"
        path.write_text("strike,expiry_years,mid,flag\n95,0.004,0.5,P\n")
        with pytest.raises(VolToolsError, match="^spot must be finite, got inf$"):
            load_quotes(path, spot=float("inf"))


class TestVega:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            s = rng.uniform(50, 200)
            k = rng.uniform(0.8 * s, 1.2 * s)
            r, q = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.03)
            t, v = rng.uniform(0.1, 2.0), rng.uniform(0.1, 0.8)
            is_call = bool(rng.integers(2))
            h = v * 1e-5
            v_fd = (bs_price(s, k, r, q, t, v + h, is_call)
                    - bs_price(s, k, r, q, t, v - h, is_call)) / (2.0 * h)
            assert _price_vega(_terms(s, k, r, q, t), v, True)[1] == pytest.approx(
                v_fd, rel=1e-6, abs=1e-8)

    def test_call_put_vega_equal(self):
        # Put-call parity makes the call and put prices differ by a term free
        # of vol, so their slopes in vol agree.
        h = 1e-5
        c_fd = (bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 + h, True)
                - bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 - h, True)) / (2.0 * h)
        p_fd = (bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 + h, False)
                - bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 - h, False)) / (2.0 * h)
        assert c_fd == pytest.approx(p_fd, rel=1e-8)
        assert _price_vega(_terms(100.0, 90.0, 0.03, 0.01, 0.6), 0.4, True)[1] == pytest.approx(
            c_fd, rel=1e-8)

    def test_within_four_eps_of_scipy_norm_pdf(self):
        # Measured worst relative error 5.6e-16 (2.5 eps).
        rng = np.random.default_rng(5)
        args = [(rng.uniform(1, 500), rng.uniform(1, 500), rng.uniform(-0.02, 0.1),
                 rng.uniform(0.0, 0.05), rng.uniform(0.002, 5.0), rng.uniform(0.01, 5.0))
                for _ in range(20_000)]
        pdf = norm.pdf(np.array([_d1(_terms(*a[:5]), a[5])[0] for a in args]))
        ours = [_price_vega(_terms(*a[:5]), a[5], True)[1] for a in args]
        s, _, _, q, t, _ = np.array(args).T
        np.testing.assert_allclose(ours, s * np.exp(-q * t) * pdf * np.sqrt(t),
                                   rtol=4.0 * EPS, atol=0.0)


def scipy_implied_vol(q):
    """implied_vol's Newton iteration with every price and vega computed through
    scipy, each from the quote's raw fields, as the solver did while the
    package imported scipy."""
    def price(v):
        d1, srt = _d1(_terms(q.spot, q.strike, q.rate, q.yield_rate, q.expiry), v)
        d2 = d1 - srt
        df_s = q.spot * np.exp(-q.yield_rate * q.expiry)
        df_k = q.strike * np.exp(-q.rate * q.expiry)
        if q.is_call:
            return float(df_s * ndtr(d1) - df_k * ndtr(d2))
        return float(df_k * ndtr(-d2) - df_s * ndtr(-d1))

    def vega(v):
        d1 = _d1(_terms(q.spot, q.strike, q.rate, q.yield_rate, q.expiry), v)[0]
        pdf1 = norm.pdf(np.array([d1]))[0]
        return float(q.spot * np.exp(-q.yield_rate * q.expiry) * pdf1 * np.sqrt(q.expiry))

    lo, hi = 1e-12, 4.0
    while price(hi) < q.mid_price:
        hi *= 2.0
    sigma = 0.3
    diff = price(sigma) - q.mid_price
    for _ in range(200):
        if diff > 0:
            hi = min(hi, sigma)
        else:
            lo = max(lo, sigma)
        vg = vega(sigma)
        if vg > 1e-14:
            step = diff / vg
            if abs(step) < 1e-12 and abs(diff) < 1e-10 * q.spot:
                return sigma - step
            new = sigma - step
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
        else:
            new = 0.5 * (lo + hi)
        moved, sigma = abs(new - sigma), new
        diff = price(sigma) - q.mid_price
        if moved < 1e-12 and abs(diff) < 1e-10 * q.spot:
            return sigma
    raise AssertionError("reference solver did not converge")


class TestImpliedVol:
    def test_simple_round_trip(self):
        price = bs_price(100.0, 105.0, 0.02, 0.0, 0.5, 0.2)
        q = OptionQuote(105.0, 0.5, price, True, 100.0, 0.02, 0.0)
        assert implied_vol(q) == pytest.approx(0.2, abs=1e-8)

    def test_round_trip_grid(self):
        # OTM quotes per strike (market convention): an ITM price carries its
        # vol information only in a sliver of extrinsic value that falls
        # below double-precision resolution at low vols, so the OTM side is
        # the well-posed inversion.
        for sigma in (0.05, 0.5, 1.5, 3.0):
            for m in (0.7, 0.85, 1.0, 1.15, 1.3):
                for t in (0.25, 1.0):
                    k = 100.0 * m
                    is_call = m >= 1.0
                    price = bs_price(100.0, k, 0.01, 0.005, t, sigma, is_call)
                    q = OptionQuote(k, t, price, is_call, 100.0, 0.01, 0.005)
                    assert implied_vol(q) == pytest.approx(sigma, abs=1e-6)

    def test_below_intrinsic_names_bound(self):
        q = OptionQuote(80.0, 0.5, 15.0, True, 100.0, 0.0, 0.0)  # intrinsic 20
        with pytest.raises(VolToolsError, match="lower bound"):
            implied_vol(q)

    def test_above_upper_bound(self):
        q = OptionQuote(100.0, 0.5, 101.0, True, 100.0, 0.0, 0.0)
        with pytest.raises(VolToolsError, match="upper bound"):
            implied_vol(q)

    @pytest.mark.parametrize("vol", [4.5, 6.0, 9.0, 15.0])
    @pytest.mark.parametrize("moneyness", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("expiry", [0.02, 0.1])
    def test_vols_above_4_land_on_their_vol(self, vol, moneyness, expiry):
        # No up-front bracket: the upper end stays open until an iterate
        # prices above the mid. Measured worst 8.9e-15.
        is_call = moneyness >= 1.0
        price = bs_price(1.0, moneyness, 0.0, 0.0, expiry, vol, is_call)
        quote = OptionQuote(moneyness, expiry, price, is_call, 1.0)
        assert implied_vol(quote) == pytest.approx(vol, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("is_call", [True, False])
    def test_vol_above_1e6_refused(self, is_call):
        # A mid 1e-12 below the upper bound needs a vol near 4.5e6 at this
        # expiry, past the largest sought.
        upper = voltools._bounds(OptionQuote(1.1, 1e-11, 0.5, is_call, 1.0))[2]
        quote = OptionQuote(1.1, 1e-11, upper * (1.0 - 1e-12), is_call, 1.0)
        with pytest.raises(VolToolsError, match="bracket expansion failed"):
            implied_vol(quote)
        quote.mid_price = upper
        with pytest.raises(VolToolsError, match="at or above no-arbitrage upper bound"):
            implied_vol(quote)

    def test_start_falls_back_when_estimate_overflows(self):
        # At spot and strike 1e200 the estimate's square overflows: Newton
        # starts at 0.3 and still lands on the vol.
        price = bs_price(1e200, 1e200, 0.0, 0.0, 0.5, 0.4)
        quote = OptionQuote(1e200, 0.5, price, True, 1e200)
        assert voltools._start_vol(_terms(1e200, 1e200, 0.0, 0.0, 0.5), price, True) == 0.3
        assert implied_vol(quote) == pytest.approx(0.4, rel=1e-12)

    def test_start_near_vol_at_the_money(self):
        # Corrado & Miller's estimate is close at the money (measured 0.29944
        # for 0.3); a put goes through put-call parity to its call's start.
        c = _terms(100.0, 100.0, 0.02, 0.01, 0.5)
        call, put = (bs_price(100.0, 100.0, 0.02, 0.01, 0.5, 0.3, is_call)
                     for is_call in (True, False))
        start = voltools._start_vol(c, call, True)
        assert start == pytest.approx(0.3, rel=5e-3)
        assert voltools._start_vol(c, put, False) == pytest.approx(start, rel=1e-12)

    def test_within_1e_10_of_scipy_solver(self):
        # Measured worst 3.6e-11 in vol: inside the 1e-10 * spot price
        # tolerance both solvers stop at.
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = rng.uniform(1.0, 500.0)
            k = s * np.exp(rng.normal(0.0, 0.2))
            r, q, t = rng.uniform(-0.02, 0.1), rng.uniform(0.0, 0.05), rng.uniform(0.01, 3.0)
            is_call = bool(rng.integers(2))
            price = bs_price(s, k, r, q, t, rng.uniform(0.05, 2.0), is_call)
            quote = OptionQuote(k, t, price, is_call, s, r, q)
            assert implied_vol(quote) == pytest.approx(scipy_implied_vol(quote), rel=0.0,
                                                       abs=1e-10)

    def test_chain_lands_on_generating_vols(self):
        # 200 OTM strikes priced at their own vols. Measured worst 1.2e-15; a
        # solver that bisects away from an iterate repricing the mid exactly
        # ends up to 9.5e-13 off.
        strikes = np.linspace(0.85, 1.15, 202)[1:-1].tolist()
        vols = np.random.default_rng(0).uniform(0.3, 0.7, len(strikes)).tolist()
        for k, vol in zip(strikes, vols):
            price = bs_price(1.0, k, 0.0153, 0.0, 0.1, vol, k >= 1.0)
            quote = OptionQuote(k, 0.1, price, k >= 1.0, 1.0, 0.0153, 0.0)
            assert implied_vol(quote) == pytest.approx(vol, rel=0.0, abs=1e-14)


def count_evaluations(monkeypatch) -> list:
    """A list that grows by one on each price-and-vega evaluation."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _price_vega(*args)

    monkeypatch.setattr(voltools, "_price_vega", counted)
    return calls


def otm_quote(moneyness, expiry, vol):
    """The OTM quote at unit spot, or None when it is worth under 1e-6."""
    is_call = moneyness >= 1.0
    price = bs_price(1.0, moneyness, 0.0, 0.0, expiry, vol, is_call)
    return OptionQuote(moneyness, expiry, price, is_call, 1.0) if price >= 1e-6 else None


class TestEvaluationBudget:
    """Price evaluations per implied vol on OTM quotes within 30 % of the
    money, priced at 1e-6 of the spot or more."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moneyness=st.floats(0.7, 1.3), expiry=st.floats(0.01, 2.0),
           vol=st.floats(0.05, 2.0))
    # The most found in a scan of 355,000 such quotes: 17. The solver that
    # bisected away from exact roots took up to 52.
    @example(moneyness=1.292436974789916, expiry=0.029376909192993694,
             vol=0.38890499032039366)
    def test_at_most_20_per_quote(self, monkeypatch, moneyness, expiry, vol):
        quote = otm_quote(moneyness, expiry, vol)
        assume(quote is not None)
        calls = count_evaluations(monkeypatch)
        implied_vol(quote)
        assert len(calls) <= 20

    def test_at_most_8_on_average(self, monkeypatch):
        # The bound is now 5. Measured mean 4.24; the solver that started at
        # 30 % and first priced vol 4 made 6.26, and the one that bisected
        # away from exact roots 16.3.
        rng = np.random.default_rng(5)
        quotes = []
        while len(quotes) < 2000:
            quote = otm_quote(rng.uniform(0.7, 1.3), rng.uniform(0.01, 2.0),
                              rng.uniform(0.05, 2.0))
            if quote is not None:
                quotes.append(quote)
        calls = count_evaluations(monkeypatch)
        for quote in quotes:
            implied_vol(quote)
        assert len(calls) / len(quotes) <= 5.0


    def test_at_most_4_on_average_on_a_chain(self, monkeypatch):
        # The chain of test_chain_lands_on_generating_vols. Measured mean 3.52;
        # the solver that started at 30 % and first priced vol 4 made 5.8.
        strikes = np.linspace(0.85, 1.15, 202)[1:-1].tolist()
        vols = np.random.default_rng(0).uniform(0.3, 0.7, len(strikes)).tolist()
        quotes = [OptionQuote(k, 0.1, bs_price(1.0, k, 0.0153, 0.0, 0.1, vol, k >= 1.0),
                              k >= 1.0, 1.0, 0.0153, 0.0) for k, vol in zip(strikes, vols)]
        calls = count_evaluations(monkeypatch)
        for quote in quotes:
            implied_vol(quote)
        assert len(calls) / len(quotes) <= 4.0

    def test_near_the_upper_bound_at_most_51(self, monkeypatch):
        # Mids (1 - eps) x the upper bound at spot 100, where vega falls below
        # the Newton floor of 1e-14 before an iterate reaches the mid: one that
        # reprices it exactly is the root. Measured worst 51, mean 31.5; the
        # solver that bisected on from such an iterate took up to 87, mean 38.6.
        calls = count_evaluations(monkeypatch)
        worst = 0
        for strike in np.linspace(50.0, 130.0, 5):
            for expiry in np.logspace(-9, 1, 21):
                for is_call in (True, False):
                    upper = voltools._bounds(OptionQuote(strike, expiry, 1.0, is_call, 100.0))[2]
                    for eps in np.logspace(-15, -9, 7):
                        quote = OptionQuote(strike, expiry, upper * (1.0 - eps), is_call, 100.0)
                        calls.clear()
                        vol = implied_vol(quote)
                        worst = max(worst, len(calls))
                        price = bs_price(100.0, strike, 0.0, 0.0, expiry, vol, is_call)
                        assert abs(price - quote.mid_price) < 1e-8
        assert worst <= 51


class TestDupire:
    def test_flat_surface_recovery(self):
        grid = flat_call_grid(sigma=0.25)
        for k in (90.0, 100.0, 110.0):
            for t in (0.5, 0.8):
                lv = dupire_local_vol(grid, 0.0, 0.0, k, t)
                assert lv == pytest.approx(0.25, abs=1e-3)

    def test_refinement_halves_error(self):
        coarse = flat_call_grid(strikes=np.arange(70.0, 131.0, 8.0),
                                expiries=np.arange(0.2, 1.21, 0.2))
        fine = flat_call_grid(strikes=np.arange(70.0, 131.0, 4.0),
                              expiries=np.arange(0.2, 1.21, 0.1))
        err_c = abs(dupire_local_vol(coarse, 0.0, 0.0, 94.0, 0.6) - 0.25)
        err_f = abs(dupire_local_vol(fine, 0.0, 0.0, 94.0, 0.6) - 0.25)
        assert err_c / err_f >= 2.0

    def test_scale_invariance(self):
        grid = flat_call_grid(sigma=0.3)
        lam = 7.0
        scaled = CallGrid(grid.strikes * lam, grid.expiries, grid.prices * lam)
        a = dupire_local_vol(grid, 0.0, 0.0, 100.0, 0.7)
        b = dupire_local_vol(scaled, 0.0, 0.0, 100.0 * lam, 0.7)
        assert a == pytest.approx(b, rel=1e-9)

    def test_butterfly_violation(self):
        strikes = np.array([90.0, 100.0, 110.0])
        expiries = np.array([0.4, 0.5, 0.6])
        prices = np.array([
            [12.0, 6.0, 2.0],
            [12.5, 9.0, 2.5],   # concave in strike at the middle node
            [13.0, 7.0, 3.0],
        ])
        grid = CallGrid(strikes, expiries, prices)
        with pytest.raises(VolToolsError, match="butterfly"):
            dupire_local_vol(grid, 0.0, 0.0, 100.0, 0.5)

    @pytest.mark.parametrize("field", ["strikes", "expiries", "prices"])
    def test_non_finite_grid_refused(self, field):
        # A nan centre price made dupire_local_vol return nan: its
        # butterfly and calendar checks are False for nan.
        grid = flat_call_grid(strikes=np.array([90.0, 100.0, 110.0]),
                              expiries=np.array([0.4, 0.5, 0.6]))
        arrays = {"strikes": grid.strikes, "expiries": grid.expiries, "prices": grid.prices}
        arrays[field][1:2] = np.nan
        with pytest.raises(VolToolsError, match=f"{field} must be finite"):
            CallGrid(**arrays)

    def test_boundary_point_rejected(self):
        grid = flat_call_grid()
        with pytest.raises(VolToolsError, match="interior"):
            dupire_local_vol(grid, 0.0, 0.0, float(grid.strikes[0]), 0.5)


class TestImpliedCurve:
    def quotes_from_vol(self, vol_fn, strikes, spot=100.0, t=1.0 / 252.0):
        out = []
        for k in strikes:
            v = vol_fn(k)
            is_call = k >= spot  # OTM convention
            out.append(OptionQuote(k, t, bs_price(spot, k, 0.0, 0.0, t, v, is_call),
                                   is_call, spot, 0.0, 0.0))
        return out

    def test_flat_curve_recovered(self):
        strikes = np.arange(92.0, 109.0, 2.0)
        curve = implied_curve(self.quotes_from_vol(lambda k: 0.4, strikes))
        np.testing.assert_allclose(curve.vols, 0.4, atol=1e-6)
        assert not curve.skipped

    def test_smile_recovered(self):
        strikes = np.arange(90.0, 111.0, 2.5)
        smile = lambda k: 0.3 + 0.5 * (k / 100.0 - 1.0) ** 2
        curve = implied_curve(self.quotes_from_vol(smile, strikes))
        np.testing.assert_allclose(curve.vols, [smile(k) for k in curve.strikes], atol=1e-4)

    def test_one_bad_quote_skipped(self):
        strikes = np.arange(95.0, 106.0, 5.0)
        quotes = self.quotes_from_vol(lambda k: 0.4, strikes)
        # Above the upper no-arbitrage bound (call price beyond the spot).
        quotes.append(OptionQuote(90.0, 1.0 / 252.0, 120.0, True, 100.0))
        curve = implied_curve(quotes)
        assert len(curve.skipped) == 1
        assert curve.skipped[0][0] == 90.0
        assert curve.strikes.size == len(strikes)

    def test_all_bad_quotes_error(self):
        quotes = [OptionQuote(90.0, 0.5, 110.0, True, 100.0),
                  OptionQuote(95.0, 0.5, 110.0, True, 100.0)]
        with pytest.raises(VolToolsError, match=r"^no valid quotes: strike 90\.0: mid price "
                           r"110\.0 at or above .*; strike 95\.0: mid price 110\.0 at or above"):
            implied_curve(quotes)

    def test_one_quote_gives_a_one_strike_curve(self):
        curve = implied_curve(self.quotes_from_vol(lambda k: 0.4, [100.0]))
        assert curve.strikes.tolist() == [100.0] and not curve.skipped
        np.testing.assert_allclose(curve.vols, 0.4, atol=1e-6)

    def test_csv_round_trip(self, tmp_path):
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text(
            "strike,expiry_years,mid,flag\n"
            "95,0.004,0.5,P\n"
            "105,0.004,0.4,C\n"
        )
        quotes = load_quotes(quotes_path, spot=100.0)
        assert len(quotes) == 2
        assert quotes[0].is_call is False
        curve = implied_curve(quotes)
        out = tmp_path / "curve.csv"
        save_implied_curve(curve, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "strike,iv"
        assert len(lines) == 3
