import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from rlvs.voltools import (
    CallGrid,
    OptionQuote,
    VolToolsError,
    _d1_d2,
    _ndtr,
    _vega,
    bs_price,
    dupire_local_vol,
    implied_curve,
    implied_vol,
    load_quotes,
    save_implied_curve,
)


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

    def test_bitwise_equal_to_scipy_norm_cdf(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            s, k = rng.uniform(1, 500, 2)
            r, q = rng.uniform(-0.02, 0.1), rng.uniform(0.0, 0.05)
            t, v = rng.uniform(0.002, 5.0), rng.uniform(0.01, 5.0)
            d1, d2 = _d1_d2(s, k, r, q, t, v)
            df_s, df_k = s * np.exp(-q * t), k * np.exp(-r * t)
            call = float(df_s * norm.cdf(d1) - df_k * norm.cdf(d2))
            put = float(df_k * norm.cdf(-d2) - df_s * norm.cdf(-d1))
            assert bs_price(s, k, r, q, t, v, True) == call
            assert bs_price(s, k, r, q, t, v, False) == put


class TestNdtr:
    def test_bitwise_equal_to_scipy_ndtr(self):
        # The port's branch edges: |a| = 1 (erf against erfc), sqrt(2) (erfc's
        # own erf branch), 8 sqrt(2) (erfc's two rational fits) and about
        # 37.68, where exp(-a * a / 2) underflows.
        rng = np.random.default_rng(8)
        edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * 709.782712893384)]
        near = [sign * e + k * np.spacing(e) for e in edges for sign in (1.0, -1.0)
                for k in range(-300, 301)]
        xs = np.concatenate([rng.normal(0.0, 3.0, 100_000), rng.uniform(-40.0, 40.0, 50_000),
                             near, [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                    np.inf, -np.inf]])
        ours = np.array([_ndtr(x) for x in xs.tolist()])
        np.testing.assert_array_equal(ours.view(np.int64), ndtr(xs).view(np.int64))
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

    def test_load_quotes_names_spot(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text("strike,expiry_years,mid,flag\n95,0.004,0.5,P\n")
        with pytest.raises(VolToolsError, match="line 2: spot must be finite, got inf"):
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
            assert _vega(s, k, r, q, t, v) == pytest.approx(v_fd, rel=1e-6, abs=1e-8)

    def test_call_put_vega_equal(self):
        # Put-call parity makes the call and put prices differ by a term free
        # of vol, so their slopes in vol agree.
        h = 1e-5
        c_fd = (bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 + h, True)
                - bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 - h, True)) / (2.0 * h)
        p_fd = (bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 + h, False)
                - bs_price(100.0, 90.0, 0.03, 0.01, 0.6, 0.4 - h, False)) / (2.0 * h)
        assert c_fd == pytest.approx(p_fd, rel=1e-8)
        assert _vega(100.0, 90.0, 0.03, 0.01, 0.6, 0.4) == pytest.approx(c_fd, rel=1e-8)

    def test_bitwise_equal_to_scipy_norm_pdf(self):
        # norm.pdf on an array is scipy's own formula; the solver's results
        # stay bit-identical only while _vega rounds the same way.
        rng = np.random.default_rng(5)
        args = [(rng.uniform(1, 500), rng.uniform(1, 500), rng.uniform(-0.02, 0.1),
                 rng.uniform(0.0, 0.05), rng.uniform(0.002, 5.0), rng.uniform(0.01, 5.0))
                for _ in range(20_000)]
        pdf = norm.pdf(np.array([_d1_d2(*a)[0] for a in args]))
        for (s, k, r, q, t, v), pdf1 in zip(args, pdf):
            assert _vega(s, k, r, q, t, v) == float(s * np.exp(-q * t) * pdf1 * np.sqrt(t))


def scipy_implied_vol(q):
    """implied_vol's Newton iteration with every price and vega computed through
    scipy, each from the quote's raw fields, as the solver did while the
    package imported scipy."""
    def price(v):
        d1, d2 = _d1_d2(q.spot, q.strike, q.rate, q.yield_rate, q.expiry, v)
        df_s = q.spot * np.exp(-q.yield_rate * q.expiry)
        df_k = q.strike * np.exp(-q.rate * q.expiry)
        if q.is_call:
            return float(df_s * ndtr(d1) - df_k * ndtr(d2))
        return float(df_k * ndtr(-d2) - df_s * ndtr(-d1))

    def vega(v):
        d1 = _d1_d2(q.spot, q.strike, q.rate, q.yield_rate, q.expiry, v)[0]
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
        new = sigma - diff / vg if vg > 1e-14 else 0.5 * (lo + hi)
        if not lo < new < hi:
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

    def test_bitwise_equal_to_scipy_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            s = rng.uniform(1.0, 500.0)
            k = s * np.exp(rng.normal(0.0, 0.2))
            r, q, t = rng.uniform(-0.02, 0.1), rng.uniform(0.0, 0.05), rng.uniform(0.01, 3.0)
            is_call = bool(rng.integers(2))
            price = bs_price(s, k, r, q, t, rng.uniform(0.05, 2.0), is_call)
            quote = OptionQuote(k, t, price, is_call, s, r, q)
            assert implied_vol(quote) == scipy_implied_vol(quote)


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
        with pytest.raises(VolToolsError, match="no valid quotes"):
            implied_curve(quotes)

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
