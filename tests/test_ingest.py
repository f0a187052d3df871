from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvs.ingest import (
    TickDataError,
    TickSeries,
    load_ticks,
    normalize_price,
    normalize_time,
    resample,
    save_ticks,
    synth_gbm_ticks,
)


def write(tmp_path, text, name="ticks.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTicks:
    def test_two_row_file(self, tmp_path):
        p = write(tmp_path, "time_s,price\n0.0,100.0\n1.0,101.0\n")
        s = load_ticks(p)
        assert len(s) == 2
        assert s.prices[1] == 101.0

    def test_negative_price_reports_line(self, tmp_path):
        p = write(tmp_path, "time_s,price\n0.0,100.0\n1.0,-5\n")
        with pytest.raises(TickDataError, match="line 3.*non-positive"):
            load_ticks(p)

    def test_unsorted_rows_sorted_ascending(self, tmp_path):
        p = write(tmp_path, "time_s,price\n1.0,101.0\n0.5,100.0\n")
        s = load_ticks(p)
        assert list(s.times) == [0.5, 1.0]
        assert list(s.prices) == [100.0, 101.0]

    def test_duplicate_timestamps_keep_input_order(self, tmp_path):
        p = write(tmp_path, "time_s,price\n5.0,101.0\n1.0,99.0\n5.0,102.0\n")
        s = load_ticks(p)
        assert list(s.prices) == [99.0, 101.0, 102.0]

    def test_empty_file_distinct_error(self, tmp_path):
        p = write(tmp_path, "time_s,price\n")
        with pytest.raises(TickDataError, match="no tick rows"):
            load_ticks(p)

    def test_parse_failure_reports_line(self, tmp_path):
        p = write(tmp_path, "time_s,price\n0.0,100.0\nbogus,1.0\n")
        with pytest.raises(TickDataError, match="line 3"):
            load_ticks(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_time_reports_line(self, tmp_path, bad):
        p = write(tmp_path, f"time_s,price\n0.0,100.0\n{bad},101.0\n2.0,102.0\n")
        with pytest.raises(TickDataError, match=f"line 3: non-finite time_s {bad}$"):
            load_ticks(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_price_reports_line(self, tmp_path, bad):
        p = write(tmp_path, f"time_s,price\n0.0,100.0\n1.0,101.0\n2.0,{bad}\n")
        with pytest.raises(TickDataError, match=f"line 4: non-finite price {bad}$"):
            load_ticks(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "t,p\n0.0,100.0\n")
        with pytest.raises(TickDataError, match="header"):
            load_ticks(p)

    def test_round_trip(self, tmp_path):
        s = synth_gbm_ticks(100.0, 0.05, 0.3, 50, seed=3)
        p = tmp_path / "out.csv"
        save_ticks(s, p)
        back = load_ticks(p)
        np.testing.assert_array_equal(back.times, s.times)
        np.testing.assert_array_equal(back.prices, s.prices)


class TestSynthGbm:
    def test_zero_vol_is_deterministic_exponential(self):
        s = synth_gbm_ticks(100.0, 0.1, 0.0, 11, trading_days=252, seed=0)
        t_years = s.times / s.session_length / 252
        np.testing.assert_allclose(s.prices, 100.0 * np.exp(0.1 * t_years), rtol=1e-12)

    def test_same_seed_identical(self):
        a = synth_gbm_ticks(50.0, 0.0, 0.8, 500, seed=9)
        b = synth_gbm_ticks(50.0, 0.0, 0.8, 500, seed=9)
        np.testing.assert_array_equal(a.prices, b.prices)
        np.testing.assert_array_equal(a.times, b.times)

    def test_annualized_sample_vol_recovers_sigma(self):
        # Oracle: sample std of generated log returns, annualized by
        # sqrt(steps per year) = sqrt((n-1) * trading_days).
        s = synth_gbm_ticks(100.0, 0.0, 0.5, 23_401, trading_days=252, seed=21)
        r = np.diff(np.log(s.prices))
        ann = np.std(r, ddof=1) * np.sqrt(23_400 * 252)
        assert abs(ann - 0.5) / 0.5 < 0.03

    def test_too_few_ticks(self):
        with pytest.raises(TickDataError):
            synth_gbm_ticks(100.0, 0.0, 0.5, 1, seed=0)

    @pytest.mark.parametrize("days", [0, -5])
    def test_trading_days_below_one_named(self, days):
        # 0 divided by zero, and -5 took the square root of a negative step.
        with pytest.raises(TickDataError, match=f"^trading_days must be >= 1, got {days}$"):
            synth_gbm_ticks(100.0, 0.0, 0.5, 11, trading_days=days, seed=0)


class TestNormalizeTime:
    def test_midpoint(self):
        s = TickSeries(np.array([11_700.0]), np.array([100.0]))
        assert normalize_time(s).times[0] == pytest.approx(0.5)

    def test_endpoints(self):
        s = TickSeries(np.array([0.0, 23_400.0]), np.array([100.0, 101.0]))
        out = normalize_time(s)
        assert out.times[0] == 0.0
        assert out.times[1] == 1.0

    def test_hand_value_1100_est(self):
        s = TickSeries(np.array([5_400.0]), np.array([100.0]))
        assert normalize_time(s).times[0] == pytest.approx(0.2308, abs=1e-4)

    def test_round_trip_recovers_times(self):
        s = synth_gbm_ticks(100.0, 0.0, 0.4, 200, seed=5)
        out = normalize_time(s)
        np.testing.assert_allclose(out.times * s.session_length, s.times, rtol=1e-12)


class TestNormalizePrice:
    def test_midpoint(self):
        assert normalize_price(425.0, 400.0, 450.0) == pytest.approx(0.5)

    def test_band_endpoints(self):
        assert normalize_price(400.0, 400.0, 450.0) == 0.0
        assert normalize_price(450.0, 400.0, 450.0) == 1.0

    def test_out_of_range_passes_through(self):
        assert normalize_price(455.0, 400.0, 450.0) == pytest.approx(1.1)

    def test_degenerate_band(self):
        with pytest.raises(TickDataError):
            normalize_price(1.0, 5.0, 5.0)

    def test_affine_in_convex_combinations(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p, q = rng.uniform(300, 500, size=2)
            a = rng.uniform()
            lhs = normalize_price(a * p + (1 - a) * q, 400.0, 450.0)
            rhs = a * normalize_price(p, 400.0, 450.0) + (1 - a) * normalize_price(q, 400.0, 450.0)
            assert abs(lhs - rhs) < 1e-12


class TestResample:
    def test_locf_boundaries(self):
        s = TickSeries(np.array([0.0, 10.0, 299.0, 301.0]),
                       np.array([1.0, 2.0, 3.0, 4.0]))
        out = resample(s, 300.0)
        assert list(out.times) == [0.0, 300.0]
        assert list(out.prices) == [1.0, 3.0]

    def test_interval_larger_than_session(self):
        s = TickSeries(np.array([0.0, 100.0, 200.0]), np.array([1.0, 2.0, 3.0]))
        out = resample(s, 1e6)
        assert list(out.times) == [0.0]
        assert list(out.prices) == [1.0]

    def test_full_session_count(self):
        s = synth_gbm_ticks(100.0, 0.0, 0.5, 23_401, seed=2)
        out = resample(s, 300.0)
        assert len(out) == 79
        assert out.times[0] == 0.0
        assert out.times[-1] == 23_400.0

    def test_prices_are_subset_and_times_are_boundaries(self):
        s = synth_gbm_ticks(100.0, 0.0, 0.5, 997, seed=4)
        out = resample(s, 450.0)
        assert np.all(np.diff(out.times) == 450.0)
        assert set(out.prices).issubset(set(s.prices))

    def test_boundary_before_first_tick_omitted(self):
        s = TickSeries(np.array([100.0, 700.0]), np.array([1.0, 2.0]))
        out = resample(s, 300.0)
        assert list(out.times) == [300.0, 600.0]
        assert list(out.prices) == [1.0, 1.0]

    def test_decimal_tick_on_a_boundary_counts_as_on_it(self):
        # float("2.1") lies just above 3 * 0.7 = 2.0999999999999996.
        out = resample(TickSeries(np.array([0.0, 2.1]), np.array([1.0, 2.0])), 0.7)
        assert out.times.tolist() == [0.0, 0.7, 1.4, 3 * 0.7]
        assert out.prices.tolist() == [1.0, 1.0, 1.0, 2.0]

    @pytest.mark.parametrize("interval", ["0.1", "0.3", "0.7", "1.1", "2.9", "7.3"])
    def test_decimal_boundary_ticks_keep_the_last_return(self, interval):
        # Tick times as a CSV holds them: the decimal value of k * interval.
        for k in range(1, 400):
            t = float(Decimal(interval) * k)
            out = resample(TickSeries(np.array([0.0, t]), np.array([1.0, 2.0])),
                           float(interval))
            assert len(out) == k + 1
            assert out.prices[-1] == 2.0 and np.all(out.prices[:-1] == 1.0)


tick_rows = st.lists(
    st.tuples(
        # Few distinct times, so duplicates are common.
        st.integers(0, 20).map(lambda k: k * 0.5),
        st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=tick_rows)
def test_load_ticks_is_stable_sort_of_file_rows(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("ticks") / "ticks.csv"
    p.write_text("time_s,price\n" + "".join(f"{t!r},{x!r}\n" for t, x in rows))
    s = load_ticks(p)
    want = sorted(rows, key=lambda row: row[0])  # sorted() is stable
    assert list(zip(s.times.tolist(), s.prices.tolist())) == want


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    interval=st.floats(1e-3, 1e4),
    offset=st.integers(0, 3),
)
def test_resample_idempotent_on_grid_aligned_times(steps, interval, offset):
    # Tick times on the interval's grid, with gaps and repeats.
    k = offset + np.cumsum(steps)
    s = TickSeries(k * interval, np.arange(1.0, k.size + 1.0))
    once = resample(s, interval)
    twice = resample(once, interval)
    np.testing.assert_array_equal(twice.times, once.times)
    np.testing.assert_array_equal(twice.prices, once.prices)
    # Every grid point from the first tick to the last carries a price.
    assert once.times.tolist() == (np.arange(k[0], k[-1] + 1) * interval).tolist()


def test_series_rejects_unsorted_and_nonpositive():
    with pytest.raises(TickDataError):
        TickSeries(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(TickDataError):
        TickSeries(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_series_rejects_bad_session_length_by_name(bad):
    with pytest.raises(TickDataError,
                       match=f"^session_length must be positive and finite, got {bad}$"):
        TickSeries(np.array([0.0, 1.0]), np.array([1.0, 1.1]), session_length=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["times", "prices"])
def test_series_rejects_non_finite_naming_field(field, bad):
    # A nan time passes the non-decreasing check, so resample would carry
    # prices across it; an infinite price passes the positivity check.
    arrays = {"times": [0.0, 1.0, 2.0], "prices": [1.0, 1.1, 1.2]}
    arrays[field][1] = bad
    with pytest.raises(TickDataError, match=f"tick {field} must be finite, got {bad} at index 1"):
        TickSeries(**arrays)
