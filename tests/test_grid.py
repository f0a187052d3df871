import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvs.grid import (
    GridData,
    GridError,
    GridSpec,
    assign_cell,
    build_grid,
    standardize_returns,
)
from rlvs.ingest import TickSeries, normalize_time, synth_gbm_ticks


def gbm_grid(n_ticks=500, seed=7, n_time=4, n_price=3, s0=100.0, sigma=0.5):
    series = synth_gbm_ticks(s0, 0.0, sigma, n_ticks, seed=seed)
    norm = normalize_time(series)
    spec = GridSpec(n_time, n_price, float(series.prices.min()), float(series.prices.max()))
    return build_grid(norm, spec), series


class TestAssignCell:
    def test_hand_case(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        assert assign_cell(0.5, 425.0, spec) == (6, 5)

    def test_right_edge_time_clamps(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        assert assign_cell(1.0, 425.0, spec)[0] == 12

    def test_out_of_range_price_clamps(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        assert assign_cell(0.5, 455.0, spec)[1] == 9
        assert assign_cell(0.5, 10.0, spec)[1] == 0


class TestBuildGrid:
    def test_single_pair(self):
        s = TickSeries(np.array([0.0, 0.1]), np.array([100.0, 101.0]),
                       session_length=1.0)
        spec = GridSpec(2, 2, 99.0, 102.0)
        g = build_grid(s, spec)
        i, j = assign_cell(0.1, 101.0, spec)
        assert g.returns[i][j] == [pytest.approx(np.log(1.01))]
        assert g.mask.sum() == 1
        assert bool(g.mask[i, j])

    def test_three_tick_path_mask_by_hand(self):
        # Hand enumeration: returns land in the cell of the later tick.
        # tick2 at (t=0.5, p=110) -> i=1, j=1; tick3 at (t=0.9, p=120) -> i=1, j=1 (clamped).
        s = TickSeries(np.array([0.0, 0.5, 0.9]), np.array([100.0, 110.0, 120.0]),
                       session_length=1.0)
        spec = GridSpec(2, 2, 100.0, 120.0)
        g = build_grid(s, spec)
        expected = np.zeros((2, 2), dtype=bool)
        expected[1, 1] = True
        np.testing.assert_array_equal(g.mask, expected)
        assert len(g.returns[1][1]) == 2

    def test_returns_telescope_within_cell(self):
        # Consecutive ticks in one cell: the cell sum is log(last/first-predecessor).
        s = TickSeries(np.array([0.0, 0.01, 0.02, 0.03]),
                       np.array([100.0, 101.0, 99.5, 100.5]), session_length=1.0)
        spec = GridSpec(1, 1, 99.0, 102.0)
        g = build_grid(s, spec)
        assert sum(g.returns[0][0]) == pytest.approx(np.log(100.5 / 100.0), abs=1e-12)

    def test_total_return_count(self):
        g, series = gbm_grid(n_ticks=800, seed=3)
        assert g.n_observations() == len(series) - 1

    def test_mask_matches_nonempty_cells(self):
        g, _ = gbm_grid(seed=11)
        for i in range(g.spec.n_time):
            for j in range(g.spec.n_price):
                assert bool(g.mask[i, j]) == (len(g.returns[i][j]) > 0)

    def test_duplicate_tick_adds_zero_return_no_new_mask(self):
        times = np.array([0.0, 0.2, 0.4])
        prices = np.array([100.0, 101.0, 102.0])
        s1 = TickSeries(times, prices, session_length=1.0)
        spec = GridSpec(3, 3, 99.0, 103.0)
        g1 = build_grid(s1, spec)
        s2 = TickSeries(np.append(times, 0.4), np.append(prices, 102.0), session_length=1.0)
        g2 = build_grid(s2, spec)
        np.testing.assert_array_equal(g1.mask, g2.mask)
        assert g2.n_observations() == g1.n_observations() + 1
        i, j = assign_cell(0.4, 102.0, spec)
        assert g2.returns[i][j][-1] == 0.0

    def test_single_price_bin_path_bounded_by_time_bins(self):
        g, _ = gbm_grid(n_ticks=400, seed=5, n_time=6, n_price=1)
        assert g.mask.sum() <= 6

    def test_needs_two_ticks(self):
        s = TickSeries(np.array([0.0]), np.array([100.0]), session_length=1.0)
        with pytest.raises(GridError):
            build_grid(s, GridSpec(2, 2, 99.0, 101.0))


class TestAggregateReturn:
    """A cell's aggregate return is the sum of its stored log returns."""

    def test_full_session_telescopes(self):
        g, series = gbm_grid(n_ticks=1200, seed=19)
        total = sum(
            sum(g.returns[i][j])
            for i in range(g.spec.n_time)
            for j in range(g.spec.n_price)
            if g.mask[i, j]
        )
        assert total == pytest.approx(np.log(series.prices[-1] / series.prices[0]), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=60),
        n_time=st.integers(1, 6),
        n_price=st.integers(1, 6),
        band=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
    )
    def test_build_grid_conserves_total_log_return(self, steps, n_time, n_price, band):
        # Any path, any grid, any band (prices may fall outside it): every
        # return lands in exactly one cell, so the cell sums add up to
        # log(last / first).
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        times = np.linspace(0.0, 1.0, prices.size)
        lo, hi = 100.0 * min(band), 100.0 * max(band) + 1.0
        g = build_grid(TickSeries(times, prices, session_length=1.0),
                       GridSpec(n_time, n_price, lo, hi))
        total = sum(sum(c) for row in g.returns for c in row)
        assert g.n_observations() == prices.size - 1
        assert total == pytest.approx(np.log(prices[-1] / prices[0]), abs=1e-12)


def _loop_grid(series, spec):
    """build_grid's returns and mask, one tick at a time."""
    returns = [[[] for _ in range(spec.n_price)] for _ in range(spec.n_time)]
    log_ret = np.diff(np.log(series.prices))
    for n in range(1, len(series)):
        i, j = assign_cell(series.times[n], series.prices[n], spec)
        returns[i][j].append(float(log_ret[n - 1]))
    mask = np.array([[len(c) > 0 for c in row] for row in returns])
    return returns, mask


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=80),
    gaps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80),
    n_time=st.integers(1, 6),
    n_price=st.integers(1, 6),
    band=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)),
)
def test_build_grid_and_standardize_match_the_loop(steps, gaps, n_time, n_price, band):
    # Any path, with repeated times and prices outside the band: the lists
    # equal those of a tick-by-tick loop bit for bit, and so do the
    # standardized ones, each return divided by the pooled std.
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    times = np.cumsum(np.resize(gaps, prices.size))
    times = times / max(times[-1], 1.0)
    lo, hi = 100.0 * min(band), 100.0 * max(band) + 1.0
    series, spec = TickSeries(times, prices, session_length=1.0), GridSpec(n_time, n_price, lo, hi)
    g = build_grid(series, spec)
    returns, mask = _loop_grid(series, spec)
    assert g.returns == returns
    np.testing.assert_array_equal(g.mask, mask)
    xs = [r for row in returns for c in row for r in c]
    if np.std(xs) > 0:
        out, scale = standardize_returns(g)
        assert scale == float(np.std(xs))
        assert out.returns == [[[r / scale for r in c] for c in row] for row in returns]


class TestStandardize:
    def test_output_pooled_std_is_one(self):
        g, _ = gbm_grid(seed=23)
        out, scale = standardize_returns(g)
        xs, _, _ = out.observations()
        assert np.std(xs) == pytest.approx(1.0, abs=1e-12)
        assert scale > 0

    def test_round_trip(self):
        g, _ = gbm_grid(seed=29)
        out, scale = standardize_returns(g)
        for i in range(g.spec.n_time):
            for j in range(g.spec.n_price):
                np.testing.assert_allclose(np.multiply(out.returns[i][j], scale),
                                           g.returns[i][j], rtol=1e-12, atol=1e-18)

    def test_constant_prices_degenerate(self):
        s = TickSeries(np.array([0.0, 0.1, 0.2]), np.array([100.0, 100.0, 100.0]),
                       session_length=1.0)
        spec = GridSpec(1, 1, 99.0, 103.0)
        g = build_grid(s, spec)
        with pytest.raises(GridError, match="degenerate"):
            standardize_returns(g)

    def test_equal_nonzero_returns_degenerate(self):
        spec = GridSpec(1, 1, 99.0, 103.0)
        g = GridData(spec, np.ones((1, 1), bool), [[[0.01, 0.01, 0.01]]],
                     np.array([0.5]), np.log([101.0]))
        with pytest.raises(GridError, match="degenerate"):
            standardize_returns(g)

    def test_empty_grid_errors(self):
        spec = GridSpec(2, 2, 99.0, 101.0)
        empty = [[[] for _ in range(2)] for _ in range(2)]
        g = GridData(spec, np.zeros((2, 2), bool), empty,
                     (np.arange(2) + 0.5) / 2, np.log([99.5, 100.5]))
        with pytest.raises(GridError):
            standardize_returns(g)


class TestGridData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_return_names_first_bad_cell(self, bad):
        spec = GridSpec(2, 2, 99.0, 101.0)
        returns = [[[0.1], [0.2, bad]], [[bad], [0.3]]]
        with pytest.raises(GridError, match=r"^non-finite return in cell \(0, 1\)$"):
            GridData(spec, np.ones((2, 2), bool), returns,
                     (np.arange(2) + 0.5) / 2, np.log([99.5, 100.5]))


class TestSerialization:
    def test_json_round_trip(self):
        # The path a fit checkpoint takes: to_dict -> JSON text -> from_dict.
        g, _ = gbm_grid(seed=31)
        back = GridData.from_dict(json.loads(json.dumps(g.to_dict())))
        assert back.spec == g.spec
        np.testing.assert_array_equal(back.mask, g.mask)
        np.testing.assert_array_equal(back.cell_time, g.cell_time)
        np.testing.assert_array_equal(back.cell_logprice, g.cell_logprice)
        assert back.returns == g.returns

    def test_unknown_spec_field_named(self):
        # Files written before GridSpec dropped session_length carry it.
        d = gbm_grid(seed=41)[0].to_dict()
        d["spec"]["session_length"] = 23400.0
        with pytest.raises(GridError, match="unknown grid spec field session_length"):
            GridData.from_dict(d)

    def test_dict_is_json_serializable(self):
        g, _ = gbm_grid(seed=37)
        json.dumps(g.to_dict())


def test_spec_validation():
    with pytest.raises(GridError):
        GridSpec(0, 1, 0.0, 1.0)
    with pytest.raises(GridError):
        GridSpec(1, 1, 2.0, 1.0)


@pytest.mark.parametrize("band, message", [
    ((np.nan, 1.0), "price_min must be finite, got nan"),
    ((0.5, np.nan), "price_max must be finite, got nan"),
    ((0.5, np.inf), "price_max must be finite, got inf"),
])
def test_spec_rejects_non_finite_band_naming_field(band, message):
    with pytest.raises(GridError, match=f"^{message}$"):
        GridSpec(2, 2, *band)
