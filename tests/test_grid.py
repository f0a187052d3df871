import base64
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlvs import grid as grid_mod
from rlvs.grid import (
    GridData,
    GridError,
    GridSpec,
    assign_cell,
    build_grid,
    standardize_returns,
)
from rlvs.ingest import TickSeries, normalize_time, synth_gbm_ticks
from rlvs.model import ModelDims, Posterior


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

    def test_bin_midpoints_land_in_their_bins(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        assert assign_cell(0.5, 425.0, GridSpec(1, 1, 400.0, 450.0)) == (0, 0)
        i, j = assign_cell(spec.cell_time, spec.price_mid, spec)
        np.testing.assert_array_equal(i, np.arange(13))
        np.testing.assert_array_equal(j, np.arange(10))

    def test_band_ends_land_in_end_bins(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        assert assign_cell(0.0, 400.0, spec) == (0, 0)
        assert assign_cell(1.0, 450.0, spec) == (12, 9)

    def test_out_of_band_prices_and_times_clamp(self):
        spec = GridSpec(13, 10, 400.0, 450.0)
        i, j = assign_cell(np.array([-0.5, 1.5, 0.5]), np.array([0.0, 455.0, 1e9]), spec)
        np.testing.assert_array_equal(i, [0, 12, 6])
        np.testing.assert_array_equal(j, [0, 9, 9])

    def test_empty_band_refused_by_spec(self):
        # assign_cell divides by the band's width; the spec never holds a zero one.
        with pytest.raises(GridError, match="^price_max must exceed price_min$"):
            GridSpec(2, 2, 5.0, 5.0)

    def test_monotone_in_price_and_time(self):
        spec = GridSpec(7, 9, 400.0, 450.0)
        rng = np.random.default_rng(13)
        times, prices = np.sort(rng.uniform(-0.1, 1.1, 200)), np.sort(rng.uniform(380, 470, 200))
        i, j = assign_cell(times, prices, spec)
        assert (np.diff(i) >= 0).all() and (np.diff(j) >= 0).all()
        assert set(i) == set(range(7)) and set(j) == set(range(9))


@settings(max_examples=60, deadline=None)
@given(n_time=st.integers(1, 100), n_price=st.integers(1, 50),
       price_min=st.floats(0.0, 1e4), width=st.floats(1e-3, 1e4))
def test_every_cell_midpoint_assigns_to_its_cell(n_time, n_price, price_min, width):
    spec = GridSpec(n_time, n_price, price_min, price_min + width)
    times, prices = np.meshgrid(spec.cell_time, spec.price_mid, indexing="ij")
    i, j = assign_cell(times, prices, spec)
    expected = np.indices((n_time, n_price))
    np.testing.assert_array_equal(i, expected[0])
    np.testing.assert_array_equal(j, expected[1])


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

    def test_observations_are_the_visited_cells_runs(self):
        g, _ = gbm_grid(seed=13)
        xs, cells, counts = g.observations()
        np.testing.assert_array_equal(cells, np.flatnonzero(g.mask))
        runs = [g.returns[c // g.spec.n_price][c % g.spec.n_price] for c in cells]
        np.testing.assert_array_equal(counts, [len(r) for r in runs])
        np.testing.assert_array_equal(xs, np.concatenate(runs))

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
        with pytest.raises(GridError, match=r"^the 3 stored return\(s\) all equal 0\.01, .*"
                                            "degenerate"):
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

    def test_equality_compares_every_field_and_builds_no_lists(self, monkeypatch):
        spec = GridSpec(2, 2, 99.0, 101.0)
        mask = np.array([[True, False], [True, True]])
        coords = (np.arange(2) + 0.5) / 2, np.log([99.5, 100.5])

        def grid(returns=((0.1,), (-0.2, 0.3), (0.4,)), spec=spec, mask=mask, coords=coords):
            runs = iter(returns)
            nested = [[list(next(runs)) if m else [] for m in row] for row in mask]
            return GridData(spec, mask.copy(), nested, *(c.copy() for c in coords))

        a, b = grid(), grid()
        assert a is not b and a == b and not a != b
        packed = GridData.from_dict(json.loads(json.dumps(a.to_dict())))
        monkeypatch.setattr(grid_mod, "_nest", lambda *args: pytest.fail("built nested lists"))
        assert packed == a and a == packed
        others = [grid(returns=((0.1,), (-0.2, 0.5), (0.4,))),  # one return differs
                  grid(returns=((0.1, -0.2), (0.3,), (0.4,))),  # a return in another cell
                  grid(spec=GridSpec(2, 2, 99.0, 102.0)),
                  grid(mask=np.ones((2, 2), bool), returns=((0.1,), (-0.2,), (0.3,), (0.4,))),
                  grid(coords=(coords[0], coords[1] + 1.0))]
        for other in others:
            assert a != other and packed != other and not a == other
        assert a != "a grid"


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

    def test_packed_returns_and_nested_lists_read_alike(self):
        # Files written before the packing hold every cell's list of returns.
        g, _ = gbm_grid(seed=43)
        d = g.to_dict()
        assert set(d["returns"]) == {"counts", "values"}
        assert d["returns"]["counts"] == [len(c) for row in g.returns for c in row if c]
        nested = dict(d, returns=g.returns)
        assert GridData.from_dict(nested).returns == GridData.from_dict(d).returns == g.returns

    def test_unknown_spec_field_named(self):
        # Files written before GridSpec dropped session_length carry it.
        d = gbm_grid(seed=41)[0].to_dict()
        d["spec"]["session_length"] = 23400.0
        with pytest.raises(GridError, match="unknown grid spec field session_length"):
            GridData.from_dict(d)

    def test_dict_is_json_serializable(self):
        g, _ = gbm_grid(seed=37)
        json.dumps(g.to_dict())


# Floats whose bits a decimal or narrower round trip could lose: signed
# zeros, subnormals and the edges of the float range.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308,
                     np.finfo(float).max, -np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_time=st.integers(1, 4), n_price=st.integers(1, 4))
def test_json_round_trip_keeps_every_return_bit_for_bit(data, n_time, n_price):
    # Cells of no return, of one, and of several, each return any finite float.
    cells = st.lists(EDGE_FLOATS, max_size=4)
    returns = data.draw(st.lists(st.lists(cells, min_size=n_price, max_size=n_price),
                                 min_size=n_time, max_size=n_time))
    mask = np.array([[len(c) > 0 for c in row] for row in returns])
    spec = GridSpec(n_time, n_price, 1.0, 2.0)
    g = GridData(spec, mask, returns, spec.cell_time, np.log(spec.price_mid))
    back = GridData.from_dict(json.loads(json.dumps(g.to_dict())))
    np.testing.assert_array_equal(back.mask, mask)
    for row, back_row in zip(returns, back.returns):
        for c, back_c in zip(row, back_row):
            assert len(back_c) == len(c)
            np.testing.assert_array_equal(np.array(back_c, float).view(np.int64),
                                          np.array(c, float).view(np.int64))


def test_spec_validation():
    with pytest.raises(GridError):
        GridSpec(0, 1, 0.0, 1.0)
    with pytest.raises(GridError):
        GridSpec(1, 1, 2.0, 1.0)


@pytest.mark.parametrize("args, message", [
    ((2, 2, np.nan, 1.0), "price_min must be finite, got nan"),
    ((2, 2, 0.5, np.nan), "price_max must be finite, got nan"),
    ((2, 2, 0.5, np.inf), "price_max must be finite, got inf"),
    ((0, 2, 0.5, 1.0), "n_time must be >= 1, got 0"),
    ((2, -1, 0.5, 1.0), "n_price must be >= 1, got -1"),
])
def test_spec_refusal_names_field_and_value(args, message):
    with pytest.raises(GridError, match=f"^{message}$"):
        GridSpec(*args)


def _tampered_criterion_6_grid():
    """Criterion 6's standardized grid, and a copy in nested lists with three
    stray returns added to each cell its mask leaves unvisited."""
    series = synth_gbm_ticks(100.0, 0.0, 0.5, 300, seed=29)
    spec = GridSpec(4, 4, float(series.prices.min()), float(series.prices.max()))
    grid, _ = standardize_returns(build_grid(normalize_time(series), spec))
    tampered = GridData(grid.spec, grid.mask.copy(),
                        [[list(c) for c in row] for row in grid.returns],
                        grid.cell_time.copy(), grid.cell_logprice.copy())
    for i, j in zip(*np.nonzero(~grid.mask)):
        tampered.returns[i][j].extend([1.0, -2.0, 0.5])
    return grid, tampered


class TestStrayReturnsInMaskedCells:
    def test_n_observations_counts_the_visited_cells_only(self):
        grid, tampered = _tampered_criterion_6_grid()
        assert (~grid.mask).any()
        assert tampered.n_observations() == len(tampered.observations()[0]) == 299
        assert grid.n_observations() == 299

    def test_standardize_keeps_the_visited_cells_only(self):
        grid, tampered = _tampered_criterion_6_grid()
        out, scale = standardize_returns(tampered)
        ref, ref_scale = standardize_returns(grid)
        assert scale == ref_scale
        assert out.to_dict() == ref.to_dict()
        assert not any(out.returns[i][j] for i, j in zip(*np.nonzero(~grid.mask)))


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_same_grid(a: GridData, b: GridData) -> None:
    """``a`` and ``b`` give the same observations, dict and posterior, bit for bit."""
    for x, y in zip(a.observations(), b.observations()):
        assert _bits(x) == _bits(y)
    assert a.to_dict() == b.to_dict()
    dims = ModelDims(a.spec.n_time, a.spec.n_price, 2)
    vec = np.random.default_rng(3).normal(size=dims.active(a.mask).size)
    pa, pb = Posterior(a, dims), Posterior(b, dims)
    assert _bits([pa.logp(vec)]) == _bits([pb.logp(vec)])
    assert _bits(pa.grad(vec)) == _bits(pb.grad(vec))


def _packed_dict(spec: GridSpec, mask: np.ndarray, returns: list) -> dict:
    """A grid dict whose returns are packed by hand, without ``to_dict``."""
    values = np.array([r for row in returns for c in row for r in c], dtype="<f8")
    return {"spec": asdict(spec), "mask": mask.astype(int).tolist(),
            "returns": {"counts": [len(c) for row in returns for c in row if c],
                        "values": base64.b64encode(values.tobytes()).decode()},
            "cell_time": spec.cell_time.tolist(),
            "cell_logprice": np.log(spec.price_mid).tolist()}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_time=st.integers(1, 4), n_price=st.integers(1, 4))
def test_flat_record_and_nested_lists_build_the_same_grid(data, n_time, n_price):
    # The same returns read from a packed dict, whose flat record is kept, and
    # from nested lists: cells of no return, of one and of several.
    cells = st.lists(EDGE_FLOATS, max_size=4)
    returns = data.draw(st.lists(st.lists(cells, min_size=n_price, max_size=n_price),
                                 min_size=n_time, max_size=n_time))
    mask = np.array([[len(c) > 0 for c in row] for row in returns])
    spec = GridSpec(n_time, n_price, 1.0, 2.0)
    coords = spec.cell_time, np.log(spec.price_mid)
    nested = GridData(spec, mask, returns, *coords)
    packed = GridData.from_dict(_packed_dict(spec, mask, returns))
    _assert_same_grid(packed, nested)

    # A non-finite return, an empty cell marked visited, or both: each build
    # refuses by the same message.
    visited, unvisited = list(zip(*np.nonzero(mask))), list(zip(*np.nonzero(~mask)))
    bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf])) if visited else None
    flip = data.draw(st.sampled_from([None, *unvisited])) if unvisited else None
    if bad is not None or flip is not None:
        tampered, bad_mask = [[list(c) for c in row] for row in returns], mask.copy()
        if bad is not None:
            i, j = data.draw(st.sampled_from(visited))
            tampered[i][j][data.draw(st.integers(0, len(tampered[i][j]) - 1))] = bad
        if flip is not None:
            bad_mask[flip] = True
        with pytest.raises(GridError) as nested_error:
            GridData(spec, bad_mask, tampered, *coords)
        values = np.array([r for row in tampered for c in row for r in c])
        counts = np.array([len(c) for row in tampered for c in row], dtype=np.intp)
        with pytest.raises(GridError) as flat_error:
            GridData._from_flat(spec, bad_mask, values, counts[bad_mask.ravel()], *coords)
        assert str(flat_error.value) == str(nested_error.value)
        if flip is None:
            with pytest.raises(GridError) as packed_error:
                GridData.from_dict(_packed_dict(spec, mask, tampered))
            assert str(packed_error.value) == str(nested_error.value)

    # The hand-off: once read, the lists are the record, edits included.
    assert [[_bits(c) for c in row] for row in packed.returns] == \
        [[_bits(c) for c in row] for row in returns]
    if visited:
        i, j = data.draw(st.sampled_from(visited))
        packed.returns[i][j].append(0.25)
        returns[i][j].append(0.25)
        _assert_same_grid(packed, GridData(spec, mask, returns, *coords))


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=60),
    n_time=st.integers(1, 4),
    n_price=st.integers(1, 4),
)
def test_build_grid_record_matches_the_loop_lists(steps, n_time, n_price):
    # build_grid's flat record against the tick-by-tick loop's nested lists.
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    series = TickSeries(np.linspace(0.0, 1.0, prices.size), prices, session_length=1.0)
    spec = GridSpec(n_time, n_price, 100.0 * np.exp(-0.5), 100.0 * np.exp(0.5))
    returns, mask = _loop_grid(series, spec)
    g = build_grid(series, spec)
    _assert_same_grid(g, GridData(spec, mask, returns, g.cell_time, g.cell_logprice))
