import codecs
import json
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rlvs.grid import GridData, GridSpec, build_grid
from rlvs.ingest import TickSeries, normalize_time, synth_gbm_ticks
from rlvs.model import (
    MixtureSpec,
    ModelDims,
    ModelParams,
    mixture_mean_var,
    mixture_moments,
    stick_break,
)
from rlvs.surface import (
    COUNTERFACTUAL_STICK,
    SurfaceConfig,
    SurfaceError,
    annualize,
    build_surface,
    credible_interval,
    export_surface,
    load_surface,
    render_svg,
)
from rlvs import surface
from rlvs.surface import VolSurface
from model_reference import cell_mixture, surface_by_draw


def small_grid(seed=3, n_time=3, n_price=2):
    series = synth_gbm_ticks(100.0, 0.0, 0.4, 120, seed=seed)
    norm = normalize_time(series)
    spec = GridSpec(n_time, n_price, float(series.prices.min()), float(series.prices.max()))
    return build_grid(norm, spec)


class TestPredictiveStd:
    def test_collapsed_mixture_gives_zero(self):
        _, var = mixture_mean_var(np.array([[0.5, 0.5]]), np.array([[0.2, 0.2]]), 1e-12)
        assert var.shape == (1,)
        assert abs(var[0]) < 1e-18

    def test_single_component_recovers_scale(self):
        mean, var = mixture_mean_var(np.ones((1, 1)), np.zeros((1, 1)), 0.37)
        assert mean[0] == 0.0
        assert np.sqrt(var[0]) == pytest.approx(0.37, rel=1e-15)

    def test_matches_analytic_moments(self):
        # A (2, 2, K) batch, with one scale per component, against the law
        # of total variance written out cell by cell.
        rng = np.random.default_rng(2)
        weights = stick_break(rng.uniform(0.1, 0.9, size=(2, 2, 3)))
        means = rng.normal(size=(2, 2, 3))
        scale = np.array([0.8, 1.3, 0.5])
        mean, var = mixture_mean_var(weights, means, scale)
        assert mean.shape == var.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                w, mu = weights[i, j], means[i, j]
                m = sum(w[k] * mu[k] for k in range(3))
                v = sum(w[k] * (scale[k] ** 2 + (mu[k] - m) ** 2) for k in range(3))
                assert mean[i, j] == pytest.approx(m, rel=1e-12)
                assert var[i, j] == pytest.approx(v, rel=1e-12)

    def test_destandardize_scales_linearly(self):
        g = small_grid()
        dims = ModelDims(3, 2, 2)
        draws = [ModelParams.random_init(dims, np.random.default_rng(4)) for _ in range(3)]
        cfg = SurfaceConfig(n_param_draws=3)
        a = build_surface(draws, g, cfg, destandardize_scale=1.0)
        b = build_surface(draws, g, cfg, destandardize_scale=0.002)
        for name in ("vol_mean", "vol_lo", "vol_hi"):
            np.testing.assert_allclose(getattr(b, name), 0.002 * getattr(a, name),
                                       rtol=1e-12)

    def test_per_draw_std_is_exact_cell_mixture_std(self):
        # Each draw gives each cell the exact std of its mixture: visited
        # cells through their own sticks, masked cells through the
        # counterfactual weights. Reference: one cell at a time.
        g = small_grid(n_time=4, n_price=3)
        assert g.mask.any() and not g.mask.all()
        dims = ModelDims(4, 3, 3)
        rng = np.random.default_rng(15)
        draws = [ModelParams.random_init(dims, rng) for _ in range(5)]
        cfg = SurfaceConfig(n_param_draws=4, bins_per_day=78, trading_days=252)
        scale = 0.003
        w_cf = stick_break(np.full(3, COUNTERFACTUAL_STICK))
        vols = np.empty((4, 4, 3))
        for d, params in enumerate(draws[-4:]):
            for i in range(4):
                for j in range(3):
                    mix = cell_mixture(params, g, i, j)
                    if not g.mask[i, j]:
                        mix = MixtureSpec(w_cf, mix.means, mix.scale)
                    vols[d, i, j] = np.sqrt(mixture_moments(mix)[1]) * scale * np.sqrt(78 * 252)
            one = build_surface([params, params], g, replace(cfg, n_param_draws=2),
                                destandardize_scale=scale)
            for name in ("vol_mean", "vol_lo", "vol_hi"):
                np.testing.assert_allclose(getattr(one, name), vols[d], rtol=1e-12)
        surf = build_surface(draws, g, cfg, destandardize_scale=scale)
        np.testing.assert_allclose(surf.vol_mean, vols.mean(axis=0), rtol=1e-12)
        lo, hi = np.quantile(vols, [0.025, 0.975], axis=0)
        np.testing.assert_allclose(surf.vol_lo, lo, rtol=1e-12)
        np.testing.assert_allclose(surf.vol_hi, hi, rtol=1e-12)

    def test_counterfactual_weights_are_deterministic(self):
        g = small_grid(n_time=4, n_price=4)
        assert not g.mask.all(), "the grid should leave some cells unvisited"
        dims = ModelDims(4, 4, 3)
        a = ModelParams.random_init(dims, np.random.default_rng(7))
        b = ModelParams.from_vector(dims, a.to_vector())
        # Same draw except the sticks and concentrations of unvisited cells:
        # the surface must ignore those coordinates entirely.
        rng = np.random.default_rng(8)
        b.stick_raw[~g.mask] = rng.normal(size=b.stick_raw[~g.mask].shape)
        b.conc[~g.mask] = rng.normal(size=b.conc[~g.mask].shape)
        cfg = SurfaceConfig(n_param_draws=2)
        s1 = build_surface([a, a], g, cfg)
        s2 = build_surface([b, b], g, cfg)
        np.testing.assert_array_equal(s1.vol_mean, s2.vol_mean)
        np.testing.assert_array_equal(s1.vol_lo, s2.vol_lo)
        np.testing.assert_array_equal(s1.vol_hi, s2.vol_hi)


class TestAnnualize:
    def test_zero(self):
        assert annualize(0.0, 78, 252) == 0.0

    def test_five_minute_bin_hand_value(self):
        assert annualize(0.011, 78, 252) == pytest.approx(0.011 * np.sqrt(19_656))
        assert annualize(0.011, 78, 252) == pytest.approx(1.54, abs=0.01)

    def test_identity_scaling(self):
        assert annualize(0.42, 1, 1) == pytest.approx(0.42)

    def test_validation(self):
        with pytest.raises(SurfaceError):
            annualize(0.1, 0, 252)
        with pytest.raises(SurfaceError):
            annualize(-0.1, 78, 252)


class TestCredibleInterval:
    def test_linear_interpolation_hand_values(self):
        lo, hi = credible_interval(np.arange(1.0, 101.0), 0.95)
        assert lo == pytest.approx(3.475)
        assert hi == pytest.approx(97.525)

    def test_constant_samples(self):
        lo, hi = credible_interval([2.0, 2.0, 2.0], 0.5)
        assert lo == hi == 2.0

    def test_ordering_and_monotonicity_in_level(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=500)
        prev_lo, prev_hi = credible_interval(x, 0.5)
        for level in (0.6, 0.8, 0.95, 0.99):
            lo, hi = credible_interval(x, level)
            assert lo <= hi
            assert lo <= prev_lo and hi >= prev_hi
            prev_lo, prev_hi = lo, hi

    def test_too_few_samples(self):
        with pytest.raises(SurfaceError):
            credible_interval([1.0], 0.95)

    def test_first_axis_matches_per_column_calls(self):
        x = np.random.default_rng(17).normal(size=(50, 3, 2))
        lo, hi = credible_interval(x, 0.9)
        assert lo.shape == hi.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert (lo[i, j], hi[i, j]) == credible_interval(x[:, i, j], 0.9)

    def test_equals_np_quantile(self):
        # One sort and the linear method's arithmetic: the same floats as
        # np.quantile, on stacks with ties and two samples.
        rng = np.random.default_rng(23)
        for _ in range(3000):
            n = int(rng.integers(2, 300))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            if rng.random() < 0.5:
                x = np.round(x, 1)  # ties
            level = rng.uniform(0.01, 0.99)
            tail = (1.0 - level) / 2.0
            want = np.quantile(x, [tail, 1.0 - tail], axis=0)
            assert np.array_equal(credible_interval(x, level), want)

    def test_nan_slice_gives_nan_bounds(self):
        x = np.array([[1.0, 1.0], [np.nan, 2.0], [3.0, 3.0]])
        lo, hi = credible_interval(x, 0.9)
        want = np.quantile(x, [0.05, 0.95], axis=0)
        np.testing.assert_array_equal(lo, want[0])
        np.testing.assert_array_equal(hi, want[1])
        assert np.isnan(lo[0]) and np.isnan(hi[0]) and np.isfinite(lo[1])


class TestBuildSurface:
    def make_draws(self, n, seed=11, dims=None):
        dims = dims or ModelDims(3, 2, 2)
        rng = np.random.default_rng(seed)
        return [ModelParams.random_init(dims, rng) for _ in range(n)]

    def test_shapes_and_flags(self):
        g = small_grid()
        cfg = SurfaceConfig(n_param_draws=5)
        surf = build_surface(self.make_draws(5), g, cfg)
        assert surf.vol_mean.shape == (3, 2)
        np.testing.assert_array_equal(surf.masked, ~g.mask)
        assert np.isfinite(surf.vol_mean).all()
        assert (surf.vol_lo <= surf.vol_hi).all()
        assert (surf.vol_mean >= 0).all()

    def test_identical_draws_tight_interval(self):
        g = small_grid()
        draws = self.make_draws(1) * 40
        cfg = SurfaceConfig(n_param_draws=40)
        surf = build_surface(draws, g, cfg)
        # Each draw's std is exact, so identical draws leave no spread.
        np.testing.assert_array_equal(surf.vol_hi - surf.vol_lo, 0.0)
        np.testing.assert_allclose(surf.vol_mean, surf.vol_lo, rtol=1e-12)

    def test_insufficient_draws_names_count(self):
        g = small_grid()
        cfg = SurfaceConfig(n_param_draws=10)
        with pytest.raises(SurfaceError, match="10"):
            build_surface(self.make_draws(3), g, cfg)

    def test_deterministic_given_seeds(self):
        g = small_grid()
        cfg = SurfaceConfig(n_param_draws=4)
        a = build_surface(self.make_draws(4), g, cfg)
        b = build_surface(self.make_draws(4), g, cfg)
        np.testing.assert_array_equal(a.vol_mean, b.vol_mean)
        np.testing.assert_array_equal(a.vol_lo, b.vol_lo)

    def test_gbm_recovery_within_band(self):
        # Full small-scale fit happens in the acceptance suite; here the
        # surface stage alone is checked against a hand-built single
        # component model matching the data scale.
        g = small_grid(seed=21)
        dims = ModelDims(3, 2, 1)
        p = ModelParams.from_vector(dims, np.zeros(dims.n_coords))
        cfg = SurfaceConfig(n_param_draws=3, bins_per_day=78, trading_days=252)
        scale = 0.002
        surf = build_surface([p, p, p], g, cfg, destandardize_scale=scale)
        expected = annualize(scale, 78, 252)
        np.testing.assert_allclose(surf.vol_mean, expected, rtol=1e-12)


@st.composite
def degenerate_fits(draw):
    """Small grids and draws: K = 1, n_price = 1 and one visited cell included."""
    n_time = draw(st.integers(1, 3))
    n_price = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    n_ticks = draw(st.integers(2, 6))
    times = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n_ticks,
                                  max_size=n_ticks)))
    prices = np.array(draw(st.lists(st.floats(90.0, 110.0), min_size=n_ticks,
                                    max_size=n_ticks)))
    grid = build_grid(TickSeries(times, prices), GridSpec(n_time, n_price, 90.0, 110.0))
    # Raw coordinates up to +-50 saturate the stick fractions.
    spread = draw(st.sampled_from([1.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = ModelDims(n_time, n_price, k)
    draws = [ModelParams.from_vector(dims, spread * rng.standard_normal(dims.n_coords))
             for _ in range(draw(st.integers(2, 4)))]
    return draws, grid, SurfaceConfig(n_param_draws=len(draws))


# One tick pair: exactly one visited cell, one component, one price bin.
ONE_VISITED_CELL = (
    [ModelParams.from_vector(ModelDims(2, 1, 1), np.zeros(ModelDims(2, 1, 1).n_coords))] * 2,
    build_grid(TickSeries(np.array([0.1, 0.2]), np.array([100.0, 101.0])),
               GridSpec(2, 1, 90.0, 110.0)),
    SurfaceConfig(n_param_draws=2),
)


@settings(max_examples=40, deadline=None)
@given(fit=degenerate_fits())
@example(fit=ONE_VISITED_CELL)
def test_surface_finite_on_degenerate_shapes(fit):
    draws, grid, cfg = fit
    surf = build_surface(draws, grid, cfg, destandardize_scale=0.002)
    assert surf.vol_mean.shape == (grid.spec.n_time, grid.spec.n_price)
    for values in (surf.vol_mean, surf.vol_lo, surf.vol_hi):
        assert np.isfinite(values).all()
        assert (values >= 0).all()
    assert (surf.vol_lo <= surf.vol_hi).all()


def mask_fit(mask, k, n_draws, n_param_draws, spread=1.0, masked_edge=False, seed=0):
    """Draws on a grid with visited-cell ``mask`` and one return in each
    visited cell; ``masked_edge`` puts every masked cell's stick and
    concentration coordinates at +-1e308, signs drawn at random."""
    mask = np.asarray(mask, dtype=bool)
    n_time, n_price = mask.shape
    spec = GridSpec(n_time, n_price, 90.0, 110.0)
    returns = [[[0.1] if mask[i, j] else [] for j in range(n_price)] for i in range(n_time)]
    rng = np.random.default_rng(seed)
    grid = GridData(spec, mask, returns, spec.cell_time, rng.normal(size=n_price))
    dims = ModelDims(n_time, n_price, k)
    draws = []
    for _ in range(n_draws):
        p = ModelParams.from_vector(dims, spread * rng.standard_normal(dims.n_coords))
        if masked_edge:
            p.stick_raw[~mask] = rng.choice([1e308, -1e308], size=p.stick_raw[~mask].shape)
            p.conc[~mask] = rng.choice([1e308, -1e308], size=p.conc[~mask].shape)
        draws.append(p)
    return draws, grid, SurfaceConfig(n_param_draws=n_param_draws)


@st.composite
def mask_fits(draw, components=st.integers(1, 7)):
    """Random small grids, visited cells and draws, with fewer kept draws than
    given and masked coordinates at the float limit."""
    n_time, n_price = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_time * n_price,
                                  max_size=n_time * n_price))).reshape(n_time, n_price)
    n_draws = draw(st.integers(2, 20))
    return mask_fit(mask, draw(components), n_draws, draw(st.integers(2, n_draws)),
                    draw(st.sampled_from([1.0, 50.0])), draw(st.booleans()),
                    draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(fit=mask_fits(), block=st.one_of(st.none(), st.integers(1, 8)))
# K = 1, one price bin and one visited cell; the paper's grid with every cell
# visited, in its own blocks of 8 draws, 11 kept of 13, so the last block is
# partial; the masked cells at the float limit.
@example(fit=mask_fit([[False], [True]], 1, 2, 2), block=None)
@example(fit=mask_fit(np.ones((78, 10)), 5, 13, 11), block=None)
@example(fit=mask_fit([[True, False], [False, False]], 3, 9, 9, 50.0, True), block=2)
def test_blocked_surface_equals_draw_by_draw_loop(fit, block):
    # With K < 8 numpy sums a per-draw (I, J, K) array's K terms in order, as
    # the component-major blocks do, and the stick weights are a running sum
    # whatever the number of rows beside them, so every float is the same.
    # ``block`` draws per block, where given, make small grids' blocks partial too.
    draws, grid, cfg = fit
    budget = surface._BLOCK_BYTES if block is None else block * 8 * draws[0].stick_raw.size
    with mock.patch.object(surface, "_BLOCK_BYTES", budget):
        ours = build_surface(draws, grid, cfg, destandardize_scale=0.002)
    assert_same_surface(ours, surface_by_draw(draws, grid, cfg, destandardize_scale=0.002))


@settings(max_examples=10, deadline=None)
@given(fit=mask_fits(components=st.integers(8, 12)))
def test_blocked_surface_near_draw_by_draw_loop_for_eight_or_more_components(fit):
    # From 8 terms numpy sums a contiguous axis pairwise, so the loop's sums
    # group the K terms otherwise: a few ulp of each moment, 1e-12 at most
    # once the variance's cancellation is counted at the strategy's spreads.
    draws, grid, cfg = fit
    ours, ref = build_surface(draws, grid, cfg), surface_by_draw(draws, grid, cfg)
    for name in ("vol_mean", "vol_lo", "vol_hi"):
        np.testing.assert_allclose(getattr(ours, name), getattr(ref, name), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(fit=mask_fits(components=st.integers(1, 8)), seed=st.integers(0, 2 ** 32 - 1))
# One visited cell and one price bin, at K = 1 and at K = 8.
@example(fit=mask_fit([[False], [True]], 1, 2, 2), seed=0)
@example(fit=mask_fit([[True], [False], [False]], 8, 3, 2), seed=0)
def test_surface_reads_only_the_coordinates_a_checkpoint_stores(fit, seed):
    # A checkpoint keeps ModelDims.stored of each draw. Whatever the other
    # coordinates hold, here half at the float's edges and half spread
    # wide, every float of the surface is the same.
    draws, grid, cfg = fit
    dims = draws[0].dims
    rest = np.setdiff1d(np.arange(dims.n_coords), dims.stored(grid.mask))
    rng = np.random.default_rng(seed)
    other = []
    for p in draws:
        vec = p.to_vector()
        vec[rest] = np.where(rng.random(rest.size) < 0.5,
                             rng.choice([1e308, -1e308, 5e-324, -0.0], rest.size),
                             1e3 * rng.standard_normal(rest.size))
        other.append(ModelParams.from_vector(dims, vec))
    ours = build_surface(draws, grid, cfg, destandardize_scale=0.002)
    theirs = build_surface(other, grid, cfg, destandardize_scale=0.002)
    for name in ("vol_mean", "vol_lo", "vol_hi"):
        assert (getattr(ours, name).view(np.uint64) == getattr(theirs, name).view(np.uint64)).all()


def test_blocked_surface_peak_memory():
    # 500 draws on the paper's 78 x 10 x 5 grid, every cell visited. The
    # draw-by-draw loop peaked at 9.49 MB under tracemalloc (its (draws, I, J)
    # stds and two scaled copies); one (draws, I, J, K) array would be 15.6 MB.
    draws, grid, cfg = mask_fit(np.ones((78, 10)), 5, 500, 500)
    build_surface(draws[:10], grid, replace(cfg, n_param_draws=10))
    tracemalloc.start()
    try:
        build_surface(draws, grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.49e6


class TestExport:
    def make_surface(self, seed=12):
        g = small_grid(seed=seed)
        dims = ModelDims(3, 2, 2)
        rng = np.random.default_rng(seed)
        draws = [ModelParams.random_init(dims, rng) for _ in range(4)]
        cfg = SurfaceConfig(n_param_draws=4)
        return build_surface(draws, g, cfg)

    def test_csv_round_trip(self, tmp_path):
        surf = self.make_surface()
        p = tmp_path / "surf.csv"
        export_surface(surf, p, "csv")
        header = p.read_text().splitlines()[0]
        assert header == "i,j,t_norm,price_mid,price_lo,price_hi,vol_mean,vol_lo,vol_hi,masked"
        assert len(p.read_text().splitlines()) == 1 + 3 * 2
        back = load_surface(p)
        np.testing.assert_allclose(back.vol_mean, surf.vol_mean, atol=1e-9)
        np.testing.assert_allclose(back.vol_lo, surf.vol_lo, atol=1e-9)
        np.testing.assert_array_equal(back.masked, surf.masked)

    def test_csv_without_price_edges_names_them(self, tmp_path):
        p = tmp_path / "old.csv"
        p.write_text("i,j,t_norm,price_mid,vol_mean,vol_lo,vol_hi,masked\n"
                     "0,0,0.5,100.0,0.4,0.3,0.5,0\n")
        with pytest.raises(SurfaceError, match="price_lo, price_hi"):
            load_surface(p)

    def test_single_cell_csv(self, tmp_path):
        g = small_grid(seed=13, n_time=1, n_price=1)
        dims = ModelDims(1, 1, 2)
        draws = [ModelParams.random_init(dims, np.random.default_rng(14)) for _ in range(2)]
        cfg = SurfaceConfig(n_param_draws=2)
        surf = build_surface(draws, g, cfg)
        p = tmp_path / "one.csv"
        export_surface(surf, p, "csv")
        assert len(p.read_text().splitlines()) == 2

    def test_json_round_trip(self, tmp_path):
        surf = self.make_surface()
        p = tmp_path / "surf.json"
        export_surface(surf, p, "json")
        back = load_surface(p)
        np.testing.assert_array_equal(back.vol_mean, surf.vol_mean)
        assert back.spec == surf.spec

    def test_svg_well_formed(self, tmp_path):
        surf = self.make_surface()
        p = tmp_path / "surf.svg"
        export_surface(surf, p, "svg")
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
        text = p.read_text()
        assert "legend" in text or "annualized" in text

    def test_svg_outlines_path_cells(self):
        surf = self.make_surface()
        svg = render_svg(surf)
        n_outlines = svg.count('stroke="black"')
        assert n_outlines == int((~surf.masked).sum())

    def test_unknown_format(self, tmp_path):
        surf = self.make_surface()
        with pytest.raises(SurfaceError):
            export_surface(surf, tmp_path / "x.bin", "bin")


@st.composite
def surfaces(draw):
    """Random surfaces over random specs, n_price = 1 included."""
    n_time = draw(st.integers(1, 4))
    n_price = draw(st.integers(1, 4))
    price_min = draw(st.floats(0.0, 1e4))
    price_max = price_min + draw(st.floats(1e-3, 1e4))
    vols = st.floats(0.0, 10.0)
    shape = (n_time, n_price)

    def grid_of(values):
        return np.array(draw(st.lists(values, min_size=n_time * n_price,
                                      max_size=n_time * n_price))).reshape(shape)

    return VolSurface(
        spec=GridSpec(n_time, n_price, price_min, price_max),
        vol_mean=grid_of(vols), vol_lo=grid_of(vols), vol_hi=grid_of(vols),
        masked=grid_of(st.booleans()).astype(bool),
    )


def assert_same_surface(a, b):
    assert a.spec == b.spec
    for name in ("vol_mean", "vol_lo", "vol_hi", "masked"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def round_trip(surf, directory, fmt):
    p = directory / f"surf.{fmt}"
    export_surface(surf, p, fmt)
    return load_surface(p)


@settings(max_examples=40, deadline=None)
@given(surf=surfaces())
def test_json_round_trip_is_exact(tmp_path_factory, surf):
    assert_same_surface(round_trip(surf, tmp_path_factory.mktemp("json"), "json"), surf)


# One price bin over [90, 110]: the band must come back as [90, 110].
ONE_PRICE_BIN = VolSurface(
    GridSpec(2, 1, 90.0, 110.0), np.array([[0.4], [0.5]]), np.array([[0.3], [0.4]]),
    np.array([[0.5], [0.6]]), np.array([[False], [True]]),
)


@settings(max_examples=40, deadline=None)
@given(surf=surfaces())
@example(surf=ONE_PRICE_BIN)
def test_csv_round_trip_is_exact(tmp_path_factory, surf):
    # The CSV does not carry session_length; these specs use the default.
    assert_same_surface(round_trip(surf, tmp_path_factory.mktemp("csv"), "csv"), surf)


# A 2 x 2 surface over [90, 110]; cell (0, 1) is the one the path missed.
TWO_BY_TWO = VolSurface(
    GridSpec(2, 2, 90.0, 110.0), np.array([[0.4, 0.5], [0.45, 0.55]]),
    np.array([[0.3, 0.4], [0.35, 0.45]]), np.array([[0.5, 0.6], [0.55, 0.65]]),
    np.array([[False, True], [False, False]]),
)


def _set(field, value):
    return lambda d: d.__setitem__(field, value)


def _drop(field):
    def edit(d):
        del d[field]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("vol_mean"), "surface has no field vol_mean"),
    (_drop("spec"), "surface has no field spec"),
    (_drop("masked"), "surface has no field masked"),
    (_set("vol_mean", [[0.4]]), "surface vol_mean must hold 2 x 2 finite numbers, one per cell"),
    (_set("vol_lo", [[0.3, 0.4], [0.35]]), "surface vol_lo must hold 2 x 2 finite numbers"),
    (_set("vol_hi", [[0.5, 0.6], [0.55, 0.65], [0.1, 0.2]]),
     "surface vol_hi must hold 2 x 2 finite numbers"),
    (_set("vol_mean", [[0.4, None], [0.45, 0.55]]), "surface vol_mean must hold 2 x 2 finite"),
    (_set("vol_mean", [[0.4, "0.5"], [0.45, 0.55]]), "surface vol_mean must hold numbers, not str"),
    (_set("vol_lo", [[0.3, True], [0.35, 0.45]]), "surface vol_lo must hold numbers, not bool"),
    (_set("vol_hi", "0.5"), "surface vol_hi must be a list of rows of numbers"),
    (_set("vol_hi", [0.5, 0.6, 0.55, 0.65]), "surface vol_hi must be a list of rows of numbers"),
    (_set("masked", [[0, "0"], [0, 0]]), "surface masked must hold only 0, 1, true or false"),
    (_set("masked", [[0, 2], [0, 0]]), "surface masked must hold only 0, 1, true or false"),
    (_set("masked", [[0, 1]]), "surface masked must hold 2 x 2 flags, one per cell"),
    (lambda d: _drop("price_max")(d["spec"]), "grid spec has no field price_max"),
    (lambda d: d["spec"].update(n_price="2"), "grid spec n_price must be of type int"),
    (lambda d: json.dumps([d]), "surface must be an object, got list"),
    (lambda d: json.dumps(d)[:20], "not valid JSON: "),
    (lambda d: json.dumps(d).replace("90.0", "9" * 5000, 1), "not valid JSON: Exceeds the limit"),
])
def test_malformed_json_surface_refused_by_name(tmp_path, edit, message):
    path = tmp_path / "surf.json"
    d = TWO_BY_TWO.to_dict()
    text = edit(d)  # a string is the file's new text
    path.write_text(json.dumps(d) if text is None else text)
    with pytest.raises(SurfaceError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_surface(path)


def _csv_cell(i, j, column, value):
    """An edit setting ``column`` of cell (i, j)'s row to the text ``value``."""
    def edit(lines):
        header = lines[0].split(",")
        row = 1 + 2 * i + j
        fields = lines[row].split(",")
        fields[header.index(column)] = value
        lines[row] = ",".join(fields)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines.pop(3),
     "surface CSV has 3 rows for its 2 x 2 cells, which need one row each"),
    (lambda lines: lines.append(lines[2]), "surface CSV has 5 rows for its 2 x 2 cells"),
    (_csv_cell(1, 1, "i", "0"), "surface CSV has 2 rows for cell (0, 1), which needs one"),
    (_csv_cell(1, 1, "j", "3"), "surface CSV has 4 rows for its 2 x 4 cells"),
    (_csv_cell(1, 1, "i", str(2 ** 62)), "surface CSV has 4 rows for its "),
    (_csv_cell(0, 0, "i", "x"), "surface CSV column i: "),
    (_csv_cell(0, 1, "j", "1.5"), "surface CSV column j: "),
    (_csv_cell(1, 0, "i", "-1"), "surface CSV cell indices i and j must be >= 0"),
    (_csv_cell(1, 1, "vol_mean", "abc"), "surface CSV column vol_mean: "),
    (_csv_cell(1, 1, "vol_lo", "nan"), "surface vol_lo must hold 2 x 2 finite numbers"),
    (_csv_cell(0, 0, "vol_hi", "inf"), "surface vol_hi must hold 2 x 2 finite numbers"),
    (_csv_cell(0, 1, "masked", "2"), "surface masked must hold only 0, 1, true or false"),
    (_csv_cell(0, 1, "masked", "yes"), "surface CSV column masked: "),
    (_csv_cell(0, 0, "price_lo", "inf"), "price_min must be finite, got inf"),
    (lambda lines: lines.__setitem__(2, "0,1,0.25"),
     "surface CSV line 3 holds 3 values for 10 columns"),
    (lambda lines: lines.__setitem__(4, lines[4] + ",0"),
     "surface CSV line 5 holds 11 values for 10 columns"),
    # Lines are the file's: a blank line counts.
    (lambda lines: lines.__setitem__(slice(3, 4), ["", "1,0,0.25"]),
     "surface CSV line 5 holds 3 values for 10 columns"),
    (lambda lines: lines.__setitem__(0, lines[0].replace("vol_hi", "vol_top")),
     "surface CSV has no column vol_hi"),
    (lambda lines: lines.__delitem__(slice(1, None)), "empty surface file"),
    (lambda lines: lines.__setitem__(2, "9" * 200_000), "field larger than field limit"),
])
def test_malformed_csv_surface_refused_by_name(tmp_path, edit, message):
    path = tmp_path / "surf.csv"
    export_surface(TWO_BY_TWO, path, "csv")
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SurfaceError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_surface(path)


def test_two_by_two_surface_loads_from_both_formats(tmp_path):
    # The unedited files of the two tests above load.
    for fmt in ("csv", "json"):
        assert_same_surface(round_trip(TWO_BY_TWO, tmp_path, fmt), TWO_BY_TWO)
    # Blank and whitespace-only lines hold no cell, so a CSV that ends in them still loads.
    path = tmp_path / "blank.csv"
    export_surface(TWO_BY_TWO, path, "csv")
    with open(path, "a") as fh:
        fh.write("\n\n \t\n")
    assert_same_surface(load_surface(path), TWO_BY_TWO)


def _outcome(path):
    """load_surface's result on ``path``: the surface's dict or the refusal's message."""
    try:
        return load_surface(path).to_dict()
    except SurfaceError as exc:
        return str(exc)


def _outcomes(path):
    """(load_surface's result, the row reader's result) on ``path``."""
    first = _outcome(path)
    with mock.patch.object(surface, "_loadtxt_body", return_value=None):
        return first, _outcome(path)


@settings(max_examples=150, deadline=None)
@given(surf=surfaces(), data=st.data())
@example(surf=TWO_BY_TWO, data=None)
def test_loadtxt_and_csv_reader_paths_agree(tmp_path_factory, surf, data):
    path = tmp_path_factory.mktemp("parity") / "surf.csv"
    export_surface(surf, path, "csv")
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if data is not None:
        order = data.draw(st.permutations(range(len(rows[0]))), label="column order")
        rows = [[r[k] for k in order] for r in rows]
        for name, value in data.draw(st.lists(st.tuples(st.sampled_from(["x", "i", ""]),
                                                        st.sampled_from(["0.5", "7", "a"])),
                                              max_size=2), label="extra columns"):
            rows = [r + [name if n == 0 else value] for n, r in enumerate(rows)]
        header = rows[0]
        for _ in range(data.draw(st.integers(0, 3), label="edited fields")):
            n = data.draw(st.integers(1, len(rows) - 1))
            k = data.draw(st.integers(0, len(header) - 1))
            edit = data.draw(st.sampled_from(["+{}", "0{}", " {} ", "{}.0", '"{}"',
                                              str(2 ** 62), "-{}", "{}_0", ""]))
            rows[n][k] = edit.replace("{}", rows[n][k])
        for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
            n = data.draw(st.integers(1, len(rows)))
            rows.insert(n, [data.draw(st.sampled_from(["", " "]))])
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
        bom = data.draw(st.sampled_from(["", "\ufeff"]), label="byte-order mark")
        path.write_text(bom + "".join(",".join(r) + end for r in rows), newline="")
    fast, slow = _outcomes(path)
    assert fast == slow


@pytest.mark.parametrize("edit", [
    lambda text: text,
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text.replace("\n", "\n\n"),
    lambda text: "\ufeff" + text,
    lambda text: "".join(",".join([*reversed(line.split(",")), "7"]) + "\n"
                         for line in text.splitlines()),
    lambda text: text.replace("\n1,", "\n+1,"),
    lambda text: text.replace("\n1,1,", f"\n{2 ** 62},1,"),
])
def test_loadtxt_path_reads_plain_files(tmp_path, edit):
    # Files that loadtxt takes whole, so the row reader is not run; alone, it
    # gives the same.
    path = tmp_path / "surf.csv"
    export_surface(TWO_BY_TWO, path, "csv")
    path.write_text(edit(path.read_text()), newline="")
    with mock.patch.object(surface, "_csv_rows", side_effect=AssertionError("row by row")):
        fast = _outcome(path)
    with mock.patch.object(surface, "_loadtxt_body", return_value=None):
        assert _outcome(path) == fast


def test_byte_order_mark_skipped_in_csv(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one; a quoted field
    # sends the CSV to the csv.reader path.
    path = tmp_path / "surf.csv"
    export_surface(TWO_BY_TWO, path, "csv")
    text = path.read_text()
    for body in (text, text.replace("\n0,0,", '\n"0",0,')):
        path.write_text("\ufeff" + body, encoding="utf-8")
        assert path.read_bytes().startswith(codecs.BOM_UTF8)
        assert_same_surface(load_surface(path), TWO_BY_TWO)


def test_byte_order_mark_skipped_in_json(tmp_path):
    path = tmp_path / "surf.json"
    path.write_text("\ufeff" + json.dumps(TWO_BY_TWO.to_dict()), encoding="utf-8")
    assert_same_surface(load_surface(path), TWO_BY_TWO)


def test_config_validation():
    with pytest.raises(SurfaceError):
        SurfaceConfig(n_param_draws=0)
    with pytest.raises(SurfaceError):
        SurfaceConfig(ci_level=1.0)
    with pytest.raises(SurfaceError):
        SurfaceConfig(bins_per_day=0)


def test_retired_knobs_change_nothing():
    # n_returns_per_draw and seed stay loadable, but the surface reads neither.
    g = small_grid()
    draws = [ModelParams.random_init(ModelDims(3, 2, 2), np.random.default_rng(s))
             for s in range(3)]
    a = build_surface(draws, g, SurfaceConfig(n_param_draws=3))
    b = build_surface(draws, g, SurfaceConfig(n_param_draws=3, n_returns_per_draw=1, seed=-9))
    assert_same_surface(a, b)


def test_config_rejects_one_param_draw():
    # A credible interval needs at least two draws.
    with pytest.raises(SurfaceError, match="n_param_draws"):
        SurfaceConfig(n_param_draws=1)
