import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from rlvs.grid import GridData, GridSpec, build_grid, standardize_returns
from rlvs.ingest import normalize_time, synth_gbm_ticks
from rlvs.model import (
    LOG_2PI,
    MixtureSpec,
    ModelDims,
    ModelError,
    ModelParams,
    Posterior,
    cell_mixture,
    component_means,
    grad_log_posterior,
    log_posterior,
    log_prior,
    mixture_logpdf,
    mixture_moments,
    stick_break,
    stick_weights_from_raw,
)


def toy_grid(n_time=3, n_price=3, n_ticks=200, seed=7):
    series = synth_gbm_ticks(100.0, 0.0, 0.5, n_ticks, seed=seed)
    norm = normalize_time(series)
    spec = GridSpec(n_time, n_price, float(series.prices.min()), float(series.prices.max()))
    g, _ = standardize_returns(build_grid(norm, spec))
    return g


def empty_grid(n_time=3, n_price=3):
    spec = GridSpec(n_time, n_price, 90.0, 110.0)
    returns = [[[] for _ in range(n_price)] for _ in range(n_time)]
    width = 20.0 / n_price
    return GridData(
        spec, np.zeros((n_time, n_price), bool), returns,
        (np.arange(n_time) + 0.5) / n_time,
        np.log(90.0 + (np.arange(n_price) + 0.5) * width),
    )


def fd_grad(f, x, h=1e-5):
    out = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


class TestStickBreak:
    def test_half_fractions(self):
        np.testing.assert_allclose(stick_break([0.5, 0.5, 0.5]), [0.5, 0.25, 0.25])

    def test_degenerate_first_stick(self):
        w = stick_break([1.0 - 1e-12, 0.5, 0.5])
        assert w[0] == pytest.approx(1.0, abs=1e-11)
        assert w[1:].sum() == pytest.approx(0.0, abs=1e-11)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 5, 20):
            g = rng.uniform(1e-6, 1 - 1e-6, size=(200, k))
            w = stick_break(g)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(w >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            stick_break([0.5, 1.0])
        with pytest.raises(ModelError):
            stick_break([0.0, 0.5])

    def test_monotone_in_own_fraction(self):
        base = np.array([0.3, 0.4, 0.6])
        bumped = base.copy()
        bumped[1] += 0.1
        assert stick_break(bumped)[1] > stick_break(base)[1]

    def test_log_space_matches_direct(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(10, 4))
        np.testing.assert_allclose(
            stick_weights_from_raw(raw), stick_break(expit(raw)), rtol=1e-12
        )

    def test_log_space_survives_saturation(self):
        w = stick_weights_from_raw(np.array([60.0, -60.0, 0.0]))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=12))
    def test_weights_sum_to_one_for_any_finite_raw(self, raw):
        w = stick_weights_from_raw(np.array(raw))
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_float_limit_raw_warns_nothing(self):
        # Log weights overflow to -inf here; exp gives the exact weight 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = stick_weights_from_raw(np.array([1e308, -1e308, 1e308, 0.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0, 0.0])


class TestComponentMeans:
    def test_constant_model(self):
        g = empty_grid()
        dims = ModelDims(3, 3, 2)
        p = ModelParams.from_vector(dims, np.zeros(dims.n_coords))
        p.alpha[:] = [1.5, -2.0]
        mu = component_means(p, g)
        np.testing.assert_allclose(mu[..., 0], 1.5)
        np.testing.assert_allclose(mu[..., 1], -2.0)

    def test_pure_time_effect(self):
        g = empty_grid()
        dims = ModelDims(3, 3, 1)
        p = ModelParams.from_vector(dims, np.zeros(dims.n_coords))
        p.time_effect[:, 0] = 1.0
        mu = component_means(p, g)
        for i in range(3):
            np.testing.assert_allclose(mu[i, :, 0], g.cell_time[i])

    def test_hand_spot_check(self):
        g = empty_grid()
        rng = np.random.default_rng(17)
        dims = ModelDims(3, 3, 2)
        p = ModelParams.random_init(dims, rng)
        i, j, k = 2, 1, 1
        expected = (
            p.time_effect[i, k] * g.cell_time[i]
            + p.price_effect[j, k] * g.cell_logprice[j]
            + p.alpha[k]
        )
        assert component_means(p, g)[i, j, k] == pytest.approx(expected, rel=1e-14)


class TestMixtureLogpdf:
    def test_standard_normal_at_zero(self):
        mix = MixtureSpec([1.0], [0.0], 1.0)
        assert mixture_logpdf(0.0, mix) == pytest.approx(-0.5 * LOG_2PI)
        assert mixture_logpdf(0.0, mix) == pytest.approx(-0.9189385, abs=1e-6)

    def test_symmetric_mixture_even(self):
        mix = MixtureSpec([0.5, 0.5], [-0.7, 0.7], 0.9)
        for x in (0.1, 0.5, 2.3):
            assert mixture_logpdf(x, mix) == pytest.approx(mixture_logpdf(-x, mix), rel=1e-13)

    def test_matches_naive_summation(self):
        # Oracle: direct density sum without the log-sum-exp path.
        rng = np.random.default_rng(3)
        gammas = rng.uniform(0.2, 0.8, size=3)
        mix = MixtureSpec(stick_break(gammas), rng.normal(size=3), 0.7)
        for x in rng.normal(size=10):
            dens = sum(
                w * np.exp(-0.5 * ((x - m) / mix.scale) ** 2) / (mix.scale * np.sqrt(2 * np.pi))
                for w, m in zip(mix.weights, mix.means)
            )
            assert mixture_logpdf(x, mix) == pytest.approx(np.log(dens), abs=1e-10)


class TestMixtureMoments:
    def test_law_of_total_variance(self):
        mean, var = mixture_moments(MixtureSpec([0.5, 0.5], [-1.0, 1.0], 1.0))
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(2.0)

    def test_single_component(self):
        mean, var = mixture_moments(MixtureSpec([1.0], [0.3], 1.7))
        assert mean == pytest.approx(0.3)
        assert var == pytest.approx(1.7 ** 2)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(4)
        gammas = rng.uniform(0.1, 0.9, size=5)
        mix = MixtureSpec(stick_break(gammas), rng.normal(scale=2.0, size=5), 1.3)
        mean, var = mixture_moments(mix)
        n = 10 ** 6
        comp = rng.choice(5, size=n, p=mix.weights)
        draws = mix.means[comp] + mix.scale * rng.standard_normal(n)
        se_mean = draws.std() / np.sqrt(n)
        assert abs(draws.mean() - mean) < 3 * se_mean
        se_var = np.sqrt((np.mean((draws - draws.mean()) ** 4) - draws.var() ** 2) / n)
        assert abs(draws.var() - var) < 3 * se_var

    def test_variance_floor_at_component_variance(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = rng.integers(1, 6)
            mix = MixtureSpec(
                stick_break(rng.uniform(0.05, 0.95, size=k)),
                rng.normal(size=k), float(rng.uniform(0.2, 2.0)),
            )
            _, var = mixture_moments(mix)
            assert var >= mix.scale ** 2 - 1e-12
        # Equality exactly when all means coincide.
        mix = MixtureSpec(stick_break([0.4, 0.6]), [0.8, 0.8], 1.1)
        _, var = mixture_moments(mix)
        assert var == pytest.approx(1.1 ** 2, rel=1e-12)


class TestLogPrior:
    def test_value_at_zero_coordinates(self):
        dims = ModelDims(2, 2, 2)
        p = ModelParams.from_vector(dims, np.zeros(dims.n_coords))
        n_normal = 2 * 2 + 2 * 2 + 2        # time, price, intercept coords
        n_cells = 2 * 2
        n_sticks = n_cells * 2
        # At zero coordinates every logistic value is 0.5 with Jacobian 0.25.
        # Flat prior on the concentrations contributes nothing; each stick
        # fraction sees Beta(1, 0.5) at 0.5: log(0.5 * 0.5 ** (-.5)).
        expected = (
            -0.5 * n_normal * LOG_2PI
            + n_cells * np.log(0.25)
            + n_sticks * (np.log(0.5) + 0.5 * np.log(2.0) + np.log(0.25))
        )
        assert log_prior(p) == pytest.approx(expected, rel=1e-12)

    def test_beta_one_one_is_uniform(self):
        # With concentration a = 1 the stick prior Beta(1, 1) adds nothing
        # beyond the Jacobian: density term log(a) + (a-1)log(1-g) == 0.
        a, g = 1.0, 0.37
        assert a * np.log(1.0 - g) - np.log(1.0 - g) == pytest.approx(0.0)

    def test_gradient_matches_finite_differences(self):
        dims = ModelDims(2, 3, 2)
        g = empty_grid(2, 3)
        rng = np.random.default_rng(6)
        post = Posterior(g, dims)
        for _ in range(5):
            v = rng.normal(size=dims.n_coords)
            ga = post.grad(v)
            gf = fd_grad(post.logp, v)
            np.testing.assert_allclose(ga, gf, rtol=1e-6, atol=1e-8)

    def test_finite_for_extreme_coordinates(self):
        dims = ModelDims(2, 2, 3)
        v = np.full(dims.n_coords, 500.0)
        p = ModelParams.from_vector(dims, v)
        assert np.isfinite(log_prior(p))
        p2 = ModelParams.from_vector(dims, -v)
        assert np.isfinite(log_prior(p2))


class TestLogPosterior:
    def test_all_masked_equals_prior(self):
        g = empty_grid()
        dims = ModelDims(3, 3, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(8))
        assert log_posterior(p, g) == pytest.approx(log_prior(p), rel=1e-14)

    def test_injecting_into_masked_cell_changes_nothing(self):
        g = toy_grid(seed=9)
        dims = ModelDims(3, 3, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(10))
        base = log_posterior(p, g)
        masked_cells = [(i, j) for i in range(3) for j in range(3) if not g.mask[i, j]]
        assert masked_cells, "toy grid should leave some cells unvisited"
        tampered = GridData(
            g.spec, g.mask.copy(),
            [[list(c) for c in row] for row in g.returns],
            g.cell_time.copy(), g.cell_logprice.copy(),
        )
        # Bypass the consistency validator on purpose: the mask stays off.
        i, j = masked_cells[0]
        tampered.returns[i][j].extend([0.4, -1.2, 2.0])
        assert log_posterior(p, tampered) == base

    def test_single_cell_single_return_composition(self):
        spec = GridSpec(1, 1, 99.0, 103.0)
        x = 0.42
        g = GridData(spec, np.ones((1, 1), bool), [[[x]]],
                     np.array([0.5]), np.log([101.0]))
        dims = ModelDims(1, 1, 3)
        p = ModelParams.random_init(dims, np.random.default_rng(11))
        expected = log_prior(p) + mixture_logpdf(x, cell_mixture(p, g, 0, 0))
        assert log_posterior(p, g) == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_within_cell_permutation(self):
        g = toy_grid(seed=12)
        dims = ModelDims(3, 3, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(13))
        shuffled = GridData(
            g.spec, g.mask.copy(),
            [[list(reversed(c)) for c in row] for row in g.returns],
            g.cell_time.copy(), g.cell_logprice.copy(),
        )
        assert log_posterior(p, shuffled) == pytest.approx(log_posterior(p, g), rel=1e-13)

    def test_finite_everywhere(self):
        g = toy_grid(seed=14)
        dims = ModelDims(3, 3, 2)
        rng = np.random.default_rng(15)
        for scale in (0.1, 1.0, 20.0, 200.0):
            v = rng.normal(scale=scale, size=dims.n_coords)
            assert np.isfinite(log_posterior(ModelParams.from_vector(dims, v), g))


class TestGradLogPosterior:
    def test_matches_finite_differences(self):
        g = toy_grid(seed=16)
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = rng.normal(size=dims.n_coords)
            ga = post.grad(v)
            gf = fd_grad(post.logp, v)
            err = np.abs(ga - gf) / np.maximum(1.0, np.abs(gf))
            assert err.max() < 1e-5

    def test_masked_coordinates_feel_only_prior(self):
        g = toy_grid(seed=18)
        dims = ModelDims(3, 3, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(19))
        grad = grad_log_posterior(p, g)
        prior_only = fd_grad(lambda v: log_prior(ModelParams.from_vector(dims, v)),
                             p.to_vector())
        # Slice out stick/conc coordinates of a masked cell.
        i, j = next((i, j) for i in range(3) for j in range(3) if not g.mask[i, j])
        k = dims.n_components
        base = 3 * k + 3 * k + k
        for kk in range(k):
            idx = base + (i * 3 + j) * k + kk
            assert grad[idx] == pytest.approx(prior_only[idx], rel=1e-6, abs=1e-8)
        idx_c = base + 9 * k + i * 3 + j
        assert grad[idx_c] == pytest.approx(prior_only[idx_c], rel=1e-6, abs=1e-8)

    def test_stationary_point_of_toy_problem(self):
        from scipy.optimize import minimize

        spec = GridSpec(1, 1, 99.0, 103.0)
        g = GridData(spec, np.ones((1, 1), bool), [[[0.3, -0.2, 0.1]]],
                     np.array([0.5]), np.log([101.0]))
        dims = ModelDims(1, 1, 1)
        post = Posterior(g, dims)
        res = minimize(lambda v: -post.logp(v), np.zeros(dims.n_coords),
                       jac=lambda v: -post.grad(v), method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 2000})
        assert np.linalg.norm(post.grad(res.x)) < 1e-8


class TestPosterior:
    def test_cached_observations_match_grid_path_bit_for_bit(self):
        g = toy_grid(seed=22)
        dims = ModelDims(3, 3, 3)
        post = Posterior(g, dims, component_scale=0.8)
        rng = np.random.default_rng(23)
        for scale in (0.5, 1.0, 5.0):
            v = rng.normal(scale=scale, size=dims.n_coords)
            p = ModelParams.from_vector(dims, v, component_scale=0.8)
            assert post.logp(v) == log_posterior(p, g)
            np.testing.assert_array_equal(post.grad(v), grad_log_posterior(p, g))


class TestParamsSerialization:
    def test_vector_round_trip(self):
        dims = ModelDims(3, 4, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(20), component_scale=0.8)
        q = ModelParams.from_vector(dims, p.to_vector(), component_scale=0.8)
        np.testing.assert_array_equal(q.stick_raw, p.stick_raw)
        np.testing.assert_array_equal(q.conc, p.conc)

    def test_mixture_weight_validation(self):
        with pytest.raises(ModelError):
            MixtureSpec([0.6, 0.6], [0.0, 1.0], 1.0)
        with pytest.raises(ModelError):
            MixtureSpec([1.0], [0.0], 0.0)
