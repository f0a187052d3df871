import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, log_expit, logsumexp

from rlvs import model
from rlvs.grid import GridData, GridSpec, build_grid, standardize_returns
from rlvs.ingest import normalize_time, synth_gbm_ticks
from rlvs.sampler import HmcConfig, effective_sample_size, run_chain
from rlvs.model import (
    COMPONENT_SCALE,
    LOG_2PI,
    MixtureSpec,
    ModelDims,
    ModelError,
    ModelParams,
    Posterior,
    component_means,
    log_posterior,
    mixture_moments,
    stick_break,
    stick_weights_from_raw,
)
from model_reference import cell_mixture, mixture_logpdf


def log_prior(params):
    """The log prior at ``params``, from the kernel's own prior function."""
    dims = params.dims
    return model._prior(params.to_vector(), dims.n_shared, dims.n_components)[0]


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


class TestStickArithmeticAtTheEdges:
    """The triangular-product stick sums against plain running sums, on raw
    coordinates where a log weight underflows, saturates or overflows."""

    EDGES = [0.0, 800.0, -800.0, 1e308, -1e308]

    def raws(self, k):
        """Every row of k EDGES values when there are at most 3,125, else 3,000
        rows drawn from them."""
        if len(self.EDGES) ** k <= 3125:
            return np.array(list(itertools.product(self.EDGES, repeat=k)))
        return np.random.default_rng(k).choice(self.EDGES, size=(3000, k))

    @staticmethod
    def assert_like(ours, ref):
        """Finite where ``ref`` is, -inf where it is, never NaN, and close."""
        assert not np.isnan(ours).any()
        np.testing.assert_array_equal(np.isfinite(ours), np.isfinite(ref))
        np.testing.assert_array_equal(ours == -np.inf, ref == -np.inf)
        finite = np.isfinite(ref)
        np.testing.assert_allclose(ours[finite], ref[finite], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_log_weights_and_weights(self, k):
        raw = self.raws(k)
        vec = np.concatenate([raw.ravel(), np.full(len(raw), 0.3)])
        with np.errstate(over="ignore"):
            logw = model._prior(vec, 0, k)[2]
            ref = _cumsum_log_weights(raw)
        self.assert_like(logw, ref)
        w = stick_weights_from_raw(raw)
        np.testing.assert_array_equal(w == 0.0, np.exp(ref) == 0.0)
        np.testing.assert_allclose(w, np.exp(ref), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_gradient_tail(self, k):
        # The stick gradient holds each cell's tail sums of responsibilities.
        g = one_cell_grid()
        post = Posterior(g, ModelDims(2, 2, k))
        n_shared = post.dims.n_shared
        rng = np.random.default_rng(40 + k)
        raws = self.raws(k)
        for raw in raws[::max(1, len(raws) // 200)]:
            vec = np.concatenate([rng.normal(scale=0.5, size=n_shared), raw, [0.3]])
            with np.errstate(all="ignore"):
                _, grad = model._value_and_grad(vec, post._obs)
                _, ref = _take_bincount_pass(post, vec)
            self.assert_like(grad, ref)


class TestLogistic:
    """The numpy logistic helper against scipy's, which it replaced."""

    # 0, where 1 + exp(-x) rounds to 1 (36.8), exp's overflow (709.78) and
    # underflow (745) edges, the subnormal range, the float limit and inf.
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 36.8, -36.8, 709.78, -709.78,
             745.0, -745.0, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf]

    def inputs(self):
        rng = np.random.default_rng(17)
        return np.concatenate([rng.normal(0.0, 5.0, 200_000),
                               rng.uniform(-750.0, 750.0, 50_000), self.EDGES])

    def test_log_expit_bitwise_equal_to_scipy(self):
        x = self.inputs()
        np.testing.assert_array_equal(model._log_expit(x).view(np.int64),
                                      log_expit(x).view(np.int64))


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
        grad = Posterior(g, dims).grad(p.to_vector())
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
            p = ModelParams.from_vector(dims, v)
            assert post.logp(v) == Posterior(g, dims, 0.8).logp(p.to_vector())
            assert post.logp(v) == pytest.approx(_reference_log_posterior(p, g, 0.8),
                                                 rel=1e-12)
            np.testing.assert_array_equal(post.grad(v),
                                          Posterior(g, dims, 0.8).grad(p.to_vector()))


    def test_memo_never_serves_a_stale_result(self):
        g = toy_grid(seed=24)
        dims = ModelDims(3, 3, 3)
        post = Posterior(g, dims)
        rng = np.random.default_rng(25)

        def fresh(v):
            p = ModelParams.from_vector(dims, v)
            return log_posterior(p, g), Posterior(g, dims).grad(v)

        v1, v2 = rng.normal(size=(2, dims.n_coords))
        post.grad(v1)
        assert post.logp(v2) == fresh(v2)[0]
        assert post.last_logp() == fresh(v1)[0]  # the last grad call's, not logp's
        np.testing.assert_array_equal(post.grad(v1), fresh(v1)[1])

        # The caller mutates its vector in place between calls.
        v = v1.copy()
        post.grad(v)
        v[dims.n_coords - 1] += 0.5
        assert post.logp(v) == fresh(v)[0]
        np.testing.assert_array_equal(post.grad(v), fresh(v)[1])

        # Mutating a returned gradient does not reach the next call's.
        grad = post.grad(v)
        grad[:] = 0.0
        np.testing.assert_array_equal(post.grad(v), fresh(v)[1])

    def test_last_logp_needs_a_grad_call(self):
        post = Posterior(toy_grid(seed=24), ModelDims(3, 3, 3))
        with pytest.raises(ModelError, match="last_logp needs a grad call first"):
            post.last_logp()

    @pytest.mark.parametrize("step_size, accept_rate", [(0.005, 1.0), (0.6, 0.0)])
    def test_one_kernel_pass_per_leapfrog_step(self, monkeypatch, step_size, accept_rate):
        g = toy_grid(seed=26)
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        passes = []
        kernel = model._value_and_grad
        monkeypatch.setattr(model, "_value_and_grad",
                            lambda *a: passes.append(1) or kernel(*a))
        cfg = HmcConfig(step_size=step_size, n_leapfrog=6, n_burn=4, n_draws=5, seed=27)
        init = np.random.default_rng(28).normal(scale=0.1, size=dims.n_coords)
        chain = run_chain(init, cfg, post)
        assert chain.accept_flags.mean() == accept_rate
        # One pass per leapfrog step taken. At 0.6 every trajectory passes
        # the energy-error threshold and stops early.
        assert len(passes) == chain.n_grad
        full = 1 + cfg.n_leapfrog * (cfg.n_burn + cfg.n_draws)
        if accept_rate:
            assert not chain.divergent.any() and chain.n_grad == full
        else:
            assert chain.divergent.all() and chain.n_grad < full

    @pytest.mark.parametrize("step_size", [0.005, 0.6])
    def test_every_sampler_pass_goes_through_grad(self, monkeypatch, step_size):
        # A profiler that counts the model's work by the calls to
        # Posterior.grad, as perfbench's tracer does, sees every kernel pass
        # run_chain makes, one per leapfrog step taken: no pass is made only
        # for the value the energy check reads.
        g = toy_grid(seed=26)
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        events = []
        kernel = model._value_and_grad
        monkeypatch.setattr(model, "_value_and_grad",
                            lambda *a: events.append("pass") or kernel(*a))
        grad = Posterior.grad

        def traced(self, vec):
            events.append("grad")
            out = grad(self, vec)
            events.append("end")
            return out

        monkeypatch.setattr(Posterior, "grad", traced)
        cfg = HmcConfig(step_size=step_size, n_leapfrog=6, n_burn=4, n_draws=5, seed=27)
        init = np.random.default_rng(28).normal(scale=0.1, size=dims.n_coords)
        chain = run_chain(init, cfg, post)
        assert events == ["grad", "pass", "end"] * chain.n_grad


def _reference_log_posterior(params, grid, scale=COMPONENT_SCALE):
    """log_prior plus each visited cell's mixture density, cell by cell, at
    component standard deviation ``scale``."""
    out = log_prior(params)
    for i in range(grid.spec.n_time):
        for j in range(grid.spec.n_price):
            if grid.mask[i, j]:
                out += float(np.sum(mixture_logpdf(np.asarray(grid.returns[i][j]),
                                                   cell_mixture(params, grid, i, j, scale))))
    return out


def one_cell_grid(n_time=2, n_price=2, xs=(0.3, -1.1, 0.8)):
    g = empty_grid(n_time, n_price)
    g.mask[0, 1] = True
    g.returns[0][1].extend(xs)
    return g


GRIDS = {
    "empty": lambda: empty_grid(2, 2),
    "one visited cell": one_cell_grid,
    "toy": lambda: toy_grid(2, 2, n_ticks=60, seed=29),
}


def _take_bincount_pass(post, vec):
    """The kernel pass on an active-length vector, from the grid's
    observations alone: each cell's means gathered from the coefficients by
    index, each return's (component, cell) entry by ``np.take``, the per-cell
    sums and the coefficients' gradient by ``np.bincount``, the stick sums by
    ``np.cumsum`` and the log-sum-exp by scipy, in place of the kernel's
    design matrix, runs and triangular products."""
    grid, dims = post.grid, post.dims
    n_shared, k_n, s = dims.n_shared, dims.n_components, post.component_scale
    i_n, j_n = dims.n_time, dims.n_price
    out, grad, _, _ = model._prior(vec, n_shared, k_n)
    xs, cells, counts = grid.observations()
    if xs.size == 0:
        return out, grad
    v_n = cells.size
    sticks = vec[n_shared:n_shared + v_n * k_n].reshape(v_n, k_n)
    logw = _cumsum_log_weights(sticks)
    gamma = expit(sticks)
    ci, cj = np.divmod(cells, j_n)
    coef = np.stack([ci, i_n + cj, np.full_like(ci, i_n + j_n)])[..., None] * k_n + np.arange(k_n)
    cov = np.stack([grid.cell_time[ci], grid.cell_logprice[cj], np.ones(v_n)])[..., None]
    index = np.arange(k_n)[:, None] * v_n + np.repeat(np.arange(v_n), counts)
    table = np.stack([np.sum(vec[coef] * cov, axis=0).T, logw.T])  # (2, K, V)
    both = np.take(table.reshape(2, -1), index, axis=1)
    diff = np.subtract(xs, both[0], out=both[0])
    terms = both[1]
    terms -= (0.5 / (s * s)) * diff * diff
    terms -= math.log(s) + 0.5 * LOG_2PI
    lse = logsumexp(terms, axis=0)
    out += float(lse.sum())
    terms -= lse
    resp = np.exp(terms, out=terms)
    diff *= resp
    index2 = np.concatenate([index, index + k_n * v_n]).ravel()
    sums = np.bincount(index2, weights=both.ravel(), minlength=2 * k_n * v_n)
    dmu_cell, resp_cell = sums.reshape(2, k_n, v_n).transpose(0, 2, 1)
    dmu_cell = dmu_cell / (s * s)
    grad[:n_shared] += np.bincount(coef.ravel(), weights=(cov * dmu_cell).ravel(),
                                   minlength=n_shared)
    if k_n > 1:
        tail = np.cumsum(resp_cell[:, ::-1], axis=1)[:, ::-1]
        g_stick = grad[n_shared:n_shared + v_n * k_n].reshape(v_n, k_n)
        g_stick[:, :-1] += (resp_cell - tail * gamma)[:, :-1]
    return out, grad


def _cumsum_log_weights(stick_raw):
    """(..., K) log stick-break weights of raw coordinates by a running sum
    of log(1 - gamma)."""
    log_g, log_1mg = log_expit(stick_raw), log_expit(-stick_raw)
    logw = np.empty_like(log_g)
    prefix = np.cumsum(log_1mg, axis=-1)
    logw[..., 0] = log_g[..., 0]
    logw[..., 1:] = log_g[..., 1:] + prefix[..., :-1]
    logw[..., -1] = prefix[..., -2] if log_g.shape[-1] > 1 else 0.0
    return logw


class TestKernel:
    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 8]), grid=st.sampled_from(sorted(GRIDS)),
           scale=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_and_finite_differences(self, k, grid, scale, seed):
        g = GRIDS[grid]()
        dims = ModelDims(g.spec.n_time, g.spec.n_price, k)
        post = Posterior(g, dims)
        v = np.random.default_rng(seed).normal(scale=scale, size=dims.n_coords)
        value = post.logp(v)
        p = ModelParams.from_vector(dims, v)
        assert value == pytest.approx(_reference_log_posterior(p, g),
                                      rel=1e-12, abs=1e-12)
        ga = post.grad(v)
        gf = fd_grad(post.logp, v)
        err = np.abs(ga - gf) / np.maximum(1.0, np.abs(gf))
        assert err.max() < 1e-5

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), n_time=st.integers(1, 4), n_price=st.integers(1, 4),
           counts=st.one_of(st.lists(st.integers(0, 2), min_size=16, max_size=16),
                            st.lists(st.integers(0, 12), min_size=16, max_size=16)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_runs_match_take_and_bincount(self, k, n_time, n_price, counts, seed):
        # Each cell's returns are one run. np.add.reduceat adds to a run's
        # first return the sum of the rest, a + (b + c); bincount adds in
        # order, (a + b) + c. The kernel's matrix products sum in BLAS's
        # order too, so the two agree to rounding.
        rng = np.random.default_rng(seed)
        g = empty_grid(n_time, n_price)
        for c, n in zip(range(n_time * n_price), counts):
            g.mask.flat[c] = n > 0
            g.returns[c // n_price][c % n_price].extend(rng.normal(size=n).tolist())
        self._check_against_take_and_bincount(g, k, rng)

    @pytest.mark.parametrize("layout", ["every return in one cell", "one return per cell",
                                        "empty grid"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_runs_match_take_and_bincount_at_the_edges(self, layout, k):
        rng = np.random.default_rng(41)
        g = empty_grid(3, 3)
        if layout == "every return in one cell":
            g.mask[1, 2] = True
            g.returns[1][2].extend(rng.normal(size=40).tolist())
        elif layout == "one return per cell":
            g.mask[:] = True
            for row in g.returns:
                for cell in row:
                    cell.append(float(rng.normal()))
        self._check_against_take_and_bincount(g, k, rng)

    @staticmethod
    def _check_against_take_and_bincount(g, k, rng):
        post = Posterior(g, ModelDims(g.spec.n_time, g.spec.n_price, k), component_scale=0.7)
        for scale in (0.3, 1.0, 3.0):
            vec = rng.normal(scale=scale, size=post.active.size)
            value, grad = model._value_and_grad(vec, post._obs)
            ref_value, ref_grad = _take_bincount_pass(post, vec)
            assert value == pytest.approx(ref_value, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)

    def test_visited_cell_emptied_after_construction_named(self):
        g = one_cell_grid()
        g.returns[0][1].clear()
        with pytest.raises(ModelError, match=r"visited cell \(0, 1\) holds no returns"):
            Posterior(g, ModelDims(2, 2, 2))

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_vanishing_weight_matches_reference(self, k):
        # exp(-800) underflows: the reference mixture holds a weight of
        # exactly 0 (log weight -inf), the kernel a finite log weight.
        g = one_cell_grid()
        dims = ModelDims(2, 2, k)
        p = ModelParams.random_init(dims, np.random.default_rng(30))
        p.stick_raw[0, 1, 0] = -800.0
        assert cell_mixture(p, g, 0, 1).weights[0] == 0.0
        post = Posterior(g, dims)
        value = post.logp(p.to_vector())
        assert np.isfinite(value)
        assert value == pytest.approx(_reference_log_posterior(p, g), rel=1e-12)
        assert np.all(np.isfinite(post.grad(p.to_vector())))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_non_finite_log_sum_exp_row(self, k):
        # Means this far out overflow every term of the row to -inf, whose
        # max is then not shifted out, so the log-sum-exp is -inf, not NaN.
        g = one_cell_grid()
        dims = ModelDims(2, 2, k)
        p = ModelParams.random_init(dims, np.random.default_rng(31))
        p.alpha[:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            value = Posterior(g, dims).logp(p.to_vector())
            assert value == _reference_log_posterior(p, g) == -np.inf

    def test_log_weight_driven_to_minus_infinity(self):
        # Two stick coordinates this large overflow the prefix sum of
        # log(1 - gamma): one log weight is -inf, and so is the prior.
        g = one_cell_grid()
        dims = ModelDims(2, 2, 3)
        p = ModelParams.random_init(dims, np.random.default_rng(32))
        p.stick_raw[0, 1, :2] = [1e308, -1e308]
        with np.errstate(over="ignore"):
            logw = model._prior(p.to_vector(), dims.n_shared, 3)[2]
            assert logw.reshape(2, 2, 3)[0, 1, 1] == -np.inf
            value = Posterior(g, dims).logp(p.to_vector())
            assert value == _reference_log_posterior(p, g) == -np.inf

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 20])
    def test_log_sum_exp_matches_scipy(self, k):
        # Within 4 ulp of max(1, |column max|), measured worst 2; columns
        # that are all -inf, hold +inf or hold NaN give scipy's value exactly.
        rng = np.random.default_rng(33)
        terms = rng.normal(scale=5.0, size=(500, k))
        terms[:50] = np.round(terms[:50])  # ties at the max
        terms[50:60, 0] = -np.inf
        terms[60:70] = -np.inf
        terms[70, 0] = np.inf
        terms[71, 0] = np.nan
        with np.errstate(all="ignore"):  # the kernel pass's errstate
            # A copy: _log_sum_exp leaves the softmax in the array it is given.
            ours = model._log_sum_exp(terms.T.copy(), np.empty((k, 500)))
            ref = logsumexp(terms, axis=1)
        finite = np.isfinite(ref)
        bound = 4.0 * np.spacing(np.maximum(1.0, np.abs(terms.max(axis=1))))
        assert np.all(np.abs(ours[finite] - ref[finite]) <= bound[finite])
        np.testing.assert_array_equal(ours[~finite], ref[~finite])


class TestParamsSerialization:
    def test_vector_round_trip(self):
        dims = ModelDims(3, 4, 2)
        p = ModelParams.random_init(dims, np.random.default_rng(20))
        q = ModelParams.from_vector(dims, p.to_vector())
        np.testing.assert_array_equal(q.stick_raw, p.stick_raw)
        np.testing.assert_array_equal(q.conc, p.conc)

    def test_mixture_weight_validation(self):
        with pytest.raises(ModelError):
            MixtureSpec([0.6, 0.6], [0.0, 1.0], 1.0)
        with pytest.raises(ModelError):
            MixtureSpec([1.0], [0.0], 0.0)


def few_cells_grid(n_time=3, n_price=3, seed=40):
    """A grid with three visited cells of eight standardized returns each."""
    g = empty_grid(n_time, n_price)
    rng = np.random.default_rng(seed)
    for (i, j), loc in zip([(0, 1), (1, 1), (2, 0)], (-0.5, 0.0, 0.8)):
        g.mask[i, j] = True
        g.returns[i][j].extend((loc + rng.standard_normal(8)).tolist())
    return g


class FullLength:
    """The same posterior with no ``active``: the sampler moves every coordinate."""

    def __init__(self, post):
        self.logp = post.logp
        self.grad = post.grad
        self.last_logp = post.last_logp


def predictive_vols(draws, grid, dims):
    """(draws, visited cells) analytic predictive std of each visited cell."""
    cells = list(zip(*np.nonzero(grid.mask)))
    return np.array([
        [np.sqrt(mixture_moments(cell_mixture(p, grid, i, j))[1]) for i, j in cells]
        for p in (ModelParams.from_vector(dims, v) for v in draws)
    ])


class TestActiveCoordinates:
    @pytest.mark.parametrize("k", [2, 3])
    def test_active_index_layout(self, k):
        g = few_cells_grid()
        dims = ModelDims(3, 3, k)
        post = Posterior(g, dims)
        n_visited = int(g.mask.sum())
        assert post.active.size == dims.n_shared + n_visited * (k + 1)
        assert np.all(np.diff(post.active) > 0)
        # The stick coordinates and the concentration of each visited cell.
        p = ModelParams.from_vector(dims, np.arange(dims.n_coords, dtype=float))
        want = np.concatenate([np.arange(dims.n_shared), p.stick_raw[g.mask].ravel(),
                               p.conc[g.mask]]).astype(int)
        np.testing.assert_array_equal(post.active, want)

    def test_dims_that_disagree_with_the_grid_named(self):
        g = few_cells_grid()
        with pytest.raises(ModelError, match="dims n_time = 3, n_price = 4 do not match "
                                             "the grid's 3 x 3 cells"):
            Posterior(g, ModelDims(3, 4, 2))

    @pytest.mark.parametrize("k", [2, 3])
    def test_full_length_is_active_plus_prior_only_block(self, k):
        g = few_cells_grid()
        dims = ModelDims(3, 3, k)
        post = Posterior(g, dims)
        rng = np.random.default_rng(41)
        unvisited = ~g.mask
        for scale in (0.3, 1.0, 3.0):
            v = rng.normal(scale=scale, size=dims.n_coords)
            p = ModelParams.from_vector(dims, v)
            block = np.concatenate([p.stick_raw[unvisited].ravel(), p.conc[unvisited]])
            v_rest, g_rest, _, _ = model._prior(block, 0, k)
            active = v[post.active]
            full_value, full_grad = post.logp(v), post.grad(v)
            assert full_value == pytest.approx(post.logp(active) + v_rest, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(full_grad[post.active], post.grad(active),
                                       rtol=1e-12, atol=1e-12)
            rest = np.setdiff1d(np.arange(dims.n_coords), post.active)
            np.testing.assert_allclose(full_grad[rest], g_rest, rtol=1e-12, atol=1e-12)
            # And the whole agrees with the cell-by-cell reference.
            ref = _reference_log_posterior(p, g)
            assert full_value == pytest.approx(ref, rel=1e-12)

    def test_every_cell_visited_makes_both_forms_one(self):
        spec = GridSpec(1, 2, 99.0, 103.0)
        g = GridData(spec, np.ones((1, 2), bool), [[[0.3, -0.4], [1.1]]],
                     np.array([0.5]), np.log([100.0, 102.0]))
        dims = ModelDims(1, 2, 3)
        post = Posterior(g, dims)
        np.testing.assert_array_equal(post.active, np.arange(dims.n_coords))
        v = np.random.default_rng(42).normal(size=dims.n_coords)
        p = ModelParams.from_vector(dims, v)
        assert post.logp(v) == pytest.approx(_reference_log_posterior(p, g), rel=1e-12)

    def test_empty_grid_samples_only_the_coefficients(self):
        g = empty_grid()
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        np.testing.assert_array_equal(post.active, np.arange(dims.n_shared))
        v = np.random.default_rng(43).normal(size=dims.n_coords)
        p = ModelParams.from_vector(dims, v)
        assert post.logp(v) == pytest.approx(log_prior(p), rel=1e-12)
        shared = v[:dims.n_shared]
        assert post.logp(shared) == pytest.approx(
            -0.5 * shared @ shared - 0.5 * shared.size * LOG_2PI, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("length", ["active", "full"])
    def test_non_finite_vector_refused(self, length, bad):
        g = few_cells_grid()
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        v = np.zeros(post.active.size if length == "active" else dims.n_coords)
        v[-1] = bad
        for f in (post.logp, post.grad):
            with pytest.raises(ModelError, match="parameters must be finite"):
                f(v)

    def test_other_length_refused(self):
        g = few_cells_grid()
        dims = ModelDims(3, 3, 2)
        post = Posterior(g, dims)
        with pytest.raises(ModelError, match=f"{post.active.size} .* or {dims.n_coords}"):
            post.logp(np.zeros(dims.n_coords - 1))

    @pytest.mark.parametrize("k, seed", [(2, 44), (3, 45)])
    def test_active_chain_matches_full_dimension_chain(self, k, seed):
        # The posterior factorizes, so integrating only the active coordinates
        # must leave the marginals the surface reads unchanged.
        g = few_cells_grid()
        dims = ModelDims(3, 3, k)
        post = Posterior(g, dims)
        init = np.random.default_rng(seed).normal(scale=0.5, size=dims.n_coords)
        cfg = HmcConfig(step_size=0.1, n_leapfrog=8, n_burn=300, n_draws=2000, seed=seed,
                        adapt_step_size=True)
        active = run_chain(init, cfg, post)
        full = run_chain(init, cfg, FullLength(post))
        a, f = np.array(active.draws), np.array(full.draws)
        rest = np.setdiff1d(np.arange(dims.n_coords), post.active)
        assert np.all(a[:, rest] == init[rest])
        assert not np.all(f[:, rest] == init[rest])

        def z_scores(x, y):
            se2 = [c.var(axis=0) / np.array([effective_sample_size(col) for col in c.T])
                   for c in (x, y)]
            return np.abs(x.mean(axis=0) - y.mean(axis=0)) / np.sqrt(se2[0] + se2[1])

        shared = np.s_[:, :dims.n_shared]
        assert z_scores(a[shared], f[shared]).max() < 4.0
        assert z_scores(predictive_vols(a, g, dims), predictive_vols(f, g, dims)).max() < 4.0


class TestPriceUnit:
    def test_covariate_and_posterior_ignore_the_currency_unit(self):
        base = synth_gbm_ticks(1.0, 0.0, 0.5, 400, seed=46)
        grids = []
        for unit in (1.0, 100.0, 5000.0):
            series = normalize_time(type(base)(base.times, base.prices * unit,
                                               base.session_length))
            spec = GridSpec(4, 3, float(series.prices.min()), float(series.prices.max()))
            grids.append(standardize_returns(build_grid(series, spec))[0])
        dims = ModelDims(4, 3, 3)
        posts = [Posterior(g, dims) for g in grids]
        for g in grids[1:]:
            np.testing.assert_allclose(g.cell_logprice, grids[0].cell_logprice,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(g.mask, grids[0].mask)
        rng = np.random.default_rng(47)
        for _ in range(5):
            v = rng.normal(size=dims.n_coords)
            ref = posts[0]
            for post in posts[1:]:
                assert post.logp(v) == pytest.approx(ref.logp(v), rel=1e-9, abs=1e-9)
                np.testing.assert_allclose(post.grad(v), ref.grad(v), rtol=1e-9, atol=1e-9)
