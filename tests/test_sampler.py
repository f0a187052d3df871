import numpy as np
import pytest
from scipy.stats import kstest

from rlvs.sampler import (
    MAX_DELTA_H,
    Chain,
    HmcConfig,
    SamplerError,
    diagnostics,
    effective_sample_size,
    hmc_step,
    kinetic,
    leapfrog,
    run_chain,
)


class Gaussian:
    """Standard normal target of a given dimension."""

    def __init__(self, dim: int):
        self.dim = dim

    def logp(self, q):
        return -0.5 * float(np.dot(q, q))

    def grad(self, q):
        return -np.asarray(q, dtype=float)


class CountingGaussian(Gaussian):
    """Gaussian target that counts its logp and grad evaluations."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self.n_logp = self.n_grad = 0

    def logp(self, q):
        self.n_logp += 1
        return super().logp(q)

    def grad(self, q):
        self.n_grad += 1
        return super().grad(q)


class StiffGaussian(Gaussian):
    """A Gaussian in 3 dimensions whose last coordinate has standard
    deviation 0.1: leapfrog is stable on it only for steps below 0.2."""

    prec = np.array([1.0, 1.0, 100.0])

    def __init__(self):
        super().__init__(3)

    def logp(self, q):
        return -0.5 * float(q @ (self.prec * q))

    def grad(self, q):
        return -self.prec * np.asarray(q, dtype=float)


def reference_chain(t, cfg, init):
    """The chain ``run_chain`` must give on ``t`` (no ``active``, unit mass,
    no adaptation), built from the public leapfrog and manual acceptance.

    The state after k steps of a trajectory, at its full-step momentum, is
    the end of a k-step leapfrog from the trajectory's start; a trajectory
    stops at the first k whose energy error passes MAX_DELTA_H. Returns the
    draws, accept flags, divergent flags and gradient evaluations: the start
    point's, then one per step taken.
    """
    rng = np.random.default_rng(cfg.seed)
    q = np.array(init, dtype=float)
    draws, accepted, divergent, n_grad = [], [], [], 1
    for it in range(cfg.n_burn + cfg.n_draws):
        p0 = rng.standard_normal(q.size)
        h0 = kinetic(p0, 1.0) - t.logp(q)
        for k in range(1, cfg.n_leapfrog + 1):
            q_new, p_new, _ = leapfrog(q, p0, t, cfg.step_size, k, 1.0)
            dh = kinetic(p_new, 1.0) - t.logp(q_new) - h0
            if not dh <= MAX_DELTA_H:
                break
        n_grad += k
        div = not dh <= MAX_DELTA_H
        acc = rng.random() < np.exp(min(0.0, -dh)) and not div
        if acc:
            q = q_new
        accepted.append(acc)
        divergent.append(div)
        if it >= cfg.n_burn:
            draws.append(q)
    return np.array(draws), np.array(accepted), np.array(divergent), n_grad


class Quadratic1D:
    # U(q) = 0.5 q^2  ->  logp = -0.5 q^2
    def logp(self, q):
        return -0.5 * float(q[0] ** 2)

    def grad(self, q):
        return -np.asarray(q, dtype=float)


class TestKinetic:
    def test_zero_momentum(self):
        assert kinetic(np.zeros(4), 1.0) == 0.0

    def test_scalar_case(self):
        assert kinetic(np.array([2.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_mass_scaling_identity(self):
        p = np.array([1.3, -0.4])
        assert kinetic(p, 4.0) == pytest.approx(kinetic(p / 2.0, 1.0))


class TestLeapfrog:
    def test_reversibility(self):
        rng = np.random.default_rng(0)
        t = Gaussian(3)
        for _ in range(20):
            q0 = rng.normal(size=3)
            p0 = rng.normal(size=3)
            eps = float(rng.uniform(0.01, 0.2))
            n = int(rng.integers(1, 30))
            q1, p1, d1 = leapfrog(q0, p0, t, eps, n, 1.0)
            q2, p2, d2 = leapfrog(q1, -p1, t, eps, n, 1.0)
            assert not d1 and not d2
            np.testing.assert_allclose(q2, q0, atol=1e-10)
            np.testing.assert_allclose(p2, -p0, atol=1e-10)

    def test_energy_error_ratio_quadratic(self):
        t = Quadratic1D()

        def dh(eps, n):
            q, p = np.array([1.0]), np.array([0.3])
            h0 = kinetic(p, 1.0) - t.logp(q)
            q1, p1, _ = leapfrog(q, p, t, eps, n, 1.0)
            return abs(kinetic(p1, 1.0) - t.logp(q1) - h0)

        # Fixed trajectory time: halving eps (doubling steps) quarters |dH|.
        ratio = dh(0.1, 25) / dh(0.05, 50)
        assert 3.5 <= ratio <= 4.5

    def test_zero_steps_forbidden_zero_eps_identity(self):
        t = Gaussian(2)
        with pytest.raises(SamplerError):
            leapfrog(np.zeros(2), np.zeros(2), t, 0.1, 0, 1.0)
        q, p = np.array([0.4, -0.1]), np.array([1.0, 0.2])
        q1, p1, div = leapfrog(q, p, t, 0.0, 1, 1.0)
        assert not div
        np.testing.assert_array_equal(q1, q)
        np.testing.assert_array_equal(p1, p)

    def test_volume_preservation_numerical_jacobian(self):
        # One step on the 2-dimensional (q, p) phase space of U = q^2/2.
        t = Quadratic1D()
        eps, h = 0.1, 1e-6

        def step(state):
            q, p, _ = leapfrog(np.array([state[0]]), np.array([state[1]]), t, eps, 1, 1.0)
            return np.array([q[0], p[0]])

        x0 = np.array([0.7, -0.4])
        jac = np.zeros((2, 2))
        for c in range(2):
            up, dn = x0.copy(), x0.copy()
            up[c] += h
            dn[c] -= h
            jac[:, c] = (step(up) - step(dn)) / (2 * h)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-8

    def test_divergence_flagged(self):
        t = Quadratic1D()
        q, p, div = leapfrog(np.array([1.0]), np.array([1.0]), t, 1e8, 50, 1.0)
        assert div


class TestHmcStep:
    def test_downhill_always_accepted(self):
        t = Gaussian(2)
        rng = np.random.default_rng(1)
        accepted = 0
        trials = 0
        q = np.array([3.0, -3.0])  # far out: proposals typically reduce energy
        logp, grad = t.logp(q), t.grad(q)
        for _ in range(200):
            q2, logp2, grad2, acc, dh, div = hmc_step(q, logp, grad, t, rng, 0.05, 10, 1.0)
            if dh <= 0:
                trials += 1
                accepted += acc
            q, logp, grad = q2, logp2, grad2
        assert trials > 0
        assert accepted == trials

    def test_zero_eps_identity_always_accepts(self):
        t = Gaussian(2)
        rng = np.random.default_rng(2)
        q = np.array([0.5, 1.5])
        for _ in range(20):
            q2, _, _, acc, dh, div = hmc_step(q, t.logp(q), t.grad(q), t, rng, 0.0, 5, 1.0)
            assert acc and dh == 0.0 and not div
            np.testing.assert_array_equal(q2, q)

    def test_acceptance_band_2d_normal(self):
        t = Gaussian(2)
        rng = np.random.default_rng(3)
        q = np.zeros(2)
        logp, grad = t.logp(q), t.grad(q)
        acc = 0
        for _ in range(2000):
            q, logp, grad, a, _, _ = hmc_step(q, logp, grad, t, rng, 0.1, 20, 1.0)
            acc += a
        assert 0.8 <= acc / 2000 <= 1.0

    def test_stopped_trajectory_rejected_with_callers_objects(self):
        # Past the stability limit of 2 the energy error grows about 16-fold
        # a step: the trajectory stops once it passes MAX_DELTA_H, after the
        # steps a step-by-step replay needs to get there, not all 40.
        t = CountingGaussian(2)
        q = np.array([0.1, 0.2])
        logp, grad = t.logp(q), t.grad(q)
        t.n_grad = t.n_logp = 0
        p0 = np.random.default_rng(5).standard_normal(2)
        h0 = kinetic(p0, 1.0) - logp
        errors = [kinetic(p, 1.0) - Gaussian(2).logp(qk) - h0
                  for qk, p, _ in (leapfrog(q, p0, Gaussian(2), 2.5, k, 1.0)
                                   for k in range(1, 41))]
        steps = 1 + int(np.argmax(np.array(errors) > MAX_DELTA_H))
        assert 1 < steps < 40 and errors[steps - 2] <= MAX_DELTA_H

        q2, logp2, grad2, acc, dh, div = hmc_step(
            q, logp, grad, t, np.random.default_rng(5), 2.5, 40, 1.0)
        assert div and not acc and dh == np.inf
        assert q2 is q and grad2 is grad and logp2 == logp
        np.testing.assert_array_equal(q, [0.1, 0.2])
        np.testing.assert_array_equal(grad, [-0.1, -0.2])
        assert t.n_grad == t.n_logp == steps

    def test_rejected_step_keeps_q_bit_identical(self):
        t = Gaussian(2)
        rng = np.random.default_rng(4)
        q = np.array([0.1, 0.2])
        logp, grad = t.logp(q), t.grad(q)
        saw_reject = False
        for _ in range(300):
            q2, logp2, grad2, acc, _, _ = hmc_step(q, logp, grad, t, rng, 1.95, 40, 1.0)
            if not acc:
                assert q2 is q and grad2 is grad
                saw_reject = True
            else:
                np.testing.assert_array_equal(grad2, t.grad(q2))
            q, logp, grad = q2, logp2, grad2
        assert saw_reject


class TestRunChain:
    def test_determinism(self):
        t = Gaussian(3)
        cfg = HmcConfig(step_size=0.2, n_leapfrog=10, n_burn=50, n_draws=200, seed=7)
        a = run_chain(np.zeros(3), cfg, t)
        b = run_chain(np.zeros(3), cfg, t)
        np.testing.assert_array_equal(np.array(a.draws), np.array(b.draws))
        np.testing.assert_array_equal(a.accept_flags, b.accept_flags)

    @pytest.mark.parametrize("step_size", [0.2, 2.5])
    def test_one_gradient_per_leapfrog_step(self, step_size):
        # One grad per leapfrog step taken, and one logp after each grad for
        # the energy check. Past the stability limit of 2 every trajectory
        # stops early at the check.
        t = CountingGaussian(3)
        cfg = HmcConfig(step_size=step_size, n_leapfrog=7, n_burn=6, n_draws=9, seed=15)
        ch = run_chain(np.zeros(3), cfg, t)
        _, _, divergent, n_grad = reference_chain(Gaussian(3), cfg, np.zeros(3))
        np.testing.assert_array_equal(ch.divergent, divergent)
        assert t.n_grad == t.n_logp == ch.n_grad == n_grad
        full = 1 + cfg.n_leapfrog * (cfg.n_burn + cfg.n_draws)
        if step_size < 2.0:
            assert not ch.divergent.any() and n_grad == full
        else:
            assert ch.divergent.all() and n_grad < full

    def test_carried_gradient_leaves_chain_unchanged(self):
        # The same chain with the gradient at the start point evaluated
        # afresh each iteration, through the public leapfrog.
        t = Gaussian(3)
        cfg = HmcConfig(step_size=1.5, n_leapfrog=8, n_burn=0, n_draws=60, seed=16)
        ch = run_chain(np.full(3, 0.5), cfg, t)
        rng = np.random.default_rng(cfg.seed)
        q, draws = np.full(3, 0.5), []
        for _ in range(cfg.n_draws):
            p0 = rng.standard_normal(3)
            q_new, p_new, _ = leapfrog(q, p0, t, cfg.step_size, cfg.n_leapfrog, 1.0)
            dh = (kinetic(p_new, 1.0) - t.logp(q_new)) - (kinetic(p0, 1.0) - t.logp(q))
            if rng.random() < np.exp(min(0.0, -dh)):
                q = q_new
            draws.append(q)
        np.testing.assert_array_equal(np.array(ch.draws), np.array(draws))
        assert 0.0 < ch.accept_flags.mean() < 1.0

    def test_stopped_trajectories_leave_chain_as_reference(self):
        # A step at the stiff coordinate's stability limit: some
        # trajectories stop at the energy check, some are accepted.
        t = StiffGaussian()
        cfg = HmcConfig(step_size=0.2, n_leapfrog=20, n_burn=0, n_draws=60, seed=16)
        ch = run_chain(np.full(3, 0.5), cfg, t)
        draws, accepted, divergent, n_grad = reference_chain(t, cfg, np.full(3, 0.5))
        np.testing.assert_array_equal(np.array(ch.draws), draws)
        np.testing.assert_array_equal(ch.accept_flags, accepted)
        np.testing.assert_array_equal(ch.divergent, divergent)
        assert ch.n_grad == n_grad
        assert np.all(ch.delta_h[divergent] == np.inf) and np.isfinite(ch.delta_h[~divergent]).all()
        assert 0 < divergent.sum() < divergent.size and accepted.any()

    def test_zero_draws(self):
        t = Gaussian(1)
        cfg = HmcConfig(step_size=0.2, n_leapfrog=5, n_burn=30, n_draws=0, seed=8)
        ch = run_chain(np.zeros(1), cfg, t)
        assert len(ch.draws) == 0
        rep = diagnostics(ch)
        assert 0.0 <= rep.acceptance_rate <= 1.0

    def test_gaussian_mean_recovery(self):
        t = Gaussian(2)
        cfg = HmcConfig(step_size=0.3, n_leapfrog=5, n_burn=500, n_draws=5000, seed=9)
        ch = run_chain(np.zeros(2), cfg, t)
        draws = np.array(ch.draws)
        for c in range(2):
            x = draws[:, c]
            se = x.std() / np.sqrt(effective_sample_size(x))
            assert abs(x.mean()) < 3 * se

    def test_gaussian_ks(self):
        cfg = HmcConfig(step_size=0.3, n_leapfrog=5, n_burn=500, n_draws=5000, seed=10)
        ch = run_chain(np.zeros(1), cfg, Gaussian(1))
        x = np.array(ch.draws).ravel()
        stat = kstest(x, "norm").statistic
        assert stat < 1.6276 / np.sqrt(x.size)  # 1% critical value

    def test_all_reject_chain_flagged(self):
        class Cliff:
            # Potential so steep every trajectory overflows and diverges.
            def logp(self, q):
                return -0.5 * float(np.dot(q, q)) * 1e200

            def grad(self, q):
                return -np.asarray(q) * 1e200

        cfg = HmcConfig(step_size=1.0, n_leapfrog=10, n_burn=5, n_draws=20, seed=11)
        ch = run_chain(np.ones(2) * 1e-3, cfg, Cliff())
        rep = diagnostics(ch)
        assert rep.all_rejected_post_burn
        assert rep.n_divergent > 0
        assert "WARNING" in str(rep)

    def test_adaptation_reaches_target_band(self):
        t = Gaussian(4)
        cfg = HmcConfig(step_size=1e-4, n_leapfrog=10, n_burn=400, n_draws=600,
                        seed=12, adapt_step_size=True, target_accept=0.75)
        ch = run_chain(np.zeros(4), cfg, t)
        post_rate = np.mean(ch.accept_flags[cfg.n_burn:])
        assert 0.5 <= post_rate <= 0.95
        assert ch.step_size_used > 1e-3  # adapted far away from the poor initial value


class ActiveGaussian(Gaussian):
    """A Gaussian on the coordinates ``active`` of a longer vector."""

    def __init__(self, active):
        super().__init__(len(active))
        self.active = np.asarray(active)


class TestActiveTarget:
    def test_moves_only_active_coordinates(self):
        # The chain on q[active] is the chain of the smaller target, bit for
        # bit, with the vector mass sliced the same way.
        init = np.array([0.3, 7.0, -0.2, 9.0, 0.1])
        active = [0, 2, 4]
        mass = np.array([1.0, 5.0, 2.0, 3.0, 0.5])
        cfg = HmcConfig(step_size=0.4, n_leapfrog=6, n_burn=20, n_draws=50, seed=17,
                        mass_diag=mass, adapt_step_size=True)
        ch = run_chain(init, cfg, ActiveGaussian(active))
        ref = run_chain(init[active], HmcConfig(**{**vars(cfg), "mass_diag": mass[active]}),
                        Gaussian(3))
        draws = np.array(ch.draws)
        assert draws.shape == (50, 5)
        np.testing.assert_array_equal(draws[:, active], np.array(ref.draws))
        assert np.all(draws[:, [1, 3]] == init[[1, 3]])
        np.testing.assert_array_equal(ch.accept_flags, ref.accept_flags)
        np.testing.assert_array_equal(ch.divergent, ref.divergent)
        assert ch.n_grad == ref.n_grad

    def test_draws_hold_only_active_coordinates(self):
        # One (n_draws, n_active) array; a draw, a slice and the whole set
        # read back full length, with the start point's inactive values.
        init = np.array([0.3, 7.0, -0.2, 9.0, 0.1])
        active = [0, 2, 4]
        cfg = HmcConfig(step_size=0.4, n_leapfrog=6, n_burn=5, n_draws=12, seed=18)
        ch = run_chain(init, cfg, ActiveGaussian(active))
        assert ch.draws.values.shape == (12, 3)
        full = np.array(ch.draws)
        np.testing.assert_array_equal(full[:, active], ch.draws.values)
        np.testing.assert_array_equal(np.asarray(ch.draws[-4:]), full[-4:])
        np.testing.assert_array_equal(ch.draws[-1], full[-1])
        assert [d.tolist() for d in ch.draws] == full.tolist()
        assert len(ch.draws[-4:]) == 4 and len(ch.draws[:0]) == 0
        ch.draws[0][1] = -1.0  # a read draw is a copy
        assert ch.draws[0][1] == 7.0

    def test_gradient_count_includes_divergent_early_stops(self):
        class CountingCliff(CountingGaussian):
            # Steep enough that every trajectory overflows within a few steps.
            def logp(self, q):
                return super().logp(q) * 1e200

            def grad(self, q):
                return super().grad(q) * 1e200

        t = CountingCliff(2)
        cfg = HmcConfig(step_size=1.0, n_leapfrog=10, n_burn=5, n_draws=20, seed=11)
        ch = run_chain(np.ones(2) * 1e-3, cfg, t)
        assert ch.divergent.all()
        assert ch.n_grad == t.n_grad < 1 + cfg.n_leapfrog * (cfg.n_burn + cfg.n_draws)
        rep = diagnostics(ch)
        assert rep.n_grad == t.n_grad
        assert f"gradient evaluations {t.n_grad:,}" in str(rep)


class TestDiagnostics:
    def test_all_accepted(self):
        ch = Chain(draws=[np.zeros(1)] * 4,
                   accept_flags=np.array([True] * 4),
                   delta_h=np.zeros(4),
                   divergent=np.zeros(4, bool), n_burn=0)
        assert diagnostics(ch).acceptance_rate == 1.0

    def test_alternating(self):
        ch = Chain(draws=[np.zeros(1)] * 4,
                   accept_flags=np.array([True, False, True, False]),
                   delta_h=np.zeros(4),
                   divergent=np.zeros(4, bool), n_burn=0)
        assert diagnostics(ch).acceptance_rate == 0.5

    def test_config_validation(self):
        with pytest.raises(SamplerError):
            HmcConfig(step_size=0.0)
        with pytest.raises(SamplerError):
            HmcConfig(n_leapfrog=0)
        with pytest.raises(SamplerError):
            HmcConfig(mass_diag=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_size_named(self, bad):
        # A nan step diverges on every proposal and leaves the chain at its start.
        with pytest.raises(SamplerError,
                           match=f"^step_size must be positive and finite, got {bad}$"):
            HmcConfig(step_size=bad)


def test_effective_sample_size_iid_close_to_n():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(4000)
    ess = effective_sample_size(x)
    assert 2500 < ess <= 4000


def test_effective_sample_size_correlated_much_smaller():
    rng = np.random.default_rng(14)
    x = np.zeros(4000)
    for i in range(1, 4000):
        x[i] = 0.95 * x[i - 1] + rng.standard_normal() * 0.1
    assert effective_sample_size(x) < 600
