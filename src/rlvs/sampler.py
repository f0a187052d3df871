"""Hamiltonian Monte Carlo: leapfrog integration, Metropolis acceptance,
chain orchestration and diagnostics.

The engine is target-agnostic: anything exposing ``logp(q) -> float`` and
``grad(q) -> ndarray`` can be sampled (the grid posterior via
``model.Posterior``, plain Gaussians in tests). Potential energy is
U(q) = -logp(q); momenta are drawn from N(0, M) with diagonal mass M.
The gradient at the current point is carried from one iteration to the
next, so an iteration of n leapfrog steps evaluates ``grad`` at most n
times. After each step the energy error H - H0 is taken at the full-step
momentum; once it is not at most ``MAX_DELTA_H`` the trajectory stops there
and is rejected as divergent, as Stan does. That check reads the log
density at every step: a target that also exposes ``last_logp()``, the log
density at the point of its last ``grad`` call (``model.Posterior``), gives
it from the same evaluation; any other is asked for ``logp(q)`` after each
``grad(q)``. A target that also exposes ``active``, an index into the
position vector, is integrated on those coordinates alone; ``logp`` and
``grad`` then see vectors of that length.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# Stan's threshold on the energy error H - H0 of a trajectory (Stan Reference
# Manual, "Divergent transitions"). exp(-1000) is 0 in floating point, so a
# trajectory past it could only end in a rejection.
MAX_DELTA_H = 1000.0


class SamplerError(ValueError):
    pass


@dataclass
class HmcConfig:
    step_size: float = 0.01
    n_leapfrog: int = 20
    mass_diag: float | np.ndarray = 1.0
    n_burn: int = 0
    n_draws: int = 1000
    seed: int = 0
    adapt_step_size: bool = False
    target_accept: float = 0.75

    def __post_init__(self):
        if not 0 < self.step_size < np.inf:
            raise SamplerError(f"step_size must be positive and finite, got {self.step_size}")
        if self.n_leapfrog < 1:
            raise SamplerError("n_leapfrog must be >= 1")
        if np.any(np.asarray(self.mass_diag) <= 0):
            raise SamplerError("mass entries must be positive")
        if self.n_burn < 0 or self.n_draws < 0:
            raise SamplerError("n_burn and n_draws must be non-negative")
        if not 0.0 < self.target_accept < 1.0:
            raise SamplerError("target_accept must lie in (0, 1)")
        if self.seed < 0:
            raise SamplerError("seed must be non-negative")


class Draws(Sequence):
    """Retained draws held as one (n_draws, n_active) array of the coordinates
    that move; ``start`` supplies the others. A draw read by index or
    iteration, or the whole set read by ``np.asarray``, is full length; a
    slice is again a ``Draws``.
    """

    def __init__(self, start: np.ndarray, active: np.ndarray, values: np.ndarray):
        self.start = start
        self.active = active
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Draws(self.start, self.active, self.values[key])
        draw = self.start.copy()
        draw[self.active] = self.values[key]
        return draw

    def __array__(self, dtype=None, copy=None):
        full = np.repeat(self.start[None, :], len(self), axis=0)
        full[:, self.active] = self.values
        return full if dtype is None else full.astype(dtype, copy=False)


@dataclass
class Chain:
    """Retained draws plus per-proposal bookkeeping (burn-in included).

    A divergent proposal, one stopped at an energy error above
    ``MAX_DELTA_H`` or at a non-finite state, records ``delta_h`` inf.
    ``n_grad`` counts the gradient evaluations of the whole run: the start
    point's, then one per leapfrog step taken, so a stopped trajectory counts
    its steps up to the stop.
    """

    draws: Sequence = field(default_factory=list)
    accept_flags: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    delta_h: np.ndarray = field(default_factory=lambda: np.empty(0))
    divergent: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    n_burn: int = 0
    step_size_used: float = float("nan")
    n_grad: int = 0


@dataclass
class DiagnosticsReport:
    acceptance_rate: float
    post_burn_rate: float
    mean_abs_delta_h: float
    n_divergent: int
    n_draws: int
    all_rejected_post_burn: bool
    n_grad: int = 0

    def __str__(self):
        return (
            f"acceptance {self.acceptance_rate:.4f} (post-burn {self.post_burn_rate:.4f}), "
            f"mean |dH| {self.mean_abs_delta_h:.4g}, divergences {self.n_divergent}, "
            f"draws {self.n_draws}, gradient evaluations {self.n_grad:,}"
            + (", WARNING: no post-burn proposal accepted" if self.all_rejected_post_burn else "")
        )


def kinetic(p: np.ndarray, mass_diag) -> float:
    """K(p) = 0.5 * sum p_d^2 / m_d for a diagonal mass matrix."""
    return 0.5 * float(np.dot(p, np.divide(p, mass_diag)))


def _logp_reader(target):
    """The function of q that gives logp(q) right after ``target.grad(q)``."""
    last_logp = getattr(target, "last_logp", None)
    return target.logp if last_logp is None else lambda q: last_logp()


def _integrate(q, p, grad_q, target, step_size: float, n_steps: int, mass, h0: float,
               max_delta_h: float):
    """Leapfrog from (q, p), given the gradient at q and the Hamiltonian h0
    there; returns (q, p, logp, gradient, delta_h) at the end.

    Each step evaluates the gradient once. After it, the energy error
    delta_h = K(p) - logp(q) - h0 is taken at the full-step momentum, with
    logp from the same evaluation. Once it is not in (-inf, max_delta_h] (a
    non-finite momentum or log density included), or a position is not
    finite, integration stops and delta_h is returned as inf: the trajectory
    is divergent, and the other values returned are of no use.
    """
    if n_steps < 1:
        raise SamplerError("leapfrog needs n_steps >= 1")
    if step_size < 0:
        raise SamplerError("step_size must be non-negative")
    logp_at = _logp_reader(target)
    half = 0.5 * step_size
    drift = step_size * (1.0 / mass)
    g = grad_q
    with np.errstate(over="ignore", invalid="ignore"):
        p = p + half * g
        for _ in range(n_steps):
            q = q + drift * p
            if not np.isfinite(q).all():
                return q, p, None, g, np.inf
            g = target.grad(q)
            logp = logp_at(q)
            kick = half * g
            p_end = p + kick
            delta_h = kinetic(p_end, mass) - logp - h0
            if not -np.inf < delta_h <= max_delta_h:
                return q, p_end, logp, g, np.inf
            p = p_end + kick
    return q, p_end, logp, g, delta_h


def leapfrog(q, p, target, step_size: float, n_steps: int, mass_diag):
    """Half/full/half leapfrog; returns (q, p, diverged).

    A non-finite state or energy anywhere along the trajectory flags
    divergence and stops integration early (the proposal is then rejected
    upstream). No finite energy error stops it: ``MAX_DELTA_H`` is
    ``hmc_step``'s.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    mass = np.asarray(mass_diag, dtype=float)
    g = target.grad(q)
    h0 = kinetic(p, mass) - _logp_reader(target)(q)
    q, p, _, _, delta_h = _integrate(q, p, g, target, step_size, n_steps, mass, h0, np.inf)
    return q, p, delta_h == np.inf


def hmc_step(q, logp_q: float, grad_q, target, rng: np.random.Generator,
             step_size: float, n_leapfrog: int, mass_diag):
    """One momentum-refresh / leapfrog / Metropolis cycle from q, whose log
    density and gradient the caller already has.

    Returns (q, logp_q, grad_q, accepted, delta_h, diverged). A trajectory
    whose energy error leaves (-inf, MAX_DELTA_H] after some step, or whose
    position stops being finite, is stopped there and is divergent: it is
    rejected with delta_h = inf. On rejection the position and gradient
    objects are returned untouched. The uniform of the Metropolis test is
    drawn after integration whether or not the trajectory was stopped.
    """
    mass = np.asarray(mass_diag, dtype=float)
    p0 = rng.standard_normal(np.shape(q)) * np.sqrt(mass)
    h0 = kinetic(p0, mass) - logp_q

    q_new, _, logp_new, g_new, delta_h = _integrate(
        np.asarray(q, dtype=float), p0, grad_q, target, step_size, n_leapfrog, mass, h0,
        MAX_DELTA_H)
    u = rng.random()
    if delta_h == np.inf:
        return q, logp_q, grad_q, False, delta_h, True
    if u < np.exp(min(0.0, -delta_h)):
        return q_new, logp_new, g_new, True, delta_h, False
    return q, logp_q, grad_q, False, delta_h, False


# Dual averaging's gamma, t0 and kappa: Stan's defaults (Hoffman & Gelman 2014, sec. 3.2).
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75


class _DualAveraging:
    """Step-size adaptation toward a target acceptance rate (burn-in only)."""

    def __init__(self, eps0: float, target: float):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.h_bar = 0.0
        self.log_eps = np.log(eps0)
        self.log_eps_bar = 0.0
        self.m = 0

    def update(self, accept_prob: float) -> float:
        self.m += 1
        frac = 1.0 / (self.m + _DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - np.sqrt(self.m) / _DA_GAMMA * self.h_bar
        eta = self.m ** (-_DA_KAPPA)
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar
        return float(np.exp(self.log_eps))

    def final(self) -> float:
        return float(np.exp(self.log_eps_bar))


class _Counted:
    """``target`` with its gradient evaluations counted."""

    def __init__(self, target):
        self.target = target
        self.n_grad = 0
        if hasattr(target, "last_logp"):
            self.last_logp = target.last_logp

    def logp(self, q):
        return self.target.logp(q)

    def grad(self, q):
        self.n_grad += 1
        return self.target.grad(q)


def run_chain(init: np.ndarray, config: HmcConfig, target) -> Chain:
    """Run burn-in plus retained draws; deterministic for a fixed seed.

    Burn-in proposals are discarded from ``draws`` but kept in the
    acceptance bookkeeping. With ``adapt_step_size`` the step size is tuned
    during burn-in by dual averaging and then frozen. When ``target`` has
    ``active``, only ``init[active]`` moves (momenta are drawn for those
    coordinates alone, and a vector ``mass_diag`` is sliced to them). The
    draws keep only those coordinates; each reads back full length, holding
    ``init`` everywhere else.
    """
    rng = np.random.default_rng(config.seed)
    start = np.array(init, dtype=float)
    active = getattr(target, "active", None)
    if active is None:
        active = np.arange(start.size)
    q = start[active]
    mass = np.asarray(config.mass_diag, dtype=float)
    if mass.ndim:
        mass = mass[active]
    target = _Counted(target)
    grad_q = target.grad(q)
    logp_q = _logp_reader(target)(q)
    if not np.isfinite(logp_q):
        raise SamplerError("initial point has non-finite log density")

    total = config.n_burn + config.n_draws
    accept = np.zeros(total, dtype=bool)
    dh = np.zeros(total)
    divergent = np.zeros(total, dtype=bool)
    kept = np.empty((config.n_draws, q.size))

    eps = config.step_size
    adapter = None
    if config.adapt_step_size and config.n_burn > 0:
        adapter = _DualAveraging(eps, config.target_accept)

    for step in range(total):
        q, logp_q, grad_q, acc, delta_h, div = hmc_step(
            q, logp_q, grad_q, target, rng, eps, config.n_leapfrog, mass
        )
        accept[step] = acc
        dh[step] = delta_h
        divergent[step] = div
        if adapter is not None and step < config.n_burn:
            prob = 0.0 if not np.isfinite(delta_h) else float(np.exp(min(0.0, -delta_h)))
            eps = adapter.update(prob)
            if step == config.n_burn - 1:
                eps = adapter.final()
        if step >= config.n_burn:
            kept[step - config.n_burn] = q

    return Chain(
        draws=Draws(start, active, kept),
        accept_flags=accept,
        delta_h=dh,
        divergent=divergent,
        n_burn=config.n_burn,
        step_size_used=eps,
        n_grad=target.n_grad,
    )


def diagnostics(chain: Chain) -> DiagnosticsReport:
    """Acceptance rate over the full run, mean |dH|, divergence count.

    mean |dH| is taken over the post-burn iterations that did not diverge
    (burn-in from a cold start would swamp the average); it falls back to
    the full run when nothing was retained, and is inf when every iteration
    it covers diverged. The divergence count covers the whole run: the
    trajectories stopped at an energy error above ``MAX_DELTA_H`` or at a
    non-finite state.
    """
    total = chain.accept_flags.size
    if total == 0:
        raise SamplerError("diagnostics needs a chain with at least one proposal")
    rate = float(np.mean(chain.accept_flags))
    post = chain.accept_flags[chain.n_burn:]
    post_rate = float(np.mean(post)) if post.size else float("nan")
    dh = chain.delta_h[chain.n_burn:] if post.size else chain.delta_h
    finite = np.isfinite(dh)
    mean_dh = float(np.mean(np.abs(dh[finite]))) if finite.any() else float("inf")
    return DiagnosticsReport(
        acceptance_rate=rate,
        post_burn_rate=post_rate,
        mean_abs_delta_h=mean_dh,
        n_divergent=int(np.sum(chain.divergent)),
        n_draws=len(chain.draws),
        all_rejected_post_burn=bool(post.size) and not bool(post.any()),
        n_grad=chain.n_grad,
    )


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of a scalar chain via the initial-positive-sequence estimator."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    centered = x - x.mean()
    fft = np.fft.rfft(centered, 2 * n)
    acov = np.fft.irfft(fft * np.conj(fft))[:n].real / n
    if acov[0] <= 0:
        return float(n)
    rho = acov / acov[0]
    # Sum consecutive-lag pairs while they stay positive (Geyer).
    s = 0.0
    for t in range(1, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        s += pair
    ess = n / (1.0 + 2.0 * s)
    return float(min(max(ess, 1.0), n))
