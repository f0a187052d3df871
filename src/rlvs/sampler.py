"""Hamiltonian Monte Carlo: leapfrog integration, Metropolis acceptance,
chain orchestration and diagnostics.

The engine is target-agnostic: anything exposing ``logp(q) -> float`` and
``grad(q) -> ndarray`` can be sampled (the grid posterior via
``model.Posterior``, plain Gaussians in tests). Potential energy is
U(q) = -logp(q); momenta are drawn from N(0, M) with diagonal mass M.
The gradient at the current point is carried from one iteration to the
next, so an iteration of n leapfrog steps evaluates ``grad`` n times. A
target that also exposes ``active``, an index into the position vector, is
integrated on those coordinates alone; ``logp`` and ``grad`` then see
vectors of that length.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


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

    ``n_grad`` counts the gradient evaluations of the whole run, the start
    point's and those of trajectories stopped early by divergence included.
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
    p = np.asarray(p, dtype=float)
    return 0.5 * float(np.sum(p * p / np.asarray(mass_diag, dtype=float)))


def _integrate(q, p, grad_q, target, step_size: float, n_steps: int, inv_mass):
    """Leapfrog from (q, p) given the gradient at q; returns
    (q, p, gradient at the returned q, diverged).

    Each step evaluates the gradient once. A non-finite state anywhere along
    the trajectory flags divergence and stops integration early; the
    gradient returned then is of no use.
    """
    if n_steps < 1:
        raise SamplerError("leapfrog needs n_steps >= 1")
    if step_size < 0:
        raise SamplerError("step_size must be non-negative")
    g = grad_q
    with np.errstate(over="ignore", invalid="ignore"):
        p = p + 0.5 * step_size * g
        for step in range(n_steps):
            q = q + step_size * inv_mass * p
            if not (np.isfinite(q).all() and np.isfinite(p).all()):
                return q, p, g, True
            g = target.grad(q)
            p = p + (step_size if step < n_steps - 1 else 0.5 * step_size) * g
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            return q, p, g, True
    return q, p, g, False


def leapfrog(q, p, target, step_size: float, n_steps: int, mass_diag):
    """Half/full/half leapfrog; returns (q, p, diverged).

    A non-finite state anywhere along the trajectory flags divergence and
    stops integration early (the proposal is then rejected upstream).
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    inv_mass = 1.0 / np.asarray(mass_diag, dtype=float)
    q, p, _, diverged = _integrate(q, p, target.grad(q), target, step_size, n_steps, inv_mass)
    return q, p, diverged


def hmc_step(q, logp_q: float, grad_q, target, rng: np.random.Generator,
             step_size: float, n_leapfrog: int, mass_diag):
    """One momentum-refresh / leapfrog / Metropolis cycle from q, whose log
    density and gradient the caller already has.

    Returns (q, logp_q, grad_q, accepted, delta_h, diverged). On rejection
    the position and gradient objects are returned untouched. The only
    ``logp`` call is at the end of the trajectory, where ``grad`` was just
    evaluated.
    """
    mass = np.asarray(mass_diag, dtype=float)
    p0 = rng.standard_normal(np.shape(q)) * np.sqrt(mass)
    h0 = kinetic(p0, mass) - logp_q

    q_new, p_new, g_new, diverged = _integrate(
        np.asarray(q, dtype=float), p0, grad_q, target, step_size, n_leapfrog, 1.0 / mass)
    u = rng.random()
    if diverged:
        return q, logp_q, grad_q, False, float("inf"), True

    logp_new = target.logp(q_new)
    h1 = kinetic(p_new, mass) - logp_new
    delta_h = h1 - h0
    if not np.isfinite(delta_h):
        return q, logp_q, grad_q, False, float("inf"), True
    if u < np.exp(min(0.0, -delta_h)):
        return q_new, logp_new, g_new, True, delta_h, False
    return q, logp_q, grad_q, False, delta_h, False


class _DualAveraging:
    """Step-size adaptation toward a target acceptance rate (burn-in only)."""

    def __init__(self, eps0: float, target: float,
                 gamma: float = 0.05, t0: float = 10.0, kappa: float = 0.75):
        self.mu = np.log(10.0 * eps0)
        self.target = target
        self.gamma, self.t0, self.kappa = gamma, t0, kappa
        self.h_bar = 0.0
        self.log_eps = np.log(eps0)
        self.log_eps_bar = 0.0
        self.m = 0

    def update(self, accept_prob: float) -> float:
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - np.sqrt(self.m) / self.gamma * self.h_bar
        eta = self.m ** (-self.kappa)
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar
        return float(np.exp(self.log_eps))

    def final(self) -> float:
        return float(np.exp(self.log_eps_bar))


class _Counted:
    """``target`` with its gradient evaluations counted."""

    def __init__(self, target):
        self.target = target
        self.n_grad = 0

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
    logp_q = target.logp(q)
    if not np.isfinite(logp_q):
        raise SamplerError("initial point has non-finite log density")
    grad_q = target.grad(q)

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

    mean |dH| is taken over the post-burn steps (burn-in steps from a cold
    start can carry astronomically large but finite energy errors that would
    swamp the average); it falls back to the full run when nothing was
    retained.
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
