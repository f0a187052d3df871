"""Stick-breaking Gaussian mixture over the time-price grid.

Each cell (i, j) carries a K-component Gaussian mixture whose component
means are affine in the cell's time and log-price coordinates,

    mean[i, j, k] = time_effect[i, k] * t_i + price_effect[j, k] * logS_j + alpha[k],

where logS_j is the grid's ``cell_logprice`` (the log of the price bin's
midpoint over the session's first price), and whose weights come from truncated stick-breaking fractions
gamma[i, j, k] in (0, 1), with the leftover mass absorbed into the last
weight so the weights always sum to one. Priors: standard normal on the
mean coefficients, Beta(1, 1) on each cell concentration a[i, j], and
Beta(1, a[i, j]) on each stick fraction.

HMC needs an unconstrained space, so the (0, 1) parameters are stored in
logistic coordinates and every density below includes the log-Jacobian of
that transform. The observation mask enters as a hard filter: cells the
path never visited contribute no likelihood at all, so their coordinates
feel only their own prior and ``Posterior`` leaves them out of the vector
the sampler integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridData

LOG_2PI = float(np.log(2.0 * np.pi))

# The component standard deviation: 1 in the standardized returns the fit reads.
COMPONENT_SCALE = 1.0


def _log_expit(x):
    """log(1 / (1 + exp(-x))) without overflow.

    numpy's ``logaddexp`` runs libm's ``exp`` and ``log1p`` element by
    element, so this equals ``scipy.special.log_expit`` bit for bit.
    """
    return -np.logaddexp(0.0, -x)


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)); exp(-x) overflowing to inf
    gives the exact limit 0.

    numpy's vectorized ``exp`` differs from libm's in the last bit on a few
    per cent of inputs, so the result can differ from
    ``scipy.special.expit`` by a few ulps.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelDims:
    n_time: int
    n_price: int
    n_components: int

    def __post_init__(self):
        if min(self.n_time, self.n_price, self.n_components) < 1:
            raise ModelError("all model dimensions must be >= 1")

    @property
    def n_shared(self) -> int:
        """The mean coefficients: time and price effects and intercepts."""
        return (self.n_time + self.n_price + 1) * self.n_components

    @property
    def n_coords(self) -> int:
        return self.n_shared + self.n_time * self.n_price * (self.n_components + 1)

    def active(self, mask) -> np.ndarray:
        """The sorted ``to_vector()`` indices of the coordinates the data reach
        on a grid with visited-cell ``mask``: the mean coefficients, then each
        visited cell's K stick coordinates, then their concentrations."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_time, self.n_price):
            raise ModelError(f"dims n_time = {self.n_time}, n_price = {self.n_price} do not "
                             f"match the grid's {' x '.join(map(str, mask.shape))} cells")
        visited = mask.ravel()
        return np.flatnonzero(np.concatenate([np.ones(self.n_shared, dtype=bool),
                                              np.repeat(visited, self.n_components), visited]))


@dataclass
class ModelParams:
    """Full parameter set in unconstrained coordinates.

    ``stick_raw`` and ``conc`` live on the real line; the constrained stick
    fractions and concentrations are their logistic images.
    """

    time_effect: np.ndarray   # (I, K)
    price_effect: np.ndarray  # (J, K)
    alpha: np.ndarray         # (K,)
    stick_raw: np.ndarray     # (I, J, K)
    conc: np.ndarray          # (I, J)

    def __post_init__(self):
        self.time_effect = np.asarray(self.time_effect, dtype=float)
        self.price_effect = np.asarray(self.price_effect, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.stick_raw = np.asarray(self.stick_raw, dtype=float)
        self.conc = np.asarray(self.conc, dtype=float)
        i, k = self.time_effect.shape
        j = self.price_effect.shape[0]
        if self.price_effect.shape != (j, k) or self.alpha.shape != (k,):
            raise ModelError("inconsistent coefficient shapes")
        if self.stick_raw.shape != (i, j, k) or self.conc.shape != (i, j):
            raise ModelError("inconsistent stick/concentration shapes")
        for a in (self.time_effect, self.price_effect, self.alpha, self.stick_raw, self.conc):
            if not np.all(np.isfinite(a)):
                raise ModelError("parameters must be finite")

    @property
    def dims(self) -> ModelDims:
        i, k = self.time_effect.shape
        return ModelDims(i, self.price_effect.shape[0], k)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([
            self.time_effect.ravel(),
            self.price_effect.ravel(),
            self.alpha.ravel(),
            self.stick_raw.ravel(),
            self.conc.ravel(),
        ])

    @classmethod
    def from_vector(cls, dims: ModelDims, vec: np.ndarray) -> "ModelParams":
        i, j, k = dims.n_time, dims.n_price, dims.n_components
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dims.n_coords,):
            raise ModelError(f"expected vector of length {dims.n_coords}, got {vec.shape}")
        parts = np.split(vec, np.cumsum([i * k, j * k, k, i * j * k]))
        return cls(
            time_effect=parts[0].reshape(i, k),
            price_effect=parts[1].reshape(j, k),
            alpha=parts[2],
            stick_raw=parts[3].reshape(i, j, k),
            conc=parts[4].reshape(i, j),
        )

    @classmethod
    def random_init(cls, dims: ModelDims, rng: np.random.Generator) -> "ModelParams":
        """Independent standard-normal draws for every unconstrained coordinate."""
        return cls.from_vector(dims, rng.standard_normal(dims.n_coords))


@dataclass
class MixtureSpec:
    """One cell's realized mixture: weights, means, common scale."""

    weights: np.ndarray
    means: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        if self.weights.shape != self.means.shape or self.weights.ndim != 1:
            raise ModelError("weights and means must be 1-d arrays of equal length")
        if np.any(self.weights < 0):
            raise ModelError("mixture weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ModelError("mixture weights must sum to 1")
        if self.scale <= 0:
            raise ModelError("mixture scale must be positive")


def stick_break(gamma) -> np.ndarray:
    """Weights from stick fractions; the last weight absorbs the remainder.

    w_k = gamma_k * prod_{l<k}(1 - gamma_l) for k < K and
    w_K = prod_{l<K}(1 - gamma_l), so the weights sum to one up to rounding
    and the result is a genuine probability vector. Works on any (..., K)
    array, through the same log-space weights the likelihood uses.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any((g <= 0.0) | (g >= 1.0)):
        raise ModelError("stick fractions must lie strictly inside (0, 1)")
    return np.exp(_log_stick_break(np.log(g), np.log1p(-g)))


def _log_stick_break(log_g: np.ndarray, log_1mg: np.ndarray) -> np.ndarray:
    """log stick-break weights from log(gamma) and log(1 - gamma)."""
    k = log_g.shape[-1]
    logw = np.empty_like(log_g)
    if k == 1:
        logw[..., 0] = 0.0
        return logw
    prefix = log_1mg.cumsum(axis=-1)
    logw[..., 0] = log_g[..., 0]
    logw[..., 1:] = log_g[..., 1:] + prefix[..., :-1]
    logw[..., -1] = prefix[..., -2]
    return logw


def stick_weights_from_raw(stick_raw: np.ndarray) -> np.ndarray:
    """Stick-break weights from unconstrained coordinates.

    Equivalent to ``stick_break(expit(stick_raw))`` but computed in log
    space, so fractions driven against 0 or 1 by the sampler (where expit
    saturates in floating point) still yield a valid weight vector. Raw
    coordinates near the float limit overflow a log weight to -inf, whose
    exp is the exact weight 0, so that overflow is not warned about.
    """
    stick_raw = np.asarray(stick_raw, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(_log_stick_break(_log_expit(stick_raw), _log_expit(-stick_raw)))


def component_means(params: ModelParams, grid: GridData) -> np.ndarray:
    """(I, J, K) component means from the affine coefficient model."""
    t = grid.cell_time
    ls = grid.cell_logprice
    return (
        (params.time_effect * t[:, None])[:, None, :]
        + (params.price_effect * ls[:, None])[None, :, :]
        + params.alpha[None, None, :]
    )


def mixture_mean_var(weights, means, scale):
    """(mean, variance) of the Gaussian mixtures with (..., K) ``weights`` and
    ``means`` by the law of total variance; the component standard deviation
    ``scale`` broadcasts against them (a scalar, or one per component)."""
    mean = np.sum(weights * means, axis=-1)
    second = np.sum(weights * (np.square(scale) + np.square(means)), axis=-1)
    return mean, second - mean * mean


def mixture_moments(mix: MixtureSpec) -> tuple[float, float]:
    """(mean, variance) of one cell's mixture."""
    mean, var = mixture_mean_var(mix.weights, mix.means, mix.scale)
    return float(mean), float(var)


def _prior(vec: np.ndarray, n_shared: int, k_n: int):
    """Log prior and its gradient at a vector laid out as ``n_shared`` mean
    coefficients, then the K stick coordinates of each of n cells, then the
    n concentrations; also the cells' log stick weights and stick fractions.

    The coefficients are standard normal, each concentration Beta(1, 1) and
    each stick fraction Beta(1, a) given its cell's concentration a, with
    their logistic Jacobians. Any set of cells can be passed, so the sampled
    cells and the prior-only ones share this one function.
    """
    shared = vec[:n_shared]
    cells = vec[n_shared:]  # the stick coordinates, then the concentrations
    n_sticks = cells.size // (k_n + 1) * k_n
    log_x = _log_expit(cells)
    # log(1 - x) = log x - logit x: one logaddexp pass fewer, with an absolute
    # error of about ulp(cells), which is all the sums below need.
    log_1mx = log_x - cells
    x = _expit(cells)
    log_1mg = log_1mx[:n_sticks].reshape(-1, k_n)
    sum_log_1mg = log_1mg.sum(axis=1)
    gamma = x[:n_sticks].reshape(-1, k_n)
    a = x[n_sticks:]
    value = (
        -0.5 * float(shared @ shared) - 0.5 * n_shared * LOG_2PI
        # Every logistic Jacobian, log x + log(1 - x); Beta(1, 1) is flat.
        + float((log_x + log_1mx).sum())
        # Beta(1, a) on each stick fraction: K log a + (a - 1) sum log(1 - gamma).
        + float(k_n * log_x[n_sticks:].sum() + (a - 1.0) @ sum_log_1mg)
    )
    grad = np.empty(vec.size)
    np.negative(shared, out=grad[:n_shared])
    # d/d stick_raw of [log Beta(gamma; 1, a) + log Jacobian] = 1 - gamma - a gamma
    grad[n_shared:n_shared + n_sticks] = (1.0 - (1.0 + a)[:, None] * gamma).ravel()
    # d/d conc of [Jacobian + K log a + (a - 1) sum log(1 - gamma)]
    grad[n_shared + n_sticks:] = (1.0 - 2.0 * a) + k_n * (1.0 - a) + a * (1.0 - a) * sum_log_1mg
    return value, grad, _log_stick_break(log_x[:n_sticks].reshape(-1, k_n), log_1mg), gamma


def _log_sum_exp(terms: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log(sum(exp(terms), axis=0)) for a (K, N) array, shifted by each
    column's max so that no exp overflows and the largest term is exp(0);
    ``work`` is a (K, N) scratch array it overwrites.

    A column whose max is not finite is not shifted, so every term -inf
    gives -inf, a +inf term +inf and a NaN NaN, as ``scipy.special.logsumexp``
    does. Blanchard, Higham & Higham (2021), "Accurately computing the
    log-sum-exp and softmax functions", bound this formula's error.
    """
    mx = terms.max(axis=0)
    mx[~np.isfinite(mx)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(np.subtract(terms, mx, out=work), out=work)
        return np.log(e.sum(axis=0)) + mx


class _Observed(NamedTuple):
    """What the kernel reads of the grid, for its V visited cells.

    ``coef[:, v]`` indexes, into the vector, the time, price and intercept
    coefficients of cell v's component means, and ``cov[:, v]`` holds the
    covariates they multiply (``cell_time``, ``cell_logprice``, 1). ``xs``
    holds the returns cell by cell, in ``GridData.observations()`` order, so
    cell v's returns are the one run ``xs[starts[v]:starts[v] + counts[v]]``.
    ``work`` is scratch that every pass overwrites. With it the (2, K, N)
    array is a pass's only allocation of that size, so what a tick-level
    pass frees stays below the size at which malloc returns freed heap
    memory to the system, and the next pass does not fault it in again.
    """

    n_shared: int
    n_components: int
    scale: float
    coef: np.ndarray    # (3, V, K) int
    cov: np.ndarray     # (3, V, 1)
    xs: np.ndarray      # (N,)
    counts: np.ndarray  # (V,) int, each >= 1
    starts: np.ndarray  # (V,) int
    work: np.ndarray    # (K, N)


def _value_and_grad(vec: np.ndarray, obs: _Observed):
    """Log posterior and its gradient at a vector in ``Posterior.active``
    order (the mean coefficients, then each visited cell's stick coordinates,
    then their concentrations), in one pass over the observations.
    """
    n_shared, k_n = obs.n_shared, obs.n_components
    out, grad, logw, gamma = _prior(vec, n_shared, k_n)
    if obs.xs.size:
        s = obs.scale
        v_n = obs.coef.shape[1]
        # (2, K, V): component means and log weights, component-major.
        table = np.empty((2, k_n, v_n))
        table[0] = (vec[obs.coef] * obs.cov).sum(axis=0).T
        table[1] = logw.T
        both = np.repeat(table, obs.counts, axis=2)  # (2, K, N)

        diff = np.subtract(obs.xs, both[0], out=both[0])
        terms = both[1]  # log w_k + log N(x; mu_k, s), built in place
        square = np.multiply(diff, 0.5 / (s * s), out=obs.work)
        square *= diff
        terms -= square
        terms -= math.log(s) + 0.5 * LOG_2PI
        lse = _log_sum_exp(terms, obs.work)
        out += float(lse.sum())
        terms -= lse
        resp = np.exp(terms, out=terms)
        diff *= resp

        # One reduceat sums resp * (x - mu) and resp over each cell's run.
        sums = np.add.reduceat(both, obs.starts, axis=2)  # (2, K, V)
        dmu_cell, resp_cell = sums.transpose(0, 2, 1)  # (V, K) each
        dmu_cell = dmu_cell / (s * s)
        grad[:n_shared] += np.bincount(obs.coef.ravel(), weights=(obs.cov * dmu_cell).ravel(),
                                       minlength=n_shared)

        # d loglik / d stick_raw_l = R_l (1 - gamma_l) - (sum_{k > l} R_k) gamma_l
        # = R_l - (sum_{k >= l} R_k) gamma_l, and zero for the last index (the
        # remainder weight has no gamma of its own).
        if k_n > 1:
            tail = resp_cell[:, ::-1].cumsum(axis=1)[:, ::-1]
            g_stick = grad[n_shared:n_shared + v_n * k_n].reshape(v_n, k_n)
            g_stick[:, :-1] += (resp_cell - tail * gamma)[:, :-1]
    return out, grad


def log_posterior(params: ModelParams, grid: GridData) -> float:
    """Unnormalized log posterior: log prior plus masked log likelihood.

    Only cells whose mask bit is set contribute likelihood.
    """
    return Posterior(grid, params.dims).logp(params.to_vector())


class Posterior:
    """Flat-vector view of the posterior for the HMC engine.

    The coordinates of a cell the path never visited appear only in that
    cell's own prior terms, so the posterior factorizes: ``active``, from
    ``ModelDims.active``, indexes the rest, and the sampler integrates only
    those. ``logp`` and ``grad`` take a vector of ``active`` length, or of
    length ``dims.n_coords``, whose prior-only coordinates then add their
    prior terms through the same prior function. When every cell is visited
    the two lengths are equal.

    ``logp`` and ``grad`` each make one kernel pass over the grid's
    ``observations()``, which yields both the value and the gradient.
    ``last_logp`` gives the value of the pass the last ``grad`` call made,
    which the sampler's energy-error check reads after every leapfrog step
    without a second pass.
    """

    def __init__(self, grid: GridData, dims: ModelDims, component_scale: float = COMPONENT_SCALE):
        self.active = dims.active(grid.mask)
        self.active.flags.writeable = False
        self.grid = grid
        self.dims = dims
        self.component_scale = float(component_scale)
        self._prior_only = np.setdiff1d(np.arange(dims.n_coords), self.active,
                                        assume_unique=True)

        i_n, j_n, k_n = dims.n_time, dims.n_price, dims.n_components
        xs, cells, counts = grid.observations()
        ci, cj = np.divmod(cells, j_n)
        rows = np.stack([ci, i_n + cj, np.full_like(ci, i_n + j_n)])
        if cells.size and counts.min() == 0:
            v = int(np.argmin(counts))
            raise ModelError(f"visited cell ({ci[v]}, {cj[v]}) holds no returns")
        self._obs = _Observed(
            n_shared=dims.n_shared,
            n_components=k_n,
            scale=self.component_scale,
            coef=rows[..., None] * k_n + np.arange(k_n),
            cov=np.stack([grid.cell_time[ci], grid.cell_logprice[cj],
                          np.ones(cells.size)])[..., None],
            xs=xs,
            counts=counts,
            starts=np.cumsum(counts) - counts,
            work=np.empty((k_n, xs.size)),
        )
        self._last_logp = None  # the value of the last grad call's pass

    def _evaluate(self, vec):
        vec = np.asarray(vec, dtype=float)
        n_active, n_coords = self.active.size, self.dims.n_coords
        if vec.shape not in ((n_active,), (n_coords,)):
            raise ModelError(f"expected a vector of length {n_active} (the active "
                             f"coordinates) or {n_coords}, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ModelError("parameters must be finite")
        if vec.size == n_active:
            return _value_and_grad(vec, self._obs)
        value, g_active = _value_and_grad(vec[self.active], self._obs)
        v_rest, g_rest, _, _ = _prior(vec[self._prior_only], 0, self.dims.n_components)
        grad = np.empty(n_coords)
        grad[self.active] = g_active
        grad[self._prior_only] = g_rest
        return value + v_rest, grad

    def logp(self, vec: np.ndarray) -> float:
        return self._evaluate(vec)[0]

    def grad(self, vec: np.ndarray) -> np.ndarray:
        self._last_logp, grad = self._evaluate(vec)
        return grad

    def last_logp(self) -> float:
        """The log density at the point of the last ``grad`` call, from the
        pass that call made."""
        if self._last_logp is None:
            raise ModelError("last_logp needs a grad call first")
        return self._last_logp
