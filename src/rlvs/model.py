"""Stick-breaking Gaussian mixture over the time-price grid.

Each cell (i, j) carries a K-component Gaussian mixture whose component
means are affine in the cell's time and log-price coordinates,

    mean[i, j, k] = time_effect[i, k] * t_i + price_effect[j, k] * logS_j + alpha[k],

where logS_j is the grid's ``cell_logprice`` (the log of the price bin's
midpoint over the session's first price), and whose weights come from
truncated stick-breaking: K - 1 fractions gamma[i, j, k] in (0, 1), k < K - 1,
with the leftover mass the last weight, so the weights always sum to one.
Priors: standard normal on the mean coefficients, Beta(1, 1) on each cell
concentration a[i, j], and Beta(1, a[i, j]) on each stick fraction. (A K-th
fraction, fixed at 1 in the truncation, would enter no weight: its Beta(1, a)
density integrates to 1, so leaving it out of the model changes no marginal.)

HMC needs an unconstrained space, so the (0, 1) parameters are stored in
logistic coordinates and every density below includes the log-Jacobian of
that transform. The observation mask enters as a hard filter: cells the
path never visited contribute no likelihood at all, so their coordinates
feel only their own prior and ``Posterior`` leaves them out of the vector
the sampler integrates.
"""

from __future__ import annotations

import copy
import functools
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


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelDims:
    n_time: int
    n_price: int
    n_components: int

    def __post_init__(self):
        for name in ("n_time", "n_price", "n_components"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def n_shared(self) -> int:
        """The mean coefficients: time and price effects and intercepts."""
        return (self.n_time + self.n_price + 1) * self.n_components

    @property
    def n_coords(self) -> int:
        return self.n_shared + self.n_time * self.n_price * self.n_components

    def active(self, mask) -> np.ndarray:
        """The sorted ``to_vector()`` indices of the coordinates the data reach
        on a grid with visited-cell ``mask``: the mean coefficients, then each
        visited cell's K - 1 stick coordinates, then their concentrations."""
        visited = self._visited(mask)
        return np.flatnonzero(np.concatenate([np.ones(self.n_shared, dtype=bool),
                                              np.repeat(visited, self.n_components - 1), visited]))

    def n_stored(self, mask) -> int:
        """How many leading ``active(mask)`` coordinates a checkpoint keeps of
        each draw: the mean coefficients and the visited cells' sticks, all the
        surface reads (the concentrations enter no weight)."""
        return self.n_shared + int(self._visited(mask).sum()) * (self.n_components - 1)

    def _visited(self, mask) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_time, self.n_price):
            raise ModelError(f"dims n_time = {self.n_time}, n_price = {self.n_price} do not "
                             f"match the grid's {' x '.join(map(str, mask.shape))} cells")
        return mask.ravel()


@dataclass
class ModelParams:
    """Full parameter set in unconstrained coordinates.

    ``stick_raw`` and ``conc`` live on the real line; the constrained stick
    fractions and concentrations are their logistic images.
    """

    time_effect: np.ndarray   # (I, K)
    price_effect: np.ndarray  # (J, K)
    alpha: np.ndarray         # (K,)
    stick_raw: np.ndarray     # (I, J, K - 1)
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
        if self.stick_raw.shape != (i, j, k - 1) or self.conc.shape != (i, j):
            raise ModelError("inconsistent stick/concentration shapes")
        for a in (self.time_effect, self.price_effect, self.alpha, self.stick_raw, self.conc):
            if not np.isfinite(a).all():
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
        parts = np.split(vec, np.cumsum([i * k, j * k, k, i * j * (k - 1)]))
        return cls(
            time_effect=parts[0].reshape(i, k),
            price_effect=parts[1].reshape(j, k),
            alpha=parts[2],
            stick_raw=parts[3].reshape(i, j, k - 1),
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
    and the result is a genuine probability vector; the last fraction enters
    no weight. Works on any (..., K) array, through the same log-space
    weights the likelihood uses.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any((g <= 0.0) | (g >= 1.0)):
        raise ModelError("stick fractions must lie strictly inside (0, 1)")
    g = np.moveaxis(g, -1, 0)[:-1]
    return np.exp(np.moveaxis(_log_stick_break(np.log(g), np.log1p(-g)), 0, -1), order="C")


def _log_stick_break(log_g: np.ndarray, log_1mg: np.ndarray) -> np.ndarray:
    """The K log stick-break weights from (K - 1, ...) log(gamma) and
    log(1 - gamma), component-major: a (K, ...) array.

    Weight k < K - 1 is log gamma_k plus the prefix sum of log(1 - gamma)
    before it; the last, what is left of the stick, is the sum of all
    K - 1, which the Beta prior reads too. The prefix sums are one running
    sum down the component axis, so each weight is the same float whatever
    the number of rows beside it. Sums past the float range are -inf: every
    log(1 - gamma) is at most about 0.
    """
    out = np.zeros((log_g.shape[0] + 1,) + log_g.shape[1:])
    np.add.accumulate(log_1mg, axis=0, out=out[1:])
    out[:-1] += log_g
    return out


def stick_weights_from_raw(stick_raw: np.ndarray) -> np.ndarray:
    """The (..., K) stick-break weights of (..., K - 1) unconstrained
    coordinates.

    Those of ``stick_break`` at the fractions ``expit(stick_raw)`` and any
    last one, but computed in log space, so fractions driven against 0 or 1
    by the sampler (where expit saturates in floating point) still yield a
    valid weight vector. Raw coordinates near the float limit overflow a log
    weight to -inf, whose exp is the exact weight 0, so that overflow is not
    warned about.
    """
    stick_raw = np.asarray(stick_raw, dtype=float)
    with np.errstate(over="ignore"):
        raw = np.moveaxis(stick_raw, -1, 0)
        log_w = _log_stick_break(_log_expit(raw), _log_expit(-raw))
        return np.exp(np.moveaxis(log_w, 0, -1), order="C")


def component_means(time_effect, price_effect, alpha, grid: GridData) -> np.ndarray:
    """(..., I, J, K) component means of the affine coefficient model from
    (..., I, K) time effects, (..., J, K) price effects and (..., K)
    intercepts: one draw's, or a stack of draws' along leading axes.

    Each mean is (time term + price term) + intercept, the same float
    whatever the stack. The means are stored component-major, as a C-order
    (K, ..., I, J) array seen through a (..., I, J, K) view, so a sum over
    the components adds whole arrays.
    """
    t = np.moveaxis(time_effect * grid.cell_time[:, None], -1, 0)
    p = np.moveaxis(price_effect * grid.cell_logprice[:, None], -1, 0)
    means = np.add(t[..., :, None], p[..., None, :], order="C")
    means += np.moveaxis(alpha, -1, 0)[..., None, None]
    return np.moveaxis(means, 0, -1)


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
    coefficients, then the K - 1 stick coordinates of each of n cells, then
    the n concentrations; also the cells' (n, K) log stick weights and
    (n, K - 1) stick fractions.

    The coefficients are standard normal, each concentration Beta(1, 1) and
    each stick fraction Beta(1, a) given its cell's concentration a, with
    their logistic Jacobians. Every term is <= 0, so a sum passes the float
    range, to -inf, only where the value does. Any set of cells can be
    passed, so the sampled cells and the prior-only ones share this one
    function.
    """
    shared = vec[:n_shared]
    cells = vec[n_shared:]  # the stick coordinates, then the concentrations
    n = cells.size // k_n
    n_sticks = n * (k_n - 1)
    log_x = _log_expit(cells)
    # log(1 - x) = log x - logit x: one logaddexp pass fewer, with an absolute
    # error of about ulp(cells), which is all the sums below need.
    log_1mx = log_x - cells
    x = np.exp(log_x)
    log_g = log_x[:n_sticks].reshape(n, k_n - 1)
    log_1mg = log_1mx[:n_sticks].reshape(n, k_n - 1)
    sticks = _log_stick_break(log_g.T, log_1mg.T)
    gamma = x[:n_sticks].reshape(n, k_n - 1)
    a = x[n_sticks:]
    value = (
        -0.5 * float(shared @ shared) - 0.5 * n_shared * LOG_2PI
        # Each concentration's Jacobian, log a + log(1 - a) (Beta(1, 1) is
        # flat), and its sticks' Beta(1, a) normalizers, (K - 1) log a.
        + float(np.add.reduce(k_n * log_x[n_sticks:] + log_1mx[n_sticks:]))
        # Each stick's Beta(1, a) density, (a - 1) log(1 - gamma), and
        # Jacobian, log gamma + log(1 - gamma).
        + float(np.add.reduce((log_g + a[:, None] * log_1mg).ravel()))
    )
    grad = np.empty(vec.size)
    np.negative(shared, out=grad[:n_shared])
    # d/d stick_raw of [log Beta(gamma; 1, a) + log Jacobian] = 1 - gamma - a gamma
    g_stick = grad[n_shared:n_shared + n_sticks].reshape(n, k_n - 1)
    np.multiply((1.0 + a)[:, None], gamma, out=g_stick)
    np.subtract(1.0, g_stick, out=g_stick)
    # d/d conc of [Jacobian + (K - 1) log a + (a - 1) sum log(1 - gamma)]
    # = (1 - 2a) + (K - 1)(1 - a) + a (1 - a) sum log(1 - gamma); that sum is
    # the last log weight.
    np.add(a * ((1.0 - a) * sticks[-1] - (1.0 + k_n)), k_n, out=grad[n_shared + n_sticks:])
    return value, grad, sticks.T, gamma


# The least column sum of exponentials that _log_sum_exp takes unshifted, by
# the kernel's working dtype: 2^(p + 1) times the least normal float for p
# mantissa bits, so 2^-969 = exp(-671.7) in float64 and 2^-102 = exp(-70.7)
# in float32. Above it, an exponential that rounds into the subnormal range,
# where it keeps fewer bits, lies below half an ulp of its column's sum, so
# its lost bits cannot move the sum and change its responsibility by at most
# 2^-(2p + 2). A kernel column sums below it only for a return about 37
# (float64) or 12 (float32) component scales from every mean.
_MIN_TOTAL = {np.dtype(np.float64): 2.0 ** -969, np.dtype(np.float32): 2.0 ** -102}

# The fewest returns at which ``Posterior.trajectory`` runs the kernel in
# float32. A fixed-step chain's time on float32 trajectories over its time
# on float64 ones read 1.18, 1.20, 1.01, 0.99, 0.97, 0.90 and 0.62 at 78,
# 390, 1,560, 2,127, 2,340, 4,680 and 23,400 returns: below about 2,000
# the float64 pass at each trajectory's end costs what float32 saves.
_F32_MIN_RETURNS = 2048


def _log_sum_exp(terms: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log(sum(exp(terms), axis=0)) for a (K, N) float64 or float32 array,
    in its dtype. On return ``terms`` holds each column's softmax,
    exp(terms - lse) (the mixture's responsibilities), and ``work``, a
    (K, N) scratch array of the same dtype, the exponentials that were
    summed.

    The kernel's terms, log w - z^2, are all <= 0, so their exps cannot
    overflow and are summed unshifted. Only a column whose sum is below the
    dtype's ``_MIN_TOTAL``, +inf or NaN is redone shifted by its max
    (Blanchard, Higham & Higham 2021, "Accurately computing the log-sum-exp
    and softmax functions"), and ``work`` holds its shifted exponentials. A
    column whose max is not finite is not shifted, so every term -inf gives
    -inf, a +inf term +inf and a NaN NaN, as ``scipy.special.logsumexp``
    does; such a column divides by zero or meets inf - inf, so the caller
    runs this under ``np.errstate(all="ignore")``.
    """
    e = np.exp(terms, out=work)
    total = np.add.reduce(e, axis=0)
    ok = total >= _MIN_TOTAL[terms.dtype]
    ok &= total < math.inf
    redo = np.flatnonzero(~ok) if np.count_nonzero(ok) < ok.size else None
    if redo is not None:
        sub = terms[:, redo]
        mx = np.maximum.reduce(sub, axis=0)
        mx[~np.isfinite(mx)] = 0.0
        np.exp(np.subtract(sub, mx, out=sub), out=sub)
        e[:, redo] = sub
        total[redo] = np.add.reduce(sub, axis=0)
    np.divide(e, total, out=terms)
    lse = np.log(total)
    if redo is not None:
        lse[redo] += mx
    return lse


class _Observed(NamedTuple):
    """What the kernel reads of the grid, for its V visited cells and N
    returns, in units of s sqrt(2) for the component scale s. In them a
    return x lies z = (x - mu) / (s sqrt(2)) from a component mean mu, and
    log N(x; mu, s) = -z^2 - ``log_norm``.

    ``xs`` holds the returns so scaled, cell by cell, in
    ``GridData.observations()`` order, so cell v's returns are the one run
    ``xs[starts[v]:starts[v] + counts[v]]``. ``design`` is the (V, I + J + 1)
    design matrix of the component means, so scaled: row v holds cell v's
    ``cell_time`` in its time column, its ``cell_logprice`` in its price
    column and 1 in the last. One product with it maps the (I + J + 1, K)
    mean coefficients to the cells' means, and one with its transpose the
    cells' mean gradients back to the coefficients. It holds V (I + J + 1)
    floats: 555 KB on the paper's 78 x 10 grid with every cell visited.
    ``xs`` and ``work`` share one working dtype, float64 or float32, in
    which the kernel's (K, N) arithmetic runs; the design matrix, the prior
    and the gradient stay float64.
    ``tail`` is a (K, K - 1) 0/1 matrix: a row of a cell's K
    responsibilities times it gives, for each l < K - 1, their sum over
    k >= l.
    ``work`` is (K, N) scratch that every pass overwrites: it holds the
    squared distances, then ``_log_sum_exp``'s exponentials, unshifted
    except in the columns that it redoes shifted. With it the (2, K, N)
    array is a pass's only allocation of that size, so what a tick-level
    pass frees stays below the size at which malloc returns freed heap
    memory to the system, and the next pass does not fault it in again.
    """

    n_shared: int
    n_components: int
    log_norm: float     # log(s sqrt(2 pi))
    design: np.ndarray  # (V, I + J + 1)
    tail: np.ndarray    # (K, K - 1)
    xs: np.ndarray      # (N,), working dtype
    counts: np.ndarray  # (V,) int, each >= 1
    starts: np.ndarray  # (V,) int
    work: np.ndarray    # (K, N), working dtype


def _value_and_grad(vec: np.ndarray, obs: _Observed):
    """Log posterior and its gradient at a vector in ``Posterior.active``
    order (the mean coefficients, then each visited cell's K - 1 stick
    coordinates, then their concentrations), in one pass over the
    observations. Run it under ``np.errstate(all="ignore")``: far from the
    posterior's mass sums overflow, and the value is then -inf or NaN.

    The (K, N) work runs in the dtype of ``obs.xs``. In float32 the cells'
    means and log weights are rounded once per cell, an error that every
    return of the cell shares, so its first-order effect on the value is
    added back from the per-cell sums the gradient takes anyway; the
    returns' log-sum-exps are summed in float64 in either dtype.
    """
    n_shared, k_n = obs.n_shared, obs.n_components
    out, grad, logw, gamma = _prior(vec, n_shared, k_n)
    if obs.xs.size:
        v_n = obs.design.shape[0]
        # (2, K, V): component means and log weights, component-major.
        table = np.empty((2, k_n, v_n))
        np.matmul(vec[:n_shared].reshape(-1, k_n).T, obs.design.T, out=table[0])
        table[1] = logw.T
        cast = table.astype(obs.xs.dtype, copy=False)
        both = cast.repeat(obs.counts, axis=2)  # (2, K, N)

        z = np.subtract(obs.xs, both[0], out=both[0])
        terms = both[1]  # log w_k - z^2, built in place
        terms -= np.square(z, out=obs.work)
        # _log_sum_exp turns terms into the responsibilities.
        lse = _log_sum_exp(terms, obs.work)
        out += float(np.add.reduce(lse, dtype=float)) - obs.xs.size * obs.log_norm
        z *= terms

        # One reduceat sums resp * z and resp over each cell's run.
        sums = np.add.reduceat(both, obs.starts, axis=2)  # (2, K, V)
        if cast is not table:
            # d lse / d mean = 2 resp z and d lse / d log w = resp, summed
            # over the cell, times what rounding took off its mean and log w.
            lost = np.where(np.isfinite(cast), table - cast, 0.0)
            out += 2.0 * float(np.vdot(sums[0], lost[0])) + float(np.vdot(sums[1], lost[1]))
        # d(-z^2)/d mean coefficient = 2 z times its design entry.
        g_coef = grad[:n_shared].reshape(-1, k_n)
        g_coef += 2.0 * (obs.design.T @ sums[0].T)

        # d loglik / d stick_raw_l = R_l (1 - gamma_l) - (sum_{k > l} R_k) gamma_l
        # = R_l - (sum_{k >= l} R_k) gamma_l.
        resp_cell = sums[1].T  # (V, K)
        g_stick = grad[n_shared:n_shared + gamma.size].reshape(gamma.shape)
        g_stick += resp_cell[:, :-1] - (resp_cell @ obs.tail) * gamma
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
        if cells.size and counts.min() == 0:
            v = int(np.argmin(counts))
            raise ModelError(f"visited cell ({ci[v]}, {cj[v]}) holds no returns")
        unit = self.component_scale * math.sqrt(2.0)
        design = np.zeros((cells.size, i_n + j_n + 1))
        rows = np.arange(cells.size)
        design[rows, ci] = grid.cell_time[ci] / unit
        design[rows, i_n + cj] = grid.cell_logprice[cj] / unit
        design[:, -1] = 1.0 / unit
        self._obs = _Observed(
            n_shared=dims.n_shared,
            n_components=k_n,
            log_norm=math.log(self.component_scale) + 0.5 * LOG_2PI,
            design=design,
            tail=np.tril(np.ones((k_n, k_n - 1))),
            xs=xs / unit,
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
        with np.errstate(all="ignore"):
            if vec.size == n_active:
                value, grad = _value_and_grad(vec, self._obs)
            else:
                value, g_active = _value_and_grad(vec[self.active], self._obs)
                v_rest, g_rest, _, _ = _prior(vec[self._prior_only], 0, self.dims.n_components)
                value += v_rest
                grad = np.empty(n_coords)
                grad[self.active] = g_active
                grad[self._prior_only] = g_rest
        # A coordinate that is not finite makes the value not finite, so the
        # vector needs the check only then.
        if not math.isfinite(value) and not np.isfinite(vec).all():
            raise ModelError("parameters must be finite")
        return value, grad

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

    @functools.cached_property
    def trajectory(self):
        """This posterior with its kernel in float32, or None when the grid
        holds fewer than ``_F32_MIN_RETURNS`` returns.

        It has the same ``active``, and its ``grad`` and ``last_logp`` run
        the (K, N) work in float32: half a float64 pass's time at tick
        level, with the value within 2^-24 relative. The sampler
        integrates trajectories with it and takes the Metropolis test on
        this posterior's float64 ``logp``, so the chain's target stays the
        float64 posterior. Built on first read, from float32 copies of the
        returns and the scratch; the rest is shared.
        """
        obs = self._obs
        if obs.xs.size < _F32_MIN_RETURNS:
            return None
        path = copy.copy(self)
        path._obs = obs._replace(xs=obs.xs.astype(np.float32),
                                 work=np.empty(obs.work.shape, dtype=np.float32))
        path._last_logp = None
        path.trajectory = None
        return path
