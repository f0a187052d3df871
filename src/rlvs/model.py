"""Stick-breaking Gaussian mixture over the time-price grid.

Each cell (i, j) carries a K-component Gaussian mixture whose component
means are affine in the cell's time and log-price coordinates,

    mean[i, j, k] = time_effect[i, k] * t_i + price_effect[j, k] * logS_j + alpha[k],

and whose weights come from truncated stick-breaking fractions
gamma[i, j, k] in (0, 1), with the leftover mass absorbed into the last
weight so the weights always sum to one. Priors: standard normal on the
mean coefficients, Beta(1, 1) on each cell concentration a[i, j], and
Beta(1, a[i, j]) on each stick fraction.

HMC needs an unconstrained space, so the (0, 1) parameters are stored in
logistic coordinates and every density below includes the log-Jacobian of
that transform. The observation mask enters as a hard filter: cells the
path never visited contribute no likelihood at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, logsumexp

from .grid import GridData

LOG_2PI = float(np.log(2.0 * np.pi))


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
    def n_coords(self) -> int:
        i, j, k = self.n_time, self.n_price, self.n_components
        return i * k + j * k + k + i * j * k + i * j


@dataclass
class ModelParams:
    """Full parameter set in unconstrained coordinates.

    ``stick_raw`` and ``conc`` live on the real line; the constrained stick
    fractions and concentrations are their logistic images. ``component_scale``
    is a fixed hyperparameter (the common component standard deviation), not
    a sampled coordinate.
    """

    time_effect: np.ndarray   # (I, K)
    price_effect: np.ndarray  # (J, K)
    alpha: np.ndarray         # (K,)
    stick_raw: np.ndarray     # (I, J, K)
    conc: np.ndarray          # (I, J)
    component_scale: float = 1.0

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
        if self.component_scale <= 0:
            raise ModelError("component_scale must be positive")
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
    def from_vector(cls, dims: ModelDims, vec: np.ndarray,
                    component_scale: float = 1.0) -> "ModelParams":
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
            component_scale=component_scale,
        )

    @classmethod
    def random_init(cls, dims: ModelDims, rng: np.random.Generator,
                    component_scale: float = 1.0) -> "ModelParams":
        """Independent standard-normal draws for every unconstrained coordinate."""
        return cls.from_vector(dims, rng.standard_normal(dims.n_coords), component_scale)


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
    w_K = prod_{l<K}(1 - gamma_l), so the weights sum to one exactly and the
    result is a genuine probability vector. Works on any (..., K) array.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any((g <= 0.0) | (g >= 1.0)):
        raise ModelError("stick fractions must lie strictly inside (0, 1)")
    k = g.shape[-1]
    w = np.empty_like(g)
    if k == 1:
        w[..., 0] = 1.0
        return w
    prefix = np.cumprod(1.0 - g, axis=-1)
    w[..., 0] = g[..., 0]
    w[..., 1:] = g[..., 1:] * prefix[..., :-1]
    w[..., -1] = prefix[..., -2]
    return w


def _log_stick_break(log_g: np.ndarray, log_1mg: np.ndarray) -> np.ndarray:
    """log stick-break weights from log(gamma) and log(1 - gamma)."""
    k = log_g.shape[-1]
    logw = np.empty_like(log_g)
    if k == 1:
        logw[..., 0] = 0.0
        return logw
    prefix = np.cumsum(log_1mg, axis=-1)
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
        return np.exp(_log_stick_break(log_expit(stick_raw), log_expit(-stick_raw)))


def component_means(params: ModelParams, grid: GridData) -> np.ndarray:
    """(I, J, K) component means from the affine coefficient model."""
    t = grid.cell_time
    ls = grid.cell_logprice
    return (
        (params.time_effect * t[:, None])[:, None, :]
        + (params.price_effect * ls[:, None])[None, :, :]
        + params.alpha[None, None, :]
    )


def mixture_logpdf(x, mix: MixtureSpec):
    """Log density of the mixture at x (scalar or array), via log-sum-exp."""
    x = np.asarray(x, dtype=float)
    d = (x[..., None] - mix.means) / mix.scale
    with np.errstate(divide="ignore"):
        log_terms = np.log(mix.weights) - 0.5 * d * d - np.log(mix.scale) - 0.5 * LOG_2PI
    out = logsumexp(log_terms, axis=-1)
    return float(out) if out.ndim == 0 else out


def mixture_moments(mix: MixtureSpec) -> tuple[float, float]:
    """(mean, variance) by the law of total variance."""
    mean = float(np.dot(mix.weights, mix.means))
    second = float(np.dot(mix.weights, mix.scale ** 2 + mix.means ** 2))
    return mean, second - mean * mean


def cell_mixture(params: ModelParams, grid: GridData, i: int, j: int) -> MixtureSpec:
    """The mixture realized in cell (i, j) under the given parameters."""
    mu = (
        params.time_effect[i] * grid.cell_time[i]
        + params.price_effect[j] * grid.cell_logprice[j]
        + params.alpha
    )
    return MixtureSpec(stick_weights_from_raw(params.stick_raw[i, j]),
                       mu, params.component_scale)


def _prior_terms(params: ModelParams):
    """Log prior value and gradient, plus the log stick weights and the stick
    fractions, from one evaluation of the logistic terms.

    Returns (value, [g_time, g_price, g_alpha, g_stick, g_conc], logw, gamma).
    """
    sq = (
        float(np.sum(params.time_effect ** 2))
        + float(np.sum(params.price_effect ** 2))
        + float(np.sum(params.alpha ** 2))
    )
    n_norm = params.time_effect.size + params.price_effect.size + params.alpha.size
    out = -0.5 * sq - 0.5 * n_norm * LOG_2PI

    # Beta(1,1) on the concentrations is flat; only the logistic Jacobian remains.
    log_a = log_expit(params.conc)
    out += float(np.sum(log_a + log_expit(-params.conc)))

    # Beta(1, a_ij) on each stick fraction, plus its logistic Jacobian.
    a = expit(params.conc)
    log_g = log_expit(params.stick_raw)
    log_1mg = log_expit(-params.stick_raw)
    out += float(np.sum(log_a[..., None] + (a[..., None] - 1.0) * log_1mg))
    out += float(np.sum(log_g + log_1mg))

    gamma = expit(params.stick_raw)
    k_n = params.stick_raw.shape[-1]
    grads = [
        -params.time_effect,
        -params.price_effect,
        -params.alpha,
        # d/d stick_raw of [log Beta(gamma; 1, a) + log Jacobian]
        (1.0 - gamma) - a[..., None] * gamma,
        # d/d conc of [Beta(1,1) Jacobian + K * log a + (a - 1) sum log(1 - gamma)]
        (1.0 - 2.0 * a) + k_n * (1.0 - a) + a * (1.0 - a) * np.sum(log_1mg, axis=-1),
    ]
    return out, grads, _log_stick_break(log_g, log_1mg), gamma


def log_prior(params: ModelParams) -> float:
    """Log prior density in unconstrained coordinates (Jacobians included)."""
    return _prior_terms(params)[0]


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log(sum(exp(terms), axis=0)) for a (K, N) array, as scipy 1.17 computes it.

    The max element(s) of each column are left out of the shifted sum, which
    is then ``log1p(sum / count) + log(count) + max``; columns where that is
    not finite (every term -inf, say) fall back to the direct formula.
    """
    mx = terms.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = terms - mx
        is_max = e == 0.0
        np.exp(e, out=e)
        e -= is_max  # exp(0) == 1 exactly: this takes the max elements out
        count = is_max.sum(axis=0, dtype=float)
        out = np.log1p(e.sum(axis=0) / count) + np.log(count) + mx
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(terms[:, bad]), axis=0))
    return out


def _observations(grid: GridData, dims: ModelDims):
    """Stored returns and, per return, its component-major flat index
    ``k * n_cells + cell`` as a (K, N) array, where ``cell = i * n_price + j``."""
    xs, ci, cj = grid.observations()
    n_cells = dims.n_time * dims.n_price
    cell = ci * dims.n_price + cj
    return xs, np.arange(dims.n_components)[:, None] * n_cells + cell


def _value_and_grad(params: ModelParams, grid: GridData, xs, index):
    """Log posterior and its gradient (flat, in to_vector() order) in one pass
    over the observations ``(xs, index)`` of ``_observations``.
    """
    i_n, j_n, k_n = params.dims.n_time, params.dims.n_price, params.dims.n_components
    out, (g_te, g_pe, g_al, g_sr, g_c), logw, gamma = _prior_terms(params)
    if xs.size:
        s = params.component_scale
        # (2, K, cells): component means and log weights, component-major.
        table = np.empty((2, k_n, i_n * j_n))
        table[0] = component_means(params, grid).reshape(-1, k_n).T
        table[1] = logw.reshape(-1, k_n).T
        both = np.take(table.reshape(2, -1), index, axis=1)  # (2, K, N)

        diff = np.subtract(xs, both[0], out=both[0])
        d = diff / s
        terms = both[1]  # log w_k + log N(x; mu_k, s), built in place
        terms -= 0.5 * d * d
        terms -= np.log(s)
        terms -= 0.5 * LOG_2PI
        lse = _log_sum_exp(terms)
        out += float(np.sum(lse))
        terms -= lse
        resp = np.exp(terms, out=terms)
        diff /= s * s
        diff *= resp  # resp * (x - mu) / s^2, the weight of d/d mu

        # Two bincounts over k * n_cells + cell, each copied to a C-ordered
        # (I, J, K) array: the sums below then round the same whatever the
        # observation layout.
        flat = index.ravel()
        n_bins = k_n * i_n * j_n
        resp_cell, dmu_cell = (
            np.bincount(flat, weights=w.ravel(), minlength=n_bins)
            .reshape(k_n, -1).T.copy().reshape(i_n, j_n, k_n)
            for w in (resp, diff)
        )

        g_te += dmu_cell.sum(axis=1) * grid.cell_time[:, None]
        g_pe += dmu_cell.sum(axis=0) * grid.cell_logprice[:, None]
        g_al += dmu_cell.sum(axis=(0, 1))

        # d loglik / d stick_raw_l = R_l (1 - gamma_l) - (sum_{k > l} R_k) gamma_l,
        # and zero for the last index (the remainder weight has no gamma of its own).
        if k_n > 1:
            tail = np.cumsum(resp_cell[..., ::-1], axis=-1)[..., ::-1]  # sum_{k >= l}
            suffix = np.zeros_like(resp_cell)
            suffix[..., :-1] = tail[..., 1:]
            g_lik_sr = resp_cell * (1.0 - gamma) - suffix * gamma
            g_lik_sr[..., -1] = 0.0
            g_sr += g_lik_sr

    return out, np.concatenate([
        g_te.ravel(), g_pe.ravel(), g_al.ravel(), g_sr.ravel(), g_c.ravel(),
    ])


def log_posterior(params: ModelParams, grid: GridData) -> float:
    """Unnormalized log posterior: log prior plus masked log likelihood.

    Only cells whose mask bit is set contribute likelihood.
    """
    return _value_and_grad(params, grid, *_observations(grid, params.dims))[0]


def grad_log_posterior(params: ModelParams, grid: GridData) -> np.ndarray:
    """Analytic gradient of log_posterior, flat in to_vector() order."""
    return _value_and_grad(params, grid, *_observations(grid, params.dims))[1]


class Posterior:
    """Flat-vector view of the posterior for the HMC engine.

    ``logp`` and ``grad`` share one kernel pass that yields both the value
    and the gradient. The observations are cached, laid out for that kernel,
    and the last pass is memoized on a copy of its point, so the ``logp``
    the sampler asks for at the end of a trajectory, where it has just taken
    the gradient, costs no second pass.
    """

    def __init__(self, grid: GridData, dims: ModelDims, component_scale: float = 1.0):
        if dims.n_time != grid.spec.n_time or dims.n_price != grid.spec.n_price:
            raise ModelError("model dims do not match grid spec")
        self.grid = grid
        self.dims = dims
        self.component_scale = float(component_scale)
        self._xs, self._index = _observations(grid, dims)
        self._last = None  # (point, value, gradient) of the last pass

    def params(self, vec: np.ndarray) -> ModelParams:
        return ModelParams.from_vector(self.dims, vec, self.component_scale)

    def _pass(self, vec):
        vec = np.asarray(vec, dtype=float)
        last = self._last
        # Bitwise comparison: -0.0 and NaN coordinates must not alias.
        if (last is None or last[0].shape != vec.shape
                or not np.array_equal(last[0].view(np.int64), vec.view(np.int64))):
            value, grad = _value_and_grad(self.params(vec), self.grid, self._xs, self._index)
            last = self._last = (vec.copy(), value, grad)
        return last

    def logp(self, vec: np.ndarray) -> float:
        return self._pass(vec)[1]

    def grad(self, vec: np.ndarray) -> np.ndarray:
        return self._pass(vec)[2].copy()
