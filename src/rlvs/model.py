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
    fractions and concentrations are their logistic images, exposed via
    :meth:`stick_fractions` and :meth:`concentration`. ``component_scale``
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

    def stick_fractions(self) -> np.ndarray:
        return expit(self.stick_raw)

    def concentration(self) -> np.ndarray:
        return expit(self.conc)

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


def _log_stick_break(stick_raw: np.ndarray) -> np.ndarray:
    """log stick-break weights straight from unconstrained coordinates."""
    log_g = log_expit(stick_raw)
    log_1mg = log_expit(-stick_raw)
    k = stick_raw.shape[-1]
    logw = np.empty_like(stick_raw)
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
    with np.errstate(over="ignore"):
        return np.exp(_log_stick_break(np.asarray(stick_raw, dtype=float)))


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


def log_prior(params: ModelParams) -> float:
    """Log prior density in unconstrained coordinates (Jacobians included)."""
    sq = (
        float(np.sum(params.time_effect ** 2))
        + float(np.sum(params.price_effect ** 2))
        + float(np.sum(params.alpha ** 2))
    )
    n_norm = params.time_effect.size + params.price_effect.size + params.alpha.size
    out = -0.5 * sq - 0.5 * n_norm * LOG_2PI

    # Beta(1,1) on the concentrations is flat; only the logistic Jacobian remains.
    out += float(np.sum(log_expit(params.conc) + log_expit(-params.conc)))

    # Beta(1, a_ij) on each stick fraction, plus its logistic Jacobian.
    log_a = log_expit(params.conc)
    a = expit(params.conc)
    log_g = log_expit(params.stick_raw)
    log_1mg = log_expit(-params.stick_raw)
    out += float(np.sum(log_a[..., None] + (a[..., None] - 1.0) * log_1mg))
    out += float(np.sum(log_g + log_1mg))
    return out


def _loglik_terms(params, means, logw, xs, ci, cj):
    """Per-observation (N, K) joint log terms: log w_k + log N(x; mu_k, s)."""
    s = params.component_scale
    d = (xs[:, None] - means[ci, cj, :]) / s
    return logw[ci, cj, :] - 0.5 * d * d - np.log(s) - 0.5 * LOG_2PI


def _log_posterior(params: ModelParams, grid: GridData, xs, ci, cj) -> float:
    """Log prior plus the masked log likelihood of the observations (xs, ci, cj)."""
    out = log_prior(params)
    if xs.size:
        means = component_means(params, grid)
        logw = _log_stick_break(params.stick_raw)
        terms = _loglik_terms(params, means, logw, xs, ci, cj)
        out += float(np.sum(logsumexp(terms, axis=1)))
    return out


def log_posterior(params: ModelParams, grid: GridData) -> float:
    """Unnormalized log posterior: log prior plus masked log likelihood.

    Only cells whose mask bit is set contribute likelihood.
    """
    return _log_posterior(params, grid, *grid.observations())


def _grad_log_posterior(params: ModelParams, grid: GridData, xs, ci, cj) -> np.ndarray:
    """Gradient of _log_posterior for the observations (xs, ci, cj)."""
    dims = params.dims
    i_n, j_n, k_n = dims.n_time, dims.n_price, dims.n_components
    gamma = expit(params.stick_raw)
    a = expit(params.conc)
    log_1mg = log_expit(-params.stick_raw)

    # Prior parts.
    g_te = -params.time_effect.copy()
    g_pe = -params.price_effect.copy()
    g_al = -params.alpha.copy()
    # d/d stick_raw of [log Beta(gamma; 1, a) + log Jacobian]: (1 - gamma) - a * gamma
    g_sr = (1.0 - gamma) - a[..., None] * gamma
    # d/d conc of [Beta(1,1) Jacobian + K * log a + (a - 1) sum log(1 - gamma)]
    g_c = (1.0 - 2.0 * a) + k_n * (1.0 - a) + a * (1.0 - a) * np.sum(log_1mg, axis=-1)

    if xs.size:
        s = params.component_scale
        means = component_means(params, grid)
        logw = _log_stick_break(params.stick_raw)
        terms = _loglik_terms(params, means, logw, xs, ci, cj)
        resp = np.exp(terms - logsumexp(terms, axis=1)[:, None])  # (N, K)
        d_over_s = (xs[:, None] - means[ci, cj, :]) / (s * s)

        lin = ci * j_n + cj
        n_cells = i_n * j_n
        resp_cell = np.empty((n_cells, k_n))
        dmu_cell = np.empty((n_cells, k_n))
        for k in range(k_n):
            resp_cell[:, k] = np.bincount(lin, weights=resp[:, k], minlength=n_cells)
            dmu_cell[:, k] = np.bincount(lin, weights=resp[:, k] * d_over_s[:, k],
                                         minlength=n_cells)
        resp_cell = resp_cell.reshape(i_n, j_n, k_n)
        dmu_cell = dmu_cell.reshape(i_n, j_n, k_n)

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

    return np.concatenate([
        g_te.ravel(), g_pe.ravel(), g_al.ravel(), g_sr.ravel(), g_c.ravel(),
    ])


def grad_log_posterior(params: ModelParams, grid: GridData) -> np.ndarray:
    """Analytic gradient of log_posterior, flat in to_vector() order."""
    return _grad_log_posterior(params, grid, *grid.observations())


class Posterior:
    """Flat-vector view of the posterior for the HMC engine.

    Caches the grid's flattened observations so repeated logp/grad calls
    during sampling avoid re-walking the ragged cell lists.
    """

    def __init__(self, grid: GridData, dims: ModelDims, component_scale: float = 1.0):
        if dims.n_time != grid.spec.n_time or dims.n_price != grid.spec.n_price:
            raise ModelError("model dims do not match grid spec")
        self.grid = grid
        self.dims = dims
        self.component_scale = float(component_scale)
        self._xs, self._ci, self._cj = grid.observations()

    @property
    def n_dim(self) -> int:
        return self.dims.n_coords

    def params(self, vec: np.ndarray) -> ModelParams:
        return ModelParams.from_vector(self.dims, vec, self.component_scale)

    def logp(self, vec: np.ndarray) -> float:
        return _log_posterior(self.params(vec), self.grid, self._xs, self._ci, self._cj)

    def grad(self, vec: np.ndarray) -> np.ndarray:
        return _grad_log_posterior(self.params(vec), self.grid, self._xs, self._ci, self._cj)
