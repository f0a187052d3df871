"""Cell-by-cell, stick-by-stick and draw-by-draw references for the model's
one-pass kernel, its prior and the surface.

The package computes a cell's mixture only inside its vectorized passes;
these functions rebuild it for one cell, and its density with
``np.logaddexp`` rather than the kernel's own ``_log_sum_exp``, so the tests
can compare the two. ``surface_by_draw`` builds the surface one draw at a
time, as ``build_surface`` did before it took the draws in blocks.
``log_prior_by_stick`` sums the log prior one term at a time, and
``k_fraction_log_prior`` is the prior of the layout that sampled a K-th stick
fraction in each cell, summed as its implementation summed it.
"""

import math

import numpy as np
from scipy.special import log_expit

from rlvs.grid import GridData
from rlvs.model import (COMPONENT_SCALE, LOG_2PI, MixtureSpec, ModelParams,
                        stick_break, stick_weights_from_raw)
from rlvs.surface import (COUNTERFACTUAL_STICK, SurfaceConfig, VolSurface, annualize,
                          credible_interval)


def mixture_logpdf(x, mix: MixtureSpec):
    """Log density of the mixture at x (scalar or array), via log-sum-exp."""
    x = np.asarray(x, dtype=float)
    d = (x[..., None] - mix.means) / mix.scale
    with np.errstate(divide="ignore"):
        log_terms = np.log(mix.weights) - 0.5 * d * d - np.log(mix.scale) - 0.5 * LOG_2PI
    out = np.logaddexp.reduce(log_terms, axis=-1)
    return float(out) if out.ndim == 0 else out


def cell_mixture(params: ModelParams, grid: GridData, i: int, j: int,
                 scale: float = COMPONENT_SCALE) -> MixtureSpec:
    """The mixture realized in cell (i, j) under the given parameters, with
    component standard deviation ``scale``."""
    mu = (
        params.time_effect[i] * grid.cell_time[i]
        + params.price_effect[j] * grid.cell_logprice[j]
        + params.alpha
    )
    return MixtureSpec(stick_weights_from_raw(params.stick_raw[i, j]), mu, scale)


def surface_by_draw(draws, grid: GridData, config: SurfaceConfig,
                    destandardize_scale: float = 1.0) -> VolSurface:
    """``build_surface`` one draw at a time: each draw breaks the sticks of
    every cell, the masked cells' weights are then replaced by the
    counterfactual ones, and each cell's moments are summed over a
    contiguous (I, J, K) array, by the law of total variance written out."""
    use = list(draws)[-config.n_param_draws:]
    w_cf = stick_break(np.full(use[0].dims.n_components, COUNTERFACTUAL_STICK))
    stds = np.empty((len(use), grid.spec.n_time, grid.spec.n_price))
    for d, params in enumerate(use):
        weights = np.where(grid.mask[..., None], stick_weights_from_raw(params.stick_raw), w_cf)
        means = ((params.time_effect * grid.cell_time[:, None])[:, None, :]
                 + (params.price_effect * grid.cell_logprice[:, None])[None, :, :]
                 + params.alpha[None, None, :])
        mean = np.sum(weights * means, axis=-1)
        second = np.sum(weights * (COMPONENT_SCALE ** 2 + np.square(means)), axis=-1)
        np.sqrt(second - mean * mean, out=stds[d])
    vols = annualize(stds * destandardize_scale, config.bins_per_day, config.trading_days)
    vol_lo, vol_hi = credible_interval(vols, config.ci_level)
    return VolSurface(grid.spec, vols.mean(axis=0), vol_lo, vol_hi, ~grid.mask)


def log_prior_by_stick(vec, n_shared: int, n_sticks: int) -> float:
    """The log prior at a vector laid out as ``n_shared`` mean coefficients,
    then ``n_sticks`` stick coordinates of each of n cells, then the n
    concentrations, summed term by term with ``math.fsum``: each coefficient's
    standard normal density, each concentration's logistic Jacobian (its
    Beta(1, 1) prior is flat) and each stick's Beta(1, a) density and
    Jacobian, log a + log gamma + a log(1 - gamma). Each term is <= 0, so a
    sum past the float range is -inf. With K - 1 sticks a cell it is the
    model's prior; with K, the K-fraction layout's."""
    vec = np.asarray(vec, dtype=float)
    shared, cells = vec[:n_shared], vec[n_shared:]
    n = cells.size // (n_sticks + 1)
    raw, conc = cells[:n * n_sticks].reshape(n, n_sticks), cells[n * n_sticks:]
    log_a = log_expit(conc)
    terms = [-0.5 * shared * shared - 0.5 * LOG_2PI, log_a + log_expit(-conc),
             log_a[:, None] + log_expit(raw) + np.exp(log_a)[:, None] * log_expit(-raw)]
    try:
        return math.fsum(np.concatenate([t.ravel() for t in terms]).tolist())
    except OverflowError:
        return -math.inf


def k_fraction_log_prior(vec, n_shared: int, k_n: int) -> float:
    """The log prior at a vector laid out as ``n_shared`` mean coefficients,
    then K stick coordinates of each of n cells, then the n concentrations:
    the model with a K-th stick fraction that enters no weight, Beta(1, a)
    given its cell's concentration a like the others. Summed as that
    model's implementation did: the Jacobians of every coordinate in one
    sum, then K log a + (a - 1) sum log(1 - gamma) for each cell, so a
    Jacobian sum past the float range reads -inf."""
    shared, cells = vec[:n_shared], vec[n_shared:]
    n_sticks = cells.size // (k_n + 1) * k_n
    log_x = log_expit(cells)
    log_1mx = log_x - cells
    a = np.exp(log_x[n_sticks:])
    sum_log_1mg = np.add.accumulate(log_1mx[:n_sticks].reshape(-1, k_n), axis=1)[:, -1:]
    value = (-0.5 * float(shared @ shared) - 0.5 * n_shared * LOG_2PI
             + float(np.add.reduce(log_x + log_1mx))
             + float(k_n * np.add.reduce(log_x[n_sticks:]) + (a - 1.0) @ sum_log_1mg.ravel()))
    return -math.inf if math.isnan(value) else value
