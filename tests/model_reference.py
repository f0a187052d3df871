"""Cell-by-cell and draw-by-draw references for the model's one-pass kernel
and the surface.

The package computes a cell's mixture only inside its vectorized passes;
these functions rebuild it for one cell, and its density with
``np.logaddexp`` rather than the kernel's own ``_log_sum_exp``, so the tests
can compare the two. ``surface_by_draw`` builds the surface one draw at a
time, as ``build_surface`` did before it took the draws in blocks.
"""

import numpy as np

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
