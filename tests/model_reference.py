"""Cell-by-cell references for the model's one-pass kernel and the surface.

The package computes a cell's mixture only inside its vectorized passes;
these functions rebuild it for one cell, and its density with
``np.logaddexp`` rather than the kernel's own ``_log_sum_exp``, so the tests
can compare the two.
"""

import numpy as np

from rlvs.grid import GridData
from rlvs.model import LOG_2PI, MixtureSpec, ModelParams, stick_weights_from_raw


def mixture_logpdf(x, mix: MixtureSpec):
    """Log density of the mixture at x (scalar or array), via log-sum-exp."""
    x = np.asarray(x, dtype=float)
    d = (x[..., None] - mix.means) / mix.scale
    with np.errstate(divide="ignore"):
        log_terms = np.log(mix.weights) - 0.5 * d * d - np.log(mix.scale) - 0.5 * LOG_2PI
    out = np.logaddexp.reduce(log_terms, axis=-1)
    return float(out) if out.ndim == 0 else out


def cell_mixture(params: ModelParams, grid: GridData, i: int, j: int) -> MixtureSpec:
    """The mixture realized in cell (i, j) under the given parameters."""
    mu = (
        params.time_effect[i] * grid.cell_time[i]
        + params.price_effect[j] * grid.cell_logprice[j]
        + params.alpha
    )
    return MixtureSpec(stick_weights_from_raw(params.stick_raw[i, j]),
                       mu, params.component_scale)
