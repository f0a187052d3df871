"""Realized local volatility surfaces from high-frequency tick data.

Pipeline: ingest ticks -> time-price grid with presence mask -> per-cell
stick-breaking Gaussian mixture fitted by HMC -> annualized volatility
surface with credible intervals, including counterfactual (unvisited)
cells. Black-Scholes / implied-vol / local-vol comparison tools included.
"""

from .ingest import (
    SESSION_SECONDS,
    TickSeries,
    load_ticks,
    normalize_time,
    resample,
    save_ticks,
    synth_gbm_ticks,
)
from .grid import (
    GridData,
    GridSpec,
    assign_cell,
    build_grid,
    standardize_returns,
)
from .model import (
    MixtureSpec,
    ModelDims,
    ModelParams,
    Posterior,
    component_means,
    log_posterior,
    mixture_moments,
    stick_break,
)
from .sampler import (
    Chain,
    HmcConfig,
    diagnostics,
    effective_sample_size,
    hmc_step,
    kinetic,
    leapfrog,
    run_chain,
)
from .surface import (
    SurfaceConfig,
    VolSurface,
    annualize,
    build_surface,
    credible_interval,
    export_surface,
    load_surface,
)
from .voltools import (
    CallGrid,
    ImpliedCurve,
    OptionQuote,
    bs_price,
    dupire_local_vol,
    implied_curve,
    implied_vol,
)

__version__ = "0.1.0"
