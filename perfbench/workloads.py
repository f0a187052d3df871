"""The benchmark's workloads and the timed user path each one runs.

A pass is one closed loop over the CLI's public stage functions, each stage
starting when the previous one returns:

    cli.run_fit      tick CSV    -> checkpoint   (fit workloads)
    cli.run_surface  checkpoint  -> surface CSV
    cli.run_implied  quote CSV   -> implied curve
    cli.run_compare  surface CSV + quote CSV -> compare CSV

``resurface`` makes its checkpoint with ``cli.run_fit`` before timing starts,
so the model and sampler sit outside its timed path.

Around each timed call, outside its timer, the run times the reference
kernel of ``speed.py``, and every end-to-end time is divided by the machine
factor measured around it (see that module for why).
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from rlvs import cli

import checks
import inputs
from speed import Speed
from tracer import Tracer

N_TIME, N_PRICE, N_COMPONENTS = 78, 10, 5
MIN_PASSES = 2            # byte identity needs a repeat under one seed
SETUP_REPEATS = 3
FIT_REPEATS = 3           # resurface: set-up fits timed for fit_s
IMPORT_REPEATS = 3
MODULES = ("ingest", "grid", "model", "sampler", "surface", "voltools", "cli")


@dataclass(frozen=True)
class Workload:
    name: str
    interval: int         # grid.resample_interval in seconds; 0 fits tick returns
    burn: int
    draws: int
    keep: int             # hmc.keep_last, also surface.n_param_draws
    fit_timed: bool       # False: untimed set-up fits make the checkpoint
    n_quotes: int
    snapshots: tuple
    check_recovery: bool  # criterion 7's band; needs a converged 5-minute fit


# Passes are a few seconds long, so a run takes the median of several.
WORKLOADS = {
    # Paper grid at 5-minute bins: 78 returns over 5,125 coordinates, so the
    # gradient's per-call cost and the sampler's per-iteration work dominate
    # the fit, and the 100 x 100 surface is about a third of the pass.
    "fit-5min": Workload("fit-5min", 300, 50, 70, 30, True, 100, (0.25, 0.75), True),
    # Tick level: 23,400 returns, so the likelihood is nearly all of the pass
    # and the 3-draw surface is small.
    "fit-tick": Workload("fit-tick", 0, 2, 3, 3, True, 100, (0.25, 0.75), False),
    # No HMC in the timed path: 39,000 per-cell streams, checkpoint reading
    # and Newton implied vols over a few hundred quotes.
    "resurface": Workload("resurface", 300, 10, 50, 50, False, 200,
                          (0.25, 0.5, 0.75), False),
}

# Minimal sizes for the smoke test. fit-5min keeps enough iterations for the
# recovery check to hold.
SMOKE = {
    "fit-5min": replace(WORKLOADS["fit-5min"], burn=40, draws=60, keep=20, n_quotes=10),
    "fit-tick": replace(WORKLOADS["fit-tick"], burn=1, draws=2, keep=2, n_quotes=10),
    "resurface": replace(WORKLOADS["resurface"], draws=20, keep=20, n_quotes=20),
}


def config_text(w: Workload) -> str:
    return f"""[synth]
n_ticks = {inputs.N_TICKS}
session_length = {inputs.SESSION_SECONDS}
trading_days = {inputs.TRADING_DAYS}

[grid]
n_time = {N_TIME}
n_price = {N_PRICE}
price_min = {inputs.BAND[0]}
price_max = {inputs.BAND[1]}
resample_interval = {w.interval}
standardize = true

[model]
n_components = {N_COMPONENTS}

[hmc]
n_leapfrog = 20
n_burn = {w.burn}
n_draws = {w.draws}
adapt_step_size = true
keep_last = {w.keep}

[surface]
n_param_draws = {w.keep}
n_returns_per_draw = 100
"""


@dataclass
class Inputs:
    ticks: Path
    quotes: Path
    config: Path
    chain: list
    oracle: float


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    session = inputs.gbm_session(seed)
    chain = inputs.quote_chain(w.n_quotes)
    # Ticks are one second apart, so a bin of w.interval seconds spans as
    # many ticks.
    ins = Inputs(work / "ticks.csv", work / "quotes.csv", work / "workload.ini",
                 chain, session.realized_vol(w.interval))
    inputs.write_ticks(session, ins.ticks)
    inputs.write_quotes(chain, ins.quotes)
    ins.config.write_text(config_text(w))
    return ins


# ---------------------------------------------------------------------------
# Fresh-interpreter set-up
# ---------------------------------------------------------------------------

SETUP_CODE = (
    "import sys\n"
    "import rlvs.cli as cli\n"
    "cfg = cli.load_config(sys.argv[1])\n"
    "cli.apply_master_seed(cfg, int(sys.argv[2]))\n"
)


def _python(root: Path, args: list, flags=()) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, *args], env=env,
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)


def setup_seconds(root: Path, ini: Path, seed: int, speed: Speed) -> tuple[float, float]:
    """Median wall time, undivided and divided by the machine factor, of
    fresh interpreters that import rlvs.cli and resolve the workload's
    config, started one at a time."""
    speed.begin()
    times = [speed.time(lambda: _python(root, [str(ini), str(seed)]))
             for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(t[i] for t in times) for i in (0, 1))


def import_seconds(root: Path, ini: Path, seed: int) -> dict:
    """Median cumulative import time of each rlvs module, from -X importtime."""
    per_module: dict[str, list] = {}
    for _ in range(IMPORT_REPEATS):
        err = _python(root, [str(ini), str(seed)], ("-X", "importtime")).stderr
        for m in re.finditer(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(rlvs(?:\.\w+)?)\s*$",
                             err, re.MULTILINE):
            per_module.setdefault(m.group(2), []).append(int(m.group(1)) * 1e-6)
    out = {}
    for mod in ("rlvs",) + tuple(f"rlvs.{m}" for m in MODULES):
        key = "import." + mod.removeprefix("rlvs.") + "_s"
        out[key] = statistics.median(per_module[mod])
    return out


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------

def _stages(w, cfg, ins, ckpt, out: Path, speed: Speed | None = None) -> dict:
    """One pass of the user path; returns stage times in seconds.

    With ``speed``, the reference kernel runs around each stage and the
    times divided by the machine factor are returned too, under "scaled"."""
    fit_cfg, surf_cfg = copy.deepcopy(cfg), copy.deepcopy(cfg)

    def compare():
        cli.run_implied(ins.quotes, inputs.SPOT, inputs.QUOTE_RATE, 0.0, out / "implied.csv")
        cli.run_compare(out / "surface.csv", ins.quotes, inputs.SPOT, inputs.QUOTE_RATE,
                        0.0, list(w.snapshots), out / "compare.csv")

    stages = {
        "fit_s": (lambda: cli.run_fit(fit_cfg, ins.ticks, ckpt)) if w.fit_timed else None,
        "surface_s": lambda: cli.run_surface(surf_cfg, ckpt, out / "surface.csv", "csv"),
        "compare_s": compare,
    }
    times = {"fit_s": 0.0}
    scaled = {"fit_s": 0.0}
    if speed:
        speed.begin()
    for name, fn in stages.items():
        if fn is None:
            continue
        if speed:
            times[name], scaled[name] = speed.time(fn)
        else:
            t0 = time.perf_counter()
            fn()
            times[name] = time.perf_counter() - t0
    times["wall_s"] = sum(times.values())
    if speed:
        scaled["wall_s"] = sum(scaled.values())
        times["scaled"] = scaled
    return times


def _check(w, ins, ckpt, out: Path) -> tuple[dict, float]:
    """Output checks of one pass; returns output hashes and visited mean vol."""
    cols = checks.check_surface(out / "surface.csv", N_TIME, N_PRICE)
    if w.check_recovery:
        checks.check_recovery(cols, ins.oracle, inputs.SIGMA)
    checks.check_quotes(out / "implied.csv", out / "compare.csv", ins.chain, w.snapshots)
    files = {"checkpoint": ckpt, "surface": out / "surface.csv",
             "implied": out / "implied.csv", "compare": out / "compare.csv"}
    return ({k: checks.sha256(p) for k, p in files.items()},
            checks.visited_mean_vol(cols))


class Run:
    """One benchmark run: set-up, repeated passes, checks and metrics."""

    def __init__(self, root: Path, w: Workload, seed: int, work: Path):
        self.root, self.w, self.seed, self.work = root, w, seed, work
        self.attempted = 0
        self.failed = 0
        self.hashes: dict | None = None
        self.passes: list[dict] = []
        self.visited_vol = float("nan")
        self.ins = make_inputs(w, seed, work)
        self.cfg = cli.load_config(self.ins.config)
        cli.apply_master_seed(self.cfg, seed)
        self.ckpt = work / "checkpoint.json"
        self.speed = Speed()
        self.raw: dict = {}
        self.fit_times: list[tuple] = []
        if not w.fit_timed:
            self._make_checkpoint()

    def _make_checkpoint(self) -> None:
        """resurface's set-up fits; each must write the same checkpoint."""
        digest = None
        self.speed.begin()
        for _ in range(FIT_REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                self.fit_times.append(self.speed.time(lambda: cli.run_fit(
                    copy.deepcopy(self.cfg), self.ins.ticks, self.ckpt)))
            digest = digest or checks.sha256(self.ckpt)
            checks.require(checks.sha256(self.ckpt) == digest,
                           "set-up fits under one seed wrote different checkpoints")
        self.checkpoint_mb = self.ckpt.stat().st_size / 1e6

    def one_pass(self, tracer: Tracer | None = None) -> dict | None:
        """Run, check and hash one pass; a pass that raises counts as failed."""
        self.attempted += 1
        out = self.work / f"pass{self.attempted}"
        out.mkdir()
        ckpt = out / "checkpoint.json" if self.w.fit_timed else self.ckpt
        stages = tracer.wrap("pass", "harness", _stages) if tracer else _stages
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                times = stages(self.w, self.cfg, self.ins, ckpt, out,
                               None if tracer else self.speed)
            hashes, self.visited_vol = _check(self.w, self.ins, ckpt, out)
            if self.hashes is None:
                self.hashes = hashes
            changed = sorted(k for k in hashes if hashes[k] != self.hashes[k])
            checks.require(not changed, f"outputs differ from the first pass under one "
                                        f"seed: {', '.join(changed)}")
        except Exception:  # noqa: BLE001 - the run records the failure and goes on
            self.failed += 1
            print(f"pass {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return None
        if self.w.fit_timed:
            self.checkpoint_mb = ckpt.stat().st_size / 1e6
        self.passes.append(times)
        return times

    def end_to_end(self, seconds: float) -> dict:
        """Passes until the next one would end after ``seconds``, at least
        MIN_PASSES. Times are medians over repeats of the time divided by the
        machine factor around it; ``self.raw`` keeps the undivided medians."""
        self.raw["setup_s"], setup = setup_seconds(self.root, self.ins.config, self.seed,
                                                   self.speed)
        clock = time.perf_counter
        passes_end = clock() + seconds
        while True:
            t0 = clock()
            self.one_pass()
            took = clock() - t0
            if self.attempted >= MIN_PASSES and clock() + took > passes_end:
                break
        if not self.passes:
            return {}
        keys = ("wall_s", "fit_s", "surface_s", "compare_s")
        self.raw.update({k: statistics.median(p[k] for p in self.passes) for k in keys})
        med = {k: statistics.median(p["scaled"][k] for p in self.passes) for k in keys}
        if self.fit_times:
            # resurface reports the set-up fits that made its checkpoint.
            self.raw["fit_s"] = statistics.median(t[0] for t in self.fit_times)
            med["fit_s"] = statistics.median(t[1] for t in self.fit_times)
        self.raw["machine_factor"] = self.speed.factor()
        return {
            "setup_s": setup,
            **med,
            "checkpoint_mb": self.checkpoint_mb,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }

    def per_layer(self, spans_path: Path) -> dict:
        """One untraced pass, then one traced pass; metrics from the trace."""
        imports = import_seconds(self.root, self.ins.config, self.seed)
        untraced = self.one_pass()
        tracer = Tracer()
        tracer.install({m: importlib.import_module(f"rlvs.{m}") for m in MODULES})
        try:
            traced = self.one_pass(tracer)
        finally:
            tracer.uninstall()
        if untraced is None or traced is None:
            return {}
        tracer.write(spans_path)
        return {**layer_metrics(tracer, self.w, self.ins.oracle, self.visited_vol),
                **imports,
                "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
                "trace.untraced_wall_s": untraced["wall_s"]}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def ess_min(draws: np.ndarray) -> float:
    """Lowest effective sample size over the columns of ``draws`` (n, d).

    Geyer's initial positive sequence on FFT autocorrelations, computed here
    so the figure does not depend on the program's own estimator.
    """
    n = draws.shape[0]
    if n < 4:
        return float(n)
    x = draws - draws.mean(axis=0)
    f = np.fft.rfft(x, 2 * n, axis=0)
    acov = np.fft.irfft(f * np.conj(f), axis=0)[:n] / n
    var = acov[0]
    rho = acov / np.where(var > 0, var, 1.0)
    lag = np.arange(1, n - 1, 2)
    pairs = rho[lag] + rho[lag + 1]
    positive = np.cumprod(pairs > 0, axis=0).astype(bool)
    ess = n / (1.0 + 2.0 * np.sum(pairs * positive, axis=0))
    ess = np.where(var > 0, ess, n)
    return float(np.clip(ess, 1.0, n).min())


def layer_metrics(tracer: Tracer, w: Workload, oracle: float, visited_vol: float) -> dict:
    names, layers = tracer.summary()

    def calls(n):
        return names.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return names.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return names.get(n, (0, 0.0, 0.0))[2]

    m = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in MODULES}
    m["trace.harness_s"] = layers.get("harness", 0.0)
    m["trace.wall_s"] = total("pass")
    m["trace.spans"] = len(tracer.spans)

    m["ingest.load_ticks_s"] = total("ingest.load_ticks")
    m["ingest.resample_s"] = total("ingest.resample")

    grid = tracer.kept["grid.GridData.from_dict"][1]
    n_obs = grid.n_observations()
    m["grid.build_grid_s"] = total("grid.build_grid")
    m["grid.standardize_s"] = total("grid.standardize_returns")
    m["grid.from_dict_s"] = total("grid.GridData.from_dict")
    m["grid.n_obs"] = n_obs
    m["grid.visited_cells"] = int(grid.mask.sum())

    g_calls, g_s = calls("model.Posterior.grad"), total("model.Posterior.grad")
    n_coords = tracer.kept["model.Posterior.grad"][0][1].size if g_calls else 0
    m["model.grad_calls"] = g_calls
    m["model.grad_s"] = g_s
    m["model.grad_ms"] = 1e3 * g_s / g_calls if g_calls else 0.0
    m["model.logp_calls"] = calls("model.Posterior.logp")
    m["model.logp_s"] = total("model.Posterior.logp")
    m["model.n_coords"] = n_coords
    # Computed, not measured: per call the gradient reads the observations
    # (values and two index arrays) and the coordinates, writes the gradient,
    # and writes then reads two (N, K) float64 arrays (log terms and
    # responsibilities).
    per_call = 8 * (4 * n_obs * N_COMPONENTS + 3 * n_obs + 2 * n_coords)
    m["model.grad_mb_computed"] = g_calls * per_call / 1e6

    run_chain = tracer.kept.get("sampler.run_chain")
    chain_s = total("sampler.run_chain")
    m["sampler.self_s"] = layers.get("sampler", 0.0)
    if run_chain is None:
        for k in ("iterations", "iter_per_s", "grad_per_iter", "accept_rate",
                  "divergent_frac", "step_size", "ess_min", "ess_per_s"):
            m[f"sampler.{k}"] = 0.0
    else:
        chain = run_chain[1]
        iters = int(chain.accept_flags.size)
        n_shared = (N_TIME + N_PRICE + 1) * N_COMPONENTS
        ess = ess_min(np.asarray(chain.draws)[:, :n_shared])
        m["sampler.iterations"] = iters
        m["sampler.iter_per_s"] = iters / chain_s
        m["sampler.grad_per_iter"] = g_calls / iters
        m["sampler.accept_rate"] = float(np.mean(chain.accept_flags[chain.n_burn:]))
        m["sampler.divergent_frac"] = float(np.mean(chain.divergent))
        m["sampler.step_size"] = float(chain.step_size_used)
        m["sampler.ess_min"] = ess
        m["sampler.ess_per_s"] = ess / chain_s

    cell_draws = w.keep * N_TIME * N_PRICE
    m["surface.build_s"] = total("surface.build_surface")
    m["surface.cell_draws"] = cell_draws
    m["surface.us_per_cell_draw"] = 1e6 * m["surface.build_s"] / cell_draws
    m["surface.export_s"] = total("surface.export_surface")
    m["surface.vol_err"] = abs(visited_vol - oracle) / oracle

    m["cli.fit_self_s"] = own("cli.run_fit")
    m["cli.surface_self_s"] = own("cli.run_surface")
    m["cli.checkpoint_read_s"] = total("cli.load_checkpoint")

    iv_calls, iv_s = calls("voltools.implied_vol"), total("voltools.implied_vol")
    m["voltools.implied_calls"] = iv_calls
    m["voltools.implied_s"] = iv_s
    m["voltools.implied_ms"] = 1e3 * iv_s / iv_calls if iv_calls else 0.0
    return m
