"""Experiment orchestration: configs, deterministic replication, CSV reports.

Every experiment is a pure function of (config, master seed): replicate i
of grid point j always draws from the stream (seed, j * replicates + i),
aggregation happens in index order, and parallelism is replicate-level
only, so the worker count cannot change any output byte.  The one
exception is the sweep's wall-time column, which is measurement, not
simulation; the determinism contract covers every other column.

Replicates run in worker processes that parallel_map forks, at most
os.cpu_count() of them, because the exact flow solves hold the GIL and
threads would take turns on one core.  The start method is named
("fork"), not left to the platform default, which Python 3.14 moves to
"forkserver" on Linux: forked workers inherit the replicate closures,
which could not be pickled.  Results are collected in item order.  One
worker, one item, a map inside a worker and a platform without fork run
serially.  The worker count is read from config.threads only; a
`threads` argument to a run_* function replaces that field once, on
entry, so nested runs (the sweep's reference curve) see it too.

run_rho_curve is the one driver of the rho curve, at one lambda or many,
and every report, its CSV included, is written through CsvReport.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .density import RhoCurve, rho_curve_from_draws, rho_draw, rho_inverse
from .graphs import Bijection, ModelParams, overlap, sample_correlated
from .inference import (
    EstimatorConfig,
    PosteriorTable,
    exact_posterior,
    map_estimator,
    reasonable_candidate_check,
)
from .moments import chain_moment, cycle_moment, sample_chain_orbit_edges, sample_cycle_orbit_edges
from .report import CsvReport
from .rng import stream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CsvReport",
    "parallel_map",
    "z_score",
    "run_moment_verification",
    "run_rho_curve",
    "run_threshold_sweep",
    "sweep_grid",
    "run_posterior_study",
    "posterior_dump_csv",
]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


_THETA_MAX = math.log(sys.float_info.max)   # the largest theta whose e^theta is a float


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)   # JSON true is no 1


def _is_finite(value) -> bool:
    """A finite float, or an int (not a bool) inside the float range."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run.  Round-trips losslessly through JSON; unknown
    keys, at the top level and inside ``estimator``, are rejected rather
    than ignored, and so are values of the wrong type: ``n``, ``seed``,
    ``replicates`` and ``threads`` must be integers (not bools), ``seed``
    in [0, 2**64), ``p``, ``s`` and ``alpha`` finite numbers (not bools) or
    null, the grids JSON arrays of finite numbers (``theta_grid`` entries
    with e^theta a float, ``k_grid`` entries integers >= 1), and in
    ``estimator`` ``run_map`` must be a bool, ``curve_n`` and
    ``curve_replicates`` integers >= 1, ``budget`` an integer and ``eta``
    and ``c_lambda_hat`` finite numbers, the last three within the ranges
    that EstimatorConfig.check_range states."""

    kind: str
    n: int = 100
    seed: int = 0
    replicates: int = 1
    p: float | None = None
    s: float | None = None
    alpha: float | None = None
    lambda_grid: tuple[float, ...] = ()
    theta_grid: tuple[float, ...] = ()
    k_grid: tuple[int, ...] = ()
    threads: int = 1
    estimator: dict = field(default_factory=dict)
    version: int = CONFIG_VERSION

    KINDS = (
        "moment-verification",
        "rho-curve",
        "threshold-sweep",
        "posterior-study",
    )
    ESTIMATOR_KEYS = ("curve_n", "curve_replicates", "eta", "c_lambda_hat", "budget", "run_map")

    def __post_init__(self) -> None:
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for key in ("n", "seed", "replicates", "threads"):
            value = getattr(self, key)
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        for key in ("p", "s", "alpha"):
            value = getattr(self, key)
            if value is not None and not _is_finite(value):
                raise ConfigError(f"{key} must be a finite number or null, got {value!r}")
        for key, ok, what in (
            ("lambda_grid", _is_finite, "finite numbers"),
            ("theta_grid", lambda t: _is_finite(t) and t <= _THETA_MAX, "finite numbers with e^theta a float"),
            ("k_grid", lambda k: _is_int(k) and k >= 1, "integers >= 1"),
        ):
            bad = [v for v in getattr(self, key) if not ok(v)]
            if bad:
                raise ConfigError(f"{key} entries must be {what}, got {bad[0]!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed {self.seed} outside [0, 2**64)")
        if self.replicates < 1:
            raise ConfigError("replicate count must be at least 1")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.threads < 1:
            raise ConfigError("thread count must be at least 1")
        if not isinstance(self.estimator, dict):
            raise ConfigError("estimator must be a JSON object")
        unknown = set(self.estimator) - set(self.ESTIMATOR_KEYS)
        if unknown:
            raise ConfigError(f"unknown estimator keys: {sorted(unknown)}")
        for key, value in self.estimator.items():
            if key == "run_map" and not isinstance(value, bool):
                raise ConfigError(f"estimator run_map must be true or false, got {value!r}")
            if key in ("eta", "c_lambda_hat") and not _is_finite(value):
                raise ConfigError(f"estimator {key} must be a finite number, got {value!r}")
            if key == "budget" and not _is_int(value):
                raise ConfigError(f"estimator budget must be an integer, got {value!r}")
            if key in ("curve_n", "curve_replicates") and not (_is_int(value) and value >= 1):
                raise ConfigError(f"estimator {key} must be an integer >= 1, got {value!r}")
            if key in ("eta", "c_lambda_hat", "budget"):
                try:
                    EstimatorConfig.check_range(key, value)
                except ValueError as exc:
                    raise ConfigError(f"estimator {exc}") from None

    def to_json(self) -> str:
        payload = asdict(self)
        for key in ("lambda_grid", "theta_grid", "k_grid"):
            payload[key] = list(payload[key])
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("lambda_grid", "theta_grid", "k_grid"):
            if key in payload:
                if not isinstance(payload[key], list):
                    raise ConfigError(f"{key} must be a JSON array, got {payload[key]!r}")
                payload[key] = tuple(payload[key])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


_task = None   # (fn, items) of the running parallel_map, inherited by its workers
_pool_lock = threading.Lock()   # held while a pool runs, so its forked workers inherit it held


def _run_item(i: int):
    fn, items = _task
    return fn(items[i])


def parallel_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], computed by up to `threads` worker processes;
    the result is the same for any worker count.

    The workers are forked ("fork" is named, not left to the platform
    default, which Python 3.14 moves to "forkserver" on Linux), so they
    inherit fn and items from a module global and only item indices and
    results cross the pipes: fn may be a closure or a lambda, but what it
    returns or raises must pickle.  Results come back in item order, and the
    first item in that order whose fn raises passes its exception, type
    kept, to the caller, as a serial map would; a worker that dies raises
    BrokenProcessPool.  The pool never exceeds os.cpu_count() processes,
    since more would only take turns on the same cores.  The map runs
    serially in the calling process for one worker or at most one item,
    where fork is unavailable, and while another pool of this process is
    running: inside a pool worker (no nested pools) or on a second thread."""
    global _task
    items = list(items)
    workers = min(threads, os.cpu_count() or 1)
    if (
        workers <= 1
        or len(items) <= 1
        or "fork" not in multiprocessing.get_all_start_methods()
        or not _pool_lock.acquire(blocking=False)
    ):
        return [fn(x) for x in items]
    try:
        _task = (fn, items)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_item, range(len(items))))
    finally:
        _task = None
        _pool_lock.release()


# -- moment verification ----------------------------------------------------------


def z_score(mean: float, exact: float, se: float) -> float:
    """(mean - exact) / se.  A zero stderr gives 0 only when the mean is
    exact and an infinite z otherwise, so a sample too small or too
    degenerate to vary cannot pass a |z| test while it misses."""
    if se > 0:
        return (mean - exact) / se
    return 0.0 if mean == exact else math.copysign(math.inf, mean - exact)


def run_moment_verification(config: ExperimentConfig, threads: int | None = None) -> tuple[str, list[str]]:
    """Closed-form orbit moments against Monte Carlo, one row per
    (class, k, theta); returns (csv, failures).  Each failure names its
    row: one with |z| > 4, or with a closed form, mean, stderr or z that
    is not finite (past the float range nothing is verified)."""
    if threads is not None:
        config = replace(config, threads=threads)
    if config.p is None or config.s is None:
        raise ConfigError("moment verification needs p and s")
    k_grid = config.k_grid or (1, 2, 3, 4, 6)
    theta_grid = config.theta_grid or (0.5, 1.2)
    size = max(config.replicates, 2)
    rows = [
        (cls, k, theta)
        for cls in ("cycle", "chain")
        for k in k_grid
        for theta in theta_grid
    ]

    def one(idx_row):
        idx, (cls, k, theta) = idx_row
        rng = stream(config.seed, idx)
        if cls == "cycle":
            closed = cycle_moment(k, theta, config.p, config.s)
            counts = sample_cycle_orbit_edges(k, config.p, config.s, rng, size)
        else:
            closed = chain_moment(k, theta, config.p, config.s)
            counts = sample_chain_orbit_edges(k, config.p, config.s, rng, size)
        with np.errstate(over="ignore", invalid="ignore"):   # inf or nan fails the row below
            xs = np.exp(theta * counts)
            mean = float(xs.mean())
            se = float(xs.std(ddof=1) / math.sqrt(size))
        return cls, k, theta, closed, mean, se, z_score(mean, closed, se)

    results = parallel_map(one, list(enumerate(rows)), config.threads)
    columns = ("class", "k", "theta", "closed_form", "mc_mean", "mc_se", "z_score")
    report = CsvReport(columns, (str, int, float, float, float, float, float))
    failures = []
    for row in results:
        report.add_row(*row)
        cls, k, theta, *values = row
        if not all(math.isfinite(v) for v in values):
            shown = " ".join(f"{name}={v:.10g}" for name, v in zip(columns[3:], values))
            failures.append(f"{cls} k={k} theta={theta:g}: not finite ({shown})")
        elif abs(values[-1]) > 4.0:
            failures.append(f"{cls} k={k} theta={theta:g}: |z| = {abs(values[-1]):.4g} exceeds 4")
    return report.text(), failures


# -- rho curve ----------------------------------------------------------------------


def run_rho_curve(config: ExperimentConfig, threads: int | None = None) -> tuple[str, RhoCurve]:
    """The rho curve over the sorted lambda grid and its CSV, one row per
    grid point: density.rho_draw mapped over the replicates in parallel,
    aggregated by density.rho_curve_from_draws."""
    if threads is not None:
        config = replace(config, threads=threads)
    if not config.lambda_grid:
        raise ConfigError("rho curve needs a lambda grid")
    grid = tuple(sorted(float(v) for v in config.lambda_grid))
    draw = functools.partial(rho_draw, grid, config.n, config.replicates, config.seed)
    draws = parallel_map(draw, range(len(grid) * config.replicates), config.threads)
    curve = rho_curve_from_draws(grid, config.n, config.replicates, draws)
    report = CsvReport(
        ("lambda", "n", "replicates", "rho_hat", "stderr", "size_q05", "size_q50"),
        (float, int, int, float, float, float, float),
    )
    for lam, rho, se, q05, q50 in zip(
        curve.lambda_grid, curve.rho_hat, curve.stderr, curve.size_q05, curve.size_q50
    ):
        report.add_row(lam, curve.n_used, curve.replicates, rho, se, q05, q50)
    return report.text(), curve


# -- threshold sweep ----------------------------------------------------------------


# A sweep at seed s draws its pairs from stream(s, i), its reference curve
# from stream(s + _SWEEP_CURVE_OFFSET, k) and item i's estimator seed from
# one draw of stream(s + _SWEEP_ESTIMATOR_OFFSET, i), sums mod 2**64: no two
# of them share a stream, nor do the estimators of runs at adjacent seeds.
_SWEEP_CURVE_OFFSET = 10_000_000
_SWEEP_ESTIMATOR_OFFSET = 20_000_000
# The hill-climb budget of the sweep's MAP runs (read only with run_map)
# unless the config sets one: below EstimatorConfig's, since the sweep
# runs one climb per (lambda, replicate).
_SWEEP_MAP_BUDGET = 20_000


def sweep_reference_curve(config: ExperimentConfig) -> RhoCurve:
    """Small internal rho curve over the sweep grid, used for the per-lambda
    density levels and the size floor."""
    ref = replace(
        config,
        kind="rho-curve",
        n=int(config.estimator.get("curve_n", min(config.n, 1000))),
        seed=(config.seed + _SWEEP_CURVE_OFFSET) % (1 << 64),
        replicates=int(config.estimator.get("curve_replicates", 6)),
    )
    return run_rho_curve(ref)[1]


PLACEMENT_GRID = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)


def _sweep_alpha(alpha: float | None) -> float:
    alpha = 0.5 if alpha is None else alpha
    if not (0.0 < alpha < 1.0):
        raise ConfigError("sweep alpha must lie in (0, 1)")
    return alpha


def sweep_grid(curve: RhoCurve, alpha: float | None) -> tuple[float, tuple[float, ...]]:
    """(lambda_hat*, grid): lambda_hat* = rho_hat^{-1}(1/alpha) read off the
    curve, and six lambdas evenly spanning [max(1.2, lambda_hat* - 1),
    lambda_hat* + 1.5], rounded to 3 decimals.  alpha None means 1/2."""
    lam_star = rho_inverse(1.0 / _sweep_alpha(alpha), curve).lambda_star
    lo, hi = max(1.2, lam_star - 1.0), lam_star + 1.5
    return lam_star, tuple(round(lo + i * (hi - lo) / 5, 3) for i in range(6))


def run_threshold_sweep(config: ExperimentConfig, threads: int | None = None) -> str:
    """Per (lambda, replicate): draw a correlated pair with p = n^{-alpha}
    and s set by lambda, then test whether the true matching is accepted as
    a reasonable candidate under per-lambda density levels.

    The acceptance constants: rho_hat at each lambda comes from the
    isotonic reference curve; the size floor c_lambda_hat is fixed across
    the grid (default: the 5th-percentile maximizer-size fraction at the
    top grid point), which is what makes the readout sensitive below the
    threshold where maximizers are small.  eta defaults to
    EstimatorConfig's, and the MAP runs' budget to _SWEEP_MAP_BUDGET.
    """
    if threads is not None:
        config = replace(config, threads=threads)
    if not config.lambda_grid:
        raise ConfigError("threshold sweep needs a lambda grid")
    alpha = _sweep_alpha(config.alpha)
    n = config.n
    p = n ** (-alpha)
    grid = sorted(config.lambda_grid)
    curve = sweep_reference_curve(config)
    iso = curve.isotonic()
    eta = float(config.estimator.get("eta", EstimatorConfig.eta))
    c_hat = float(config.estimator.get("c_lambda_hat", curve.size_q05[-1]))
    budget = config.estimator.get("budget", _SWEEP_MAP_BUDGET)
    reps = config.replicates
    run_map = config.estimator.get("run_map", False)

    def one(task):
        j, r = task
        lam = grid[j]
        s = math.sqrt(lam / (n * p))
        if s > 1.0:
            raise ConfigError(f"lambda {lam} needs s > 1 at n={n}, alpha={alpha}")
        params = ModelParams(n=n, p=p, s=s)
        smpl = sample_correlated(params, config.seed, j * reps + r)
        cfg = EstimatorConfig(
            rho_hat=float(np.interp(lam, curve.lambda_grid, iso)),
            c_lambda_hat=c_hat,
            eta=eta,
            budget=budget,
            seed=int(stream((config.seed + _SWEEP_ESTIMATOR_OFFSET) % (1 << 64), j * reps + r).integers(1 << 63)),
        )
        out = []
        t0 = time.perf_counter()
        check = reasonable_candidate_check(smpl.pi_star, smpl.g, smpl.g_bar, cfg)
        out.append((lam, n, r, "pi_star", 1.0, bool(check.accepted), time.perf_counter() - t0))
        if run_map:
            t0 = time.perf_counter()
            est = map_estimator(smpl.g, smpl.g_bar, params, cfg)
            frac = overlap(est.pi, smpl.pi_star) / n
            mcheck = reasonable_candidate_check(est.pi, smpl.g, smpl.g_bar, cfg)
            out.append((lam, n, r, "map", frac, bool(mcheck.accepted), time.perf_counter() - t0))
        return out

    tasks = [(j, r) for j in range(len(grid)) for r in range(reps)]
    results = parallel_map(one, tasks, config.threads)
    report = CsvReport(
        ("lambda", "n", "seed", "estimator", "overlap_fraction", "accepted", "wall_time_s"),
        (float, int, int, str, float, bool, float),
    )
    for rows in results:
        for row in rows:
            if not (0.0 <= row[4] <= 1.0):
                raise ValueError("overlap fraction must lie in [0, 1]")
            report.add_row(*row)
    return report.text()


def acceptance_rates(sweep_csv: str, estimator: str = "pi_star") -> dict[float, float]:
    """Acceptance rate per lambda from a sweep CSV."""
    rows = sweep_csv.strip().splitlines()[1:]
    tally: dict[float, list[int]] = {}
    for row in rows:
        lam_s, _, _, name, _, accepted, _ = row.split(",")
        if name != estimator:
            continue
        tally.setdefault(float(lam_s), []).append(1 if accepted == "true" else 0)
    return {lam: sum(v) / len(v) for lam, v in sorted(tally.items())}


# -- posterior study ------------------------------------------------------------------


def run_posterior_study(config: ExperimentConfig, threads: int | None = None) -> str:
    """Exact-posterior replicates at tiny n: posterior mass at the truth,
    the top atom, and their ratio to the uniform baseline."""
    if threads is not None:
        config = replace(config, threads=threads)
    if config.p is None or config.s is None:
        raise ConfigError("posterior study needs p and s")
    if config.n > 7:
        raise ConfigError("posterior study is exact-enumeration only (n <= 7)")
    params = ModelParams(n=config.n, p=config.p, s=config.s)
    uniform = 1.0 / math.factorial(config.n)

    def one(r):
        smpl = sample_correlated(params, config.seed, r)
        table = exact_posterior(smpl.g, smpl.g_bar, params)
        at_truth = table.probability_of(smpl.pi_star)
        return r, at_truth, float(table.probs.max())

    results = parallel_map(one, range(config.replicates), config.threads)
    report = CsvReport(
        ("replicate", "n", "p", "s", "posterior_pi_star", "max_atom", "uniform", "ratio_to_uniform"),
        (int, int, float, float, float, float, float, float),
    )
    for r, at_truth, top in results:
        report.add_row(r, config.n, config.p, config.s, at_truth, top, uniform, at_truth / uniform)
    return report.text()


def posterior_dump_csv(table: PosteriorTable, truth: Bijection) -> str:
    """One row per matching: one-line notation, log posterior weight,
    overlap with the truth."""
    report = CsvReport(
        ("permutation", "log_posterior", "overlap_with_truth"),
        (str, float, int),
    )
    log_norm = float(np.log(np.exp(table.log_weights - table.log_weights.max()).sum()))
    for row, logw in zip(table.perms, table.log_weights):
        perm_str = " ".join(str(int(v)) for v in row)
        log_post = float(logw - table.log_weights.max() - log_norm)
        ov = int((row == truth.forward.astype(row.dtype)).sum())
        report.add_row(perm_str, log_post, ov)
    return report.text()
