"""The one experiment layer: configs, replicate draws, every CSV report.

Every experiment is a pure function of (config, master seed): replicate i
of grid point j draws from the stream (seed, j * replicates + i), except in
the moment verification, where all replicates of row j come from one
stream (seed, j).  Aggregation happens in index order, and parallelism is
per item only, so the worker count cannot change any output byte.  The one
exception is the sweep's wall-time column, which is measurement, not
simulation; the determinism contract covers every other column.

Replicates run in worker processes that parallel_map forks, at most
os.cpu_count() of them, because the exact flow solves hold the GIL and
threads would take turns on one core.  Items go to the workers in chunks
of consecutive indices, about eight chunks per worker (the size follows
from the item and worker counts), which saves most of the per-item round
trips through the pool.  The start method is named ("fork"), not left to
the platform default, which Python 3.14 moves to "forkserver" on Linux:
forked workers inherit the replicate closures, which could not be
pickled.  Results are collected in item order.  One worker, one item, a
map inside a worker and a platform without fork run serially.  The
worker count is read from config.threads; run_rho_curve and
run_threshold_sweep, which the benchmark calls with a worker count, also
take a `threads` argument that replaces that field on entry, so nested
runs (the sweep's reference curve) see it too.
"""

from __future__ import annotations

import io
import json
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .density import RhoCurve, densest_subgraph_exact, rho_inverse
from .graphs import Bijection, ModelParams, check_sizes, overlap, sample_correlated, sample_er
from .inference import (
    ENUMERATION_N_MAX,
    EstimatorConfig,
    PosteriorTable,
    exact_posterior,
    map_estimator,
    reasonable_candidate_check,
)
from .moments import chain_moment, cycle_moment, sample_chain_orbit_edges, sample_cycle_orbit_edges
from .orbits import OrbitDecomposition
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
    "census_csv",
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
    than ignored, and so are values of the wrong type: ``version`` must be
    the integer 1, ``n``, ``seed``, ``replicates`` and ``threads``
    integers (not bools), ``seed`` in [0, 2**64), ``p``, ``s`` and
    ``alpha`` finite numbers (not bools) or null, the grids JSON arrays
    (kept as tuples, whatever sequence the constructor is given) of
    finite numbers (``theta_grid`` entries with e^theta a float,
    ``k_grid`` entries integers >= 1), and in ``estimator`` ``run_map``
    must be a bool and ``curve_n`` and ``curve_replicates`` integers >= 1,
    while ``eta``, ``c_lambda_hat`` and ``budget`` must have the types and
    ranges that EstimatorConfig.check_range states.

    Each kind reads only the fields that READS lists for it:
    moment-verification seed, replicates, p, s, theta_grid, k_grid and
    threads; rho-curve n, seed, replicates, lambda_grid and threads;
    threshold-sweep n, seed, replicates, alpha, lambda_grid, threads and
    estimator; posterior-study n, seed, replicates, p, s and threads.  Any
    other field must be absent or at its default, so every to_json() output
    still loads, and ``estimator.budget`` needs ``"run_map": true``, since
    only the MAP runs read it."""

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

    READS = {
        "moment-verification": ("seed", "replicates", "p", "s", "theta_grid", "k_grid", "threads"),
        "rho-curve": ("n", "seed", "replicates", "lambda_grid", "threads"),
        "threshold-sweep": ("n", "seed", "replicates", "alpha", "lambda_grid", "threads", "estimator"),
        "posterior-study": ("n", "seed", "replicates", "p", "s", "threads"),
    }
    ESTIMATOR_KEYS = ("curve_n", "curve_replicates", "eta", "c_lambda_hat", "budget", "run_map")

    def __post_init__(self) -> None:
        if not _is_int(self.version) or self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version!r}")
        if self.kind not in self.READS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for key in ("lambda_grid", "theta_grid", "k_grid"):   # a list grid equals its JSON round trip
            object.__setattr__(self, key, tuple(getattr(self, key)))
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
            if not isinstance(value, (int, float)):   # a JSON number or bool, so to_json holds it
                raise ConfigError(f"estimator {key} must be a JSON number or bool, got {value!r}")
            if key == "run_map" and not isinstance(value, bool):
                raise ConfigError(f"estimator run_map must be true or false, got {value!r}")
            if key in ("curve_n", "curve_replicates") and not (_is_int(value) and value >= 1):
                raise ConfigError(f"estimator {key} must be an integer >= 1, got {value!r}")
            if key in ("eta", "c_lambda_hat", "budget"):
                try:
                    EstimatorConfig.check_range(key, value)
                except ValueError as exc:
                    raise ConfigError(f"estimator {exc}") from None
        for f in fields(self):
            default = f.default if f.default_factory is MISSING else f.default_factory()
            if f.name not in ("kind", "version", *self.READS[self.kind]) and getattr(self, f.name) != default:
                raise ConfigError(f"{self.kind} does not read {f.name}; leave it out or at its default")
        if "budget" in self.estimator and self.estimator.get("run_map") is not True:
            raise ConfigError("estimator budget is read only by the MAP runs; set run_map to true or leave it out")

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
            if key in payload and not isinstance(payload[key], list):
                raise ConfigError(f"{key} must be a JSON array, got {payload[key]!r}")
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
    returns or raises must pickle.  The indices go out in chunks of
    ceil(len(items) / (8 * workers)) consecutive ones, computed from the
    counts and not a setting: about eight chunks per worker, so a 100-item
    map on two workers makes 15 round trips instead of 100, while the last
    chunk is small enough not to leave one worker busy alone for long.
    Results come back in item order, and the first item in that order whose
    fn raises passes its exception, type kept, to the caller, as a serial
    map would (a chunk stops at its first failing item, and the chunks are
    read in order); a worker that dies raises BrokenProcessPool.  The pool
    never exceeds os.cpu_count() processes, since more would only take
    turns on the same cores.  The map runs
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
    chunk = -(-len(items) // (8 * workers))
    try:
        _task = (fn, items)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_run_item, range(len(items)), chunksize=chunk))
    finally:
        _task = None
        _pool_lock.release()


class CsvReport:
    """Schema-validated CSV accumulation: every row is checked against the
    declared column types before it is written.  A bool is an int
    subclass, so bools (Python or numpy) are refused in int and float
    columns instead of rendering as True or 0."""

    def __init__(self, columns: tuple[str, ...], types: tuple[type, ...]):
        if len(columns) != len(types):
            raise ValueError("columns and types must align")
        self.columns = columns
        self.types = types
        self._rows: list[tuple] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} fields, got {len(values)}")
        for v, t in zip(values, self.types):
            if t in (int, float) and isinstance(v, (bool, np.bool_)):
                raise TypeError(f"field {v!r} is a bool, not of type {t.__name__}")
            if t is float and isinstance(v, (int, np.integer)):
                continue
            if not isinstance(v, t):
                raise TypeError(f"field {v!r} is not of type {t.__name__}")
        self._rows.append(values)

    def text(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self._rows:
            rendered = []
            for v, t in zip(row, self.types):
                if t is float:
                    rendered.append(f"{float(v):.10g}")
                elif t is bool:
                    rendered.append("true" if v else "false")
                else:
                    rendered.append(str(v))
            buf.write(",".join(rendered) + "\n")
        return buf.getvalue()


# -- moment verification ----------------------------------------------------------


Z_GATE = 4.0   # a Monte Carlo check fails when |z| exceeds this


def z_score(mean: float, exact: float, se: float) -> float:
    """(mean - exact) / se.  A zero stderr gives 0 only when the mean is
    exact and an infinite z otherwise, so a sample too small or too
    degenerate to vary cannot pass a |z| test while it misses."""
    if se > 0:
        return (mean - exact) / se
    return 0.0 if mean == exact else math.copysign(math.inf, mean - exact)


def run_moment_verification(config: ExperimentConfig) -> tuple[str, list[str]]:
    """Closed-form orbit moments against Monte Carlo, one row per
    (class, k, theta); returns (csv, failures).  Each failure names its
    row: one with |z| > Z_GATE, or with a closed form, mean, stderr or z that
    is not finite (past the float range nothing is verified)."""
    if config.p is None or config.s is None:
        raise ConfigError("moment verification needs p and s")
    if config.replicates < 2:
        raise ConfigError("moment verification needs replicates >= 2 for a stderr")
    k_grid = config.k_grid or (1, 2, 3, 4, 6)
    theta_grid = config.theta_grid or (0.5, 1.2)
    size = config.replicates
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
        elif abs(values[-1]) > Z_GATE:
            failures.append(f"{cls} k={k} theta={theta:g}: |z| = {abs(values[-1]):.4g} exceeds {Z_GATE:g}")
    return report.text(), failures


# -- rho curve ----------------------------------------------------------------------


def run_rho_curve(config: ExperimentConfig, threads: int | None = None) -> tuple[str, RhoCurve]:
    """The rho curve over the sorted lambda grid and its CSV, one row per
    grid point.  Draw k = j * replicates + i solves G(n, lambda_j / n) from
    the stream (seed, k) exactly; per grid point, the densities give the
    mean and stderr (0 for one replicate) and the maximizers' size
    fractions (the c_lambda readout) the 5% and 50% quantiles."""
    if threads is not None:
        config = replace(config, threads=threads)
    if not config.lambda_grid:
        raise ConfigError("rho curve needs a lambda grid")
    grid = tuple(sorted(float(v) for v in config.lambda_grid))
    for lam in grid:
        if not 0.0 <= lam <= config.n:
            raise ConfigError(f"lambda {lam} outside [0, n={config.n}]: lambda/n is an edge probability")
    n, reps = config.n, config.replicates

    def draw(k):
        res = densest_subgraph_exact(sample_er(n, grid[k // reps] / n, stream(config.seed, k)))
        return float(res.density), len(res.best_subset) / n

    draws = parallel_map(draw, range(len(grid) * reps), config.threads)
    rho_hat, stderr, q05, q50 = [], [], [], []
    for j in range(len(grid)):
        block = draws[j * reps:(j + 1) * reps]
        densities = np.array([d for d, _ in block])
        fractions = np.array([f for _, f in block])
        rho_hat.append(float(densities.mean()))
        stderr.append(float(densities.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0)
        q05.append(float(np.quantile(fractions, 0.05)))
        q50.append(float(np.quantile(fractions, 0.50)))
    curve = RhoCurve(grid, tuple(rho_hat), tuple(stderr), tuple(q05), tuple(q50), n_used=n, replicates=reps)
    report = CsvReport(
        ("lambda", "n", "replicates", "rho_hat", "stderr", "size_q05", "size_q50"),
        (float, int, int, float, float, float, float),
    )
    for lam, rho, se, lo, mid in zip(grid, rho_hat, stderr, q05, q50):
        report.add_row(lam, n, reps, rho, se, lo, mid)
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
    density levels and the size floor.  It takes the sweep's lambda_grid and
    threads; its n is estimator curve_n (default min(n, 1000)), its
    replicates estimator curve_replicates (default 6) and its seed the
    sweep's plus _SWEEP_CURVE_OFFSET."""
    ref = ExperimentConfig(
        kind="rho-curve",
        n=config.estimator.get("curve_n", min(config.n, 1000)),
        seed=(config.seed + _SWEEP_CURVE_OFFSET) % (1 << 64),
        replicates=config.estimator.get("curve_replicates", 6),
        lambda_grid=config.lambda_grid,
        threads=config.threads,
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
    s_of = [math.sqrt(lam / (n * p)) if lam > 0 else 0.0 for lam in grid]
    for lam, s in zip(grid, s_of):
        if not 0.0 < s <= 1.0:
            raise ConfigError(f"lambda {lam} needs s {'> 1' if s > 1 else '<= 0'} at n={n}, alpha={alpha}")
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
        params = ModelParams(n=n, p=p, s=s_of[j])
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


def run_posterior_study(config: ExperimentConfig) -> str:
    """Exact-posterior replicates at tiny n: posterior mass at the truth,
    the top atom, and their ratio to the uniform baseline."""
    if config.p is None or config.s is None:
        raise ConfigError("posterior study needs p and s")
    if config.n > ENUMERATION_N_MAX:
        raise ConfigError(f"posterior study is exact-enumeration only (n <= {ENUMERATION_N_MAX})")
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
    overlap with the truth.  Each image is one digit (n <= 9), so the
    notations are read off one (n!, 2n - 1) byte buffer of digits and
    spaces."""
    report = CsvReport(
        ("permutation", "log_posterior", "overlap_with_truth"),
        (str, float, int),
    )
    width = 2 * check_sizes(table, truth) - 1
    shifted = table.log_weights - table.log_weights.max()
    log_post = shifted - float(np.log(np.exp(shifted).sum()))
    overlaps = (table.perms == truth.forward).sum(axis=1)
    notation = np.full((len(table.perms), width), ord(" "), dtype=np.uint8)
    notation[:, ::2] = table.perms + ord("0")
    notations = notation.view(f"S{width}").ravel().astype(str).tolist()
    for row in zip(notations, log_post.tolist(), overlaps.tolist()):
        report.add_row(*row)
    return report.text()


def census_csv(decomposition: OrbitDecomposition) -> str:
    """Census export with columns (length, kind, special, count), one row
    per non-zero census entry."""
    report = CsvReport(("length", "kind", "special", "count"), (int, str, bool, int))
    for k, (s_k, l_k, t_k) in decomposition.census.items():
        for kind, special, count in (("cycle", True, s_k), ("cycle", False, l_k), ("chain", False, t_k)):
            if count:
                report.add_row(k, kind, special, count)
    return report.text()
