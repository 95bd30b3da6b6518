import json
import math
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from corrmatch.density import RhoCurve, densest_subgraph_exact
from corrmatch.graphs import ModelParams, sample_correlated, sample_er
from corrmatch.harness import (
    _SWEEP_CURVE_OFFSET,
    _SWEEP_ESTIMATOR_OFFSET,
    ConfigError,
    CsvReport,
    ExperimentConfig,
    acceptance_rates,
    parallel_map,
    posterior_dump_csv,
    run_moment_verification,
    run_posterior_study,
    run_rho_curve,
    run_threshold_sweep,
    sweep_reference_curve,
)
from corrmatch.inference import exact_posterior
from corrmatch.rng import stream


def small_config(kind, **kw):
    return ExperimentConfig(kind=kind, **kw)


# -- config --


def test_config_round_trip_lossless():
    cfg = ExperimentConfig(
        kind="threshold-sweep",
        n=50,
        seed=9,
        replicates=3,
        lambda_grid=(1.0, 2.0),
        estimator={"eta": 0.2},
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    # edge values that are well typed: null p, s = 1, a negative theta and
    # the largest theta whose e^theta is a float
    cfg = ExperimentConfig(
        kind="moment-verification", p=None, s=1, theta_grid=(-5.0, 0, 709.78), k_grid=(1, 6)
    )
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"kind": "rho-curve", "bogus": 1}')
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"kind": "nope"}')
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="rho-curve", replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json('{"kind": "rho-curve", "version": 99}')


def test_config_rejects_unread_keys():
    with pytest.raises(ConfigError, match="admissibility"):
        ExperimentConfig.from_json('{"kind": "rho-curve", "admissibility": {}}')
    for estimator in ({"curve_N": 1000}, {"eta": 0.1, "etaa": 0.2}, ["eta"]):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="threshold-sweep", estimator=estimator)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(json.dumps({"kind": "threshold-sweep", "estimator": estimator}))
    keys = ("curve_n", "curve_replicates", "eta", "c_lambda_hat", "budget")
    cfg = ExperimentConfig(kind="threshold-sweep", estimator={**dict.fromkeys(keys, 1), "run_map": True})
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


# the fields each kind reads, and a well-typed value other than its default
# for every field a config can set
_READS = {
    "moment-verification": {"seed", "replicates", "p", "s", "theta_grid", "k_grid", "threads"},
    "rho-curve": {"n", "seed", "replicates", "lambda_grid", "threads"},
    "threshold-sweep": {"n", "seed", "replicates", "alpha", "lambda_grid", "threads", "estimator"},
    "posterior-study": {"n", "seed", "replicates", "p", "s", "threads"},
}
_SET = {
    "n": 50, "seed": 7, "replicates": 3, "p": 0.3, "s": 0.6, "alpha": 0.5, "lambda_grid": (2.0,),
    "theta_grid": (0.5,), "k_grid": (2,), "threads": 2, "estimator": {"eta": 0.2},
}


@pytest.mark.parametrize("kind, field", [(kind, field) for kind in _READS for field in _SET if field not in _READS[kind]])
def test_config_refuses_a_field_its_kind_does_not_read(kind, field):
    value = _SET[field]
    with pytest.raises(ConfigError, match=f"does not read {field};"):
        ExperimentConfig(kind=kind, **{field: value})
    payload = {"kind": kind, field: list(value) if isinstance(value, tuple) else value}
    with pytest.raises(ConfigError, match=f"does not read {field};"):
        ExperimentConfig.from_json(json.dumps(payload))


@pytest.mark.parametrize("kind", list(_READS))
def test_config_accepts_its_kinds_fields_and_every_default(kind):
    cfg = ExperimentConfig(kind=kind, **{field: _SET[field] for field in _READS[kind]})
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    # a field at its default may be written out, as to_json() does
    full = json.loads(ExperimentConfig(kind=kind).to_json())
    assert set(full) == {"kind", "version", *_SET}
    assert ExperimentConfig.from_json(json.dumps(full)) == ExperimentConfig(kind=kind)


def test_config_takes_a_list_grid_as_its_tuple():
    cfg = ExperimentConfig(kind="rho-curve", lambda_grid=[2.0])
    assert cfg.lambda_grid == (2.0,)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    # an empty list sets nothing, so a kind that does not read the grid takes it
    cfg = ExperimentConfig(kind="moment-verification", p=0.1, s=0.5, lambda_grid=[])
    assert cfg == ExperimentConfig(kind="moment-verification", p=0.1, s=0.5)
    assert ExperimentConfig(kind="moment-verification", theta_grid=[0.5], k_grid=[2]).k_grid == (2,)


def test_config_refuses_a_budget_without_run_map():
    for estimator in ({"budget": 200}, {"budget": 200, "run_map": False}):
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig(kind="threshold-sweep", estimator=estimator)
        with pytest.raises(ConfigError, match="budget"):
            ExperimentConfig.from_json(json.dumps({"kind": "threshold-sweep", "estimator": estimator}))
    cfg = ExperimentConfig(kind="threshold-sweep", estimator={"budget": 200, "run_map": True})
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_sweep_reference_curve_reads_only_the_rho_curve_fields():
    sweep = small_config(
        "threshold-sweep",
        n=60,
        alpha=0.4,
        replicates=5,
        lambda_grid=(3.0, 1.5),
        seed=8,
        threads=2,
        estimator={"curve_n": 40, "curve_replicates": 2, "run_map": True, "budget": 100},
    )
    ref = small_config(
        "rho-curve", n=40, replicates=2, lambda_grid=(3.0, 1.5), seed=8 + _SWEEP_CURVE_OFFSET, threads=2
    )
    assert sweep_reference_curve(sweep) == run_rho_curve(ref)[1]


@pytest.mark.parametrize(
    "key, bad, good",
    [
        ("run_map", ["false", 0, 1, None], [True, False]),
        ("curve_n", [0, -3, 2.0, "100", True, None], [1, 500]),
        ("curve_replicates", [0, 1.5, False], [1, 6]),
        ("budget", [0, 20000.0, "20000", True], [1, 20000]),
        ("eta", [math.nan, math.inf, -math.inf, "0.15", True, None, 0, -1.0], [0.15, 2]),
        ("c_lambda_hat", [math.nan, math.inf, "0.5", False, [0.5], 0, -1, 5], [1, 0.5]),
    ],
)
def test_config_rejects_mistyped_estimator_values(key, bad, good):
    for value in bad:
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(kind="threshold-sweep", estimator={key: value})
    for value in good:
        estimator = {key: value, "run_map": True} if key == "budget" else {key: value}
        cfg = ExperimentConfig(kind="threshold-sweep", estimator=estimator)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    # NaN and Infinity parse as floats from JSON text, and are rejected there too
    if key in ("eta", "c_lambda_hat"):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json('{"kind": "threshold-sweep", "estimator": {"%s": NaN}}' % key)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda_grid", 5),
        ("theta_grid", "0.5"),
        ("k_grid", {"k": 3}),
        ("threads", 1.5),
        ("replicates", True),
        ("n", 100.0),
        ("seed", "3"),
        ("seed", None),
        ("p", "0.3"),
        ("p", [0.3]),
        ("s", True),
        ("s", math.nan),
        ("alpha", "x"),
        ("alpha", math.inf),
        pytest.param("alpha", 10**400, id="alpha-int past float"),
        ("lambda_grid", [True]),
        ("lambda_grid", [2.0, math.inf]),
        ("theta_grid", ["x"]),
        ("theta_grid", [1e6]),
        ("theta_grid", [-math.inf]),
        ("k_grid", [1.5]),
        ("k_grid", [0]),
        ("k_grid", [True]),
    ],
)
def test_config_rejects_mistyped_top_level_values(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_json(json.dumps({"kind": "rho-curve", field: value}))
    if not field.endswith("_grid"):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(kind="rho-curve", **{field: value})


def test_csv_report_schema_validation():
    rep = CsvReport(("a", "b"), (int, float))
    rep.add_row(1, 2.0)
    with pytest.raises(ValueError):
        rep.add_row(1)
    with pytest.raises(TypeError):
        rep.add_row("x", 2.0)
    assert rep.text().splitlines()[0] == "a,b"


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)])
def test_csv_report_refuses_bools_in_numeric_columns(value):
    rep = CsvReport(("a", "b", "c"), (int, float, bool))
    for row in ((value, 1.0, True), (1, value, True)):
        with pytest.raises(TypeError, match="bool"):
            rep.add_row(*row)
    rep.add_row(1, np.int64(2), bool(value))
    assert rep.text() == f"a,b,c\n1,2,{'true' if value else 'false'}\n"


# -- determinism across worker counts, and the worker pool --


def test_rho_curve_byte_identical_across_threads():
    cfg = small_config("rho-curve", n=60, replicates=4, lambda_grid=(1.5, 3.0), seed=5)
    csv1, _ = run_rho_curve(cfg, threads=1)
    csv8, _ = run_rho_curve(cfg, threads=8)
    assert csv1 == csv8


def _rho_curve_oracle(n, replicates, grid, seed):
    """The rho curve by sequential exact solves, replicate i of grid point j
    on stream(seed, j * replicates + i), with numpy block statistics."""
    grid = sorted(grid)
    dens, frac = np.empty((len(grid), replicates)), np.empty((len(grid), replicates))
    for j, lam in enumerate(grid):
        for i in range(replicates):
            res = densest_subgraph_exact(sample_er(n, lam / n, stream(seed, j * replicates + i)))
            dens[j, i], frac[j, i] = float(res.density), len(res.best_subset) / n
    stderr = dens.std(axis=1, ddof=1) / np.sqrt(replicates) if replicates > 1 else np.zeros(len(grid))
    return RhoCurve(
        lambda_grid=tuple(grid),
        rho_hat=tuple(dens.mean(axis=1).tolist()),
        stderr=tuple(stderr.tolist()),
        size_q05=tuple(np.quantile(frac, 0.05, axis=1).tolist()),
        size_q50=tuple(np.quantile(frac, 0.50, axis=1).tolist()),
        n_used=n,
        replicates=replicates,
    )


def test_run_rho_curve_matches_sequential_reference():
    cfg = small_config("rho-curve", n=80, replicates=3, lambda_grid=(3.0, 1.5), seed=21, threads=2)
    assert run_rho_curve(cfg)[1] == _rho_curve_oracle(80, 3, (3.0, 1.5), 21)


@pytest.mark.parametrize("threads", [1, 2])
def test_one_replicate_rho_curve_over_an_unsorted_grid(threads):
    cfg = small_config("rho-curve", n=80, replicates=1, lambda_grid=(4.0, 1.0, 2.5), seed=21, threads=threads)
    csv, curve = run_rho_curve(cfg)
    assert curve == _rho_curve_oracle(80, 1, (4.0, 1.0, 2.5), 21)
    assert curve.lambda_grid == (1.0, 2.5, 4.0) and curve.stderr == (0.0, 0.0, 0.0)
    assert curve.size_q05 == curve.size_q50
    assert [row.split(",")[0] for row in csv.splitlines()[1:]] == ["1", "2.5", "4"]


def test_moment_verification_byte_identical_across_threads():
    cfg = small_config(
        "moment-verification", p=0.3, s=0.6, replicates=5000, k_grid=(1, 2), theta_grid=(0.5,), seed=3
    )
    csv1, failures1 = run_moment_verification(replace(cfg, threads=1))
    csv8, failures8 = run_moment_verification(replace(cfg, threads=8))
    assert csv1 == csv8 and failures1 == failures8


def test_moment_verification_z_scores_reasonable():
    cfg = small_config(
        "moment-verification", p=0.25, s=0.8, replicates=100_000, k_grid=(1, 3), theta_grid=(1.2,), seed=4
    )
    csv, failures = run_moment_verification(cfg)
    lines = csv.strip().splitlines()
    assert lines[0] == "class,k,theta,closed_form,mc_mean,mc_se,z_score"
    assert len(lines) == 1 + 2 * 2
    assert failures == []


def test_sweep_determinism_modulo_wall_time():
    cfg = small_config(
        "threshold-sweep",
        n=150,
        alpha=0.5,
        replicates=2,
        lambda_grid=(2.0, 4.0),
        seed=11,
        estimator={"curve_n": 120, "curve_replicates": 3},
    )
    a = run_threshold_sweep(cfg, threads=1)
    b = run_threshold_sweep(cfg, threads=4)

    def strip_wall(text):
        return [row.rsplit(",", 1)[0] for row in text.splitlines()]

    assert strip_wall(a) == strip_wall(b)
    rates = acceptance_rates(a)
    assert set(rates) == {2.0, 4.0}


@pytest.fixture
def drawn_streams(monkeypatch):
    """The (seed, index) key of every stream a corrmatch module opens."""
    import sys

    import corrmatch.rng

    drawn, real = [], corrmatch.rng.stream

    def spy(seed, index=0):
        drawn.append((seed, index))
        return real(seed, index)

    for name, module in list(sys.modules.items()):
        if name.startswith("corrmatch") and getattr(module, "stream", None) is real:
            monkeypatch.setattr(module, "stream", spy)
    return drawn


def _map_sweep(seed):
    cfg = small_config(
        "threshold-sweep",
        n=60,
        alpha=0.5,
        replicates=2,
        lambda_grid=(2.0, 3.0),
        seed=seed,
        estimator={"curve_n": 60, "curve_replicates": 2, "run_map": True, "budget": 500},
    )
    return run_threshold_sweep(cfg, threads=1)


def test_sweep_draws_each_stream_once(drawn_streams):
    text = _map_sweep(11)
    assert {row.split(",")[3] for row in text.splitlines()[1:]} == {"pi_star", "map"}
    assert len(drawn_streams) == len(set(drawn_streams)) > 4, sorted(drawn_streams)


def test_sweep_at_the_top_seed_wraps_its_derived_seeds(drawn_streams):
    # seed + offset passes 2**64 here: the reference curve and the estimator
    # seeds wrap around the key space instead of leaving it
    top = 2**64 - 1
    text = _map_sweep(top)
    assert {row.split(",")[3] for row in text.splitlines()[1:]} == {"pi_star", "map"}
    assert len(drawn_streams) == len(set(drawn_streams)) > 4, sorted(drawn_streams)
    seeds = {seed for seed, _ in drawn_streams}
    assert {top, _SWEEP_CURVE_OFFSET - 1, _SWEEP_ESTIMATOR_OFFSET - 1} <= seeds, sorted(seeds)


def test_sweeps_at_adjacent_seeds_share_no_stream(drawn_streams):
    # item i's hill climb once used stream(seed + offset + i, 0), which item
    # i - 1 of the run at seed + 1 used as well
    _map_sweep(11)
    _map_sweep(12)
    assert len(drawn_streams) == len(set(drawn_streams)), sorted(drawn_streams)


def test_threads_argument_reaches_the_reference_curve(monkeypatch):
    import corrmatch.harness as harness

    seen, real = [], harness.parallel_map

    def spy(fn, items, threads):
        seen.append(threads)
        return real(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", spy)
    cfg = small_config(
        "threshold-sweep",
        n=60,
        alpha=0.5,
        replicates=1,
        lambda_grid=(2.0,),
        seed=3,
        threads=1,
        estimator={"curve_n": 60, "curve_replicates": 2},
    )
    run_threshold_sweep(cfg, threads=2)
    assert seen == [2, 2]   # the reference curve, then the sweep
    seen.clear()
    run_threshold_sweep(cfg)
    assert seen == [1, 1]


def test_parallel_map_preserves_order():
    got = parallel_map(lambda x: x * x, range(20), threads=4)
    assert got == [x * x for x in range(20)]


def test_parallel_map_caps_threads_at_cpu_count(monkeypatch):
    import corrmatch.harness as harness

    pools = []
    real_pool = harness.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        pools.append(max_workers)
        return real_pool(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert parallel_map(str, range(5), threads=8) == [str(x) for x in range(5)]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    assert parallel_map(str, range(5), threads=8) == [str(x) for x in range(5)]
    assert pools == [2]


def test_parallel_map_sends_chunks_and_keeps_item_order(monkeypatch):
    import corrmatch.harness as harness

    chunks = []
    real_pool = harness.ProcessPoolExecutor

    class RecordingPool(real_pool):
        def map(self, fn, *iterables, chunksize=1):
            chunks.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # ceil(41 / 16) = 3, which does not divide 41
    assert parallel_map(lambda x: (x, x * x), range(41), threads=2) == [(x, x * x) for x in range(41)]
    assert parallel_map(str, range(100), threads=2) == [str(x) for x in range(100)]
    assert chunks == [3, 7]


def test_parallel_map_raises_the_earliest_failing_item_across_chunks(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    def fail(x):
        if x == 4:   # second chunk of 3; slow, so the later failure is met first
            time.sleep(0.2)
            raise KeyError("item 4")
        if x == 30:   # eleventh chunk
            raise ValueError("item 30")
        return x

    for threads in (1, 2):
        with pytest.raises(KeyError, match="item 4") as info:
            parallel_map(fail, range(41), threads=threads)
        assert type(info.value) is KeyError


def test_rho_curve_of_many_chunks_byte_identical_across_workers(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # 45 items go to two workers in 15 chunks of 3
    cfg = small_config("rho-curve", n=60, replicates=15, lambda_grid=(1.5, 3.0, 5.0), seed=9)
    assert run_rho_curve(cfg, threads=1)[0] == run_rho_curve(cfg, threads=2)[0]


def test_parallel_map_runs_two_workers_in_two_processes(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    # neither item can pass the barrier until the other one has reached it
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
    pids = parallel_map(lambda _: (barrier.wait(), os.getpid())[1], range(2), threads=2)
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_parallel_map_nested_in_a_worker_runs_serially(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    def inner(x):
        return parallel_map(lambda y: (x * 10 + y, os.getpid()), range(3), threads=2)

    got = parallel_map(inner, range(4), threads=2)
    assert [[v for v, _ in row] for row in got] == [[x * 10 + y for y in range(3)] for x in range(4)]
    for row in got:
        assert len({pid for _, pid in row}) == 1 and row[0][1] != os.getpid()
    # likewise on a thread of a process whose pool is running
    with harness._pool_lock:
        assert parallel_map(lambda y: (y, os.getpid()), range(3), threads=2) == [(y, os.getpid()) for y in range(3)]


def test_parallel_map_fails_when_a_worker_dies(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    caller = os.getpid()

    def die(x):
        if x == 1 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(BrokenProcessPool):
        parallel_map(die, range(4), threads=2)
    assert parallel_map(str, range(4), threads=2) == ["0", "1", "2", "3"]   # and the next map runs


def test_worker_errors_keep_their_type(monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    real_sample, real_er = harness.sample_correlated, harness.sample_er

    def sample(params, seed, replicate):
        if replicate >= 2:   # the second grid point's replicates
            raise ConfigError("replicate refused")
        return real_sample(params, seed, replicate)

    def draw(n, q, rng):
        if q > 2.5 / n:   # the second grid point's replicates
            raise ValueError("replicate refused")
        return real_er(n, q, rng)

    sweep = small_config(
        "threshold-sweep", n=60, alpha=0.5, replicates=2, lambda_grid=(2.0, 3.0), seed=3,
        estimator={"curve_n": 60, "curve_replicates": 2},
    )
    curve = small_config("rho-curve", n=5, replicates=2, lambda_grid=(2.0, 3.0), seed=3)
    monkeypatch.setattr(harness, "sample_correlated", sample)
    for threads in (1, 2):
        with pytest.raises(ConfigError, match="replicate refused"):
            run_threshold_sweep(sweep, threads=threads)
    monkeypatch.setattr(harness, "sample_er", draw)
    for threads in (1, 2):
        with pytest.raises(ValueError, match="replicate refused") as info:
            run_rho_curve(curve, threads=threads)
        assert type(info.value) is ValueError


# -- posterior study and dump --


def test_posterior_study_csv_and_signal():
    cfg = small_config("posterior-study", n=5, p=0.4, s=0.8, replicates=20, seed=7)
    csv = run_posterior_study(cfg)
    lines = csv.strip().splitlines()
    header = "replicate,n,p,s,posterior_pi_star,max_atom,uniform,ratio_to_uniform"
    assert lines[0] == header
    ratios = [float(r.split(",")[-1]) for r in lines[1:]]
    assert len(ratios) == 20
    # correlated instances should beat the uniform baseline on average
    assert sum(ratios) / len(ratios) > 1.0


def test_posterior_study_byte_identical_across_workers():
    cfg = small_config("posterior-study", n=5, p=0.4, s=0.8, replicates=6, seed=13)
    assert run_posterior_study(replace(cfg, threads=1)) == run_posterior_study(replace(cfg, threads=2))


def test_posterior_study_rejects_large_n():
    with pytest.raises(ConfigError):
        run_posterior_study(small_config("posterior-study", n=10, p=0.4, s=0.8))


def test_posterior_dump_schema():
    params = ModelParams(n=4, p=0.4, s=0.8)
    smpl = sample_correlated(params, seed=1)
    table = exact_posterior(smpl.g, smpl.g_bar, params)
    csv = posterior_dump_csv(table, smpl.pi_star)
    lines = csv.strip().splitlines()
    assert lines[0] == "permutation,log_posterior,overlap_with_truth"
    assert len(lines) == 1 + 24
    # probabilities encoded in log space sum to one
    total = sum(math.exp(float(r.split(",")[1])) for r in lines[1:])
    assert total == pytest.approx(1.0, rel=1e-6)
    # one row carries the truth with full overlap
    assert any(int(r.split(",")[2]) == 4 for r in lines[1:])


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_posterior_dump_matches_a_per_row_rendering(n):
    params = ModelParams(n=n, p=0.5, s=0.8)
    smpl = sample_correlated(params, seed=3)
    table = exact_posterior(smpl.g, smpl.g_bar, params)
    shifted = table.log_weights - table.log_weights.max()
    log_post = shifted - float(np.log(np.exp(shifted).sum()))
    rows = [
        f"{' '.join(str(int(v)) for v in perm)},{float(lp):.10g},{int((perm == smpl.pi_star.forward).sum())}"
        for perm, lp in zip(table.perms, log_post)
    ]
    expected = "permutation,log_posterior,overlap_with_truth\n" + "".join(r + "\n" for r in rows)
    assert posterior_dump_csv(table, smpl.pi_star) == expected


def test_sweep_requires_grid_and_valid_alpha():
    with pytest.raises(ConfigError):
        run_threshold_sweep(small_config("threshold-sweep", n=100))
    with pytest.raises(ConfigError):
        run_threshold_sweep(
            small_config("threshold-sweep", n=100, alpha=1.5, lambda_grid=(2.0,))
        )
