#!/usr/bin/env python3
"""The corrmatch benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record

Run from a source checkout; corrmatch is imported from its ``src``
directory, never from an installed copy.  Set-up is timed in separate
fresh interpreters and reported as the median; the measured phase runs in
one more fresh interpreter.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass (see README.md).  The line before it is the run
record, which is also written under ``.bench_out/``.  ``--record`` runs
one pass at the workload's default seed and stores its output items as
the reference that later runs at that seed are checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
SETUP_SAMPLES = 3          # set-up is timed this many times per run
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)   # shared by every process


def digest(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def mismatches(items: list[str], expected: list[str], ok: list[bool]) -> int:
    """Expected items that are missing, differ, or fail an invariant, plus
    one for any surplus item; never more than len(expected)."""
    bad = sum(
        1
        for i, want in enumerate(expected)
        if i >= len(items) or items[i] != want or i >= len(ok) or not ok[i]
    )
    return min(len(expected), bad + (len(items) > len(expected)))


# -- child process: set-up, measured passes, verification ---------------------


def import_workloads():
    import corrmatch

    if Path(corrmatch.__file__).resolve().parent != SRC / "corrmatch":
        raise BenchError(f"corrmatch imported from {corrmatch.__file__}, not from {SRC}")
    import workloads

    return workloads


def timed_pass(workload, inputs, workers):
    """(wall s, cpu s, output or the exception raised) of one pass."""
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        out = workload.run(inputs, workers)
    except Exception as exc:   # a failed pass is counted, not fatal
        out = exc
    t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return t1 - t0, cpu, out


def shape(workload) -> dict:
    """The workload's parameters, stored with its reference."""
    return {
        k: v
        for k, v in vars(type(workload)).items()
        if not k.startswith("_") and isinstance(v, (int, float, str, tuple, dict))
    }


def load_reference(workload, seed: int) -> list[str] | None:
    if seed != workload.default_seed:
        return None
    path = REFERENCE / f"{workload.name}.json"
    if not path.is_file():
        raise BenchError(f"no reference at {path}; record one with --record")
    ref = json.loads(path.read_text())
    if ref["shape"] != json.loads(json.dumps(shape(workload))):
        raise BenchError(f"{path} was recorded for other workload parameters; record it again")
    return ref["items"]


def verify(workload, outs, inputs, expected):
    """(attempted, failed, digest of the first good pass) over all passes.

    Without a reference the first pass that ran is the expectation, so a
    later pass that differs from it (a nondeterminism) fails too.
    """
    attempted = failed = 0
    first = None
    for out in outs:
        if isinstance(out, Exception):
            print(f"pass raised {out!r}", file=sys.stderr)
            size = len(expected) if expected else 1
            attempted, failed = attempted + size, failed + size
            continue
        items = workload.items(out, inputs)
        if expected is None:
            expected = items
        if first is None:
            first = digest(items)
        bad = mismatches(items, expected, workload.invariants(out, inputs))
        attempted, failed = attempted + len(expected), failed + bad
    return attempted, failed, first


def measure(workload, inputs, expected, seconds: float) -> dict:
    """Repeat the pass for `seconds` (at least once); report medians."""
    walls, cpus, outs = [], [], []
    deadline = now() + seconds
    while not outs or now() < deadline:
        wall, cpu, out = timed_pass(workload, inputs, workload.workers)
        walls.append(wall)
        cpus.append(cpu)
        outs.append(out)
    attempted, failed, first = verify(workload, outs, inputs, expected)
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": first,
        "pass_walls_s": walls,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(workload, seed: int) -> dict:
    """Set-up under the tracer, an untraced pass, a 1-worker pass when the
    workload has more workers, then one traced pass.  The per-layer
    metrics cover the traced pass and the set-up.

    All outputs are verified against the same expectation, so a 1-worker
    output that differs from the multi-worker one fails.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.installed():
        inputs = workload.setup(seed)
    expected = load_reference(workload, seed)
    wall, cpu, out = timed_pass(workload, inputs, workload.workers)
    outs = [out]
    speedup = 0.0
    if workload.workers > 1:
        wall_1, _, out_1 = timed_pass(workload, inputs, 1)
        outs.append(out_1)
        speedup = wall_1 / wall
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            outs.append(workload.run(inputs, workload.workers))
        except Exception as exc:
            outs.append(exc)
        t1 = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    layers = layer_metrics(tracer.spans, t0, t1)
    layers["harness.cpu_per_wall"] = cpu / wall
    layers["harness.speedup_vs_1worker"] = speedup
    layers["trace.overhead_frac"] = (t1 - t0) / wall
    attempted, failed, first = verify(workload, outs, inputs, expected)
    return {"attempted": attempted, "failed": failed, "digest": first, "passes": len(outs), "layers": layers}


def record(workload, inputs, seed: int) -> dict:
    _, _, out = timed_pass(workload, inputs, workload.workers)
    if isinstance(out, Exception):
        raise BenchError(f"the reference pass raised {out!r}")
    items = workload.items(out, inputs)
    if not all(workload.invariants(out, inputs)) or not items:
        raise BenchError("the reference pass fails its own invariants")
    REFERENCE.mkdir(exist_ok=True)
    payload = {"workload": workload.name, "seed": seed, "shape": shape(workload), "digest": digest(items), "items": items}
    (REFERENCE / f"{workload.name}.json").write_text(json.dumps(payload, indent=1) + "\n")
    return {"attempted": len(items), "failed": 0, "digest": payload["digest"]}


def child(args) -> dict:
    workloads = import_workloads()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    seed = workload.default_seed if args.seed is None else args.seed
    if args.child == "record" and seed != workload.default_seed:
        raise BenchError("references are recorded at the default seed only")
    if args.child == "trace":
        result = {"seed": seed, **trace(workload, seed)}
    else:
        inputs = workload.setup(seed)
        result = {"setup_s": now() - args.spawned_at, "seed": seed}
        if args.child == "measure":
            result.update(measure(workload, inputs, load_reference(workload, seed), args.seconds))
        elif args.child == "record":
            result.update(record(workload, inputs, seed))
    import numpy
    import scipy

    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    return result


# -- parent process ------------------------------------------------------------


def spawn(args, mode: str) -> dict:
    """Run one child interpreter in `mode` and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += ["--child", mode, "--spawned-at", repr(now())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def parent(args) -> tuple[dict, dict]:
    if not (SRC / "corrmatch" / "__init__.py").is_file():
        raise BenchError(f"no corrmatch sources under {SRC}")
    if args.record:
        res = spawn(args, "record")
        return {"correct": True, "attempted": res["attempted"], "failed": 0, "metrics": {}}, res
    if args.trace:
        res = spawn(args, "trace")
        metrics = res.pop("layers")
        from tracer import LAYER_METRICS

        units = dict(LAYER_METRICS)
        metrics = {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}
    else:
        setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(args, "measure")
        setups.append(res["setup_s"])
        res["setup_samples_s"] = setups
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record the default-seed reference")
    ap.add_argument("--child", choices=("setup", "measure", "trace", "record"), help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.child:
            print(json.dumps(child(args)))
            return 0
        result, res = parent(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run_record = {
        "workload": args.workload,
        "seed": res["seed"],
        "trace": args.trace,
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        **res["versions"],
        **{k: v for k, v in res.items() if k not in ("versions", "seed")},
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{res['seed']}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(run_record, indent=1) + "\n")
    print(json.dumps({"record": {k: v for k, v in run_record.items() if k != "result"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
