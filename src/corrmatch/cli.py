"""Command-line interface.

Subcommands: sample, orbits, moments-check, density, rho-curve, estimate,
posterior, posterior-study, tv, admissibility, threshold-sweep.

Shared flags go only to the subcommands that read them.  --out (file
path; stdout otherwise) is on every subcommand.  --seed is on sample,
orbits, estimate and tv (default 0) and on the four config subcommands:
moments-check, rho-curve, posterior-study and threshold-sweep.  Only the
config subcommands take --config (JSON experiment config) and --threads
(worker processes, capped at the CPU count; default: the config's threads
field, 1 without a config).  The output bytes do not depend on it.
A --config file replaces the subcommand's own experiment flags (--n,
--lambdas, --replicates, --p, --s, --alpha); --seed and --threads are
applied on top of it.  A config file may set only the fields its kind
reads (ExperimentConfig.READS); any other field must be absent or at its
default.

Exit codes: 0 success, 2 statistical-check failure, 3 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .admissibility import check_admissible, default_constants
from .density import densest_subgraph_exact, rho_inverse
from .graphs import Bijection, Graph, ModelParams, check_sizes, intersection_graph, overlap, sample_correlated
from .harness import (
    PLACEMENT_GRID,
    Z_GATE,
    ConfigError,
    ExperimentConfig,
    _is_int,
    _sweep_alpha,
    acceptance_rates,
    census_csv,
    posterior_dump_csv,
    run_moment_verification,
    run_posterior_study,
    run_rho_curve,
    run_threshold_sweep,
    sweep_grid,
    sweep_reference_curve,
    z_score,
)
from .inference import (
    TV_EXACT_N_MAX,
    EstimatorConfig,
    exact_posterior,
    map_estimator,
    reasonable_candidate_check,
    tv_exact,
    tv_mc,
)
from .orbits import edge_orbits, restricted_orbits
from .rng import stream

EXIT_OK = 0
EXIT_STAT_FAIL = 2
EXIT_CONFIG = 3

BUNDLE_VERSION = 1


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args, kind: str, **defaults) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
        if cfg.kind != kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match subcommand {kind!r}")
    else:
        cfg = ExperimentConfig(kind=kind, **defaults)
    flags = {key: getattr(args, key) for key in ("seed", "threads") if getattr(args, key) is not None}
    return replace(cfg, **flags)   # re-runs the config validation


def _sample_bundle(params: ModelParams, seed: int) -> dict:
    smpl = sample_correlated(params, seed)
    return {
        "version": BUNDLE_VERSION,
        "n": params.n,
        "p": params.p,
        "s": params.s,
        "seed": seed,
        "pi_star": [int(v) for v in smpl.pi_star.forward],
        "g": smpl.g.to_text(),
        "g_bar": smpl.g_bar.to_text(),
    }


def _read_bundle(path: str) -> tuple[ModelParams, Bijection, Graph, Graph]:
    """The (params, pi_star, g, g_bar) of a sample bundle.  Only the JSON
    shape is checked here; each field is read by its package route, which
    refuses a malformed one with ValueError, and every size must be n."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ConfigError("sample bundle must be a JSON object")
    version = payload.get("version")
    if not _is_int(version) or version != BUNDLE_VERSION:
        raise ConfigError(f"unsupported sample bundle version {version!r}")
    missing = [key for key in ("n", "p", "s", "pi_star", "g", "g_bar") if key not in payload]
    if missing:
        raise ConfigError(f"sample bundle lacks the key {missing[0]!r}")
    params = ModelParams(n=payload["n"], p=payload["p"], s=payload["s"])
    pi = Bijection(payload["pi_star"])
    g, g_bar = Graph.from_text(payload["g"]), Graph.from_text(payload["g_bar"])
    check_sizes(params, pi, g, g_bar)
    return params, pi, g, g_bar


def _read_graph(args, from_bundle) -> Graph:
    """The graph a subcommand works on: from_bundle(params, pi_star, g,
    g_bar) of --bundle when given, else the --graph edge-list file."""
    if args.bundle:
        return from_bundle(*_read_bundle(args.bundle))
    if args.graph:
        with open(args.graph) as fh:
            return Graph.from_text(fh.read())
    raise ConfigError(f"{args.command} needs --graph or --bundle")


# -- subcommand handlers -------------------------------------------------------


def _cmd_sample(args) -> int:
    params = ModelParams(n=args.n, p=args.p, s=args.s)
    bundle = _sample_bundle(params, args.seed)
    _emit(json.dumps(bundle, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    params, pi_star, g, g_bar = _read_bundle(args.bundle)
    if args.pi == "star":
        pi = pi_star
    elif args.pi == "identity":
        pi = Bijection.identity(params.n)
    else:
        pi = Bijection.uniform(params.n, stream(args.seed, 1))
    if args.subset is not None:
        subset = {int(v) for v in args.subset.split(",")}
        dec = restricted_orbits(pi_star, pi, subset)
    else:
        dec = edge_orbits(pi_star, pi)
    _emit(census_csv(dec), args.out)
    return EXIT_OK


def _cmd_moments_check(args) -> int:
    cfg = _load_config(args, "moment-verification", p=args.p, s=args.s, replicates=args.replicates)
    csv, failures = run_moment_verification(cfg)
    _emit(csv, args.out)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return EXIT_STAT_FAIL if failures else EXIT_OK


def _cmd_density(args) -> int:
    res = densest_subgraph_exact(_read_graph(args, lambda params, pi_star, g, g_bar: g))
    payload = {
        "density": float(res.density),
        "density_numerator": res.density.numerator,
        "density_denominator": res.density.denominator,
        "subset": list(res.best_subset),
        "edges": res.witness_edges,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_rho_curve(args) -> int:
    grid = tuple(float(v) for v in args.lambdas.split(","))
    cfg = _load_config(
        args, "rho-curve", n=args.n, replicates=args.replicates, lambda_grid=grid
    )
    csv, curve = run_rho_curve(cfg)
    _emit(csv, args.out)
    if args.invert_at is not None:
        est = rho_inverse(args.invert_at, curve)
        print(
            f"lambda* at rho = {args.invert_at}: {est.lambda_star:.4f} "
            f"[{est.lo:.4f}, {est.hi:.4f}]",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    params, pi_star, g, g_bar = _read_bundle(args.bundle)
    cfg = EstimatorConfig(
        rho_hat=args.rho_hat,
        c_lambda_hat=args.c_lambda_hat,
        eta=args.eta,
        budget=args.budget,
        seed=args.seed,
    )
    est = map_estimator(g, g_bar, params, cfg)
    check = reasonable_candidate_check(est.pi, g, g_bar, cfg)
    ov = overlap(est.pi, pi_star)
    payload = {
        "estimator": "map",
        "exhaustive": est.exhaustive,
        "budget_exhausted": est.budget_exhausted,
        "intersection_edges": est.intersection_edges,
        "overlap": ov,
        "overlap_fraction": ov / params.n,
        "reasonable_candidate": check.accepted,
        "pi_hat": [int(v) for v in est.pi.forward],
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_posterior(args) -> int:
    params, pi_star, g, g_bar = _read_bundle(args.bundle)
    table = exact_posterior(g, g_bar, params)
    _emit(posterior_dump_csv(table, pi_star), args.out)
    return EXIT_OK


def _cmd_posterior_study(args) -> int:
    cfg = _load_config(
        args, "posterior-study", n=args.n, p=args.p, s=args.s, replicates=args.replicates
    )
    _emit(run_posterior_study(cfg), args.out)
    return EXIT_OK


def _cmd_tv(args) -> int:
    params = ModelParams(n=args.n, p=args.p, s=args.s)
    est, se = tv_mc(params, args.replicates, args.seed)
    payload = {"mc_estimate": est, "mc_stderr": se}
    z = 0.0
    if params.n <= TV_EXACT_N_MAX:
        exact = tv_exact(params)
        z = z_score(est, exact, se)
        payload["exact"] = exact
        payload["z_score"] = z if math.isfinite(z) else None   # JSON has no infinity
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if abs(z) > Z_GATE:
        print(f"FAIL: |z| = {abs(z):.2f} exceeds {Z_GATE:g}", file=sys.stderr)
        return EXIT_STAT_FAIL
    return EXIT_OK


def _cmd_admissibility(args) -> int:
    h = _read_graph(args, lambda params, pi_star, g, g_bar: intersection_graph(g, g_bar, pi_star))
    consts = default_constants(args.alpha, args.rho_hat, h.n)
    report = check_admissible(h, consts)
    _emit(report.to_json() + "\n", args.out)
    return EXIT_OK


def _cmd_threshold_sweep(args) -> int:
    grid = tuple(float(v) for v in args.lambdas.split(",")) if args.lambdas is not None else ()
    cfg = _load_config(
        args,
        "threshold-sweep",
        n=args.n,
        alpha=args.alpha,
        replicates=args.replicates,
        lambda_grid=grid,
    )
    placed = not cfg.lambda_grid
    if placed:
        alpha = _sweep_alpha(cfg.alpha)   # refused before the reference curve is run
        curve = sweep_reference_curve(replace(cfg, lambda_grid=PLACEMENT_GRID))
        lam_star, grid = sweep_grid(curve, alpha)
        cfg = replace(cfg, lambda_grid=grid)
        print(f"lambda_hat* = {lam_star:.3f}; sweep grid = {grid}", file=sys.stderr)
    sweep = run_threshold_sweep(cfg)
    _emit(sweep, args.out)
    if placed:
        for lam, rate in acceptance_rates(sweep).items():
            print(f"  lambda = {lam:6.3f}: pi* accepted in {rate:.0%} of replicates", file=sys.stderr)
    return EXIT_OK


def _seed(text: str) -> int:
    """The type of every --seed: a stream key, in [0, 2**64)."""
    if not 0 <= int(text) < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} outside [0, 2**64)")
    return int(text)


def _finite(text: str) -> float:
    """The type of --invert-at: a finite float.  nan and inf lie outside
    every rho curve, so they are refused before any draw."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but here 2 means a failed
    statistical check: a malformed command line is a config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corrmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, *, seeded=False, config=False):
        """A subcommand with only the shared flags its handler reads."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        if config:
            sp.add_argument("--config", type=str, default=None, help="experiment config JSON")
            sp.add_argument("--seed", type=_seed, default=None)
            sp.add_argument(
                "--threads", type=int, default=None,
                help="worker processes, at most the CPU count (default: the config's threads, else 1)",
            )
        elif seeded:
            sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--out", type=str, default=None)
        return sp

    sp = add("sample", _cmd_sample, "draw a correlated pair bundle", seeded=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)

    sp = add("orbits", _cmd_orbits, "edge-orbit census CSV", seeded=True)
    sp.add_argument("--bundle", type=str, required=True)
    sp.add_argument("--pi", choices=("star", "identity", "random"), default="star")
    sp.add_argument("--subset", type=str, default=None, help="comma-separated vertex set")

    gate = f"moment check CSV; exit 2 if |z| > {Z_GATE:g} or not finite"
    sp = add("moments-check", _cmd_moments_check, gate, config=True)
    sp.add_argument("--p", type=float, default=0.3)
    sp.add_argument("--s", type=float, default=0.6)
    sp.add_argument("--replicates", type=int, default=200_000)

    sp = add("density", _cmd_density, "exact densest subgraph of a graph")
    sp.add_argument("--graph", type=str, default=None, help="edge-list text file")
    sp.add_argument("--bundle", type=str, default=None)

    sp = add("rho-curve", _cmd_rho_curve, "empirical rho over a lambda grid", config=True)
    sp.add_argument("--lambdas", type=str, default="1,1.5,2,4,8")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--replicates", type=int, default=10)
    sp.add_argument("--invert-at", type=_finite, default=None, help="report rho^{-1}(target)")

    sp = add("estimate", _cmd_estimate, "MAP matching + candidate acceptance", seeded=True)
    sp.add_argument("--bundle", type=str, required=True)
    sp.add_argument("--rho-hat", dest="rho_hat", type=float, default=1.5)
    sp.add_argument("--c-lambda-hat", dest="c_lambda_hat", type=float, default=EstimatorConfig.c_lambda_hat)
    sp.add_argument("--eta", type=float, default=EstimatorConfig.eta)
    sp.add_argument("--budget", type=int, default=EstimatorConfig.budget)

    sp = add("posterior", _cmd_posterior, "exact posterior dump for a small bundle")
    sp.add_argument("--bundle", type=str, required=True)

    sp = add("posterior-study", _cmd_posterior_study, "posterior mass at the truth over replicates", config=True)
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--p", type=float, default=0.4)
    sp.add_argument("--s", type=float, default=0.8)
    sp.add_argument("--replicates", type=int, default=50)

    sp = add("tv", _cmd_tv, f"total variation: Monte Carlo, exact at n <= {TV_EXACT_N_MAX}", seeded=True)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--s", type=float, default=0.8)
    sp.add_argument("--replicates", type=int, default=2000)

    sp = add("admissibility", _cmd_admissibility, "five-condition report as JSON")
    sp.add_argument("--graph", type=str, default=None)
    sp.add_argument("--bundle", type=str, default=None, help="checks H_{pi*} of the bundle")
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--rho-hat", dest="rho_hat", type=float, default=1.4)

    sp = add("threshold-sweep", _cmd_threshold_sweep, "pi*-acceptance across a lambda grid", config=True)
    sp.add_argument("--lambdas", type=str, default=None, help="default: six around lambda_hat*")
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--replicates", type=int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
