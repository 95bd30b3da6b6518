import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch.cli import main

RUN = lambda argv: main(argv)


def test_sample_then_density_and_orbits(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert RUN(["sample", "--n", "8", "--p", "0.5", "--s", "0.8", "--seed", "3", "--out", str(bundle)]) == 0
    payload = json.loads(bundle.read_text())
    assert payload["n"] == 8 and len(payload["pi_star"]) == 8

    assert RUN(["density", "--bundle", str(bundle)]) == 0
    out = capsys.readouterr().out
    res = json.loads(out)
    assert res["density_denominator"] >= 1

    assert RUN(["orbits", "--bundle", str(bundle), "--pi", "identity"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "length,kind,special,count"

    assert RUN(["orbits", "--bundle", str(bundle), "--pi", "star", "--subset", "0,1,2,3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "length,kind,special,count"


def test_density_from_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert RUN(["density", "--graph", str(path)]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["density_numerator"] == 3 and res["density_denominator"] == 2


def test_malformed_edge_rows_exit_3(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for text in ("3 1\n0\n", "3 1\n0 1 9\n"):
        path.write_text(text)
        assert RUN(["density", "--graph", str(path)]) == 3
        assert "malformed edge row" in capsys.readouterr().err


def test_directory_as_input_path_exits_3(tmp_path, capsys):
    for argv in (
        ["density", "--graph", str(tmp_path)],
        ["admissibility", "--bundle", str(tmp_path)],
        ["posterior-study", "--config", str(tmp_path)],
    ):
        assert RUN(argv) == 3
        assert "config error" in capsys.readouterr().err


def test_density_and_admissibility_need_an_input(capsys):
    assert RUN(["density"]) == 3
    assert RUN(["admissibility"]) == 3
    assert "needs --graph or --bundle" in capsys.readouterr().err


def test_bundle_missing_a_key_exits_3(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert RUN(["sample", "--n", "6", "--p", "0.5", "--s", "0.8", "--seed", "1", "--out", str(bundle)]) == 0
    payload = json.loads(bundle.read_text())
    del payload["p"]
    bundle.write_text(json.dumps(payload))
    assert RUN(["density", "--bundle", str(bundle)]) == 3
    assert "'p'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda b: [b], "config error: sample bundle must be a JSON object"),
        (lambda b: {**b, "n": "8"}, "vertex count must be an integer"),
        (lambda b: {**b, "n": True}, "vertex count must be an integer"),
        (lambda b: {**b, "p": None}, "p must be a number"),
        (lambda b: {**b, "p": "0.3"}, "p must be a number"),
        (lambda b: {**b, "s": True}, "s must be a number"),
        (lambda b: {**b, "g": 5}, "edge list must be a string"),
        (lambda b: {**b, "pi_star": "01234567"}, "vertex ids must be integers"),
        (lambda b: {**b, "pi_star": [True if v == 1 else v for v in b["pi_star"]]}, "vertex ids must be integers"),
        (lambda b: {**b, "n": 9}, "size mismatch: vertex counts"),
        (lambda b: {**b, "version": True}, "unsupported sample bundle version True"),
        (lambda b: {**b, "version": 1.0}, "unsupported sample bundle version 1.0"),
    ],
    ids=[
        "list", "string n", "bool n", "null p", "string p", "bool s", "int g", "string pi_star",
        "bool in pi_star", "n off by one", "bool version", "float version",
    ],
)
def test_malformed_bundle_exits_3(tmp_path, capsys, change, message):
    # the CLI checks the JSON shape; each field is refused by its package route
    bundle = tmp_path / "bundle.json"
    assert RUN(["sample", "--n", "8", "--p", "0.5", "--s", "0.8", "--seed", "2", "--out", str(bundle)]) == 0
    bundle.write_text(json.dumps(change(json.loads(bundle.read_text()))))
    assert RUN(["density", "--bundle", str(bundle)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("lambda_grid", 5), ("threads", 1.5), ("replicates", True), ("version", True), ("version", 1.0)]
)
def test_mistyped_config_value_exits_3(tmp_path, capsys, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rho-curve", "n": 50, "lambda_grid": [2.0], field: value}))
    assert RUN(["rho-curve", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and field in err


# a small valid config for each config subcommand, and the header of its CSV
_VALID_CONFIGS = {
    "moments-check": (
        {"kind": "moment-verification", "seed": 1, "threads": 1, "version": 1,
         "p": 0.3, "s": 0.6, "replicates": 3, "k_grid": [1, 2], "theta_grid": [0.5]},
        "class,k,theta,closed_form,mc_mean,mc_se,z_score",
    ),
    "rho-curve": (
        {"kind": "rho-curve", "seed": 1, "threads": 1, "version": 1,
         "n": 30, "replicates": 2, "lambda_grid": [1.0, 2.0]},
        "lambda,n,replicates,rho_hat,stderr,size_q05,size_q50",
    ),
    "threshold-sweep": (
        {"kind": "threshold-sweep", "seed": 1, "threads": 1, "version": 1,
         "n": 30, "alpha": 0.5, "replicates": 2, "lambda_grid": [1.5, 2.5],
         "estimator": {"curve_n": 30, "curve_replicates": 2, "eta": 0.15, "c_lambda_hat": 0.3,
                       "budget": 200, "run_map": True}},
        "lambda,n,seed,estimator,overlap_fraction,accepted,wall_time_s",
    ),
    "posterior-study": (
        {"kind": "posterior-study", "seed": 1, "threads": 1, "version": 1,
         "n": 4, "p": 0.4, "s": 0.8, "replicates": 2},
        "replicate,n,p,s,posterior_pi_star,max_atom,uniform,ratio_to_uniform",
    ),
}


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("moments-check", "p", "0.3"),
        ("moments-check", "k_grid", [1.5]),
        ("moments-check", "theta_grid", ["x"]),
        ("moments-check", "theta_grid", [1e6]),
        ("threshold-sweep", "alpha", "x"),
        ("posterior-study", "p", [0.3]),
        ("rho-curve", "lambda_grid", [True]),
    ],
)
def test_mistyped_config_value_exits_3_on_every_config_subcommand(tmp_path, capsys, command, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_VALID_CONFIGS[command][0], field: value}))
    assert RUN([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and field in err


@pytest.mark.parametrize("key, value", [("eta", 0), ("eta", -1.0), ("c_lambda_hat", 0), ("c_lambda_hat", -1), ("c_lambda_hat", 5)])
def test_out_of_range_sweep_setting_exits_3_before_any_solve(tmp_path, capsys, monkeypatch, key, value):
    import corrmatch.density as density
    import corrmatch.inference as inference

    solves = []
    for module in (density, inference):
        monkeypatch.setattr(module, "densest_subgraph_exact", lambda h: solves.append(h))
    config = json.loads(json.dumps(_VALID_CONFIGS["threshold-sweep"][0]))
    config["estimator"][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert RUN(["threshold-sweep", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert solves == []


def test_valid_configs_round_trip():
    from corrmatch.harness import ExperimentConfig

    for config, _ in _VALID_CONFIGS.values():
        cfg = ExperimentConfig.from_json(json.dumps(config))
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


# well-typed values, other than the default, of fields that each config
# subcommand's kind does not read
_UNREAD = [
    ("moments-check", "n", 5000),
    ("moments-check", "alpha", 0.5),
    ("moments-check", "lambda_grid", [2.0]),
    ("rho-curve", "alpha", 0.5),
    ("rho-curve", "p", 0.001),
    ("rho-curve", "theta_grid", [0.5]),
    ("rho-curve", "estimator", {"run_map": True}),
    ("threshold-sweep", "p", 0.001),
    ("threshold-sweep", "s", 0.2),
    ("threshold-sweep", "k_grid", [2]),
    ("posterior-study", "alpha", 0.5),
    ("posterior-study", "lambda_grid", [2.0]),
    ("posterior-study", "estimator", {"eta": 0.2}),
]


@pytest.mark.parametrize("command, field, value", _UNREAD)
def test_unread_config_field_exits_3_before_any_draw(tmp_path, capsys, monkeypatch, command, field, value):
    import corrmatch.density as density
    import corrmatch.harness as harness
    import corrmatch.inference as inference

    calls = []
    monkeypatch.setattr(harness, "parallel_map", lambda fn, items, threads: calls.append("map"))
    for module in (density, inference):
        monkeypatch.setattr(module, "densest_subgraph_exact", lambda h: calls.append("solve"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_VALID_CONFIGS[command][0], field: value}))
    assert RUN([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"does not read {field};" in err
    assert calls == []


def test_sweep_budget_without_run_map_exits_3_before_any_solve(tmp_path, capsys, monkeypatch):
    import corrmatch.density as density
    import corrmatch.inference as inference

    solves = []
    for module in (density, inference):
        monkeypatch.setattr(module, "densest_subgraph_exact", lambda h: solves.append(h))
    config = json.loads(json.dumps(_VALID_CONFIGS["threshold-sweep"][0]))
    config["estimator"]["run_map"] = False
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert RUN(["threshold-sweep", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "budget" in err
    assert solves == []


def test_moments_check_with_one_replicate_exits_3(tmp_path, capsys):
    assert RUN(["moments-check", "--replicates", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and "replicates" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_VALID_CONFIGS["moments-check"][0], "replicates": 1}))
    assert RUN(["moments-check", "--config", str(path)]) == 3
    assert "replicates" in capsys.readouterr().err


def _fields(config):
    """Every place one mutation can go: each key, each grid's first entry
    and each estimator key."""
    for key, value in config.items():
        yield (key,)
        if isinstance(value, list) and value:
            yield (key, 0)
        if isinstance(value, dict):
            yield from ((key, inner) for inner in value)


# wrong JSON types, NaN, infinities, a negative value, 0, 1 and an empty grid
_MUTATIONS = ["x", [1], {}, True, None, math.nan, math.inf, -math.inf, -1, -0.5, 0, 1, []]


@settings(max_examples=300)
@given(
    case=st.sampled_from([(command, field) for command, (cfg, _) in _VALID_CONFIGS.items() for field in _fields(cfg)]),
    value=st.sampled_from(_MUTATIONS),
)
def test_mutated_configs_honour_the_exit_codes(tmp_path_factory, case, value):
    command, field = case
    config, header = _VALID_CONFIGS[command]
    config = json.loads(json.dumps(config))
    target = config
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    folder = tmp_path_factory.mktemp("cfg")
    (folder / "cfg.json").write_text(json.dumps(config))
    out = folder / "out.csv"
    code = RUN([command, "--config", str(folder / "cfg.json"), "--out", str(out)])
    assert code in (0, 2, 3), (command, field, value)
    if code == 0:
        assert out.read_text().splitlines()[0] == header, (command, field, value)


def test_moments_check_exit_codes(tmp_path, capsys):
    assert (
        RUN(["moments-check", "--p", "0.3", "--s", "0.6", "--replicates", "20000", "--seed", "2"])
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "class,k,theta,closed_form,mc_mean,mc_se,z_score"


def test_moments_check_exits_2_on_statistical_failure(monkeypatch, capsys):
    import corrmatch.cli as cli

    failure = "cycle k=1 theta=0.5: |z| = 5.3 exceeds 4"
    monkeypatch.setattr(cli, "run_moment_verification", lambda cfg: ("stub\n", [failure]))
    assert RUN(["moments-check"]) == 2
    assert f"FAIL: {failure}" in capsys.readouterr().err


def test_rho_curve_cli(tmp_path, capsys):
    out_path = tmp_path / "rho.csv"
    code = RUN(
        ["rho-curve", "--lambdas", "1.5,3", "--n", "80", "--replicates", "3", "--seed", "4", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,n,replicates,rho_hat,stderr,size_q05,size_q50"
    assert len(lines) == 3


def test_rho_curve_invert_at_reports_inside_and_refuses_outside(capsys):
    from corrmatch.harness import ExperimentConfig, run_rho_curve

    argv = ["rho-curve", "--lambdas", "1,6", "--n", "80", "--replicates", "3", "--seed", "4"]
    _, curve = run_rho_curve(ExperimentConfig(kind="rho-curve", n=80, replicates=3, lambda_grid=(1.0, 6.0), seed=4))
    iso = curve.isotonic().tolist()
    assert iso[0] < iso[-1]
    target = (iso[0] + iso[-1]) / 2
    assert RUN(argv + ["--invert-at", repr(target)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"lambda* at rho = {target}: ")
    lam, lo, hi = (float(v) for v in err.split(": ")[1].replace("[", "").replace("]", "").replace(",", "").split())
    assert lo <= lam <= hi and 1.0 <= lam <= 6.0
    assert RUN(argv + ["--invert-at", repr(iso[-1] + 1.0)]) == 3
    assert "refusing to extrapolate" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "x"])
def test_rho_curve_refuses_a_nonfinite_invert_at_before_any_draw(target, monkeypatch, capsys):
    import corrmatch.harness as harness

    draws = []
    monkeypatch.setattr(harness, "sample_er", lambda *args: draws.append(args))
    with pytest.raises(SystemExit) as info:
        RUN(["rho-curve", "--lambdas", "1,6", "--n", "80", "--replicates", "3", f"--invert-at={target}"])
    assert info.value.code == 3 and draws == []
    out, err = capsys.readouterr()
    assert out == "" and "--invert-at" in err


@pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
def test_placed_sweep_refuses_a_bad_alpha_before_its_reference_curve(capsys, monkeypatch, alpha):
    import corrmatch.cli as cli

    def curve(config):
        raise AssertionError("the reference curve ran")

    monkeypatch.setattr(cli, "sweep_reference_curve", curve)
    assert RUN(["threshold-sweep", "--n", "300", "--alpha", alpha, "--replicates", "1"]) == 3
    assert "sweep alpha must lie in (0, 1)" in capsys.readouterr().err


def test_estimate_and_posterior_cli(tmp_path, capsys):
    bundle = tmp_path / "b.json"
    RUN(["sample", "--n", "6", "--p", "0.5", "--s", "0.9", "--seed", "5", "--out", str(bundle)])
    assert RUN(["estimate", "--bundle", str(bundle), "--rho-hat", "1.0", "--c-lambda-hat", "0.3"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["exhaustive"] is True
    assert 0 <= res["overlap_fraction"] <= 1

    assert RUN(["posterior", "--bundle", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "permutation,log_posterior,overlap_with_truth"
    assert len(out.strip().splitlines()) == 721


def test_tv_cli(capsys):
    assert RUN(["tv", "--n", "4", "--p", "0.5", "--s", "0.8", "--replicates", "800", "--seed", "6"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert "exact" in res and "mc_estimate" in res
    assert abs(res["z_score"]) <= 4


def test_posterior_study_at_the_enumeration_cap_is_worker_independent(tmp_path, monkeypatch):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    argv = ["posterior-study", "--n", "9", "--p", "0.4", "--s", "0.8", "--replicates", "2", "--seed", "5"]
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"study_{threads}.csv"
        assert RUN(argv + ["--threads", threads, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["posterior-study", "--n", "10", "--replicates", "2"],
        ["tv", "--n", "8", "--replicates", "2"],
    ],
    ids=["posterior-study", "tv"],
)
def test_past_the_enumeration_caps_exits_3(capsys, argv):
    assert RUN(argv) == 3
    assert "n <= " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments-check", "--p", "0.1", "--s", "0.5", "--replicates", "2"],
        ["tv", "--n", "3", "--p", "0.05", "--s", "0.5", "--replicates", "2"],
    ],
    ids=["moments-check", "tv"],
)
def test_zero_stderr_off_the_exact_value_fails(capsys, argv):
    # two replicates that come out equal have stderr 0, yet miss the exact value
    assert RUN(argv) == 2
    out, err = capsys.readouterr()
    assert "FAIL" in err
    if argv[0] == "tv":
        res = json.loads(out)
        assert res["mc_stderr"] == 0 and res["mc_estimate"] != res["exact"] and res["z_score"] is None
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        missed = [r for r in rows if float(r[5]) == 0 and float(r[3]) != float(r[4])]
        assert missed and all(abs(float(r[6])) == math.inf for r in missed)


# a seed the CLI takes and an edge-list file it reads: exit 0 when valid,
# else 3, and never a traceback
_EDGE_LISTS = st.integers(2, 50).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]), max_size=12),
    )
)


@settings(max_examples=40)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-(2**70), -1), st.integers(2**64, 2**70)),
    graph=_EDGE_LISTS,
)
def test_seeds_and_edge_lists_honour_the_exit_codes(tmp_path_factory, seed, graph):
    out = tmp_path_factory.mktemp("io")
    try:
        code = RUN(["sample", "--n", "5", "--p", "0.5", "--s", "0.8", "--seed", str(seed), "--out", str(out / "b.json")])
    except SystemExit as exc:   # argparse refuses the seed
        code = exc.code
    assert code == (0 if 0 <= seed < 2**64 else 3), seed
    n, edges = graph
    path = out / "g.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    distinct = len({(min(e), max(e)) for e in edges}) == len(edges)
    assert RUN(["density", "--graph", str(path), "--out", str(out / "d.json")]) == (0 if distinct else 3), edges


# One flag of one subcommand is mutated per example; every other flag keeps
# the small valid value below (n <= 8, 20 replicates, budget 200).
_FLAG_BASE = {
    "sample": {"--n": "8", "--p": "0.5", "--s": "0.8", "--seed": "1"},
    "tv": {"--n": "4", "--p": "0.5", "--s": "0.8", "--replicates": "20", "--seed": "1"},
    "estimate": {"--rho-hat": "1.5", "--c-lambda-hat": "0.3", "--eta": "0.15", "--budget": "200", "--seed": "0"},
    "admissibility": {"--alpha": "0.5", "--rho-hat": "1.4"},
    "orbits": {"--pi": "random", "--subset": "0,1,2", "--seed": "1"},
    "density": {},
}
_INT_VALUES = ["0", "-1", str(2**64)]
_FLAG_VALUES = {
    "--p": ["nan", "inf", "-inf", "-1", "-0.5", "0", "1"],
    # --n and --replicates size arrays: 2**64 of them would ask for a huge allocation
    "--n": ["0", "-1"],
    "--replicates": ["0", "-1"],
    "--budget": _INT_VALUES,
    "--seed": _INT_VALUES,
    "--subset": ["", ",", "0,x", "0,,1", "1.5", "-1", "8", str(2**64)],
    "--graph": ["", "x\n", "3\n", "3 1\n0 0\n", "3 1\n0 5\n", "-1 0\n", "3 2\n0 1\n", "3 1\n0 1\n1 2\n",
                "3 1\n0 1.5\n", "nan 0\n", f"{2**64} 0\n", "3 1\n-1 2\n"],
}
for _flag in ("--s", "--rho-hat", "--c-lambda-hat", "--eta", "--alpha"):
    _FLAG_VALUES[_flag] = _FLAG_VALUES["--p"]
_FLAG_CASES = [
    (command, flag)
    for command, flags in _FLAG_BASE.items()
    for flag in [*flags, *(["--graph"] if command in ("density", "admissibility") else [])]
    if flag in _FLAG_VALUES
]


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "b.json"
    assert RUN(["sample", "--n", "8", "--p", "0.5", "--s", "0.8", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


@settings(max_examples=250)
@given(case=st.sampled_from(_FLAG_CASES), data=st.data())
def test_mutated_flags_honour_the_exit_codes(tmp_path_factory, small_bundle, case, data):
    command, flag = case
    value = data.draw(st.sampled_from(_FLAG_VALUES[flag]), label="value")
    flags = dict(_FLAG_BASE[command])
    if command not in ("sample", "tv") and flag != "--graph":
        flags["--bundle"] = small_bundle
    folder = tmp_path_factory.mktemp("flags")
    if flag == "--graph":
        (folder / "g.txt").write_text(value)
        value = str(folder / "g.txt")
    flags[flag] = value
    argv = [command, *(f"{key}={v}" for key, v in flags.items()), "--out", str(folder / "out")]
    try:
        code = RUN(argv)
    except SystemExit as exc:   # argparse refuses the value
        code = exc.code
    assert code in (0, 2, 3), argv


@pytest.mark.parametrize("flag", ["--rho-hat", "--eta"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_estimator_flags_exit_3(small_bundle, capsys, flag, value):
    assert RUN(["estimate", "--bundle", small_bundle, f"{flag}={value}"]) == 3
    assert "must be finite" in capsys.readouterr().err


def test_moments_check_past_the_float_range_fails_naming_the_row(tmp_path, capsys):
    # at theta = 300 the k >= 3 moments pass the float range: those rows
    # cannot be verified and fail; the k = 1 rows stay finite and pass
    path = tmp_path / "cfg.json"
    config = {"kind": "moment-verification", "p": 0.3, "s": 0.6, "replicates": 2000, "seed": 1, "theta_grid": [300]}
    path.write_text(json.dumps(config))
    assert RUN(["moments-check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "FAIL: cycle k=3 theta=300: not finite" in err and "FAIL: chain k=6 theta=300: not finite" in err
    path.write_text(json.dumps({**config, "k_grid": [1]}))
    assert RUN(["moments-check", "--config", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().err


def test_seed_aliases_are_refused(tmp_path, small_bundle, capsys):
    base = ["sample", "--n", "5", "--p", "0.5", "--s", "0.8", "--out", str(tmp_path / "b.json")]
    assert RUN([*base, "--seed", str(2**64 - 1)]) == 0
    # every --seed is refused where it is parsed, even where no stream is drawn
    # (orbits --pi star, estimate on a bundle small enough for the exhaustive scan)
    seeded = [base, ["orbits", "--bundle", small_bundle], ["estimate", "--bundle", small_bundle], ["tv"]]
    for argv in [*seeded, *([command] for command in _VALID_CONFIGS)]:
        for alias in (2**64, -1):
            code, err = usage_exit([*argv, "--seed", str(alias)], capsys)
            assert code == 3 and f"seed {alias} outside [0, 2**64)" in err, (argv, alias)
    # and so is a config file's seed
    path = tmp_path / "cfg.json"
    for command, (config, _) in _VALID_CONFIGS.items():
        for alias in (2**64, -1):
            path.write_text(json.dumps({**config, "seed": alias}))
            assert RUN([command, "--config", str(path)]) == 3, (command, alias)
            assert f"seed {alias} outside [0, 2**64)" in capsys.readouterr().err


# One field of an n = 7 bundle is mutated per example; n = 7 keeps the
# posterior's exhaustive scan in reach.  Values: wrong JSON types, NaN,
# infinities, huge and negative integers, and some valid alternatives.
_HUGE = [2**63, 2**64, 2**70, -(2**70)]
_BUNDLE_VALUES = {
    "version": ["x", None, True, 1.0, 2, 0, math.nan, *_HUGE],
    "n": ["x", None, [7], True, 7.0, 6, 8, 0, 1, -1, math.nan, math.inf, *_HUGE],
    "p": ["x", None, True, math.nan, math.inf, -math.inf, -1, 0, 1, 0.3, *_HUGE],
    "s": ["x", None, True, math.nan, math.inf, 0, 1, 1.5, 0.5, *_HUGE],
    "pi_star entry": ["x", None, True, [0], 1.5, math.nan, -1, 7, 0, 6, *_HUGE],
    "pi_star length": ["drop", "append 7", "append 0", "empty"],
    "header": ["", "x", "7", "7 x", "x 3", "7 1 2", "nan 3", "-1 3", "8 {m}", "6 {m}", "7 {m1}",
               f"{2**70} {{m}}", f"7 {2**70}", "100000 {m}", "3037000500 {m}"],
    "row": ["", "x", "1", "1 2 3", "0 0", "0 7", "-1 2", "x y", "0 1.5", f"0 {2**70}", "0 6", "5 6", "copy"],
}
_BUNDLE_SITES = [
    *((key, key) for key in ("version", "n", "p", "s")),
    ("pi_star", "pi_star entry"),
    ("pi_star", "pi_star length"),
    *((key, part) for key in ("g", "g_bar") for part in ("header", "row")),
]
# each driven subcommand with the check that its output is well formed
_BUNDLE_COMMANDS = {
    "estimate": lambda text: sorted(json.loads(text)["pi_hat"]) == list(range(7)),
    "posterior": lambda text: text.startswith("permutation,log_posterior,overlap_with_truth\n"),
    "orbits": lambda text: text.startswith("length,kind,special,count\n"),
    "admissibility": lambda text: set(json.loads(text)) == {
        "density_cap", "small_set_density", "max_degree", "local_unicyclicity", "cycle_counts"
    },
    "density": lambda text: set(json.loads(text)) == {
        "density", "density_numerator", "density_denominator", "subset", "edges"
    },
}


@pytest.fixture(scope="module")
def bundle_7(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle7") / "b.json"
    assert RUN(["sample", "--n", "7", "--p", "0.6", "--s", "0.8", "--seed", "5", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _mutate_bundle(bundle, key, part, value, index):
    """bundle with value put at one site; index picks a pi_star entry or
    an edge row."""
    if part == "pi_star length":
        perm = bundle["pi_star"]
        value = {"drop": perm[:-1], "append 7": [*perm, 7], "append 0": [*perm, 0], "empty": []}[value]
    elif part == "pi_star entry":
        value = [*bundle["pi_star"][:index], value, *bundle["pi_star"][index + 1:]]
    elif part in ("header", "row"):
        lines = bundle[key].splitlines()
        m = len(lines) - 1
        if part == "header":
            lines[0] = value.format(m=m, m1=m + 1)
        else:
            k = 1 + index % m
            lines[k] = lines[1 + (k % m)] if value == "copy" else value
        value = "\n".join(lines) + "\n"
    return {**bundle, key: value}


@settings(max_examples=150)
@given(site=st.sampled_from(_BUNDLE_SITES), data=st.data())
def test_mutated_bundles_honour_the_exit_codes(tmp_path_factory, bundle_7, site, data):
    key, part = site
    value = data.draw(st.sampled_from(_BUNDLE_VALUES[part]), label="value")
    index = data.draw(st.integers(0, 6), label="index")
    folder = tmp_path_factory.mktemp("mutated")
    path = folder / "b.json"
    path.write_text(json.dumps(_mutate_bundle(bundle_7, key, part, value, index)))
    for command, well_formed in _BUNDLE_COMMANDS.items():
        out = folder / f"{command}.out"
        code = RUN([command, "--bundle", str(path), "--out", str(out)])
        assert code in (0, 2, 3), (command, site, value)
        if code == 0:
            assert well_formed(out.read_text()), (command, site, value)


@pytest.mark.parametrize("command", list(_BUNDLE_COMMANDS))
def test_pi_star_image_past_int64_exits_3(tmp_path, bundle_7, capsys, command):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({**bundle_7, "pi_star": [2**70, *bundle_7["pi_star"][1:]]}))
    assert RUN([command, "--bundle", str(path)]) == 3
    assert "image out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 2\n0 1\n1 0\n", "duplicate edge"),
        (f"3 1\n0 {2**64}\n", "edge endpoint out of range"),
        ("10000000000 0\n", "vertex count 10000000000 exceeds"),
    ],
    ids=["repeated edge", "endpoint past int64", "pair keys past int64"],
)
def test_malformed_edge_list_is_refused(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert RUN(["density", "--graph", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_admissibility_cli(tmp_path, capsys):
    bundle = tmp_path / "b.json"
    RUN(["sample", "--n", "60", "--p", "0.09", "--s", "0.6", "--seed", "8", "--out", str(bundle)])
    assert RUN(["admissibility", "--bundle", str(bundle), "--alpha", "0.5", "--rho-hat", "1.3"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert set(res) == {
        "density_cap",
        "small_set_density",
        "max_degree",
        "local_unicyclicity",
        "cycle_counts",
    }


def test_threshold_sweep_cli(capsys):
    code = RUN(
        [
            "threshold-sweep",
            "--lambdas",
            "2,4",
            "--n",
            "120",
            "--replicates",
            "2",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lambda,n,seed,estimator,overlap_fraction,accepted,wall_time_s"


def test_threshold_sweep_cli_places_its_grid(capsys):
    assert RUN(["threshold-sweep", "--n", "120", "--replicates", "1", "--seed", "9"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    grid = sorted({float(row.split(",")[0]) for row in rows})
    assert len(rows) == len(grid) == 6
    assert grid[0] >= 1.2 and grid[-1] - grid[0] <= 2.5 + 1e-9
    assert "lambda_hat* = " in captured.err
    assert captured.err.count("pi* accepted in") == 6


def test_config_file_flow(tmp_path, capsys):
    cfg = {
        "kind": "posterior-study",
        "n": 4,
        "p": 0.4,
        "s": 0.8,
        "replicates": 5,
        "seed": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert RUN(["posterior-study", "--config", str(path)]) == 0
    capsys.readouterr()
    # unknown key -> exit 3
    cfg["zzz"] = 1
    path.write_text(json.dumps(cfg))
    assert RUN(["posterior-study", "--config", str(path)]) == 3
    # kind mismatch -> exit 3
    del cfg["zzz"]
    cfg["kind"] = "rho-curve"
    path.write_text(json.dumps(cfg))
    assert RUN(["posterior-study", "--config", str(path)]) == 3


def test_misspelled_estimator_key_exits_3(tmp_path, capsys):
    cfg = {"kind": "threshold-sweep", "n": 120, "lambda_grid": [2.0], "estimator": {"curve_N": 100}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert RUN(["threshold-sweep", "--config", str(path)]) == 3
    assert "curve_N" in capsys.readouterr().err


def test_string_run_map_exits_3(tmp_path, capsys):
    cfg = {"kind": "threshold-sweep", "n": 120, "lambda_grid": [2.0], "estimator": {"run_map": "false"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert RUN(["threshold-sweep", "--config", str(path)]) == 3
    assert "run_map" in capsys.readouterr().err
    cfg["estimator"]["run_map"] = False
    path.write_text(json.dumps(cfg))
    assert RUN(["threshold-sweep", "--config", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.split(",")[3] == "pi_star" for row in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rho-curve", "--n", "5", "--lambdas", "2,8", "--replicates", "2"], "edge probability"),
        (["threshold-sweep", "--n", "60", "--lambdas", "2,10", "--replicates", "2"], "needs s > 1"),
    ],
)
def test_worker_errors_exit_3_with_two_workers(argv, message, monkeypatch, capsys):
    import corrmatch.harness as harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert RUN(argv + ["--threads", "2"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rho-curve", "--n", "5", "--lambdas=-1,2"], "lambda -1.0 outside [0, n=5]"),
        (["threshold-sweep", "--n", "60", "--lambdas", "0,2"], "lambda 0.0 needs s <= 0"),
        (["threshold-sweep", "--n", "60", "--lambdas", "2,10"], "lambda 10.0 needs s > 1"),
    ],
)
def test_out_of_range_lambdas_exit_3_before_any_draw(argv, message, monkeypatch, capsys):
    import corrmatch.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("a draw ran before the grid was checked")

    for name in ("sample_er", "sample_correlated", "sweep_reference_curve"):
        monkeypatch.setattr(harness, name, refuse)
    assert RUN(argv) == 3
    assert message in capsys.readouterr().err


def test_thread_count_reaches_parallel_map(tmp_path, monkeypatch, capsys):
    import corrmatch.harness as harness

    seen, real = [], harness.parallel_map

    def spy(fn, items, threads):
        seen.append(threads)
        return real(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", spy)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rho-curve", "n": 50, "lambda_grid": [2.0], "replicates": 2, "threads": 2}))
    assert RUN(["rho-curve", "--config", str(path)]) == 0
    assert RUN(["rho-curve", "--config", str(path), "--threads", "3"]) == 0
    assert RUN(["rho-curve", "--lambdas", "2", "--n", "50", "--replicates", "2"]) == 0
    capsys.readouterr()
    assert seen == [2, 3, 1]


def test_zero_threads_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "rho-curve", "n": 50, "lambda_grid": [2.0]}))
    for argv in (
        ["rho-curve", "--lambdas", "2", "--n", "50", "--replicates", "2", "--threads", "0"],
        ["rho-curve", "--config", str(path), "--threads", "0"],
    ):
        assert RUN(argv) == 3
        assert "thread count" in capsys.readouterr().err


def test_seed_flag_applies_on_top_of_config(tmp_path, capsys):
    base = {"kind": "rho-curve", "n": 60, "lambda_grid": [1.5, 3.0], "replicates": 2, "seed": 1}
    for name, cfg in (("c1.json", base), ("c7.json", {**base, "seed": 7})):
        (tmp_path / name).write_text(json.dumps(cfg))
    outs = {}
    for key, argv in (
        ("flag", ["--config", str(tmp_path / "c1.json"), "--seed", "7"]),
        ("file", ["--config", str(tmp_path / "c7.json")]),
        ("seed 1", ["--config", str(tmp_path / "c1.json")]),
    ):
        outs[key] = tmp_path / f"{key}.csv"
        assert RUN(["rho-curve", *argv, "--out", str(outs[key])]) == 0
    assert outs["flag"].read_bytes() == outs["file"].read_bytes()
    assert outs["flag"].read_bytes() != outs["seed 1"].read_bytes()


def usage_exit(argv, capsys) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exc:
        RUN(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rho-curve", "--n", "abc"],
        ["sample", "--p", "0.5", "--s", "0.8"],
        ["tv", "--bogus", "1"],
        ["density", "--graph", "g.txt", "--seed", "3"],
    ],
    ids=["non-integer n", "missing required n", "unknown flag", "removed flag"],
)
def test_usage_error_exits_3(capsys, argv):
    code, err = usage_exit(argv, capsys)
    assert code == 3 and "error:" in err


def test_help_exits_0(capsys):
    code, _ = usage_exit(["rho-curve", "--help"], capsys)
    assert code == 0


# Each subcommand's required flags, so that the shared flag under test is
# the only thing argparse refuses.
REQUIRED = {
    "sample": ["--n", "4", "--p", "0.5", "--s", "0.8"],
    "orbits": ["--bundle", "b.json"],
    "estimate": ["--bundle", "b.json"],
    "tv": [],
    "density": ["--graph", "g.txt"],
    "posterior": ["--bundle", "b.json"],
    "admissibility": ["--graph", "g.txt"],
}
UNREAD_FLAGS = [
    (command, flag)
    for command in REQUIRED
    for flag in ("--seed", "--config", "--threads")
    if not (flag == "--seed" and command in ("sample", "orbits", "estimate", "tv"))
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS, ids=[" ".join(c) for c in UNREAD_FLAGS])
def test_shared_flag_a_subcommand_ignores_is_refused(capsys, command, flag):
    code, err = usage_exit([command, *REQUIRED[command], flag, "1"], capsys)
    assert code == 3 and f"unrecognized arguments: {flag} 1" in err


# Options that were removed: argparse refuses them like any unknown flag.
REMOVED_OPTIONS = [("estimate", "--strategy", "hill_climb")]


@pytest.mark.parametrize("command, flag, value", REMOVED_OPTIONS, ids=[" ".join(c) for c in REMOVED_OPTIONS])
def test_removed_option_is_refused(capsys, command, flag, value):
    code, err = usage_exit([command, *REQUIRED[command], flag, value], capsys)
    assert code == 3 and f"unrecognized arguments: {flag} {value}" in err


def test_import_loads_no_test_only_dependency():
    # runtime dependencies are numpy and scipy; networkx, hypothesis and
    # pytest serve the tests only
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, corrmatch, corrmatch.cli; print(sorted({'networkx', 'hypothesis', 'pytest'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrmatch.cli", "tv", "--n", "3", "--p", "0.4", "--s", "0.5", "--replicates", "100"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "mc_estimate" in proc.stdout
