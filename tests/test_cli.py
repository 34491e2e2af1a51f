import argparse
import csv
import io
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import codedmatvec.cli as cli
import codedmatvec.coding as coding
from codedmatvec import (
    ClusterParams,
    ConfigError,
    RngStream,
    encode_systematic_mds,
    parse_config,
    recovery_error,
)
from codedmatvec.cli import main
from codedmatvec.config import RunConfig

EXAMPLE_FLAGS = ["--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
                 "--t1cmm", "0.12"]
INJECT = "0.1138,0.2725,0.6458,0.7033,5.5538"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_empty_file_with_example_flags():
    cfg = parse_config("", {"n": "5", "k": "3", "r": "5", "a": "1", "mu": "1",
                            "t1cmm": "0.12"})
    assert (cfg.n, cfg.k, cfg.r) == (5, 3, 5)
    assert cfg.a == 1.0 and cfg.mu == 1.0
    # coded per-worker transmission time (r/k) * t1cmm = 0.2
    assert (cfg.r / cfg.k) * cfg.t1cmm == pytest.approx(0.2, rel=1e-15)
    assert cfg.seed == 0 and cfg.trials == 10_000 and cfg.m == 5


def test_parse_constraint_violation_names_key():
    with pytest.raises(ConfigError, match="k"):
        parse_config("", {"n": "5", "k": "0"})
    with pytest.raises(ConfigError, match="k"):
        parse_config("n = 5\nk = 9\n", {})
    with pytest.raises(ConfigError, match="mu"):
        parse_config("mu = 0\n", {})


def test_parse_flag_overrides_file():
    cfg = parse_config("n = 10\nseed = 3\n", {"n": "20"})
    assert cfg.n == 20
    assert cfg.seed == 3


def test_parse_rejects_unknown_keys_and_junk():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus = 1\n", {})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("", {"bogus": "1"})
    with pytest.raises(ConfigError):
        parse_config("just some words\n", {})
    with pytest.raises(ConfigError, match="n"):
        parse_config("n = soon\n", {})


def test_parse_comments_lists_and_dashed_keys():
    text = """
    # experiment ladder
    ns = 100, 200, 400   # inline comment
    k-fraction = 0.7
    inject = 0.1,0.2
    scheme = uncoded
    """
    cfg = parse_config(text, {})
    assert cfg.ns == (100, 200, 400)
    assert cfg.k_fraction == 0.7
    assert cfg.inject == (0.1, 0.2)
    assert cfg.scheme == "uncoded"


# the least integer that float() cannot convert
FLOAT_OVERFLOW = 2**1024 - 2**970

# one invalid value per key and its exact message; `out` takes any text
INVALID_VALUES = [
    ("n = 0", "n: must be >= 1, got 0"),
    ("n = soon", "n: expected an integer, got 'soon'"),
    ("k = 0", "k: must be >= 1, got 0"),
    ("n = 5\nk = 9", "k: must satisfy k <= n, got k=9, n=5"),
    ("r = 0", "r: must be >= 1, got 0"),
    ("m = 0", "m: must be >= 1, got 0"),
    ("trials = 0", "trials: must be >= 1, got 0"),
    ("trials = 1.5", "trials: expected an integer, got '1.5'"),
    ("seed = -1", "seed: must lie in [0, 2^64), got -1"),
    ("seed = 18446744073709551616", "seed: must lie in [0, 2^64), got 18446744073709551616"),
    ("a = -1", "a: must be >= 0, got -1.0"),
    ("a = nan", "a: must be >= 0, got nan"),
    ("a = inf", "a: must be finite, got inf"),
    ("mu = 0", "mu: must be > 0, got 0.0"),
    ("mu = x", "mu: expected a number, got 'x'"),
    ("mu = inf", "mu: must be finite, got inf"),
    ("t1cmm = -1", "t1cmm: must be >= 0, got -1.0"),
    ("t1cmm = inf", "t1cmm: must be finite, got inf"),
    ("beta = -1", "beta: must be >= 0, got -1.0"),
    ("beta = inf", "beta: must be finite, got inf"),
    ("c = 0", "c: must be > 0, got 0.0"),
    ("c = inf", "c: must be finite, got inf"),
    ("k_fraction = 0", "k_fraction: must lie in (0, 1], got 0.0"),
    ("k-fraction = 1.5", "k_fraction: must lie in (0, 1], got 1.5"),
    ("scheme = bogus", "scheme: must be one of coded/uncoded/systematic/random, got 'bogus'"),
    ("format = xml", "format: must be one of csv/text, got 'xml'"),
    ("inject = 0.1,nan", "inject: times must be >= 0"),
    ("inject = 0.1,inf", "inject: must be finite, got inf"),
    ("inject = 0.1,-1", "inject: times must be >= 0"),
    ("inject = 0.1,x", "inject: expected a number, got 'x'"),
    ("inject = ,", "inject: expected a comma-separated list of numbers"),
    ("ns = 0,5", "ns: every entry must be >= 1"),
    ("ns = 1,x", "ns: expected an integer, got 'x'"),
    ("ns =", "ns: expected a comma-separated list of integers"),
    (f"r = {FLOAT_OVERFLOW}", f"r: must be finite, got {FLOAT_OVERFLOW}"),
    (f"ns = 5,{FLOAT_OVERFLOW}", f"ns: must be finite, got {FLOAT_OVERFLOW}"),
    # two keys out of bound: the first in RunConfig's field order is named
    ("a = -1\nm = 0", "m: must be >= 1, got 0"),
    ("ns = 0,1\nformat = xml", "format: must be one of csv/text, got 'xml'"),
    ("k_fraction = 2\ntrials = 0", "trials: must be >= 1, got 0"),
]


@pytest.mark.parametrize("text, message", INVALID_VALUES,
                         ids=[text.replace("\n", "; ") for text, _ in INVALID_VALUES])
def test_parse_invalid_value_exact_message(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text, {})
    assert str(info.value) == message


def test_parse_accepts_the_largest_integer_float_converts():
    cfg = parse_config(f"r = {FLOAT_OVERFLOW - 1}\nns = {FLOAT_OVERFLOW - 1}", {})
    assert cfg.r == FLOAT_OVERFLOW - 1 and cfg.ns == (FLOAT_OVERFLOW - 1,)


@pytest.mark.parametrize("overrides, message", [
    ({"n": "0"}, "n: must be >= 1, got 0"),
    ({"a": "nan"}, "a: must be >= 0, got nan"),
    ({"ns": "0,5"}, "ns: every entry must be >= 1"),
    ({"inject": "-1"}, "inject: times must be >= 0"),
    ({"format": "xml"}, "format: must be one of csv/text, got 'xml'"),
    # a typed value used to skip the cast: n = 3.5 came back as RunConfig(n=3.5)
    ({"n": 3.5}, "n: expected a string, got 3.5"),
    ({"trials": True}, "trials: expected a string, got True"),
], ids=["n", "a", "ns", "inject", "format", "float", "bool"])
def test_parse_typed_override_exact_message(overrides, message):
    with pytest.raises(ConfigError) as info:
        parse_config("", overrides)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_simulate_injected_golden(capsys):
    rc = main(["simulate", *EXAMPLE_FLAGS, "--inject", INJECT])
    assert rc == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert float(rows[-1]["comm_end"]) == pytest.approx(2.512466667, abs=1e-9)
    # strict reader: no ragged rows, exact header
    assert out.splitlines()[0] == "rank,comp_finish,comm_start,comm_end"
    # times carry exactly 9 decimals
    for row in rows:
        for key in ("comp_finish", "comm_start", "comm_end"):
            assert len(row[key].split(".")[1]) == 9


def test_simulate_text_format(capsys):
    rc = main(["simulate", *EXAMPLE_FLAGS, "--inject", INJECT, "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hit_lower_bound=true" in out
    assert "needed=3" in out
    assert "t_total=2.51246667" in out


def test_simulate_validation_error_exit_code(capsys):
    rc = main(["simulate", "--n", "5", "--k", "0", "--r", "5", "--a", "1",
               "--mu", "1", "--t1cmm", "0.1"])
    assert rc == 1
    assert "k" in capsys.readouterr().err


def test_simulate_missing_key_exit_code(capsys):
    rc = main(["simulate", "--n", "5", "--k", "3", "--r", "6", "--a", "1",
               "--mu", "1"])
    assert rc == 1
    assert "t1cmm" in capsys.readouterr().err


@pytest.mark.parametrize("cluster", [
    ["--n", "7", "--k", "3", "--r", "9"],
    ["--n", "100", "--k", "70", "--r", "690"],
], ids=["n7-r9", "n100-r690"])
def test_uncoded_run_takes_a_fractional_load(cluster, capsys):
    # the uncoded run is the (n, n) code, whose n need not divide r
    assert main(["montecarlo", "--scheme", "uncoded", *cluster, "--a", "1", "--mu", "1",
                 "--t1cmm", "0.01", "--trials", "10"]) == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["trials"] == "10" and float(got["mean"]) > 0


def test_optimize_k_star_runs_in_montecarlo(capsys):
    # the unrestricted optimum k*=69 does not divide r=700, and a run takes it
    flags = ["--n", "100", "--r", "700", "--a", "1", "--mu", "1", "--t1cmm", "0.001"]
    assert main(["optimize-k", *flags]) == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["k_star"] == "69"
    assert main(["montecarlo", *flags, "--k", got["k_star"], "--trials", "50"]) == 0
    assert "mean=" in capsys.readouterr().out


def test_usage_error_is_exit_one(capsys):
    assert main(["simulate", "--no-such-flag", "1"]) == 1


def test_the_module_runs_as_a_script():
    # pyproject's pythonpath reaches only this process, so the child gets src/
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = [sys.executable, "-m", "codedmatvec.cli"]
    done = subprocess.run([*script, "expect", *EXAMPLE_FLAGS], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (root / "tests" / "golden" / "expect.txt").read_bytes()
    done = subprocess.run([*script, "simulate", "--no-such-flag", "1"], env=env,
                          capture_output=True)
    assert done.returncode == 1 and done.stdout == b""


def test_expect_example_numbers(capsys):
    rc = main(["expect", *EXAMPLE_FLAGS])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["lower"] == "3.17222222"
    assert got["upper"] == "3.57222222"
    assert got["pipeline_p"] == "1"
    assert float(got["t_cmm"]) == pytest.approx(0.2)
    assert got["regime3_leading"] == "2.97222222"


def test_expect_uncoded_and_regime(capsys):
    rc = main(["expect", "--n", "100", "--k", "70", "--r", "100", "--a", "1",
               "--mu", "1", "--t1cmm", "0.01", "--scheme", "uncoded",
               "--beta", "1"])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["regime"] == "III"
    assert float(got["lower"]) == pytest.approx(1 + 5.187377517639621 + 0.01, rel=1e-8)
    assert float(got["upper"]) == pytest.approx(1 + 5.187377517639621 + 1.0, rel=1e-8)


def test_montecarlo_text_and_determinism(capsys):
    args = ["montecarlo", "--n", "10", "--k", "7", "--r", "70", "--a", "1",
            "--mu", "1", "--t1cmm", "0.001", "--trials", "300", "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    got = dict(line.split("=") for line in first.strip().splitlines())
    assert got["trials"] == "300"
    assert float(got["mean"]) > 0


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--beta", "2", "--c", "1", "--ns", "10,20",
               "--k-fraction", "0.7", "--a", "1", "--mu", "1",
               "--trials", "100", "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "n,k,r,beta,c,t_cmm,mean,stderr,trials,frac_lower_bound_hit,"
        "mean_completed_by_comp_k,closed_form,gap")
    assert len(lines) == 3
    reader = list(csv.reader(io.StringIO(out.read_text())))
    assert all(len(row) == 13 for row in reader)


def test_speedup_runs(tmp_path):
    out = tmp_path / "speedup.csv"
    rc = main(["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20",
               "--a", "1", "--mu", "1", "--trials", "100", "--seed", "0",
               "--fix-k", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,r,t_one_cmm,coded_mean,uncoded_mean,ratio"
    assert len(lines) == 3


def test_optimize_k_output(capsys):
    rc = main(["optimize-k", "--n", "10", "--r", "120", "--a", "1", "--mu", "1",
               "--t1cmm", "0.01", "--require-divisor"])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert 120 % int(got["k_star"]) == 0
    assert float(got["expected_runtime"]) > 0


CLUSTER_100 = ["--n", "100", "--k", "70", "--r", "700", "--mu", "1"]


@pytest.mark.parametrize("command", ["simulate", "montecarlo", "expect", "verify"])
@pytest.mark.parametrize("flags, names", [
    (["--a", "1", "--t1cmm", "1e308"], "error: t_one_cmm: "),
    (["--a", "1e308", "--t1cmm", "0.001"], "error: a: "),
    (["--a", "1", "--t1cmm", "1.5e307"], "error: a, t_one_cmm: "),
    (["--a", "2.5e305", "--t1cmm", "2.55e305"], "error: a, t_one_cmm: "),
], ids=["t1cmm", "a", "runtime-t1cmm", "runtime-a-t1cmm"])
def test_non_finite_shift_or_transmission_time_is_exit_one(command, flags, names, capsys):
    # finite inputs whose t_cmm = (r/k) * t1cmm, shift a*r/k or run-time bound
    # t0 + k*t_cmm overflows, refused before any array arithmetic can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *CLUSTER_100, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(names)
    assert "Warning" not in captured.err
    assert captured.out == ""


def test_sweep_refuses_a_non_finite_transmission_time(capsys):
    # a failing ladder point fails the command, named by its n: t_cmm itself
    # overflows at c=1e308, the run-time bound t0 + k*t_cmm at c=1.5e307
    for c, names in (("1e308", "error: n=100: t_one_cmm: "),
                     ("1.5e307", "error: n=100: a, t_one_cmm: ")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--ns", "100", "--a", "1", "--mu", "1", "--beta", "0",
                         "--c", c, "--trials", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(names)
        assert captured.out == ""


def test_speedup_optimizes_k_by_default_and_names_a_point_too_small_for_it(capsys):
    # optimize_k needs two workers; a fixed k runs the same one-worker ladder
    argv = ["speedup", "--ns", "1", "--a", "1", "--mu", "1", "--beta", "1", "--c", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: n=1: optimize_k needs n >= 2, got 1\n"
    assert captured.out == ""
    assert main([*argv, "--fix-k", "--trials", "20"]) == 0
    assert "ratio" in capsys.readouterr().out


TINY_MU_CLUSTER = ["--n", "100", "--k", "70", "--r", "700", "--a", "1", "--t1cmm", "0.001"]
TINY_MU_LADDER = ["--ns", "100", "--a", "1", "--beta", "1", "--c", "1", "--trials", "50"]


@pytest.mark.parametrize("mu", ["1e-306", "1e-307"])
@pytest.mark.parametrize("argv, names", [
    (["simulate", *TINY_MU_CLUSTER, "--format", "text", "--seed", "1"], "error: mu: "),
    (["verify", *TINY_MU_CLUSTER, "--trials", "50"], "error: mu: "),
    (["montecarlo", *TINY_MU_CLUSTER, "--trials", "50"], "error: mu: "),
    (["expect", *TINY_MU_CLUSTER], "error: mu: "),
    (["speedup", *TINY_MU_LADDER], "error: n=100: mu: "),
    (["sweep", *TINY_MU_LADDER], "error: n=100: mu: "),
], ids=["simulate", "verify", "montecarlo", "expect", "speedup", "sweep"])
def test_a_tiny_mu_whose_largest_run_time_overflows_is_exit_one(argv, names, mu, capsys):
    # a finite mu so small that the largest draw's run-time t0 + 36.74*r/(mu*k)
    # + k*t_cmm overflows; it used to print inf or fail unnamed after a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--mu", mu]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(names)
    assert "Warning" not in captured.err
    assert captured.out == ""


HUGE = str(10**400)
LADDER_FLAGS = ["--a", "1", "--mu", "1", "--beta", "1", "--c", "1"]


@pytest.mark.parametrize("argv, names", [
    (["expect", "--n", "5", "--k", "3", "--r", HUGE, "--a", "1", "--mu", "1",
      "--t1cmm", "0.12"], "r: "),
    (["optimize-k", "--n", "5", "--r", HUGE, "--a", "1", "--mu", "1", "--t1cmm", "0.12"],
     "r: "),
    (["montecarlo", *EXAMPLE_FLAGS, "--trials", HUGE], "trials: "),
    (["verify", *EXAMPLE_FLAGS, "--trials", HUGE], "trials: "),
    (["sweep", "--ns", HUGE, *LADDER_FLAGS], "ns: "),
    # config takes n = 2**1000, but the ladder's r = lcm(n, k) is past float range
    (["sweep", "--ns", str(2**1000), *LADDER_FLAGS], f"n={2**1000}: r: "),
    (["speedup", "--fix-k", "--ns", str(2**1000), *LADDER_FLAGS], f"n={2**1000}: r: "),
], ids=["expect", "optimize-k", "montecarlo", "verify", "sweep", "sweep-lcm", "speedup-lcm"])
def test_an_integer_past_float_range_is_exit_one(argv, names, capsys):
    # float() overflows on each value; the refusal names the key, or the ladder
    # point and its key, instead of an OverflowError traceback
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + names)
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("switches", [[], ["--require-divisor"]],
                         ids=["any-k", "require-divisor"])
def test_optimize_k_refuses_a_too_large_n_at_once(switches, capsys, monkeypatch):
    # past the harmonic table's exactness bound the refusal names n, and it
    # comes before the scan builds its O(n) k range
    def built(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(np, "arange", built)
    argv = ["optimize-k", "--n", str(2**27), "--r", "700", "--a", "1", "--mu", "1",
            "--t1cmm", "0.001", *switches]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n: harmonic suffixes are exact only while")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_optimize_k_refuses_an_infinite_rate(capsys):
    # mu = inf would zero the order-statistic term, and the scan would still pick a k
    assert main(["optimize-k", "--n", "10", "--r", "120", "--a", "1", "--mu", "inf",
                 "--t1cmm", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: mu: must be finite, got inf\n"
    assert captured.out == ""


def test_the_seed_bound_is_checked_with_the_other_keys(capsys):
    # a seed past 2^64 used to pass config and fail in the stream keying, unnamed
    argv = ["montecarlo", *TINY_MU_CLUSTER, "--mu", "1", "--trials", "20", "--seed"]
    assert main([*argv, str(2**64)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed: must lie in [0, 2^64), got 18446744073709551616\n"
    assert captured.out == ""
    assert main([*argv, str(2**64 - 1)]) == 0
    assert "mean" in capsys.readouterr().out


@pytest.mark.parametrize("argv, point", [
    (["optimize-k", "--n", "100", "--r", "700", "--a", "1", "--mu", "1", "--t1cmm", "1e308"],
     ""),
    (["optimize-k", "--n", "100", "--r", "700", "--a", "1e308", "--mu", "1", "--t1cmm", "1"],
     ""),
    (["speedup", "--ns", "100", "--a", "1", "--mu", "1", "--beta", "0", "--c", "1e308"],
     "n=100: "),
], ids=["optimize-k-t1cmm", "optimize-k-a", "speedup"])
def test_non_finite_objective_is_not_a_divisibility_error(argv, point, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {point}the objective is not finite at any feasible k in [1, 99]\n")
    assert captured.out == ""


MOMENT_LADDER = ["--ns", "100", "--beta", "1", "--c", "1"]


@pytest.mark.parametrize("argv, names", [
    (["montecarlo", *TINY_MU_CLUSTER, "--mu", "1e-305", "--trials", "50"],
     "error: a, mu, t_one_cmm: "),
    (["expect", *TINY_MU_CLUSTER, "--mu", "1e-200"], "error: a, mu, t_one_cmm: "),
    (["montecarlo", *TINY_MU_CLUSTER, "--a", "1e304", "--mu", "1", "--trials", "10000"],
     "error: a, mu, t_one_cmm: "),
    (["sweep", *MOMENT_LADDER, "--a", "1", "--mu", "1e-305", "--trials", "50"],
     "error: n=100: a, mu, t_one_cmm: "),
    (["speedup", *MOMENT_LADDER, "--a", "1e305", "--mu", "1", "--trials", "10000"],
     "error: n=100: a, mu, t_one_cmm: "),
    (["simulate", *TINY_MU_CLUSTER, "--mu", "1e-300", "--format", "text"],
     "error: a, mu, t_one_cmm: "),
    (["verify", *TINY_MU_CLUSTER, "--mu", "1e-320", "--trials", "50"], "error: mu: "),
], ids=["montecarlo-mu", "expect", "montecarlo-a", "sweep", "speedup", "simulate", "verify"])
def test_run_times_whose_moments_overflow_are_exit_one(argv, names, capsys):
    # a finite largest run-time B whose squares overflow across the trials
    # used to print variance_Tk=inf, variance=inf, stderr=inf or inf,inf,nan;
    # verify used to refuse mu = 1e-320 as "alpha must be > 0, got inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(names)
    assert "Warning" not in captured.err
    assert captured.out == ""


GRID_CLUSTER = ["--n", "10", "--k", "7", "--r", "70"]
GRID_LADDER = ["--ns", "10,20", "--beta", "1", "--trials", "50"]
GRID_COMMANDS = {
    "simulate": ["simulate", *GRID_CLUSTER, "--format", "text"],
    "montecarlo": ["montecarlo", *GRID_CLUSTER, "--trials", "50"],
    "expect": ["expect", *GRID_CLUSTER],
    "verify": ["verify", *GRID_CLUSTER, "--trials", "50"],
    "sweep": ["sweep", *GRID_LADDER],
    "speedup": ["speedup", *GRID_LADDER],
}


@pytest.mark.parametrize("name", sorted(GRID_COMMANDS))
def test_no_timing_command_prints_a_non_finite_number(name, capsys):
    # shifts, rates and transmission times out to the float range: each call
    # prints only finite numbers or exits 1 with a refusal, never with a warning
    ladder = name in ("sweep", "speedup")
    for a, mu, t1 in itertools.product(["0", "1", "1e150", "1e304"],
                                        ["1e-320", "1e-305", "1e-150", "1", "1e300"],
                                        ["0", "1e-3", "1e150", "1e306"]):
        # c must be > 0
        comm = ["--c", "1e-3" if t1 == "0" else t1] if ladder else ["--t1cmm", t1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([*GRID_COMMANDS[name], "--a", a, "--mu", mu, *comm])
        captured = capsys.readouterr()
        case = (a, mu, t1, rc, captured.err, captured.out)
        if rc == 0:
            numbers = []
            for token in re.split("[=,\n]", captured.out):
                try:
                    numbers.append(float(token))
                except ValueError:
                    pass  # a key, a scheme or a boolean
            assert all(map(math.isfinite, numbers)), case
        else:
            assert rc == 1 and captured.err.startswith("error: "), case
            assert captured.out == "", case


def test_decode_check_example(capsys):
    rc = main(["decode-check", "--scheme", "systematic", "--n", "4", "--k", "2",
               "--r", "2", "--m", "2"])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["subsets_checked"] == "6"
    assert got["exhaustive"] == "true"
    assert got["failures"] == "0"
    assert got["pass"] == "true"


def test_decode_check_random_scheme(capsys):
    rc = main(["decode-check", "--scheme", "random", "--n", "8", "--k", "4",
               "--r", "12", "--m", "5", "--trials", "50"])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert float(got["recovered_fraction"]) >= 0.99
    assert got["pass"] == "true"


def test_decode_check_needs_coding_scheme(capsys):
    rc = main(["decode-check", "--n", "4", "--k", "2", "--r", "2", "--m", "2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: scheme: required for this command\n"


def test_decode_check_still_requires_k_dividing_r(capsys):
    # a run takes any load, but a code has k equal row blocks
    assert main(["decode-check", "--scheme", "random", "--n", "5", "--k", "3", "--r", "5"]) == 1
    assert "encoding requires k | r" in capsys.readouterr().err


def _sampled_decode_check(n, k, trials):
    """decode-check's systematic job at --r k --m 5 --seed 12, and the subsets
    it samples: the rest of the same stream, drawn after A and x."""
    rng = RngStream(12, 0)
    job = encode_systematic_mds(rng.standard_normals((k, 5)), rng.standard_normals(5),
                                ClusterParams(n=n, k=k, r=k, a=0.0, mu=1.0))
    subsets = [sorted(np.argsort(rng.uniforms(n))[:k] + 1) for _ in range(trials)]
    argv = ["decode-check", "--scheme", "systematic", "--n", str(n), "--k", str(k),
            "--r", str(k), "--m", "5", "--seed", "12", "--trials", str(trials)]
    return job, subsets, argv


def test_decode_check_reduces_the_per_subset_recovery_errors(capsys):
    # the printed counts are those of recovery_error subset by subset,
    # condition-number flag included
    job, subsets, argv = _sampled_decode_check(24, 12, 3000)
    rc = main(argv)
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    results = [recovery_error(job, subset) for subset in subsets]
    failed = [ok for err, ok in results if err > 1e-10]
    assert (len(failed), sum(failed)) == (234, 165)
    assert rc == 2 and got["pass"] == "false"
    assert got["failures"] == str(len(failed))
    assert got["unflagged_failures"] == str(sum(failed))
    assert got["max_relative_error"] == f"{max(err for err, _ in results):.9g}"


def test_decode_check_failure_exit_code(monkeypatch, capsys):
    # every worker's result is off by one, so no subset decodes A x
    check_any_k = cli.check_any_k
    monkeypatch.setattr(cli, "check_any_k", lambda job, scheme, trials, rng: check_any_k(
        replace(job, assignments=job.assignments + 1.0), scheme, trials, rng))
    rc = main(["decode-check", "--scheme", "random", "--n", "4", "--k", "2",
               "--r", "4", "--m", "2", "--trials", "10"])
    assert rc == 2
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["pass"] == "false"
    assert got["failures"] == got["subsets_checked"] == "6"


def test_decode_check_gathers_and_solves_each_subset_once(monkeypatch, capsys):
    # one gather and one solve per chunk, no subset solved on its own, and
    # condition numbers only for the failing subsets of the chunks that have them
    job, subsets, argv = _sampled_decode_check(20, 10, 3000)
    failing = [i for i, subset in enumerate(subsets) if recovery_error(job, subset)[0] > 1e-10]
    calls = {"gathered": [], "solved": [], "cond": []}

    def counting(name, fn, size):
        def call(*args):
            calls[name].append(size(*args))
            return fn(*args)
        return call

    monkeypatch.setattr(coding, "_gather", counting("gathered", coding._gather,
                                                    lambda job, chunk, results: len(chunk)))
    monkeypatch.setattr(np.linalg, "solve",
                        counting("solved", np.linalg.solve, lambda a, b: len(a)))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond, len))
    rc = main(argv)
    monkeypatch.undo()
    assert rc == 2 and "failures=3\n" in capsys.readouterr().out
    assert calls["solved"] == calls["gathered"]
    assert sum(calls["gathered"]) == len(subsets)
    # a subset gathers k x k generator entries and k results of r/k rows
    k, w = job.generator.shape[1], job.assignments.shape[1]
    assert set(calls["gathered"][:-1]) == {coding.CHUNK_ELEMENTS // (k * (k + w))} == {595}
    chunk_of = np.searchsorted(np.cumsum(calls["gathered"]), failing, side="right")
    assert len(calls["gathered"]) > 1 and len(set(chunk_of)) < len(calls["gathered"])
    assert calls["cond"] == list(np.bincount(chunk_of)[sorted(set(chunk_of))])


class _Drawn(Exception):
    pass


def _drawn_blocks(monkeypatch, argv):
    """The blocks of worker ids that decode-check's check_any_k decodes, at
    --r k: each takes n ids, then k * (k + 1) float64 a subset."""
    drawn = []

    def capture(job, blocks):
        drawn.extend(blocks)
        raise _Drawn

    monkeypatch.setattr(coding, "_decode", capture)
    with pytest.raises(_Drawn):
        main(argv)
    n, k = (int(argv[argv.index(flag) + 1]) for flag in ("--n", "--k"))
    for block in drawn:  # (B, k) integer blocks within the budget, or one subset
        assert block.dtype.kind == "i" and block.shape[1] == k
        assert len(block) * max(n, k * (k + 1)) <= coding.CHUNK_ELEMENTS or len(block) == 1
    return drawn


@pytest.mark.parametrize("n, k, trials", [(24, 12, 20000), (800, 2, 200), (800, 560, 200)])
def test_decode_check_draws_its_sampled_subsets_as_one_by_one(monkeypatch, n, k, trials):
    # a block of rows per draw gives the one-by-one draws bit for bit, from the
    # stream left after A, x and the random generator; the runs span blocks of
    # CHUNK_ELEMENTS // max(n, k * (k + 1)) rows: 420, 81 and 1
    block = max(1, coding.CHUNK_ELEMENTS // max(n, k * (k + 1)))
    assert trials > block
    drawn = _drawn_blocks(monkeypatch, [
        "decode-check", "--scheme", "random", "--n", str(n), "--k", str(k),
        "--r", str(k), "--m", "5", "--seed", "12", "--trials", str(trials)])
    rng = RngStream(12, 0)
    for size in [(k, 5), 5, (n, k)]:  # A, x and the generator
        rng.standard_normals(size)
    expected = [(np.argsort(rng.uniforms(n))[:k] + 1).tolist() for _ in range(trials)]
    assert [len(b) for b in drawn] == [min(block, trials - first)
                                       for first in range(0, trials, block)]
    assert np.vstack(drawn).tolist() == expected


def test_decode_check_joins_its_exhaustive_blocks_into_the_combinations(monkeypatch):
    # the C(16, 8) = 12870 subsets come in blocks of CHUNK_ELEMENTS // (8 * 9)
    # = 910 rows, 14 full ones and 130 rows, and join up to the combinations
    drawn = _drawn_blocks(monkeypatch, ["decode-check", "--scheme", "systematic", "--n", "16",
                                        "--k", "8", "--r", "8", "--m", "2"])
    assert [len(b) for b in drawn] == [910] * 14 + [130]
    assert np.vstack(drawn).tolist() == list(map(list, itertools.combinations(range(1, 17), 8)))


def test_decode_check_at_the_ladder_n(capsys):
    # the speedup ladder's n = 800, k = 0.7 n, r = lcm(n, k): each subset is a
    # 560 x 560 solve, where an r x r system would take 250 MB
    rc = main(["decode-check", "--scheme", "random", "--n", "800", "--k", "560",
               "--r", "5600", "--m", "5", "--trials", "5"])
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert rc == 0 and got["pass"] == "true"
    assert (got["subsets_checked"], got["exhaustive"], got["failures"]) == ("5", "false", "0")


def test_decode_check_refuses_a_systematic_code_that_overflows(capsys):
    # the parity entry 2 ** 1049 overflows; every decode used to be NaN and pass
    rc = main(["decode-check", "--scheme", "systematic", "--n", "1100", "--k", "1050",
               "--r", "1050", "--m", "2", "--trials", "20"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: systematic code overflows float64 at n=1100, k=1050")


def test_verify_clean_run(capsys):
    rc = main(["verify", "--n", "50", "--k", "35", "--r", "35", "--a", "1",
               "--mu", "2", "--t1cmm", "0.0002", "--trials", "200"])
    assert rc == 0
    got = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert got["sandwich_violations"] == "0"
    assert got["pass"] == "true"


def test_verify_failure_exit_code(monkeypatch, capsys):
    import codedmatvec.cli as cli
    from codedmatvec.experiments import LemmaReport

    def fake_verify(params, comm, trials, seed):
        return LemmaReport(n=params.n, k=params.k, p=1, trials=trials,
                           mean_count1=0, mean_count2=0,
                           mean_deficit_p=0, stderr_deficit_p=0,
                           mean_deficit_k_signed=0, stderr_deficit_k_signed=0,
                           mean_deficit_k_shortfall=0, stderr_deficit_k_shortfall=0,
                           sandwich_violations=3)

    monkeypatch.setattr(cli, "verify_transmission_lemmas", fake_verify)
    rc = main(["verify", "--n", "10", "--k", "7", "--r", "7", "--a", "1",
               "--mu", "1", "--t1cmm", "0.01", "--trials", "10"])
    assert rc == 2


def test_config_file_drives_command(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "n = 5\nk = 3\nr = 5\na = 1\nmu = 1\nt1cmm = 0.12\n"
        f"inject = {INJECT}\nformat = text\n"
    )
    rc = main(["simulate", "--config", str(config)])
    assert rc == 0
    assert "hit_lower_bound=true" in capsys.readouterr().out


def test_output_files_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["montecarlo", "--n", "10", "--k", "7", "--r", "70", "--a", "1",
            "--mu", "1", "--t1cmm", "0.001", "--trials", "200", "--seed", "9"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# output formats and errors
# ---------------------------------------------------------------------------

RECORD_COMMANDS = {
    "montecarlo": ["montecarlo", "--n", "10", "--k", "7", "--r", "70", "--a", "1",
                   "--mu", "1", "--t1cmm", "0.001", "--trials", "50", "--seed", "3"],
    "sweep": ["sweep", "--beta", "1", "--c", "1", "--ns", "10,20,30", "--a", "1",
              "--mu", "1", "--trials", "50", "--seed", "3"],
    "speedup": ["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20,30", "--a", "1",
                "--mu", "1", "--trials", "50", "--seed", "3"],
    "optimize-k": ["optimize-k", "--n", "10", "--r", "120", "--a", "1", "--mu", "1",
                   "--t1cmm", "0.01"],
    "expect": ["expect", *EXAMPLE_FLAGS, "--beta", "1"],
    "expect-uncoded": ["expect", *EXAMPLE_FLAGS, "--scheme", "uncoded"],
    "decode-check": ["decode-check", "--scheme", "random", "--n", "6", "--k", "3",
                     "--r", "6", "--m", "2", "--seed", "3"],
    "verify": ["verify", "--n", "20", "--k", "14", "--r", "14", "--a", "1", "--mu", "2",
               "--t1cmm", "0.001", "--trials", "50", "--seed", "3"],
}


@pytest.mark.parametrize("name", sorted(RECORD_COMMANDS))
def test_csv_and_text_carry_the_same_records(name, tmp_path):
    # simulate is left out: its two formats print different records
    argv = RECORD_COMMANDS[name]
    text_path, csv_path = tmp_path / "out.txt", tmp_path / "out.csv"
    assert main([*argv, "--format", "text", "--out", str(text_path)]) == 0
    assert main([*argv, "--format", "csv", "--out", str(csv_path)]) == 0
    blocks = text_path.read_text().split("\n\n")
    records = [[line.split("=", 1) for line in block.splitlines()] for block in blocks]
    header, *rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert len(rows) == len(records) == (3 if name in ("sweep", "speedup") else 1)
    for record, row in zip(records, rows):
        assert header == [key for key, _ in record]
        assert row == [value for _, value in record]


def test_missing_config_file_is_exit_one(tmp_path, capsys):
    rc = main(["expect", *EXAMPLE_FLAGS, "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_out_in_missing_directory_is_exit_one(tmp_path, capsys):
    rc = main(["expect", *EXAMPLE_FLAGS, "--out", str(tmp_path / "absent" / "out.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


VERIFY_FLAGS = ["--n", "10", "--k", "7", "--r", "70", "--a", "1", "--mu", "1",
                "--t1cmm", "0.01", "--trials", "10"]


@pytest.mark.parametrize("argv", [
    ["simulate", *EXAMPLE_FLAGS, "--inject", INJECT, "--scheme", "random"],
    ["montecarlo", *EXAMPLE_FLAGS, "--scheme", "systematic"],
    ["expect", *EXAMPLE_FLAGS, "--scheme", "random"],
    ["verify", *VERIFY_FLAGS, "--scheme", "systematic"],
    ["verify", *VERIFY_FLAGS, "--scheme", "uncoded"],
], ids=["simulate-random", "montecarlo-systematic", "expect-random",
        "verify-systematic", "verify-uncoded"])
def test_timing_commands_reject_other_schemes(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scheme:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# the command table: each command takes a flag only for a key it reads
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "simulate": "n k r a mu t1cmm scheme inject seed",
    "montecarlo": "n k r a mu t1cmm scheme trials seed",
    "sweep": "ns a mu beta c k-fraction trials seed",
    "speedup": "ns a mu beta c k-fraction trials seed fix-k",
    "optimize-k": "n r a mu t1cmm require-divisor",
    "expect": "n k r a mu t1cmm scheme beta",
    "decode-check": "n k r m scheme seed trials",
    "verify": "n k r a mu t1cmm scheme trials seed",
}


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # a usage error, two commands and the usage error again, in one process:
    # the parser built once prints what a freshly built one prints
    usage_error = ["montecarlo", "--n", "10", "--bogus", "1"]
    argvs = [usage_error, RECORD_COMMANDS["montecarlo"], RECORD_COMMANDS["optimize-k"],
             usage_error]

    def run_all():
        results = []
        for argv in argvs:
            rc = main(list(argv))
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    reused = run_all()
    assert cli.build_parser() is cli.build_parser()
    assert [rc for rc, _, _ in reused] == [1, 0, 0, 1]
    assert "--bogus" in reused[0][2] and reused[3] == reused[0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == reused


def test_each_command_has_only_its_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)
    total = 0
    for name, command in sub.choices.items():
        flags = {opt[2:] for action in command._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"}
        assert flags == {"config", "out", "format", *COMMAND_FLAGS[name].split()}, name
        total += len(flags)
    assert total == 89


@dataclass(frozen=True)
class _RecordingConfig(RunConfig):
    """A RunConfig that notes which of its fields are read."""

    def __post_init__(self):
        object.__setattr__(self, "reads", set())

    def __getattribute__(self, name):
        if name in RunConfig.__dataclass_fields__:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


# one argv per branch that reads a different set of keys
BRANCH_ARGVS = [
    ["simulate", *EXAMPLE_FLAGS, "--inject", INJECT],
    ["simulate", "--n", "5", "--k", "3", "--r", "6", "--a", "1", "--mu", "1",
     "--t1cmm", "0.12", "--seed", "3"],
    RECORD_COMMANDS["montecarlo"],
    RECORD_COMMANDS["sweep"],
    RECORD_COMMANDS["speedup"],
    RECORD_COMMANDS["optimize-k"],
    RECORD_COMMANDS["expect"],
    ["decode-check", "--scheme", "random", "--n", "30", "--k", "15", "--r", "15",
     "--m", "2", "--trials", "20", "--seed", "3"],
    RECORD_COMMANDS["verify"],
]


def test_commands_read_exactly_their_declared_keys(monkeypatch, capsys):
    handled = []

    def recording(handler):
        def run(config, args):
            handled.append(config)
            return handler(config, args)
        return run

    monkeypatch.setattr(cli, "parse_config",
                        lambda *args: _RecordingConfig(**vars(parse_config(*args))))
    for name, command in cli.COMMANDS.items():
        monkeypatch.setitem(cli.COMMANDS, name, command._replace(handler=recording(command.handler)))
    reads = {name: set() for name in cli.COMMANDS}
    for argv in BRANCH_ARGVS:
        assert main(argv) == 0, argv
        # the checks before the handler read this same config
        reads[argv[0]] |= handled[-1].reads
    capsys.readouterr()
    for name, command in cli.COMMANDS.items():
        assert reads[name] == set(command.keys), name
        assert ("scheme" in command.keys) == bool(command.schemes), name


@pytest.mark.parametrize("last, rc", [
    ([("pass", False)], 2), ([("pass", True)], 0), ([("k_star", 3)], 0),
], ids=["pass-false", "pass-true", "no-pass"])
def test_the_exit_code_is_the_last_record_verdict(last, rc, monkeypatch, capsys):
    # main writes what the handler returns, once, and exits 2 exactly when the
    # last record holds pass=false; an earlier record's verdict does not count
    records = [[("pass", False)], [("n", 1), *last]]
    written = []
    monkeypatch.setattr(cli, "_write", lambda recs, config: written.append(recs))
    command = cli.COMMANDS["optimize-k"]
    monkeypatch.setitem(cli.COMMANDS, "optimize-k", command._replace(handler=lambda *_: records))
    assert main(RECORD_COMMANDS["optimize-k"]) == rc
    assert written == [records]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 2.98 GiB for an array with shape (400000000,) and "
                 "data type float64"),
     "error: out of memory: Unable to allocate 2.98 GiB for an array with shape "
     "(400000000,) and data type float64"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy", "bare"])
def test_an_allocation_failure_is_one_error_line(exc, line, monkeypatch, capsys):
    # e.g. `montecarlo --n 400000000 --trials 1` under a memory cap; the
    # handler raises in place of the allocation, so none is made
    def failing(config, args):
        raise exc

    command = cli.COMMANDS["montecarlo"]
    monkeypatch.setitem(cli.COMMANDS, "montecarlo", command._replace(handler=failing))
    assert main(["montecarlo", "--n", "400000000", "--k", "280000000", "--r", "280000000",
                 "--a", "1", "--mu", "1", "--t1cmm", "0.001", "--trials", "1"]) == 1
    assert capsys.readouterr() == ("", line + "\n")


@pytest.mark.parametrize("argv", [
    ["optimize-k", "--n", "10", "--r", "120", "--a", "1", "--mu", "1", "--t1cmm", "0.01",
     "--k", "3", "--ns", "5", "--trials", "7"],
    ["expect", *EXAMPLE_FLAGS, "--inject", "1,2", "--m", "9"],
    ["sweep", "--beta", "2", "--c", "1", "--ns", "10,20", "--a", "1", "--mu", "1",
     "--scheme", "uncoded"],
    ["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
     "--n", "7"],
], ids=["optimize-k", "expect", "sweep", "speedup"])
def test_unread_flag_is_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unrecognized arguments: ")
    assert captured.out == ""


def test_one_config_file_serves_several_commands(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 5\nk = 3\nr = 5\na = 1\nmu = 1\nt1cmm = 0.12\n"
                      "ns = 10,20\nbeta = 2\nc = 1\n")
    assert main(["expect", "--config", str(config)]) == 0
    from_file = capsys.readouterr().out
    assert main(["expect", *EXAMPLE_FLAGS, "--beta", "2"]) == 0
    assert from_file == capsys.readouterr().out
    assert main(["sweep", "--config", str(config), "--trials", "50"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
