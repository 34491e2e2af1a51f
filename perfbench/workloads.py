"""The benchmark's workloads: the CLI calls each one makes, the operations
they count, and the checks on their outputs.

Every check raises CheckError when an output is wrong.  The checks use the
package's public library API only as a reference (expectation brackets,
`optimize_k`, encoders); they never read the program's random streams.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from codedmatvec.analysis import expectation_bracket_coded, expectation_bracket_uncoded, optimize_k
from codedmatvec.channel import CommModel
from codedmatvec.coding import (
    decode_from_workers,
    encode_random_linear,
    encode_systematic_mds,
    recovery_error,
)
from codedmatvec.experiments import default_r_rule, round_k
from codedmatvec.rng import RngStream
from codedmatvec.timing import ClusterParams, variance_order_stat

# Monte Carlo means must lie in their expectation bracket widened by this
# many standard errors of the order-statistic core.  The bracket holds
# almost surely around that core, so only the core's sampling error can
# push a correct mean outside; 6 keeps a false alarm below 1e-8 per check.
Z_SLACK = 6.0


class CheckError(Exception):
    """An output of the program failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Workload:
    """One set of CLI calls.

    round_argv      -- the argv of each call in one round, from the round's seed
    ops             -- operations one call performs, from its argv
    check           -- (argv, exit code, stdout, per-subset recoveries or None)
                       -> {"failed": ..., other per-call counts}; raises CheckError
    expected_counts -- (argv, stdout) -> exact tracer counts one call must produce
    replay          -- optional run-level check, given the run's seed
    trace_rounds    -- rounds in each phase of a traced run (fixed work, so
                       the traced counts repeat exactly)
    """

    name: str
    round_argv: Callable[[int], list[list[str]]]
    ops: Callable[[list[str]], int]
    check: Callable
    expected_counts: Callable[[list[str], str], dict]
    trace_rounds: int
    replay: Callable[[int], None] | None = None


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def _flags(argv: list[str]) -> dict[str, str]:
    return {key[2:]: value for key, value in zip(argv[1:], argv[2:]) if key.startswith("--")}


def _key_values(text: str) -> dict[str, str]:
    record = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        _require(bool(sep), f"malformed output line {line!r}")
        record[key] = value
    return record


def _number(record: dict, key: str) -> float:
    _require(key in record, f"output lacks {key}")
    try:
        value = float(record[key])
    except ValueError:
        raise CheckError(f"{key}={record[key]!r} is not a number") from None
    _require(math.isfinite(value), f"{key}={value} is not finite")
    return value


def _uncoded_core_stderr(params: ClusterParams, trials: int) -> float:
    """Standard error of the mean of T_(n) at r/n inner products per worker."""
    alpha_u = params.r / (params.mu * params.n)
    variance = alpha_u * alpha_u * math.fsum(1.0 / (i * i) for i in range(1, params.n + 1))
    return math.sqrt(variance / trials)


def _check_bracket(label: str, mean: float, bracket, stderr: float):
    _require(
        bracket.contains(mean, slack=Z_SLACK * stderr),
        f"{label} mean {mean!r} outside [{bracket.lower!r}, {bracket.upper!r}] "
        f"widened by {Z_SLACK} x stderr {stderr!r}",
    )


# --- mc-n100 -------------------------------------------------------------

MC_TRIALS = 2000


def _mc_round(seed: int) -> list[list[str]]:
    return [[
        "montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001", "--scheme", "coded", "--trials", str(MC_TRIALS), "--seed", str(seed),
    ]]


def _mc_ops(argv):
    return int(_flags(argv)["trials"])


def _check_montecarlo(argv, rc, out, recoveries=None):
    flags = _flags(argv)
    params = ClusterParams(n=int(flags["n"]), k=int(flags["k"]), r=int(flags["r"]),
                           a=float(flags["a"]), mu=float(flags["mu"]))
    trials = int(flags["trials"])
    _require(rc == 0, f"exit code {rc}")
    rec = _key_values(out)
    _require(rec.get("scheme") == "coded", f"scheme={rec.get('scheme')!r}")
    for key, want in (("n", params.n), ("k", params.k), ("r", params.r), ("trials", trials)):
        _require(rec.get(key) == str(want), f"{key}={rec.get(key)!r}, want {want}")
    mean = _number(rec, "mean")
    variance = _number(rec, "variance")
    stderr = _number(rec, "stderr")
    _require(variance > 0 and math.isclose(stderr, math.sqrt(variance / trials), rel_tol=1e-6),
             f"stderr={stderr!r} does not match variance={variance!r} over {trials} trials")
    bracket = expectation_bracket_coded(params, CommModel.coded(params, float(flags["t1cmm"])))
    _check_bracket("coded", mean, bracket,
                   math.sqrt(variance_order_stat(params, params.k) / trials))
    _require(0 <= _number(rec, "frac_lower_bound_hit") <= 1, "frac_lower_bound_hit outside [0, 1]")
    _require(0 <= _number(rec, "mean_completed_by_comp_k") <= params.k,
             "mean_completed_by_comp_k outside [0, k]")
    _require(1 <= _number(rec, "mean_q_idle") <= params.k, "mean_q_idle outside [1, k]")
    _require(0 < _number(rec, "mean_busy_fraction") <= 1, "mean_busy_fraction outside (0, 1]")
    return {"failed": 0}


def _mc_counts(argv, out):
    flags = _flags(argv)
    trials, n, k = int(flags["trials"]), int(flags["n"]), int(flags["k"])
    return {
        "rng.streams": trials, "rng.variates": trials * n, "timing.values_sorted": trials * n,
        "channel.steps": trials * k, "channel.trials": trials, "coding.decodes": 0,
        "analysis.calls": 0,
    }


# --- speedup-ladder ------------------------------------------------------

LADDER = (100, 200, 400, 800, 1600, 3200)
LADDER_TRIALS = 100
LADDER_K_FRACTION = 0.7  # the CLI default when --k-fraction is not given


def _ladder_round(seed: int) -> list[list[str]]:
    return [[
        "speedup", "--beta", "1", "--c", "0.1", "--ns", ",".join(map(str, LADDER)),
        "--a", "1", "--mu", "1", "--trials", str(LADDER_TRIALS), "--seed", str(seed),
    ]]


def _ladder_ops(argv):
    flags = _flags(argv)
    return 2 * len(flags["ns"].split(",")) * int(flags["trials"])


def _ladder_rows(out: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(out)))
    _require(all(row.keys() >= {"n", "k", "r", "t_one_cmm", "coded_mean", "uncoded_mean", "ratio"}
                 for row in rows), "speedup CSV lacks a column")
    return rows


def _check_speedup(argv, rc, out, recoveries=None):
    flags = _flags(argv)
    trials = int(flags["trials"])
    a, mu, c, beta = (float(flags[key]) for key in ("a", "mu", "c", "beta"))
    _require(rc == 0, f"exit code {rc}")
    rows = _ladder_rows(out)
    ns = [int(v) for v in flags["ns"].split(",")]
    _require([int(row["n"]) for row in rows] == ns, "speedup rows do not follow the ladder")
    for row in rows:
        n, k, r = int(row["n"]), int(row["k"]), int(row["r"])
        t_one = c * n ** (-beta)
        _require(r == default_r_rule(n, round_k(LADDER_K_FRACTION, n)), f"n={n}: r={r}")
        _require(math.isclose(float(row["t_one_cmm"]), t_one, rel_tol=1e-8), f"n={n}: t_one_cmm")
        k_star, _ = optimize_k(n, r, a, mu, comm_at_k=lambda kk: (r / kk) * t_one,
                               require_divisor=True)
        _require(k == k_star, f"n={n}: k={k}, optimize_k gives {k_star}")
        params = ClusterParams(n=n, k=k, r=r, a=a, mu=mu)
        coded = float(row["coded_mean"])
        uncoded = float(row["uncoded_mean"])
        _check_bracket(f"n={n} coded", coded,
                       expectation_bracket_coded(params, CommModel.coded(params, t_one)),
                       math.sqrt(variance_order_stat(params, k) / trials))
        _check_bracket(f"n={n} uncoded", uncoded,
                       expectation_bracket_uncoded(params, CommModel.uncoded(params, t_one)),
                       _uncoded_core_stderr(params, trials))
        _require(math.isclose(float(row["ratio"]), uncoded / coded, rel_tol=1e-7),
                 f"n={n}: ratio is not uncoded_mean / coded_mean")
    return {"failed": 0}


def _ladder_counts(argv, out):
    trials = int(_flags(argv)["trials"])
    rows = _ladder_rows(out)
    counts = dict.fromkeys(("rng.streams", "rng.variates", "timing.values_sorted",
                            "channel.steps", "channel.trials"), 0)
    for row in rows:
        n, k = int(row["n"]), int(row["k"])
        counts["rng.streams"] += 2 * trials
        counts["rng.variates"] += 2 * trials * n
        counts["timing.values_sorted"] += 2 * trials * n
        counts["channel.steps"] += trials * (k + n)
        counts["channel.trials"] += 2 * trials
    counts["coding.decodes"] = 0
    counts["analysis.calls"] = len(rows)  # optimize_k once per n
    return counts


# --- decode-anyk ---------------------------------------------------------

DECODE_N, DECODE_K, DECODE_R, DECODE_M = 16, 8, 64, 5
DECODE_TOL = {"systematic": 1e-10, "random": 1e-8}
REPLAY_SUBSETS = 128


def _decode_round(seed: int) -> list[list[str]]:
    return [[
        "decode-check", "--scheme", scheme, "--n", str(DECODE_N), "--k", str(DECODE_K),
        "--r", str(DECODE_R), "--m", str(DECODE_M), "--seed", str(seed),
    ] for scheme in ("systematic", "random")]


def _decode_ops(argv):
    flags = _flags(argv)
    return math.comb(int(flags["n"]), int(flags["k"]))


def _check_decode(argv, rc, out, recoveries=None):
    flags = _flags(argv)
    scheme = flags["scheme"]
    checked = _decode_ops(argv)
    tol = DECODE_TOL[scheme]
    rec = _key_values(out)
    for key in ("scheme", "n", "k", "r", "m"):
        _require(rec.get(key) == flags[key], f"{key}={rec.get(key)!r}, want {flags[key]}")
    _require(rec.get("subsets_checked") == str(checked), f"subsets_checked={rec.get('subsets_checked')!r}")
    _require(rec.get("exhaustive") == "true", "decode-check was not exhaustive")
    _require(_number(rec, "tolerance") == tol, f"tolerance={rec.get('tolerance')!r}, want {tol}")
    failures = int(_number(rec, "failures"))
    unflagged = int(_number(rec, "unflagged_failures"))
    max_err = _number(rec, "max_relative_error")
    _require(0 <= unflagged <= failures <= checked, "failure counts out of order")
    _require(math.isclose(_number(rec, "recovered_fraction"), (checked - failures) / checked,
                          rel_tol=1e-8), "recovered_fraction does not match failures")
    _require((max_err > tol) == (failures > 0), "max_relative_error disagrees with failures")
    passed = failures == 0 if scheme == "systematic" else (
        (checked - failures) / checked >= 0.99 and unflagged == 0)
    _require(rec.get("pass") == ("true" if passed else "false"), f"pass={rec.get('pass')!r}")
    _require(rc == (0 if passed else 2), f"exit code {rc} with pass={rec.get('pass')}")
    if recoveries:
        # a traced call: the printed aggregate must be the reduction of the
        # per-subset results the CLI received from recovery_error
        _require(len(recoveries) == checked, f"{len(recoveries)} subsets decoded, {checked} reported")
        errors = [err for err, _ in recoveries]
        _require(sum(err > tol for err in errors) == failures, "failures differ from per-subset errors")
        _require(sum(err > tol and ok for err, ok in recoveries) == unflagged,
                 "unflagged_failures differ from per-subset results")
        _require(float(f"{max(errors):.9g}") == max_err, "max_relative_error differs from per-subset errors")
    return {"failed": failures, "unflagged": unflagged}


def _decode_counts(argv, out):
    return {"coding.decodes": _decode_ops(argv), "timing.values_sorted": 0,
            "channel.steps": 0, "channel.trials": 0, "analysis.calls": 0}


def _replay_decode(seed: int):
    """Decode a seeded sample of subsets through the library on the workload's
    shape and compare each with an independent least-squares solve of the
    same stacked system.  The reference inputs come from the benchmark's own
    generator, not from the program's streams."""
    gen = np.random.default_rng([seed, 1])
    a = gen.standard_normal((DECODE_R, DECODE_M))
    x = gen.standard_normal(DECODE_M)
    y = a @ x
    y_norm = np.linalg.norm(y)
    params = ClusterParams(n=DECODE_N, k=DECODE_K, r=DECODE_R, a=0.0, mu=1.0)
    subsets = [sorted(int(i) + 1 for i in gen.choice(DECODE_N, DECODE_K, replace=False))
               for _ in range(REPLAY_SUBSETS)]
    jobs = {
        "systematic": encode_systematic_mds(a, x, params),
        "random": encode_random_linear(a, x, params, RngStream(seed, 1)),
    }
    for scheme, job in jobs.items():
        tol = DECODE_TOL[scheme]
        for worker, (block, assignment) in enumerate(zip(job.coding, job.assignments), start=1):
            scale = np.abs(block).max() * np.abs(a).max() * DECODE_R
            _require(np.allclose(assignment, block @ a, rtol=1e-12, atol=1e-12 * scale),
                     f"{scheme}: worker {worker} does not hold its coding block times A")
        for subset in subsets:
            stacked = np.vstack([job.coding[i - 1] for i in subset])
            z = np.concatenate([job.assignments[i - 1] @ x for i in subset])
            oracle_err = np.linalg.norm(np.linalg.lstsq(stacked, z, rcond=None)[0] - y) / y_norm
            err = float(np.linalg.norm(decode_from_workers(job, subset).y_hat - y) / y_norm)
            reported, _ = recovery_error(job, subset)
            _require(math.isclose(reported, err, rel_tol=1e-9, abs_tol=1e-15),
                     f"{scheme} subset {subset}: recovery_error {reported!r}, measured {err!r}")
            if oracle_err <= tol / 100:
                _require(err <= tol, f"{scheme} subset {subset}: error {err!r} where a "
                                     f"least-squares solve reaches {float(oracle_err)!r}")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mc-n100",
            round_argv=_mc_round, ops=_mc_ops, check=_check_montecarlo,
            expected_counts=_mc_counts, trace_rounds=12,
        ),
        Workload(
            name="speedup-ladder",
            round_argv=_ladder_round, ops=_ladder_ops, check=_check_speedup,
            expected_counts=_ladder_counts, trace_rounds=6,
        ),
        Workload(
            name="decode-anyk",
            round_argv=_decode_round, ops=_decode_ops, check=_check_decode,
            expected_counts=_decode_counts, trace_rounds=1, replay=_replay_decode,
        ),
    )
}

