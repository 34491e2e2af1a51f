"""Command-line front end for the simulator, analysis, and experiment sweeps.

Exit codes: 0 success, 1 configuration/validation error, 2 verification
failure (verify and decode-check only).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    RegimeFamily,
    classify_regime,
    expectation_bracket_coded,
    expected_runtime_regime3,
    optimize_k,
    pipeline_index,
)
from .channel import CommModel, run_coded_trial, run_uncoded_trial
from .coding import encode_random_linear, encode_systematic_mds, recovery_error
from .config import ConfigError, RunConfig, parse_config
from .experiments import monte_carlo, speedup_curve, sweep_regime, verify_transmission_lemmas
from .rng import RngStream
from .timing import ClusterParams, expected_order_stat, inject_comp_times, variance_order_stat


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; reserve 2 for
    # verification failures and report usage problems as status 1
    def error(self, message):
        raise _UsageError(message)


class _Command(NamedTuple):
    handler: Callable
    help: str
    required: tuple  # checked in this order; each must be set by flag or file
    optional: tuple = ()  # the other keys the command reads
    schemes: tuple = ()  # the accepted values of `scheme`, when it is read
    default_format: str = "text"

    @property
    def keys(self) -> tuple:
        return (*self.required, *self.optional, "out", "format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codedmatvec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no abbreviations: `--n` must not stand for `--ns`, nor `--m` for `--mu`
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for key in command.keys:
            p.add_argument("--" + key.replace("_", "-"))
    sub.choices["speedup"].add_argument(
        "--fix-k", action="store_true",
        help="use k = round(k_fraction * n) instead of the leading-term optimum")
    sub.choices["optimize-k"].add_argument(
        "--require-divisor", action="store_true", help="restrict the scan to k dividing r")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    command = COMMANDS[args.command]
    try:
        config = _load_config(args, command)
        return command.handler(config, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_config(args, command) -> RunConfig:
    contents = Path(args.config).read_text() if args.config is not None else ""
    config = parse_config(contents, {key: getattr(args, key) for key in command.keys})
    # a command that reads `scheme` without requiring it runs its first scheme
    scheme = command.schemes[0] if "scheme" in command.optional else None
    config = replace(config, format=config.format or command.default_format,
                     scheme=config.scheme or scheme)
    for key in command.required:
        if getattr(config, key) is None:
            raise ConfigError(f"{key}: required for this command")
    if command.schemes and config.scheme not in command.schemes:
        raise ConfigError(f"scheme: {args.command} takes {' or '.join(command.schemes)}, "
                          f"got {config.scheme!r}")
    return config


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write(records, config: RunConfig):
    """Write records, each a sequence of (key, value) pairs, to --out or
    stdout: `key=value` lines with a blank line between records, or a CSV
    header of the first record's keys followed by one row per record."""
    records = [[(key, _cell(value)) for key, value in record] for record in records]
    if config.format == "csv":
        rows = [[key for key, _ in records[0]], *([v for _, v in rec] for rec in records)]
        text = "".join(",".join(row) + "\n" for row in rows)
    else:
        text = "\n".join("".join(f"{key}={v}\n" for key, v in rec) for rec in records)
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _params(config: RunConfig) -> ClusterParams:
    return ClusterParams(n=config.n, k=config.k, r=config.r, a=config.a, mu=config.mu)


def _comm(config: RunConfig, params: ClusterParams) -> CommModel:
    if config.scheme == "uncoded":
        return CommModel.uncoded(params, config.t1cmm)
    return CommModel.coded(params, config.t1cmm)


def _cmd_simulate(config: RunConfig, args) -> int:
    params = _params(config)
    comm = _comm(config, params)
    run = run_uncoded_trial if config.scheme == "uncoded" else run_coded_trial
    if config.inject is not None:
        t, metrics = run(params, comm, times=inject_comp_times(config.inject))
    else:
        t, metrics = run(params, comm, RngStream(config.seed, 0))
    if config.format == "csv":
        records = [
            [("rank", i + 1), ("comp_finish", f"{t.comp_finish[i]:.9f}"),
             ("comm_start", f"{t.comm_start[i]:.9f}"), ("comm_end", f"{t.comm_end[i]:.9f}")]
            for i in range(t.needed)
        ]
    else:
        records = [[("needed", t.needed), ("t_cmm", t.t_cmm), ("t_total", t.t_total),
                    *vars(metrics).items()]]
    _write(records, config)
    return 0


def _cmd_montecarlo(config: RunConfig, args) -> int:
    params = _params(config)
    comm = _comm(config, params)
    mc, agg = monte_carlo(params, comm, config.trials, config.seed, scheme=config.scheme)
    _write([[
        ("scheme", config.scheme), ("n", params.n), ("k", params.k), ("r", params.r),
        ("trials", mc.trials), ("mean", mc.mean), ("variance", mc.variance),
        ("stderr", mc.stderr), ("ci95_halfwidth", mc.ci95_halfwidth),
        ("frac_lower_bound_hit", agg.frac_lower_bound_hit),
        ("mean_completed_by_comp_k", agg.mean_completed_by_comp_k),
        ("mean_q_idle", agg.mean_q_idle),
        ("mean_busy_fraction", agg.mean_busy_fraction),
    ]], config)
    return 0


def _cmd_sweep(config: RunConfig, args) -> int:
    rows = sweep_regime(
        RegimeFamily(c=config.c, beta=config.beta), config.ns, config.k_fraction,
        a=config.a, mu=config.mu, trials=config.trials, seed=config.seed,
    )
    for row in rows:
        if row.error is not None:
            print(f"error: n={row.n}: {row.error}", file=sys.stderr)
    if all(row.error is not None for row in rows):
        return 1
    _write([
        [("n", row.n), ("k", row.k), ("r", row.r), ("beta", row.beta), ("c", row.c),
         ("t_cmm", row.t_cmm), ("mean", row.mc.mean), ("stderr", row.mc.stderr),
         ("trials", row.mc.trials), ("frac_lower_bound_hit", row.frac_lower_bound_hit),
         ("mean_completed_by_comp_k", row.mean_completed_by_comp_k),
         ("closed_form", row.closed_form_leading), ("gap", row.gap)]
        for row in rows if row.error is None
    ], config)
    return 0


def _cmd_speedup(config: RunConfig, args) -> int:
    points = speedup_curve(
        config.ns, config.k_fraction,
        a=config.a, mu=config.mu, family=RegimeFamily(c=config.c, beta=config.beta),
        trials=config.trials, seed=config.seed,
        optimize=not args.fix_k,
    )
    _write([vars(point).items() for point in points], config)
    return 0


def _cmd_optimize_k(config: RunConfig, args) -> int:
    k_star, value = optimize_k(
        config.n, config.r, config.a, config.mu,
        comm_at_k=lambda k: (config.r / k) * config.t1cmm,
        require_divisor=args.require_divisor,
    )
    _write([[("k_star", k_star), ("expected_runtime", value)]], config)
    return 0


def _cmd_expect(config: RunConfig, args) -> int:
    params = _params(config)
    comm = _comm(config, params)
    # the uncoded scheme is the (n, n) code; the record keeps the k given
    code = params.uncoded() if config.scheme == "uncoded" else params
    bracket = expectation_bracket_coded(code, comm)
    record = [
        ("scheme", config.scheme), ("n", params.n), ("k", params.k), ("r", params.r),
        ("t0", code.t0), ("alpha", code.alpha), ("t_cmm", comm.t_cmm),
        ("lower", bracket.lower), ("upper", bracket.upper),
    ]
    if config.scheme == "uncoded":
        record.append(("expected_Tn", expected_order_stat(code, code.n)))
    else:
        record += [
            ("regime3_leading", expected_runtime_regime3(params)),
            ("pipeline_p", pipeline_index(params.n, params.alpha, comm.t_cmm)),
            ("expected_Tk", expected_order_stat(params, params.k)),
            ("variance_Tk", variance_order_stat(params, params.k)),
        ]
    if config.beta is not None:
        # the regime depends on beta alone
        record.append(("regime", classify_regime(RegimeFamily(c=1.0, beta=config.beta)).value))
    _write([record], config)
    return 0


def _cmd_decode_check(config: RunConfig, args) -> int:
    params = ClusterParams(n=config.n, k=config.k, r=config.r, a=0.0, mu=1.0)
    rng = RngStream(config.seed, 0)
    a_matrix = rng.standard_normals((config.r, config.m))
    x = rng.standard_normals(config.m)

    if config.scheme == "systematic":
        job = encode_systematic_mds(a_matrix, x, params)
        tol = 1e-10
    else:
        job = encode_random_linear(a_matrix, x, params, rng)
        tol = 1e-8

    total_subsets = math.comb(config.n, config.k)
    exhaustive = total_subsets <= 20_000
    if exhaustive:
        subsets = itertools.combinations(range(1, config.n + 1), config.k)
        checked = total_subsets
    else:
        checked = min(config.trials, 20_000)
        subsets = (
            sorted(np.argsort(rng.uniforms(config.n))[: config.k] + 1)
            for _ in range(checked)
        )

    failures = 0
    unflagged = 0
    max_err = 0.0
    for subset in subsets:
        err, ok = recovery_error(job, subset)
        max_err = max(max_err, err)
        if err > tol:
            failures += 1
            if ok:
                unflagged += 1
    recovered = (checked - failures) / checked
    if config.scheme == "systematic":
        passed = failures == 0
    else:
        passed = recovered >= 0.99 and unflagged == 0
    _write([[
        ("scheme", config.scheme), ("n", config.n), ("k", config.k), ("r", config.r),
        ("m", config.m), ("subsets_checked", checked), ("exhaustive", exhaustive),
        ("tolerance", tol), ("max_relative_error", max_err),
        ("failures", failures), ("unflagged_failures", unflagged),
        ("recovered_fraction", recovered), ("pass", passed),
    ]], config)
    return 0 if passed else 2


def _cmd_verify(config: RunConfig, args) -> int:
    params = _params(config)
    comm = _comm(config, params)
    report = verify_transmission_lemmas(params, comm, config.trials, config.seed)
    passed = report.sandwich_violations == 0
    _write([[*vars(report).items(), ("pass", passed)]], config)
    return 0 if passed else 2


_CLUSTER = ("n", "k", "r", "a", "mu", "t1cmm")
_LADDER = ("ns", "a", "mu", "beta", "c")

# Each command gets a flag, and reads a config key, only for the keys listed
# here (plus --config, --out and --format); a config file may hold any key.
COMMANDS = {
    "simulate": _Command(_cmd_simulate, "run one trial and emit its timeline", _CLUSTER,
                         ("scheme", "inject", "seed"), ("coded", "uncoded"), "csv"),
    "montecarlo": _Command(_cmd_montecarlo, "aggregate run-times over repeated trials",
                           _CLUSTER, ("scheme", "trials", "seed"), ("coded", "uncoded")),
    "sweep": _Command(_cmd_sweep, "regime sweep over a ladder of n", _LADDER,
                      ("k_fraction", "trials", "seed"), default_format="csv"),
    "speedup": _Command(_cmd_speedup, "coded vs uncoded mean run-time ratio per n", _LADDER,
                        ("k_fraction", "trials", "seed"), default_format="csv"),
    "optimize-k": _Command(_cmd_optimize_k, "scan for the leading-term-optimal k",
                           ("n", "r", "a", "mu", "t1cmm")),
    "expect": _Command(_cmd_expect, "closed-form expectations for one configuration", _CLUSTER,
                       ("scheme", "beta"), ("coded", "uncoded")),
    "decode-check": _Command(_cmd_decode_check, "verify any-k recovery of the coding scheme",
                             ("n", "k", "r", "scheme"), ("m", "seed", "trials"),
                             ("systematic", "random")),
    "verify": _Command(_cmd_verify, "check the run-time sandwich and transmission counts",
                       _CLUSTER, ("scheme", "trials", "seed"), ("coded",)),
}


if __name__ == "__main__":
    raise SystemExit(main())
