"""Command-line front end for the simulator, analysis, and experiment sweeps.

Each command returns its records and `main` alone writes them.  Exit codes:
0 success, 1 usage, configuration or file error, 2 exactly when the last
record holds `pass=false` (verify and decode-check).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

from .analysis import (
    RegimeFamily,
    classify_regime,
    expectation_bracket_coded,
    expected_runtime_regime3,
    optimize_k,
    pipeline_index,
)
from .channel import CommModel, run_coded_trial
from .coding import check_any_k, encode_random_linear, encode_systematic_mds
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
    switches: tuple = ()  # (flag, help) of each on/off flag, read from args

    @property
    def keys(self) -> tuple:
        return (*self.required, *self.optional, "out", "format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: nothing changes
    it after it is built, and parse_args keeps no state between calls."""
    parser = _Parser(prog="codedmatvec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no abbreviations: `--n` must not stand for `--ns`, nor `--m` for `--mu`
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        for key in command.keys:
            p.add_argument("--" + key.replace("_", "-"))
        for flag, text in command.switches:
            p.add_argument("--" + flag, action="store_true", help=text)
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
        records = command.handler(config, args)
        _write(records, config)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1
    return 2 if ("pass", False) in records[-1] else 0


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


def _code(config: RunConfig) -> tuple[ClusterParams, CommModel]:
    """The code the scheme runs on the cluster as given (the uncoded scheme
    is the (n, n) code) and that code's channel."""
    params = ClusterParams(n=config.n, k=config.k, r=config.r, a=config.a, mu=config.mu)
    code = params.uncoded() if config.scheme == "uncoded" else params
    return code, CommModel.coded(code, config.t1cmm)


def _cmd_simulate(config: RunConfig, args) -> list:
    code, comm = _code(config)
    times = None if config.inject is None else inject_comp_times(config.inject)
    t, metrics = run_coded_trial(code, comm, RngStream(config.seed, 0), times)
    if config.format == "csv":
        return [
            [("rank", i + 1), ("comp_finish", f"{t.comp_finish[i]:.9f}"),
             ("comm_start", f"{t.comm_start[i]:.9f}"), ("comm_end", f"{t.comm_end[i]:.9f}")]
            for i in range(t.needed)
        ]
    return [[("needed", t.needed), ("t_cmm", t.t_cmm), ("t_total", t.t_total),
             *vars(metrics).items()]]


def _cmd_montecarlo(config: RunConfig, args) -> list:
    code, comm = _code(config)
    mc, agg = monte_carlo(code, comm, config.trials, config.seed)
    return [[
        ("scheme", config.scheme), ("n", config.n), ("k", config.k), ("r", config.r),
        ("trials", mc.trials), ("mean", mc.mean), ("variance", mc.variance),
        ("stderr", mc.stderr), ("ci95_halfwidth", mc.ci95_halfwidth),
        ("frac_lower_bound_hit", agg.frac_lower_bound_hit),
        ("mean_completed_by_comp_k", agg.mean_completed_by_comp_k),
        ("mean_q_idle", agg.mean_q_idle),
        ("mean_busy_fraction", agg.mean_busy_fraction),
    ]]


def _cmd_sweep(config: RunConfig, args) -> list:
    rows = sweep_regime(
        RegimeFamily(c=config.c, beta=config.beta), config.ns, config.k_fraction,
        a=config.a, mu=config.mu, trials=config.trials, seed=config.seed,
    )
    return [
        [("n", row.n), ("k", row.k), ("r", row.r), ("beta", row.beta), ("c", row.c),
         ("t_cmm", row.t_cmm), ("mean", row.mc.mean), ("stderr", row.mc.stderr),
         ("trials", row.mc.trials), ("frac_lower_bound_hit", row.frac_lower_bound_hit),
         ("mean_completed_by_comp_k", row.mean_completed_by_comp_k),
         ("closed_form", row.closed_form_leading), ("gap", row.gap)]
        for row in rows
    ]


def _cmd_speedup(config: RunConfig, args) -> list:
    points = speedup_curve(
        config.ns, config.k_fraction,
        a=config.a, mu=config.mu, family=RegimeFamily(c=config.c, beta=config.beta),
        trials=config.trials, seed=config.seed,
        optimize=not args.fix_k,
    )
    return [vars(point).items() for point in points]


def _cmd_optimize_k(config: RunConfig, args) -> list:
    k_star, value = optimize_k(
        config.n, config.r, config.a, config.mu,
        comm_at_k=lambda k: (config.r / k) * config.t1cmm,
        require_divisor=args.require_divisor,
    )
    return [[("k_star", k_star), ("expected_runtime", value)]]


def _cmd_expect(config: RunConfig, args) -> list:
    # the record keeps the k given
    code, comm = _code(config)
    bracket = expectation_bracket_coded(code, comm)
    record = [
        ("scheme", config.scheme), ("n", config.n), ("k", config.k), ("r", config.r),
        ("t0", code.t0), ("alpha", code.alpha), ("t_cmm", comm.t_cmm),
        ("lower", bracket.lower), ("upper", bracket.upper),
    ]
    if config.scheme == "uncoded":
        record.append(("expected_Tn", expected_order_stat(code, code.n)))
    else:
        record += [
            ("regime3_leading", expected_runtime_regime3(code)),
            ("pipeline_p", pipeline_index(code.n, code.alpha, comm.t_cmm)),
            ("expected_Tk", expected_order_stat(code, code.k)),
            ("variance_Tk", variance_order_stat(code, code.k)),
        ]
    if config.beta is not None:
        record.append(("regime", classify_regime(config.beta)))
    return [record]


def _cmd_decode_check(config: RunConfig, args) -> list:
    params = ClusterParams(n=config.n, k=config.k, r=config.r, a=0.0, mu=1.0)
    rng = RngStream(config.seed, 0)
    a_matrix = rng.standard_normals((config.r, config.m))
    x = rng.standard_normals(config.m)
    job = (encode_systematic_mds(a_matrix, x, params) if config.scheme == "systematic"
           else encode_random_linear(a_matrix, x, params, rng))
    # sampled subsets are drawn from rng after the random code's draws
    check = check_any_k(job, config.scheme, config.trials, rng)
    return [[
        ("scheme", config.scheme), ("n", config.n), ("k", config.k), ("r", config.r),
        ("m", config.m), ("subsets_checked", check.subsets_checked),
        ("exhaustive", check.exhaustive),
        ("tolerance", check.tolerance), ("max_relative_error", check.max_relative_error),
        ("failures", check.failures), ("unflagged_failures", check.unflagged_failures),
        ("recovered_fraction", check.recovered_fraction), ("pass", check.passed),
    ]]


def _cmd_verify(config: RunConfig, args) -> list:
    code, comm = _code(config)
    report = verify_transmission_lemmas(code, comm, config.trials, config.seed)
    return [[*vars(report).items(), ("pass", report.sandwich_violations == 0)]]


_CLUSTER = ("n", "k", "r", "a", "mu", "t1cmm")
_LADDER = ("ns", "a", "mu", "beta", "c")

# Each command gets a flag, and reads a config key, only for the keys listed
# here (plus --config, --out and --format) and its switches; a config file
# may hold any key.
COMMANDS = {
    "simulate": _Command(_cmd_simulate, "run one trial and emit its timeline", _CLUSTER,
                         ("scheme", "inject", "seed"), ("coded", "uncoded"), "csv"),
    "montecarlo": _Command(_cmd_montecarlo, "aggregate run-times over repeated trials",
                           _CLUSTER, ("scheme", "trials", "seed"), ("coded", "uncoded")),
    "sweep": _Command(_cmd_sweep, "regime sweep over a ladder of n", _LADDER,
                      ("k_fraction", "trials", "seed"), default_format="csv"),
    "speedup": _Command(_cmd_speedup, "coded vs uncoded mean run-time ratio per n", _LADDER,
                        ("k_fraction", "trials", "seed"), default_format="csv",
                        switches=(("fix-k", "use k = round(k_fraction * n) instead of the "
                                            "leading-term optimum"),)),
    "optimize-k": _Command(_cmd_optimize_k, "scan for the leading-term-optimal k",
                           ("n", "r", "a", "mu", "t1cmm"),
                           switches=(("require-divisor", "restrict the scan to k dividing r, "
                                                         "the codes decode-check can encode"),)),
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
