#!/usr/bin/env python3
"""Benchmark of the codedmatvec command-line paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ./src.
Each workload drives `codedmatvec.cli.main` in this one process, with the
BLAS thread count pinned.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics without tracing: CLI calls
repeat for --seconds seconds while speed.py samples the machine's speed,
and every output is checked.  Set-up time is measured in fresh
interpreters, several times.

--trace 1 runs a fixed amount of work, each call twice back to back:
plain, and with spans recorded around the public functions of the
package's modules (see spans.py).  It reports per-layer self times and
exact counts.  Both runs of a call must print identical outputs.

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# pinned before numpy loads, so every run uses the same BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import START_REF_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 15  # timed fresh interpreters per run, after one warm-up
# Set-up interpreters keep their bytecode cache inside the tree, as an
# installed package would have one, whatever the caller's environment says.
SETUP_ENV = {key: value for key, value in os.environ.items()
             if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
SETUP_ENV["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")

# The CLI user's set-up: a fresh interpreter imports the CLI and parses the
# command line and configuration, stopping before the first operation.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from dataclasses import fields
from codedmatvec.cli import build_parser
from codedmatvec.config import RunConfig, parse_config
args = build_parser().parse_args(sys.argv[2:])
keys = {f.name for f in fields(RunConfig)}
parse_config("", {k: v for k, v in vars(args).items() if k in keys and v is not None})
"""


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_declared() -> dict:
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return declared


def import_package():
    """Import the package from ./src, never from an installed copy."""
    if not (SRC / "codedmatvec" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'codedmatvec'}")
    sys.path.insert(0, str(SRC))
    import codedmatvec.cli

    if not Path(codedmatvec.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"codedmatvec was imported from {codedmatvec.cli.__file__}, not from {SRC}")
    return codedmatvec.cli


def call_seed(seed: int, round_index: int) -> int:
    """The seed given to the CLI in round `round_index` of a run."""
    return (seed * 1_000_003 + round_index) % 2**63


@dataclass
class Call:
    argv: list
    rc: int
    out: str
    seconds: float
    slowness: float | None = None
    recoveries: list | None = None
    counts: dict = field(default_factory=dict)


def run_call(cli, argv, probe=None) -> Call:
    """One in-process CLI call.  With a running probe, the time its kernel
    took during the call is taken out of the call's seconds."""
    out, err = io.StringIO(), io.StringIO()
    stolen = probe.stolen if probe else 0.0
    first = len(probe.samples) if probe else 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(list(argv))  # looked up per call, so a traced main is used
        seconds = time.perf_counter() - start
    call = Call(list(argv), rc, out.getvalue(), seconds)
    if probe:
        call.seconds -= probe.stolen - stolen
        call.slowness = probe.slowness(first)
    return call


def summary(values) -> dict:
    values = sorted(values)
    q1, q3 = (values[0], values[0]) if len(values) == 1 else statistics.quantiles(values, n=4)[::2]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(argv) -> list[tuple[float, float]]:
    """(set-up seconds, bare interpreter start-up seconds) for each timed
    fresh interpreter, the bare one started right before it."""
    commands = ([sys.executable, "-c", "pass"],
                [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *argv])
    pairs = []
    for _ in range(SETUP_SPAWNS + 1):
        pair = []
        for command in commands:
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, env=SETUP_ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=60, check=False)
            pair.append(time.perf_counter() - start)
            if done.returncode != 0:
                fail(f"set-up interpreter exited {done.returncode}: {done.stderr.decode()[-500:]}")
        bare, seconds = pair
        pairs.append((seconds, bare))
    return pairs[1:]  # the first pair may write the bytecode cache


def check_calls(workload, calls) -> list[str]:
    """Check every call's output; fill each call's counts; return errors."""
    from workloads import CheckError

    errors = []
    for index, call in enumerate(calls):
        try:
            call.counts = workload.check(call.argv, call.rc, call.out, call.recoveries)
        except CheckError as exc:
            errors.append(f"call {index} ({' '.join(call.argv)}): {exc}")
    return errors


def run_replay(workload, seed) -> list[str]:
    from workloads import CheckError

    if workload.replay is None:
        return []
    try:
        workload.replay(seed)
    except CheckError as exc:
        return [f"replay: {exc}"]
    return []


def digest(calls) -> str:
    return hashlib.sha256("".join(call.out for call in calls).encode()).hexdigest()


def untraced_run(cli, workload, seed, seconds):
    probe = SpeedProbe()
    setup = measure_setup(workload.round_argv(call_seed(seed, 0))[0])
    calls = []
    rounds = 0
    probe.start()
    try:
        start = time.perf_counter()
        while True:
            calls += [run_call(cli, argv, probe)
                      for argv in workload.round_argv(call_seed(seed, rounds))]
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop before a round that, at the mean pace so far, ends late
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        probe.stop()
    if not probe.samples:  # a run shorter than the probe's interval
        probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    first_round = calls[: len(calls) // rounds]
    errors = check_calls(workload, calls) + run_replay(workload, seed)
    attempted = sum(workload.ops(call.argv) for call in calls)
    failed = attempted if errors else sum(call.counts["failed"] for call in calls)

    run_slowness = probe.slowness()
    raw_rates = [workload.ops(call.argv) / call.seconds for call in calls]
    rates = summary(rate * (call.slowness or run_slowness) for rate, call in zip(raw_rates, calls))
    setup_s = summary(seconds * START_REF_S / bare for seconds, bare in setup)
    detail = {
        "ops_per_s": dict(rates, unit="ops/s", of="CLI calls, at reference speed",
                          raw=summary(raw_rates)),
        "setup_s": dict(setup_s, unit="s", of="fresh interpreters, at reference speed",
                        raw=summary(seconds for seconds, _ in setup),
                        bare_start=summary(bare for _, bare in setup)),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "of": "this process"},
        "ok_frac": {"value": 1 - failed / attempted, "failed_frac": failed / attempted,
                    "unit": "frac"},
    }
    metrics = {
        "ops_per_s": rates["median"],
        "setup_s": setup_s["median"],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / attempted,
    }
    info = {
        "rounds": rounds, "calls": len(calls), "elapsed_s": elapsed,
        "slowness": {"run": run_slowness, "kernel_runs": len(probe.samples),
                     "kernel_stolen_s": probe.stolen},
        "output_sha256": digest(first_round),
    }
    return metrics, detail, info, attempted, failed, errors


def traced_run(cli, workload, seed):
    from spans import COUNT_METRICS, TIME_METRICS, Tracer

    argvs = [argv for j in range(workload.trace_rounds)
             for argv in workload.round_argv(call_seed(seed, j))]
    tracer = Tracer()

    def traced_call(argv):
        tracer.install()
        try:
            call = run_call(cli, argv)
        finally:
            tracer.uninstall()
        call.recoveries = tracer.take_recoveries()
        return call

    # Each call runs plain and traced back to back, alternating which goes
    # first, so a drift in machine speed falls on both sides of the
    # tracing-overhead ratio.
    plain, traced = [], []
    for index, argv in enumerate(argvs):
        if index % 2:
            traced.append(traced_call(argv))
            plain.append(run_call(cli, argv))
        else:
            plain.append(run_call(cli, argv))
            traced.append(traced_call(argv))

    errors = check_calls(workload, traced) + run_replay(workload, seed)
    for index, (a, b) in enumerate(zip(plain, traced)):
        if a.out != b.out or a.rc != b.rc:
            errors.append(f"call {index}: traced output differs from the untraced one")
    attempted = sum(workload.ops(argv) for argv in argvs)
    failed = attempted if errors else sum(call.counts["failed"] for call in traced)
    plain_s = sum(call.seconds for call in plain)
    traced_s = sum(call.seconds for call in traced)

    counts = dict(tracer.counts)
    counts["analysis.calls"] = sum(n for name, n in tracer.calls.items()
                                   if name.startswith("analysis."))
    expected = {}
    for call in traced:
        for key, value in workload.expected_counts(call.argv, call.out).items():
            expected[key] = expected.get(key, 0) + value
    count_check = {key: {"counted": counts.get(key, 0), "formula": value,
                         "match": counts.get(key, 0) == value}
                   for key, value in expected.items()}

    decodes = counts.get("coding.decodes", 0)
    values_sorted = counts.get("timing.values_sorted", 0)
    metrics = {name: tracer.self_s[name] for name in TIME_METRICS}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics.update({
        "analysis.calls": counts["analysis.calls"],
        "timing.used_frac": counts.get("channel.steps", 0) / values_sorted if values_sorted else 0.0,
        "coding.unflagged": sum(call.counts.get("unflagged", 0) for call in traced),
        "coding.recovered_frac": 1 - failed / decodes if decodes else 0.0,
        "trace.unattributed_s": traced_s - sum(tracer.self_s.values()),
        "trace.ops_per_s": attempted / traced_s,
        "trace.slowdown": traced_s / plain_s,
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.save(spans_path)
    info = {
        "rounds": workload.trace_rounds, "calls": len(traced), "traced_s": traced_s,
        "untraced_s": plain_s, "untraced_ops_per_s": attempted / plain_s,
        "spans": len(tracer.span_start), "spans_file": str(spans_path.relative_to(ROOT)),
        "span_calls": dict(tracer.calls), "missing_functions": tracer.missing,
        "counts_vs_formulas": count_check,
        "output_sha256": digest(traced[: len(traced) // workload.trace_rounds]),
    }
    return metrics, {}, info, attempted, failed, errors


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    declared = load_declared()
    cli = import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    if args.trace:
        result = traced_run(cli, workload, args.seed)
        section = "per_layer"
    else:
        result = untraced_run(cli, workload, args.seed, args.seconds)
        section = "end_to_end"
    metrics, detail, info, attempted, failed, errors = result
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section} {sorted(units)}")

    record = {
        "provenance": provenance(args),
        "info": info,
        "detail": detail,
        "errors": errors,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    for line in errors:
        print(f"CHECK FAILED {line}")
    for key, value in info.items():
        print(f"info {key} {json.dumps(value)}")
    for name in units:
        extra = detail.get(name, {})
        print(f"metric {name} {metrics[name]!r} {units[name]} {json.dumps(extra) if extra else ''}")
    print(f"failed_frac {failed / attempted!r} ({failed} failed / {attempted} attempted)")
    print(f"result file {result_path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
