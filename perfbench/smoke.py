#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

Checks BENCHMARK.json's names and units, then runs every workload for one
second in both trace modes and checks that the last line of output is the
result object, with every declared metric under its declared unit, and
that the outputs were correct.  Last, it checks that the benchmark refuses
to run in a directory holding only BENCHMARK.json and the benchmark's own
files.  Exits 1 on the first problem, 0 when all pass (about a minute).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def require(condition: bool, message: str):
    if not condition:
        print(f"smoke: FAIL {message}")
        raise SystemExit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    sections = {"end_to_end": declared["end_to_end"], "per_layer": declared["per_layer"]}
    every = names + [m["name"] for metrics in sections.values() for m in metrics]
    require(len(every) == len(set(every)), "a name is used twice")
    for name in every:
        require(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    for metrics in sections.values():
        for metric in metrics:
            require(UNIT.fullmatch(metric["unit"]) is not None, f"bad unit {metric['unit']!r}")
    require(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
                for m in declared["end_to_end"]), "no setup_s metric")

    for workload in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            require(done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}: "
                                          f"{done.stderr[-1000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload} trace {trace}: result keys {sorted(result)}")
            require(result["correct"] is True, f"{workload} trace {trace}: outputs incorrect")
            require(isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int), f"{workload}: bad counts")
            want = {m["name"]: m["unit"] for m in sections[section]}
            got = {name: value["unit"] for name, value in result["metrics"].items()}
            require(got == want, f"{workload} trace {trace}: metrics {got} != declared {want}")
            for name, value in result["metrics"].items():
                require(isinstance(value["value"], (int, float)), f"{workload}: {name} not a number")
            print(f"smoke: ok {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = run(bare, names[0], 0)
    shutil.rmtree(bare)
    require(done.returncode != 0 and not done.stdout.strip(),
            "the benchmark ran in a directory without the program")
    print("smoke: ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
