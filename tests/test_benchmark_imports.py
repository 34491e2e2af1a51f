"""The benchmark under perfbench/ imports names from the package; a change
that deletes or renames one of them breaks every benchmark run.  This
reads the benchmark's files as text, so it also sees imports inside the
code strings that run.py hands to fresh interpreters."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from codedmatvec.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
IMPORT = re.compile(r"^\s*from (codedmatvec(?:\.\w+)*) import (\([^)]*\)|.*)$", re.MULTILINE)


def benchmark_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, names in IMPORT.findall(path.read_text()):
            for name in names.strip("()").replace("\n", " ").split(","):
                if name.strip():
                    yield path.name, module, name.split(" as ")[0].strip()


def test_the_benchmark_imports_from_the_package():
    assert {(path, module) for path, module, _ in benchmark_imports()} >= {
        ("workloads.py", "codedmatvec.coding"), ("run.py", "codedmatvec.cli")}


@pytest.mark.parametrize("path, module, name", list(benchmark_imports()))
def test_every_name_the_benchmark_imports_exists(path, module, name):
    assert hasattr(importlib.import_module(module), name), f"{path}: {module}.{name}"


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded without writing a bytecode cache there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_decode_workload_checks_pass(workloads, capsys):
    # the decode-anyk workload's own output checks, so that a decode change the
    # benchmark would judge outputs_incorrect fails here first; its round-0
    # calls at seeds 101-103 (run.py's call_seed(s, 0) = s * 1000003) must
    # fail no subset, so that lost decodes fail here and not as a noisy ok_frac
    assert (workloads.DECODE_N, workloads.DECODE_K, workloads.DECODE_R,
            workloads.DECODE_M) == (16, 8, 64, 5)
    for seed in (101, 102):
        workloads._replay_decode(seed)
    for seed in (101000303, 102000306, 103000309):
        schemes = []
        for argv in workloads._decode_round(seed):
            rc = main(argv)
            assert workloads._check_decode(argv, rc, capsys.readouterr().out)["failed"] == 0, argv
            schemes.append(argv[argv.index("--scheme") + 1])
        assert schemes == ["systematic", "random"]


@pytest.mark.parametrize("round_name, check_name", [
    ("_mc_round", "_check_montecarlo"), ("_ladder_round", "_check_speedup")],
    ids=["mc-n100", "speedup-ladder"])
def test_the_monte_carlo_workload_checks_pass(workloads, capsys, round_name, check_name):
    # each Monte Carlo workload's round-0 call at seed 101 (call_seed(101, 0)),
    # through that workload's own output check, so that a library change the
    # benchmark would judge outputs_incorrect fails here first
    for argv in getattr(workloads, round_name)(101000303):
        rc = main(argv)
        assert getattr(workloads, check_name)(argv, rc, capsys.readouterr().out) == {"failed": 0}
