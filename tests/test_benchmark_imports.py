"""The benchmark under perfbench/ imports names from the package; a change
that deletes or renames one of them breaks every benchmark run.  This
reads the benchmark's files as text, so it also sees imports inside the
code strings that run.py hands to fresh interpreters."""

import importlib
import re
from pathlib import Path

import pytest

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
