"""tests/mutants.py takes minutes to run, so a refactor that rewrites a
mutated line would otherwise go unnoticed until someone runs it; this
checks in a moment that every listed mutant still applies, that the kill
table names a failing test by its whole id, and that a SIGTERM stops the
script without leaving its suite or its copy behind."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "codedmatvec"


def load_mutants():
    """tests/mutants.py, loaded without writing a bytecode cache."""
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


MODULE = load_mutants()
MUTANTS = MODULE.MUTANTS


@pytest.mark.parametrize("name, file, text, replacement", MUTANTS,
                         ids=[name for name, *_ in MUTANTS])
def test_each_mutant_applies_exactly_once(name, file, text, replacement):
    assert (PACKAGE / file).read_text().count(text) == 1
    assert text != replacement


@pytest.mark.parametrize("line, test", [
    ("FAILED tests/test_cli.py::test_parse_invalid_value_exact_message[trials = 0] - "
     "AssertionError: Regex pattern did not match.",
     "tests/test_cli.py::test_parse_invalid_value_exact_message[trials = 0]"),
    ("ERROR tests/test_coding.py::test_a[uint64 max] - fixture 'job' not found",
     "tests/test_coding.py::test_a[uint64 max]"),
    ("FAILED tests/test_coding.py::test_a[object holding 2**70]",
     "tests/test_coding.py::test_a[object holding 2**70]"),
], ids=["failed", "error", "no message"])
def test_the_first_failing_test_is_read_whole(line, test):
    # pytest -q's short test summary, as run_suite reads it
    stdout = (".F\n=========================== short test summary info "
              f"============================\n{line}\n"
              "FAILED tests/test_cli.py::test_other - assert 1 == 2\n"
              "!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
              "1 failed, 1 passed in 0.50s\n")
    assert MODULE.first_failure(stdout) == test
    assert MODULE.first_failure("2 passed in 0.50s\n") is None


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_sigterm_kills_the_suite_and_removes_the_copy(tmp_path):
    # a stand-in pytest, first on the child's path, records its pid and
    # working directory (the repo copy) and then sleeps.  The script runs
    # with no mutants, so a stale mutant text fails only the test above
    record = tmp_path / "record.json"
    (tmp_path / "pytest.py").write_text(textwrap.dedent(f"""
        import json, os, time
        with open({str(record)!r} + ".part", "w") as out:
            json.dump([os.getpid(), os.getcwd()], out)
        os.replace({str(record)!r} + ".part", {str(record)!r})
        time.sleep(60)
    """))
    (tmp_path / "no_mutants.py").write_text(textwrap.dedent(f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location("mutants", {str(TESTS / "mutants.py")!r})
        mutants = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mutants)
        mutants.MUTANTS = []
        sys.exit(mutants.main())
    """))
    script = subprocess.Popen([sys.executable, str(tmp_path / "no_mutants.py")],
                              env={**os.environ, "PYTHONPATH": str(tmp_path),
                                   "PYTHONDONTWRITEBYTECODE": "1"},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pid = copy = None
    try:
        deadline = time.monotonic() + 60
        while not record.exists():
            assert script.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pid, copy = json.loads(record.read_text())
        script.send_signal(signal.SIGTERM)
        status = script.wait(timeout=30)
        assert not _alive(pid)
        assert not Path(copy).exists()
        assert status == 128 + signal.SIGTERM
    finally:
        script.kill()
        script.wait()
        if pid is not None and _alive(pid):
            os.kill(pid, signal.SIGKILL)
        if copy is not None:
            shutil.rmtree(Path(copy).parent, ignore_errors=True)
