"""tests/mutants.py takes minutes to run, so a refactor that rewrites a
mutated line would otherwise go unnoticed until someone runs it; this
checks in a moment that every listed mutant still applies, and that a
SIGTERM stops the script without leaving its suite or its copy behind."""

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
    """tests/mutants.py's MUTANTS, loaded without writing a bytecode cache."""
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("mutants", TESTS / "mutants.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("name, file, text, replacement", MUTANTS,
                         ids=[name for name, *_ in MUTANTS])
def test_each_mutant_applies_exactly_once(name, file, text, replacement):
    assert (PACKAGE / file).read_text().count(text) == 1
    assert text != replacement


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_a_sigterm_kills_the_suite_and_removes_the_copy(tmp_path):
    # a stand-in pytest, first on the child's path, records its pid and
    # working directory (the repo copy) and then sleeps
    record = tmp_path / "record.json"
    (tmp_path / "pytest.py").write_text(textwrap.dedent(f"""
        import json, os, time
        with open({str(record)!r} + ".part", "w") as out:
            json.dump([os.getpid(), os.getcwd()], out)
        os.replace({str(record)!r} + ".part", {str(record)!r})
        time.sleep(60)
    """))
    script = subprocess.Popen([sys.executable, str(TESTS / "mutants.py")],
                              env={**os.environ, "PYTHONPATH": str(tmp_path)},
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
