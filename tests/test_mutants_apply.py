"""tests/mutants.py takes minutes to run, so a refactor that rewrites a
mutated line would otherwise go unnoticed until someone runs it; this
checks in a moment that every listed mutant still applies."""

import importlib.util
import sys
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
