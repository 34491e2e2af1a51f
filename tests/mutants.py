"""Mutation check: does some non-golden test fail on each listed mutant?

    python tests/mutants.py

Each mutant is one exact-text replacement in one file under src/, and its
text must occur there exactly once.  The repo is copied to a temporary
directory (pyproject.toml's pythonpath = ["src"] would override a
PYTHONPATH pointing at a mutated copy), the unmutated copy must pass, and
then each mutant in turn is applied, run through the tier-1 suite and
undone.  The suite runs with -x (the first failure kills the mutant), its
unit-test files before tests/test_acceptance.py, whose criterion 03 runs
last, and without the golden checks: tests/test_golden.py and test_cli's
script test, which compares the output with a golden file.  Nor does it run
tests/test_mutants_apply.py, which checks that every mutant applies and so
fails on each.  The script prints one row per mutant, killed or survived
and the first failing test, and exits 1 if any mutant survives.  A
SIGTERM stops it with exit status 143, after killing the running suite
and removing the copy.  Pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/codedmatvec, text, replacement)
MUTANTS = [
    ("call order not by n", "channel.py",
     "order = sorted(range(len(codes)), key=lambda index: codes[index][0].n)",
     "order = range(len(codes))"),
    ("copy per n", "channel.py",
     "n, times = params.n, draw[:, :params.n]",
     "n, times = params.n, draw[:, :params.n].copy()"),
    ("piece bound at the piece's last tail", "channel.py",
     "tail[lo] > total",
     "tail[hi - 1] > total"),
    ("last piece skippable", "channel.py",
     "if hi < needed and not",
     "if not"),
    ("kth read after the in-place tail add", "channel.py",
     "np.maximum(total, np.maximum.reduce(ends, axis=1), out=total)",
     "np.maximum(total, np.maximum.reduce(ends, axis=1), out=total)\n"
     "            kth[:] = cf[:, -1]"),
    ("chunk rows past the budget", "channel.py",
     "CHUNK_ELEMENTS // columns",
     "CHUNK_ELEMENTS // top"),
    ("each piece overwrites the run-time max", "channel.py",
     "np.maximum(total, np.maximum.reduce(ends, axis=1), out=total)",
     "np.maximum.reduce(ends, axis=1, out=total)"),
    ("p bounded by the largest n", "channel.py",
     "1 <= p <= smallest)",
     "1 <= p <= top)"),
    ("hit fraction at q_idle >= k - 1", "experiments.py",
     "np.mean(batch.q_idle == needed)",
     "np.mean(batch.q_idle >= needed - 1)"),
    ("closed form 0.1% of t0 low", "experiments.py",
     "closed_form = expected_runtime_regime3(params)",
     "closed_form = expected_runtime_regime3(params) - 0.001 * params.t0"),
    ("single-trial path without queueing", "channel.py",
     "free := (c if c >= free else free) + t_cmm",
     "free := c + t_cmm"),
    ("alpha with n in place of k", "timing.py",
     "return self.r / (self.mu * self.k)",
     "return self.r / (self.mu * self.n)"),
    ("optimize_k harmonic off by one", "analysis.py",
     "suffixes[ks]",
     "suffixes[ks - 1]"),
    ("feasible k from 2", "analysis.py",
     "ks = np.arange(1, n)",
     "ks = np.arange(2, n)"),
    ("feasible k up to n", "analysis.py",
     "ks = np.arange(1, n)",
     "ks = np.arange(1, n + 1)"),
    ("divisor limbs of 30 bits", "analysis.py",
     "(whole >> shift) & (2**31 - 1)",
     "(whole >> shift) & (2**30 - 1)"),
    ("harmonic suffixes one term short at the bottom", "timing.py",
     "np.arange(n, n - j, -1)",
     "np.arange(n, n - j + 1, -1)"),
    ("optimize_k ignoring the channel", "analysis.py",
     "+ comm_at_k(k)",
     "+ 0.0"),
    ("pipeline_index off by one", "analysis.py",
     "dip + int(recrossed.argmax()) + 1",
     "dip + int(recrossed.argmax()) + 2"),
    ("count2 read as completed_by_comp_k", "experiments.py",
     "c1, c2 = batch.count1, batch.completed_by_comp_k - batch.count1",
     "c1, c2 = batch.count1, batch.completed_by_comp_k"),
    ("ddof=0", "experiments.py",
     "np.var(samples, ddof=1)",
     "np.var(samples, ddof=0)"),
    ("engine busy time at needed - 1", "channel.py",
     "np.divide(needed * t_cmm, span,",
     "np.divide((needed - 1) * t_cmm, span,"),
    ("variance_order_stat shifted by one rank", "timing.py",
     "for i in range(1, j + 1))",
     "for i in range(0, j))"),
    ("bracket upper end at k + 1", "analysis.py",
     "upper=core + params.k * comm.t_cmm",
     "upper=core + (params.k + 1) * comm.t_cmm"),
    ("random scheme tolerance at 1e-6", "coding.py",
     '"random": (1e-8, 0.99)',
     '"random": (1e-6, 0.99)'),
    ("t_one_cmm 1% high", "analysis.py",
     "return self.c * float(n) ** (-self.beta)",
     "return 1.01 * self.c * float(n) ** (-self.beta)"),
    ("engine shift times 1.0001", "channel.py",
     "np.add(cf, shift, out=cf)",
     "np.add(cf, shift * 1.0001, out=cf)"),
    ("speedup ratio over a median", "experiments.py",
     "float(np.mean(coded.t_total)), float(np.mean(uncoded.t_total))",
     "float(np.median(coded.t_total)), float(np.median(uncoded.t_total))"),
    ("always 0 unflagged failures", "coding.py",
     "unflagged += int(_well_conditioned(g[failing]).sum())",
     "unflagged += 0"),
    ("trials bound at >= 0", "config.py",
     'trials: int = _key("integer", lambda v: v >= 1,',
     'trials: int = _key("integer", lambda v: v >= 0,'),
    ("ladder point not checked", "experiments.py",
     "for params, comm in built:",
     "for params, comm in []:"),
    ("ladder failure not named", "experiments.py",
     'raise ValueError(f"n={n}: {exc}") from exc',
     "raise"),
    ("no empty-ladder guard", "experiments.py",
     " if codes else []",
     ""),
    ("seed bound at 2**63", "config.py",
     'seed: int = _key("integer", lambda v: 0 <= v < 2**64,',
     'seed: int = _key("integer", lambda v: 0 <= v < 2**63,'),
    ("block budget without the n ids a subset takes", "coding.py",
     "rows = max(1, CHUNK_ELEMENTS // max(n, k * (k + w)))",
     "rows = max(1, CHUNK_ELEMENTS // (k * (k + w)))"),
    ("exhaustive up to twice MAX_SUBSETS", "coding.py",
     "exhaustive = count <= MAX_SUBSETS",
     "exhaustive = count <= 2 * MAX_SUBSETS"),
    ("sampled subsets not capped", "coding.py",
     "min(trials, MAX_SUBSETS)",
     "trials"),
    ("subset ranks read from the front", "coding.py",
     "lefts = np.arange(count - 1, -1, -1)",
     "lefts = np.arange(count)"),
    ("y_hat held by _decode past its block", "coding.py",
     "        del y_hat  # before the next solve, so malloc hands its memory back\n",
     ""),
    ("y_hat held by check_any_k's loop", "coding.py",
     "        del y_hat  # so the next block's solve reuses its memory\n",
     ""),
    ("error written into the G rows", "coding.py",
     "out=z.reshape(len(g), -1)",
     "out=g.reshape(len(g), -1)"),
]

# the unit-test files run first and the acceptance criteria, most of the
# suite's time, last: most mutants fail a unit test, and -x stops there.
# The criteria run as node ids, which pytest runs in argument order, so
# criterion 03, the slowest by far, comes last
UNIT_TESTS = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py")
                    if path.name not in ("test_acceptance.py", "test_golden.py",
                                         "test_mutants_apply.py"))
SLOWEST = "test_criterion_03_bound_sandwich_every_trial"
CRITERIA = sorted(re.findall(r"^def (test_\w+)", (ROOT / "tests" / "test_acceptance.py").read_text(),
                             re.MULTILINE), key=lambda name: name == SLOWEST)
PYTEST = [sys.executable, "-m", "pytest", *UNIT_TESTS,
          *(f"tests/test_acceptance.py::{name}" for name in CRITERIA),
          "--deselect=tests/test_cli.py::test_the_module_runs_as_a_script",
          "-x", "-q", "-p", "no:cacheprovider"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def run_suite(tree: Path) -> str | None:
    """The first failing test of the suite in `tree`, or None if it passes."""
    # no bytecode: a mutant and its undoing may share a source mtime
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(PYTEST, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    return first_failure(result.stdout) or f"pytest exit {result.returncode}"


def first_failure(stdout: str) -> str | None:
    """The id of the first failed or erroring test in pytest's short test
    summary, read up to its ` - ` message or the end of its line (a
    parametrized id may hold spaces), or None if the summary names none."""
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", stdout, re.MULTILINE)
    return failed.group(1) if failed else None


def main() -> int:
    # a SIGTERM unwinds like any exit: subprocess.run kills the running
    # suite and TemporaryDirectory removes the copy
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for name, file, text, _ in MUTANTS:
            count = (tree / "src" / "codedmatvec" / file).read_text().count(text)
            if count != 1:
                raise SystemExit(f"{name}: its text occurs {count} times in {file}, not once")
        failed = run_suite(tree)
        if failed is not None:
            raise SystemExit(f"the unmutated suite fails ({failed}); no mutant can be judged")
        print("| mutant | file | verdict | first failing test | s |")
        print("|---|---|---|---|---|")
        survivors = 0
        for name, file, text, replacement in MUTANTS:
            path = tree / "src" / "codedmatvec" / file
            source = path.read_text()
            path.write_text(source.replace(text, replacement))
            start = time.perf_counter()
            try:
                failed = run_suite(tree)
            finally:
                path.write_text(source)
            survivors += failed is None
            verdict = "survived" if failed is None else "killed"
            print(f"| {name} | {file} | {verdict} | {failed or '-'} "
                  f"| {time.perf_counter() - start:.0f} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
