"""Golden outputs: the exact bytes of CLI outputs for fixed seeds, stored
as files under tests/golden/, and SHA-256 digests of the batched engine's
exact per-trial arrays.

Criterion 12 checks that a rerun reproduces its own output; these pin the
outputs themselves, so a change that moves a single bit of any printed
number fails here, with a unified diff against the stored file.  The set
covers the criterion-12 commands, every other command in each output
format it has, and Monte Carlo runs large enough to cross the batched
engine's chunk boundaries (n=1000, the full speedup ladder, verify at
n=1600).

A golden may only change together with a stated reason for the change.
Running this module as a script rewrites every file under tests/golden/
(review the change with `git diff tests/golden`) and prints the engine
digests to paste into ENGINE_GOLDEN:

    PYTHONPATH=src python tests/test_golden.py
"""

import difflib
import hashlib
from pathlib import Path

import pytest

from codedmatvec import ClusterParams, CommModel, run_trials
from codedmatvec.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXAMPLE_INJECT = "0.1138,0.2725,0.6458,0.7033,5.5538"
NON_DYADIC = ["--n", "30", "--k", "15", "--r", "90", "--a", "0.3", "--mu", "1",
              "--t1cmm", "0.001"]

# file name under GOLDEN_DIR -> the argv whose output it holds
GOLDEN = {
    # the criterion-12 commands
    "simulate.csv": [
        "simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
        "--t1cmm", "0.12", "--inject", EXAMPLE_INJECT,
    ],
    "montecarlo.txt": [
        "montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001", "--trials", "500", "--seed", "12",
    ],
    "sweep.csv": [
        "sweep", "--beta", "2", "--c", "1", "--ns", "25,50", "--k-fraction", "0.7",
        "--a", "1", "--mu", "1", "--trials", "300", "--seed", "12",
    ],
    "speedup.csv": [
        "speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
        "--trials", "200", "--seed", "12",
    ],
    "expect.txt": [
        "expect", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
        "--t1cmm", "0.12",
    ],
    "decode.txt": [
        "decode-check", "--scheme", "systematic", "--n", "4", "--k", "2", "--r", "2",
        "--m", "2", "--seed", "12",
    ],
    "verify.txt": [
        "verify", "--n", "50", "--k", "35", "--r", "35", "--a", "1", "--mu", "2",
        "--t1cmm", "0.0002", "--trials", "300", "--seed", "12",
    ],
    # n >= 1000 and the full ladder: several chunks per configuration
    "montecarlo_n1000_coded.txt": [
        "montecarlo", "--n", "1000", "--k", "700", "--r", "7000", "--a", "1", "--mu", "1",
        "--t1cmm", "0.0001", "--scheme", "coded", "--trials", "300", "--seed", "5",
    ],
    "montecarlo_n1000_uncoded.txt": [
        "montecarlo", "--n", "1000", "--k", "700", "--r", "7000", "--a", "1", "--mu", "1",
        "--t1cmm", "0.0001", "--scheme", "uncoded", "--trials", "300", "--seed", "5",
    ],
    "speedup_ladder.csv": [
        "speedup", "--beta", "1", "--c", "0.1", "--ns", "100,200,400,800,1600,3200",
        "--a", "1", "--mu", "1", "--trials", "100", "--seed", "9",
    ],
    "verify_n1600.txt": [
        "verify", "--n", "1600", "--k", "1440", "--r", "1440", "--a", "1", "--mu", "2",
        "--t1cmm", "0.000625", "--trials", "100", "--seed", "3",
    ],
    # every other command x format, so a shared writer must reproduce them
    "simulate.txt": [
        "simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
        "--t1cmm", "0.12", "--inject", EXAMPLE_INJECT, "--format", "text",
    ],
    "simulate_seeded_coded.csv": [
        "simulate", "--n", "20", "--k", "10", "--r", "20", "--a", "1", "--mu", "1",
        "--t1cmm", "0.01", "--seed", "12",
    ],
    # the README example sampled: k=3 does not divide r=5, each worker takes 5/3
    "simulate_seeded_fractional.csv": [
        "simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
        "--t1cmm", "0.12", "--seed", "3",
    ],
    "simulate_seeded_uncoded.csv": [
        "simulate", "--n", "20", "--k", "10", "--r", "20", "--a", "1", "--mu", "1",
        "--t1cmm", "0.01", "--seed", "12", "--scheme", "uncoded",
    ],
    "montecarlo_coded.csv": [
        "montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001", "--trials", "500", "--seed", "12", "--format", "csv",
    ],
    "montecarlo_uncoded.csv": [
        "montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001", "--trials", "500", "--seed", "12", "--scheme", "uncoded",
        "--format", "csv",
    ],
    # sweep and speedup text print the keys of their CSV
    "sweep.txt": [
        "sweep", "--beta", "2", "--c", "1", "--ns", "25,50", "--k-fraction", "0.7",
        "--a", "1", "--mu", "1", "--trials", "300", "--seed", "12", "--format", "text",
    ],
    "speedup.txt": [
        "speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
        "--trials", "200", "--seed", "12", "--format", "text",
    ],
    # k = 0.3 n differs from the optimized k (at 0.7 on 10,20 the two agree)
    "speedup_fix_k.csv": [
        "speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
        "--trials", "200", "--seed", "12", "--fix-k", "--k-fraction", "0.3",
    ],
    "optimize_k.txt": [
        "optimize-k", "--n", "100", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001",
    ],
    "optimize_k_divisor.txt": [
        "optimize-k", "--n", "100", "--r", "700", "--a", "1", "--mu", "1",
        "--t1cmm", "0.001", "--require-divisor",
    ],
    "expect_uncoded.txt": [
        "expect", "--n", "100", "--k", "70", "--r", "100", "--a", "1", "--mu", "1",
        "--t1cmm", "0.01", "--scheme", "uncoded", "--beta", "1",
    ],
    "decode_random_exhaustive.txt": [
        "decode-check", "--scheme", "random", "--n", "8", "--k", "4", "--r", "12",
        "--m", "5", "--seed", "12",
    ],
    # the benchmark's decode shape: the systematic code recovers all 12870
    # subsets and exits 0
    "decode_systematic_16_8.txt": [
        "decode-check", "--scheme", "systematic", "--n", "16", "--k", "8", "--r", "64",
        "--m", "5", "--seed", "12",
    ],
    "decode_random_16_8.txt": [
        "decode-check", "--scheme", "random", "--n", "16", "--k", "8", "--r", "64",
        "--m", "5", "--seed", "12",
    ],
    "decode_random_sampled.txt": [
        "decode-check", "--scheme", "random", "--n", "30", "--k", "15", "--r", "15",
        "--m", "3", "--trials", "200", "--seed", "12",
    ],
    # uncoded at a = 0.3, where a*(r/n) and a*r/n round apart; the printed digits
    # hide that one-ulp shift, which test_timing pins
    "montecarlo_uncoded_a03.txt": [
        "montecarlo", *NON_DYADIC, "--scheme", "uncoded", "--trials", "2000", "--seed", "12",
    ],
    "expect_uncoded_a03.txt": [
        "expect", *NON_DYADIC, "--scheme", "uncoded", "--beta", "1",
    ],
    "simulate_uncoded_a03.csv": [
        "simulate", *NON_DYADIC, "--scheme", "uncoded", "--seed", "12",
    ],
}


# The engine's exact per-trial arrays at full precision, raw little-endian
# bytes, so a one-ulp move in kth_finish shows even where the printed
# digits above hide it; each a makes a*r/k and a*(r/k) round apart.  Three
# chunks per configuration.  t_total and busy_fraction are left out on
# purpose: their contract is a bound against an exact max-plus oracle
# (tests/test_engine.py), not a fixed bit pattern.
ENGINE_FIELDS = ("kth_finish", "completed_by_comp_k", "q_idle", "count1", "count2")
ENGINE_GOLDEN = {
    "engine_n100_coded_p50": (
        ClusterParams(n=100, k=70, r=700, a=0.7, mu=1.0), "coded", 0.01, 1500, 50,
        "0d96d51b1eec54e94e2817fb3a9bca2fa1aeb126f4d4705d229a51d2e0804410",
    ),
    "engine_n1600_uncoded_p1200": (
        ClusterParams(n=1600, k=1120, r=11200, a=0.2, mu=10.0), "uncoded", 0.0005, 100, 1200,
        "f456c139a1b897564f246155880e387054fb4c5c86833557c28c15ed46752382",
    ),
}


def _output(argv, path) -> bytes:
    rc = main([*argv, "--out", str(path)])
    out = path.read_bytes()
    # exit code 2 is a verification failure, which the record reports as pass=false
    assert rc == (2 if b"pass=false" in out else 0), f"exit code {rc}"
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    expected = (GOLDEN_DIR / name).read_bytes()
    got = _output(GOLDEN[name], tmp_path / name)
    if got != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True), got.decode().splitlines(keepends=True),
            fromfile=f"tests/golden/{name}", tofile="output")
        pytest.fail("".join(diff), pytrace=False)


def _engine_digest(params, scheme, t_one, trials, p) -> str:
    code = params.uncoded() if scheme == "uncoded" else params
    (batch,) = run_trials([(code, CommModel.coded(code, t_one))], trials, seed=3, p=p)
    h = hashlib.sha256()
    for field in ENGINE_FIELDS:
        # count2 is completed_by_comp_k - count1, as in transmission_counts
        values = (batch.completed_by_comp_k - batch.count1 if field == "count2"
                  else getattr(batch, field))
        h.update(values.astype("<f8" if values.dtype.kind == "f" else "<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ENGINE_GOLDEN))
def test_engine_digest(name):
    *config, expected = ENGINE_GOLDEN[name]
    assert _engine_digest(*config) == expected


def _bless():  # pragma: no cover - maintenance helper
    for name, argv in GOLDEN.items():
        _output(argv, GOLDEN_DIR / name)
        print(f"wrote tests/golden/{name}")
    for name, (*config, _) in ENGINE_GOLDEN.items():
        print(f"{name}: {_engine_digest(*config)}")


if __name__ == "__main__":
    _bless()
