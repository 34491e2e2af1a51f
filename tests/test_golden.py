"""Golden digests: SHA-256 of CLI outputs for fixed seeds, and of the
batched engine's exact per-trial arrays.

Criterion 12 checks that a rerun reproduces its own output; these pin the
outputs themselves, so a change that moves a single bit of any printed
number fails here.  The set covers the criterion-12 commands, every
other command in each output format it has, and Monte Carlo runs large
enough to cross the batched engine's chunk boundaries (n=1000, the full
speedup ladder, verify at n=1600).

A digest may only change together with a stated reason for the change;
re-bless by running this module as a script and pasting the digests it
prints into GOLDEN and ENGINE_GOLDEN:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import pytest

from codedmatvec import ClusterParams, CommModel, run_trials
from codedmatvec.cli import main

EXAMPLE_INJECT = "0.1138,0.2725,0.6458,0.7033,5.5538"
NON_DYADIC = ["--n", "30", "--k", "15", "--r", "90", "--a", "0.3", "--mu", "1",
              "--t1cmm", "0.001"]

GOLDEN = {
    # the criterion-12 commands
    "simulate.csv": (
        ["simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
         "--t1cmm", "0.12", "--inject", EXAMPLE_INJECT],
        "7054fdea96629551dd1e2a845a0082e8a83b149b6822727b9015e1fc4d18734c",
    ),
    "montecarlo.txt": (
        ["montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
         "--t1cmm", "0.001", "--trials", "500", "--seed", "12"],
        "578e52ce791e2b68c967ddfe0f7569445b8a5ea592369542958d8d3150d01aa3",
    ),
    "sweep.csv": (
        ["sweep", "--beta", "2", "--c", "1", "--ns", "25,50", "--k-fraction", "0.7",
         "--a", "1", "--mu", "1", "--trials", "300", "--seed", "12"],
        "cb052ef993b9dbf16e8e124ac93283093b3fac46459f27728f1727a71c4ffd7a",
    ),
    "speedup.csv": (
        ["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
         "--trials", "200", "--seed", "12"],
        "c4c24af64a32d0096c7459771bf307fe1e7ce8b8374def87e0d5a7f4d84c4af8",
    ),
    "expect.txt": (
        ["expect", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
         "--t1cmm", "0.12"],
        "9a0edda3e3136c7a6610abee4208bc2f442daaab3ba7bb377c886a94728f900f",
    ),
    "decode.txt": (
        ["decode-check", "--scheme", "systematic", "--n", "4", "--k", "2", "--r", "2",
         "--m", "2", "--seed", "12"],
        "006e57a3750d5fc38f22690a3900ac47bc4e93af7984438dd56282d0b3a76199",
    ),
    "verify.txt": (
        ["verify", "--n", "50", "--k", "35", "--r", "35", "--a", "1", "--mu", "2",
         "--t1cmm", "0.0002", "--trials", "300", "--seed", "12"],
        "cb0c8394c0d12949e0edf3768d055a30fa9e0aa2adb80d5d524a3d41879bc35b",
    ),
    # n >= 1000 and the full ladder: several chunks per configuration
    "montecarlo_n1000_coded.txt": (
        ["montecarlo", "--n", "1000", "--k", "700", "--r", "7000", "--a", "1", "--mu", "1",
         "--t1cmm", "0.0001", "--scheme", "coded", "--trials", "300", "--seed", "5"],
        "87031b13bdfa2d0e49781b4d0baf996670bc85268e344bbd51362ef2720b4e44",
    ),
    "montecarlo_n1000_uncoded.txt": (
        ["montecarlo", "--n", "1000", "--k", "700", "--r", "7000", "--a", "1", "--mu", "1",
         "--t1cmm", "0.0001", "--scheme", "uncoded", "--trials", "300", "--seed", "5"],
        "78ff370f91c1c4e6698c014c87d4c2fa96821c780b77b213402a562710ab1e92",
    ),
    "speedup_ladder.csv": (
        ["speedup", "--beta", "1", "--c", "0.1", "--ns", "100,200,400,800,1600,3200",
         "--a", "1", "--mu", "1", "--trials", "100", "--seed", "9"],
        "baad3819f9a110c7a02b33bf58dc4c3cd6e6cf541f56bedd9140f022a3db39ab",
    ),
    "verify_n1600.txt": (
        ["verify", "--n", "1600", "--k", "1440", "--r", "1440", "--a", "1", "--mu", "2",
         "--t1cmm", "0.000625", "--trials", "100", "--seed", "3"],
        "caf7901e1e9cb7ea4664a6e33cc8946f7bef7be90ab16cf3ddf7dfb2df5ded5e",
    ),
    # every other command x format, so a shared writer must reproduce them
    "simulate.txt": (
        ["simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
         "--t1cmm", "0.12", "--inject", EXAMPLE_INJECT, "--format", "text"],
        "674e616110ba1aba3d936df51424d2d1aaeac42aeaf3631ecdcdf74707ba5bc5",
    ),
    "simulate_seeded_coded.csv": (
        ["simulate", "--n", "20", "--k", "10", "--r", "20", "--a", "1", "--mu", "1",
         "--t1cmm", "0.01", "--seed", "12"],
        "123ec7ff69470d0faf52176639757666a970e937f05b356466df06f7af1dcfca",
    ),
    # the README example sampled: k=3 does not divide r=5, each worker takes 5/3
    "simulate_seeded_fractional.csv": (
        ["simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
         "--t1cmm", "0.12", "--seed", "3"],
        "c05284b1c682f3bfc266898e67b3c85bd524c2f4277d435652095db9f5b4afc0",
    ),
    "simulate_seeded_uncoded.csv": (
        ["simulate", "--n", "20", "--k", "10", "--r", "20", "--a", "1", "--mu", "1",
         "--t1cmm", "0.01", "--seed", "12", "--scheme", "uncoded"],
        "6d9424805434fa03c566ba0f32cc0ef30f7e7ce5a2d86808013c75f6408cfd0a",
    ),
    "montecarlo_coded.csv": (
        ["montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
         "--t1cmm", "0.001", "--trials", "500", "--seed", "12", "--format", "csv"],
        "c3bf644f0ec97cfb6da6cf18eaebca33539e6d2f33c2c8329054125a37fe2652",
    ),
    "montecarlo_uncoded.csv": (
        ["montecarlo", "--n", "100", "--k", "70", "--r", "700", "--a", "1", "--mu", "1",
         "--t1cmm", "0.001", "--trials", "500", "--seed", "12", "--scheme", "uncoded",
         "--format", "csv"],
        "1bd0323aebc394bdcdc359dedb281a0de3c98089ac17c65acde1961f23d05e6a",
    ),
    # sweep and speedup text print the keys of their CSV
    "sweep.txt": (
        ["sweep", "--beta", "2", "--c", "1", "--ns", "25,50", "--k-fraction", "0.7",
         "--a", "1", "--mu", "1", "--trials", "300", "--seed", "12", "--format", "text"],
        "e0b4c4a93bfbe2f8cfd2283a0c62e1f56b1a679ad22cc806ff06fb2aa5b4a867",
    ),
    "speedup.txt": (
        ["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
         "--trials", "200", "--seed", "12", "--format", "text"],
        "a52f575109337207fa23e604c7e59a1f0b534269f5cee8a1b10fb5f87751eda6",
    ),
    # k = 0.3 n differs from the optimized k (at 0.7 on 10,20 the two agree)
    "speedup_fix_k.csv": (
        ["speedup", "--beta", "1", "--c", "0.1", "--ns", "10,20", "--a", "1", "--mu", "1",
         "--trials", "200", "--seed", "12", "--fix-k", "--k-fraction", "0.3"],
        "1b0af28eb4990926318d90f66c0a8e237bafa84829a3aa4e50d845f857cff179",
    ),
    "optimize_k.txt": (
        ["optimize-k", "--n", "100", "--r", "700", "--a", "1", "--mu", "1",
         "--t1cmm", "0.001"],
        "790ca81099486eada5b68662ba08b256a94af6eb74fa834166edd78d555ea45e",
    ),
    "optimize_k_divisor.txt": (
        ["optimize-k", "--n", "100", "--r", "700", "--a", "1", "--mu", "1",
         "--t1cmm", "0.001", "--require-divisor"],
        "31ab87a9dd69687f2af17bd7e7d8b607587c44fd164bc01b168105c0c51a99cc",
    ),
    "expect_uncoded.txt": (
        ["expect", "--n", "100", "--k", "70", "--r", "100", "--a", "1", "--mu", "1",
         "--t1cmm", "0.01", "--scheme", "uncoded", "--beta", "1"],
        "4f878e2ab1ec0763d37817279ad2685ba5e5f229a34051ffc6c00fc7d67df71b",
    ),
    "decode_random_exhaustive.txt": (
        ["decode-check", "--scheme", "random", "--n", "8", "--k", "4", "--r", "12",
         "--m", "5", "--seed", "12"],
        "9ec27f7ef4dcc7f96bac533e1c9d13ca1021646f315437d48bea936806beba5a",
    ),
    # the benchmark's decode shape: the systematic code recovers all 12870
    # subsets and exits 0
    "decode_systematic_16_8.txt": (
        ["decode-check", "--scheme", "systematic", "--n", "16", "--k", "8", "--r", "64",
         "--m", "5", "--seed", "12"],
        "1c1b4f196f860ad9d61467c59c36b3f8784ed3a57887c6eda13ceb39218eaf65",
    ),
    "decode_random_16_8.txt": (
        ["decode-check", "--scheme", "random", "--n", "16", "--k", "8", "--r", "64",
         "--m", "5", "--seed", "12"],
        "67c0570b3ac4774ed8d912abba3ee03fd53e9921d1220fd4a0ca20fb49725367",
    ),
    "decode_random_sampled.txt": (
        ["decode-check", "--scheme", "random", "--n", "30", "--k", "15", "--r", "15",
         "--m", "3", "--trials", "200", "--seed", "12"],
        "a1a4e81b8b383cad45a2efcfa47c47f1e392736c5046fd4516772212b797793a",
    ),
    # uncoded at a = 0.3, where a*(r/n) and a*r/n round apart; the printed digits
    # hide that one-ulp shift, which test_timing pins
    "montecarlo_uncoded_a03.txt": (
        ["montecarlo", *NON_DYADIC, "--scheme", "uncoded", "--trials", "2000", "--seed", "12"],
        "520aea40d82e60756b80d15b2ba2e820881e1d5e5e5bbc563d4ec97c4fd0734c",
    ),
    "expect_uncoded_a03.txt": (
        ["expect", *NON_DYADIC, "--scheme", "uncoded", "--beta", "1"],
        "d1d71a0e7f3f1ec35017210cba1d90f52969e643add53b00bd15b467dce82584",
    ),
    "simulate_uncoded_a03.csv": (
        ["simulate", *NON_DYADIC, "--scheme", "uncoded", "--seed", "12"],
        "b2aee9a3bf4cb566fbd8926b7280b46507d2174379f7ba1d05b0580504502e0f",
    ),
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


def _digest(argv, path) -> str:
    rc = main([*argv, "--out", str(path)])
    out = path.read_bytes()
    # exit code 2 is a verification failure, which the record reports as pass=false
    assert rc == (2 if b"pass=false" in out else 0), f"exit code {rc}"
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert _digest(argv, tmp_path / name) == expected


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
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in GOLDEN.items():
            print(f"{name}: {_digest(argv, Path(tmp) / name)}")
    for name, (*config, _) in ENGINE_GOLDEN.items():
        print(f"{name}: {_engine_digest(*config)}")


if __name__ == "__main__":
    _bless()
