import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedmatvec import (
    ClusterParams,
    CommModel,
    LatencyBracket,
    RegimeFamily,
    classify_regime,
    expectation_bracket_coded,
    expectation_bracket_uncoded,
    expected_runtime_regime3,
    monte_carlo,
    optimize_k,
    pipeline_index,
)
from oracles import (
    harmonic,
    leading_term_scan,
    pipeline_f,
    pipeline_index_loop,
    pipeline_scan,
)


def test_bracket_coded_degenerate_channel():
    params = ClusterParams(n=5, k=3, r=6, a=1.0, mu=2.0)
    bracket = expectation_bracket_coded(params, CommModel.coded(params, 0.0))
    assert bracket.lower == bracket.upper
    expected = params.t0 + params.alpha * (harmonic(5) - harmonic(2))
    assert bracket.lower == pytest.approx(expected, rel=1e-14)


def test_bracket_coded_example_numbers():
    params = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)
    bracket = expectation_bracket_coded(params, CommModel.coded(params, 0.12))
    assert bracket.lower == pytest.approx(3.1722222222222225, rel=1e-12)
    assert bracket.upper == pytest.approx(3.5722222222222224, rel=1e-12)
    assert bracket.upper - bracket.lower == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ValueError, match=r"^bracket lower bound exceeds upper bound$"):
        LatencyBracket(lower=2.0, upper=1.0)


def test_bracket_contains_monte_carlo_mean():
    params = ClusterParams(n=5, k=3, r=6, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.1)
    bracket = expectation_bracket_coded(params, comm)
    mc, _ = monte_carlo(params, comm, trials=10_000, seed=77, scheme="coded")
    assert bracket.contains(mc.mean, slack=3 * mc.stderr)


def test_bracket_uncoded():
    one = ClusterParams(n=1, k=1, r=2, a=1.0, mu=1.0)
    bracket = expectation_bracket_uncoded(one, CommModel.uncoded(one, 0.05))
    expected = 2.0 + 2.0 * 1.0 + 2 * 0.05
    assert bracket.lower == pytest.approx(expected, rel=1e-14)
    assert bracket.upper == pytest.approx(expected, rel=1e-14)

    params = ClusterParams(n=100, k=70, r=100, a=1.0, mu=1.0)
    bracket = expectation_bracket_uncoded(params, CommModel.uncoded(params, 1 / 100))
    assert bracket.lower == pytest.approx(1 + harmonic(100) + 0.01, rel=1e-12)
    assert bracket.upper == pytest.approx(1 + harmonic(100) + 1.0, rel=1e-12)

    mc, _ = monte_carlo(params, CommModel.uncoded(params, 1 / 100),
                        trials=10_000, seed=5, scheme="uncoded")
    assert bracket.contains(mc.mean, slack=3 * mc.stderr)


def test_regime3_leading_term():
    all_workers = ClusterParams(n=7, k=7, r=7, a=0.0, mu=1.0)  # alpha = 1
    assert expected_runtime_regime3(all_workers) == pytest.approx(harmonic(7), rel=1e-14)
    params = ClusterParams(n=200, k=140, r=200, a=1.0, mu=1.0)
    expected = 200 / 140 + (200 / 140) * (harmonic(200) - harmonic(60))
    assert expected_runtime_regime3(params) == pytest.approx(expected, rel=1e-13)


def test_pipeline_index_no_dip_cases():
    assert pipeline_index(10, 10.0, 0.1) == 1
    assert pipeline_index(50, 1.0, 0.0) == 1


def test_pipeline_index_shallow_dip():
    # n=10, alpha=0.5, t_cmm=0.1: f(2) > 0 but f(3..7) < 0, f(8) >= 0
    n, alpha, t_cmm = 10, 0.5, 0.1
    assert pipeline_f(n, alpha, t_cmm, 2) > 0
    assert pipeline_f(n, alpha, t_cmm, 3) < 0
    p = pipeline_index(n, alpha, t_cmm)
    assert p == 8 == pipeline_scan(n, alpha, t_cmm)


def test_pipeline_index_dip_and_recross():
    n, alpha, t_cmm = 100, 0.3, 1 / 100
    assert pipeline_f(n, alpha, t_cmm, 2) < 0  # dip exists
    p = pipeline_index(n, alpha, t_cmm)
    assert p == pipeline_scan(n, alpha, t_cmm)
    assert pipeline_f(n, alpha, t_cmm, p) >= 0
    assert pipeline_f(n, alpha, t_cmm, p - 1) < 0


def test_pipeline_index_saturates_when_backlogged():
    # alpha*H_n << (n-1)*t_cmm: the dip never recovers inside the horizon
    n, alpha, t_cmm = 100, 0.1, 0.1
    p = pipeline_index(n, alpha, t_cmm)
    assert p == n == pipeline_scan(n, alpha, t_cmm)
    assert pipeline_f(n, alpha, t_cmm, n) < 0


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 300),
       alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       t_cmm=st.floats(min_value=0.0, allow_infinity=False),
       j=st.integers(2, 300), ulps=st.integers(-2, 2), free=st.booleans())
@example(n=10, alpha=10.0, t_cmm=0.1, j=2, ulps=0, free=True)  # no dip
@example(n=10, alpha=0.5, t_cmm=0.1, j=2, ulps=0, free=True)  # dip, re-cross at 8
@example(n=100, alpha=0.1, t_cmm=0.1, j=2, ulps=0, free=True)  # never re-crosses
@example(n=3, alpha=1e308, t_cmm=1e308, j=2, ulps=0, free=True)  # f(3) = inf - inf
def test_pipeline_index_is_the_loop(n, alpha, t_cmm, j, ulps, free):
    if not free and j <= n:
        # the t_cmm at which f(j) is the loop's zero, a few ulps either way:
        # there p turns on the last bit of each partial sum
        acc = 0.0
        for i in range(1, j + 1):
            acc += alpha / (n - i + 1)
        t_cmm = acc / (j - 1)
        for _ in range(abs(ulps)):
            t_cmm = math.nextafter(t_cmm, math.copysign(math.inf, ulps))
        t_cmm = max(t_cmm, 0.0)
        if not math.isfinite(t_cmm):
            return
    assert pipeline_index(n, alpha, t_cmm) == pipeline_index_loop(n, alpha, t_cmm)


def test_pipeline_index_example_and_errors():
    params = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)  # alpha = 5/3
    assert pipeline_index(params.n, params.alpha, 0.2) == 1
    with pytest.raises(ValueError):
        pipeline_index(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        pipeline_index(10, -1.0, 0.1)
    with pytest.raises(ValueError):
        pipeline_index(10, 1.0, -0.1)


def test_classify_regime():
    assert classify_regime(2.0) == "I"
    assert classify_regime(0.5) == "II"
    assert classify_regime(1.0) == "III"
    assert classify_regime(0.0) == "II"
    with pytest.raises(ValueError):
        RegimeFamily(c=1.0, beta=-0.5)
    with pytest.raises(ValueError):
        RegimeFamily(c=0.0, beta=1.0)


def test_optimize_k_matches_brute_force():
    comm = lambda k: (120 / k) * 0.01
    got = optimize_k(10, 120, 0.0, 1.0, comm)
    assert got == leading_term_scan(10, 120, 0.0, 1.0, comm)
    got_div = optimize_k(10, 120, 1.0, 1.0, comm, require_divisor=True)
    want_div = leading_term_scan(10, 120, 1.0, 1.0, comm, require_divisor=True)
    assert got_div == want_div
    assert 120 % got_div[0] == 0


@pytest.mark.parametrize("n", [100, 800, 1600])
def test_optimize_k_matches_fsum_scan_on_ladder(n):
    # the speedup ladder's configuration: r = lcm(k, n) at k = 0.7 n
    k0 = round(0.7 * n)
    r = n * k0 // math.gcd(n, k0)
    t_one = 0.1 / n
    comm = lambda k: (r / k) * t_one
    for require_divisor in (True, False):
        got = optimize_k(n, r, 1.0, 1.0, comm, require_divisor=require_divisor)
        assert got == leading_term_scan(n, r, 1.0, 1.0, comm, require_divisor=require_divisor)


@pytest.mark.parametrize("n, r", [
    (50, 15 * 2**64),       # an int r that int64 cannot hold: k* = 32
    (50, 3**41),            # past int64, two full 31-bit limbs: k in 1, 3, 9, 27
    (60, 3600.0),           # a float r with divisors
    (40, 101),              # a prime r past n: only k = 1 divides it
])
def test_optimize_k_scans_the_divisors_pythons_modulus_finds(n, r):
    # optimize_k scans only the k with r % k == 0, found in one numpy mask;
    # the brute-force scan tests every k with Python's own %
    comm = lambda k: (r / k) * 0.001
    got = optimize_k(n, r, 1.0, 1.0, comm, require_divisor=True)
    assert got == leading_term_scan(n, r, 1.0, 1.0, comm, require_divisor=True)


@pytest.mark.parametrize("n", [100, 200, 400, 800, 1600, 3200])
def test_leading_term_has_one_value(n):
    # optimize_k scans its own harmonic table; the value it reports and
    # the coded bracket's lower end must equal expected_runtime_regime3
    # bit for bit, not merely approximately
    k0 = round(0.7 * n)
    r = math.lcm(n, k0)
    t_one = 0.1 / n
    comm_at_k = lambda k: (r / k) * t_one
    k_star, value = optimize_k(n, r, 1.0, 1.0, comm_at_k, require_divisor=True)
    params = ClusterParams(n=n, k=k_star, r=r, a=1.0, mu=1.0)
    assert value == expected_runtime_regime3(params) + comm_at_k(k_star)
    comm = CommModel.coded(params, t_one)
    assert expectation_bracket_coded(params, comm).lower == (
        expected_runtime_regime3(params) + comm.t_cmm)


def test_optimize_k_boundary_and_errors():
    # with a = 0 and a free channel, waiting only for the single fastest
    # replica is optimal: k* = 1
    got, _ = optimize_k(6, 6, 0.0, 1.0, lambda k: 0.0)
    assert got == 1
    # a large startup shift pushes the optimum to the k = n-1 boundary
    got, _ = optimize_k(6, 6, 10.0, 1.0, lambda k: 0.0)
    assert got == 5
    with pytest.raises(ValueError):
        optimize_k(1, 10, 0.0, 1.0, lambda k: 0.0)
    # k = 1 always divides r, so the divisor-restricted scan stays feasible
    got, _ = optimize_k(6, 7, 0.0, 1.0, lambda k: 0.0, require_divisor=True)
    assert got == 1
    # an objective that overflows at every k is not a divisibility failure
    for a, comm_at_k in ((1e308, lambda k: 0.0), (1.0, lambda k: 1e308 * 6 / k)):
        with pytest.raises(ValueError, match="not finite at any feasible k in \\[1, 5\\]"):
            optimize_k(6, 6, a, 1.0, comm_at_k, require_divisor=True)
    with pytest.raises(ValueError, match="divides r=7.5"):
        optimize_k(6, 7.5, 0.0, 1.0, lambda k: 0.0, require_divisor=True)


@pytest.mark.parametrize("require_divisor", [False, True])
def test_optimize_k_refuses_a_too_large_n_before_any_o_n_array(require_divisor):
    # at n = 2**27 the harmonic table is past its exactness bound; the scan's
    # k range and divisor mask would take seconds and GB before that refusal
    class Built(Exception):
        pass

    with mock.patch.object(np, "arange", side_effect=Built):
        with pytest.raises(ValueError, match=f"^n: .* got n={2**27}, j={2**27 - 1}$"):
            optimize_k(2**27, 700, 1.0, 1.0, lambda k: 0.001, require_divisor=require_divisor)


def test_optimize_k_agrees_with_monte_carlo_sweep():
    n, r, a, mu = 10, 120, 1.0, 1.0
    t_one = 0.01
    k_star, _ = optimize_k(n, r, a, mu, lambda k: (r / k) * t_one, require_divisor=True)
    feasible = [k for k in range(1, n) if r % k == 0]
    means = {}
    errs = {}
    for k in feasible:
        params = ClusterParams(n=n, k=k, r=r, a=a, mu=mu)
        mc, _ = monte_carlo(params, CommModel.coded(params, t_one),
                            trials=4000, seed=13, scheme="coded")
        means[k] = mc.mean
        errs[k] = mc.stderr
    best_mc = min(means.values())
    indistinguishable = {
        k for k in feasible if means[k] <= best_mc + 3 * (errs[k] + min(errs.values()))
    }
    assert k_star in indistinguishable
