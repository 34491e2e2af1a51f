import math
import re
from unittest import mock

import numpy as np
import pytest
from scipy.stats import ks_2samp

from codedmatvec import (
    ClusterParams,
    RngStream,
    expected_order_stat,
    inject_comp_times,
    sample_comp_times,
    variance_order_stat,
)
from codedmatvec.rng import uniform_rows
from codedmatvec.timing import LARGEST_UNIT_DRAW, harmonic_suffixes, unit_exponentials
from oracles import (
    harmonic,
    harmonic_suffix,
    harmonic_suffixes_loop,
    ks_two_sample_threshold,
    sample_spacings,
)


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(5) == pytest.approx(137 / 60, rel=1e-15)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_suffixes_equal_fsum():
    # every j at small n, the whole list optimize_k reads at two ladder n,
    # and a short list at n far past the O(n) routines' reach, also at the
    # bit-length steps next to the bound
    for n in range(1, 41):
        for j in range(n + 1):
            suffixes = harmonic_suffixes(n, j)
            assert suffixes.tolist() == [harmonic_suffix(n, m) for m in range(j + 1)]
    for n in (100, 3200):
        terms = [1.0 / i for i in range(n, 0, -1)]
        assert harmonic_suffixes(n, n - 1).tolist() == [math.fsum(terms[:m]) for m in range(n)]
    for n in (2**27 - 1, 2**27, 2**53 + 1, 10**12, 2**63, 2**1023):
        suffixes = harmonic_suffixes(n, 70)
        assert suffixes.dtype == np.float64, n
        assert suffixes.tolist() == [harmonic_suffix(n, m) for m in range(71)], n
    assert harmonic_suffixes(1, 0).tolist() == [0.0]
    assert harmonic_suffixes(4096, 4096)[-1] == harmonic(4096)


def test_harmonic_suffixes_equal_integer_loop():
    # whole lists, bit for bit, across the bit-length steps of n that move
    # the fixed-point scale
    for n in (*range(1, 65), 4095, 4096, 5000):
        for j in {0, 1, n // 2, n - 1, n}:
            assert harmonic_suffixes(n, j).tolist() == harmonic_suffixes_loop(n, j), (n, j)


def test_harmonic_suffixes_refuse_past_their_exactness_bound():
    # the bound is checked before any term is built: the whole list at
    # n = 2**27 would take minutes and several GB
    class Built(Exception):
        pass

    message = ("n: harmonic suffixes are exact only while 2**(bit_length(n) + 21)"
               " * (H_n - H_(n-j)) < 2**53, got n={}, j={}")
    with mock.patch.object(np, "arange", side_effect=Built):
        for n, j in ((2**27, 2**27 - 1), (2**27, 2**27 - 15), (2**28, 2**28 - 100)):
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(n, j))}$"):
                harmonic_suffixes(n, j)
        # the largest inputs accepted next to the bound go on to build
        for n, j in ((2**27 - 1, 2**27 - 1), (2**27, 2**27 - 16)):
            with pytest.raises(Built):
                harmonic_suffixes(n, j)


def test_cluster_params_validation():
    with pytest.raises(ValueError, match=r"^n: must be a positive integer, got 0$"):
        ClusterParams(n=0, k=1, r=4, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match=r"^r: must be a positive integer, got 0$"):
        ClusterParams(n=4, k=2, r=0, a=0.0, mu=1.0)
    # an integer float() cannot convert, refused before t0 = a*r/k overflows
    with pytest.raises(ValueError, match=r"^r: must convert to a finite float, got 1797"):
        ClusterParams(n=4, k=2, r=2**1024 - 2**970, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match=r"^n: must convert to a finite float"):
        ClusterParams(n=2**1024, k=2, r=4, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match="k"):
        ClusterParams(n=4, k=0, r=4, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match="k"):
        ClusterParams(n=4, k=5, r=4, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match="mu"):
        ClusterParams(n=4, k=2, r=4, a=0.0, mu=0.0)
    with pytest.raises(ValueError, match="a"):
        ClusterParams(n=4, k=2, r=4, a=-1.0, mu=1.0)
    # a finite a whose shift a*r/k overflows
    with pytest.raises(ValueError, match="a: the startup shift a\\*r/k must be finite"):
        ClusterParams(n=4, k=2, r=4, a=1e308, mu=1.0)
    p = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)
    assert p.t0 == pytest.approx(5 / 3, rel=1e-15)
    assert p.alpha == pytest.approx(5 / 3, rel=1e-15)
    # k need not divide r: the load r/k enters only through t0, alpha and t_cmm
    assert p.uncoded().k == p.n
    assert p.uncoded().alpha == 1.0
    # one shift for both schemes, a*r/k: at a=0.3, a*(r/k) would give 0.8999999999999999
    q = ClusterParams(n=30, k=15, r=90, a=0.3, mu=1.0)
    assert q.uncoded().t0 == 0.9


def test_sample_comp_times_positive_and_sorted():
    params = ClusterParams(n=4, k=2, r=4, a=0.0, mu=1.0)
    ct = sample_comp_times(params, 2, RngStream(7, 0))
    assert ct.n == 4
    assert np.all(ct.sorted > 0)
    assert np.all(np.diff(ct.sorted) >= 0)
    # the order statistics of the same stream's i.i.d. Exponential(mu / w) draws
    assert np.array_equal(ct.sorted, np.sort(-np.log1p(-RngStream(7, 0).uniforms(4)) / 0.5))


def test_sample_comp_times_law_of_large_numbers():
    # w=1, mu=2: variable part is Exponential(2) with mean 0.5
    params = ClusterParams(n=10_000, k=1, r=1, a=0.0, mu=2.0)
    ct = sample_comp_times(params, 1, RngStream(123, 0))
    tol = 3 * 0.5 / math.sqrt(10_000)
    assert abs(float(np.mean(ct.sorted)) - 0.5) <= tol


def test_sample_comp_times_rejects_bad_work():
    params = ClusterParams(n=4, k=2, r=4, a=0.0, mu=1.0)
    for work in (0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="work_per_worker must be finite and > 0"):
            sample_comp_times(params, work, RngStream(1, 0))
    # any positive finite load: the order statistics of the draws at rate mu / w
    ct = sample_comp_times(params, 2.5, RngStream(1, 0))
    assert np.array_equal(ct.sorted, np.sort(-np.log1p(-RngStream(1, 0).uniforms(4)) / (1.0 / 2.5)))


@pytest.mark.parametrize("values", [[0.5, 0.0, 0.25], [[0.5, 0.0, 0.25], [0.75, 0.1, 0.2]]],
                         ids=["1-d", "2-d"])
def test_unit_exponentials_work_in_place(values):
    u = np.array(values)
    assert unit_exponentials(u) is u
    assert np.array_equal(u, -np.log1p(-np.array(values)))


def test_unit_exponentials_ends():
    # u = 0 gives +0.0, not -0.0 (so run_trials' in-place sorts of nested
    # prefixes agree bit for bit), and the largest uniform Generator.random
    # returns gives exactly the largest draw the run-time bounds assume
    low = unit_exponentials(np.zeros(2))
    assert low.tolist() == [0.0, 0.0] and not np.signbit(low).any()
    assert unit_exponentials(np.array([1 - 2**-53]))[0] == LARGEST_UNIT_DRAW


@pytest.mark.parametrize("seed, first, rows, n", [(0, 0, 3, 5), (2**64 - 1, 2**64 - 4, 4, 70)])
def test_unit_exponentials_of_uniform_rows_are_each_streams(seed, first, rows, n):
    block = unit_exponentials(uniform_rows(seed, first, np.empty((rows, n))))
    for j in range(rows):
        direct = -np.log1p(-RngStream(seed, first + j).uniforms(n))
        assert np.array_equal(block[j], direct)


def test_inject_comp_times_golden_and_errors():
    values = [0.1138, 0.2725, 0.6458, 0.7033, 5.5538]
    ct = inject_comp_times(values)
    assert ct.n == 5
    assert ct.sorted.tolist() == values
    with pytest.raises(ValueError, match="non-empty"):
        inject_comp_times([])
    with pytest.raises(ValueError, match="1-d"):
        inject_comp_times([[0.1, 0.2]])
    with pytest.raises(ValueError, match="nondecreasing"):
        inject_comp_times([1.0, 0.5])
    with pytest.raises(ValueError, match=">= 0"):
        inject_comp_times([-0.1, 0.5])
    with pytest.raises(ValueError, match="finite"):
        inject_comp_times([0.1, float("inf")])


def test_determinism_same_stream_bit_identical():
    params = ClusterParams(n=50, k=30, r=60, a=1.0, mu=1.0)
    a = sample_comp_times(params, 2, RngStream(99, 4))
    b = sample_comp_times(params, 2, RngStream(99, 4))
    assert np.array_equal(a.sorted, b.sorted)
    c = sample_comp_times(params, 2, RngStream(99, 5))
    assert not np.array_equal(a.sorted, c.sorted)


def test_stream_repr_names_its_key():
    # a report that names its stream names its (seed, trial)
    assert repr(RngStream(7, 3)) == "RngStream(seed=7, stream_id=3)"


def test_spacings_single_worker_is_plain_exponential():
    params = ClusterParams(n=1, k=1, r=1, a=0.0, mu=1.0)
    sp = sample_spacings(params, RngStream(3, 0))
    direct = -np.log1p(-RngStream(3, 0).uniforms(1)) / 1.0
    assert sp.shape == (1,)
    assert sp[0] == direct[0]


def test_spacings_positive_increasing_prefix_sums():
    params = ClusterParams(n=200, k=140, r=280, a=1.0, mu=1.0)
    sp = sample_spacings(params, RngStream(11, 2))
    assert np.all(sp > 0)
    order_stats = np.cumsum(sp)
    assert np.all(np.diff(order_stats) > 0)


def test_spacings_first_gap_mean():
    # E[D_1] = alpha / n with alpha = 1 here
    params = ClusterParams(n=200, k=200, r=200, a=0.0, mu=1.0)
    streams = 100_000
    total = 0.0
    for i in range(streams):
        total += sample_spacings(params, RngStream(42, i))[0]
    mean = total / streams
    # sd of the estimator: (alpha/n) / sqrt(streams)
    tol = 3 * (1.0 / 200) / math.sqrt(streams)
    assert abs(mean - 1.0 / 200) <= tol


@pytest.mark.parametrize("n,j", [(50, 30), (100, 70)])
def test_spacings_match_sorted_sampling_distribution(n, j):
    # r = k makes both samplers draw at per-worker scale alpha = w/mu = 1
    params = ClusterParams(n=n, k=j, r=j, a=0.0, mu=1.0)
    samples = 10_000
    via_sort = np.empty(samples)
    via_spacings = np.empty(samples)
    for i in range(samples):
        via_sort[i] = sample_comp_times(params, 1, RngStream(1, i)).sorted[j - 1]
        via_spacings[i] = np.cumsum(sample_spacings(params, RngStream(2, i)))[j - 1]
    stat = ks_2samp(via_sort, via_spacings).statistic
    assert stat < ks_two_sample_threshold(samples, samples, significance=0.01)


def test_expected_order_stat_values():
    one = ClusterParams(n=1, k=1, r=1, a=0.0, mu=1.0)
    assert expected_order_stat(one, 1) == pytest.approx(1.0, rel=1e-15)
    params = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)  # alpha = 5/3
    assert expected_order_stat(params, 3) == pytest.approx((5 / 3) * (47 / 60), rel=1e-12)
    with pytest.raises(ValueError):
        expected_order_stat(params, 0)
    with pytest.raises(ValueError):
        expected_order_stat(params, 6)


def test_variance_order_stat_values():
    two = ClusterParams(n=1, k=1, r=2, a=0.0, mu=1.0)  # alpha = 2
    assert variance_order_stat(two, 1) == pytest.approx(4.0, rel=1e-15)
    params = ClusterParams(n=3, k=1, r=1, a=0.0, mu=1.0)  # alpha = 1
    assert variance_order_stat(params, 2) == pytest.approx(13 / 36, rel=1e-15)


def test_order_stat_moments_against_monte_carlo():
    params = ClusterParams(n=50, k=30, r=30, a=0.0, mu=1.0)
    trials = 4000
    samples = np.empty(trials)
    for i in range(trials):
        samples[i] = sample_comp_times(params, 1, RngStream(5, i)).sorted[29]
    expected = expected_order_stat(params, 30)
    stderr = math.sqrt(variance_order_stat(params, 30) / trials)
    assert abs(float(np.mean(samples)) - expected) <= 3 * stderr
