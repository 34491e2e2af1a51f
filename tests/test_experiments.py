import math
from unittest import mock

import numpy as np
import pytest

from codedmatvec import (
    ClusterParams,
    CommModel,
    RegimeFamily,
    RngStream,
    default_r_rule,
    expectation_bracket_coded,
    expected_order_stat,
    inject_comp_times,
    loglinear_fit,
    monotone_with_slack,
    monte_carlo,
    pipeline_index,
    round_k,
    run_coded_trial,
    run_uncoded_trial,
    speedup_curve,
    sweep_regime,
    transmission_counts,
    verify_transmission_lemmas,
)
from codedmatvec import experiments
from codedmatvec.experiments import MCStats

EXAMPLE_TIMES = [0.1138, 0.2725, 0.6458, 0.7033, 5.5538]


def small_config():
    params = ClusterParams(n=10, k=7, r=70, a=1.0, mu=1.0)
    return params, CommModel.coded(params, 0.7 / (70 * 10))


def test_mcstats_single_trial():
    params, comm = small_config()
    mc, _ = monte_carlo(params, comm, trials=1, seed=3)
    timeline, _ = run_coded_trial(params, comm, RngStream(3, 0))
    assert mc.mean == timeline.t_total
    assert mc.variance == 0.0
    assert mc.stderr == 0.0
    assert mc.trials == 1


def test_mcstats_from_samples():
    stats = MCStats.from_samples(np.array([1.0, 2.0, 3.0]))
    assert stats.mean == 2.0
    assert stats.variance == pytest.approx(1.0)
    assert stats.stderr == pytest.approx(math.sqrt(1.0 / 3))
    assert stats.ci95_halfwidth == pytest.approx(1.959963984540054 * stats.stderr)


def test_monte_carlo_determinism():
    params, comm = small_config()
    first = monte_carlo(params, comm, trials=200, seed=11)
    second = monte_carlo(params, comm, trials=200, seed=11)
    assert first == second
    third = monte_carlo(params, comm, trials=200, seed=12)
    assert third[0].mean != first[0].mean


def test_monte_carlo_mean_in_bracket():
    params, comm = small_config()
    mc, agg = monte_carlo(params, comm, trials=5000, seed=21)
    bracket = expectation_bracket_coded(params, comm)
    assert bracket.contains(mc.mean, slack=3 * mc.stderr)
    assert 0.0 <= agg.frac_lower_bound_hit <= 1.0
    assert 0.0 <= agg.mean_completed_by_comp_k <= params.k


@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
def test_lower_bound_hit_fraction_is_the_single_trial_mean(scheme):
    # a channel busy enough that q_idle = k - 1 on some trials and k on others
    params = ClusterParams(n=20, k=14, r=14, a=1.0, mu=1.0)
    make, run = ((CommModel.coded, run_coded_trial) if scheme == "coded"
                 else (CommModel.uncoded, run_uncoded_trial))
    comm = make(params, 1 / 20)
    _, agg = monte_carlo(params, comm, trials=300, seed=8, scheme=scheme)
    hits = [run(params, comm, RngStream(8, i))[1].hit_lower_bound for i in range(300)]
    assert 0 < sum(hits) < 300
    assert agg.frac_lower_bound_hit == float(np.mean(hits))


def test_monte_carlo_rejects_bad_args():
    params, comm = small_config()
    with pytest.raises(ValueError):
        monte_carlo(params, comm, trials=0, seed=0)
    with pytest.raises(ValueError, match="scheme"):
        monte_carlo(params, comm, trials=10, seed=0, scheme="hybrid")


def test_round_k():
    assert round_k(0.7, 10) == 7
    assert round_k(0.7, 3) == 2
    assert round_k(0.01, 10) == 1
    assert round_k(1.0, 6) == 6
    with pytest.raises(ValueError):
        round_k(0.0, 10)


def test_default_r_rule_serves_both_schemes():
    for n in (100, 200, 1000):
        k = round_k(0.7, n)
        r = default_r_rule(n, k)
        assert r % k == 0 and r % n == 0


def test_sweep_rows():
    family = RegimeFamily(c=1.0, beta=1.0)
    rows = sweep_regime(family, [10, 20], 0.7, r_rule=lambda n, k: k,
                        a=1.0, mu=1.0, trials=300, seed=4)
    assert [row.n for row in rows] == [10, 20]
    for row in rows:
        params = ClusterParams(n=row.n, k=row.k, r=row.r, a=1.0, mu=1.0)
        assert row.closed_form_leading == params.t0 + expected_order_stat(params, row.k)
        assert row.gap == pytest.approx(row.mc.mean - row.closed_form_leading, rel=1e-14)
        assert row.t_cmm == pytest.approx(1.0 / row.n, rel=1e-12)


UNSORTED_LADDER = [400, 100, 400, 800]


def test_a_ladder_in_one_call_returns_each_points_own_rows():
    # one run_trials call serves the whole ladder, unsorted and with a
    # repeated point; 300 trials cross chunk boundaries at n = 800
    family = RegimeFamily(c=1.0, beta=1.0)
    sweep = dict(k_fraction=0.7, r_rule=lambda n, k: k, a=1.0, mu=1.0, trials=300, seed=12)
    assert sweep_regime(family, UNSORTED_LADDER, **sweep) == [
        sweep_regime(family, [n], **sweep)[0] for n in UNSORTED_LADDER]
    speedup = dict(k_fraction=0.7, a=1.0, mu=1.0, family=RegimeFamily(c=0.1, beta=1.0),
                   trials=300, seed=13, optimize=True)
    assert speedup_curve(UNSORTED_LADDER, **speedup) == [
        speedup_curve([n], **speedup)[0] for n in UNSORTED_LADDER]


def test_a_ladder_whose_last_point_cannot_run_names_it_before_any_trial():
    # r = 2**1024 does not convert to a float, at the last point only
    with pytest.raises(ValueError) as refused:
        ClusterParams(n=800, k=560, r=2**1024, a=1.0, mu=1.0)

    def r_rule(n, k):
        return 2**1024 if n == 800 else k

    family = RegimeFamily(c=1.0, beta=1.0)
    with mock.patch.object(experiments, "run_trials", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError) as sweep:
            sweep_regime(family, UNSORTED_LADDER, 0.7, r_rule=r_rule, trials=10)
        with mock.patch.object(experiments, "default_r_rule", r_rule):
            with pytest.raises(ValueError) as speedup:
                speedup_curve(UNSORTED_LADDER, 0.7, family=family, trials=10)
    assert str(sweep.value) == str(speedup.value) == f"n=800: {refused.value}"


def test_an_empty_ladder_returns_no_rows():
    assert sweep_regime(RegimeFamily(c=1.0, beta=1.0), [], 0.7) == []
    assert speedup_curve([], 0.7) == []


def test_a_point_that_cannot_be_built_is_named():
    # round_k refuses k_fraction = 0 while the first point is built
    with pytest.raises(ValueError) as sweep:
        sweep_regime(RegimeFamily(c=1.0, beta=1.0), [10, 20], 0.0, trials=5)
    with pytest.raises(ValueError) as speedup:
        speedup_curve([10, 20], 0.0, trials=5)
    assert str(sweep.value) == str(speedup.value) == "n=10: k_fraction must lie in (0, 1], got 0.0"


def test_sweep_runs_fractional_loads_and_names_a_failing_point():
    # k=7 does not divide r=8: the point runs at load 8/7
    rows = sweep_regime(RegimeFamily(c=1.0, beta=1.0), [10], 0.7, r_rule=lambda n, k: k + 1,
                        a=1.0, mu=1.0, trials=10, seed=0)
    assert (rows[0].k, rows[0].r, rows[0].mc.trials) == (7, 8, 10)
    # t_cmm = (70/7) * 1e308 overflows at n=10
    with pytest.raises(ValueError, match=r"^n=10: t_one_cmm: "):
        sweep_regime(RegimeFamily(c=1e308, beta=0.0), [10], 0.7, trials=10)


def test_sweep_means_inside_expectation_bracket():
    family = RegimeFamily(c=1.0, beta=1.0)
    rows = sweep_regime(family, [20, 40], 0.7, r_rule=lambda n, k: k,
                        a=1.0, mu=1.0, trials=4000, seed=17)
    for row in rows:
        params = ClusterParams(n=row.n, k=row.k, r=row.r, a=1.0, mu=1.0)
        comm = CommModel.coded(params, family.t_one_cmm(row.n))
        bracket = expectation_bracket_coded(params, comm)
        assert bracket.contains(row.mc.mean, slack=3 * row.mc.stderr)


def test_sweep_determinism():
    family = RegimeFamily(c=1.0, beta=2.0)
    kwargs = dict(k_fraction=0.7, r_rule=lambda n, k: k, a=1.0, mu=1.0,
                  trials=200, seed=9)
    a = sweep_regime(family, [25, 50], **kwargs)
    b = sweep_regime(family, [25, 50], **kwargs)
    assert a == b


def test_speedup_degenerate_equal_config():
    # k = n with shared streams: coded and uncoded trials coincide exactly
    points = speedup_curve([8], 1.0, a=1.0, mu=1.0,
                           family=RegimeFamily(c=0.1, beta=1.0),
                           trials=500, seed=6, optimize=False)
    assert points[0].k == 8
    assert points[0].ratio == 1.0


def test_speedup_means_are_the_monte_carlo_means():
    # each point's means are monte_carlo's over the same streams, bit for bit
    points = speedup_curve([10, 20], 0.7, a=1.0, mu=1.0, family=RegimeFamily(c=0.1, beta=1.0),
                           trials=200, seed=4, optimize=True)
    for point in points:
        params = ClusterParams(n=point.n, k=point.k, r=point.r, a=1.0, mu=1.0)
        coded, _ = monte_carlo(params, CommModel.coded(params, point.t_one_cmm), 200, 4)
        uncoded, _ = monte_carlo(params, CommModel.uncoded(params, point.t_one_cmm), 200, 4,
                                 scheme="uncoded")
        assert (point.coded_mean, point.uncoded_mean) == (coded.mean, uncoded.mean)
        assert point.ratio == uncoded.mean / coded.mean


def test_transmission_counts_instant_channel():
    params = ClusterParams(n=12, k=8, r=8, a=0.0, mu=1.0)
    comm = CommModel.coded(params, 0.0)
    timeline, _ = run_coded_trial(params, comm, RngStream(14, 0))
    p = pipeline_index(params.n, params.alpha, 0.0)
    assert p == 1
    count1, count2 = transmission_counts(timeline, p)
    assert (count1, count2) == (p, params.k - p)


def test_transmission_counts_injected_example():
    params = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.12)
    timeline, _ = run_coded_trial(params, comm, times=inject_comp_times(EXAMPLE_TIMES))
    p = pipeline_index(params.n, params.alpha, comm.t_cmm)
    assert p == 1
    # hand recurrence: no transmission ends by t0+T_(1); ranks 1 and 2 end
    # inside (t0+T_(1), t0+T_(3)]
    assert transmission_counts(timeline, p) == (0, 2)
    with pytest.raises(ValueError):
        transmission_counts(timeline, 6)


def test_verify_lemmas_instant_channel_exact():
    params = ClusterParams(n=30, k=21, r=21, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.0)
    report = verify_transmission_lemmas(params, comm, trials=50, seed=2)
    assert report.p == 1
    assert report.mean_count1 == 1.0
    assert report.mean_count2 == float(params.k - 1)
    assert report.mean_deficit_p == 0.0
    assert report.mean_deficit_k_signed == 0.0
    assert report.mean_deficit_k_shortfall == 0.0
    assert report.sandwich_violations == 0


def test_verify_lemmas_regime3():
    params = ClusterParams(n=100, k=90, r=90, a=1.0, mu=2.0)  # alpha = 0.5
    comm = CommModel.coded(params, params.k / (params.r * params.n))
    report = verify_transmission_lemmas(params, comm, trials=400, seed=5)
    assert report.sandwich_violations == 0
    assert report.mean_deficit_p >= 0.0
    assert report.mean_deficit_k_shortfall >= 0.0
    assert report.trials == 400


def test_monotone_with_slack():
    assert monotone_with_slack([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert not monotone_with_slack([1.0, 0.5, 3.0], [0.1, 0.1, 0.1])
    assert monotone_with_slack([1.0, 0.9, 3.0], [0.1, 0.1, 0.1])
    assert monotone_with_slack([3.0, 2.0, 1.0], [0.0, 0.0, 0.0], decreasing=True)
    assert not monotone_with_slack([1.0, 2.0], [0.1, 0.1], decreasing=True)
    with pytest.raises(ValueError):
        monotone_with_slack([1.0], [0.1, 0.2])


def test_loglinear_fit_exact():
    ns = [10, 100, 1000, 10000]
    ys = [2.0 * math.log(n) + 1.0 for n in ns]
    slope, intercept, r2 = loglinear_fit(ns, ys)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        loglinear_fit([10], [1.0])
