import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmatvec import (
    ClusterParams,
    CommModel,
    RngStream,
    compute_metrics,
    inject_comp_times,
    run_coded_trial,
    run_uncoded_trial,
    schedule_serial_channel,
)
from oracles import event_queue_schedule

EXAMPLE_TIMES = [0.1138, 0.2725, 0.6458, 0.7033, 5.5538]


def example_params():
    return ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

def test_hand_executed_recurrence():
    t = schedule_serial_channel([1.0, 1.1, 3.0], 0.5, needed=3)
    assert np.allclose(t.comm_end, [1.5, 2.0, 3.5], rtol=0, atol=0)
    assert t.t_total == 3.5


def test_scheduler_validation():
    with pytest.raises(ValueError):
        schedule_serial_channel([], 0.1, needed=1)
    with pytest.raises(ValueError):
        schedule_serial_channel([2.0, 1.0], 0.1, needed=2)
    with pytest.raises(ValueError):
        schedule_serial_channel([1.0, 2.0], 0.1, needed=3)
    with pytest.raises(ValueError):
        schedule_serial_channel([1.0, 2.0], -0.1, needed=2)
    with pytest.raises(ValueError, match=r"^comp_finish must be finite$"):
        schedule_serial_channel([0.1, math.nan], 0.1, 1)


def test_instant_channel_identity():
    cf = [0.3, 0.7, 0.7, 1.9]
    t = schedule_serial_channel(cf, 0.0, needed=4)
    assert t.t_total == cf[3]
    m = compute_metrics(t)
    assert m.completed_by_comp_k == 4
    assert m.q_idle == 4


def test_golden_timeline_example():
    params = example_params()
    cf = params.t0 + np.array(EXAMPLE_TIMES)
    t = schedule_serial_channel(cf, 0.2, needed=3)
    t0 = 5 / 3
    # rank 2 waits for the channel; rank 3 finds it idle
    assert t.comm_start[0] == pytest.approx(t0 + 0.1138, rel=1e-15)
    assert t.comm_start[1] == pytest.approx(t0 + 0.3138, rel=1e-15)
    assert t.comm_start[2] == pytest.approx(t0 + 0.6458, rel=1e-15)
    assert t.t_total == pytest.approx(t0 + 0.6458 + 0.2, rel=1e-12)
    m = compute_metrics(t)
    assert m.hit_lower_bound
    assert m.q_idle == 3
    # transmissions of ranks 1 and 2 both finish before the third computation
    assert m.completed_by_comp_k == 2


def test_metrics_fully_backlogged():
    t = schedule_serial_channel([1.0, 1.0, 1.0], 1.0, needed=3)
    m = compute_metrics(t)
    assert m.completed_by_comp_k == 0
    assert m.q_idle == 1
    assert not m.hit_lower_bound
    assert t.t_total == 4.0


def test_lower_bound_hit_is_exact_on_the_recurrence():
    # a hit is q_idle == needed: the needed-th result transmits the instant
    # it finishes, so t_total is kth + t_cmm bit for bit, with no tolerance
    params = ClusterParams(n=20, k=14, r=14, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.05)
    hits = 0
    for i in range(300):
        t, m = run_coded_trial(params, comm, RngStream(13, i))
        kth = t.comp_finish[t.needed - 1]
        assert m.hit_lower_bound == (m.q_idle == t.needed)
        if m.hit_lower_bound:
            hits += 1
            assert t.t_total == kth + t.t_cmm
        else:
            assert t.t_total >= kth + t.t_cmm
    assert 100 < hits < 250  # 183 of 300 hit


def test_event_queue_oracle_small():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        cf = np.sort(rng.random(n) * 10)
        t_cmm = float(rng.random() * 0.5)
        needed = int(rng.integers(1, n + 1))
        t = schedule_serial_channel(cf, t_cmm, needed)
        starts, ends = event_queue_schedule(cf, t_cmm, needed)
        assert t.comm_start.tolist() == starts
        assert t.comm_end.tolist() == ends


finite_times = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(times=finite_times, t_cmm=st.floats(min_value=0.0, max_value=100.0),
       data=st.data())
def test_scheduler_properties(times, t_cmm, data):
    cf = np.sort(np.array(times))
    needed = data.draw(st.integers(min_value=1, max_value=len(times)))
    t = schedule_serial_channel(cf, t_cmm, needed)
    # FIFO: starts nondecreasing, intervals disjoint
    assert np.all(np.diff(t.comm_start) >= 0)
    assert np.all(t.comm_start[1:] >= t.comm_end[:-1])
    assert np.all(t.comm_start >= cf[:needed])
    # realization sandwich; upper side allows float summation slack only
    lower = cf[needed - 1] + t_cmm
    upper = cf[needed - 1] + needed * t_cmm
    assert t.t_total >= lower
    assert t.t_total <= upper * (1 + 1e-12) + 1e-12
    if t_cmm == 0.0:
        assert t.t_total == cf[needed - 1]


@settings(max_examples=100, deadline=None)
@given(times=finite_times, t_cmm=st.floats(min_value=0.0, max_value=10.0),
       bump=st.floats(min_value=0.0, max_value=10.0), data=st.data())
def test_scheduler_monotonicity(times, t_cmm, bump, data):
    cf = np.sort(np.array(times))
    needed = data.draw(st.integers(min_value=1, max_value=len(times)))
    base = schedule_serial_channel(cf, t_cmm, needed).t_total
    slower_channel = schedule_serial_channel(cf, t_cmm + bump, needed).t_total
    assert slower_channel >= base
    later = schedule_serial_channel(cf + bump, t_cmm, needed).t_total
    assert later >= base


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

def test_single_worker_trial():
    params = ClusterParams(n=1, k=1, r=1, a=0.0, mu=1.0)
    comm = CommModel.coded(params, 0.3)
    timeline, _ = run_coded_trial(params, comm, RngStream(0, 0))
    t1 = -np.log1p(-RngStream(0, 0).uniforms(1))[0] / 1.0
    assert timeline.t_total == pytest.approx(t1 + 0.3, rel=1e-15)


def test_coded_trial_samples_a_fractional_load():
    # k=3 does not divide r=5: each worker takes r/k = 5/3 inner products
    params = example_params()
    comm = CommModel.coded(params, 0.12)
    timeline, metrics = run_coded_trial(params, comm, RngStream(0, 0))
    draws = np.sort(-np.log1p(-RngStream(0, 0).uniforms(5)) / (params.mu / (5 / 3)))
    assert np.array_equal(timeline.comp_finish, params.t0 + draws)
    injected = run_coded_trial(params, comm, times=inject_comp_times(draws))
    assert injected[0].t_total == timeline.t_total and injected[1] == metrics


def test_coded_trial_with_injected_example():
    params = example_params()
    comm = CommModel.coded(params, 0.12)
    assert comm.t_cmm == pytest.approx(0.2, rel=1e-15)
    timeline, metrics = run_coded_trial(params, comm, times=inject_comp_times(EXAMPLE_TIMES))
    assert timeline.t_total == pytest.approx(5 / 3 + 0.6458 + 0.2, rel=1e-12)
    assert metrics.hit_lower_bound


def test_comm_model_rejects_non_finite_transmission_time():
    with pytest.raises(ValueError, match="t_one_cmm: t_cmm = work_per_worker"):
        CommModel(t_one_cmm=1e308, work_per_worker=10.0)
    assert CommModel(t_one_cmm=1e307, work_per_worker=10.0).t_cmm == 1e308
    with pytest.raises(ValueError, match=r"^t_one_cmm must be >= 0, got -1\.0$"):
        CommModel(t_one_cmm=-1.0, work_per_worker=10.0)
    with pytest.raises(ValueError, match=r"^work_per_worker must be > 0, got 0\.0$"):
        CommModel(t_one_cmm=0.1, work_per_worker=0.0)


def test_trial_checks_comm_consistency():
    params = ClusterParams(n=4, k=2, r=4, a=0.0, mu=1.0)
    wrong = CommModel(t_one_cmm=0.1, work_per_worker=3.0)
    with pytest.raises(ValueError):
        run_coded_trial(params, wrong, RngStream(0, 0))
    with pytest.raises(ValueError):
        run_uncoded_trial(params, wrong, RngStream(0, 0))
    # one part in 10**12 off r/k once passed a relative tolerance and ran
    # with t_cmm = 0.010000000000010001: the load must be r/k exactly
    near = CommModel(t_one_cmm=0.001, work_per_worker=10 * (1 + 1e-12))
    with pytest.raises(ValueError, match="work_per_worker"):
        run_coded_trial(ClusterParams(n=10, k=7, r=70, a=1.0, mu=1.0), near, RngStream(0, 0))


def test_uncoded_single_worker_equals_coded():
    params = ClusterParams(n=1, k=1, r=3, a=0.5, mu=2.0)
    comm_c = CommModel.coded(params, 0.1)
    comm_u = CommModel.uncoded(params, 0.1)
    coded, _ = run_coded_trial(params, comm_c, RngStream(8, 1))
    uncoded, _ = run_uncoded_trial(params, comm_u, RngStream(8, 1))
    assert coded.t_total == uncoded.t_total


def test_uncoded_trial_lower_bound_every_trial():
    params = ClusterParams(n=5, k=3, r=5, a=1.0, mu=1.0)
    comm = CommModel.uncoded(params, 0.04)
    for i in range(200):
        timeline, _ = run_uncoded_trial(params, comm, RngStream(21, i))
        slowest = timeline.comp_finish[-1]
        assert timeline.t_total >= slowest + 0.04
        assert slowest >= 1.0  # shift a*r/n = 1


def test_uncoded_mean_within_bracket():
    params = ClusterParams(n=100, k=70, r=100, a=1.0, mu=1.0)
    comm = CommModel.uncoded(params, 1 / 100)
    trials = 10_000
    totals = np.empty(trials)
    for i in range(trials):
        timeline, _ = run_uncoded_trial(params, comm, RngStream(31, i))
        totals[i] = timeline.t_total
    mean = float(np.mean(totals))
    stderr = float(np.std(totals, ddof=1)) / math.sqrt(trials)
    h100 = math.fsum(1 / i for i in range(1, 101))
    assert mean >= 1.0 + h100 + 0.01 - 3 * stderr
    assert mean <= 1.0 + h100 + 1.0 + 3 * stderr


def test_injected_times_must_match_n():
    params = example_params()
    comm = CommModel.coded(params, 0.12)
    with pytest.raises(ValueError):
        run_coded_trial(params, comm, times=inject_comp_times([0.1, 0.2]))
    with pytest.raises(ValueError, match=r"^an RngStream is required when no times are injected$"):
        run_coded_trial(params, comm)



def test_timeline_csv_shape_and_precision(capsys):
    from codedmatvec.cli import main

    params = example_params()
    comm = CommModel.coded(params, 0.12)
    timeline, metrics = run_coded_trial(params, comm, times=inject_comp_times(EXAMPLE_TIMES))
    flags = ["simulate", "--n", "5", "--k", "3", "--r", "5", "--a", "1", "--mu", "1",
             "--t1cmm", "0.12", "--inject", ",".join(map(str, EXAMPLE_TIMES))]
    assert main(flags) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rank,comp_finish,comm_start,comm_end"
    assert len(lines) == 1 + timeline.needed
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells[1:]:
            whole, frac = cell.split(".")
            assert len(frac) == 9
    final_end = float(lines[-1].split(",")[-1])
    assert final_end == pytest.approx(2.512466667, abs=1e-9)
    assert final_end == pytest.approx(timeline.comm_end[-1], abs=1e-9)

    assert main([*flags, "--format", "text"]) == 0
    record = capsys.readouterr().out
    parsed = dict(line.split("=") for line in record.strip().split("\n"))
    assert parsed["hit_lower_bound"] == "true"
    assert parsed["needed"] == "3"
    assert float(parsed["t_total"]) == pytest.approx(2.51246667, rel=1e-8)
    assert float(parsed["t_total"]) == pytest.approx(timeline.t_total, rel=1e-8)
    assert parsed["hit_lower_bound"] == str(metrics.hit_lower_bound).lower()
