"""The batched trial engine against the single-trial path it replaces.

`run_trials` must give, array for array, exactly what a loop of
run_*_trial(RngStream(seed, i)) plus compute_metrics gives, whatever the
chunking; these tests compare with array_equal, never with a tolerance.
The uncoded scheme runs the engine on params.uncoded(), the (n, n) code.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmatvec import (
    ClusterParams,
    CommModel,
    RngStream,
    monte_carlo,
    run_coded_trial,
    run_trials,
    run_uncoded_trial,
    transmission_counts,
    verify_transmission_lemmas,
)
from codedmatvec import channel
from codedmatvec.rng import uniform_rows

FIELDS = ("t_total", "kth_finish", "completed_by_comp_k", "q_idle",
          "busy_fraction", "hit_lower_bound")


def _loop(params, comm, trials, seed, scheme, p=None):
    run = run_coded_trial if scheme == "coded" else run_uncoded_trial
    rows = {name: [] for name in (*FIELDS, "count1", "count2")}
    violations = 0
    for i in range(trials):
        timeline, metrics = run(params, comm, RngStream(seed, i))
        kth = timeline.comp_finish[timeline.needed - 1]
        rows["t_total"].append(timeline.t_total)
        rows["kth_finish"].append(kth)
        rows["completed_by_comp_k"].append(metrics.completed_by_comp_k)
        rows["q_idle"].append(metrics.q_idle)
        rows["busy_fraction"].append(metrics.busy_fraction)
        rows["hit_lower_bound"].append(metrics.hit_lower_bound)
        if p is not None:
            count1, count2 = transmission_counts(timeline, p)
            rows["count1"].append(count1)
            rows["count2"].append(count2)
            if not (kth + comm.t_cmm <= timeline.t_total <= kth + params.k * comm.t_cmm):
                violations += 1
    return rows, violations


def _assert_matches_loop(params, comm, trials, seed, scheme, p=None):
    code = params.uncoded() if scheme == "uncoded" else params
    batch = run_trials(code, comm, trials, seed, p=p)
    rows, violations = _loop(params, comm, trials, seed, scheme, p)
    for name in FIELDS:
        assert np.array_equal(getattr(batch, name), np.array(rows[name])), name
    if p is None:
        assert batch.count1 is None and batch.count2 is None
    else:
        assert np.array_equal(batch.count1, np.array(rows["count1"]))
        assert np.array_equal(batch.count2, np.array(rows["count2"]))
    return rows, violations


@st.composite
def configurations(draw):
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n))
    scheme = draw(st.sampled_from(["coded", "uncoded"]))
    r = math.lcm(n, k) * draw(st.integers(1, 3))
    # mu=1e18 with a=1: every completion rounds to the startup shift, so
    # completion times tie exactly with each other and with channel releases
    # a=0.3 makes the shift a*r/k round differently from a*(r/k)
    params = ClusterParams(n=n, k=k, r=r, a=draw(st.sampled_from([0.0, 0.3, 1.0])),
                           mu=draw(st.sampled_from([0.5, 1.0, 3.0, 1e18])))
    # instant channel, comparable, saturated
    t_one = draw(st.sampled_from([0.0, 1.0 / (r * n), 0.1 / r, 10.0]))
    make = CommModel.coded if scheme == "coded" else CommModel.uncoded
    return params, make(params, t_one), scheme


@settings(max_examples=60, deadline=None)
@given(config=configurations(), seed=st.integers(0, 2**64 - 1),
       trials=st.integers(1, 12), rows_per_chunk=st.sampled_from([1, 2, 5, None]),
       block=st.sampled_from([1, 3, 16, None]), data=st.data())
def test_run_trials_equals_single_trial_loop(config, seed, trials, rows_per_chunk, block, data):
    params, comm, scheme = config
    p = data.draw(st.integers(1, params.n)) if scheme == "coded" else None
    # shrink the chunk and the recurrence block so small trial counts and
    # small n cross chunk and block boundaries
    chunk = channel.CHUNK_ELEMENTS if rows_per_chunk is None else rows_per_chunk * params.n
    block = channel.BLOCK_ELEMENTS if block is None else block
    with mock.patch.object(channel, "CHUNK_ELEMENTS", chunk), \
            mock.patch.object(channel, "BLOCK_ELEMENTS", block):
        _assert_matches_loop(params, comm, trials, seed, scheme, p)


@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
def test_run_trials_crosses_real_chunk_boundary(scheme):
    params = ClusterParams(n=300, k=210, r=2100, a=1.0, mu=1.0)
    make = CommModel.coded if scheme == "coded" else CommModel.uncoded
    trials = 2 * (channel.CHUNK_ELEMENTS // params.n) + 3  # two full chunks and a tail
    _assert_matches_loop(params, make(params, 1 / 3000), trials, 17, scheme)


@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
@pytest.mark.parametrize("t_one", [0.0, 1e-3])
def test_run_trials_exact_ties(scheme, t_one):
    # every completion rounds to the startup shift: ranks tie exactly, a
    # free channel takes each the instant it finishes, and the span is 0
    params = ClusterParams(n=20, k=14, r=140, a=1.0, mu=1e18)
    make = CommModel.coded if scheme == "coded" else CommModel.uncoded
    _assert_matches_loop(params, make(params, t_one), 30, 4, scheme)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(20, 200), seed=st.integers(0, 2**64 - 1),
       trials=st.integers(2, 30), t_one=st.sampled_from([0.0, 1e-4, 1e-2]))
def test_verify_report_counts_equal_transmission_counts_loop(n, seed, trials, t_one):
    k = max(1, (9 * n) // 10)
    params = ClusterParams(n=n, k=k, r=k, a=1.0, mu=2.0)
    comm = CommModel.coded(params, t_one)
    report = verify_transmission_lemmas(params, comm, trials, seed)
    rows, violations = _assert_matches_loop(params, comm, trials, seed, "coded", p=report.p)
    assert report.sandwich_violations == violations
    assert report.mean_count1 == float(np.mean(np.array(rows["count1"], dtype=float)))
    assert report.mean_count2 == float(np.mean(np.array(rows["count2"], dtype=float)))


# the engine only compares finite times; keep a - b from overflowing
finite = st.floats(min_value=-1e300, max_value=1e300)


@settings(max_examples=300, deadline=None)
@given(a=finite, b=finite, steps=st.integers(-3, 3))
def test_isclose_matches_math_isclose(a, b, steps):
    # also probe b right at the relative tolerance edge around a
    near = a * (1 + steps * channel.LOWER_BOUND_REL_TOL / 2)
    for x, y in ((a, b), (b, a), (a, near), (near, a), (a, steps * 1e-15), (a, a)):
        want = math.isclose(x, y, rel_tol=channel.LOWER_BOUND_REL_TOL,
                            abs_tol=channel.LOWER_BOUND_ABS_TOL)
        assert channel._isclose(np.array([x]), np.array([y]))[0] == want, (x, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**64 - 8),
       rows=st.integers(0, 7), n=st.integers(1, 50))
def test_uniform_rows_replay_rng_streams(seed, first, rows, n):
    out = uniform_rows(seed, first, np.empty((rows, n)))
    for j in range(rows):
        assert np.array_equal(out[j], RngStream(seed, first + j).uniforms(n))


def test_uniform_rows_validates_keys():
    with pytest.raises(ValueError, match="seed"):
        uniform_rows(-1, 0, np.empty((1, 3)))
    with pytest.raises(ValueError, match="stream_id"):
        uniform_rows(0, 2**64 - 1, np.empty((2, 3)))
    with pytest.raises(ValueError, match="stream_id"):
        uniform_rows(0, 1.5, np.empty((1, 3)))


def test_run_trials_rejects_bad_arguments():
    params = ClusterParams(n=10, k=7, r=70, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.001)
    for trials in (0, -3, 2.0):
        with pytest.raises(ValueError, match="trials"):
            run_trials(params, comm, trials, 0)
    with pytest.raises(ValueError, match="p must"):
        run_trials(params, comm, 5, 0, p=11)
    # a coded comm model on the uncoded (n, n) code
    with pytest.raises(ValueError, match="work_per_worker"):
        run_trials(params.uncoded(), comm, 5, 0)


def test_verify_rejects_zero_trials():
    # used to return a NaN report with sandwich_violations=0
    params = ClusterParams(n=30, k=21, r=21, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.001)
    with pytest.raises(ValueError, match="trials"):
        verify_transmission_lemmas(params, comm, trials=0, seed=0)


def test_any_trial_replays_alone():
    params = ClusterParams(n=100, k=70, r=700, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.001)
    batch = run_trials(params, comm, 1000, 7)
    timeline, _ = run_coded_trial(params, comm, RngStream(7, 876))
    assert batch.t_total[876] == timeline.t_total
    mc, _ = monte_carlo(params, comm, 1000, 7)
    assert mc.mean == float(np.mean(batch.t_total))
