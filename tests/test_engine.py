"""The batched trial engine against the single-trial path it replaces.

`run_trials` evaluates the channel in max-plus closed form, the loop of
run_*_trial(RngStream(seed, i)) plus compute_metrics walks the recurrence.
Whatever the chunking, kth_finish and the integer metrics must be equal
(array_equal, never a tolerance).  t_total is held to the exact rational
max-plus value on the same inputs: within 2 ulp for the engine, within
`needed` ulp for the recurrence, which rounds once per rank.  The uncoded
scheme runs the engine on params.uncoded(), the (n, n) code, and neither k
nor n need divide r.  A call over several codes, of one n or of many,
shares the draws and must return exactly what one call per code returns,
every field included, in bounded memory.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmatvec import (
    ClusterParams,
    CommModel,
    RegimeFamily,
    RngStream,
    default_r_rule,
    monte_carlo,
    optimize_k,
    round_k,
    run_coded_trial,
    run_trials,
    run_uncoded_trial,
    sample_comp_times,
    transmission_counts,
    verify_transmission_lemmas,
)
from codedmatvec import channel
from codedmatvec.rng import uniform_rows
from oracles import maxplus_total_exact

EXACT_FIELDS = ("kth_finish", "completed_by_comp_k", "q_idle")


def _ulps(x, exact):
    """|x - exact| in units in the last place of the float nearest exact."""
    return abs(Fraction(float(x)) - exact) / Fraction(math.ulp(float(exact)))


def _loop(params, comm, trials, seed, scheme, p=None):
    run = run_coded_trial if scheme == "coded" else run_uncoded_trial
    rows = {name: [] for name in (*EXACT_FIELDS, "t_total", "comp_finish",
                                  "count1", "count2")}
    violations = 0
    for i in range(trials):
        timeline, metrics = run(params, comm, RngStream(seed, i))
        kth = timeline.comp_finish[timeline.needed - 1]
        rows["t_total"].append(timeline.t_total)
        rows["comp_finish"].append(timeline.comp_finish[: timeline.needed])
        rows["kth_finish"].append(kth)
        rows["completed_by_comp_k"].append(metrics.completed_by_comp_k)
        rows["q_idle"].append(metrics.q_idle)
        if p is not None:
            count1, count2 = transmission_counts(timeline, p)
            rows["count1"].append(count1)
            rows["count2"].append(count2)
            if not (kth + comm.t_cmm <= timeline.t_total <= kth + params.k * comm.t_cmm):
                violations += 1
    return rows, violations


def _assert_matches_loop(params, comm, trials, seed, scheme, p=None):
    code = params.uncoded() if scheme == "uncoded" else params
    (batch,) = run_trials([(code, comm)], trials, seed, p=p)
    rows, violations = _loop(params, comm, trials, seed, scheme, p)
    for name in EXACT_FIELDS:
        assert np.array_equal(getattr(batch, name), np.array(rows[name])), name
    needed, t_cmm = code.k, comm.t_cmm
    for i, finish in enumerate(rows["comp_finish"]):
        exact = maxplus_total_exact(finish, t_cmm, needed)
        assert _ulps(batch.t_total[i], exact) <= 2, (i, batch.t_total[i], exact)
        assert _ulps(rows["t_total"][i], exact) <= needed, (i, rows["t_total"][i], exact)
        # from the engine's own t_total: the loop's differs by the rounding
        # of t_total, which a short span magnifies without bound
        span = float(batch.t_total[i]) - float(finish[0])
        want = needed * t_cmm / span if span > 0 else 0.0
        assert batch.busy_fraction[i] == want, (i, batch.busy_fraction[i], want)
    if p is None:
        assert batch.count1 is None
    else:
        assert np.array_equal(batch.count1, np.array(rows["count1"]))
        assert np.array_equal(batch.completed_by_comp_k - batch.count1,
                              np.array(rows["count2"]))
    return rows, violations


@st.composite
def configurations(draw):
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n))
    scheme = draw(st.sampled_from(["coded", "uncoded"]))
    r = draw(st.integers(1, 3 * math.lcm(n, k)))  # r/k and r/n may be fractional
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
       data=st.data())
def test_run_trials_equals_single_trial_loop(config, seed, trials, rows_per_chunk, data):
    params, comm, scheme = config
    p = data.draw(st.integers(1, params.n)) if scheme == "coded" else None
    # shrink the chunk so small trial counts and small n cross chunk boundaries:
    # an occupancy chunk's columns are the draws and two work matrices
    code = params.uncoded() if scheme == "uncoded" else params
    columns = code.n + 2 * code.k
    chunk = channel.CHUNK_ELEMENTS if rows_per_chunk is None else rows_per_chunk * columns
    with mock.patch.object(channel, "CHUNK_ELEMENTS", chunk):
        _assert_matches_loop(params, comm, trials, seed, scheme, p)


@st.composite
def mixed_n_codes(draw):
    # each code its own n, repeats and any order included
    pool = draw(st.lists(st.integers(1, 200), min_size=1, max_size=3))
    codes = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.sampled_from(pool))
        k = draw(st.one_of(st.just(n), st.integers(1, n)))  # k = n: the uncoded code
        params = ClusterParams(n=n, k=k, r=draw(st.integers(1, 3 * math.lcm(n, k))),
                               a=draw(st.sampled_from([0.0, 0.3, 1.0])),
                               mu=draw(st.sampled_from([0.5, 1.0, 3.0, 1e18])))
        t_one = draw(st.sampled_from([0.0, 1.0 / (params.r * n), 0.1 / params.r, 10.0]))
        codes.append((params, CommModel.coded(params, t_one)))
    return codes


@settings(max_examples=60, deadline=None)
@given(codes=mixed_n_codes(), seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 12),
       rows_per_chunk=st.sampled_from([1, 2, 5, None]), data=st.data())
def test_run_trials_codes_share_draws_exactly(codes, seed, trials, rows_per_chunk, data):
    # one call over several codes returns, field for field and bit for bit,
    # what one call per code returns, whichever n each code has
    ns = [params.n for params, _ in codes]
    p = data.draw(st.none() | st.integers(1, min(ns)))
    columns = max(ns) + 2 * max(params.k for params, _ in codes)
    chunk = channel.CHUNK_ELEMENTS if rows_per_chunk is None else rows_per_chunk * columns
    with mock.patch.object(channel, "CHUNK_ELEMENTS", chunk):
        batches = run_trials(codes, trials, seed, p=p)
        assert len(batches) == len(codes)
        for code, batch in zip(codes, batches):
            (alone,) = run_trials([code], trials, seed, p=p)
            for field in dataclasses.fields(channel.TrialArrays):
                want, got = getattr(alone, field.name), getattr(batch, field.name)
                assert (got is None and want is None) or np.array_equal(got, want), field.name


@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
def test_run_trials_crosses_real_chunk_boundary(scheme):
    params = ClusterParams(n=300, k=210, r=2100, a=1.0, mu=1.0)
    make = CommModel.coded if scheme == "coded" else CommModel.uncoded
    needed = params.k if scheme == "coded" else params.n
    # two full chunks of the draws and two work matrices, and a tail
    trials = 2 * (channel.CHUNK_ELEMENTS // (params.n + 2 * needed)) + 3
    _assert_matches_loop(params, make(params, 1 / 3000), trials, 17, scheme)


@pytest.mark.parametrize("scheme", ["coded", "uncoded"])
@pytest.mark.parametrize("t_one", [0.0, 1e-3])
def test_run_trials_exact_ties(scheme, t_one):
    # every completion rounds to the startup shift: ranks tie exactly, a
    # free channel takes each the instant it finishes, and the span is 0
    params = ClusterParams(n=20, k=14, r=140, a=1.0, mu=1e18)
    make = CommModel.coded if scheme == "coded" else CommModel.uncoded
    _assert_matches_loop(params, make(params, t_one), 30, 4, scheme)


CRITERION_03 = ClusterParams(n=100, k=70, r=700, a=1.0, mu=1.0)
T_ONE_03 = CRITERION_03.k / (CRITERION_03.r * CRITERION_03.n)
REGIME_2 = ClusterParams(n=1000, k=700, r=700, a=1.0, mu=1.0)


@pytest.mark.parametrize("params, t_one, scheme", [
    (CRITERION_03, T_ONE_03, "coded"),
    (CRITERION_03, T_ONE_03, "uncoded"),
    (REGIME_2, RegimeFamily(c=1.0, beta=0.5).t_one_cmm(REGIME_2.n), "coded"),
], ids=["criterion03-coded", "criterion03-uncoded", "regime2-saturated"])
def test_run_trials_sandwich_holds_bitwise(params, t_one, scheme):
    # kth + t_cmm <= t_total <= kth + k*t_cmm in floats, on every trial, as
    # verify checks it; taking t_total from the running max of the ends
    # lands one ulp under the lower end on most criterion-03 trials
    code = params.uncoded() if scheme == "uncoded" else params
    comm = CommModel.coded(code, t_one)
    (batch,) = run_trials([(code, comm)], 2000, 301)
    kth, total = batch.kth_finish, batch.t_total
    assert np.count_nonzero(kth + comm.t_cmm > total) == 0
    assert np.count_nonzero(total > kth + code.k * comm.t_cmm) == 0


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
            run_trials([(params, comm)], trials, 0)
    with pytest.raises(ValueError, match="p must"):
        run_trials([(params, comm)], 5, 0, p=11)
    # a coded comm model on the uncoded (n, n) code
    with pytest.raises(ValueError, match="work_per_worker"):
        run_trials([(params.uncoded(), comm)], 5, 0)
    with pytest.raises(ValueError, match="at least one"):
        run_trials([], 5, 0)
    # codes of different n take a pipeline index up to the smallest n
    other = ClusterParams(n=20, k=14, r=140, a=1.0, mu=1.0)
    with pytest.raises(ValueError, match=r"p must lie in \[1, 10\], got 11"):
        run_trials([(other, CommModel.coded(other, 0.001)), (params, comm)], 5, 0, p=11)


OCCUPANCY_FIELDS = ("completed_by_comp_k", "q_idle", "busy_fraction", "count1")


LADDER = [100, 200, 400, 800, 1600, 3200]
# criterion 09's family, whose run-time max lies near rank k, so a chunk
# keeps each code's last piece of ranks, and a regime-II one whose
# saturated channel puts it near rank 1, so the first piece is kept as well
CRITERION_09, SATURATED = RegimeFamily(c=0.1, beta=1.0), RegimeFamily(c=10.0, beta=0.5)


def _ladder_codes(n, family=CRITERION_09):
    # a ladder's point n: its optimized k against the uncoded (n, n) code
    r, t_one = default_r_rule(n, round_k(0.7, n)), family.t_one_cmm(n)
    k, _ = optimize_k(n, r, 1.0, 1.0, comm_at_k=lambda kk: (r / kk) * t_one,
                      require_divisor=True)
    params = ClusterParams(n=n, k=k, r=r, a=1.0, mu=1.0)
    return [(params, CommModel.coded(params, t_one)),
            (params.uncoded(), CommModel.uncoded(params, t_one))]


@pytest.mark.parametrize("n, family", [pytest.param(n, CRITERION_09, id=str(n)) for n in LADDER]
                         + [pytest.param(n, SATURATED, id=f"saturated-{n}") for n in LADDER])
def test_run_times_alone_equal_the_full_run_on_the_ladder(n, family):
    # the speedup ladders' shapes, over two full run-time-only chunks of the
    # draws and one window, and a tail (more than an occupancy run's chunks
    # hold); the saturated ladder keeps its first piece, so from n = 800 on
    # its uncoded code's max merges several pieces of channel.WINDOW columns
    codes = _ladder_codes(n, family)
    trials = 2 * (channel.CHUNK_ELEMENTS // (n + min(n, channel.WINDOW))) + 3
    for full, alone in zip(run_trials(codes, trials, 11),
                           run_trials(codes, trials, 11, occupancy=False)):
        assert np.array_equal(alone.t_total, full.t_total)
        assert np.array_equal(alone.kth_finish, full.kth_finish)
        assert all(getattr(alone, name) is None for name in OCCUPANCY_FIELDS)


W = channel.WINDOW
PRUNE_NS = (5, 31, 32, 33, 64, 65, 100, 400, 2 * W + 1)
PRUNE_KS = (1, 2, 31, 32, 33, 64, 65, 70, 99, W - 1, W, W + 1, 2 * W + 1)


@pytest.mark.parametrize("t_one", [0.0, 1e-4, 1e-3, 0.01, 0.1, 1.0])
def test_pruned_run_time_is_the_full_row_max_bit_for_bit(t_one):
    # occupancy=False skips each piece of ranks before the last whose bound
    # is over the running max on no row: it must equal the max over every
    # rank, bit for bit, from an idle channel to a saturated one, for codes
    # of mixed n in one call across chunks, at k of one piece (up to 99)
    # and k on either side of the edges of the pieces of WINDOW columns the
    # max is taken in, up to three pieces.  The six cases take about 0.3 s
    coded = [ClusterParams(n=n, k=k, r=3 * k, a=0.3, mu=1.0)
             for n in PRUNE_NS for k in PRUNE_KS if k <= n]
    codes = [(params, CommModel.coded(params, t_one))
             for code in coded for params in (code, code.uncoded())]
    trials, seed = 7, 23
    # 3 rows of the draws and one window per chunk: chunks of 3, 3 and 1
    with mock.patch.object(channel, "CHUNK_ELEMENTS", 3 * (max(PRUNE_NS) + W)):
        outs = run_trials(codes, trials, seed, occupancy=False)
    for (params, comm), out in zip(codes, outs):
        k = params.k
        for i in range(trials):
            times = sample_comp_times(params, params.r / params.k, RngStream(seed, i))
            cf = params.t0 + times.sorted
            assert out.kth_finish[i] == cf[k - 1], (params, i)
            want = np.max(cf[:k] + comm.t_cmm * np.arange(k, 0, -1.0))
            assert out.t_total[i] == want, (params, i, out.t_total[i], want)


@pytest.mark.parametrize("occupancy, family", [
    pytest.param(False, CRITERION_09, id="False"), pytest.param(True, CRITERION_09, id="True"),
    pytest.param(False, SATURATED, id="False-saturated")])
def test_a_ladder_call_holds_one_chunk_of_buffers_whatever_the_trials(occupancy, family):
    # a whole ladder in one call: beyond the arrays it returns, the engine
    # holds one chunk's draws and two work matrices (one window of WINDOW
    # columns, in more rows, in a run-time-only call), at most
    # CHUNK_ELEMENTS float64, at any trial count, and sorts each n's
    # columns of the draws in place; the slack covers the per-code tail
    # vectors and, in an occupancy run only, the flags and the rank
    # vectors.  On the saturated ladder a run-time-only call keeps the most
    # pieces, and they reuse the one window (an occupancy run computes
    # every rank on either ladder)
    codes = [code for n in LADDER for code in _ladder_codes(n, family)]
    p = 50 if occupancy else None
    run_trials(codes, 1, 0, p=p, occupancy=occupancy)  # numpy's one-time set-up
    bound = channel.CHUNK_ELEMENTS * 8 + 2**18 + 2**16
    for trials in (500, 2000):
        tracemalloc.start()
        try:
            outs = run_trials(codes, trials, 5, p=p, occupancy=occupancy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(array.nbytes for out in outs for array in vars(out).values()
                       if array is not None)
        assert peak - returned <= bound, (trials, peak - returned, bound)


def test_a_run_time_only_chunk_spends_the_scratch_matrix_on_rows():
    # with no scratch matrix and a work window of WINDOW = 512 columns, a
    # run-time-only chunk of the whole ladder holds
    # CHUNK_ELEMENTS // (3200 + 512) = 52 rows against an occupancy run's
    # CHUNK_ELEMENTS // (3200 + 2 * 3200) = 20, so 100 trials take 2 draws,
    # not 5, and the run-times and needed-th completions are the same bits
    codes = [code for n in LADDER for code in _ladder_codes(n)]
    runs, draws = {}, {}
    for occupancy in (False, True):
        with mock.patch.object(channel, "uniform_rows", wraps=uniform_rows) as counted:
            runs[occupancy] = run_trials(codes, 100, 4, occupancy=occupancy)
        draws[occupancy] = counted.call_count
    assert draws == {False: 2, True: 5}
    for alone, full in zip(runs[False], runs[True]):
        assert np.array_equal(alone.t_total, full.t_total)
        assert np.array_equal(alone.kth_finish, full.kth_finish)


def test_an_occupancy_chunk_takes_its_rows_from_the_one_budget():
    # montecarlo's shape at n = 100, k = 70: the draws and two work
    # matrices make 100 + 2 * 70 columns, so a chunk holds
    # CHUNK_ELEMENTS // 240 = 819 rows and 2000 trials take 3 draws; every
    # field is a one-row-per-chunk run's
    params = ClusterParams(n=100, k=70, r=700, a=1.0, mu=1.0)
    codes = [(params, CommModel.coded(params, 0.001))]
    with mock.patch.object(channel, "uniform_rows", wraps=uniform_rows) as counted:
        (chunked,) = run_trials(codes, 2000, 3, p=50)
    assert counted.call_count == 3
    with mock.patch.object(channel, "CHUNK_ELEMENTS", 1):
        (one_row,) = run_trials(codes, 2000, 3, p=50)
    for field in dataclasses.fields(channel.TrialArrays):
        assert np.array_equal(getattr(chunked, field.name), getattr(one_row, field.name)), field.name


def test_run_trials_refuses_p_without_occupancy():
    params = ClusterParams(n=10, k=7, r=70, a=1.0, mu=1.0)
    with pytest.raises(ValueError, match="occupancy"):
        run_trials([(params, CommModel.coded(params, 0.001))], 5, 0, p=3, occupancy=False)


def test_verify_rejects_zero_trials():
    # used to return a NaN report with sandwich_violations=0
    params = ClusterParams(n=30, k=21, r=21, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.001)
    with pytest.raises(ValueError, match="trials"):
        verify_transmission_lemmas(params, comm, trials=0, seed=0)


def test_any_trial_replays_alone():
    params = ClusterParams(n=100, k=70, r=700, a=1.0, mu=1.0)
    comm = CommModel.coded(params, 0.001)
    (batch,) = run_trials([(params, comm)], 1000, 7)
    timeline, _ = run_coded_trial(params, comm, RngStream(7, 876))
    assert batch.t_total[876] == timeline.t_total
    mc, _ = monte_carlo(params, comm, 1000, 7)
    assert mc.mean == float(np.mean(batch.t_total))


def _smallest_accepted_mu(n, k, r, a, t_one_cmm, trials):
    # positive floats order as their bit patterns: bisect those
    def accepted(bits):
        params = ClusterParams(n=n, k=k, r=r, a=a, mu=float(np.int64(bits).view(np.float64)))
        try:
            channel._check_work(params, CommModel.coded(params, t_one_cmm), trials)
        except ValueError as err:
            assert str(err).startswith(("mu: ", "a, mu, t_one_cmm: "))
            return False
        return True

    lo, hi = int(np.float64(5e-324).view(np.int64)), int(np.float64(1.0).view(np.int64))
    assert not accepted(lo) and accepted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


@pytest.mark.parametrize("n, k, r, a, t_one_cmm", [
    (100, 70, 700, 1.0, 0.001),  # the draw is all of B = 5.47e153
    (8, 3, 10, 0.0, 1e152),      # k*t_cmm is 1e153 of it, at a fractional load
    (8, 5, 10, 3e152, 0.0),      # the shift is 6e152 of it
])
def test_largest_draw_at_the_smallest_accepted_mu_stays_within_the_bound(n, k, r, a, t_one_cmm):
    # every uniform at its largest value 1 - 2**-53, at the mu where the
    # moment bound 2*trials*B*B is just finite: the engine runs without a
    # warning, and every run-time is B
    trials = 3
    mu = _smallest_accepted_mu(n, k, r, a, t_one_cmm, trials)
    params = ClusterParams(n=n, k=k, r=r, a=a, mu=mu)
    comm = CommModel.coded(params, t_one_cmm)
    bound = (channel.LARGEST_UNIT_DRAW / (mu / (r / k)) + params.t0) + k * comm.t_cmm
    assert math.isfinite(2 * trials * bound * bound) and bound > 5e153

    def largest_uniform(seed, first, out):
        out.fill(1 - 2**-53)
        return out

    with mock.patch.object(channel, "uniform_rows", largest_uniform):
        (out,) = run_trials([(params, comm)], trials, 0, p=1)
    assert np.all(np.isfinite(out.kth_finish)) and np.all(out.kth_finish <= bound)
    assert np.all(np.isfinite(out.t_total)) and np.all(out.t_total == bound)
