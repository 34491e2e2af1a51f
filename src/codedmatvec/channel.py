"""Serial-channel scheduling of worker result transmissions.

Only one worker transmits to the master at a time.  Transmissions happen
in computation-completion order (FIFO), without preemption, and each lasts
t_cmm seconds.  The whole timeline follows from the single-pass recurrence

    comm_end[i] = max(comp_finish[i], comm_end[i-1]) + t_cmm

over the first `needed` completion ranks; workers finishing after the
needed-th transmission never occupy the channel.  The single-trial path
walks this recurrence.  It is linear in max-plus algebra, so the batched
engine `run_trials` uses its closed forms instead (ranks from 1):

    t_total     = max_j (comp_finish[j] + (needed - j + 1) * t_cmm)
    comm_end[i] = i * t_cmm + max_{j<=i} (comp_finish[j] - (j - 1) * t_cmm)

The max starts from its last term, comp_finish[needed] + t_cmm, which an
idle channel attains, and a run that needs only t_total skips each piece
of WINDOW ranks whose float upper bound exceeds the running max on no
trial: the max is unchanged bit for bit.  An idle channel keeps the
pieces near rank `needed`, a saturated one the first piece as well.

One `run_trials` call serves several codes (the coded scheme and its
uncoded (n, n) baseline, say, or a whole ladder of n) on common random
numbers: trial i of every code reads stream i, whose first n uniforms
are the first n of any longer draw.  The unit-rate exponentials are drawn
once at the largest n, each distinct n, ascending, sorts its first n
columns in place, and each code scales its n's order statistics by its
own rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngStream, uniform_rows
from .timing import (LARGEST_UNIT_DRAW, ClusterParams, CompTimes, sample_comp_times,
                     unit_exponentials)

# float64 elements of one `run_trials` chunk's buffer (1.5 MiB): the draws
# at the call's largest n and the work matrices, in as many rows as it
# holds (one at least).  Every code of a call reuses it, so memory stays
# within it whatever the trial count.
CHUNK_ELEMENTS = 3 * 2**16
# columns of a run-time-only call's work matrix (or the widest code's k, if
# fewer): its row max runs in pieces this wide, each kept or skipped whole.
# Against 512 columns, criterion 09's ladder (max near rank k) took 9.0%
# longer at 128, 2.2% at 256 and 6.8% at 1024; a saturated ladder (beta
# 0.5, c 10; max near rank 1) took 4.6%, 0.0% and 7.8% longer: each piece
# pays a fixed cost, and a wider one keeps more ranks
WINDOW = 512


@dataclass(frozen=True)
class CommModel:
    """Per-worker transmission duration on the serial channel.

    t_one_cmm       -- seconds to transmit one inner-product result
    work_per_worker -- inner products per worker (may be fractional)
    """

    t_one_cmm: float
    work_per_worker: float

    def __post_init__(self):
        if not math.isfinite(self.t_one_cmm) or self.t_one_cmm < 0:
            raise ValueError(f"t_one_cmm must be >= 0, got {self.t_one_cmm!r}")
        if not math.isfinite(self.work_per_worker) or self.work_per_worker <= 0:
            raise ValueError(f"work_per_worker must be > 0, got {self.work_per_worker!r}")
        if not math.isfinite(self.t_cmm):
            raise ValueError(f"t_one_cmm: t_cmm = work_per_worker * t_one_cmm must be finite, "
                             f"got {self.work_per_worker!r} * {self.t_one_cmm!r}")

    @property
    def t_cmm(self) -> float:
        """Transmission time of one worker's full result."""
        return self.work_per_worker * self.t_one_cmm

    @classmethod
    def coded(cls, params: ClusterParams, t_one_cmm: float) -> "CommModel":
        return cls(t_one_cmm=t_one_cmm, work_per_worker=params.r / params.k)

    @classmethod
    def uncoded(cls, params: ClusterParams, t_one_cmm: float) -> "CommModel":
        return cls.coded(params.uncoded(), t_one_cmm)


@dataclass(frozen=True)
class Timeline:
    """One realized trial of the serial channel.

    comp_finish -- absolute completion times by rank (length >= needed)
    comm_start  -- transmission starts for ranks 1..needed
    comm_end    -- transmission ends for ranks 1..needed
    needed      -- transmissions required to decode
    t_cmm       -- per-transmission duration used for this timeline
    t_total     -- comm_end[needed], the total run-time
    """

    comp_finish: np.ndarray
    comm_start: np.ndarray
    comm_end: np.ndarray
    needed: int
    t_cmm: float
    t_total: float


@dataclass(frozen=True)
class TimelineMetrics:
    """Channel-occupancy summary of a Timeline.

    q_idle              -- greatest rank q <= needed whose transmission
                           started the instant its computation finished
    completed_by_comp_k -- transmissions finished by the needed-th
                           computation's completion time
    busy_fraction       -- channel busy time / (t_total - comp_finish[1])
    hit_lower_bound     -- q_idle == needed: the needed-th result transmits
                           the instant it finishes, so t_total is exactly
                           comp_finish[needed] + t_cmm
    """

    q_idle: int
    completed_by_comp_k: int
    busy_fraction: float
    hit_lower_bound: bool


def schedule_serial_channel(comp_finish, t_cmm: float, needed: int) -> Timeline:
    """Run the FIFO non-preemptive recurrence over the first `needed` ranks."""
    cf = np.ascontiguousarray(comp_finish, dtype=np.float64)
    if cf.ndim != 1 or cf.size == 0:
        raise ValueError("comp_finish must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(cf)):
        raise ValueError("comp_finish must be finite")
    if np.any(np.diff(cf) < 0):
        raise ValueError("comp_finish must be nondecreasing")
    if not isinstance(needed, int) or not 1 <= needed <= cf.size:
        raise ValueError(f"needed must satisfy 1 <= needed <= {cf.size}, got {needed!r}")
    if not math.isfinite(t_cmm) or t_cmm < 0:
        raise ValueError(f"t_cmm must be >= 0, got {t_cmm!r}")

    free = -math.inf  # each start is max(comp_finish, previous end): exact
    ends = np.array([free := (c if c >= free else free) + t_cmm for c in cf[:needed].tolist()])
    return Timeline(
        comp_finish=cf,
        comm_start=np.concatenate((cf[:1], np.maximum(cf[1:needed], ends[:-1]))),
        comm_end=ends,
        needed=needed,
        t_cmm=t_cmm,
        t_total=free,
    )


def compute_metrics(t: Timeline) -> TimelineMetrics:
    kth_finish = t.comp_finish[t.needed - 1]
    completed = int(np.searchsorted(t.comm_end, kth_finish, side="right"))
    idle = np.nonzero(t.comm_start == t.comp_finish[: t.needed])[0]
    q_idle = int(idle[-1]) + 1  # rank 1 always qualifies
    busy = t.needed * t.t_cmm
    span = float(t.t_total - t.comp_finish[0])
    busy_fraction = busy / span if span > 0 else 0.0
    return TimelineMetrics(
        q_idle=q_idle,
        completed_by_comp_k=completed,
        busy_fraction=busy_fraction,
        hit_lower_bound=q_idle == t.needed,
    )


@dataclass(frozen=True)
class TrialArrays:
    """Per-trial results of `run_trials`; entry i is trial i, RngStream(seed, i).

    The first five arrays hold the run-time t_total, the needed-th
    completion time and the TimelineMetrics fields but hit_lower_bound,
    which is q_idle == needed.  Given a pipeline index,
    count1 holds each trial's first `transmission_counts`; the second is
    completed_by_comp_k - count1.  A run with occupancy=False leaves the
    three occupancy fields and count1 None.
    """

    t_total: np.ndarray
    kth_finish: np.ndarray
    completed_by_comp_k: np.ndarray | None
    q_idle: np.ndarray | None
    busy_fraction: np.ndarray | None
    count1: np.ndarray | None = None


def run_trials(
    codes: Sequence[tuple[ClusterParams, CommModel]],
    trials: int,
    seed: int,
    p: int | None = None,
    occupancy: bool = True,
) -> list[TrialArrays]:
    """Run trials 0..trials-1 of every (params, comm) pair in `codes`,
    trial i of each on RngStream(seed, i), and return one TrialArrays per
    pair, in order.  The pairs may differ in n; the uncoded scheme is the
    pair (params.uncoded(), CommModel.uncoded(params, t_one_cmm)).

    RngStream(seed, i).uniforms(n) is the first n of uniforms(N): Philox
    spends one 64-bit word per double.  So each chunk re-keys one stream
    per row, draws the row once at the call's largest n, N, and turns it
    into unit-rate draws once (unit_exponentials).  Each distinct n sorts
    the first n columns in place, and the order must ascend: a sort
    permutes only the columns it sorts, so the first n' > n columns still
    hold the unsorted draw's values and sort to the same sequence.  No
    unit draw is NaN or -0.0, so equal values have equal bits.  Each pair
    then divides the first `needed` columns of its own n's sorted draws
    by its rate and adds its shift, as sample_comp_times and
    run_coded_trial do, so the completion times cf are the single-trial
    path's bit for bit.  The channel follows from the module's max-plus
    forms, with no step per rank: t_total is the row max of cf + tail,
    within 2 ulp of the exact value and inside
    [kth + t_cmm, kth + needed * t_cmm] in floats (its last term is the
    lower end, and rounding is monotone); the ends, one running max, feed
    only the integer metrics.

    With occupancy=False each pair stops at t_total and kth_finish, which
    are bit for bit the default run's: the ends, flags, completed_by_comp_k,
    q_idle and busy_fraction are neither computed nor allocated, and
    those fields are None.  The ranks go through one work matrix of
    WINDOW columns in pieces, and t_total starts from the last term,
    kth + tail[-1], with the last column's float operations.  A piece
    [lo, hi) before the last is bounded by cf[hi - 1] + tail[lo] in
    floats: cf is nondecreasing, tail decreasing, and correctly rounded
    / and + are monotone in each operand.  A piece whose bound exceeds
    the running t_total on no row of the chunk is skipped, since each of
    its terms is at most that running max, so t_total is still the max
    over all ranks.  A kept piece of cf gets the tail in place, and its
    row max merges into t_total with np.maximum, which is exact.  An
    occupancy run's window is the widest k, so its one piece is the last
    and is always kept.  So a run-time-only chunk holds the draws plus
    that window, where an occupancy run holds the draws plus two work
    matrices as wide as the widest code, and either takes as many rows as
    CHUNK_ELEMENTS holds: 52 per chunk on criterion 09's ladder, against
    an occupancy run's 20.
    speedup_curve, which reads only t_total, passes occupancy=False; a
    pipeline index p needs the ends, so p with occupancy=False is
    refused.  p must lie in [1, smallest n].
    """
    codes = list(codes)
    if not codes:
        raise ValueError("codes must hold at least one (params, comm) pair")
    # by n, ascending, as the in-place sorts need; a stable sort keeps a
    # call of one n in code order
    order = sorted(range(len(codes)), key=lambda index: codes[index][0].n)
    smallest, top = codes[order[0]][0].n, codes[order[-1]][0].n
    if p is not None and not (isinstance(p, int) and 1 <= p <= smallest):
        raise ValueError(f"p must lie in [1, {smallest}], got {p!r}")
    if p is not None and not occupancy:
        raise ValueError("p needs occupancy=True: count1 is read from the transmission ends")
    for params, comm in codes:
        _check_work(params, comm, trials)
    outs = [TrialArrays(
        t_total=np.empty(trials),
        kth_finish=np.empty(trials),
        completed_by_comp_k=np.empty(trials, dtype=np.intp) if occupancy else None,
        q_idle=np.empty(trials, dtype=np.intp) if occupancy else None,
        busy_fraction=np.zeros(trials) if occupancy else None,
        count1=None if p is None else np.empty(trials, dtype=np.intp),
    ) for _ in codes]
    width = max(params.k for params, _ in codes)
    # an occupancy run takes each pair's `needed` ranks in one piece, which
    # its metrics read whole, beside a scratch matrix as wide; a run-time-only
    # call has no scratch matrix
    window = width if occupancy else min(width, WINDOW)
    columns = top + (1 + occupancy) * window
    rows = min(trials, max(1, CHUNK_ELEMENTS // columns))
    # one buffer for the draws and the work matrices, shared by every
    # pair: separate buffers freed together leave a free heap top
    # past glibc's trim threshold, and every call then faults their pages
    # back in
    buffer = np.empty(rows * columns)
    draws, work, scratch = np.split(buffer, [rows * top, rows * (top + window)])
    flags = np.empty(rows * width, dtype=bool) if occupancy else None

    # from rank 0, once per call: tail[j] = (needed - j) * t_cmm
    tails = [comm.t_cmm * np.arange(params.k, 0, -1.0) for params, comm in codes]

    for first in range(0, trials, rows):
        m = min(rows, trials - first)
        done = slice(first, first + m)
        draw = draws[: m * top].reshape(m, top)
        unit_exponentials(uniform_rows(seed, first, draw))
        n = 0
        for index in order:
            (params, comm), out, tail = codes[index], outs[index], tails[index]
            if params.n != n:
                n, times = params.n, draw[:, :params.n]
                times.sort(axis=-1)
            rate, shift, needed, t_cmm = params.rate, params.t0, params.k, comm.t_cmm
            kth = np.divide(times[:, needed - 1], rate, out=out.kth_finish[done])
            kth += shift
            # the last term, with the last column's float operations, seeds the max
            total = np.add(kth, tail[-1], out=out.t_total[done])
            for lo in range(0, needed, window):
                hi = min(lo + window, needed)
                # skip a piece whose bound cf[hi - 1] + tail[lo] is over the running
                # max on no row.  Only pieces before the last are tested: an
                # occupancy run's one piece is the last, and its metrics read it whole
                if hi < needed and not np.any(times[:, hi - 1] / rate + shift + tail[lo] > total):
                    continue
                size = hi - lo
                cf = np.divide(times[:, lo:hi], rate, out=work[: m * size].reshape(m, size))
                np.add(cf, shift, out=cf)
                # only the occupancy metrics read cf again, so a run-time-only
                # pair adds the tail in place
                ends = scratch[: m * size].reshape(m, size) if occupancy else cf
                np.add(cf, tail[lo:hi], out=ends)
                np.maximum(total, np.maximum.reduce(ends, axis=1), out=total)
            if not occupancy:
                continue
            # lead[j] = j * t_cmm: ends[i] = max_{j<=i} (cf[j] - lead[j]) + lead[i] + t_cmm
            flag = flags[: m * needed].reshape(m, needed)
            lead = t_cmm * np.arange(needed, dtype=np.float64)
            np.subtract(cf, lead, out=ends)
            # fmax, the faster, returns maximum's bits unless an operand is NaN
            # or zeros of both signs meet: cf - lead is finite (_check_work's
            # bounds) and never -0.0, as no cf is
            np.fmax.accumulate(ends, axis=1, out=ends)
            np.add(ends, lead + t_cmm, out=ends)
            out.completed_by_comp_k[done] = np.count_nonzero(
                np.less_equal(ends, kth[:, None], out=flag), axis=1)
            if p is not None:
                # rank p may lie past `needed` (a backlog that never clears)
                finish_p = times[:, p - 1] / rate + shift
                out.count1[done] = np.count_nonzero(
                    np.less_equal(ends, finish_p[:, None], out=flag), axis=1)
            # q_idle: the last rank that finds the channel free; rank 1 always
            # does.  The flags run from rank `needed` down, so argmax finds it
            flag[:, -1] = True
            np.greater_equal(cf[:, 1:], ends[:, :-1], out=flag[:, -2::-1])
            out.q_idle[done] = needed - np.argmax(flag, axis=1)

            span = total - cf[:, 0]
            np.divide(needed * t_cmm, span, out=out.busy_fraction[done], where=span > 0)
    return outs


def run_coded_trial(
    params: ClusterParams,
    comm: CommModel,
    rng: RngStream | None = None,
    times: CompTimes | None = None,
) -> tuple[Timeline, TimelineMetrics]:
    """One coded trial: n workers at r/k inner products each, wait for k.

    The load r/k may be fractional: only encoding needs k dividing r, the
    codes decode-check can encode.  With `times` given, the injected
    realization is used instead of sampling (the startup shift a*r/k is
    still applied).
    """
    _check_work(params, comm)
    if times is None:
        if rng is None:
            raise ValueError("an RngStream is required when no times are injected")
        times = sample_comp_times(params, params.r / params.k, rng)
    elif times.n != params.n:
        raise ValueError(f"need {params.n} injected times, got {times.n}")
    comp_finish = params.t0 + times.sorted
    timeline = schedule_serial_channel(comp_finish, comm.t_cmm, needed=params.k)
    return timeline, compute_metrics(timeline)


def run_uncoded_trial(
    params: ClusterParams,
    comm: CommModel,
    rng: RngStream | None = None,
    times: CompTimes | None = None,
) -> tuple[Timeline, TimelineMetrics]:
    """One uncoded trial: the coded trial of the (n, n) code."""
    return run_coded_trial(params.uncoded(), comm, rng, times)


def _check_work(params: ClusterParams, comm: CommModel, trials: int = 1):
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    # the load must be the code's r/k; t0 and t_cmm are finite, t0 + k*t_cmm may not be
    if comm.work_per_worker != params.r / params.k:
        raise ValueError(
            f"comm.work_per_worker={comm.work_per_worker} does not match "
            f"the scheme's per-worker load {params.r / params.k}"
        )
    if not math.isfinite(params.t0 + params.k * comm.t_cmm):
        raise ValueError(f"a, t_one_cmm: the run-time bound t0 + k*t_cmm must be finite, "
                         f"got t0={params.t0!r}, k={params.k}, t_cmm={comm.t_cmm!r}")
    # nor may the largest run-time B: it takes the engine's float operations
    # in their order at the largest draw, and each is monotone in its
    # operands, so B bounds every t_total; a rate that underflows to 0
    # would divide every draw to inf
    rate = params.rate
    bound = (LARGEST_UNIT_DRAW / rate + params.t0) + params.k * comm.t_cmm if rate else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"mu: the largest run-time t0 + 36.74*r/(mu*k) + k*t_cmm must be "
                         f"finite, got mu={params.mu!r}, r={params.r}, k={params.k}")
    # every run-time lies in [0, B], so a sum of `trials` squared deviations
    # stays below trials*B*B; the factor 2 leaves room for its rounding
    if not math.isfinite(2 * trials * bound * bound):
        raise ValueError(f"a, mu, t_one_cmm: the moment bound 2*trials*B*B must be finite, "
                         f"got B={bound!r}, trials={trials}")
