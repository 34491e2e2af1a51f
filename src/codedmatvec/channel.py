"""Serial-channel scheduling of worker result transmissions.

Only one worker transmits to the master at a time.  Transmissions happen
in computation-completion order (FIFO), without preemption, and each lasts
t_cmm seconds.  The whole timeline follows from the single-pass recurrence

    comm_end[i] = max(comp_finish[i], comm_end[i-1]) + t_cmm

over the first `needed` completion ranks; workers finishing after the
needed-th transmission never occupy the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, uniform_rows
from .timing import ClusterParams, CompTimes, sample_comp_times

# relative and absolute tolerances for "run-time equals the lower bound"
# classification; they absorb float summation-order noise only.
LOWER_BOUND_REL_TOL = 1e-12
LOWER_BOUND_ABS_TOL = 1e-15

# float64 elements per draw matrix of `run_trials` (512 KiB) and per
# recurrence block (64 KiB): memory stays bounded whatever the trial
# count, and the blocks the recurrence walks stay in cache.
CHUNK_ELEMENTS = 2**16
BLOCK_ELEMENTS = 2**13


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

    @property
    def t_cmm(self) -> float:
        """Transmission time of one worker's full result."""
        return self.work_per_worker * self.t_one_cmm

    @classmethod
    def coded(cls, params: ClusterParams, t_one_cmm: float) -> "CommModel":
        return cls(t_one_cmm=t_one_cmm, work_per_worker=params.r / params.k)

    @classmethod
    def uncoded(cls, params: ClusterParams, t_one_cmm: float) -> "CommModel":
        return cls(t_one_cmm=t_one_cmm, work_per_worker=params.r / params.n)


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
    hit_lower_bound     -- t_total equals comp_finish[needed] + t_cmm
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

    starts = []
    ends = []
    free = -math.inf
    for x in cf[:needed].tolist():
        s = x if x >= free else free
        free = s + t_cmm
        starts.append(s)
        ends.append(free)
    return Timeline(
        comp_finish=cf,
        comm_start=np.array(starts),
        comm_end=np.array(ends),
        needed=needed,
        t_cmm=t_cmm,
        t_total=ends[-1],
    )


def compute_metrics(t: Timeline) -> TimelineMetrics:
    kth_finish = t.comp_finish[t.needed - 1]
    completed = int(np.searchsorted(t.comm_end, kth_finish, side="right"))
    idle = np.nonzero(t.comm_start == t.comp_finish[: t.needed])[0]
    q_idle = int(idle[-1]) + 1  # rank 1 always qualifies
    busy = t.needed * t.t_cmm
    span = float(t.t_total - t.comp_finish[0])
    busy_fraction = busy / span if span > 0 else 0.0
    lower = kth_finish + t.t_cmm
    hit = math.isclose(t.t_total, lower,
                       rel_tol=LOWER_BOUND_REL_TOL, abs_tol=LOWER_BOUND_ABS_TOL)
    return TimelineMetrics(
        q_idle=q_idle,
        completed_by_comp_k=completed,
        busy_fraction=busy_fraction,
        hit_lower_bound=hit,
    )


@dataclass(frozen=True)
class TrialArrays:
    """Per-trial results of `run_trials`; entry i is trial i, RngStream(seed, i).

    The first six arrays hold Timeline.t_total, the needed-th completion
    time and the TimelineMetrics fields.  count1/count2 are the
    `transmission_counts` of each trial when a pipeline index was given.
    """

    t_total: np.ndarray
    kth_finish: np.ndarray
    completed_by_comp_k: np.ndarray
    q_idle: np.ndarray
    busy_fraction: np.ndarray
    hit_lower_bound: np.ndarray
    count1: np.ndarray | None = None
    count2: np.ndarray | None = None


def run_trials(
    params: ClusterParams,
    comm: CommModel,
    trials: int,
    seed: int,
    scheme: str,
    p: int | None = None,
) -> TrialArrays:
    """Run trials 0..trials-1 of a scheme in chunks; bit-identical to a loop
    of run_coded_trial/run_uncoded_trial(RngStream(seed, i)) plus
    compute_metrics.

    Each chunk draws its rows by re-keying one Philox stream, applies the
    same inverse-CDF ufuncs as RngStream.exponentials, sorts the rows and
    runs the channel recurrence as `needed` numpy steps across trials, so
    every trial sees the same float operations as on its own.  The steps
    run in blocks of ranks whose metrics are reduced as they go, so only
    the draws and one block are ever held.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if scheme == "coded":
        _check_work(comm, params.r / params.k)
        work, needed, shift = params.coded_work(), params.k, params.t0
    elif scheme == "uncoded":
        _check_work(comm, params.r / params.n)
        work, needed, shift = params.uncoded_work(), params.n, params.a * (params.r / params.n)
    else:
        raise ValueError(f"scheme must be 'coded' or 'uncoded', got {scheme!r}")
    n, t_cmm = params.n, comm.t_cmm
    if p is not None and not (isinstance(p, int) and 1 <= p <= n):
        raise ValueError(f"p must lie in [1, {n}], got {p!r}")
    rate = params.mu / work
    busy = needed * t_cmm
    rows = min(trials, max(1, CHUNK_ELEMENTS // n))
    ranks = max(1, BLOCK_ELEMENTS // rows)
    draws = np.empty((rows, n))
    # transposed (rank, trial) blocks: each recurrence step is one
    # contiguous row; ends[0] holds the end before the block's first rank
    finish = np.empty((ranks, rows))
    ends = np.empty((ranks + 1, rows))
    idle = np.empty((ranks, rows), dtype=bool)
    below = np.empty((ranks, rows), dtype=bool)

    out = TrialArrays(
        t_total=np.empty(trials),
        kth_finish=np.empty(trials),
        completed_by_comp_k=np.zeros(trials, dtype=np.intp),
        q_idle=np.empty(trials, dtype=np.intp),
        busy_fraction=np.zeros(trials),
        hit_lower_bound=np.empty(trials, dtype=bool),
        count1=None if p is None else np.zeros(trials, dtype=np.intp),
        count2=None if p is None else np.empty(trials, dtype=np.intp),
    )
    for first in range(0, trials, rows):
        m = min(rows, trials - first)
        done = slice(first, first + m)
        times = draws[:m]
        completed, q_idle = out.completed_by_comp_k[done], out.q_idle[done]

        uniform_rows(seed, first, times)
        np.negative(times, out=times)
        np.log1p(times, out=times)
        np.negative(times, out=times)
        np.divide(times, rate, out=times)
        times.sort(axis=1)
        # rows are sorted, NaN last: the end columns bound every value
        if not (np.all(times[:, 0] >= 0) and np.all(np.isfinite(times[:, -1]))):
            raise ValueError("computation times must be finite and >= 0")
        kth = shift + times[:, needed - 1]
        if p is not None:
            # rank p may lie past `needed` (a backlog that never clears)
            finish_p = shift + times[:, p - 1]

        # rank 1 starts the instant it finishes: max(finish, -inf) = finish
        ends[0, :m] = -math.inf
        for j0 in range(0, needed, ranks):
            b = min(ranks, needed - j0)
            cf, e, idl, le = finish[:b, :m], ends[: b + 1, :m], idle[:b, :m], below[:b, :m]
            np.add(shift, times[:, j0 : j0 + b].T, out=cf)
            steps = list(e)  # row views, so the loop is pure ufunc calls
            for finish_j, prev, cur in zip(cf, steps, steps[1:]):
                np.maximum(finish_j, prev, out=cur)
                np.add(cur, t_cmm, out=cur)
            # q_idle is 1 + the last rank that finds the channel free; block
            # 0 always has one (rank 1)
            np.greater_equal(cf, e[:-1], out=idl)
            np.copyto(q_idle, j0 + b - np.argmax(idl[::-1], axis=0), where=idl.any(axis=0))
            completed += np.count_nonzero(np.less_equal(e[1:], kth, out=le), axis=0)
            if p is not None:
                out.count1[done] += np.count_nonzero(np.less_equal(e[1:], finish_p, out=le), axis=0)
            e[0] = e[b]

        total = ends[0, :m]
        out.t_total[done] = total
        out.kth_finish[done] = kth
        span = total - (shift + times[:, 0])
        np.divide(busy, span, out=out.busy_fraction[done], where=span > 0)
        out.hit_lower_bound[done] = _isclose(total, kth + t_cmm)
    if p is not None:
        np.subtract(out.completed_by_comp_k, out.count1, out=out.count2)
    return out


def run_coded_trial(
    params: ClusterParams,
    comm: CommModel,
    rng: RngStream | None = None,
    times: CompTimes | None = None,
) -> tuple[Timeline, TimelineMetrics]:
    """One coded trial: n workers at r/k inner products each, wait for k.

    With `times` given, the injected realization is used instead of
    sampling (the startup shift a*r/k is still applied), which also
    admits configurations where k does not divide r.
    """
    _check_work(comm, params.r / params.k)
    if times is None:
        times = _sample(params, params.coded_work(), rng)
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
    """One uncoded trial: n workers at r/n inner products each, wait for all."""
    _check_work(comm, params.r / params.n)
    if times is None:
        times = _sample(params, params.uncoded_work(), rng)
    elif times.n != params.n:
        raise ValueError(f"need {params.n} injected times, got {times.n}")
    comp_finish = params.a * (params.r / params.n) + times.sorted
    timeline = schedule_serial_channel(comp_finish, comm.t_cmm, needed=params.n)
    return timeline, compute_metrics(timeline)


def _sample(params, work, rng):
    if rng is None:
        raise ValueError("an RngStream is required when no times are injected")
    return sample_comp_times(params, work, rng)


def _isclose(a, b):
    """compute_metrics' math.isclose test, elementwise: symmetric in a and b
    (np.isclose is not), |a - b| <= max(rel * max(|a|, |b|), abs)."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) <= np.maximum(LOWER_BOUND_REL_TOL * scale, LOWER_BOUND_ABS_TOL)


def _check_work(comm, expected):
    if not math.isclose(comm.work_per_worker, expected, rel_tol=1e-9):
        raise ValueError(
            f"comm.work_per_worker={comm.work_per_worker} does not match "
            f"the scheme's per-worker load {expected}"
        )

