"""Independent reference implementations the tests check the library against.

These deliberately use different mechanisms than the library (event queue
instead of the single-pass recurrence, exact rationals instead of floats,
literal definition scans instead of the incremental ones, Renyi spacings
instead of draw-and-sort) and must stay that way.
"""

import heapq
import math
from collections import deque
from fractions import Fraction

import numpy as np


def event_queue_schedule(comp_finish, t_cmm, needed):
    """Naive discrete-event simulation of the serial FIFO channel.

    Maintains an event heap of computation finishes and channel releases
    plus an explicit waiting queue.  Returns (comm_start, comm_end) lists
    for ranks 1..needed.
    """
    starts = [None] * needed
    ends = [None] * needed
    heap = [(float(comp_finish[i]), i, "finish", i) for i in range(needed)]
    heapq.heapify(heap)
    seq = needed
    waiting = deque()
    busy = False
    while heap:
        time, _, kind, rank = heapq.heappop(heap)
        if kind == "finish":
            waiting.append(rank)
        else:
            busy = False
        if not busy and waiting:
            nxt = waiting.popleft()
            start = time  # nxt finished at or before this event
            end = start + t_cmm
            starts[nxt] = start
            ends[nxt] = end
            busy = True
            heapq.heappush(heap, (end, seq, "free", nxt))
            seq += 1
    return starts, ends


def maxplus_total_exact(comp_finish, t_cmm, needed):
    """Exact run-time of the serial FIFO channel on the given float inputs.

    The recurrence end[i] = max(finish[i], end[i-1]) + t_cmm is linear in
    max-plus algebra, so end[needed] = max over j <= needed of
    finish[j] + (needed - j + 1) * t_cmm.  Evaluated in Fractions, with no
    rounding at all; returns a Fraction.
    """
    t = Fraction(t_cmm)
    return max(Fraction(float(x)) + (needed - j) * t
               for j, x in enumerate(comp_finish[:needed]))


def pipeline_scan(n, alpha, t_cmm):
    """Literal scan for the backlog-clearing rank.

    Evaluates f(j) = sum_{i<=j} alpha/(n-i+1) - (j-1)*t_cmm for every j,
    then applies the case analysis: 1 when f never dips below zero, the
    first j with f(j) >= 0 > f(j-1) otherwise, and n when f never
    recovers.
    """
    fs = []
    acc = 0.0
    for j in range(1, n + 1):
        acc += alpha / (n - j + 1)
        fs.append(acc - (j - 1) * t_cmm)
    if all(v >= 0 for v in fs):
        return 1
    for j in range(2, n + 1):
        if fs[j - 1] >= 0 and fs[j - 2] < 0:
            return j
    return n


def pipeline_index_loop(n, alpha, t_cmm):
    """The running-sum loop `pipeline_index` replaced, kept as its
    bit-for-bit reference: f(j) accumulates alpha/(n-j+1) one term at a
    time, and the first j with f(j) >= 0 after a dip is returned."""
    acc = 0.0
    dipped = False
    for j in range(1, n + 1):
        acc += alpha / (n - j + 1)
        f = acc - (j - 1) * t_cmm
        if f < 0:
            dipped = True
        elif dipped:
            return j
    return n if dipped else 1


def pipeline_f(n, alpha, t_cmm, j):
    """f(j) evaluated directly from the definition."""
    return math.fsum(alpha / (n - i + 1) for i in range(1, j + 1)) - (j - 1) * t_cmm


def harmonic(n):
    """n-th harmonic number by direct summation; H_0 = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic is defined for n >= 0, got {n!r}")
    return math.fsum(1.0 / i for i in range(1, n + 1))


def harmonic_suffix(n, m):
    """H_n - H_(n-m) as the fsum of its m terms 1.0/i, i in (n-m, n]."""
    return math.fsum(1.0 / i for i in range(n - m + 1, n + 1))


def leading_term_scan(n, r, a, mu, comm_at_k, require_divisor=False):
    """Brute-force minimizer of the leading-term objective over k."""
    best = None
    for k in range(1, n):
        if require_divisor and r % k != 0:
            continue
        value = a * r / k + r / (mu * k) * harmonic_suffix(n, k) + comm_at_k(k)
        if best is None or value < best[1]:
            best = (k, value)
    return best


def harmonic_suffixes_loop(n, j):
    """The big-integer reference of `harmonic_suffixes`: each term 1.0/i,
    from i = n down to n-j+1 and scaled by 2**scale, is added to a Python
    int, and each partial sum is rounded once by int division."""
    scale = n.bit_length() + 53
    one = 1 << scale
    sums = [0.0]
    total = 0
    for i in range(n, n - j, -1):
        total += int(math.ldexp(1.0 / i, scale))
        sums.append(total / one)
    return sums


def sample_spacings(params, rng):
    """Renyi representation of the sorted sample: the n gaps between
    consecutive order statistics, drawn directly as D_i ~ Exp((n-i+1)/alpha).

    Their prefix sums have the same joint law as the sorted i.i.d.
    Exponential(1/alpha) sample that the library draws and sorts.
    """
    rates = (params.n - np.arange(params.n)) / params.alpha
    return -np.log1p(-rng.uniforms(params.n)) / rates


def ks_two_sample_threshold(m, n, significance=0.01):
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance."""
    c = math.sqrt(-0.5 * math.log(significance / 2.0))
    return c * math.sqrt((m + n) / (m * n))
