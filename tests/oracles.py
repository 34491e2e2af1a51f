"""Independent reference implementations the tests check the library against.

These deliberately use different mechanisms than the library (event queue
instead of the single-pass recurrence, literal definition scans instead of
the incremental ones, Renyi spacings instead of draw-and-sort) and must
stay that way.
"""

import heapq
import math
from collections import deque

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


def pipeline_f(n, alpha, t_cmm, j):
    """f(j) evaluated directly from the definition."""
    return math.fsum(alpha / (n - i + 1) for i in range(1, j + 1)) - (j - 1) * t_cmm


def leading_term_scan(n, r, a, mu, comm_at_k, require_divisor=False):
    """Brute-force minimizer of the leading-term objective over k."""
    def harmonic(m):
        return math.fsum(1.0 / i for i in range(1, m + 1))

    best = None
    for k in range(1, n):
        if require_divisor and r % k != 0:
            continue
        value = a * r / k + r / (mu * k) * (harmonic(n) - harmonic(n - k)) + comm_at_k(k)
        if best is None or value < best[1]:
            best = (k, value)
    return best


def sample_spacings(params, rng):
    """Renyi representation of the sorted sample: the n gaps between
    consecutive order statistics, drawn directly as D_i ~ Exp((n-i+1)/alpha).

    Their prefix sums have the same joint law as the sorted i.i.d.
    Exponential(1/alpha) sample that the library draws and sorts.
    """
    rates = (params.n - np.arange(params.n)) / params.alpha
    return rng.exponentials(rates, params.n)


def ks_two_sample_threshold(m, n, significance=0.01):
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance."""
    c = math.sqrt(-0.5 * math.log(significance / 2.0))
    return c * math.sqrt((m + n) / (m * n))
