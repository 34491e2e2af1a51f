"""Closed-form latency analysis: expectation brackets, the pipeline index,
regime classification, and numeric optimization of the recovery threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import CommModel, _check_work
from .timing import ClusterParams, expected_order_stat, harmonic_suffixes


@dataclass(frozen=True)
class RegimeFamily:
    """Scaling family for the single-result transmission time:
    t_one_cmm(n) = c * n**(-beta).

    beta > 1 makes communication vanish faster than the computation
    spacings (regime I), beta < 1 slower (regime II), beta = 1 keeps the
    two comparable (regime III).
    """

    c: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c: must be > 0, got {self.c!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta: must be >= 0, got {self.beta!r}")

    def t_one_cmm(self, n: int) -> float:
        return self.c * float(n) ** (-self.beta)


@dataclass(frozen=True)
class LatencyBracket:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bracket lower bound exceeds upper bound")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def expectation_bracket_coded(params: ClusterParams, comm: CommModel) -> LatencyBracket:
    """Bracket on the expected coded run-time: the t0 + E[T_(k)] core plus
    one transmission (channel idle at the k-th completion) up to k
    transmissions (all communication deferred past it)."""
    _check_work(params, comm)
    core = expected_runtime_regime3(params)
    return LatencyBracket(lower=core + comm.t_cmm, upper=core + params.k * comm.t_cmm)


def expectation_bracket_uncoded(params: ClusterParams, comm: CommModel) -> LatencyBracket:
    """Same bracket for the uncoded scheme, the (n, n) code; reads only
    comm.t_one_cmm."""
    return expectation_bracket_coded(params.uncoded(), CommModel.uncoded(params, comm.t_one_cmm))


def expected_runtime_regime3(params: ClusterParams) -> float:
    """Leading term of the expected run-time when communication and
    computation are comparable: t0 + alpha * (H_n - H_(n-k)).

    The vanishing channel correction is deliberately omitted.
    """
    return params.t0 + expected_order_stat(params, params.k)


def pipeline_index(n: int, alpha: float, t_cmm: float) -> int:
    """Rank at which the channel backlog first clears.

    Define f(j) = sum_{i<=j} alpha/(n-i+1) - (j-1)*t_cmm, the expected
    slack of the cumulative spacings over the time needed to transmit the
    first j-1 results.  f(1) = alpha/n > 0 always, so the crossing of
    interest is the re-crossing after f dips negative:

      * no dip (f >= 0 on [1, n])          -> 1, channel never backlogged
      * dip, then f(p) >= 0 and f(p-1) < 0 -> p
      * dip that never re-crosses by n     -> n (backlog outlasts the job)

    For a coded run, alpha is ClusterParams.alpha.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha!r}")
    if not math.isfinite(t_cmm) or t_cmm < 0:
        raise ValueError(f"t_cmm must be >= 0, got {t_cmm!r}")
    # cumsum adds in sequence, so f is the running sum bit for bit; like
    # Python floats, a sum or product past the largest float is inf, silently
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.cumsum(alpha / np.arange(n, 0, -1.0)) - np.arange(n) * t_cmm
    negative = f < 0
    if not negative.any():
        return 1
    dip = int(negative.argmax())
    recrossed = ~negative[dip:]
    return dip + int(recrossed.argmax()) + 1 if recrossed.any() else n


def classify_regime(beta: float) -> str:
    """The regime, "I", "II" or "III", of the family c * n**(-beta); c plays no part."""
    if beta > 1:
        return "I"
    if beta == 1:
        return "III"
    return "II"


def optimize_k(
    n: int,
    r: int,
    a: float,
    mu: float,
    comm_at_k: Callable[[int], float],
    require_divisor: bool = False,
) -> tuple[int, float]:
    """Scan k in [1, n-1] for the minimizer of the leading-term run-time
    expected_runtime_regime3 + t_cmm(k), from one harmonic_suffixes call.

    comm_at_k maps a candidate k to its per-worker transmission time.
    With require_divisor, only k | r candidates are considered, as
    Python's r % k == 0 decides them (_divides).  Ties go to the smaller k.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"optimize_k needs n >= 2, got {n!r}")
    suffixes = harmonic_suffixes(n, n - 1)  # any refusal comes before an O(n) array
    ks = np.arange(1, n)
    if require_divisor:
        ks = ks[_divides(r, ks)]
    best_k = None
    best_val = math.inf
    for k, h in zip(ks.tolist(), suffixes[ks].tolist()):
        value = a * r / k + (r / (mu * k)) * h + comm_at_k(k)
        if value < best_val:
            best_k, best_val = k, value
    if best_k is None:
        if not ks.size:
            raise ValueError(f"no feasible k in [1, {n - 1}] divides r={r}")
        raise ValueError(f"the objective is not finite at any feasible k in [1, {n - 1}]")
    return best_k, best_val


def _divides(r, k):
    """The mask r % k == 0 over k, an int64 array of values in [1, 2**32),
    for an int or float r of any size, as Python's % decides it.

    A float r leaves remainder 0 only where it is integral, and then
    exactly where int(r) does.  int(r) is reduced modulo every k at once
    by Horner's rule over its 31-bit limbs, from the top: each partial
    remainder is below k, so shifted by 31 bits it stays inside int64.
    """
    if r % 1:  # a fraction, inf or NaN: no k divides it
        return np.zeros(k.shape, dtype=bool)
    whole, rem = abs(int(r)), np.zeros_like(k)
    for shift in range(whole.bit_length() // 31 * 31, -1, -31):
        rem = (rem << 31 | (whole >> shift) & (2**31 - 1)) % k
    return rem == 0
