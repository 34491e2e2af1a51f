"""Closed-form latency analysis: expectation brackets, the pipeline index,
regime classification, and numeric optimization of the recovery threshold."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .channel import CommModel
from .timing import ClusterParams, expected_order_stat, harmonic_table


class Regime(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


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


def classify_regime(family: RegimeFamily) -> Regime:
    if family.beta > 1:
        return Regime.I
    if family.beta == 1:
        return Regime.III
    return Regime.II


def optimize_k(
    n: int,
    r: int,
    a: float,
    mu: float,
    comm_at_k: Callable[[int], float],
    require_divisor: bool = False,
) -> tuple[int, float]:
    """Scan k in [1, n-1] for the minimizer of the leading-term run-time
    expected_runtime_regime3 + t_cmm(k), read from one harmonic table
    instead of two fsums per candidate.

    comm_at_k maps a candidate k to its per-worker transmission time.
    With require_divisor, only k | r candidates are considered.  Ties go
    to the smaller k.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"optimize_k needs n >= 2, got {n!r}")
    h = harmonic_table(n)
    best_k = None
    best_val = math.inf
    for k in range(1, n):
        if require_divisor and r % k != 0:
            continue
        value = a * r / k + (r / (mu * k)) * (h[n] - h[n - k]) + comm_at_k(k)
        if value < best_val:
            best_k, best_val = k, value
    if best_k is None:
        raise ValueError(f"no feasible k in [1, {n - 1}] divides r={r}")
    return best_k, best_val
