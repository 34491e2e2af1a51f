"""Monte Carlo harness: repeated trials, regime sweeps, speedup curves,
and the transmission-count reports behind the asymptotic claims."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .analysis import RegimeFamily, expected_runtime_regime3, optimize_k, pipeline_index
from .channel import CommModel, Timeline, run_trials
from .timing import ClusterParams

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class MCStats:
    """Aggregate of one Monte Carlo configuration's total run-times."""

    mean: float
    variance: float
    stderr: float
    trials: int
    ci95_halfwidth: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MCStats":
        trials = samples.size
        mean = float(np.mean(samples))
        variance = float(np.var(samples, ddof=1)) if trials > 1 else 0.0
        stderr = math.sqrt(variance / trials)
        return cls(mean=mean, variance=variance, stderr=stderr, trials=trials,
                   ci95_halfwidth=Z95 * stderr)


@dataclass(frozen=True)
class AggregateMetrics:
    """Trial-averaged channel metrics accompanying an MCStats."""

    frac_lower_bound_hit: float
    mean_completed_by_comp_k: float
    mean_q_idle: float
    mean_busy_fraction: float
    stderr_frac_lower_bound_hit: float = 0.0
    stderr_completed_by_comp_k: float = 0.0


@dataclass(frozen=True)
class SweepRow:
    """One ladder point of a regime sweep (or its per-row failure)."""

    n: int
    k: int
    r: int
    beta: float
    c: float
    t_cmm: float
    mc: MCStats | None
    frac_lower_bound_hit: float
    mean_completed_by_comp_k: float
    closed_form_leading: float
    gap: float
    error: str | None = None


@dataclass(frozen=True)
class SpeedupPoint:
    n: int
    k: int
    r: int
    t_one_cmm: float
    coded_mean: float
    uncoded_mean: float
    ratio: float


@dataclass(frozen=True)
class LemmaReport:
    """Per-configuration transmission-count report.

    count1 counts transmissions completed by t0 + T_(p); count2 those
    completed in (t0 + T_(p), t0 + T_(k)].  The deficits are the
    per-trial fractions (p - count1)/n and (k - p - count2)/n; the
    signed second deficit is also reported clamped at zero per trial
    (the shortfall against the at-least-(k-p) transmission claim, which
    is the quantity that vanishes with n).
    """

    n: int
    k: int
    p: int
    trials: int
    mean_count1: float
    mean_count2: float
    mean_deficit_p: float
    stderr_deficit_p: float
    mean_deficit_k_signed: float
    stderr_deficit_k_signed: float
    mean_deficit_k_shortfall: float
    stderr_deficit_k_shortfall: float
    sandwich_violations: int


def default_r_rule(n: int, k: int) -> int:
    """Smallest workload divisible by both k (coded) and n (uncoded)."""
    return math.lcm(k, n)


def round_k(k_fraction: float, n: int) -> int:
    if not 0 < k_fraction <= 1:
        raise ValueError(f"k_fraction must lie in (0, 1], got {k_fraction!r}")
    return min(n, max(1, round(k_fraction * n)))


def monte_carlo(
    params: ClusterParams,
    comm: CommModel,
    trials: int,
    seed: int,
    scheme: str = "coded",
) -> tuple[MCStats, AggregateMetrics]:
    """Run `trials` independent trials, stream i keyed by (seed, i); the
    uncoded scheme runs the (n, n) code, params.uncoded()."""
    if scheme not in ("coded", "uncoded"):
        raise ValueError(f"scheme must be 'coded' or 'uncoded', got {scheme!r}")
    batch = run_trials(params.uncoded() if scheme == "uncoded" else params, comm, trials, seed)
    completed = batch.completed_by_comp_k
    frac_hit = float(np.mean(batch.hit_lower_bound))
    agg = AggregateMetrics(
        frac_lower_bound_hit=frac_hit,
        mean_completed_by_comp_k=float(np.mean(completed)),
        mean_q_idle=float(np.mean(batch.q_idle)),
        mean_busy_fraction=float(np.mean(batch.busy_fraction)),
        stderr_frac_lower_bound_hit=math.sqrt(frac_hit * (1.0 - frac_hit) / trials),
        stderr_completed_by_comp_k=(
            float(np.std(completed, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
        ),
    )
    return MCStats.from_samples(batch.t_total), agg


def sweep_regime(
    family: RegimeFamily,
    ns: Sequence[int],
    k_fraction: float,
    r_rule: Callable[[int, int], int] = default_r_rule,
    a: float = 1.0,
    mu: float = 1.0,
    trials: int = 10_000,
    seed: int = 0,
) -> list[SweepRow]:
    """One coded Monte Carlo configuration per n, with t_one_cmm drawn
    from the scaling family."""
    rows = []
    for n in ns:
        k = round_k(k_fraction, n)
        r = r_rule(n, k)
        row = SweepRow(
            n=n, k=k, r=r, beta=family.beta, c=family.c,
            t_cmm=(r / k) * family.t_one_cmm(n),
            mc=None, frac_lower_bound_hit=math.nan,
            mean_completed_by_comp_k=math.nan,
            closed_form_leading=math.nan, gap=math.nan,
        )
        try:
            params = ClusterParams(n=n, k=k, r=r, a=a, mu=mu)
            comm = CommModel.coded(params, family.t_one_cmm(n))
            mc, agg = monte_carlo(params, comm, trials, seed, scheme="coded")
        except ValueError as exc:
            rows.append(replace(row, error=str(exc)))
            continue
        closed_form = expected_runtime_regime3(params)
        rows.append(replace(
            row,
            mc=mc,
            frac_lower_bound_hit=agg.frac_lower_bound_hit,
            mean_completed_by_comp_k=agg.mean_completed_by_comp_k,
            closed_form_leading=closed_form,
            gap=mc.mean - closed_form,
        ))
    return rows


def speedup_curve(
    ns: Sequence[int],
    k_fraction: float,
    r_rule: Callable[[int, int], int] = default_r_rule,
    a: float = 1.0,
    mu: float = 1.0,
    family: RegimeFamily = RegimeFamily(c=0.1, beta=1.0),
    trials: int = 10_000,
    seed: int = 0,
    optimize: bool = False,
) -> list[SpeedupPoint]:
    """Mean uncoded over mean coded run-time per ladder point.

    With optimize=True the coded threshold is the leading-term minimizer
    over divisors of r instead of the fixed k_fraction.  Coded and
    uncoded trials share streams (common random numbers), which makes a
    degenerate k = n comparison come out at ratio exactly 1.
    """
    points = []
    for n in ns:
        k = round_k(k_fraction, n)
        r = r_rule(n, k)
        t_one = family.t_one_cmm(n)
        if optimize:
            k, _ = optimize_k(n, r, a, mu,
                              comm_at_k=lambda kk: (r / kk) * t_one,
                              require_divisor=True)
        params = ClusterParams(n=n, k=k, r=r, a=a, mu=mu)
        coded_mc, _ = monte_carlo(params, CommModel.coded(params, t_one),
                                  trials, seed, scheme="coded")
        uncoded_mc, _ = monte_carlo(params, CommModel.uncoded(params, t_one),
                                    trials, seed, scheme="uncoded")
        points.append(SpeedupPoint(
            n=n, k=k, r=r, t_one_cmm=t_one,
            coded_mean=coded_mc.mean,
            uncoded_mean=uncoded_mc.mean,
            ratio=uncoded_mc.mean / coded_mc.mean,
        ))
    return points


def transmission_counts(timeline: Timeline, p: int) -> tuple[int, int]:
    """(transmissions done by t0+T_(p), transmissions done in
    (t0+T_(p), t0+T_(k)]) for one coded timeline."""
    if not 1 <= p <= timeline.comp_finish.size:
        raise ValueError(f"p must lie in [1, {timeline.comp_finish.size}], got {p!r}")
    t_p = timeline.comp_finish[p - 1]
    t_k = timeline.comp_finish[timeline.needed - 1]
    count1 = int(np.searchsorted(timeline.comm_end, t_p, side="right"))
    by_k = int(np.searchsorted(timeline.comm_end, t_k, side="right"))
    return count1, by_k - count1


def verify_transmission_lemmas(
    params: ClusterParams,
    comm: CommModel,
    trials: int,
    seed: int,
) -> LemmaReport:
    """Measure the pipeline transmission counts over repeated coded trials,
    also checking the realization-level run-time sandwich on every trial."""
    p = pipeline_index(params.n, params.alpha, comm.t_cmm)
    n, k = params.n, params.k
    batch = run_trials(params, comm, trials, seed, p=p)
    c1, c2 = batch.count1, batch.count2
    kth, total = batch.kth_finish, batch.t_total
    inside = (kth + comm.t_cmm <= total) & (total <= kth + k * comm.t_cmm)
    violations = trials - int(np.count_nonzero(inside))
    deficit_p = (p - c1) / n
    deficit_k = (k - p - c2) / n
    shortfall = np.maximum(deficit_k, 0.0)

    def _se(x):
        return float(np.std(x, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0

    return LemmaReport(
        n=n, k=k, p=p, trials=trials,
        mean_count1=float(np.mean(c1)),
        mean_count2=float(np.mean(c2)),
        mean_deficit_p=float(np.mean(deficit_p)),
        stderr_deficit_p=_se(deficit_p),
        mean_deficit_k_signed=float(np.mean(deficit_k)),
        stderr_deficit_k_signed=_se(deficit_k),
        mean_deficit_k_shortfall=float(np.mean(shortfall)),
        stderr_deficit_k_shortfall=_se(shortfall),
        sandwich_violations=violations,
    )


def monotone_with_slack(values: Sequence[float], halfwidths: Sequence[float],
                        decreasing: bool = False) -> bool:
    """Monotonicity of a ladder of estimates after widening each point by
    its uncertainty halfwidth."""
    if len(values) != len(halfwidths):
        raise ValueError("values and halfwidths must have equal length")
    for prev, cur, hw_prev, hw_cur in zip(values, values[1:], halfwidths, halfwidths[1:]):
        slack = hw_prev + hw_cur
        if decreasing:
            if cur > prev + slack:
                return False
        elif cur < prev - slack:
            return False
    return True


def loglinear_fit(ns: Sequence[int], values: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares fit values ~ slope * ln(n) + intercept.

    Returns (slope, intercept, r_squared).
    """
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (n, value) pairs")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2

