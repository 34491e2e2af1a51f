"""Stochastic worker computation times: shifted-exponential model and its
order statistics.

A worker assigned w inner products finishes after a constant startup
a*w plus an Exponential(mu/w) variable part.  The constant shift is
carried separately everywhere (as ClusterParams.t0, a*r/k; the uncoded
scheme is the (n, n) code, ClusterParams.uncoded()); all order-statistic
math in this module operates on the variable part only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class ClusterParams:
    """Cluster configuration (n, k, r, a, mu) plus the derived scales.

    n   -- number of workers
    k   -- recovery threshold: results needed to decode
    r   -- total inner products in the job
    a   -- startup shift per inner product, seconds
    mu  -- exponential rate per inner product, 1/seconds
    """

    n: int
    k: int
    r: int
    a: float
    mu: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n: must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or not 1 <= self.k <= self.n:
            raise ValueError(f"k: must satisfy 1 <= k <= n, got {self.k!r}")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError(f"r: must be a positive integer, got {self.r!r}")
        for name in ("n", "r"):  # k <= n
            value = getattr(self, name)
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{name}: must convert to a finite float, got {value}") from None
        if not math.isfinite(self.a) or self.a < 0:
            raise ValueError(f"a: must be >= 0, got {self.a!r}")
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu: must be > 0, got {self.mu!r}")
        if not math.isfinite(self.t0):
            raise ValueError(f"a: the startup shift a*r/k must be finite, got "
                             f"a={self.a!r}, r={self.r}, k={self.k}")

    @property
    def t0(self) -> float:
        """Constant startup of a coded worker (a * r/k seconds)."""
        return self.a * self.r / self.k

    @property
    def rate(self) -> float:
        """Exponential rate of a coded worker's variable part: mu / (r/k) per second."""
        return self.mu / (self.r / self.k)

    @property
    def alpha(self) -> float:
        """Mean of the coded variable part: r / (mu * k) seconds."""
        return self.r / (self.mu * self.k)

    def uncoded(self) -> "ClusterParams":
        """The uncoded baseline as the (n, n) code: each worker takes r/n
        inner products and the master waits for all n."""
        return replace(self, k=self.n)


@dataclass(frozen=True)
class CompTimes:
    """Variable-part computation times of one realized trial, as order
    statistics: `sorted` is a non-empty, finite, nonnegative and
    nondecreasing 1-d array."""

    sorted: np.ndarray

    def __post_init__(self):
        if self.sorted.ndim != 1 or self.sorted.size == 0:
            raise ValueError("computation times must be a non-empty 1-d sequence")
        if np.any(self.sorted < 0) or not np.all(np.isfinite(self.sorted)):
            raise ValueError("computation times must be finite and >= 0")
        if np.any(np.diff(self.sorted) < 0):
            raise ValueError("computation times must be nondecreasing")

    @property
    def n(self) -> int:
        return self.sorted.size


# Generator.random returns multiples of 2**-53 below 1, so no unit-rate
# draw -log1p(-u) exceeds this (36.7368...)
LARGEST_UNIT_DRAW = -math.log1p(-(1 - 2**-53))


def unit_exponentials(u: np.ndarray) -> np.ndarray:
    """Turn uniforms `u` in [0, 1) into unit-rate exponentials -log1p(-u),
    in place, and return `u`.  The map is elementwise, so the first n
    entries of a transformed row are the transform of its first n
    uniforms."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u


def sample_comp_times(params: ClusterParams, work_per_worker: float, rng: RngStream) -> CompTimes:
    """Sample the variable parts for n workers doing `work_per_worker`
    inner products each: the sorted unit-rate draws of `rng`'s first n
    uniforms, divided by the rate mu / w.  The sort comes first:
    correctly rounded division by a positive scalar is monotone, so
    sort(x) / rate == sort(x / rate).

    The shift a*w is not included; the caller adds it when building
    absolute completion times.
    """
    if not math.isfinite(work_per_worker) or work_per_worker <= 0:
        raise ValueError(f"work_per_worker must be finite and > 0, got {work_per_worker!r}")
    times = unit_exponentials(rng.uniforms(params.n))
    times.sort()
    return CompTimes(sorted=times / (params.mu / work_per_worker))


def inject_comp_times(sorted_values) -> CompTimes:
    """Build a CompTimes from given order statistics, e.g. a fixed
    realization driving the simulator in golden tests."""
    return CompTimes(sorted=np.array(sorted_values, dtype=np.float64))


def harmonic(n: int) -> float:
    """n-th harmonic number by direct summation; H_0 = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic is defined for n >= 0, got {n!r}")
    return math.fsum(1.0 / i for i in range(1, n + 1))


def harmonic_table(n: int) -> list[float]:
    """[H_0, H_1, ..., H_n], each bit-identical to harmonic(m), for n < 2**27.

    Each float term 1.0/i, scaled by 2**scale, is an exact integer v, split
    exactly into 32-bit limbs hi*2**32 + lo.  One int64 cumsum per limb and
    a carry give every prefix sum exactly; each is then rounded once, by
    the addition hi*2**32 + lo of two exact floats, which is the correctly
    rounded sum fsum returns.  The summed hi must stay below 2**53 to be an
    exact float: it is about 2**(bit_length(n) + 21) * H_n, which holds
    while n < 2**27 (H_n < 19.3 there), and larger n is refused.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"harmonic is defined for n >= 0, got {n!r}")
    if n >= 2**27:
        raise ValueError(f"harmonic_table is exact only for n < 2**27, got {n}")
    # 1.0/i for i <= n has its last bit at or above 2**-(bit_length(n) + 52)
    scale = n.bit_length() + 53
    terms = np.ldexp(1.0 / np.arange(1, n + 1), scale)
    hi = np.floor(np.ldexp(terms, -32))
    lo = np.cumsum((terms - np.ldexp(hi, 32)).astype(np.int64))
    hi = np.cumsum(hi.astype(np.int64)) + (lo >> 32)
    lo &= 2**32 - 1
    return [0.0, *np.ldexp(np.ldexp(hi.astype(np.float64), 32) + lo, -scale).tolist()]


def expected_order_stat(params: ClusterParams, j: int) -> float:
    """E[T_(j)] = alpha * (H_n - H_(n-j)); variable part only."""
    _check_rank(params, j)
    return params.alpha * (harmonic(params.n) - harmonic(params.n - j))


def variance_order_stat(params: ClusterParams, j: int) -> float:
    """Var[T_(j)] = sum_{i<=j} alpha^2 / (n-i+1)^2."""
    _check_rank(params, j)
    n, alpha = params.n, params.alpha
    return alpha * alpha * math.fsum(1.0 / ((n - i + 1) ** 2) for i in range(1, j + 1))


def _check_rank(params: ClusterParams, j: int):
    if not isinstance(j, int) or not 1 <= j <= params.n:
        raise ValueError(f"rank j must satisfy 1 <= j <= n={params.n}, got {j!r}")
