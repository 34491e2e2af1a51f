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


def harmonic_suffixes(n: int, j: int) -> np.ndarray:
    """[S_0, ..., S_j], S_m = H_n - H_(n-m): the terms 1.0/i, i = n down to
    n-m+1, summed exactly and rounded once (math.fsum's result), in O(j).
    Scaled by 2**scale, each term is an exact integer in 32-bit limbs, and
    a cumsum per limb plus a carry sums them.  The summed hi limb, about
    2**(bit_length(n) + 21) * S_j, must stay an exact float; inputs where
    S_j < 1/(n-j+1) + ln(n/(n-j+1)) does not keep it below 2**53 are
    refused first.  S_j >= j/n then gives j < 2**32: the uint64 lo sum fits."""
    if 1 / (n - j + 1) + math.log1p((j - 1) / (n - j + 1)) >= 2.0 ** (32 - n.bit_length()):
        raise ValueError(f"n: harmonic suffixes are exact only while 2**(bit_length(n) + 21)"
                         f" * (H_n - H_(n-j)) < 2**53, got n={n}, j={j}")
    # 1.0/i for i <= n has its last bit at or above 2**-(bit_length(n) + 52)
    scale = n.bit_length() + 53
    # S_0 sums the one term 0.0; from n = 2**63 on, arange holds Python ints
    terms = np.asarray(np.concatenate(([0.0], 1.0 / np.arange(n, n - j, -1))), np.float64)
    terms = np.ldexp(terms, scale)
    hi = np.floor(np.ldexp(terms, -32))
    lo = np.cumsum((terms - np.ldexp(hi, 32)).astype(np.uint64))
    hi = np.cumsum(hi.astype(np.int64)) + (lo >> 32).astype(np.int64)
    return np.ldexp(np.ldexp(hi.astype(np.float64), 32) + (lo & 2**32 - 1), -scale)


def expected_order_stat(params: ClusterParams, j: int) -> float:
    """E[T_(j)] = alpha * (H_n - H_(n-j)); variable part only."""
    _check_rank(params, j)
    return params.alpha * float(harmonic_suffixes(params.n, j)[j])


def variance_order_stat(params: ClusterParams, j: int) -> float:
    """Var[T_(j)] = sum_{i<=j} alpha^2 / (n-i+1)^2."""
    _check_rank(params, j)
    n, alpha = params.n, params.alpha
    return alpha * alpha * math.fsum(1.0 / ((n - i + 1) ** 2) for i in range(1, j + 1))


def _check_rank(params: ClusterParams, j: int):
    if not isinstance(j, int) or not 1 <= j <= params.n:
        raise ValueError(f"rank j must satisfy 1 <= j <= n={params.n}, got {j!r}")
