"""Linear coding of the matrix-vector job y = A x.

A code is one generator array S of shape (n, r/k, r): worker i holds
A_i~ = S[i-1] @ A, and the blocks of any k workers gather, with one
index, into an r x r system that recovers y.  Two schemes: dense
Gaussian random-linear coding, and a systematic MDS construction whose
parity blocks take Vandermonde combinations of the k row-blocks of A.

`decode_from_workers` solves one subset's system and flags it by its
condition number.  `check_any_k` is the any-k verdict: it decodes many
subsets, a chunk of systems gathered with one index and solved in one
call, compares each with A x, takes condition numbers only for the
failing subsets, and judges the scheme by its row of ANY_K_RULES.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .timing import ClusterParams

# stacked solves with condition estimates beyond this are flagged, not trusted
COND_LIMIT = 1e8

# float64 elements of the r x r systems one batched solve gathers (512 KiB)
CHUNK_ELEMENTS = 2**16

# per scheme: the tolerance on a subset's relative error, and the least
# recovered fraction that passes (an unflagged failure never passes)
ANY_K_RULES = {"systematic": (1e-10, 1.0), "random": (1e-8, 0.99)}


@dataclass(frozen=True)
class CodedJob:
    """Immutable encoded job: A, x, the (n, r/k, r) generator `coding` and
    the (n, r/k, m) `assignments = coding @ A`; worker i owns row i - 1."""

    a_matrix: np.ndarray
    x: np.ndarray
    coding: np.ndarray
    assignments: np.ndarray

    @property
    def n(self) -> int:
        return self.coding.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    y_hat: np.ndarray
    well_conditioned: bool


@dataclass(frozen=True)
class AnyKCheck:
    """The any-k verdict: a subset fails when its relative error is not within
    `tolerance`, unflagged when `decode` would call its stack well conditioned."""

    subsets_checked: int
    tolerance: float
    max_relative_error: float
    failures: int
    unflagged_failures: int
    recovered_fraction: float
    passed: bool


def _check_encode_args(a_matrix, x, params):
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("a_matrix must be a non-empty 2-d array")
    if a.shape[0] != params.r:
        raise ValueError(f"a_matrix must have r={params.r} rows, got {a.shape[0]}")
    if params.r % params.k != 0:
        raise ValueError(f"encoding requires k | r: k={params.k}, r={params.r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != a.shape[1]:
        raise ValueError(f"x must be a vector of length {a.shape[1]}")
    return a, x


def encode_random_linear(a_matrix, x, params: ClusterParams, rng: RngStream) -> CodedJob:
    """Give worker i the i-th of n consecutive (r/k, r) standard-normal
    draws of `rng`: r/k random linear combinations of A's rows."""
    a, x = _check_encode_args(a_matrix, x, params)
    coding = rng.standard_normals((params.n, params.r // params.k, params.r))
    return CodedJob(a_matrix=a, x=x, coding=coding, assignments=coding @ a)


def encode_systematic_mds(a_matrix, x, params: ClusterParams) -> CodedJob:
    """Systematic MDS code over the k row-blocks of A.

    Workers 1..k hold the blocks verbatim.  Parity worker j takes the
    combination sum_b theta_j^(b-1) * block_b with node theta_j = j, so
    any k generator rows form an invertible mix of identity rows and
    rows of a Vandermonde matrix with distinct positive nodes.
    """
    a, x = _check_encode_args(a_matrix, x, params)
    n, k, r = params.n, params.k, params.r
    theta = np.arange(1, n - k + 1, dtype=np.float64)[:, None]
    with np.errstate(over="ignore"):  # refused below, naming the code
        generator = np.vstack([np.eye(k), theta ** np.arange(k, dtype=np.float64)])
    if not np.isfinite(generator).all():
        raise ValueError(f"systematic code overflows float64 at n={n}, k={k}")
    coding = np.kron(generator, np.eye(r // k)).reshape(n, r // k, r)
    return CodedJob(a_matrix=a, x=x, coding=coding, assignments=coding @ a)


def _is_id(worker_id) -> bool:  # a bool is an int to Python; int() truncates a float
    return isinstance(worker_id, (int, np.integer)) and not isinstance(worker_id, bool)


def worker_compute(job: CodedJob, worker_id: int) -> np.ndarray:
    """Worker's local product A_i~ x (worker_id is 1-based)."""
    if not (_is_id(worker_id) and 1 <= worker_id <= job.n):
        raise ValueError(f"worker_id must be an integer in [1, {job.n}], got {worker_id!r}")
    return job.assignments[worker_id - 1] @ job.x


def decode(stacked_s: np.ndarray, z: np.ndarray) -> DecodeResult:
    """Solve stacked_s @ y = z for y: stacked_s is the r x r stack of k
    workers' coding blocks, z their concatenated results in that order.

    A solve whose condition number reaches COND_LIMIT is flagged as
    untrustworthy (it is still returned, via least squares if the stack
    is numerically singular, so the caller can retry another subset).
    """
    if stacked_s.ndim != 2 or stacked_s.shape[0] != stacked_s.shape[1]:
        raise ValueError("stacked_s must be square")
    if z.ndim != 1 or z.size != stacked_s.shape[0]:
        raise ValueError("z length must match stacked_s")
    cond = np.linalg.cond(stacked_s)
    try:
        y_hat = np.linalg.solve(stacked_s, z)
    except np.linalg.LinAlgError:
        y_hat = np.linalg.lstsq(stacked_s, z, rcond=None)[0]
        cond = math.inf
    return DecodeResult(
        y_hat=y_hat,
        well_conditioned=bool(np.isfinite(cond) and cond < COND_LIMIT),
    )


def _gather(job: CodedJob, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Check each subset's worker ids and gather its system in ascending
    id: the (B, r, r) coding stacks and the (B, r) stacked results."""
    n, w, r = job.coding.shape
    rows = np.empty((len(subsets), r // w), dtype=np.intp)
    for row, worker_ids in zip(rows, subsets):
        given = list(worker_ids)  # read a one-shot iterable once
        bad = [i for i in given if not _is_id(i)]
        if bad:
            raise ValueError(f"worker ids must be integers, got {bad[0]!r}")
        ids = sorted(set(given))
        if len(ids) != len(given):
            raise ValueError("worker ids must be distinct")
        if len(ids) != r // w:
            raise ValueError(f"decoding needs exactly k={r // w} workers, got {len(ids)}")
        if ids[0] < 1 or ids[-1] > n:
            raise ValueError(f"worker ids must lie in [1, {n}]")
        row[:] = ids
    rows -= 1
    return (job.coding[rows].reshape(len(rows), r, r),
            (job.assignments[rows] @ job.x).reshape(len(rows), r))


def decode_from_workers(job: CodedJob, worker_ids) -> DecodeResult:
    """Decode y from the results of exactly k distinct workers (1-based
    integer ids, any order, any iterable): their coding blocks and
    results are gathered in ascending id and solved by `decode`."""
    stacks, results = _gather(job, [worker_ids])
    return decode(stacks[0], results[0])


def check_any_k(job: CodedJob, subsets, scheme: str) -> AnyKCheck:
    """Decode y from each subset of worker ids and judge the scheme by
    ANY_K_RULES[scheme].  Each relative error ||y_hat - A x|| / ||A x||,
    and each failing subset's flag, is bit for bit `recovery_error`'s.
    The subsets are read lazily, CHUNK_ELEMENTS worth of systems at a time;
    each chunk is checked like `decode_from_workers`, gathered and solved
    once (one with a singular stack is decoded subset by subset, keeping
    `decode`'s least-squares result), and only its failing stacks pay for
    condition numbers."""
    tol, least_recovered = ANY_K_RULES[scheme]
    y = job.a_matrix @ job.x
    y_norm = np.linalg.norm(y) or 1.0  # a zero A x leaves the errors absolute
    chunk_size = max(1, CHUNK_ELEMENTS // job.coding.shape[2] ** 2)
    subsets = iter(subsets)
    checked = failures = unflagged = 0
    max_error = 0.0
    while chunk := list(itertools.islice(subsets, chunk_size)):
        stacks, results = _gather(job, chunk)
        try:
            y_hat = np.linalg.solve(stacks, results[..., None])[..., 0]
        except np.linalg.LinAlgError:
            y_hat = np.array([decode(s, z).y_hat for s, z in zip(stacks, results)])
        diff = y_hat - y
        errors = np.sqrt(np.vecdot(diff, diff)) / y_norm  # np.linalg.norm's dot, row by row
        failing = ~(errors <= tol)  # so a NaN error fails
        checked += len(chunk)
        failures += int(failing.sum())
        max_error = np.maximum(max_error, errors.max())  # and a NaN is the max
        if failing.any():
            unflagged += int((np.linalg.cond(stacks[failing]) < COND_LIMIT).sum())
    if not checked:
        raise ValueError("no subsets to check")
    recovered = (checked - failures) / checked
    return AnyKCheck(
        subsets_checked=checked, tolerance=tol, max_relative_error=float(max_error),
        failures=failures, unflagged_failures=unflagged, recovered_fraction=recovered,
        passed=recovered >= least_recovered and unflagged == 0,
    )


def recovery_error(job: CodedJob, worker_ids):
    """Decode from the given workers and compare against the direct product.

    Returns (relative_error, well_conditioned) where relative_error is
    ||y_hat - A x|| / ||A x||.
    """
    result = decode_from_workers(job, worker_ids)
    y = job.a_matrix @ job.x
    y_norm = np.linalg.norm(y)
    err = np.linalg.norm(result.y_hat - y)
    return (float(err / y_norm) if y_norm > 0 else float(err)), result.well_conditioned
