"""Linear coding of the matrix-vector job y = A x.

Each worker i holds a coded block A_i~ = S_i A with S_i of shape
(r/k, r); the results of any k workers stack into an r x r system that
recovers y.  Two schemes: dense Gaussian random-linear coding, and a
systematic MDS construction whose parity blocks take Vandermonde
combinations of the k row-blocks of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .timing import ClusterParams

# stacked solves with condition estimates beyond this are flagged, not trusted
COND_LIMIT = 1e8


@dataclass(frozen=True)
class CodedJob:
    """Immutable encoded job: matrix, input, and per-worker assignments."""

    a_matrix: np.ndarray
    x: np.ndarray
    coding: tuple
    assignments: tuple

    @property
    def n(self) -> int:
        return len(self.coding)

    @property
    def r(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def rows_per_worker(self) -> int:
        return self.coding[0].shape[0]


@dataclass(frozen=True)
class DecodeInput:
    """Aggregated system from k responding workers.

    stacked_s -- r x r matrix of their coding blocks, ascending worker id
    z         -- their concatenated result vectors, same order
    """

    worker_ids: tuple
    stacked_s: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class DecodeResult:
    y_hat: np.ndarray
    well_conditioned: bool


def _check_encode_args(a_matrix, params):
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("a_matrix must be a non-empty 2-d array")
    if a.shape[0] != params.r:
        raise ValueError(f"a_matrix must have r={params.r} rows, got {a.shape[0]}")
    if params.r % params.k != 0:
        raise ValueError(f"encoding requires k | r: k={params.k}, r={params.r}")
    return a


def encode_random_linear(a_matrix, x, params: ClusterParams, rng: RngStream) -> CodedJob:
    """Assign each worker r/k random linear combinations of A's rows,
    with i.i.d. standard-normal coefficients."""
    a = _check_encode_args(a_matrix, params)
    x = _check_input_vector(x, a)
    w = params.r // params.k
    coding = tuple(rng.standard_normals((w, params.r)) for _ in range(params.n))
    assignments = tuple(s @ a for s in coding)
    return CodedJob(a_matrix=a, x=x, coding=coding, assignments=assignments)


def encode_systematic_mds(a_matrix, x, params: ClusterParams) -> CodedJob:
    """Systematic MDS code over the k row-blocks of A.

    Workers 1..k hold the blocks verbatim.  Parity worker j takes the
    combination sum_b theta_j^(b-1) * block_b with node theta_j = j, so
    any k generator rows form an invertible mix of identity rows and
    rows of a Vandermonde matrix with distinct positive nodes.
    """
    a = _check_encode_args(a_matrix, params)
    x = _check_input_vector(x, a)
    n, k, r = params.n, params.k, params.r
    w = r // k
    eye_w = np.eye(w)
    coding = []
    for i in range(n):
        if i < k:
            g = np.zeros(k)
            g[i] = 1.0
        else:
            theta = float(i - k + 1)
            g = theta ** np.arange(k, dtype=np.float64)
        coding.append(np.kron(g, eye_w))
    coding = tuple(coding)
    assignments = tuple(s @ a for s in coding)
    return CodedJob(a_matrix=a, x=x, coding=coding, assignments=assignments)


def _check_input_vector(x, a):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != a.shape[1]:
        raise ValueError(f"x must be a vector of length {a.shape[1]}")
    return x


def worker_compute(job: CodedJob, worker_id: int) -> np.ndarray:
    """Worker's local product A_i~ x (worker_id is 1-based)."""
    if not 1 <= worker_id <= job.n:
        raise ValueError(f"worker_id must be in [1, {job.n}], got {worker_id!r}")
    return job.assignments[worker_id - 1] @ job.x


def assemble_decode_input(job: CodedJob, worker_ids) -> DecodeInput:
    """Stack the chosen workers' coding blocks and results, ascending id."""
    given = [int(i) for i in worker_ids]  # read a one-shot iterable once
    ids = sorted(set(given))
    if len(ids) != len(given):
        raise ValueError("worker ids must be distinct")
    k = job.r // job.rows_per_worker
    if len(ids) != k:
        raise ValueError(f"decoding needs exactly k={k} workers, got {len(ids)}")
    if ids[0] < 1 or ids[-1] > job.n:
        raise ValueError(f"worker ids must lie in [1, {job.n}]")
    stacked_s = np.vstack([job.coding[i - 1] for i in ids])
    z = np.concatenate([worker_compute(job, i) for i in ids])
    return DecodeInput(worker_ids=tuple(ids), stacked_s=stacked_s, z=z)


def decode(inputs: DecodeInput) -> DecodeResult:
    """Solve stacked_s @ y = z for y.

    A solve whose condition number reaches COND_LIMIT is flagged as
    untrustworthy (it is still returned, via least squares if the stack
    is numerically singular, so the caller can retry another subset).
    """
    s, z = inputs.stacked_s, inputs.z
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("stacked_s must be square")
    if z.ndim != 1 or z.size != s.shape[0]:
        raise ValueError("z length must match stacked_s")
    cond = np.linalg.cond(s)
    try:
        y_hat = np.linalg.solve(s, z)
    except np.linalg.LinAlgError:
        y_hat = np.linalg.lstsq(s, z, rcond=None)[0]
        cond = math.inf
    return DecodeResult(
        y_hat=y_hat,
        well_conditioned=bool(np.isfinite(cond) and cond < COND_LIMIT),
    )


def decode_from_workers(job: CodedJob, worker_ids) -> DecodeResult:
    return decode(assemble_decode_input(job, worker_ids))


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

