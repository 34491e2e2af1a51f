"""Linear coding of the matrix-vector job y = A x.

A code is a block code with one n x k generator G: A is split into k
row-blocks A_b of r/k rows, and worker i holds sum_b G[i-1, b] * A_b.
The results of any k workers gather, with one index, into a k x k system
G_S Y = Z with r/k right-hand sides, solved for y in k blocks.  Two
schemes: a Gaussian random generator, and a systematic MDS generator
whose parity rows are Vandermonde rows at nodes spread over (0, 2].

Subsets of worker ids travel as (B, k) integer arrays, "blocks", one
subset per row.  Worker ids from outside come one subset at a time and
`_refuse` checks them; `check_any_k` makes its own blocks.  The n worker
results A_i x, A x and its norm are computed once per check, and a subset
gathers k of the results.  `_decode` solves a block with one plain solve
and judges each row by its relative error ||y_hat - A x|| / ||A x||; a
decode is flagged by the condition number of G_S (that of G_S ⊗ I_{r/k}).
`check_any_k` is the any-k verdict: it chooses the subsets, decodes a
block per solve, takes condition numbers only for the failing rows, and
applies its row of ANY_K_RULES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .timing import ClusterParams

# solves whose generator rows have condition numbers beyond this are flagged, not trusted
COND_LIMIT = 1e8

# elements per check_any_k block of subsets: each takes n ids, then k*k + k*(r/k) float64
CHUNK_ELEMENTS = 2**16

# check_any_k checks all C(n, k) subsets up to this many, else min(trials, this) sampled
MAX_SUBSETS = 20_000

# per scheme: the tolerance on a subset's relative error, and the least
# recovered fraction that passes (an unflagged failure never passes)
ANY_K_RULES = {"systematic": (1e-10, 1.0), "random": (1e-8, 0.99)}


@dataclass(frozen=True)
class CodedJob:
    """Immutable encoded job: A, x, the (n, k) `generator` and the (n, r/k, m)
    `assignments`, whose row i - 1 is worker i's sum_b generator[i-1, b] * A_b."""

    a_matrix: np.ndarray
    x: np.ndarray
    generator: np.ndarray
    assignments: np.ndarray

    @property
    def n(self) -> int:
        return self.generator.shape[0]

    @property
    def coding(self) -> np.ndarray:
        """(n, r/k, r) generator ⊗ I_{r/k}, built when read: worker i holds coding[i-1] @ A."""
        n, k = self.generator.shape
        w = self.assignments.shape[1]
        return np.kron(self.generator, np.eye(w)).reshape(n, w, k * w)


@dataclass(frozen=True)
class DecodeResult:
    y_hat: np.ndarray
    well_conditioned: bool


@dataclass(frozen=True)
class AnyKCheck:
    """The any-k verdict: a subset fails when its relative error is not within
    `tolerance`, unflagged when its generator rows are well conditioned."""

    subsets_checked: int
    exhaustive: bool
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


def _encode(a, x, generator) -> CodedJob:
    n, k = generator.shape
    w, m = a.shape[0] // k, a.shape[1]
    assignments = (generator @ a.reshape(k, w * m)).reshape(n, w, m)
    return CodedJob(a_matrix=a, x=x, generator=generator, assignments=assignments)


def encode_random_linear(a_matrix, x, params: ClusterParams, rng: RngStream) -> CodedJob:
    """Block code whose generator is the next (n, k) standard-normal draw of
    `rng`: worker i holds a Gaussian combination of A's k row-blocks."""
    a, x = _check_encode_args(a_matrix, x, params)
    return _encode(a, x, rng.standard_normals((params.n, params.k)))


def encode_systematic_mds(a_matrix, x, params: ClusterParams) -> CodedJob:
    """Systematic MDS code over the k row-blocks of A.

    Workers 1..k hold the blocks verbatim; parity worker k + j holds
    sum_b theta_j^(b-1) * block_b at node theta_j = 2j/max(n-k, 2).  Increasing
    positive nodes make every square minor of the parity rows positive (total
    positivity), so any k rows are invertible.  No entry exceeds 2^(k-1); one
    parity row is all ones, and two are Example 1's [1, 1], [1, 2].
    """
    a, x = _check_encode_args(a_matrix, x, params)
    n, k = params.n, params.k
    theta = 2 * np.arange(1, n - k + 1, dtype=np.float64)[:, None] / max(n - k, 2)
    with np.errstate(over="ignore"):  # refused below, naming the code
        generator = np.vstack([np.eye(k), theta ** np.arange(k, dtype=np.float64)])
    if not np.isfinite(generator).all():
        raise ValueError(f"systematic code overflows float64 at n={n}, k={k}")
    return _encode(a, x, generator)


def _is_id(worker_id) -> bool:  # a bool is an int to Python; int() truncates a float
    return isinstance(worker_id, (int, np.integer)) and not isinstance(worker_id, bool)


def worker_compute(job: CodedJob, worker_id: int) -> np.ndarray:
    """Worker's local product A_i~ x (worker_id is 1-based)."""
    if not (_is_id(worker_id) and 1 <= worker_id <= job.n):
        raise ValueError(f"worker_id must be an integer in [1, {job.n}], got {worker_id!r}")
    return job.assignments[worker_id - 1] @ job.x


def _refuse(worker_ids, n: int, k: int) -> None:
    """Raise the refusal of one subset of worker ids, if it has one."""
    bad = [i for i in worker_ids if not _is_id(i)]
    if bad:
        raise ValueError(f"worker ids must be integers, got {bad[0]!r}")
    ids = sorted(set(worker_ids))
    if len(ids) != len(worker_ids):
        raise ValueError("worker ids must be distinct")
    if len(ids) != k:
        raise ValueError(f"decoding needs exactly k={k} workers, got {len(ids)}")
    if ids[0] < 1 or ids[-1] > n:
        raise ValueError(f"worker ids must lie in [1, {n}]")


def _one_block(job: CodedJob, worker_ids) -> np.ndarray:
    """One subset of worker ids, checked id by id, as a (1, k) block."""
    ids = list(worker_ids)  # read a one-shot iterable once
    _refuse(ids, *job.generator.shape)
    return np.array([ids], dtype=np.intp)


def _gather(job: CodedJob, block: np.ndarray, results: np.ndarray, buffers):
    """Gather each row's system of a (B, k) block of valid worker ids, in
    ascending id, into the first B rows of `buffers`: the (B, k, k)
    generator rows and the (B, k, r/k) rows of `results`, the worker
    results."""
    rows = np.sort(block, axis=1) - 1
    g, z = (buffer[:len(rows)] for buffer in buffers)
    # every id is in [1, n]; mode="raise" would copy through a temporary
    np.take(job.generator, rows, axis=0, out=g, mode="clip")
    np.take(results, rows, axis=0, out=z, mode="clip")
    return g, z


def _decode(job: CodedJob, blocks):
    """Per (B, k) block of worker ids: each row's (k, k) generator rows G_S,
    y_hat solved from G_S Y = Z, and its relative error ||y_hat - A x|| /
    ||A x|| (absolute if A x = 0).  The worker results, A x and its norm
    are computed once, for all the blocks, and every block is gathered into
    the buffers of the first, which is the largest: a yielded G_S is valid
    only until the next block."""
    results, y = job.assignments @ job.x, job.a_matrix @ job.x
    y_norm = np.linalg.norm(y) or 1.0
    k, w = job.generator.shape[1], results.shape[1]
    buffers = None
    for block in blocks:
        if buffers is None:
            buffers = (np.empty((len(block), k, k), job.generator.dtype),
                       np.empty((len(block), k, w), results.dtype))
        g, z = _gather(job, block, results, buffers)
        y_hat = _solve(g, z).reshape(len(g), -1)
        diff = np.subtract(y_hat, y, out=z.reshape(len(g), -1))  # Z is spent
        yield g, y_hat, np.sqrt(np.vecdot(diff, diff)) / y_norm
        del y_hat  # before the next solve, so malloc hands its memory back


def _solve(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve a batch of systems in one call, or one by one if one is
    singular; a singular system is solved by least squares."""
    try:
        return np.linalg.solve(g, z)
    except np.linalg.LinAlgError:
        if g.ndim == 2:
            return np.linalg.lstsq(g, z, rcond=None)[0]
        return np.array([_solve(a, b) for a, b in zip(g, z)])


def _well_conditioned(g: np.ndarray) -> np.ndarray:
    """Per (k, k) system of a (..., k, k) stack: is its condition number below COND_LIMIT."""
    return np.linalg.cond(g) < COND_LIMIT


def decode_from_workers(job: CodedJob, worker_ids) -> DecodeResult:
    """Decode y from the results of exactly k distinct workers (1-based integer
    ids, any order, any iterable), gathered in ascending id.  A decode whose
    generator rows reach COND_LIMIT is flagged as untrustworthy; it is still
    returned, by least squares if they are singular, so the caller can retry."""
    g, y_hat, _ = next(_decode(job, [_one_block(job, worker_ids)]))
    return DecodeResult(y_hat=y_hat[0], well_conditioned=bool(_well_conditioned(g[0])))


def check_any_k(job: CodedJob, scheme: str, trials: int, rng: RngStream) -> AnyKCheck:
    """Decode y from k-subsets of the workers, in itertools.combinations order
    or each the first k of an argsort of rng.uniforms(n), and judge the
    scheme by ANY_K_RULES[scheme] on the errors and flags `recovery_error`
    returns.  Each block of subsets is decoded once, as `decode_from_workers`
    decodes one subset, and only its failing rows pay for condition numbers."""
    if scheme not in ANY_K_RULES:
        raise ValueError(f"scheme must be one of {', '.join(ANY_K_RULES)}, got {scheme!r}")
    if not (_is_id(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    tol, least_recovered = ANY_K_RULES[scheme]
    (n, k), w = job.generator.shape, job.assignments.shape[1]
    rows = max(1, CHUNK_ELEMENTS // max(n, k * (k + w)))
    count = math.comb(n, k)
    exhaustive = count <= MAX_SUBSETS
    count = count if exhaustive else min(trials, MAX_SUBSETS)
    # row j of a (B, n) draw is the j-th uniforms(n) draw, bit for bit
    blocks = _combination_blocks(n, k, rows) if exhaustive else (
        np.argsort(rng.uniforms((min(rows, count - first), n)), axis=1)[:, :k] + 1
        for first in range(0, count, rows))
    checked = failures = unflagged = 0
    max_error = 0.0
    for g, y_hat, errors in _decode(job, blocks):
        del y_hat  # so the next block's solve reuses its memory
        failing = ~(errors <= tol)  # so a NaN error fails
        checked += len(errors)
        failures += int(failing.sum())
        max_error = np.maximum(max_error, errors.max())  # and a NaN is the max
        if failing.any():
            unflagged += int(_well_conditioned(g[failing]).sum())
    recovered = (checked - failures) / checked
    return AnyKCheck(
        subsets_checked=checked, exhaustive=exhaustive, tolerance=tol,
        max_relative_error=float(max_error),
        failures=failures, unflagged_failures=unflagged, recovered_fraction=recovered,
        passed=recovered >= least_recovered and unflagged == 0,
    )


def _combination_blocks(n: int, k: int, rows: int):
    """itertools.combinations(range(1, n + 1), k) as (B, k) intp blocks of
    `rows` rows.  The subset a_1 < ... < a_k of lexicographic rank R has
    C(n, k) - 1 - R = sum_c C(n - a_c, k - c + 1), so each a_c is the least
    id whose term fits."""
    count = math.comb(n, k)
    # choose[c - 1, t] = C(n - a_c, k - c + 1) at a_c = n - k + c - t
    choose = np.array([[math.comb(k - c + t, k - c + 1) for t in range(n - k + 1)]
                       for c in range(1, k + 1)])
    top = n - k + 1 + np.arange(k)[:, None]  # a_c at t = 0
    # per rank R, what is left to unrank: C(n, k) - 1 - R
    lefts = np.arange(count - 1, -1, -1)
    for first in range(0, count, rows):
        left = lefts[first:first + rows].copy()
        t = np.empty((k, len(left)), np.intp)  # a row per column of the block
        for row, t_c in zip(choose, t):
            np.subtract(row.searchsorted(left, side="right"), 1, out=t_c)
            left -= row[t_c]
        yield (top - t).T


def recovery_error(job: CodedJob, worker_ids):
    """Decode from the given workers and compare against the direct product:
    (relative_error, well_conditioned), the error ||y_hat - A x|| / ||A x||."""
    g, _, errors = next(_decode(job, [_one_block(job, worker_ids)]))
    return float(errors[0]), bool(_well_conditioned(g[0]))
