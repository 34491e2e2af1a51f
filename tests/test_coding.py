import itertools
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from codedmatvec import (
    ClusterParams,
    CodedJob,
    RngStream,
    check_any_k,
    decode_from_workers,
    encode_random_linear,
    encode_systematic_mds,
    recovery_error,
    worker_compute,
)
from codedmatvec.coding import CHUNK_ELEMENTS


def random_job(n, k, r, m, seed=0, scheme="random"):
    rng = RngStream(seed, 0)
    a = rng.standard_normals((r, m))
    x = rng.standard_normals(m)
    params = ClusterParams(n=n, k=k, r=r, a=0.0, mu=1.0)
    if scheme == "random":
        return encode_random_linear(a, x, params, rng)
    return encode_systematic_mds(a, x, params)


def test_random_linear_shapes():
    job = random_job(n=6, k=3, r=12, m=5)
    assert job.n == 6
    assert job.generator.shape == (6, 3)
    assert job.coding.shape == (6, 4, 12)
    assert job.assignments.shape == (6, 4, 5)


@pytest.mark.parametrize("scheme", ["random", "systematic"])
@pytest.mark.parametrize("n, k, r, m", [(6, 3, 12, 5), (5, 5, 5, 1), (7, 2, 4, 3)])
def test_code_is_one_generator_array(n, k, r, m, scheme):
    # the job stores the n x k generator and each worker's block combination;
    # the (n, r/k, r) expansion G ⊗ I_{r/k} is only built when read
    job = random_job(n=n, k=k, r=r, m=m, seed=4, scheme=scheme)
    assert [f.name for f in fields(job)] == ["a_matrix", "x", "generator", "assignments"]
    assert isinstance(job.generator, np.ndarray) and job.generator.dtype == np.float64
    assert job.generator.shape == (n, k)
    assert np.array_equal(job.assignments,
                          (job.generator @ job.a_matrix.reshape(k, -1)).reshape(n, r // k, m))
    blocks = job.a_matrix.reshape(k, r // k, m)
    assert np.allclose(job.assignments, np.einsum("ib,bjc->ijc", job.generator, blocks),
                       rtol=1e-13, atol=1e-13)
    assert job.coding.shape == (n, r // k, r)
    assert np.array_equal(job.coding, np.kron(job.generator, np.eye(r // k)).reshape(n, r // k, r))
    assert np.allclose(job.assignments, job.coding @ job.a_matrix, rtol=1e-13, atol=1e-13)


def test_random_linear_blocks_are_consecutive_draws():
    # worker i's generator row is the i-th of n k-draws that follow A and x
    # in the stream: the layout the golden digests depend on
    n, k, r, m = 5, 2, 6, 3
    job = random_job(n=n, k=k, r=r, m=m, seed=8)
    rng = RngStream(8, 0)
    rng.standard_normals((r, m))
    rng.standard_normals(m)
    for row in job.generator:
        assert np.array_equal(row, rng.standard_normals(k))


def test_scalar_random_linear():
    job = random_job(n=2, k=1, r=1, m=1)
    for s in job.coding:
        assert s.shape == (1, 1)
    # each worker's assignment is its Gaussian times the single row
    for s, at in zip(job.coding, job.assignments):
        assert at[0, 0] == pytest.approx(s[0, 0] * job.a_matrix[0, 0], rel=1e-15)


def test_encode_divisibility_and_shape_errors():
    params = ClusterParams(n=4, k=3, r=5, a=0.0, mu=1.0)
    with pytest.raises(ValueError):
        encode_random_linear(np.ones((5, 2)), np.ones(2), params, RngStream(0, 0))
    good = ClusterParams(n=4, k=2, r=4, a=0.0, mu=1.0)
    with pytest.raises(ValueError):
        encode_random_linear(np.ones((3, 2)), np.ones(2), good, RngStream(0, 0))
    with pytest.raises(ValueError):
        encode_systematic_mds(np.ones((4, 2)), np.ones(3), good)
    for a_matrix in (np.ones(4), np.ones((4, 0))):
        with pytest.raises(ValueError, match=r"^a_matrix must be a non-empty 2-d array$"):
            encode_systematic_mds(a_matrix, np.ones(2), good)
        with pytest.raises(ValueError, match=r"^a_matrix must be a non-empty 2-d array$"):
            encode_random_linear(a_matrix, np.ones(2), good, RngStream(0, 0))
    # the parity node 150 ** 149 overflows float64, with no numpy warning
    overflowing = ClusterParams(n=300, k=150, r=150, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match=r"^systematic code overflows float64 at n=300, k=150$"):
        encode_systematic_mds(np.ones((150, 2)), np.ones(2), overflowing)


def test_example_construction_4_2():
    # (4,2) code on the identity: workers hold A1, A2, A1+A2, A1+2*A2
    params = ClusterParams(n=4, k=2, r=2, a=0.0, mu=1.0)
    a = np.eye(2)
    x = np.array([3.0, 4.0])
    job = encode_systematic_mds(a, x, params)
    assert np.array_equal(job.generator, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(job.coding[0], [[1.0, 0.0]])
    assert np.array_equal(job.coding[1], [[0.0, 1.0]])
    assert np.array_equal(job.coding[2], [[1.0, 1.0]])
    assert np.array_equal(job.coding[3], [[1.0, 2.0]])
    assert worker_compute(job, 3)[0] == pytest.approx(7.0, rel=1e-15)
    # any two workers recover y = Ax = x
    for subset in itertools.combinations([1, 2, 3, 4], 2):
        result = decode_from_workers(job, subset)
        assert result.well_conditioned
        assert np.allclose(result.y_hat, x, rtol=1e-12, atol=1e-12)


def test_rate_one_code_is_pure_partition():
    params = ClusterParams(n=3, k=3, r=6, a=0.0, mu=1.0)
    a = np.arange(12.0).reshape(6, 2)
    job = encode_systematic_mds(a, np.ones(2), params)
    stacked = np.vstack(job.coding)
    assert np.array_equal(stacked, np.eye(6))
    assert np.array_equal(np.vstack(job.assignments), a)


def test_systematic_exhaustive_subsets_6_3():
    job = random_job(n=6, k=3, r=6, m=4, seed=3, scheme="systematic")
    y = job.a_matrix @ job.x
    for subset in itertools.combinations(range(1, 7), 3):
        stacked = np.vstack([job.coding[i - 1] for i in subset])
        assert abs(np.linalg.det(stacked)) > 1e-12
        err, ok = recovery_error(job, subset)
        assert ok
        assert err <= 1e-10
    assert np.linalg.norm(y) > 0


def test_systematic_workers_hold_verbatim_blocks():
    job = random_job(n=5, k=2, r=8, m=3, seed=9, scheme="systematic")
    assert np.array_equal(job.assignments[0], job.a_matrix[:4])
    assert np.array_equal(job.assignments[1], job.a_matrix[4:])
    ident = decode_from_workers(job, [1, 2])
    assert np.array_equal(ident.y_hat, job.a_matrix @ job.x) or np.allclose(
        ident.y_hat, job.a_matrix @ job.x, rtol=1e-14)


def test_worker_compute_against_direct_multiply():
    job = random_job(n=8, k=4, r=12, m=5, seed=5)
    for wid in range(1, 9):
        direct = job.coding[wid - 1] @ job.a_matrix @ job.x
        assert np.allclose(worker_compute(job, wid), direct, rtol=1e-12)
    assert np.array_equal(worker_compute(job, np.int64(2)), worker_compute(job, 2))
    # a float or bool id is refused, not truncated or read as 0/1
    for bad in (0, 9, 1.5, 2.0, True, np.True_, np.float64(3.0), "2"):
        message = f"^worker_id must be an integer in \\[1, 8\\], got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            worker_compute(job, bad)


def test_worker_compute_zero_input():
    job = random_job(n=4, k=2, r=4, m=3, seed=1)
    zero_job = encode_random_linear(
        job.a_matrix, np.zeros(3), ClusterParams(n=4, k=2, r=4, a=0.0, mu=1.0),
        RngStream(1, 1))
    assert np.array_equal(worker_compute(zero_job, 2), np.zeros(2))


def test_random_linear_decode_subsets():
    job = random_job(n=8, k=4, r=12, m=5, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(25):
        subset = rng.choice(np.arange(1, 9), size=4, replace=False)
        err, ok = recovery_error(job, subset.tolist())
        assert ok
        assert err <= 1e-8


def test_decode_input_assembly_and_errors():
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    with pytest.raises(ValueError, match=r"^decoding needs exactly k=3 workers, got 2$"):
        decode_from_workers(job, [1, 2])
    with pytest.raises(ValueError, match=r"^worker ids must be distinct$"):
        decode_from_workers(job, [1, 2, 2])
    with pytest.raises(ValueError, match=r"^worker ids must lie in \[1, 6\]$"):
        decode_from_workers(job, [1, 2, 9])
    with pytest.raises(ValueError, match=r"^worker ids must lie in \[1, 6\]$"):
        decode_from_workers(job, [0, 2, 3])
    # int() used to truncate these to workers 1, 2 (and 3, 4 or 1, 2, 3)
    for ids, bad in (((1.5, 2.7), "1.5"), ((3.9, 4, 5), "3.9"), ((True, 2, 3), "True"),
                     ((1, 2, 3.0), "3.0"), ((1, np.True_, 3), "np.True_")):
        with pytest.raises(ValueError, match=f"^worker ids must be integers, got {re.escape(bad)}$"):
            decode_from_workers(job, ids)
    # blocks and results stack in ascending id, whatever order the ids come in
    result = decode_from_workers(job, [5, 1, 3])
    assert np.array_equal(result.y_hat, decode_from_workers(job, [1, 3, 5]).y_hat)
    assert np.array_equal(result.y_hat, decode_from_workers(job, np.array([3, 5, 1])).y_hat)
    assert result.y_hat.shape == (6,)
    # the decode is a solve of the hand-stacked k x k system plus one step of
    # iterative refinement, bit for bit, for every subset of both schemes
    for scheme in ("random", "systematic"):
        job = random_job(n=6, k=3, r=12, m=2, seed=2, scheme=scheme)
        for subset in itertools.combinations(range(1, 7), 3):
            g = np.vstack([job.generator[i - 1] for i in subset])
            z = np.vstack([worker_compute(job, i) for i in subset])
            y = np.linalg.solve(g, z)
            result = decode_from_workers(job, subset[::-1])
            assert np.array_equal(result.y_hat, (y + np.linalg.solve(g, z - g @ y)).ravel())
            assert result.well_conditioned == (np.linalg.cond(g) < 1e8)


def test_decode_accepts_a_one_shot_iterable():
    # used to read the generator twice and reject a valid subset as repeated
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    result = decode_from_workers(job, (i for i in (1, 2, 5)))
    assert np.array_equal(result.y_hat, decode_from_workers(job, [1, 2, 5]).y_hat)
    with pytest.raises(ValueError, match="distinct"):
        decode_from_workers(job, (i for i in (1, 2, 2)))


def hand_built_job(generator, w=1):
    generator = np.array(generator)
    n, k = generator.shape
    a = np.arange(1.0, 2.0 * k * w + 1).reshape(k * w, 2) ** 0.5 * [1.0, -1.0]
    x = np.array([0.3, -1.1])
    return CodedJob(a_matrix=a, x=x, generator=generator,
                    assignments=(generator @ a.reshape(k, -1)).reshape(n, w, 2))


def test_decode_flags_singular_stack():
    job = hand_built_job(np.ones((3, 2)), w=2)
    result = decode_from_workers(job, (1, 2))
    assert not result.well_conditioned
    assert result.y_hat.shape == (4,)
    assert np.all(np.isfinite(result.y_hat))


def test_decode_solves_k_by_k_systems(monkeypatch):
    # no r x r system is formed: each subset is k x k with r/k right-hand
    # sides, in decode_from_workers and check_any_k alike
    job = random_job(n=6, k=3, r=12, m=2, seed=2)
    shapes = {"solve": set(), "cond": set()}

    def recording(name, fn):
        def call(a, *args):
            shapes[name].add((a.shape[-2:], *(b.shape[-2:] for b in args)))
            return fn(a, *args)
        return call

    monkeypatch.setattr(np.linalg, "solve", recording("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "cond", recording("cond", np.linalg.cond))
    decode_from_workers(job, (1, 2, 3))
    check_any_k(replace(job, assignments=job.assignments + 1.0),
                itertools.combinations(range(1, 7), 3), "random")
    assert shapes == {"solve": {((3, 3), (3, 4))}, "cond": {((3, 3),)}}


def per_subset_verdict(job, subsets, tol):
    """(failures, unflagged failures, max error) from recovery_error, subset by subset."""
    results = [recovery_error(job, subset) for subset in subsets]
    failed = [ok for err, ok in results if not err <= tol]
    return len(failed), sum(failed), max(err for err, _ in results)


@pytest.mark.parametrize("scheme", ["systematic", "random"])
def test_check_any_k_matches_recovery_error_subset_by_subset(scheme):
    # the benchmark's shape, every subset: the systematic code fails many of
    # them, so errors far from 0 and both flags are compared too
    tol = {"systematic": 1e-10, "random": 1e-8}[scheme]
    job = random_job(n=16, k=8, r=64, m=5, seed=12, scheme=scheme)
    subsets = list(itertools.combinations(range(1, 17), 8))
    check = check_any_k(job, iter(subsets), scheme)
    assert (check.subsets_checked, check.tolerance) == (len(subsets), tol)
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == \
        per_subset_verdict(job, subsets, tol)
    if scheme == "systematic":
        assert (check.failures, check.unflagged_failures, check.passed) == (841, 23, False)
    with pytest.raises(ValueError, match="^no subsets to check$"):
        check_any_k(job, [], scheme)


@pytest.mark.parametrize("seed, equilibrated", [(12, 1041), (101000303, 977)])
def test_refinement_fails_fewer_subsets_than_row_equilibration(seed, equilibrated):
    # the benchmark's systematic shape, at seed 12 and at its first round's
    # seed: dividing each row by its largest |entry| before one solve fails
    # more subsets than check_any_k's solve plus one refinement step
    job = random_job(n=16, k=8, r=64, m=5, seed=seed, scheme="systematic")
    rows = np.array(list(itertools.combinations(range(16), 8)))
    g, z = job.generator[rows], job.assignments[rows] @ job.x
    scale = np.abs(g).max(axis=2, keepdims=True)
    y = job.a_matrix @ job.x
    y_hat = np.linalg.solve(g / scale, z / scale).reshape(len(rows), -1)
    errors = np.linalg.norm(y_hat - y, axis=1) / np.linalg.norm(y)
    assert int((errors > 1e-10).sum()) == equilibrated
    check = check_any_k(job, itertools.combinations(range(1, 17), 8), "systematic")
    assert check.failures < equilibrated


def test_check_any_k_keeps_the_least_squares_fallback():
    # workers 1 and 2 hold the same row, so their system is exactly singular and
    # the chunk's solve fails: every subset of it is decoded on its own
    job = hand_built_job([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [3.0, 1.0]])
    subsets = list(itertools.combinations(range(1, 5), 2))
    assert not decode_from_workers(job, (1, 2)).well_conditioned
    assert recovery_error(job, (1, 2))[0] > 0.1  # the least-squares answer, not y
    check = check_any_k(job, subsets, "random")
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == \
        per_subset_verdict(job, subsets, 1e-8)
    assert (check.failures, check.unflagged_failures) == (1, 0)


def test_an_all_zero_generator_row_decodes_by_least_squares():
    # a zero generator row makes the system singular: both the solve and the
    # refinement step fall back to least squares, with no NaN and no RuntimeWarning
    job = hand_built_job([[1.0, 2.0], [0.0, 0.0], [0.0, 1.0], [3.0, 1.0]], w=2)
    subsets = list(itertools.combinations(range(1, 5), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = decode_from_workers(job, (2, 3))
        check = check_any_k(job, subsets, "random")
        verdict = per_subset_verdict(job, subsets, 1e-8)
    g = job.generator[[1, 2]]
    z = np.vstack([worker_compute(job, 2), worker_compute(job, 3)])
    assert not result.well_conditioned
    assert np.allclose(result.y_hat, np.linalg.lstsq(g, z, rcond=None)[0].ravel(), atol=1e-14)
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == verdict
    assert (check.failures, check.unflagged_failures) == (3, 0)


def test_check_any_k_refuses_bad_subsets_as_decode_from_workers_does():
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    # a subset gathers k x k generator entries and k (r/k, m) assignment blocks
    k, (w, m) = job.generator.shape[1], job.assignments.shape[1:]
    full_chunk = [(1, 2, 3)] * (CHUNK_ELEMENTS // (k * (k + w * m)))
    for ids in ((1.5, 2, 3), (1, 2, 3.0), (True, 2, 3), (1, np.True_, 3), (1, 2, 2),
                (1, 2, 9), (0, 2, 3), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError) as single:
            decode_from_workers(job, ids)
        # the same message when the bad subset follows a full chunk of good ones
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            check_any_k(job, full_chunk + [ids], "random")


def test_check_any_k_verdicts_without_the_cli():
    # the systematic (14, 7) code at seed 12 fails 22 subsets, 3 of them
    # with generator rows decode_from_workers calls well conditioned
    job = random_job(n=14, k=7, r=14, m=5, seed=12, scheme="systematic")
    check = check_any_k(job, itertools.combinations(range(1, 15), 7), "systematic")
    assert (check.subsets_checked, check.failures, check.unflagged_failures) == (3432, 22, 3)
    assert check.recovered_fraction == 3410 / 3432 and not check.passed
    # Example 1's (4, 2) code recovers from every pair
    example = random_job(n=4, k=2, r=2, m=2, scheme="systematic")
    check = check_any_k(example, itertools.combinations(range(1, 5), 2), "systematic")
    assert (check.subsets_checked, check.failures, check.recovered_fraction, check.passed) == \
        (6, 0, 1.0, True)


def test_a_nan_result_fails_the_check():
    # NaN compares false with any tolerance; it must count as a failure
    job = random_job(n=4, k=2, r=2, m=2, scheme="systematic")
    assignments = job.assignments.copy()
    assignments[3, 0, 0] = np.nan
    check = check_any_k(replace(job, assignments=assignments),
                        itertools.combinations(range(1, 5), 2), "systematic")
    assert (check.failures, check.unflagged_failures, check.passed) == (3, 3, False)
    assert math.isnan(check.max_relative_error)
