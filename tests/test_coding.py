import itertools
import re

import numpy as np
import pytest

from codedmatvec import (
    ClusterParams,
    RngStream,
    decode,
    decode_from_workers,
    encode_random_linear,
    encode_systematic_mds,
    recovery_error,
    worker_compute,
)


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
    assert job.coding.shape == (6, 4, 12)
    assert job.assignments.shape == (6, 4, 5)


@pytest.mark.parametrize("scheme", ["random", "systematic"])
@pytest.mark.parametrize("n, k, r, m", [(6, 3, 12, 5), (5, 5, 5, 1), (7, 2, 4, 3)])
def test_code_is_one_generator_array(n, k, r, m, scheme):
    job = random_job(n=n, k=k, r=r, m=m, seed=4, scheme=scheme)
    assert isinstance(job.coding, np.ndarray) and job.coding.dtype == np.float64
    assert job.coding.shape == (n, r // k, r)
    assert np.array_equal(job.assignments, job.coding @ job.a_matrix)


def test_random_linear_blocks_are_consecutive_draws():
    # worker i holds the i-th of n (r/k, r) draws that follow A and x in
    # the stream: the layout the golden digests depend on
    n, k, r, m = 5, 2, 6, 3
    job = random_job(n=n, k=k, r=r, m=m, seed=8)
    rng = RngStream(8, 0)
    rng.standard_normals((r, m))
    rng.standard_normals(m)
    for block in job.coding:
        assert np.array_equal(block, rng.standard_normals((r // k, r)))


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


def test_example_construction_4_2():
    # (4,2) code on the identity: workers hold A1, A2, A1+A2, A1+2*A2
    params = ClusterParams(n=4, k=2, r=2, a=0.0, mu=1.0)
    a = np.eye(2)
    x = np.array([3.0, 4.0])
    job = encode_systematic_mds(a, x, params)
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
    # the gathered system is the hand-stacked one, bit for bit, for every
    # subset of both schemes
    for scheme in ("random", "systematic"):
        job = random_job(n=6, k=3, r=6, m=2, seed=2, scheme=scheme)
        for subset in itertools.combinations(range(1, 7), 3):
            stacked = decode(np.vstack([job.coding[i - 1] for i in subset]),
                             np.concatenate([worker_compute(job, i) for i in subset]))
            result = decode_from_workers(job, subset[::-1])
            assert np.array_equal(result.y_hat, stacked.y_hat), (scheme, subset)
            assert result.well_conditioned == stacked.well_conditioned


def test_decode_accepts_a_one_shot_iterable():
    # used to read the generator twice and reject a valid subset as repeated
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    result = decode_from_workers(job, (i for i in (1, 2, 5)))
    assert np.array_equal(result.y_hat, decode_from_workers(job, [1, 2, 5]).y_hat)
    with pytest.raises(ValueError, match="distinct"):
        decode_from_workers(job, (i for i in (1, 2, 2)))


def test_decode_flags_singular_stack():
    job = random_job(n=4, k=2, r=2, m=2, seed=11)
    z = np.concatenate([worker_compute(job, 1), worker_compute(job, 2)])
    result = decode(np.ones((2, 2)), z)
    assert not result.well_conditioned
    assert result.y_hat.shape == (2,)


def test_decode_checks_the_shapes_it_is_given():
    z = np.ones(2)
    with pytest.raises(ValueError, match=r"^stacked_s must be square$"):
        decode(np.ones((2, 3)), z)
    with pytest.raises(ValueError, match=r"^stacked_s must be square$"):
        decode(np.ones(4), z)
    with pytest.raises(ValueError, match=r"^z length must match stacked_s$"):
        decode(np.eye(2), np.ones(3))
    with pytest.raises(ValueError, match=r"^z length must match stacked_s$"):
        decode(np.eye(2), np.ones((2, 1)))
