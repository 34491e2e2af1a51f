import itertools

import numpy as np
import pytest

from codedmatvec import (
    ClusterParams,
    RngStream,
    assemble_decode_input,
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
    assert all(s.shape == (4, 12) for s in job.coding)
    assert all(at.shape == (4, 5) for at in job.assignments)


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
    with pytest.raises(ValueError):
        worker_compute(job, 0)
    with pytest.raises(ValueError):
        worker_compute(job, 9)


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
    with pytest.raises(ValueError):
        assemble_decode_input(job, [1, 2])  # too few
    with pytest.raises(ValueError):
        assemble_decode_input(job, [1, 2, 2])  # repeated
    with pytest.raises(ValueError):
        assemble_decode_input(job, [1, 2, 9])  # out of range
    inputs = assemble_decode_input(job, [5, 1, 3])
    assert inputs.worker_ids == (1, 3, 5)
    assert inputs.stacked_s.shape == (6, 6)
    assert inputs.z.shape == (6,)


def test_decode_accepts_a_one_shot_iterable():
    # used to read the generator twice and reject a valid subset as repeated
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    result = decode_from_workers(job, (i for i in (1, 2, 5)))
    assert np.array_equal(result.y_hat, decode_from_workers(job, [1, 2, 5]).y_hat)
    with pytest.raises(ValueError, match="distinct"):
        assemble_decode_input(job, (i for i in (1, 2, 2)))


def test_decode_flags_singular_stack():
    job = random_job(n=4, k=2, r=2, m=2, seed=11)
    inputs = assemble_decode_input(job, [1, 2])
    broken = type(inputs)(
        worker_ids=inputs.worker_ids,
        stacked_s=np.ones((2, 2)),
        z=inputs.z,
    )
    result = decode(broken)
    assert not result.well_conditioned

