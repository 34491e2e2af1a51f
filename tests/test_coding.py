import itertools
import math
import re
import sys
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
from codedmatvec import coding
from codedmatvec.coding import CHUNK_ELEMENTS, MAX_SUBSETS


def random_job(n, k, r, m, seed=0, scheme="random"):
    rng = RngStream(seed, 0)
    a = rng.standard_normals((r, m))
    x = rng.standard_normals(m)
    params = ClusterParams(n=n, k=k, r=r, a=0.0, mu=1.0)
    if scheme == "random":
        return encode_random_linear(a, x, params, rng)
    return encode_systematic_mds(a, x, params)


def check_every_subset(job, scheme):
    """check_any_k on a job with at most MAX_SUBSETS subsets: it checks them all."""
    check = check_any_k(job, scheme, 1, RngStream(0, 0))
    assert check.exhaustive and check.subsets_checked == math.comb(*job.generator.shape)
    return check


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
    # the parity entry 2 ** 1049 overflows float64, with no numpy warning
    overflowing = ClusterParams(n=1100, k=1050, r=1050, a=0.0, mu=1.0)
    with pytest.raises(ValueError, match=r"^systematic code overflows float64 at n=1100, k=1050$"):
        encode_systematic_mds(np.ones((1050, 2)), np.ones(2), overflowing)
    # one parity row is all ones at any k
    single = ClusterParams(n=1101, k=1100, r=1100, a=0.0, mu=1.0)
    job = encode_systematic_mds(np.ones((1100, 2)), np.ones(2), single)
    assert np.array_equal(job.generator[-1], np.ones(1100))


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
    # the decode is one plain solve of the hand-stacked k x k system, bit for
    # bit, for every subset of both schemes
    for scheme in ("random", "systematic"):
        job = random_job(n=6, k=3, r=12, m=2, seed=2, scheme=scheme)
        for subset in itertools.combinations(range(1, 7), 3):
            g = np.vstack([job.generator[i - 1] for i in subset])
            z = np.vstack([worker_compute(job, i) for i in subset])
            result = decode_from_workers(job, subset[::-1])
            assert np.array_equal(result.y_hat, np.linalg.solve(g, z).ravel())
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
    check_every_subset(replace(job, assignments=job.assignments + 1.0), "random")
    assert shapes == {"solve": {((3, 3), (3, 4))}, "cond": {((3, 3),)}}


def per_subset_verdict(job, subsets, tol):
    """(failures, unflagged failures, max error) from recovery_error, subset by subset."""
    results = [recovery_error(job, subset) for subset in subsets]
    failed = [ok for err, ok in results if not err <= tol]
    return len(failed), sum(failed), max(err for err, _ in results)


@pytest.mark.parametrize("scheme", ["systematic", "random"])
def test_check_any_k_matches_recovery_error_subset_by_subset(scheme, monkeypatch):
    # the benchmark's shape, every subset, errors and flags alike; each
    # subset is gathered exactly once, in blocks of CHUNK_ELEMENTS // (8 * (8 + 8))
    tol = {"systematic": 1e-10, "random": 1e-8}[scheme]
    job = random_job(n=16, k=8, r=64, m=5, seed=12, scheme=scheme)
    subsets = list(itertools.combinations(range(1, 17), 8))
    gathered = []

    def gather(job, rows, results):
        gathered.append(rows.copy())
        return coding_gather(job, rows, results)

    coding_gather = coding._gather
    monkeypatch.setattr(coding, "_gather", gather)
    check = check_every_subset(job, scheme)
    monkeypatch.undo()
    assert [len(c) for c in gathered] == [512] * 25 + [70]
    assert np.array_equal(np.vstack(gathered), subsets)
    assert (check.subsets_checked, check.tolerance) == (len(subsets), tol)
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == \
        per_subset_verdict(job, subsets, tol)
    # both read one error expression; check it against np.linalg.norm
    y = job.a_matrix @ job.x
    for subset in subsets[::97]:
        result = decode_from_workers(job, subset)
        assert recovery_error(job, subset) == (
            np.linalg.norm(result.y_hat - y) / np.linalg.norm(y), result.well_conditioned)
    if scheme == "systematic":
        assert (check.failures, check.unflagged_failures, check.passed) == (0, 0, True)


def integer_node_job(seed):
    """The benchmark's systematic (16, 8, 64, 5) job on the integer nodes
    theta_j = j: parity rows j ** b, with entries up to 8 ** 7."""
    job = random_job(n=16, k=8, r=64, m=5, seed=seed, scheme="systematic")
    generator = np.vstack([np.eye(8), np.arange(1.0, 9.0)[:, None] ** np.arange(8.0)])
    return replace(job, generator=generator,
                   assignments=(generator @ job.a_matrix.reshape(8, -1)).reshape(16, 8, 5))


@pytest.mark.parametrize("seed, integer_failures", [(12, 2003), (101000303, 1991)])
def test_the_nodes_decide_the_failures_not_the_solve(seed, integer_failures):
    # the benchmark's systematic shape, at seed 12 and at its first round's
    # seed: the code fails no subset, while the integer nodes theta_j = j,
    # decoded by the same plain solve, fail thousands
    job = random_job(n=16, k=8, r=64, m=5, seed=seed, scheme="systematic")
    assert check_every_subset(job, "systematic").failures == 0
    assert check_every_subset(integer_node_job(seed), "systematic").failures == integer_failures


@pytest.mark.parametrize("k", range(1, 9))
def test_two_parity_rows_are_example_1s_family(k):
    # at n - k = 2 the nodes are exactly 1 and 2: parity rows 1 and 2 ** b;
    # a single parity row takes node 1, all ones
    job = random_job(n=k + 2, k=k, r=k, m=2, scheme="systematic")
    assert np.array_equal(job.generator[:k], np.eye(k))
    assert np.array_equal(job.generator[k], [1.0] * k)
    assert np.array_equal(job.generator[k + 1], [2.0 ** b for b in range(k)])
    single = random_job(n=k + 1, k=k, r=k, m=2, scheme="systematic")
    assert np.array_equal(single.generator, np.vstack([np.eye(k), np.ones(k)]))


@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("n, k", [(12, 6), (14, 7), (16, 8), (31, 30)])
def test_systematic_code_recovers_every_subset(n, k, seed):
    job = random_job(n=n, k=k, r=4 * k, m=5, seed=seed, scheme="systematic")
    check = check_every_subset(job, "systematic")
    assert (check.failures, check.recovered_fraction, check.passed) == (0, 1.0, True)


def test_check_any_k_keeps_the_least_squares_fallback():
    # workers 1 and 2 hold the same row, so their system is exactly singular and
    # the block's solve fails: every subset of it is decoded on its own
    job = hand_built_job([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0], [3.0, 1.0]])
    subsets = list(itertools.combinations(range(1, 5), 2))
    assert not decode_from_workers(job, (1, 2)).well_conditioned
    assert recovery_error(job, (1, 2))[0] > 0.1  # the least-squares answer, not y
    check = check_every_subset(job, "random")
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == \
        per_subset_verdict(job, subsets, 1e-8)
    assert (check.failures, check.unflagged_failures) == (1, 0)


def test_an_all_zero_generator_row_decodes_by_least_squares():
    # a zero generator row makes the system singular: the solve falls back
    # to least squares, with no NaN and no RuntimeWarning
    job = hand_built_job([[1.0, 2.0], [0.0, 0.0], [0.0, 1.0], [3.0, 1.0]], w=2)
    subsets = list(itertools.combinations(range(1, 5), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = decode_from_workers(job, (2, 3))
        check = check_every_subset(job, "random")
        verdict = per_subset_verdict(job, subsets, 1e-8)
    g = job.generator[[1, 2]]
    z = np.vstack([worker_compute(job, 2), worker_compute(job, 3)])
    assert not result.well_conditioned
    assert np.allclose(result.y_hat, np.linalg.lstsq(g, z, rcond=None)[0].ravel(), atol=1e-14)
    assert (check.failures, check.unflagged_failures, check.max_relative_error) == verdict
    assert (check.failures, check.unflagged_failures) == (3, 0)


OUT_OF_RANGE = "worker ids must lie in [1, 6]"
BAD_IDS = {
    "float": (np.array([1.5, 2.0, 3.0]), "worker ids must be integers, got np.float64(1.5)"),
    "integral float": (np.array([1.0, 2.0, 3.0]),
                       "worker ids must be integers, got np.float64(1.0)"),
    "bool": (np.array([True, False, True]), "worker ids must be integers, got np.True_"),
    "object holding 2**70": (np.array([2**70, 2, 3], dtype=object), OUT_OF_RANGE),
    "object holding -2**70": (np.array([1, -2**70, 3], dtype=object), OUT_OF_RANGE),
    "uint64 max": (np.array([1, 2, 2**64 - 1], dtype=np.uint64), OUT_OF_RANGE),
    "beyond n": (np.array([1, 2, 9]), OUT_OF_RANGE),
    "below 1": (np.array([0, 2, 3], dtype=np.uint8), OUT_OF_RANGE),
    "negative": (np.array([4, -1, 3], dtype=np.int8), OUT_OF_RANGE),
    "duplicate": (np.array([1, 2, 2]), "worker ids must be distinct"),
    "narrow": (np.array([1, 2]), "decoding needs exactly k=3 workers, got 2"),
    "wide": (np.array([1, 2, 3, 4]), "decoding needs exactly k=3 workers, got 4"),
}


@pytest.mark.parametrize("ids, message", BAD_IDS.values(), ids=BAD_IDS)
def test_decode_from_workers_refuses_bad_ids_by_name(ids, message):
    # worker ids from outside enter only here and in recovery_error, and
    # _refuse names the first fault; a numpy scalar is named by its repr
    job = random_job(n=6, k=3, r=6, m=2, seed=2)
    for call in (decode_from_workers, recovery_error):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(job, ids)


def test_check_any_k_checks_no_worker_id(monkeypatch):
    # the benchmark's systematic job: check_any_k makes its own subsets and
    # never calls _refuse, while decode_from_workers checks its one subset
    job = random_job(n=16, k=8, r=64, m=5, seed=12, scheme="systematic")
    calls = []

    def counting(worker_ids, n, k):
        calls.append(list(worker_ids))
        return refuse(worker_ids, n, k)

    refuse = coding._refuse
    monkeypatch.setattr(coding, "_refuse", counting)
    assert (check_every_subset(job, "systematic").subsets_checked, calls) == (12870, [])
    decode_from_workers(job, range(1, 9))
    assert calls == [list(range(1, 9))]


def searchsorted_calls(blocks):
    """Each block of the iterable, with the searchsorted calls made to build it."""
    calls = []

    def count(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "searchsorted":
            calls.append(arg)

    while True:
        sys.setprofile(count)
        try:
            block = next(blocks, None)
        finally:
            sys.setprofile(None)
        if block is None:
            return
        yield block, len(calls)
        calls.clear()


def test_combination_blocks_are_the_combinations_in_order():
    # every (n, k) up to n = 11 and (30, 28), in blocks of 1, 3, 7 rows and
    # one block; each block unranks the k ids of its subsets, one
    # searchsorted per id
    cases = [(n, k) for n in range(1, 12) for k in range(1, n + 1)] + [(30, 28)]
    for n, k in cases:
        count = math.comb(n, k)
        for rows in (1, 3, 7, count):
            blocks = []
            for block, calls in searchsorted_calls(coding._combination_blocks(n, k, rows)):
                assert calls <= k, (n, k, rows)
                blocks.append(block)
            sizes = [min(rows, count - first) for first in range(0, count, rows)]
            assert [block.shape for block in blocks] == [(size, k) for size in sizes]
            assert all(block.dtype == np.intp for block in blocks)
            assert np.vstack(blocks).tolist() == list(
                map(list, itertools.combinations(range(1, n + 1), k))), (n, k, rows)


def gathered_blocks(monkeypatch, job, scheme, trials, seed=0):
    """check_any_k's verdict and the blocks of worker ids it gathers, as given."""
    blocks = []
    gather = coding._gather
    monkeypatch.setattr(coding, "_gather",
                        lambda job, block, results: blocks.append(block.copy()) or
                        gather(job, block, results))
    check = check_any_k(job, scheme, trials, RngStream(seed, 0))
    monkeypatch.undo()
    return check, blocks


@pytest.mark.parametrize("n, k, r, trials, sizes", [
    (16, 8, 64, 1, [512] * 25 + [70]),  # the benchmark's: 8 * (8 + 8) elements a subset
    (100, 2, 2, 1, [655] * 7 + [365]),  # n = 100 ids a subset, more than 2 * (2 + 1)
    (31, 30, 30, 1, [31]),
    (17, 8, 8, 1500, [910, 590]),  # sampled: 17 uniforms, then 8 * (8 + 1) elements
    (300, 250, 250, 3, [1, 1, 1]),  # 250 * 251 elements: one subset a block
])
def test_check_any_k_blocks_fit_one_budget(monkeypatch, n, k, r, trials, sizes):
    job = random_job(n=n, k=k, r=r, m=2, seed=3)
    check, blocks = gathered_blocks(monkeypatch, job, "random", trials)
    per_subset = max(n, k * (k + r // k))
    assert [len(block) for block in blocks] == sizes and check.subsets_checked == sum(sizes)
    assert all(len(block) * per_subset <= CHUNK_ELEMENTS or len(block) == 1 for block in blocks)
    assert all(block.shape[1] == k and block.dtype.kind == "i" for block in blocks)


def test_check_any_k_is_exhaustive_up_to_max_subsets(monkeypatch):
    # C(17, 7) = 19448 subsets are all checked, whatever the trials; of
    # C(17, 8) = 24310, min(trials, MAX_SUBSETS) are drawn, each the one-by-one
    # draw of the stream given
    job = random_job(n=17, k=7, r=7, m=2, seed=4)
    check, blocks = gathered_blocks(monkeypatch, job, "random", 5)
    assert (check.exhaustive, check.subsets_checked) == (True, 19448)
    assert np.vstack(blocks).tolist() == list(map(list, itertools.combinations(range(1, 18), 7)))
    job = random_job(n=17, k=8, r=8, m=2, seed=4)
    for trials, checked in [(50, 50), (MAX_SUBSETS, 20000), (30000, 20000)]:
        check, blocks = gathered_blocks(monkeypatch, job, "random", trials, seed=9)
        assert (check.exhaustive, check.subsets_checked) == (False, checked)
        rng = RngStream(9, 0)
        expected = [(np.argsort(rng.uniforms(17))[:8] + 1).tolist() for _ in range(checked)]
        assert np.vstack(blocks).tolist() == expected


@pytest.mark.parametrize("trials", [0, -1, True, 2.0, None])
def test_check_any_k_refuses_fewer_than_one_trial(trials):
    # refused even where every subset is checked and trials goes unread
    job = random_job(n=4, k=2, r=2, m=2)
    with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {trials!r}$"):
        check_any_k(job, "random", trials, RngStream(0, 0))


def test_check_any_k_refuses_an_unknown_scheme():
    job = random_job(n=4, k=2, r=2, m=2)
    with pytest.raises(ValueError, match=r"^scheme must be one of systematic, random, got 'coded'$"):
        check_any_k(job, "coded", 1, RngStream(0, 0))


def test_check_any_k_verdicts_without_the_cli():
    # the integer-node (16, 8) code at seed 12 fails 2003 of its 12870
    # subsets, 200 of them with generator rows decode_from_workers calls
    # well conditioned
    check = check_every_subset(integer_node_job(12), "systematic")
    assert (check.subsets_checked, check.failures, check.unflagged_failures) == (12870, 2003, 200)
    assert check.recovered_fraction == 10867 / 12870 and not check.passed
    # Example 1's (4, 2) code recovers from every pair
    example = random_job(n=4, k=2, r=2, m=2, scheme="systematic")
    check = check_every_subset(example, "systematic")
    assert (check.subsets_checked, check.failures, check.recovered_fraction, check.passed) == \
        (6, 0, 1.0, True)


def test_a_nan_result_fails_the_check():
    # NaN compares false with any tolerance; it must count as a failure
    job = random_job(n=4, k=2, r=2, m=2, scheme="systematic")
    assignments = job.assignments.copy()
    assignments[3, 0, 0] = np.nan
    check = check_every_subset(replace(job, assignments=assignments), "systematic")
    assert (check.failures, check.unflagged_failures, check.passed) == (3, 3, False)
    assert math.isnan(check.max_relative_error)
