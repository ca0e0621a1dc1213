"""ring: exact Z_N linear algebra, checked against exhaustive oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexa import code, colex, gauge, ring
from builders import with_code
from oracles import (brute_kernel, brute_span, dense_echelon_mod_p, pairwise_verify_code,
                     recursive_span, solve_left)


def rmat(N, rows):
    return ring.ResidueMatrix(N, tuple(tuple(r) for r in rows))


def test_mat_vec_mul_row_selection():
    M = rmat(3, [[1, 1, 1], [0, 1, 2]])
    assert ring.mat_vec_mul(M, (1, 0)) == (1, 1, 1)


def test_mat_vec_mul_hand_arithmetic():
    M = rmat(3, [[1, 1, 1], [0, 1, 2]])
    assert ring.mat_vec_mul(M, (1, 1)) == (1, 2, 0)


def test_mat_vec_mul_zero_input():
    M = rmat(7, [[3, 1], [2, 5], [0, 6]])
    assert ring.mat_vec_mul(M, (0, 0, 0)) == (0, 0)


def test_mat_vec_mul_shape_error():
    M = rmat(3, [[1, 2]])
    with pytest.raises(ValueError):
        ring.mat_vec_mul(M, (1, 0))


@pytest.mark.parametrize("N", [3, 2**63 - 1, 2**63, 2**64 + 13])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0), (2, 3)])
def test_matrix_keeps_its_shape_and_a_dtype_that_holds_N(N, shape):
    entries = np.array([[2 * i - j - 1 for j in range(shape[1])] for i in range(shape[0])],
                       dtype=np.int64).reshape(shape)
    M = ring.ResidueMatrix(N, entries)
    assert M.array.shape == shape and not M.array.flags.writeable
    assert np.array(N, dtype=M.array.dtype) == N
    assert M.rows == tuple(tuple(e % N for e in r) for r in entries.tolist())
    assert ring.ResidueMatrix(N, entries.astype(object)) == M
    T = M.transpose()
    assert T.array.shape == shape[::-1] and T.transpose() == M
    H = ring.span_check(M)
    assert H.shape[0] == shape[1] and H.dtype == M.array.dtype
    assert ring.kernel_mod(M).ncols == shape[0]


@pytest.mark.parametrize("N", [3, 2**70])
def test_equal_matrices_hash_equal(N):
    # one matrix from unreduced rows, from an int64 array and from an object
    # array: equal, so equal hashes, and one set element
    built = [ring.ResidueMatrix(N, [[N + 1, 2 * N - 1], [0, -1]]),
             ring.ResidueMatrix(N, np.array([[1, -1], [0, -1]], dtype=np.int64)),
             ring.ResidueMatrix(N, np.array([[1, N - 1], [N, N - 1]], dtype=object))]
    assert built[0] == built[1] == built[2]
    assert len({hash(M) for M in built}) == 1 and len(set(built)) == 1
    assert ring.ResidueMatrix(N, [[1, 0], [0, -1]]) not in set(built)


def test_kernel_unit_mod5():
    assert ring.kernel_mod(rmat(5, [[1]])).nrows == 0


def test_kernel_two_mod4():
    K = ring.kernel_mod(rmat(4, [[2]]))
    assert set(K.rows) == {(2,)}


def test_kernel_matches_scan_examples():
    M = rmat(6, [[2, 3], [4, 0]])
    span = set(ring.iter_span(ring.kernel_mod(M))) if ring.kernel_mod(M).nrows else {(0, 0)}
    assert span == brute_kernel([list(r) for r in M.rows], 6)


def test_is_injective_encoding_examples():
    # (x, y) -> x.G1 + y.G0 is injective iff [G1; G0] has trivial left kernel
    assert ring.kernel_mod(rmat(3, [[1, 1, 1], [0, 1, 2]])).nrows == 0
    assert ring.kernel_mod(rmat(4, [[1, 1], [2, 2]])).nrows != 0


def test_is_prime_matches_trial_division():
    for d in range(10**5):
        assert ring.is_prime(d) == (d >= 2 and all(d % p for p in range(2, math.isqrt(d) + 1)))


@pytest.mark.parametrize("d", [2047, 3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(d):
    # strong pseudoprimes to the bases 2; 2..7; and 2..23
    assert not ring.is_prime(d)


def test_is_prime_at_large_d():
    assert ring.is_prime(10**18 + 3)
    assert not ring.is_prime(10**18 + 1)
    assert not ring.is_prime(ring.PRIME_BOUND - 1)
    with pytest.raises(ValueError, match="supports prime d < 3.3e24"):
        ring.is_prime(ring.PRIME_BOUND)


def test_independent_rows_examples():
    assert ring.independent_rows(rmat(3, [[1, 1, 1], [0, 1, 2]]))
    assert not ring.independent_rows(rmat(4, [[1, 1], [2, 2]]))
    # no unit entry, yet independent: (2, 3) is a unit row mod 2 and mod 3
    assert ring.independent_rows(rmat(6, [[2, 3]]))
    # 3 * (2, 0) == 0 mod 6
    assert not ring.independent_rows(rmat(6, [[2, 0], [0, 3]]))
    assert not ring.independent_rows(rmat(5, [[1], [2]]))  # more rows than columns
    assert not ring.independent_rows(rmat(5, [[], []]))
    assert ring.independent_rows(rmat(5, []))


def test_independent_rows_is_kept_on_the_matrix(monkeypatch):
    calls = []
    original = ring._eliminate
    monkeypatch.setattr(ring, "_eliminate", lambda rows, N: calls.append(N) or original(rows, N))
    M = rmat(12, [[1, 0, 0], [0, 4, 3]])
    assert ring.independent_rows(M) and ring.independent_rows(M)
    # 4 and 3 are zero divisors: the second row splits 12 into 4 and 3
    assert calls == [12, 4, 3]


# moduli for independent_rows: all of 2..12, prime powers, products of
# several primes, and moduli past int64
INDEPENDENCE_MODULI = st.sampled_from(
    [*range(2, 13), 16, 27, 30, 60, 2**64, 3 * (2**61 - 1)])


@settings(max_examples=400, deadline=None)
@given(N=INDEPENDENCE_MODULI, m=st.integers(0, 6), n=st.integers(0, 5), data=st.data())
def test_independent_rows_matches_kernel(N, m, n, data):
    # small entries make dependences likely; planted rows are multiples and
    # sums of earlier rows, with zero-divisor coefficients among them
    entry = st.one_of(st.integers(0, N - 1), st.integers(0, 2))
    zero_cols = data.draw(st.sets(st.integers(0, 4), max_size=2))
    rows = [[0 if j in zero_cols else data.draw(entry) for j in range(n)] for _ in range(m)]
    coeffs = st.sampled_from([c for c in (1, 2, 3, 4, 5, 6, 2**32, 2**61 - 1, N - 1) if c < N])
    for i in range(1, m):
        if data.draw(st.booleans()):
            j, k = data.draw(st.integers(0, i - 1)), data.draw(st.integers(0, i - 1))
            a, b = data.draw(coeffs), data.draw(st.sampled_from([0, 1]))
            rows[i] = [(a * x + b * y) % N for x, y in zip(rows[j], rows[k])]
    assert ring.independent_rows(rmat(N, rows)) == (ring.kernel_mod(rmat(N, rows)).nrows == 0)


SNF_BOUNDS = st.sampled_from([1, 3, 30, 10**6, 2**70])


def draw_int_matrix(data, m, n, bound):
    """An m x n integer matrix, entries in [-bound, bound], with a few rows
    and columns forced to zero."""
    zero_rows = data.draw(st.sets(st.integers(0, 7), max_size=3))
    zero_cols = data.draw(st.sets(st.integers(0, 7), max_size=3))
    return [
        [0 if i in zero_rows or j in zero_cols else data.draw(st.integers(-bound, bound))
         for j in range(n)]
        for i in range(m)
    ]


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def bareiss_det(M):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    A = [list(r) for r in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def test_bareiss_det_examples():
    assert bareiss_det([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 624
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0


@settings(max_examples=200, deadline=None)
@given(m=st.integers(0, 6), n=st.integers(0, 6), bound=SNF_BOUNDS,
       scale=st.sampled_from([1, 2, 6, 2**63]), data=st.data())
def test_smith_normal_form_transforms(m, n, bound, scale, data):
    # scale > 1 leaves no unit entry, so every pivot is a non-unit
    A = [[scale * e for e in row] for row in draw_int_matrix(data, m, n, bound)]
    U, S, V, diag = ring.smith_normal_form(A)
    assert matmul(matmul(U, A), V) == S
    assert all(e == (diag[i] if i == j else 0) for i, row in enumerate(S)
               for j, e in enumerate(row))
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    assert abs(bareiss_det(U)) == 1 and abs(bareiss_det(V)) == 1


@settings(max_examples=100, deadline=None)
@given(N=st.sampled_from([4, 6, 12, 2**64 - 1]), m=st.integers(0, 4), n=st.integers(0, 4),
       data=st.data())
def test_transpose_keeps_the_smith_form_transposed(N, m, n, data):
    # a factored M, with or without rows, gives M^T the Smith form
    # V^T M^T U^T = S^T, exact over the integers; an unfactored M gives none
    M = ring.ResidueMatrix(N, draw_matrix(data, N, m, n).array.reshape(m, n))
    assert "_snf" not in M.transpose().__dict__
    M._factor()
    T = M.transpose()
    assert "_snf" in T.__dict__
    U, V, diag = T._factor()
    A = T.array.tolist()
    assert matmul(matmul(U.tolist(), A), V) == [
        [diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
    assert abs(bareiss_det(U.tolist())) == 1 and abs(bareiss_det(V)) == 1
    assert ring.span_size(T) == ring.span_size(ring.ResidueMatrix(N, A))


@pytest.mark.parametrize("N", [6, 7, 2**64 + 13])
def test_transpose_of_a_factored_matrix_with_no_rows(N):
    """A 0 x n matrix factors with an n x n V, which its n x 0 transpose
    takes as U: every row of Z_N^n is in the left kernel of a matrix with
    no columns, and its rows span {0}."""
    M = ring.ResidueMatrix(N, np.zeros((0, 3), dtype=np.int64))
    U, V, diag = M._factor()
    assert U.shape == (0, 0) and V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and diag == []
    T = M.transpose()
    assert T.array.shape == (3, 0) and T._snf[0].shape == (3, 3) and T._snf[1] == []
    assert ring.kernel_mod(T).array.tolist() == V
    assert ring.span_size(T) == 1 and ring.row_basis(T).array.shape == (0, 0)
    assert ring.span_check(M).tolist() == V


def test_smith_normal_form_takes_numpy_entries_exactly():
    # int64 products of these entries overflow; the SNF must not
    A = np.array([[3 * 2**40, 2**41 + 1], [2**41 - 1, 5 * 2**39]], dtype=np.int64)
    U, S, V, diag = ring.smith_normal_form(A)
    assert (U, S, V, diag) == ring.smith_normal_form(A.tolist())
    assert all(type(e) is int for M in (U, S, V) for row in M for e in row)
    assert matmul(matmul(U, A.tolist()), V) == S


@settings(max_examples=150, deadline=None)
@given(
    N=st.sampled_from([2, 3, 4, 5, 6, 9]),
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    data=st.data(),
)
def test_kernel_and_span_match_exhaustive(N, m, n, data):
    rows = [
        [data.draw(st.integers(0, N - 1)) for _ in range(n)] for _ in range(m)
    ]
    M = rmat(N, rows)
    K = ring.kernel_mod(M)
    for g in K.rows:
        assert not any(ring.mat_vec_mul(M, g))
    kspan = set(ring.iter_span(K)) if K.nrows else {(0,) * m}
    assert kspan == brute_kernel(rows, N)
    assert set(ring.iter_span(M)) == brute_span(rows, N)
    assert ring.span_size(M) == len(brute_span(rows, N))


@settings(max_examples=100, deadline=None)
@given(
    N=st.sampled_from([2, 3, 4, 5, 6, 9]),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    data=st.data(),
)
def test_solve_left_agrees_with_membership(N, m, n, data):
    rows = [
        [data.draw(st.integers(0, N - 1)) for _ in range(n)] for _ in range(m)
    ]
    w = [data.draw(st.integers(0, N - 1)) for _ in range(n)]
    M = rmat(N, rows)
    sol = solve_left(M, w)
    if tuple(w) in brute_span(rows, N):
        assert sol is not None
        assert ring.mat_vec_mul(M, sol) == tuple(w)
    else:
        assert sol is None


@settings(max_examples=60, deadline=None)
@given(
    N=st.sampled_from([2, 3, 5, 6]),
    data=st.data(),
)
def test_mat_vec_mul_distributes(N, data):
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, N - 1)) for _ in range(n)] for _ in range(m)]
    u = [data.draw(st.integers(0, N - 1)) for _ in range(m)]
    v = [data.draw(st.integers(0, N - 1)) for _ in range(m)]
    M = rmat(N, rows)
    lhs = ring.mat_vec_mul(M, [(a + b) % N for a, b in zip(u, v)])
    rhs = tuple(
        (a + b) % N
        for a, b in zip(ring.mat_vec_mul(M, u), ring.mat_vec_mul(M, v))
    )
    assert lhs == rhs


COMPOSITE = st.sampled_from([4, 6, 8, 12])


def draw_matrix(data, N, m, n):
    return rmat(N, [[data.draw(st.integers(0, N - 1)) for _ in range(n)] for _ in range(m)])


@settings(max_examples=60, deadline=None)
@given(N=COMPOSITE, m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_composite_kernel_times_span_is_whole_space(N, m, n, data):
    M = draw_matrix(data, N, m, n)
    rows = [list(r) for r in M.rows]
    kernel, span = brute_kernel(rows, N), brute_span(rows, N)
    assert len(kernel) * len(span) == N**m
    assert ring.span_size(ring.kernel_mod(M)) == len(kernel)
    assert ring.span_size(M) == len(span)


@settings(max_examples=60, deadline=None)
@given(N=COMPOSITE, m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_composite_span_enumerated_exactly_once(N, m, n, data):
    M = draw_matrix(data, N, m, n)
    elements = list(ring.iter_span(M))
    assert len(elements) == len(set(elements)) == ring.span_size(M)
    assert set(elements) == brute_span([list(r) for r in M.rows], N)
    B, orders = ring.row_basis(M), ring.span_orders(M)
    assert B.nrows == len(orders)
    for g, o in zip(B.rows, orders):
        assert all((o * e) % N == 0 for e in g)


@settings(max_examples=60, deadline=None)
@given(N=COMPOSITE, m=st.integers(1, 3), n=st.integers(1, 3), data=st.data())
def test_composite_solve_left_iff_span_member(N, m, n, data):
    M = draw_matrix(data, N, m, n)
    span = set(ring.iter_span(M))
    for _ in range(4):
        w = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
        sol = solve_left(M, w)
        assert (sol is not None) == (w in span)
        if sol is not None:
            assert ring.mat_vec_mul(M, sol) == w


@settings(max_examples=40, deadline=None)
@given(N=COMPOSITE, data=st.data())
def test_composite_second_call_equals_first(N, data):
    M = draw_matrix(data, N, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    w = tuple(data.draw(st.integers(0, N - 1)) for _ in range(M.ncols))
    first = (ring.kernel_mod(M), solve_left(M, w), ring.row_basis(M),
             ring.span_orders(M), list(ring.iter_span(M)))
    second = (ring.kernel_mod(M), solve_left(M, w), ring.row_basis(M),
              ring.span_orders(M), list(ring.iter_span(M)))
    fresh = rmat(N, M.rows)
    third = (ring.kernel_mod(fresh), solve_left(fresh, w), ring.row_basis(fresh),
             ring.span_orders(fresh), list(ring.iter_span(fresh)))
    assert first == second == third


@settings(max_examples=40, deadline=None)
@given(N=COMPOSITE, data=st.data())
def test_composite_span_size_multiplies_over_blocks(N, data):
    A = draw_matrix(data, N, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    B = draw_matrix(data, N, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    block = rmat(
        N,
        [list(r) + [0] * B.ncols for r in A.rows] + [[0] * A.ncols + list(r) for r in B.rows],
    )
    assert ring.span_size(block) == ring.span_size(A) * ring.span_size(B)


@settings(max_examples=60, deadline=None)
@given(N=COMPOSITE, m=st.integers(1, 4), n=st.integers(1, 4),
       block=st.sampled_from([1, 3, 8, ring.BLOCK_ROWS]), data=st.data())
def test_span_blocks_in_iter_span_order(N, m, n, block, data):
    # one matrix at several offsets: every enumeration after the first
    # shifts the inner block the first one kept
    M = draw_matrix(data, N, m, n)
    offsets = [tuple(data.draw(st.integers(-N, 2 * N)) for _ in range(n)) for _ in range(3)]
    reference = recursive_span(M)
    default, ring.BLOCK_ROWS = ring.BLOCK_ROWS, block
    try:
        blocks = list(ring.span_blocks(M))
        shifted = [[r for b in ring.span_blocks(M, o) for r in map(tuple, b.tolist())]
                   for o in offsets]
        elements = list(ring.iter_span(M))
    finally:
        ring.BLOCK_ROWS = default
    assert all(b.dtype == np.min_scalar_type(2 * (N - 1)) and 1 <= len(b) <= block for b in blocks)
    assert [r for b in blocks for r in map(tuple, b.tolist())] == elements == reference
    assert shifted == [[tuple((a + b) % N for a, b in zip(o, r)) for r in reference]
                       for o in offsets]
    assert set(elements) == brute_span([list(r) for r in M.rows], N)


@pytest.mark.parametrize("N,dtype", [
    (2, np.uint8), (127, np.uint8), (128, np.uint8), (129, np.uint16),
    (32768, np.uint16), (32769, np.uint32), (2**31, np.uint32), (2**31 + 1, np.uint64),
    (2**63, np.uint64), (2**63 + 1, object),
])
def test_span_blocks_reduce_exactly_at_each_dtype_edge(N, dtype):
    # the narrowest unsigned dtype that holds 2(N-1); two generators of order
    # p, the least prime factor of N, with entries up to N - N/p, and offset
    # N - 1, so most unreduced sums pass N and must wrap back below it; the
    # later offsets shift the block the first enumeration kept
    p = next(q for q in range(2, N + 1) if N % q == 0)
    a = N // p
    M = rmat(N, [[a, N - a, N - a], [0, a, N - a]])
    for offset in [(N - 1,) * 3, None, (0, N - 1, 1), (N // 2, N + 3, -1), (N - 1,) * 3]:
        blocks = list(ring.span_blocks(M, offset))
        assert all(b.dtype == dtype for b in blocks)
        assert [r for b in blocks for r in map(tuple, b.tolist())] == [
            tuple((o + t) % N for o, t in zip(offset or (0,) * 3, r)) for r in recursive_span(M)]


def test_span_blocks_python_ints_past_int64():
    N = 2**64 + 13  # 2 (N-1) no longer fits int64
    M = rmat(N, [[N - 1, 5]])
    # the generator's order N exceeds any cap, so take a prefix: one row per
    # block, since a single order above BLOCK_ROWS cannot join the inner block
    blocks = list(itertools.islice(ring.span_blocks(M, offset=(N - 1, 0)), 3))
    assert all(b.dtype == object for b in blocks)
    assert [r for b in blocks for r in b.tolist()] == [[N - 1, 0], [N - 2, 5], [N - 3, 10]]
    assert list(itertools.islice(ring.iter_span(M), 2)) == [(0, 0), (N - 1, 5)]


def blocks_at(M, offset):
    """The blocks of offset + rowspan(M), as (dtype, rows) pairs."""
    return [(b.dtype, b.tolist()) for b in ring.span_blocks(M, offset)]


@pytest.mark.parametrize("N", [6, 2**64])
@pytest.mark.parametrize("block", [1, ring.BLOCK_ROWS])
def test_writing_into_a_block_leaves_later_blocks_alone(N, block):
    # every yielded block is a fresh, writable array: scribbling over each
    # one changes neither the blocks after it nor a later enumeration.  The
    # rows have orders 2 and 6 at N = 6, and 4 and 2 at N = 2^64 (Python ints)
    M = rmat(N, [[3, 0, 3], [2, 5, 0]] if N == 6 else [[2**62, 3 * 2**62, 0], [0, 2**63, 2**63]])
    offset = (1, N - 1, 2)
    default, ring.BLOCK_ROWS = ring.BLOCK_ROWS, block
    try:
        expected = blocks_at(rmat(N, M.rows), offset)
        for b in ring.span_blocks(M, offset):
            assert b.flags.writeable and not np.shares_memory(b, M._span[3])
            b[...] = 1
        assert blocks_at(M, offset) == expected
        assert blocks_at(M, None) == blocks_at(rmat(N, M.rows), None)
    finally:
        ring.BLOCK_ROWS = default
    assert len(expected) == (1 if block > 1 else ring.span_size(M))


def test_the_kept_block_is_read_only():
    M = rmat(12, [[3, 4, 0], [0, 6, 2], [1, 1, 1]])
    list(ring.span_blocks(M, (5, 5, 5)))
    gens, orders, split, inner = M._span
    assert not inner.flags.writeable and not gens.flags.writeable
    with pytest.raises(ValueError):
        inner[0, 0] = 1
    assert (len(inner), len(gens), split) == (ring.span_size(M), len(orders), 0)


@pytest.mark.parametrize("block", [1, 5, ring.BLOCK_ROWS])
def test_a_partly_consumed_enumeration_keeps_a_whole_block(block):
    # code.distance may stop after the first block of a coset; the block it
    # leaves kept is complete, and later enumerations of M are exact
    M = rmat(12, [[3, 4, 0, 1], [0, 6, 2, 2], [2, 0, 0, 4]])
    default, ring.BLOCK_ROWS = ring.BLOCK_ROWS, block
    try:
        first = list(itertools.islice(ring.span_blocks(M, (1, 2, 3, 4)), 1))
        fresh = rmat(12, M.rows)
        list(ring.span_blocks(fresh))
        assert all(np.array_equal(a, b) for a, b in zip(M._span, fresh._span))
        assert M._span[1:3] == fresh._span[1:3]
        later = [blocks_at(M, o) for o in (None, (1, 2, 3, 4), (11, 0, 5, 7))]
        assert later == [blocks_at(rmat(12, M.rows), o) for o in (None, (1, 2, 3, 4), (11, 0, 5, 7))]
    finally:
        ring.BLOCK_ROWS = default
    assert first[0].tolist() == later[1][0][1]
    shifted = [r for _, rows in later[2] for r in map(tuple, rows)]
    assert shifted == [tuple((o + t) % 12 for o, t in zip((11, 0, 5, 7), r)) for r in recursive_span(M)]


@pytest.mark.parametrize("offset", [(1, 2), (1, 2, 3, 4), ()])
def test_an_offset_of_another_width_is_one_line_error(offset):
    M = rmat(6, [[1, 2, 3], [0, 3, 3]])
    with pytest.raises(ValueError, match=f"^offset has {len(offset)} entries, not ncols = 3$"):
        next(ring.span_blocks(M, offset))
    with pytest.raises(ValueError, match="not ncols = 3"):
        list(ring.iter_span(M, offset))
    # a matrix with no rows spans {0} at the offset's width, whatever its
    # ncols, and keeps no width from an earlier enumeration
    Z = ring.ResidueMatrix(6, np.zeros((0, 3), dtype=np.int64))
    assert list(ring.iter_span(Z, (7, 8, 9))) == [(1, 2, 3)]
    assert list(ring.iter_span(Z, offset)) == [tuple(e % 6 for e in offset)]
    assert list(ring.iter_span(Z)) == [(0, 0, 0)]


@settings(max_examples=60, deadline=None)
@given(N=COMPOSITE, m=st.integers(1, 4), n=st.integers(1, 4), data=st.data())
def test_iter_span_offset_shifts_each_element(N, m, n, data):
    M = draw_matrix(data, N, m, n)
    offset = tuple(data.draw(st.integers(-N, 2 * N)) for _ in range(n))
    expected = [tuple((o + t) % N for o, t in zip(offset, r)) for r in ring.iter_span(M)]
    assert list(ring.iter_span(M, offset)) == expected


def test_iter_span_offset_of_no_rows_is_the_offset():
    # with no rows the span is {0} at the offset's width
    assert list(ring.iter_span(rmat(6, []), (7, -1, 2))) == [(1, 5, 2)]


def test_iter_span_offset_python_ints_past_int64():
    N = 2**64  # 2 (N-1) no longer fits int64; these rows have orders 4 and 2
    M = rmat(N, [[2**62, 3 * 2**62], [0, 2**63]])
    offset = (N - 1, 2**63 + 5)
    elements = list(ring.iter_span(M))
    shifted = list(ring.iter_span(M, offset))
    assert len(elements) == 8
    assert shifted == [tuple((o + t) % N for o, t in zip(offset, r)) for r in elements]
    assert all(type(e) is int for r in shifted for e in r)


# 2^61 - 1 and 10^18 + 3 are primes whose echelon forms hold Python ints
# (2p^2 passes 2^63); 2^64 - 1 = 3 5 17 257 641 65537 6700417 is a Smith form's
SPAN_MODULI = [2, 3, 4, 6, 8, 12, 2**61 - 1, 10**18 + 3, 2**64 - 1]


@settings(max_examples=120, deadline=None)
@given(N=st.sampled_from(SPAN_MODULI), m=st.integers(0, 3), n=st.integers(1, 4),
       data=st.data())
def test_span_check_agrees_with_in_rowspan(N, m, n, data):
    M = ring.ResidueMatrix(N, draw_matrix(data, N, m, n).array.reshape(m, n))
    W = [[data.draw(st.integers(0, N - 1)) for _ in range(n)] for _ in range(6)]
    W += [list(r) for r in M.rows]
    W += [ring.mat_vec_mul(M, [data.draw(st.integers(0, N - 1)) for _ in range(m)])
          for _ in range(2 if m else 0)]
    H = ring.span_check(M)
    assert H.dtype == M.array.dtype and H is ring.span_check(M)
    members = ~(np.array(W, dtype=H.dtype).reshape(-1, n) @ H % N).any(axis=1)
    assert members.tolist() == [solve_left(M, w) is not None for w in W]


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 2**31 - 1, 2**61 - 1, 10**18 + 3]),
       m=st.integers(0, 5), n=st.integers(0, 4), data=st.data())
def test_prime_kernel_spans_the_smith_form_kernel(p, m, n, data):
    """At prime N kernel_mod is the echelon transform's rows past the rank;
    they span the module read off M's Smith form U M V = S: the rows i of U
    with p | diag_i, and those past the diagonal."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and data.draw(st.booleans()):  # a dependent row
        k = data.draw(st.integers(0, p - 1))
        A[-1] = [(k * a + b) % p for a, b in zip(A[0], A[1])]
    M = ring.ResidueMatrix(p, np.array(A, dtype=object).reshape(m, n))
    K = ring.kernel_mod(M)
    U, _V, diag = M._factor()
    smith = ring.ResidueMatrix(p, [U[i].tolist() for i in range(m)
                                   if i >= len(diag) or diag[i] % p == 0])
    assert K.ncols == m and K.nrows == smith.nrows
    assert not (K.array @ M.array.astype(K.array.dtype) % p).any()
    assert all(solve_left(smith, k) is not None for k in K.rows)
    assert all(solve_left(K, k) is not None for k in smith.rows)


def test_solve_left_on_no_rows():
    # the span of no rows is {0}: only the zero target is solvable, by ()
    for N in (2, 6, 3000000019):
        M = ring.ResidueMatrix(N, np.zeros((0, 3), dtype=np.int64))
        assert solve_left(M, (0, 0, 0)) == () and solve_left(M, (0, 0, N)) == ()
        assert solve_left(M, (0, 1, 0)) is None and solve_left(M, (N - 1, 0, 0)) is None


def test_span_check_holds_a_product_over_every_row_of_H():
    """One kept column at N = 3000000019: (N-1)^2 < 2^63 <= 3 (N-1)^2, so
    only a dtype for all three rows of H holds w @ H exactly."""
    N = 3000000019
    M = rmat(N, [[1, 0, 1], [0, 1, 1]])
    H = ring.span_check(M)
    assert H.shape == (3, 1) and (N - 1) ** 2 < 2**63 <= 3 * (N - 1) ** 2
    assert H.dtype == M.array.dtype == object
    top = [N - 1, N - 2, N - 3]
    W = [ring.mat_vec_mul(M, (a, b)) for a in top for b in top]
    W += [tuple(w[:2]) + ((w[2] + c) % N,) for w in W for c in (1, N - 1)]
    members = ~(np.array(W, dtype=H.dtype) @ H % N).any(axis=1)
    assert members.tolist() == [solve_left(M, w) is not None for w in W] == [True] * 9 + [False] * 18


def in_span(rows, N, W, n):
    """Whether every row of W lies in the Z_N row span of rows, by span_check."""
    H = ring.span_check(ring.ResidueMatrix(N, np.array(rows, dtype=object).reshape(len(rows), n)))
    return not (np.array(W, dtype=H.dtype).reshape(len(W), n) @ H % N).any()


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 1009, 2**31 - 1, 2**61 - 1, 10**18 + 3]),
       m=st.integers(0, 5), n=st.integers(0, 5), data=st.data())
def test_echelon_mod_p(p, m, n, data):
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    if m >= 3 and data.draw(st.booleans()):  # a dependent row
        k = data.draw(st.integers(0, p - 1))
        A[-1] = [(k * a + b) % p for a, b in zip(A[0], A[1])]
    R, T, pivots = ring.echelon_mod_p(np.array(A, dtype=object).reshape(m, n), p)
    R, T = R.tolist(), T.tolist()
    assert all(0 <= e < p for M in (R, T) for row in M for e in row)
    assert [[e % p for e in row] for row in matmul(T, A)] == R
    assert bareiss_det(T) % p != 0 if m else T == []
    # reduced: leading 1s in increasing columns, alone in their columns
    r = len(pivots)
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not any(R[i][:c]) and [row[c] for row in R] == [int(i == k) for k in range(m)]
    assert not any(e for row in R[r:] for e in row)
    assert r == sum(1 for e in ring.smith_normal_form(A)[3] if e % p)
    assert in_span(A, p, R, n) and in_span(R, p, A, n)


ECHELON_PRIMES = [2, 3, 5, 7, 1009, 2**31 - 1, 2**61 - 1, 10**18 + 3]


@st.composite
def sparse_matrices(draw):
    """(A, p): an m x n array over F_p, 0 <= m, n <= 8, with rows and
    columns zeroed at random and, at times, a row that is a combination of
    two others, so pivots are skipped, moved and run out."""
    p = draw(st.sampled_from(ECHELON_PRIMES))
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        A[i] = [0] * n
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        for row in A:
            row[j] = 0
    if m >= 3 and draw(st.booleans()):
        k = draw(st.integers(0, p - 1))
        A[-1] = [(k * a + b) % p for a, b in zip(A[0], A[1])]
    return np.array(A, dtype=object).reshape(m, n), p


@settings(max_examples=400, deadline=None)
@given(case=sparse_matrices(), as_int64=st.booleans())
def test_echelon_mod_p_matches_the_dense_elimination(case, as_int64):
    """The elimination that skips no-op swaps, unit scalings, zero rows and
    the columns left of each pivot, and stops once every row holds a pivot,
    gives the (R, T, pivots) of the one that updates every entry, dtypes
    included, from object and (where it fits) int64 input."""
    A, p = case
    if as_int64:  # every p here is below 2^63
        A = A.astype(np.int64)
    got, want = ring.echelon_mod_p(A, p), dense_echelon_mod_p(A, p)
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tolist() == w.tolist()


def full_scan_pivot(S, t):
    """The pivot search smith_normal_form ran before it stopped at units:
    the first smallest nonzero |entry| over the whole remaining block."""
    piv = None
    best = None
    for i in range(t, len(S)):
        for j in range(t, len(S[0])):
            e = S[i][j]
            if e != 0 and (best is None or abs(e) < best):
                best = abs(e)
                piv = (i, j)
    return piv


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), data=st.data())
def test_snf_unit_pivot_exit_matches_full_scan(m, n, data):
    bound = data.draw(st.sampled_from([1, 3, 30, 10**6]))
    A = [[data.draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(m)]
    fast = ring.smith_normal_form(A)
    original = ring._find_pivot
    ring._find_pivot = full_scan_pivot
    try:
        slow = ring.smith_normal_form(A)
    finally:
        ring._find_pivot = original
    assert fast == slow


def seed_snf(A):
    """smith_normal_form as it was before it skipped the divisibility scan at
    unit pivots and restricted column operations to the rows they change,
    copied verbatim except that it calls full_scan_pivot (which picks the same
    pivot) and converts its input inline, so it shares no code with ring."""
    S = [[int(e) for e in row] for row in A]
    m = len(S)
    n = len(S[0]) if S else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(M, i, j):
        M[i], M[j] = M[j], M[i]

    def swap_cols(M, i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    def add_row(M, dst, src, c):
        M[dst] = [a + c * b for a, b in zip(M[dst], M[src])]

    def add_col(M, dst, src, c):
        for row in M:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        piv = full_scan_pivot(S, t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            swap_rows(S, t, i)
            swap_rows(U, t, i)
        if j != t:
            swap_cols(S, t, j)
            swap_cols(V, t, j)
        # clear the pivot row and column
        dirty = False
        for i in range(t + 1, m):
            if S[i][t] != 0:
                q = S[i][t] // S[t][t]
                add_row(S, i, t, -q)
                add_row(U, i, t, -q)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j] != 0:
                q = S[t][j] // S[t][t]
                add_col(S, j, t, -q)
                add_col(V, j, t, -q)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | every remaining entry
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % S[t][t] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is not None:
            add_row(S, t, bad[0], 1)
            add_row(U, t, bad[0], 1)
            continue
        if S[t][t] < 0:
            S[t] = [-e for e in S[t]]
            U[t] = [-e for e in U[t]]
        t += 1

    diag = [S[i][i] for i in range(min(m, n))]
    return U, S, V, diag


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 7), n=st.integers(0, 7), bound=SNF_BOUNDS, data=st.data())
def test_snf_matches_seed_oracle(m, n, bound, data):
    A = draw_int_matrix(data, m, n, bound)
    assert ring.smith_normal_form(A) == seed_snf(A)


@pytest.mark.parametrize("family, d", [("triangle", 2), ("triangle", 6), ("tetra", 3), ("tetra", 5)])
def test_snf_matches_seed_oracle_on_code_matrices(family, d):
    if family == "triangle":
        A = with_code(colex.triangle_lattice(13), d)[1].encoding().rows
    else:
        _, C = with_code(colex.hypercube_lattice(3), d)
        A = [list(x + z) for x, z, _ in gauge.Tableau.zero_logical(C).canonical_form()]
    assert ring.smith_normal_form(A) == seed_snf(A)


# --------------------------------------------------------------------------
# mul_transpose: the dense product and the pair product

PRODUCT_MODULI = st.sampled_from([*range(2, 13), 2**31 - 1, 3000000019, 2**64 + 13])


def python_product(A, B):
    """A @ B^T mod N on Python ints, entry by entry."""
    return [[sum(a * b for a, b in zip(r, c)) % A.modulus for c in B.rows] for r in A.rows]


def draw_residue_matrix(data, N, m, n, kind):
    """An m x n matrix over Z_N: every entry nonzero ("full", N - 1 often, the
    largest product), about a quarter of them nonzero ("sparse") or none."""
    nonzero = st.integers(1, N - 1) | st.just(N - 1)
    entry = {"full": nonzero, "sparse": st.sampled_from([0, 0, 0]) | nonzero,
             "zero": st.just(0)}[kind]
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return ring.ResidueMatrix(N, np.array(rows, dtype=object).reshape(m, n))


@settings(max_examples=300, deadline=None)
@given(N=PRODUCT_MODULI, ra=st.integers(0, 5), rb=st.integers(0, 5), n=st.integers(0, 6),
       kinds=st.tuples(*[st.sampled_from(["full", "sparse", "zero"])] * 2),
       chunk=st.sampled_from([1, 3, None]), data=st.data())
def test_pair_and_dense_products_match_python(N, ra, rb, n, kinds, chunk, data):
    # N = 2^31 - 1 keeps int64 at n = 2, where two largest products sum to
    # just below 2^63; N = 3000000019 keeps it only at n <= 1
    A = draw_residue_matrix(data, N, ra, n, kinds[0])
    B = draw_residue_matrix(data, N, rb, n, kinds[1])
    want = python_product(A, B)
    dense = ring._dense_product(A, B)
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(ring, "_PAIR_CHUNK", chunk)
        pairs = ring._pair_product(A, B)
    product = ring.mul_transpose(A, B)
    for P in (dense, pairs, product):
        assert P.shape == (ra, rb) and P.dtype == A.array.dtype
        assert P.tolist() == want


def test_mul_transpose_counts_work_to_choose(monkeypatch):
    # triangle L = 13: G0 Zstab^T has 63 * 63 * 127 dense multiply-adds and
    # 954 nonzero pairs; a syndrome and a fully dense product stay dense
    _, C = with_code(colex.triangle_lattice(13), 6)
    chosen = []

    def spy(name):
        method = getattr(ring, name)

        def counted(*args):
            chosen.append(name)
            return method(*args)
        return counted

    for name in ("_dense_product", "_pair_product"):
        monkeypatch.setattr(ring, name, spy(name))
    error = ring.ResidueMatrix(6, ((1,) + (0,) * (C.n - 1),))
    full = ring.ResidueMatrix(6, np.ones((63, C.n), dtype=np.int64))
    for A, B in ((C.G0, C.z_stab), (C.G0, error), (full, full)):
        ring.mul_transpose(A, B)
    assert chosen == ["_pair_product", "_dense_product", "_dense_product"]


@pytest.mark.parametrize("d", [2, 6])
def test_verify_code_by_pairs_matches_pairwise_on_triangle_13(d):
    _, C = with_code(colex.triangle_lattice(13), d)
    assert code.verify_code(C).to_dict() == pairwise_verify_code(C)
    # negative control: one entry of Z row 5 raised where X row 0 acts
    q = int(np.flatnonzero(C.G0.array[0])[0])
    z = C.z_stab.array.copy()
    z[5, q] += 1
    bad = dataclasses.replace(C, z_stab=ring.ResidueMatrix(d, z))
    rep = code.verify_code(bad).to_dict()
    assert rep == pairwise_verify_code(bad)
    witness = rep["checks"][0]["witness"]
    assert not rep["ok"] and {"pair": [0, C.G0.nrows + 5], "phase": int(C.G0.array[0, q])} in witness
