"""ring: exact Z_N linear algebra, checked against exhaustive oracles."""


import pytest
from hypothesis import given, settings, strategies as st

from colexa import ring
from oracles import brute_kernel, brute_span


def rmat(N, rows):
    return ring.ResidueMatrix(N, tuple(tuple(r) for r in rows))


def test_mat_vec_mul_row_selection():
    M = rmat(3, [[1, 1, 1], [0, 1, 2]])
    assert ring.mat_vec_mul(M, (1, 0)).entries == (1, 1, 1)


def test_mat_vec_mul_hand_arithmetic():
    M = rmat(3, [[1, 1, 1], [0, 1, 2]])
    assert ring.mat_vec_mul(M, (1, 1)).entries == (1, 2, 0)


def test_mat_vec_mul_zero_input():
    M = rmat(7, [[3, 1], [2, 5], [0, 6]])
    assert ring.mat_vec_mul(M, (0, 0, 0)).is_zero()


def test_mat_vec_mul_shape_error():
    M = rmat(3, [[1, 2]])
    with pytest.raises(ValueError):
        ring.mat_vec_mul(M, (1, 0))


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
    assert ring.is_injective_encoding(rmat(3, [[0, 1, 2]]), rmat(3, [[1, 1, 1]]))
    assert not ring.is_injective_encoding(rmat(4, [[2, 2]]), rmat(4, [[1, 1]]))


def test_smith_normal_form_transforms():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, S, V, diag = ring.smith_normal_form(A)
    # U A V must reproduce S exactly over the integers
    import numpy as np

    assert (np.array(U) @ np.array(A) @ np.array(V) == np.array(S)).all()
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert b % a == 0


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
        assert ring.mat_vec_mul(M, g).is_zero()
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
    sol = ring.solve_left(M, w)
    if tuple(w) in brute_span(rows, N):
        assert sol is not None
        assert ring.mat_vec_mul(M, sol.entries).entries == tuple(w)
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
        for a, b in zip(ring.mat_vec_mul(M, u).entries, ring.mat_vec_mul(M, v).entries)
    )
    assert lhs.entries == rhs


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
        sol = ring.solve_left(M, w)
        assert (sol is not None) == (w in span) == ring.in_rowspan(M, w)
        if sol is not None:
            assert ring.mat_vec_mul(M, sol.entries).entries == w


@settings(max_examples=40, deadline=None)
@given(N=COMPOSITE, data=st.data())
def test_composite_second_call_equals_first(N, data):
    M = draw_matrix(data, N, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    w = tuple(data.draw(st.integers(0, N - 1)) for _ in range(M.ncols))
    first = (ring.kernel_mod(M), ring.solve_left(M, w), ring.row_basis(M),
             ring.span_orders(M), list(ring.iter_span(M)))
    second = (ring.kernel_mod(M), ring.solve_left(M, w), ring.row_basis(M),
              ring.span_orders(M), list(ring.iter_span(M)))
    fresh = rmat(N, M.rows)
    third = (ring.kernel_mod(fresh), ring.solve_left(fresh, w), ring.row_basis(fresh),
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


def test_parse_matrix_text():
    M = ring.parse_matrix_text("1 2 3\n4 5 6  # comment\n", 4)
    assert M.rows == ((1, 2, 3), (0, 1, 2))
