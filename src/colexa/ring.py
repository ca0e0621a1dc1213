"""Exact linear algebra over the residue rings Z_N.

A matrix over Z_N (ResidueMatrix) is one 2-D numpy array of canonical
residues, which every layer reads as it is: its dtype holds every product of
a row with a canonical vector, int64 when that provably fits and Python
integers (dtype=object) otherwise, so such a product needs no cast and none
can overflow.  There is no floating point anywhere.  Factorizations work with
plain Python integers.  Whether a matrix's rows are independent is decided by
sparse elimination mod N, with no transforms and no factoring of N
(independent_rows), and the verdict is kept on the matrix.  This module
alone chooses between the two factorizations behind every other question.
A left kernel (kernel_mod) at prime N, decided by deterministic
Miller-Rabin (is_prime), is one Gaussian elimination on an array
(echelon_mod_p), which gives the reduced echelon form and its transform; at
any other N it is read off an integer Smith normal form with unimodular
transform tracking.  That Smith form skips only work that cannot change its
result (no divisibility scan at unit pivots, column operations only on the
rows they change), so its U, S and V are those of the plain elimination.
Each `ResidueMatrix` is Smith-factored at most once: the Smith form is
computed on first use and kept on the matrix (and, transposed, on its
transpose), and its row basis and span orders are answered from it.  Span
membership, at every N, is one product with a check matrix kept on the
matrix (span_check): over Z_N a row span is exactly the annihilator of its
right kernel.  Span enumeration keeps one inner block per matrix (at most
BLOCK_ROWS x ncols entries, built when first asked, with BLOCK_ROWS as it is
then), and every coset is a shift of it; blocks use the narrowest unsigned
dtype holding 2(N-1), reduced with no division, or Python ints past 2^63.
A product A B^T (mul_transpose) is numpy's dense integer matmul or, where
counting says it is less work, one multiply-add per pair of nonzero entries
sharing a column, as incidence matrices are sparse.
"""

from __future__ import annotations

import operator
from math import gcd, prod
from typing import Iterator, Sequence

import numpy as np


class ResidueMatrix:
    """A matrix over Z_N: one read-only 2-D numpy array of canonical
    residues in [0, N), which keeps its shape with no rows.  Its dtype,
    exact_dtype(max(N, ncols (N-1)^2)), holds N and the product of a row with
    any canonical vector: int64 when that fits, Python ints (object)
    otherwise.  Built from an integer array or from rows of integers, each
    entry reduced exactly, as int(e) % N.  Equality and hash are by
    (modulus, rows)."""

    def __init__(self, modulus: int, array):
        N = modulus
        if N < 2:
            raise ValueError("modulus must be >= 2")
        if isinstance(array, np.ndarray):
            m, n = array.shape
        else:
            array = [[int(e) % N for e in row] for row in array]
            m, n = len(array), len(array[0]) if array else 0
            if any(len(r) != n for r in array):
                raise ValueError("ragged rows")
        dtype = exact_dtype(max(N, n * (N - 1) ** 2))
        # Python ints may not fit dtype until reduced; a narrow integer dtype
        # may not hold N until cast
        if isinstance(array, list):
            a = np.array(array, dtype=dtype).reshape(m, n)
        elif array.dtype == object:
            a = (array % N).astype(dtype, copy=False)
        else:
            a = array.astype(dtype, copy=False) % N
        a.setflags(write=False)
        self.modulus, self.array = N, a

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as tuples of Python ints, built on each access."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueMatrix):
            return NotImplemented
        return (self.modulus, self.rows) == (other.modulus, other.rows)

    def __hash__(self) -> int:
        return hash((self.modulus, self.rows))

    def __repr__(self) -> str:
        return f"ResidueMatrix({self.modulus}, {self.rows})"

    def transpose(self) -> "ResidueMatrix":
        """M^T, which keeps M's Smith form transposed, if M keeps one:
        U M V = S gives V^T M^T U^T = S^T."""
        T = ResidueMatrix(self.modulus, self.array.T)
        if "_snf" in self.__dict__:
            U, V, diag = self._snf
            T._snf = (np.array(V, dtype=object).reshape(len(V), len(V)).T, U.T.tolist(), diag)
        return T

    def _factor(self):
        """(U, V, diag) of smith_normal_form(self.array), computed on first
        use, with U as a 2-D array of Python ints (dtype=object) and V as the
        Smith form's lists; V is ncols x ncols even with no rows."""
        if "_snf" not in self.__dict__:
            U, _S, V, diag = smith_normal_form(self.array)
            self._snf = (np.array(U, dtype=object).reshape(len(U), len(U)), V, diag)
        return self._snf


def mat_vec_mul(M: ResidueMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """Left action row-vector times matrix: v @ M over Z_N, as canonical
    residues."""
    if len(v) != M.nrows:
        raise ValueError("length of v must equal number of rows of M")
    # v's dtype holds a sum of M.nrows products of residues
    c = ResidueMatrix(M.modulus, (v,)).array
    return tuple((c @ M.array.astype(c.dtype, copy=False) % M.modulus)[0].tolist())


def smith_normal_form(A: np.ndarray | Sequence[Sequence[int]]):
    """Integer Smith normal form with transforms: returns (U, S, V, diag).

    U and V are unimodular integer matrices with U @ A @ V == S, where S is
    diagonal with divisibility d1 | d2 | ... .  A, a 2-D integer array or a
    sequence of rows, is copied as Python ints, never changed, and all
    arithmetic is exact.  The column count is an array's shape[1], so an
    array with no rows still gets an ncols x ncols V; rows of a sequence
    give it.  diag is the list of diagonal entries of S (length
    min(nrows, ncols)).

    Two steps skip work that cannot change the result.  The scan that makes
    d_t divide every remaining entry runs only when |d_t| > 1: every integer
    is a multiple of a unit.  A column operation col_j -= q * col_t adds zero
    to every row whose column-t entry is zero, so it visits only the rows of
    S and V that are nonzero in column t; column t itself does not change
    while row t is cleared, so that row list is built once per step.
    """
    array = isinstance(A, np.ndarray)
    S = [list(map(operator.index, row)) for row in (A.tolist() if array else A)]
    m = len(S)
    n = A.shape[1] if array else len(S[0]) if S else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(M, i, j):
        M[i], M[j] = M[j], M[i]

    def swap_cols(M, i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    def add_row(M, dst, src, c):
        M[dst] = [a + c * b for a, b in zip(M[dst], M[src])]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(S, t)
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
        p = S[t][t]
        dirty = False
        for i in range(t + 1, m):
            if S[i][t] != 0:
                q = S[i][t] // p
                add_row(S, i, t, -q)
                add_row(U, i, t, -q)
                if S[i][t] != 0:
                    dirty = True
        touched = [row for row in S if row[t]] + [row for row in V if row[t]]
        pivot_row = S[t]
        for j in range(t + 1, n):
            if pivot_row[j] != 0:
                q = pivot_row[j] // p
                for row in touched:
                    row[j] -= q * row[t]
                if pivot_row[j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | every remaining entry
        bad = None
        if abs(p) != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % p != 0:
                        bad = (i, j)
                        break
                if bad:
                    break
        if bad is not None:
            add_row(S, t, bad[0], 1)
            add_row(U, t, bad[0], 1)
            continue
        if p < 0:
            S[t] = [-e for e in S[t]]
            U[t] = [-e for e in U[t]]
        t += 1

    diag = [S[i][i] for i in range(min(m, n))]
    return U, S, V, diag


def _find_pivot(S, t: int):
    """(i, j) of the first smallest nonzero |entry| of S[t:, t:] in row-major
    order, or None.  The scan stops at the first unit: nothing is smaller."""
    piv = None
    best = None
    for i in range(t, len(S)):
        row = S[i]
        for j in range(t, len(row)):
            e = row[j]
            if e != 0 and (best is None or abs(e) < best):
                best = abs(e)
                piv = (i, j)
                if best == 1:
                    return piv
    return piv


def independent_rows(M: ResidueMatrix) -> bool:
    """Whether M has trivial left kernel over Z_N, decided once and kept on M.

    Rows are independent over Z_N exactly when they are independent over F_p
    for every prime p | N, and elimination on unit pivots is elimination mod
    every such p at once; so no transform is built and N is never factored.
    More rows than columns are dependent at once.
    """
    if "_independent" not in M.__dict__:
        M._independent = M.nrows <= M.ncols and _eliminate(M.array.tolist(), M.modulus)
    return M._independent


def _eliminate(rows, N: int) -> bool:
    """Whether rows are independent over Z_N, by sparse elimination mod N.

    Each row, kept as {col: residue}, is reduced against the earlier pivot
    rows in order, so it ends with no entry in a pivot column; its first unit
    entry, scaled to 1, makes the next pivot, and an empty row is a
    dependence.  A row whose entries are all zero divisors exposes a factor
    g = gcd(a, N): the verdict is then the one mod g and mod N/g, whose
    primes together are those of N.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: e % N for j, e in enumerate(row) if e % N}
        for c, p in pivots.items():
            a = r.get(c)
            if a:
                for j, e in p.items():
                    v = (r.get(j, 0) - a * e) % N
                    if v:
                        r[j] = v
                    else:
                        r.pop(j, None)
        if not r:
            return False
        c = next((j for j, e in r.items() if gcd(e, N) == 1), None)
        if c is None:
            g = gcd(next(iter(r.values())), N)
            return _eliminate(rows, g) and _eliminate(rows, N // g)
        inv = pow(r[c], -1, N)
        pivots[c] = {j: e * inv % N for j, e in r.items()}
    return True


def echelon_mod_p(A: np.ndarray, p: int):
    """Reduced row echelon form of an integer array over F_p, p prime, with
    its transform: (R, T, pivots), T invertible and T @ A == R mod p.  Row
    i < len(pivots) of R has its leading 1 in column pivots[i], the only
    nonzero entry there; the other rows are zero, so those rows of T span
    the left kernel.  One elimination on [A | I] until every row holds a
    pivot, each pivot updating only the rows nonzero in its column, from that
    column on; entries stay below p^2 (int64 while 2p^2 fits, else objects)."""
    m, n = A.shape
    dtype = exact_dtype(2 * p * p)
    M = np.hstack([np.asarray(A, dtype=dtype) % p, np.eye(m, dtype=dtype)])
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        hits = M[r:, col].nonzero()[0]
        if not hits.size:
            continue
        if hits[0]:
            M[[r, r + hits[0]]] = M[[r + hits[0], r]]
        if M[r, col] != 1:
            M[r, col:] = M[r, col:] * pow(int(M[r, col]), -1, p) % p
        rows = M[:, col].nonzero()[0]
        rows = rows[rows != r]
        M[rows, col:] = (M[rows, col:] - M[rows, col, None] * M[r, col:]) % p
        pivots.append(col)
    return M[:, :n], M[:, n:], pivots


# Miller-Rabin with the first 13 prime bases decides every N below this bound
# exactly (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(d: int) -> bool:
    """Whether d is prime, by deterministic Miller-Rabin; d at or above
    PRIME_BOUND raises ValueError, since no base set is proven there."""
    if d >= PRIME_BOUND:
        raise ValueError("tableau simulation supports prime d < 3.3e24")
    if d < 2 or any(d % p == 0 for p in _PRIME_BASES):
        return d in _PRIME_BASES
    s, t = 0, d - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _PRIME_BASES:
        x = pow(a, t, d)
        if x in (1, d - 1):
            continue
        for _ in range(s - 1):
            x = x * x % d
            if x == d - 1:
                break
        else:
            return False
    return True


def kernel_mod(M: ResidueMatrix) -> ResidueMatrix:
    """Generators of the left kernel {v : v @ M == 0 mod N}, as rows.

    At prime N (below PRIME_BOUND) they are the rows of the echelon
    transform past the rank, a basis; otherwise they are read off the Smith
    form kept on M, and need not be minimal but together generate the
    kernel exactly.  Zero generators are dropped.
    """
    N = M.modulus
    if N < PRIME_BOUND and is_prime(N):
        _R, T, pivots = echelon_mod_p(M.array, N)
        return ResidueMatrix(N, T[len(pivots):])
    U, _V, diag = M._factor()
    # row i of U M is diag[i] times a primitive row, so N / gcd(diag[i], N)
    # times row i of U is in the kernel; gcd 1 gives nothing
    mult = np.array([N // gcd(diag[i] if i < len(diag) else 0, N)
                     for i in range(M.nrows)], dtype=object)
    keep = mult < N
    K = U[keep] * mult[keep, None] % N
    return ResidueMatrix(N, K[(K != 0).any(axis=1)])


def row_basis(M: ResidueMatrix) -> ResidueMatrix:
    """A free-enumeration generating set for the row span of M.

    Returns rows g_1..g_r such that every span element is y_1 g_1 + ... +
    y_r g_r for exactly one tuple with 0 <= y_i < span_orders(M)[i].
    """
    N = M.modulus
    U, _V, diag = M._factor()
    # U @ M == S @ V^{-1}, so row i of U @ M is diag[i] times the primitive
    # row i of the unimodular V^{-1}; it vanishes mod N only when N | diag[i]
    # gens has width M.nrows, so its dtype holds a sum of M.nrows products
    gens = ResidueMatrix(N, U[[i for i, d in enumerate(diag) if d % N]]).array
    return ResidueMatrix(N, gens @ M.array.astype(gens.dtype, copy=False) % N)


def span_orders(M: ResidueMatrix) -> list[int]:
    """Orders of the free-enumeration generators returned by row_basis."""
    N = M.modulus
    _U, _V, diag = M._factor()
    return [o for o in (N // gcd(d, N) for d in diag) if o > 1]


def span_size(M: ResidueMatrix) -> int:
    """Cardinality of the Z_N-row-span of M."""
    return prod(span_orders(M))


# rows per enumeration block: bounds the memory of every blocked loop
BLOCK_ROWS = 1 << 12


def exact_dtype(bound: int):
    """The numpy dtype for exact integers that never exceed bound: int64
    when bound < 2^63, Python integers (dtype=object) otherwise."""
    return np.int64 if bound < 2**63 else object


def span_blocks(M: ResidueMatrix, offset=None) -> Iterator[np.ndarray]:
    """offset + rowspan(M), as 2-D arrays of at most BLOCK_ROWS rows each.

    Rows come in iter_span order: y_1 g_1 + ... + y_r g_r over the
    row_basis generators, 0 <= y_i < span_orders(M)[i], first generator
    outermost.  The trailing generators span one inner block, of at most
    BLOCK_ROWS x ncols entries, built on first use (BLOCK_ROWS is read then)
    and kept on M, read-only, with the generators, orders and split; each
    yielded block is a fresh array, that block shifted by the offset and by
    one combination of the leading generators, taken by an odometer.  An
    offset has ncols entries (else ValueError at the first block) unless M
    has no rows: M then spans {0} at the offset's width.  Only two residues
    are ever added, so blocks have dtype np.min_scalar_type(2(N-1)): uint8
    for N <= 128, then uint16, uint32 or uint64, and Python ints (object)
    for N > 2^63.  An unsigned sum s <= 2N - 2 is reduced with no division
    as min(s, s - N): s - N wraps above s exactly when s < N.  Object blocks
    are reduced by % N.
    """
    N = M.modulus
    n = M.ncols if offset is None else len(offset)
    if M.nrows and n != M.ncols:
        raise ValueError(f"offset has {n} entries, not ncols = {M.ncols}")
    if not M.nrows or "_span" not in M.__dict__:
        dtype = np.min_scalar_type(2 * (N - 1))
        gens = row_basis(M).array.astype(dtype)
        orders = span_orders(M)
        split, size = len(orders), 1
        while split and size * orders[split - 1] <= BLOCK_ROWS:
            split -= 1
            size *= orders[split]
        inner = np.zeros((1, n), dtype=dtype)
        for g, o in zip(gens[split:], orders[split:]):
            multiples = np.zeros((o, n), dtype=dtype)
            for c in range(1, o):
                multiples[c] = (multiples[c - 1] + g) % N
            inner = ((inner[:, None, :] + multiples[None, :, :]) % N).reshape(-1, n)
        gens.setflags(write=False), inner.setflags(write=False)
        M._span = gens, orders, split, inner
    gens, orders, split, inner = M._span
    top = None if inner.dtype == object else inner.dtype.type(N)
    shift = np.zeros(n, dtype=inner.dtype)
    if offset is not None:
        shift += np.array([int(e) % N for e in offset], dtype=inner.dtype)
    counts = [0] * split
    while True:
        s = inner + shift
        yield s % N if top is None else np.minimum(s, s - top, out=s)
        # next combination of the leading generators, the last one fastest;
        # orders[i] * g_i == 0 mod N, so a digit rolling over restores shift
        i = split - 1
        while i >= 0:
            shift = (shift + gens[i]) % N
            counts[i] += 1
            if counts[i] < orders[i]:
                break
            counts[i] = 0
            i -= 1
        if i < 0:
            return


def iter_span(M: ResidueMatrix, offset=None) -> Iterator[tuple[int, ...]]:
    """Iterate every element of offset + rowspan(M) exactly once, as tuples
    of canonical residues in span_blocks order.  The blocks are unsigned
    (the narrowest dtype holding 2(N-1), reduced mod N with no division) or
    Python ints for N > 2^63; either way the tuples hold Python ints."""
    for block in span_blocks(M, offset):
        yield from map(tuple, block.tolist())


def span_check(M: ResidueMatrix) -> np.ndarray:
    """A check matrix of rowspan(M): H such that a row vector w lies in the
    span iff w @ H == 0 mod N.

    Over Z_N a row span is exactly what annihilates the right kernel (the
    double-annihilator property of Frobenius rings), so H is
    kernel_mod(M^T)^T, computed on first use and kept on M; at composite N
    it reads M's Smith form, which M^T keeps, if M was factored.  That
    kernel has M's width, so H has M's dtype, which holds w @ H for
    canonical w.  A matrix with no rows spans {0}: H is then the identity.
    """
    if "_check" not in M.__dict__:
        M._check = kernel_mod(M.transpose()).array.T
    return M._check


def mul_transpose(A: ResidueMatrix, B: ResidueMatrix) -> np.ndarray:
    """A @ B^T mod N as an exact integer array: entry [i, j] is A_i . B_j.

    Both arrays are read as they are: a matrix's dtype holds the product of
    one of its rows with any canonical vector of its width, so it holds every
    sum either method makes, and the result has that dtype.  The method is
    the one with less counted work: the dense product makes r_A r_B n
    multiply-adds; the pair product (_pair_product) one per pair of nonzero
    entries A[i, q], B[j, q], sum_q nnz(A[:, q]) nnz(B[:, q]), after one scan
    of both operands for their nonzero entries, which runs only when the
    dense work is past that scan and the pair product's fixed cost.
    """
    (ra, n), (rb, nb) = A.array.shape, B.array.shape
    if n != nb:
        raise ValueError("column counts differ")
    dense = ra * rb * n
    if dense > _PAIR_SETUP + _SCAN * (ra + rb) * n:
        columns = _by_column(A.array), _by_column(B.array)
        if _PAIR * int(columns[0][3] @ columns[1][3]) < dense:
            return _pair_product(A, B, columns)
    return _dense_product(A, B)


# The work rule's costs, in dense int64 multiply-adds (0.52-0.56 ns each in
# numpy's integer matmul, which has no BLAS kernel, on shapes from 234 x 1 x
# 469 to 1000 x 255 x 1000), timed as the best of 7 runs on one core of a
# 2-vCPU x86-64 machine with numpy 2.4: _PAIR_SETUP is the pair product's
# fixed cost (38 us on 1 x 1 operands with one pair), _SCAN that of scanning
# one entry for being nonzero (0.9-2.0 ns, from 234 x 469 to 2000 x 2000)
# and _PAIR that of one pair (16 ns at 165 k pairs, 7 ns at 2.5 M, on
# random 400 x 400 operands).  On Python ints (object arrays, 120 x 120 at
# N = 2^64 + 13) a dense multiply-add takes 17-58 ns, a scanned entry 13-49
# ns and a pair 190-280 ns: a pair is worth fewer than 32 multiply-adds
# there too, so the rule picks pairs for them only where pairs are faster.
_PAIR_SETUP = 1 << 16
_SCAN = 3
_PAIR = 32
# pairs made at once by _pair_product: bounds its transient arrays (a few
# words per pair) whatever the operands' density
_PAIR_CHUNK = 1 << 16


def _dense_product(A: ResidueMatrix, B: ResidueMatrix) -> np.ndarray:
    """A @ B^T mod N by numpy's integer matmul, in A's dtype."""
    return A.array @ B.array.T % A.modulus


def _by_column(a: np.ndarray) -> tuple:
    """(rows, cols, values, counts) of the nonzero entries of a, sorted by
    column and, within one, by row, with counts[q] those in column q."""
    flat = np.flatnonzero(a != 0)
    rows, cols = np.divmod(flat, a.shape[1])
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    return rows, cols, a[rows, cols], np.bincount(cols, minlength=a.shape[1])


def _pair_product(A: ResidueMatrix, B: ResidueMatrix, columns=None) -> np.ndarray:
    """A @ B^T mod N by nonzero pairs (Gustavson, ACM TOMS 4, 250, 1978):
    every A[i, q] B[j, q] with both nonzero, in A's dtype, summed into entry
    [i, j] by np.add.at, then reduced mod N; integers only.  The pairs of
    each nonzero A[i, q] with B's column q are made in chunks of at most
    _PAIR_CHUNK pairs, or of one entry's pairs where it has more.  columns,
    when given, is (_by_column(A.array), _by_column(B.array))."""
    ai, aq, av, _ = _by_column(A.array) if columns is None else columns[0]
    bj, _, bv, bcount = _by_column(B.array) if columns is None else columns[1]
    rb = B.nrows
    out = np.zeros(A.nrows * rb, dtype=A.array.dtype)
    # A's entry k pairs with B's entries first[k] .. first[k] + reps[k] - 1
    reps, first = bcount[aq], (np.cumsum(bcount) - bcount)[aq]
    ends = np.cumsum(reps)
    k = 0
    while k < len(reps):
        done = ends[k - 1] if k else 0
        stop = max(int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")), k + 1)
        r = reps[k:stop]
        m = int(ends[stop - 1] - done)
        # the chunk's pair p, made by entry k', is B's entry first[k'] + p
        # less the chunk's pairs made before k'
        jj = np.arange(m) + np.repeat(first[k:stop] - (ends[k:stop] - r - done), r)
        np.add.at(out, np.repeat(ai[k:stop] * rb, r) + bj[jj], np.repeat(av[k:stop], r) * bv[jj])
        k = stop
    return (out % A.modulus).reshape(A.nrows, rb)
