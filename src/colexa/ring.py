"""Exact linear algebra over the residue rings Z_N.

Factorizations work with plain Python integers, so there is no
modulus that can overflow and no floating point anywhere.  Whether a matrix's
rows are independent is decided by sparse elimination mod N, with no
transforms and no factoring of N (independent_rows), and the verdict is kept
on the matrix.  Every other question goes to an integer Smith normal form with
unimodular transform tracking; it skips only work that cannot change its
result (no divisibility scan at unit pivots, column operations only on the
rows they change), so its U, S and V are those of the plain elimination.
Each `ResidueMatrix` is factored at most once: the factorization is computed
on first use and kept on the matrix, and its kernel, row span, span
enumeration and span membership over Z_N, for arbitrary (not necessarily
prime) N, are answered from that one factorization; no question needs a
particular solution x of x M = w.  Over F_p, p prime,
one Gaussian elimination on an array (echelon_mod_p) gives the reduced
echelon form and its transform, with no Smith form.  Bulk work (batched span
membership, matrix products) runs on numpy integer arrays: int64 when every
intermediate value provably fits, Python integers (dtype=object) otherwise.
Span enumeration adds only two residues at a time, so its blocks use the
narrowest unsigned dtype that holds 2(N-1) and are reduced mod N with no
division; for N > 2^63, where 2(N-1) passes 2^64 - 1, they are Python
integers reduced by %.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class ResidueMatrix:
    """A matrix over Z_N, stored row-major with canonical representatives."""

    modulus: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        rows = tuple(
            tuple(int(e) % self.modulus for e in row) for row in self.rows
        )
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "ResidueMatrix":
        return _canonical(self.modulus, tuple(zip(*self.rows)))

    def _factor(self):
        """(U, V, diag) of smith_normal_form(self.rows), computed on first use."""
        f = self.__dict__.get("_snf")
        if f is None:
            U, _S, V, diag = smith_normal_form(_IntRows(self.rows))
            f = (U, V, diag)
            object.__setattr__(self, "_snf", f)
        return f


def _canonical(N: int, rows: tuple) -> ResidueMatrix:
    """ResidueMatrix(N, rows) for rows already canonical, taken as they are."""
    M = object.__new__(ResidueMatrix)
    M.__dict__.update(modulus=N, rows=rows)
    return M


class _IntRows(tuple):
    """Rows of Python ints (ResidueMatrix rows): copied without int() each."""


def mat_vec_mul(M: ResidueMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """Left action row-vector times matrix: v @ M over Z_N, as canonical
    residues."""
    if len(v) != M.nrows:
        raise ValueError("length of v must equal number of rows of M")
    return _combine(M.rows, v, M.modulus, M.ncols)


def _combine(rows, v: Sequence[int], N: int, ncols: int) -> tuple[int, ...]:
    """v @ rows over Z_N for integer rows, as canonical residues; zero
    coefficients cost nothing."""
    out = [0] * ncols
    for coeff, row in zip(v, rows):
        c = int(coeff) % N
        if c == 0:
            continue
        for j, e in enumerate(row):
            out[j] += c * e
    return tuple(e % N for e in out)


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Integer Smith normal form with transforms: returns (U, S, V, diag).

    U and V are unimodular integer matrices with U @ A @ V == S, where S is
    diagonal with divisibility d1 | d2 | ... .  A is copied as Python ints,
    never changed, and all arithmetic is exact.  diag is the list of
    diagonal entries of S (length min(nrows, ncols)).

    Two steps skip work that cannot change the result.  The scan that makes
    d_t divide every remaining entry runs only when |d_t| > 1: every integer
    is a multiple of a unit.  A column operation col_j -= q * col_t adds zero
    to every row whose column-t entry is zero, so it visits only the rows of
    S and V that are nonzero in column t; column t itself does not change
    while row t is cleared, so that row list is built once per step.
    """
    S = [list(row) if type(A) is _IntRows else [int(e) for e in row] for row in A]
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
    f = M.__dict__.get("_independent")
    if f is None:
        f = M.nrows <= M.ncols and _eliminate(M.rows, M.modulus)
        object.__setattr__(M, "_independent", f)
    return f


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
    the left kernel.  One elimination on [A | I], a pivot clearing its column
    in one array update; entries stay below p^2 in size (int64 while 2p^2
    fits, Python ints otherwise)."""
    m, n = A.shape
    dtype = exact_dtype(2 * p * p)
    M = np.hstack([np.asarray(A, dtype=dtype) % p, np.eye(m, dtype=dtype)])
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        hits = np.flatnonzero(M[r:, col])
        if not hits.size:
            continue
        M[[r, r + hits[0]]] = M[[r + hits[0], r]]
        M[r] = M[r] * pow(int(M[r, col]), -1, p) % p
        c = M[:, col].copy()
        c[r] = 0
        M = (M - c[:, None] * M[r]) % p
        pivots.append(col)
    return M[:, :n], M[:, n:], pivots


def kernel_mod(M: ResidueMatrix) -> ResidueMatrix:
    """Generators of the left kernel {v : v @ M == 0 mod N}, as rows.

    Returned generators need not be minimal but together they generate the
    kernel exactly.  Zero generators are dropped.
    """
    N = M.modulus
    U, _V, diag = M._factor()
    gens: list[tuple[int, ...]] = []
    for i, u in enumerate(U):
        d = diag[i] if i < len(diag) else 0
        mult = N // gcd(d, N) if d != 0 else 1
        if mult == N and d != 0:
            continue
        row = tuple((mult * e) % N for e in u)
        if any(row):
            gens.append(row)
    return ResidueMatrix(N, tuple(gens))


def row_basis(M: ResidueMatrix) -> ResidueMatrix:
    """A free-enumeration generating set for the row span of M.

    Returns rows g_1..g_r such that every span element is y_1 g_1 + ... +
    y_r g_r for exactly one tuple with 0 <= y_i < span_orders(M)[i].
    """
    N = M.modulus
    U, _V, diag = M._factor()
    # U @ M == S @ V^{-1}, so row i of U @ M is diag[i] times the primitive
    # row i of the unimodular V^{-1}; it vanishes mod N only when N | diag[i]
    gens = (mat_vec_mul(M, u) for u, d in zip(U, diag) if d != 0 and d % N != 0)
    return ResidueMatrix(N, tuple(gens))


def span_orders(M: ResidueMatrix) -> list[int]:
    """Orders of the free-enumeration generators returned by row_basis."""
    N = M.modulus
    _U, _V, diag = M._factor()
    orders = []
    for d in diag:
        if d == 0:
            continue
        order = N // gcd(d, N)
        if order > 1:
            orders.append(order)
    return orders


def span_size(M: ResidueMatrix) -> int:
    """Cardinality of the Z_N-row-span of M."""
    out = 1
    for o in span_orders(M):
        out *= o
    return out


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
    outermost.  The trailing generators span one inner block, built once;
    each yielded block is that inner block shifted by one combination of the
    leading generators, taken by an odometer.  Only two residues are ever
    added, so blocks have dtype np.min_scalar_type(2(N-1)): uint8 for
    N <= 128, then uint16, uint32 or uint64, and Python ints (object) for
    N > 2^63.  An unsigned sum s <= 2N - 2 is reduced with no division as
    min(s, s - N): s - N wraps above s exactly when s < N.  Object blocks
    are reduced by % N.
    """
    N = M.modulus
    n = M.ncols if offset is None else len(offset)
    dtype = np.min_scalar_type(2 * (N - 1))
    top = None if dtype == object else dtype.type(N)
    basis = row_basis(M).rows
    gens = np.array(basis, dtype=dtype).reshape(len(basis), n)
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
    shift = np.zeros(n, dtype=dtype)
    if offset is not None:
        shift += np.array([int(e) % N for e in offset], dtype=dtype)
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


def span_check(M: ResidueMatrix, ncols: int | None = None):
    """A check matrix of rowspan(M): (H, g) such that a row vector w lies in
    the span iff w @ H == 0 mod g, column by column.

    Read off the stored factorization: with T = w V, w is in the span iff
    T_j == 0 mod gcd(diag_j, N) in every column j, where diag_j = 0 past the
    diagonal (x M = w is then solvable).  Columns with gcd 1 constrain
    nothing and are dropped.  H is V mod N on the others, int64 when a product
    ncols * (N-1)^2 fits and Python ints otherwise.  ncols gives the width
    when M has no rows; the span is then {0}.
    """
    N = M.modulus
    n = M.ncols if M.rows else ncols
    dtype = exact_dtype(n * (N - 1) ** 2)
    if not M.rows:
        return np.eye(n, dtype=dtype), np.full(n, N, dtype=dtype)
    _U, V, diag = M._factor()
    g = [gcd(diag[j] if j < len(diag) else 0, N) for j in range(n)]
    keep = [j for j in range(n) if g[j] != 1]
    H = np.array([[V[i][j] % N for j in keep] for i in range(n)], dtype=dtype)
    return H.reshape(n, len(keep)), np.array([g[j] for j in keep], dtype=dtype)


def mul_transpose(A: ResidueMatrix, B: ResidueMatrix) -> np.ndarray:
    """A @ B^T mod N as an exact integer array: entry [i, j] is A_i . B_j.

    Entries are canonical, so a dot product is at most ncols * (N-1)^2; int64
    is used when that fits, Python integers (dtype=object) otherwise.
    """
    if A.rows and B.rows and A.ncols != B.ncols:
        raise ValueError("column counts differ")
    N = A.modulus
    n = A.ncols or B.ncols
    dtype = exact_dtype(n * (N - 1) ** 2)
    a = np.array(A.rows, dtype=dtype).reshape(A.nrows, n)
    b = np.array(B.rows, dtype=dtype).reshape(B.nrows, n)
    return (a @ b.T) % N
