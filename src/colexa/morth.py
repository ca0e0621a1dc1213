"""m*-orthogonality of star-signed code matrices.

The strong form works in ordinary integer arithmetic on canonical
representatives in [0, d), so verdicts are independent of d whenever the
matrix entries are; the weak form reduces weights mod d.  Row multisets are
taken with repetition, and the report carries every offending multiset.
Their weights come from one kernel, offenders: circle products of the
(m-1)-multisets by a product recurrence, in blocks of at most
ring.BLOCK_ROWS rows, and one exact integer matrix product per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import ring
from .code import DEFAULT_CAP, CapExceeded
from .reports import Report


@dataclass(frozen=True)
class StarSignedMatrix:
    """A code matrix G together with the +-1 column signs of F."""

    G: ring.ResidueMatrix
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != self.G.ncols:
            raise ValueError("signs length must equal column count")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")


def is_m_star_orthogonal(M: StarSignedMatrix, g1_rows, m: int, mode: str = "strong",
                         cap: int = DEFAULT_CAP) -> Report:
    """Check the order-m orthogonality condition with full witness output.

    Multisets of m rows must have signed circle-product weight 0, except m
    copies of a single G1 row, which must have weight 1.  Strong mode
    compares integers; weak mode compares residues mod d.  The C(r+m-1, m)
    multisets, m row indices each, are charged to the cap as count * m before
    anything is built, and weighed by offenders.  The witness lists every
    offending (multiset, weight) in lexicographic order; the report counts
    the multisets checked.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    count = math.comb(M.G.nrows + m - 1, m)
    if count * m > cap:
        raise CapExceeded(f"m={m} needs {count} row multisets of m rows: {count * m} > cap {cap}")
    witnesses = []
    found = list(offenders(M, g1_rows, (m,), mode))
    if found:
        rows, weights = found[0]
        if len(found) > 1:  # each batch is in order, but batches interleave
            rows, weights = map(np.concatenate, zip(*found))
            order = np.lexsort(rows.T[::-1])
            rows, weights = rows[order], weights[order]
        witnesses = list(zip(map(tuple, rows.tolist()), weights.tolist()))
    return Report("m-star-orthogonality", not witnesses, count, witnesses or None)


def offenders(M: StarSignedMatrix, g1_rows, degrees, mode: str) -> Iterator[tuple]:
    """(multisets, weights) of the row multisets of each degree m in degrees
    that break the order-m condition (see is_m_star_orthogonal), at most
    ring.BLOCK_ROWS at a time, each batch in lexicographic order though
    batches interleave; nothing is charged to the cap.

    The m-multiset (i, q) with i <= first(q) weighs sum_j sigma_j G_ij Q_qj,
    where Q_q is the circle product of the (m-1)-multiset q, so each block Q
    of those products gives the weights of every m-multiset it ends in one
    exact integer product (G o sigma) Q^T, keeping the entries with
    i <= first(q).  A weight is at most ncols * (d-1)^m, so it is computed in
    int64 when that fits and in Python ints otherwise.
    """
    r, n, d = M.G.nrows, M.G.ncols, M.G.modulus
    # (d-1)^m >= 2^63 once m >= 63 and d > 2, so m is clipped there
    dtype = ring.exact_dtype(n * (d - 1) ** min(max(degrees, default=1), 63))
    G = M.G.array.astype(dtype)
    signed = G * np.array(M.signs, dtype=dtype)
    heads, limit = np.arange(r)[:, None], ring.BLOCK_ROWS
    g1 = frozenset(g1_rows)
    in_g1 = np.array([[i in g1] for i in range(r)], dtype=bool).reshape(r, 1)
    for m in degrees:
        for first, counts, Q in _product_blocks(G, m - 1):
            # first rows come in order, so no row past the last one begins
            # an m-multiset here
            top = first[-1] + 1
            W = signed[:top] @ Q.T
            keep = heads[:top] <= first
            # (i, q) is m copies of row i when q holds m - 1 copies of it
            expect = in_g1[:top] & (counts[:, :top].T == m - 1)
            bad = keep & ((W - expect) % d != 0 if mode == "weak" else W != expect)
            rows, cols = bad.nonzero()
            # each tail read off its r row counts, in order
            for lo in range(0, len(rows), limit):
                i, q = rows[lo:lo + limit], cols[lo:lo + limit]
                tails = np.arange(len(q) * r).repeat(counts.take(q, 0).ravel()) % r
                yield np.concatenate((i[:, None], tails.reshape(len(q), m - 1)), 1), W[i, q]


def _product_blocks(G: np.ndarray, k: int) -> Iterator[tuple]:
    """(first rows, row counts, circle products) of the k-multisets of the
    rows of G, in lexicographic order, in blocks of at most ring.BLOCK_ROWS
    rows each.  A multiset is kept as its r row counts, which sum to k, so
    no array grows with k.

    A task (counts and product of a prefix, k, a, b) stands for the
    multisets prefix + (i,) + t with a <= i < b and t a (k-1)-multiset of
    the rows from i on.  One that fits a block is built level by level from
    the rows from a on (_prepend), no level larger than it; one that does
    not is split by its first row i into runs of rows that fit together and
    single rows that become tasks of their own, with i moved into the prefix.
    """
    r, n = G.shape
    if k == 0:  # the empty multiset, first after every row
        yield np.full(1, r), np.zeros((1, r), dtype=np.uint8), np.ones((1, n), dtype=G.dtype)
        return
    unit, limit = np.eye(r, dtype=np.min_scalar_type(k)), ring.BLOCK_ROWS

    def size(k, a, b):  # k-multisets whose first row is in [a, b)
        return math.comb(r - a + k - 1, k) - math.comb(r - b + k - 1, k)

    tasks = [(None, None, k, 0, r)] if r else []
    while tasks:
        base, scale, k, a, b = tasks.pop()
        if size(k, a, b) <= limit:
            end = b if k == 1 else r
            head, counts, prod = np.arange(a, end), unit[a:end], G[a:end]
            for level in range(2, k + 1):
                head, tail = _prepend(head, a, b if level == k else r)
                counts = unit.take(head, 0) + counts.take(tail, 0)
                prod = G.take(head, 0) * prod.take(tail, 0)
            if base is not None:
                head = np.full(len(head), base.nonzero()[0][0])
                counts, prod = counts + base, prod * scale
            yield head, counts, prod
            continue
        split = []
        while a < b:
            end = a + 1
            while end < b and size(k, a, end + 1) <= limit:
                end += 1
            if size(k, a, end) <= limit:
                split.append((base, scale, k, a, end))
            elif base is None:
                split.append((unit[a], G[a], k - 1, a, r))
            else:
                split.append((base + unit[a], scale * G[a], k - 1, a, r))
            a = end
        tasks += reversed(split)


def _prepend(first: np.ndarray, a: int, b: int) -> tuple:
    """The multisets (i,) + t, a <= i < b, in lexicographic order, where t
    is any of a lexicographic list of multisets, whose first rows are first,
    that starts with a row >= i: (head, tail) holds each one's i and the
    position of its t in the list."""
    heads = np.arange(a, b)
    lengths = len(first) - first.searchsorted(heads)
    head = heads.repeat(lengths)
    # the tails of each head are the last lengths multisets
    tail = np.arange(len(head)) + (len(first) - lengths.cumsum()).repeat(lengths)
    return head, tail


def max_m_star(M: StarSignedMatrix, g1_rows, mode: str = "strong", m_cap: int = 8) -> int:
    """Largest m <= m_cap at which the condition holds; 0 if none."""
    best = 0
    for m in range(1, m_cap + 1):
        if is_m_star_orthogonal(M, g1_rows, m, mode).ok:
            best = m
    return best


def code_matrix(C) -> tuple:
    """(StarSignedMatrix, g1 row index set) for a ColorCode, G1 rows first."""
    M = StarSignedMatrix(C.encoding(), C.star_signs)
    return M, frozenset(range(C.G1.nrows))
