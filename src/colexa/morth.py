"""m*-orthogonality of star-signed code matrices.

The strong form works in ordinary integer arithmetic on canonical
representatives in [0, d), so verdicts are independent of d whenever the
matrix entries are; the weak form reduces weights mod d.  Row multisets are
enumerated with repetition, and the report carries every offending multiset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    anything is built, and weighed in blocks, in lexicographic order; a
    weight is at most ncols * (d-1)^m, so it is computed in int64 when that
    fits and in Python ints otherwise.  The witness lists every offending
    (multiset, weight); the report counts the multisets checked.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    r, n, d = M.G.nrows, M.G.ncols, M.G.modulus
    count = math.comb(r + m - 1, m)
    if count * m > cap:
        raise CapExceeded(f"m={m} needs {count} row multisets of m rows: {count * m} > cap {cap}")
    # (d-1)^m >= 2^63 once m >= 63 and d > 2, so m is clipped there
    dtype = ring.exact_dtype(n * (d - 1) ** min(m, 63))
    G = M.G.array.astype(dtype)
    signs = np.array(M.signs, dtype=dtype)
    g1 = frozenset(g1_rows)
    in_g1 = np.array([i in g1 for i in range(r)], dtype=bool)
    witnesses = []
    multisets = itertools.combinations_with_replacement(range(r), m)
    while chunk := list(itertools.islice(multisets, ring.BLOCK_ROWS)):
        idx = np.array(chunk, dtype=np.intp)
        prod = G[idx[:, 0]]
        for k in range(1, m):
            prod = prod * G[idx[:, k]]
        w = prod @ signs
        expect = ((idx == idx[:, :1]).all(axis=1) & in_g1[idx[:, 0]]).astype(dtype)
        bad = (w - expect) % d != 0 if mode == "weak" else w != expect
        witnesses += [(chunk[i], int(w[i])) for i in np.flatnonzero(bad)]
    return Report("m-star-orthogonality", not witnesses, count, witnesses or None)


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
