"""m*-orthogonality of star-signed code matrices.

The strong form works in ordinary integer arithmetic on canonical
representatives in [0, d), so verdicts are independent of d whenever the
matrix entries are; the weak form reduces weights mod d.  Row multisets are
enumerated with repetition, and the report carries every offending multiset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ring
from .code import DEFAULT_CAP, CapExceeded


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


@dataclass
class OrthogonalityReport:
    m: int
    mode: str
    holds: bool
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "mode": self.mode,
            "holds": self.holds,
            "witnesses": [
                {"rows": list(rows), "weight": w} for rows, w in self.witnesses
            ],
        }


def is_m_star_orthogonal(M: StarSignedMatrix, g1_rows, m: int, mode: str = "strong",
                         cap: int = DEFAULT_CAP) -> OrthogonalityReport:
    """Check the order-m orthogonality condition with full witness output.

    Multisets of m rows must have signed circle-product weight 0, except m
    copies of a single G1 row, which must have weight 1.  Strong mode
    compares integers; weak mode compares residues mod d.  The C(r+m-1, m)
    multisets are charged to the cap and weighed in blocks, in lexicographic
    order; a weight is at most ncols * (d-1)^m, so it is computed in int64
    when that fits and in Python ints otherwise.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    r, n, d = M.G.nrows, M.G.ncols, M.G.modulus
    count = math.comb(r + m - 1, m)
    if count > cap:
        raise CapExceeded(f"m={m} needs {count} > cap {cap} row multisets")
    dtype = ring.exact_dtype(n * (d - 1) ** m)
    G = np.array(M.G.rows, dtype=dtype).reshape(r, n)
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
    return OrthogonalityReport(m=m, mode=mode, holds=not witnesses, witnesses=witnesses)


def max_m_star(M: StarSignedMatrix, g1_rows, mode: str = "strong", m_cap: int = 8) -> int:
    """Largest m <= m_cap at which the condition holds; 0 if none."""
    best = 0
    for m in range(1, m_cap + 1):
        if is_m_star_orthogonal(M, g1_rows, m, mode).holds:
            best = m
    return best


def code_matrix(C) -> tuple:
    """(StarSignedMatrix, g1 row index set) for a ColorCode, G1 rows first."""
    rows = C.G1.rows + C.G0.rows
    M = StarSignedMatrix(ring.ResidueMatrix(C.d, rows), C.star_signs)
    return M, frozenset(range(C.G1.nrows))
