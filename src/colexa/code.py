"""Qudit color codes: stabilizers, logicals, codewords, syndromes, distance.

Everything is symplectic: a Pauli word is a pair of exponent vectors mod d
plus an omega-power, and commutation questions reduce to an integer bilinear
form.  X generators sit on mu'-cells, Z generators on (mu-mu'+2)-cells with
the star signs folded into the exponents (starred vertices hold d-1 instead
of a separate conjugation channel).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ring
from .reports import ValidationReport, check_shape

DEFAULT_CAP = 10**7


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class PauliWord:
    """omega^phase_exp * X^x_exp * Z^z_exp on n qudits of dimension d."""

    d: int
    x_exp: tuple
    z_exp: tuple
    phase_exp: int = 0

    def __post_init__(self):
        if len(self.x_exp) != len(self.z_exp):
            raise ValueError("x and z exponent lengths differ")
        object.__setattr__(self, "x_exp", tuple(e % self.d for e in self.x_exp))
        object.__setattr__(self, "z_exp", tuple(e % self.d for e in self.z_exp))
        object.__setattr__(self, "phase_exp", self.phase_exp % self.d)

    @property
    def n(self) -> int:
        return len(self.x_exp)

    @classmethod
    def x_word(cls, d: int, exps) -> "PauliWord":
        exps = tuple(exps)
        return cls(d, exps, (0,) * len(exps))

    @classmethod
    def z_word(cls, d: int, exps) -> "PauliWord":
        exps = tuple(exps)
        return cls(d, (0,) * len(exps), exps)

    @classmethod
    def single(cls, d: int, n: int, site: int, kind: str, power: int = 1):
        """A one-site X^power or Z^power error."""
        x = [0] * n
        z = [0] * n
        if kind.upper() == "X":
            x[site] = power
        elif kind.upper() == "Z":
            z[site] = power
        else:
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return cls(d, tuple(x), tuple(z))


def symplectic_phase(A: PauliWord, B: PauliWord) -> int:
    """The c with A B = omega^c B A."""
    if A.d != B.d or A.n != B.n:
        raise ValueError("mismatched qudit count or dimension")
    total = sum(
        ax * bz - bx * az
        for ax, az, bx, bz in zip(A.x_exp, A.z_exp, B.x_exp, B.z_exp)
    )
    return total % A.d


@dataclass(frozen=True)
class ColorCode:
    """CSS color code data: G0 (X stabilizers), G1 (logical X), Z side."""

    d: int
    n: int
    star_signs: tuple  # +1 unstarred, -1 starred, per qudit
    G0: ring.ResidueMatrix
    G1: ring.ResidueMatrix
    z_stab: ring.ResidueMatrix  # sigma-signed exponent rows, one per generator
    z_logical: ring.ResidueVector

    @property
    def k(self) -> int:
        return self.G1.nrows

    def encoding(self) -> ring.ResidueMatrix:
        """[G1; G0], the map (x, y) -> x.G1 + y.G0; one instance per code, so
        every question about it reads one factorization."""
        M = self.__dict__.get("_encoding")
        if M is None:
            M = ring._canonical(self.d, self.G1.rows + self.G0.rows)
            object.__setattr__(self, "_encoding", M)
        return M

    def injective(self) -> bool:
        """Whether [G1; G0] has trivial left kernel over Z_d."""
        return ring.kernel_mod(self.encoding()).nrows == 0


@dataclass(frozen=True)
class Codeword:
    """Support of a logical basis state: the coset x.G1 + span(G0)."""

    x: tuple
    terms: frozenset


def cell_rows(L, dim: int, d: int, signs=None) -> ring.ResidueMatrix:
    """One row per dim-cell of L over Z_d, in vertex order: 1 on the cell's
    vertices, or the vertex's sign there when signs are given."""
    if d < 2:
        raise ValueError("d must be >= 2")
    index = {v: j for j, v in enumerate(L.vertex_ids)}
    signs = [s % d for s in signs or (1,) * len(index)]
    rows = []
    for cell in L.cells_of_dim(dim):
        row = [0] * len(index)
        for v in cell.vertices:
            row[index[v]] = signs[index[v]]
        rows.append(tuple(row))
    return ring._canonical(d, tuple(rows))


def from_colex(L, mu_prime: int, d: int) -> ColorCode:
    """Build the color code of a validated, star-flagged lattice.

    X generators are indicators of mu'-cells; Z generators are sigma-signed
    indicators of (mu - mu' + 2)-cells; the logicals are the (signed)
    all-ones rows.  Redundant generator rows are retained as given.
    """
    if not 2 <= mu_prime <= L.mu:
        raise ValueError("mu_prime must satisfy 2 <= mu_prime <= mu")
    sigma = L.star_signs()
    n = len(L.vertex_ids)
    code = ColorCode(
        d=d,
        n=n,
        star_signs=sigma,
        G0=cell_rows(L, mu_prime, d),
        G1=ring.ResidueMatrix(d, ((1,) * n,)),
        z_stab=cell_rows(L, L.mu - mu_prime + 2, d, sigma),
        z_logical=ring.ResidueVector(d, tuple(s for s in sigma)),
    )
    if not code.injective():
        raise ValueError(f"mu_prime={mu_prime}: [G1; G0] has a nontrivial left kernel "
                         "(dependent generators or no encoded qudit)")
    return code


def verify_code(C: ColorCode) -> ValidationReport:
    """Exhaustive commutation audit of stabilizers and logicals.

    Only an X word and a Z word can fail to commute, so the phases of all
    pairs are the entries of three Z_d products; witnesses keep word order.
    """
    rep = ValidationReport()
    r0 = C.G0.nrows
    # pair (i, r0 + j) of X row i and Z row j: phase G0_i . Zstab_j
    bad = [
        {"pair": [i, r0 + j], "phase": c}
        for i, j, c in _nonzero(ring.mul_transpose(C.G0, C.z_stab))
    ]
    rep.add("stabilizers-commute", not bad, witness=bad[:3] or None)

    # logical X row l against Z row j: G1_l . Zstab_j; then the logical Z
    # against X row i: -(G0_i . z_logical), and the logical pair: G1 . z_logical
    zbar_row = ring.ResidueMatrix(C.d, (C.z_logical.entries,))
    bad = [
        {"logical": l, "stabilizer": r0 + j, "phase": c}
        for l, j, c in _nonzero(ring.mul_transpose(C.G1, C.z_stab))
    ] + [
        {"logical": C.k, "stabilizer": i, "phase": (-c) % C.d}
        for i, _, c in _nonzero(ring.mul_transpose(C.G0, zbar_row))
    ]
    rep.add("logicals-commute-with-stabilizers", not bad, witness=bad[:3] or None)

    c = int(ring.mul_transpose(C.G1, zbar_row)[0, 0])
    rep.add("logical-pair-omega-commutes", c == 1, f"phase {c}, expected 1")

    rep.add("injective-encoding", C.injective(), "[G1; G0] has trivial left kernel")
    return rep


def _nonzero(P: np.ndarray) -> list:
    """(i, j, P[i, j]) for every nonzero entry, in row-major order."""
    return [(int(i), int(j), int(P[i, j])) for i, j in np.argwhere(P)]


def codeword(C: ColorCode, x, cap: int = DEFAULT_CAP) -> Codeword:
    """Enumerate the support of |x_L>: all terms y.G0 + x.G1 mod d."""
    if isinstance(x, int):
        x = (x,)
    x = tuple(int(e) % C.d for e in x)
    if len(x) != C.k:
        raise ValueError(f"logical label must have length {C.k}")
    size = ring.span_size(C.G0)
    if size > cap:
        raise CapExceeded(f"codeword would enumerate {size} > cap {cap} terms")
    offset = ring.mat_vec_mul(C.G1, x).entries
    terms = frozenset(ring.iter_span(C.G0, offset))
    if len(terms) != size:
        raise AssertionError("term enumeration lost injectivity")
    return Codeword(x=x, terms=terms)


def syndrome(C: ColorCode, E: PauliWord):
    """Symplectic phase of every stabilizer generator against E.

    Order: X generators in G0 row order, then Z generators.  Two exact Z_d
    products: X row i gives G0_i . z_E and Z row j gives -(Zstab_j . x_E).
    """
    if E.d != C.d or E.n != C.n:
        raise ValueError("mismatched qudit count or dimension")
    x_part = ring.mul_transpose(C.G0, ring.ResidueMatrix(C.d, (E.z_exp,)))
    z_part = -ring.mul_transpose(C.z_stab, ring.ResidueMatrix(C.d, (E.x_exp,))) % C.d
    return tuple(x_part[:, 0].tolist() + z_part[:, 0].tolist())


def distance(C: ColorCode, sector: str, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum logical-operator weight in one Pauli sector.

    Two exact methods: enumerating the sector's coset space in blocks, or a
    weight-ordered support search.  The first enumeration block gives an
    upper bound u on the distance; enumeration goes on when the coset space
    fits the cap and is no larger than the search's bound, the number of
    vectors of weight below u.  Otherwise the support search runs, charged
    against the cap as it goes, so CapExceeded means both methods exceed it.
    """
    A, B, space, blocks = _sector(C, sector)
    best = C.n + 1
    if space <= cap:
        blocks, screen = iter(blocks), ring.span_check(B, C.n)
        best = _lightest(next(blocks), screen, best)
        if space <= _search_bound(C.n, C.d, best):
            return _found(_lightest_of(blocks, screen, best), C.n)
    try:
        return _weight_search(C, A, B, cap, best)
    except CapExceeded:
        raise CapExceeded(f"{sector.upper()}-sector coset space {space} and "
                          f"support search both exceed cap {cap}") from None


def _enumerate_distance(C: ColorCode, sector: str, cap: int = DEFAULT_CAP) -> int:
    """The distance by enumerating the whole coset space."""
    _A, B, space, blocks = _sector(C, sector)
    if space > cap:
        raise CapExceeded(f"{sector.upper()}-sector coset space {space} > cap {cap}")
    return _found(_lightest_of(blocks, ring.span_check(B, C.n), C.n + 1), C.n)


def _search_distance(C: ColorCode, sector: str, cap: int = DEFAULT_CAP) -> int:
    """The distance by the weight-ordered support search alone."""
    A, B, _space, _blocks = _sector(C, sector)
    return _weight_search(C, A, B, cap, C.n + 1)


def _sector(C: ColorCode, sector: str):
    """(A, B, space, blocks): the sector's logical operators are the vectors
    of rowspan(A) outside rowspan(B); the enumeration streams `blocks`,
    `space` vectors of rowspan(A) in all.

    X: A = [G1; G0], B = G0, and the blocks are the cosets x.G1 + span(G0)
    with x != 0.  Z: A is the commutant of the X stabilizers, streamed
    whole, and B = z_stab.
    """
    if sector.lower() == "x":
        A = C.encoding()
        if ring.span_size(A) != C.d ** C.k * ring.span_size(C.G0):
            raise ValueError("a logical label x != 0 has x.G1 in span(G0)")
        labels = itertools.islice(_product(0, C.d, C.k), 1, None)
        blocks = (block for x in labels
                  for block in ring.span_blocks(C.G0, ring.mat_vec_mul(C.G1, x).entries))
        return A, C.G0, ring.span_size(C.G0) * (C.d ** C.k - 1), blocks
    if sector.lower() == "z":
        # a G0 with no rows keeps no column count; its transpose is n x 0
        A = ring.kernel_mod(C.G0.transpose() if C.G0.rows else ring._canonical(C.d, ((),) * C.n))
        if not A.rows:
            raise ValueError("commutant contains no logical; k = 0?")
        return A, C.z_stab, ring.span_size(A), ring.span_blocks(A)
    raise ValueError("sector must be 'x' or 'z'")


def _lightest(block: np.ndarray, screen, best: int) -> int:
    """min(best, weight of the lightest row of block that fails the span
    check screen = (H, g)); only rows lighter than best are checked."""
    weights = np.count_nonzero(block, axis=1)
    light = weights < best
    if light.any():
        H, g = screen
        light[light] = ((block[light].astype(H.dtype) @ H) % g).any(axis=1)
    return int(weights[light].min()) if light.any() else best


def _lightest_of(blocks, screen, best: int) -> int:
    for block in blocks:
        best = _lightest(block, screen, best)
    return best


def _found(best: int, n: int) -> int:
    if best > n:
        raise ValueError("commutant contains no logical; k = 0?")
    return best


def _search_bound(n: int, d: int, u: int) -> int:
    """Vectors of weight 1..u-1 over Z_d: what the support search examines
    before it may conclude that the distance is u."""
    return sum(math.comb(n, w) * (d - 1) ** w for w in range(1, min(u, n + 1)))


def _weight_search(C: ColorCode, A, B, cap: int, below: int) -> int:
    """Smallest weight w < below of a vector in rowspan(A) outside
    rowspan(B), else below.

    Supports by increasing weight (White & Grassl, ISIT 2006), all exponent
    patterns of a weight batched.  Membership comes from the span checks of
    A and B, computed on the support's rows of the check matrix only; B is
    checked only on the vectors that pass A.  Every vector is charged to the
    cap.
    """
    HA, gA = ring.span_check(A, C.n)
    HB, gB = ring.span_check(B, C.n)
    spent = 0
    for w in range(1, min(below, C.n + 1)):
        for S, P in _weight_batches(C.n, C.d, w):
            # candidate (i, j) puts pattern P[j] on support S[i]
            in_a = ~((P.astype(HA.dtype) @ HA[S]) % gA).any(axis=2).reshape(-1)
            room, spent = cap - spent, spent + in_a.size
            i, j = np.divmod(np.flatnonzero(in_a[:room]), len(P))
            if i.size:
                TB = P[j].astype(HB.dtype)[:, None, :] @ HB[S[i]]
                if (TB % gB).any(axis=2).any():
                    return w
            if spent > cap:
                raise CapExceeded(f"support search needs more than cap {cap} vectors")
    return _found(below, C.n)


def _weight_batches(n: int, d: int, w: int):
    """(S, P) batches covering every vector of weight w over Z_d once: the
    vector with pattern P[j] on support S[i], for at most ring.BLOCK_ROWS
    pairs (i, j) per batch; supports in lexicographic order."""
    per = (d - 1) ** w
    supports = itertools.combinations(range(n), w)
    if per <= ring.BLOCK_ROWS:
        P = np.array(list(itertools.product(range(1, d), repeat=w)), dtype=np.int64)
        while True:
            chunk = itertools.islice(supports, ring.BLOCK_ROWS // per)
            S = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp)
            if not S.size:
                return
            yield S.reshape(-1, w), P.reshape(per, w)
    dtype = ring.exact_dtype(d - 1)
    for support in supports:
        patterns = _product(1, d, w)
        while chunk := list(itertools.islice(patterns, ring.BLOCK_ROWS)):
            yield np.array([support], dtype=np.intp), np.array(chunk, dtype=dtype)


def _product(lo: int, hi: int, w: int):
    """itertools.product(range(lo, hi), repeat=w) in its order, counted
    instead of holding range(lo, hi) in memory (d may be huge)."""
    b = hi - lo
    return (tuple(lo + i // b**j % b for j in reversed(range(w))) for i in range(b**w))


def code_to_json(C: ColorCode) -> dict:
    return {
        "d": C.d,
        "n": C.n,
        "stars": list(C.star_signs),
        "G0": [list(r) for r in C.G0.rows],
        "G1": [list(r) for r in C.G1.rows],
        "Zstab": [list(r) for r in C.z_stab.rows],
    }


_CODE_SHAPE = {"d": int, "n": int, "stars": [int], "G0": [[int]], "G1": [[int]], "Zstab": [[int]]}


def code_from_json(obj: dict) -> ColorCode:
    check_shape(obj, _CODE_SHAPE, "code")
    d, n = obj["d"], obj["n"]
    if n < 1:
        raise ValueError(f"code.n must be >= 1, got {n}")
    stars = tuple(obj["stars"])
    if len(stars) != n or any(s not in (-1, 1) for s in stars):
        raise ValueError("stars must be n entries of +-1")
    for key in ("G0", "G1", "Zstab"):
        bad = [i for i, row in enumerate(obj[key]) if len(row) != n]
        if bad:
            raise ValueError(f"code.{key}[{bad[0]}] has {len(obj[key][bad[0]])} entries, not n = {n}")
    if len(obj["G1"]) != 1:
        raise ValueError(f"code.G1 must have exactly one row, got {len(obj['G1'])}")
    return ColorCode(
        d=d,
        n=n,
        star_signs=stars,
        G0=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["G0"])),
        G1=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["G1"])),
        z_stab=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["Zstab"])),
        z_logical=ring.ResidueVector(d, stars),
    )
