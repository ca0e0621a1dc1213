"""Qudit color codes: stabilizers, logicals, codewords, syndromes, distance.

Everything is symplectic: a Pauli is a row of (x | z) exponents mod d, and
commutation is one integer bilinear form, symplectic_phase.  Between CSS
generators only an X half and a Z half can fail to commute, so verify_code
and syndrome ask ring.mul_transpose for products of the two.
X generators sit on mu'-cells, Z generators on (mu-mu'+2)-cells with
the star signs folded into the exponents (starred vertices hold d-1 instead
of a separate conjugation channel).  A shared lattice keeps its cell incidence
per dimension and its code per (mu', d), or the rejection of that (mu', d):
only the first code per (lattice, mu', d) per process is built and decided,
and every later command reads that code's matrices with their kept Smith
forms, row bases, span blocks and span checks.  Exact distances come from
one of three methods, the one estimated to touch the fewest matrix entries:
coset enumeration, a weight-ordered support search, or at prime d an
information-set search, whose information sets a sector's matrix keeps too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ring
from .reports import Report, check_shape

DEFAULT_CAP = 10**7


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured cap."""


def symplectic_phase(A: np.ndarray, B: np.ndarray, d: int) -> np.ndarray:
    """Entry [i, j] is the c with A_i B_j = omega^c B_j A_i, for arrays of
    (x | z) exponent rows: x_i . z_j - z_i . x_j mod d.  The dtype must hold
    n (d-1)^2."""
    n = A.shape[1] // 2
    return (A[:, :n] @ B[:, n:].T - A[:, n:] @ B[:, :n].T) % d


@dataclass(frozen=True)
class ColorCode:
    """CSS color code data: G0 (X stabilizers), G1 (logical X), Z side."""

    d: int
    n: int
    star_signs: tuple  # +1 unstarred, -1 starred, per qudit
    G0: ring.ResidueMatrix
    G1: ring.ResidueMatrix
    z_stab: ring.ResidueMatrix  # sigma-signed exponent rows, one per generator

    def __post_init__(self):
        """Every matrix has n columns: one with no rows takes that width."""
        for name in ("G0", "G1", "z_stab"):
            M = getattr(self, name)
            if M.ncols != self.n:
                if M.nrows:
                    raise ValueError(f"{name} has {M.ncols} columns, not n = {self.n}")
                M = ring.ResidueMatrix(M.modulus, M.array.reshape(0, self.n))
                object.__setattr__(self, name, M)

    @property
    def z_logical(self) -> tuple:
        """sigma mod d: the logical Z exponents."""
        return tuple(s % self.d for s in self.star_signs)

    @property
    def k(self) -> int:
        return self.G1.nrows

    def encoding(self) -> ring.ResidueMatrix:
        """[G1; G0], the map (x, y) -> x.G1 + y.G0, built on first use; one
        instance per code, so every question about it reads one
        factorization."""
        if "_encoding" not in self.__dict__:
            object.__setattr__(self, "_encoding", self._stacked())
        return self._encoding

    def injective(self) -> bool:
        """Whether [G1; G0] has trivial left kernel over Z_d: elimination mod
        d, factoring nothing, decided once per code and kept as a bool; a
        [G1; G0] built for it alone is not kept."""
        if "_injective" not in self.__dict__:
            object.__setattr__(self, "_injective", ring.independent_rows(self._stacked()))
        return self._injective

    def _stacked(self) -> ring.ResidueMatrix:
        """The kept [G1; G0] if a question built it, else a new one."""
        return self.__dict__.get("_encoding") or ring.ResidueMatrix(
            self.d, np.concatenate([self.G1.array, self.G0.array]))

    @functools.cached_property
    def commutant(self) -> ring.ResidueMatrix:
        """The right kernel of G0 as rows, which G0's span check holds as
        columns: the Z words that commute with every X stabilizer."""
        return ring.ResidueMatrix(self.d, ring.span_check(self.G0).T)


@dataclass(frozen=True, eq=False)
class Codeword:
    """Support of a logical basis state: the coset x.G1 + span(G0).  terms
    is a read-only 2-D array, one distinct term per row, the rows in
    lexicographic order, in the narrowest unsigned dtype that holds d - 1
    (Python ints, dtype=object, past 2^64 - 1)."""

    x: tuple
    terms: np.ndarray


def cell_rows(L, dim: int, d: int, signs=None) -> ring.ResidueMatrix:
    """One row per dim-cell of L over Z_d, in vertex order: 1 on the cell's
    vertices, or the vertex's sign there when signs are given.  The 0/1
    incidence is scattered into a uint8 array once per (L, dim) and kept on
    L read-only; each matrix is one cast of it, reduced mod d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    kept = L.__dict__.setdefault("_incidence", {})
    if dim not in kept:
        n, index = len(L.vertex_ids), {v: j for j, v in enumerate(L.vertex_ids)}
        cells = L.cells_of_dim(dim)
        kept[dim] = rows = np.zeros((len(cells), n), dtype=np.uint8)
        np.put(rows, [i * n + index[v] for i, cell in enumerate(cells) for v in cell.vertices], 1)
        rows.setflags(write=False)
    return ring.ResidueMatrix(d, kept[dim] if signs is None else kept[dim] * signs)


def from_colex(L, mu_prime: int, d: int) -> ColorCode:
    """The color code of a validated, star-flagged lattice, built on first
    use and kept on L per (mu', d), like its incidence.

    X generators are indicators of mu'-cells; Z generators are sigma-signed
    indicators of (mu - mu' + 2)-cells; the logicals are the (signed)
    all-ones rows.  Redundant Z rows are retained as given; redundant X rows
    make [G1; G0] non-injective, which raises ValueError.  That check is
    ring.independent_rows on [G1; G0], exact at every d, prime or not, run
    once per (L, mu', d): L keeps a rejection as None, so a repeat raises
    the same error with no elimination.
    """
    if not 2 <= mu_prime <= L.mu:
        raise ValueError("mu_prime must satisfy 2 <= mu_prime <= mu")
    kept = L.__dict__.setdefault("_codes", {})
    if (mu_prime, d) not in kept:
        sigma, n = L.star_signs(), len(L.vertex_ids)
        code = ColorCode(d=d, n=n, star_signs=sigma, G0=cell_rows(L, mu_prime, d),
                         G1=ring.ResidueMatrix(d, np.ones((1, n), dtype=np.int64)),
                         z_stab=cell_rows(L, L.mu - mu_prime + 2, d, sigma))
        kept[mu_prime, d] = code if code.injective() else None
    if kept[mu_prime, d] is None:
        raise ValueError(f"mu_prime={mu_prime}: [G1; G0] has a nontrivial left kernel "
                         "(dependent generators or no encoded qudit)")
    return kept[mu_prime, d]


def verify_code(C: ColorCode) -> Report:
    """Exhaustive commutation audit of stabilizers and logicals.

    Only an X word and a Z word can fail to commute, so the phases of all
    pairs are the entries of three Z_d products; witnesses keep word order.
    """
    rep = Report()
    r0 = C.G0.nrows
    # pair (i, r0 + j) of X row i and Z row j: phase G0_i . Zstab_j
    bad = [
        {"pair": [i, r0 + j], "phase": c}
        for i, j, c in _nonzero(ring.mul_transpose(C.G0, C.z_stab))
    ]
    rep.add("stabilizers-commute", not bad, witness=bad[:3] or None)

    # logical X row l against Z row j: G1_l . Zstab_j; then the logical Z
    # against X row i: -(G0_i . z_logical), and the logical pair: G1 . z_logical
    zbar_row = ring.ResidueMatrix(C.d, (C.z_logical,))
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
    """Enumerate the support of |x_L>: all terms y.G0 + x.G1 mod d, sorted;
    a repeated term (two rows equal after sorting) is an AssertionError."""
    if isinstance(x, int):
        x = (x,)
    x = tuple(int(e) % C.d for e in x)
    if len(x) != C.k:
        raise ValueError(f"logical label must have length {C.k}")
    size = ring.span_size(C.G0)
    if size > cap:
        raise CapExceeded(f"codeword would enumerate {size} > cap {cap} terms")
    offset = ring.mat_vec_mul(C.G1, x)
    flat = itertools.chain.from_iterable(ring.iter_span(C.G0, offset))
    terms = np.fromiter(flat, dtype=np.min_scalar_type(C.d - 1)).reshape(-1, C.n)
    terms = terms[np.lexsort(terms.T[::-1])]
    if (terms[1:] == terms[:-1]).all(axis=1).any():
        raise AssertionError("term enumeration lost injectivity")
    terms.setflags(write=False)
    return Codeword(x=x, terms=terms)


def syndrome(C: ColorCode, e) -> tuple:
    """Symplectic phase of every stabilizer generator against the error with
    (x | z) exponent row e, 2n entries.

    Order: X generators in G0 row order, then Z generators.  Two exact Z_d
    products: X row i gives G0_i . z_e and Z row j gives -(Zstab_j . x_e).
    e is a numpy row, whose halves are taken as 1 x n arrays, or a sequence
    of integers, read first as one ResidueMatrix row.
    """
    if len(e) != 2 * C.n:
        raise ValueError(f"error row has {len(e)} entries, not 2n = {2 * C.n}")
    if not isinstance(e, np.ndarray):
        e = ring.ResidueMatrix(C.d, (e,)).array[0]
    x_part = ring.mul_transpose(C.G0, ring.ResidueMatrix(C.d, e[None, C.n:]))
    z_part = -ring.mul_transpose(C.z_stab, ring.ResidueMatrix(C.d, e[None, :C.n])) % C.d
    return tuple(x_part[:, 0].tolist() + z_part[:, 0].tolist())


def distance(C: ColorCode, sector: str, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum logical-operator weight in one Pauli sector.

    Three exact methods: enumerating the sector's coset space in blocks, a
    weight-ordered support search, and, at prime d below ring.PRIME_BOUND,
    an information-set search.  An upper bound u on the distance comes from
    the rows of A, at prime d from those of its first information set, and,
    when the coset space fits the cap, from its first block.  Each method's
    work is estimated from u in matrix entries touched: the rest of the
    space times n to enumerate, vectors * w * (n - rank A) to search every
    weight w below u, codewords * w * n for the information sets' bound to
    reach u.  The methods run in that order of work, each charged against
    the cap, until one finishes, so CapExceeded means every one exceeded it.
    """
    A, B, space, blocks = _sector(C, sector)
    n, d, k = C.n, C.d, len(ring.span_orders(A))
    prime = d < ring.PRIME_BOUND and ring.is_prime(d)
    best = _lightest(A.array, B, n + 1)
    for gamma, _pivots in _information_sets(A, 1) if prime else ():
        best = _lightest(gamma, B, best)
    methods = []
    if space <= cap:
        blocks = iter(blocks)
        first = next(blocks)
        best = _lightest(first, B, best)
        methods.append(((space - len(first)) * n, lambda: _found(_lightest_of(blocks, B, best), n)))
    methods.append((_search_work(n, d, k, best), lambda: _weight_search(C, A, B, cap, best)))
    if prime:
        methods.append((_information_work(n, d, k, best),
                        lambda: _information_search(_information_sets(A), B, cap, best)))
    for _work, method in sorted(methods, key=lambda m: m[0]):
        try:
            return method()
        except CapExceeded:
            pass
    names = [f"coset space {space}", "support search"] + ["information-set search"] * prime
    raise CapExceeded(f"{sector.upper()}-sector {', '.join(names[:-1])} and {names[-1]} "
                      f"{'all' if prime else 'both'} exceed cap {cap}")


def _sector(C: ColorCode, sector: str):
    """(A, B, space, blocks): the sector's logical operators are the vectors
    of rowspan(A) outside rowspan(B); the enumeration streams `blocks`,
    `space` vectors of rowspan(A) in all.

    X: A = [G1; G0], B = G0, and the blocks are the cosets x.G1 + span(G0)
    with x != 0.  Z: A is the commutant of the X stabilizers, the right
    kernel of G0 that G0's span check holds as columns, streamed whole, and
    B = z_stab.
    """
    if sector.lower() == "x":
        A = C.encoding()
        if ring.span_size(A) != C.d ** C.k * ring.span_size(C.G0):
            raise ValueError("a logical label x != 0 has x.G1 in span(G0)")
        labels = itertools.islice(_product(0, C.d, C.k), 1, None)
        blocks = (block for x in labels
                  for block in ring.span_blocks(C.G0, ring.mat_vec_mul(C.G1, x)))
        return A, C.G0, ring.span_size(C.G0) * (C.d ** C.k - 1), blocks
    if sector.lower() == "z":
        A = C.commutant
        if not A.nrows:
            raise ValueError("commutant contains no logical; k = 0?")
        return A, C.z_stab, ring.span_size(A), ring.span_blocks(A)
    raise ValueError("sector must be 'x' or 'z'")


def _lightest(block: np.ndarray, B: ring.ResidueMatrix, best: int) -> int:
    """min(best, weight of the lightest row of block outside rowspan(B));
    only rows lighter than best are checked."""
    # a dtype that holds n + 1 compares with every best <= n + 1 exactly
    weights = (block != 0).view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(block.shape[1] + 1))
    light = weights < best
    if light.any():
        H = ring.span_check(B)
        light[light] = ((block[light].astype(H.dtype) @ H) % B.modulus).any(axis=1)
    return int(weights[light].min()) if light.any() else best


def _lightest_of(blocks, B: ring.ResidueMatrix, best: int) -> int:
    for block in blocks:
        best = _lightest(block, B, best)
    return best


def _found(best: int, n: int) -> int:
    if best > n:
        raise ValueError("commutant contains no logical; k = 0?")
    return best


def _search_work(n: int, d: int, k: int, u: int) -> int:
    """Entries the support search touches before it may conclude that the
    distance is u: w (n - k) per vector of weight w = 1..u-1 over Z_d."""
    return sum(math.comb(n, w) * (d - 1) ** w * w for w in range(1, min(u, n + 1))) * (n - k)


def _weight_search(C: ColorCode, A, B, cap: int, below: int) -> int:
    """Smallest weight w < below of a vector in rowspan(A) outside
    rowspan(B), else below.

    Supports by increasing weight (White & Grassl, ISIT 2006), all exponent
    patterns of a weight batched.  Membership comes from the span checks of
    A and B, computed on the support's rows of the check matrix only; B is
    checked only on the vectors that pass A.  Every vector is charged to the
    cap.
    """
    HA, HB = ring.span_check(A), ring.span_check(B)
    spent = 0
    for w in range(1, min(below, C.n + 1)):
        for S, P in _weight_batches(C.n, C.d, w):
            # candidate (i, j) puts pattern P[j] on support S[i]
            in_a = ~((P.astype(HA.dtype) @ HA[S]) % C.d).any(axis=2).reshape(-1)
            room, spent = cap - spent, spent + in_a.size
            i, j = np.divmod(np.flatnonzero(in_a[:room]), len(P))
            if i.size:
                TB = P[j].astype(HB.dtype)[:, None, :] @ HB[S[i]]
                if (TB % C.d).any(axis=2).any():
                    return w
            if spent > cap:
                raise CapExceeded(f"support search needs more than cap {cap} vectors")
    return _found(below, C.n)


def _information_sets(A: ring.ResidueMatrix, count: int | None = None) -> list:
    """The first count (default all) disjoint information sets of rowspan(A)
    over F_p, p = A.modulus prime, as (Gamma, pivots) pairs, r = len(pivots),
    each eliminated when first asked for and kept on A, in order.

    Each Gamma is a reduced echelon form of k independent rows spanning
    rowspan(A), eliminated with the columns no earlier set used first: its
    r pivots there are the set, unit columns each 1 in one of the first r
    rows, and past row r Gamma is zero on every such column.  A codeword
    m.Gamma then has at least wt(m) - (k - r) nonzero entries on the set.
    The first set has r = k; the sets end when the unused columns have rank
    0.  Within each part the sparsest columns come first, which keeps the
    elimination sparse: a column with one nonzero entry costs no update.
    """
    if "_sets" not in A.__dict__:
        A._sets, A._more_sets = [], _eliminate_sets(A.array, A.modulus)
    A._sets.extend(itertools.islice(A._more_sets, None if count is None else
                                    max(0, count - len(A._sets))))
    return A._sets


def _eliminate_sets(gamma: np.ndarray, p: int):
    """Yield the information sets of _information_sets one at a time."""
    unused = np.ones(gamma.shape[1], dtype=bool)
    while unused.any():
        order = np.lexsort(((gamma != 0).sum(axis=0), ~unused))
        R, _T, pivots = ring.echelon_mod_p(gamma[:, order], p)
        fresh = order[[j for j in pivots if unused[order[j]]]]
        if not fresh.size:
            return
        gamma = np.empty_like(R[:len(pivots)])
        gamma[:, order] = R[:len(pivots)]
        gamma.setflags(write=False)
        unused[fresh] = False
        yield gamma, fresh


def _schedule(k: int, ranks: list):
    """(bound, j, t) in the order the information-set search takes them:
    weigh the codewords of t rows of set j; before that step, every codeword
    not yet weighed has weight at least bound.  Level w = 1, 2, ... brings
    every set whose bound term w + 1 - (k - r) is positive up to w rows; the
    search ends once the first set, of rank k, has weighed all k rows."""
    done = [0] * len(ranks)
    for w in range(1, k + 1):
        for j, r in enumerate(ranks):
            while done[j] < w and w + r >= k:
                yield sum(max(0, e + 1 - k + s) for e, s in zip(done, ranks)), j, done[j] + 1
                done[j] += 1
            if done[0] == k:
                return


def _information_work(n: int, p: int, k: int, u: int) -> int:
    """Entries the information-set search touches on k rows over F_p before
    its bound reaches u: t n per codeword of t rows, as if every set had
    min(k, unused columns) fresh pivots, which no set exceeds."""
    work, ranks = 0, [min(k, n - j) for j in range(0, n, k or n)]
    for bound, _j, t in _schedule(k, ranks):
        if bound >= u:
            break
        work += math.comb(k, t) * (p - 1) ** (t - 1) * t * n
    return work


def _information_search(sets: list, B: ring.ResidueMatrix, cap: int, best: int) -> int:
    """min(best, weight of the lightest vector of the sets' row space outside
    rowspan(B)), by the Brouwer-Zimmermann information-set search (Zimmermann
    1996; Grassl 2006) over F_p.

    Each step weighs the codewords m.Gamma of one set with wt(m) = t, one
    per projective class (the first nonzero coefficient of m is 1: scaling
    by a unit keeps the weight and whether a vector lies in span(B)), and
    stops once the schedule's bound on every codeword not yet weighed
    reaches best.  A codeword is built off the set's pivots, where its
    weight is that of m on the first r rows, and whole only when lighter
    than best, for _lightest to screen.  Each step's C(k, t) (p-1)^(t-1)
    codewords are charged to the cap before it runs: the search never stops
    inside a step.  Sums are exact in exact_dtype(t (p-1)^2).
    """
    p, n = B.modulus, B.ncols
    k, spent = len(sets[0][0]) if sets else 0, 0
    for bound, j, t in _schedule(k, [len(fresh) for _g, fresh in sets]):
        if bound >= best:
            break
        spent += math.comb(k, t) * (p - 1) ** (t - 1)
        if spent > cap:
            raise CapExceeded(f"information-set search needs more than cap {cap} codewords")
        gamma, fresh = sets[j]
        dtype = ring.exact_dtype(t * (p - 1) ** 2)
        gamma = gamma.astype(dtype, copy=False)
        off = np.delete(gamma, fresh, axis=1)
        for S, P in _weight_batches(k, p, t, projective=True):
            P = P.astype(dtype)
            weights = (((P @ off[S]) % p) != 0).sum(axis=2) + (S < len(fresh)).sum(axis=1)[:, None]
            i, c = np.nonzero(weights < best)
            if i.size:
                best = _lightest((P[c, None, :] @ gamma[S[i]])[:, 0] % p, B, best)
    return _found(best, n)


def _weight_batches(n: int, d: int, w: int, projective: bool = False):
    """(S, P) batches covering every vector of weight w over Z_d once: the
    vector with pattern P[j] on support S[i], for at most ring.BLOCK_ROWS
    pairs (i, j) per batch; supports in lexicographic order.  projective
    keeps only the patterns whose first entry is 1, one per class of unit
    multiples over a field."""
    per = (d - 1) ** (w - 1) * (1 if projective else d - 1)
    supports = itertools.combinations(range(n), w)
    if per <= ring.BLOCK_ROWS:
        P = np.array(list(_patterns(d, w, projective)), dtype=np.int64)
        while True:
            chunk = itertools.islice(supports, ring.BLOCK_ROWS // per)
            S = np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp)
            if not S.size:
                return
            yield S.reshape(-1, w), P.reshape(per, w)
    dtype = ring.exact_dtype(d - 1)
    for support in supports:
        patterns = _patterns(d, w, projective)
        while chunk := list(itertools.islice(patterns, ring.BLOCK_ROWS)):
            yield np.array([support], dtype=np.intp), np.array(chunk, dtype=dtype)


def _patterns(d: int, w: int, projective: bool):
    """Every w-tuple over 1..d-1 in lexicographic order, or with projective
    those whose first entry is 1."""
    return ((1,) + rest for rest in _product(1, d, w - 1)) if projective else _product(1, d, w)


def _product(lo: int, hi: int, w: int):
    """itertools.product(range(lo, hi), repeat=w) in its order, counted
    instead of holding range(lo, hi) in memory (d may be huge)."""
    b = hi - lo
    return (tuple(lo + i // b**j % b for j in reversed(range(w))) for i in range(b**w))


def code_to_json(C: ColorCode) -> dict:
    """The code as JSON values, G0, G1 and Zstab as the matrices' read-only
    arrays, which cli.emit writes as nested lists."""
    return {"d": C.d, "n": C.n, "stars": list(C.star_signs),
            "G0": C.G0.array, "G1": C.G1.array, "Zstab": C.z_stab.array}


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
    G0, G1, Z = (ring.ResidueMatrix(d, obj[key]) for key in ("G0", "G1", "Zstab"))
    return ColorCode(d=d, n=n, star_signs=stars, G0=G0, G1=G1, z_stab=Z)
