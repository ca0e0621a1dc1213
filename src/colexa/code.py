"""Qudit color codes: stabilizers, logicals, codewords, syndromes, distance.

Everything is symplectic: a Pauli word is a pair of exponent vectors mod d
plus an omega-power, and commutation questions reduce to an integer bilinear
form.  X generators sit on mu'-cells, Z generators on (mu-mu'+2)-cells with
the star signs folded into the exponents (starred vertices hold d-1 instead
of a separate conjugation channel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ring
from .reports import ValidationReport

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

    def weight(self) -> int:
        return sum(1 for x, z in zip(self.x_exp, self.z_exp) if x or z)

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

    def x_stab_words(self) -> list:
        return [PauliWord.x_word(self.d, row) for row in self.G0.rows]

    def z_stab_words(self) -> list:
        return [PauliWord.z_word(self.d, row) for row in self.z_stab.rows]

    def logical_x_words(self) -> list:
        return [PauliWord.x_word(self.d, row) for row in self.G1.rows]

    def logical_z_words(self) -> list:
        return [PauliWord.z_word(self.d, self.z_logical.entries)]

    def stabilizer_words(self) -> list:
        """All generators, X type first then Z type; the syndrome order."""
        return self.x_stab_words() + self.z_stab_words()


@dataclass(frozen=True)
class Codeword:
    """Support of a logical basis state: the coset x.G1 + span(G0)."""

    x: tuple
    terms: frozenset


def cell_rows(L, dim: int, d: int, signs=None) -> ring.ResidueMatrix:
    """One row per dim-cell of L over Z_d, in vertex order: 1 on the cell's
    vertices, or the vertex's sign there when signs are given."""
    index = {v: j for j, v in enumerate(L.vertex_ids)}
    signs = signs or (1,) * len(index)
    rows = []
    for cell in L.cells_of_dim(dim):
        row = [0] * len(index)
        for v in cell.vertices:
            row[index[v]] = signs[index[v]]
        rows.append(row)
    return ring.ResidueMatrix(d, tuple(rows))


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
    if not ring.is_injective_encoding(code.G0, code.G1):
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
    # against X row i: -(G0_i . z_logical)
    zbar_row = ring.ResidueMatrix(C.d, (C.z_logical.entries,))
    bad = [
        {"logical": l, "stabilizer": r0 + j, "phase": c}
        for l, j, c in _nonzero(ring.mul_transpose(C.G1, C.z_stab))
    ] + [
        {"logical": C.k, "stabilizer": i, "phase": (-c) % C.d}
        for i, _, c in _nonzero(ring.mul_transpose(C.G0, zbar_row))
    ]
    rep.add("logicals-commute-with-stabilizers", not bad, witness=bad[:3] or None)

    xbar = C.logical_x_words()[0]
    zbar = C.logical_z_words()[0]
    c = symplectic_phase(xbar, zbar)
    rep.add("logical-pair-omega-commutes", c == 1, f"phase {c}, expected 1")

    rep.add(
        "injective-encoding",
        ring.is_injective_encoding(C.G0, C.G1),
        "[G1; G0] has trivial left kernel",
    )
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
    terms = frozenset(
        tuple((a + b) % C.d for a, b in zip(offset, t))
        for t in ring.iter_span(C.G0)
    )
    if len(terms) != size:
        raise AssertionError("term enumeration lost injectivity")
    return Codeword(x=x, terms=terms)


def syndrome(C: ColorCode, E: PauliWord):
    """Symplectic phase of every stabilizer generator against E.

    Order: X generators in G0 row order, then Z generators.
    """
    return tuple(symplectic_phase(g, E) for g in C.stabilizer_words())


def distance(C: ColorCode, sector: str, cap: int = DEFAULT_CAP) -> int:
    """Brute-force minimum logical-operator weight in one Pauli sector."""
    if sector.lower() == "x":
        return _distance_x(C, cap)
    if sector.lower() == "z":
        return _distance_z(C, cap)
    raise ValueError("sector must be 'x' or 'z'")


def _distance_x(C: ColorCode, cap: int) -> int:
    span = ring.span_size(C.G0)
    labels = C.d ** C.k - 1
    if span * labels > cap:
        raise CapExceeded(f"X-sector search space {span * labels} > cap {cap}")
    stab = np.array(list(ring.iter_span(C.G0)), dtype=np.int64)
    best = C.n + 1
    for x in itertools.product(range(C.d), repeat=C.k):
        if not any(x):
            continue
        rep0 = np.array(ring.mat_vec_mul(C.G1, x).entries, dtype=np.int64)
        weights = np.count_nonzero((stab + rep0) % C.d, axis=1)
        best = min(best, int(weights.min()))
    return best


def _distance_z(C: ColorCode, cap: int) -> int:
    commutant = ring.kernel_mod(C.G0.transpose())
    if ring.span_size(commutant) > cap or ring.span_size(C.z_stab) > cap:
        raise CapExceeded("Z-sector search space exceeds cap")
    stab_set = set(ring.iter_span(C.z_stab))
    best = C.n + 1
    for w in ring.iter_span(commutant):
        if w in stab_set:
            continue
        weight = sum(1 for e in w if e)
        if weight < best:
            best = weight
    if best == C.n + 1:
        raise ValueError("commutant contains no logical; k = 0?")
    return best


def code_to_json(C: ColorCode) -> dict:
    return {
        "d": C.d,
        "n": C.n,
        "stars": list(C.star_signs),
        "G0": [list(r) for r in C.G0.rows],
        "G1": [list(r) for r in C.G1.rows],
        "Zstab": [list(r) for r in C.z_stab.rows],
    }


def code_from_json(obj: dict) -> ColorCode:
    d = int(obj["d"])
    n = int(obj["n"])
    stars = tuple(int(s) for s in obj["stars"])
    if len(stars) != n or any(s not in (-1, 1) for s in stars):
        raise ValueError("stars must be n entries of +-1")
    return ColorCode(
        d=d,
        n=n,
        star_signs=stars,
        G0=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["G0"])),
        G1=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["G1"])),
        z_stab=ring.ResidueMatrix(d, tuple(tuple(r) for r in obj["Zstab"])),
        z_logical=ring.ResidueVector(d, stars),
    )
