"""Independent test oracles: brute-force implementations kept deliberately
separate from the library's algorithms (no Smith normal form, no table
calculus), so agreement between the two is meaningful evidence.  The two
exceptions read the library's stored Smith form: solve_left, a linear solve,
which the word-level reference checks use for span membership, and
recursive_span, which walks the row_basis generators one tuple at a time to
give the order that span enumeration must keep.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from colexa import ring


@dataclass(frozen=True)
class PauliWord:
    """omega^phase_exp * X^x_exp * Z^z_exp on n qudits of dimension d: the
    word-level Pauli, against which the library's (x | z) rows are checked."""

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

    @property
    def row(self) -> tuple:
        """The (x | z) exponent row, as the library takes a Pauli."""
        return self.x_exp + self.z_exp

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


def word_phase(A: PauliWord, B: PauliWord) -> int:
    """The c with A B = omega^c B A, one word pair at a time."""
    if A.d != B.d or A.n != B.n:
        raise ValueError("mismatched qudit count or dimension")
    total = sum(
        ax * bz - bx * az
        for ax, az, bx, bz in zip(A.x_exp, A.z_exp, B.x_exp, B.z_exp)
    )
    return total % A.d


def solve_left(M, w):
    """One solution x of x @ M == w over Z_N, or None if insolvable, from
    M's stored factorization U M V = diag: with t = w V, each t_j must be a
    multiple of gcd(diag_j, N) (and 0 past the diagonal)."""
    N = M.modulus
    if len(w) != M.ncols:
        raise ValueError("length of w must equal number of columns of M")
    U, V, diag = M._factor()
    m, n = M.nrows, M.ncols
    t = ring._combine(V, w, N, n)
    u = [0] * m
    for j in range(n):
        d = diag[j] if j < len(diag) else 0
        if j >= m or d == 0:
            if t[j]:
                return None
            continue
        g = math.gcd(d, N)
        if t[j] % g != 0:
            return None
        u[j] = (t[j] // g) * pow(d // g, -1, N // g) % (N // g)
    return ring._combine(U, u, N, m)


def brute_kernel(rows, N):
    """All v with v @ M == 0 mod N, by exhaustive scan over Z_N^m."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = set()
    for v in itertools.product(range(N), repeat=m):
        w = [sum(c * row[j] for c, row in zip(v, rows)) % N for j in range(n)]
        if not any(w):
            out.add(v)
    return out


def brute_span(rows, N):
    """All row-combinations of M mod N, by exhaustive scan."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = set()
    for v in itertools.product(range(N), repeat=m):
        out.add(tuple(sum(c * row[j] for c, row in zip(v, rows)) % N for j in range(n)))
    return out


def recursive_span(M):
    """The span in the order of the recursive enumerator span_blocks replaced:
    first row_basis generator outermost, one tuple at a time."""
    gens, orders, N = ring.row_basis(M).rows, ring.span_orders(M), M.modulus

    def rec(acc, idx):
        if idx == len(gens):
            yield acc
            return
        for _ in range(orders[idx]):
            yield from rec(acc, idx + 1)
            acc = tuple((a + b) % N for a, b in zip(acc, gens[idx]))

    return list(rec((0,) * M.ncols, 0))


def x_word(d, exps) -> PauliWord:
    """X^exps on len(exps) qudits."""
    return PauliWord(d, tuple(exps), (0,) * len(exps))


def z_word(d, exps) -> PauliWord:
    """Z^exps on len(exps) qudits."""
    return PauliWord(d, (0,) * len(exps), tuple(exps))


def stabilizer_words(C) -> list:
    """C's generators as PauliWords, X type first then Z type: the syndrome
    order."""
    return ([x_word(C.d, row) for row in C.G0.rows]
            + [z_word(C.d, row) for row in C.z_stab.rows])


def logical_words(C) -> tuple:
    """(Xbar, Zbar) of a k = 1 code as PauliWords."""
    return x_word(C.d, C.G1.rows[0]), z_word(C.d, C.z_logical)


def unitary_hierarchy_level(p_table, d, N, l_cap=10):
    """Clifford-hierarchy level of diag(e^{2 pi i p(j)/N}) by explicit complex
    conjugation: U is level l iff X^dag U X U^dag is level l-1, with level-1
    meaning the commutator with X is a scalar matrix (diagonal Pauli test).
    """
    diag = np.exp(2j * np.pi * np.array(p_table) / N)
    for l in range(1, l_cap + 1):
        diag = np.roll(diag, -1) * diag.conj()  # X^dag U X U^dag, still diagonal
        if np.allclose(diag, diag[0]):
            return l
    return None


def min_logical_weight_z(n, d, G0_rows, sigma):
    """Smallest weight of a Z-type logical: exponent vectors v with
    G0 @ v == 0 (commutes with every X stabilizer) and sum(v) != 0 mod d
    (nontrivial logical class, detected by the bare logical X).

    Weight-increasing search over supports; no span machinery anywhere.
    """
    G0 = np.array(G0_rows, dtype=np.int64)
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            cols = G0[:, support]
            exps = np.array(
                list(itertools.product(range(1, d), repeat=w)), dtype=np.int64
            )
            ok = ~((exps @ cols.T) % d).any(axis=1)
            ok &= exps.sum(axis=1) % d != 0
            if ok.any():
                return w
    raise AssertionError("no Z logical found")


def min_logical_weight_x(n, d, Zstab_rows, sigma):
    """Smallest weight of an X-type logical: v with Zstab @ v == 0 and
    sigma . v != 0 mod d (detected by the bare logical Z)."""
    Zs = np.array(Zstab_rows, dtype=np.int64)
    sg = np.array(sigma, dtype=np.int64)
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            cols = Zs[:, support]
            scols = sg[list(support)]
            exps = np.array(
                list(itertools.product(range(1, d), repeat=w)), dtype=np.int64
            )
            ok = ~((exps @ cols.T) % d).any(axis=1)
            ok &= (exps @ scols) % d != 0
            if ok.any():
                return w
    raise AssertionError("no X logical found")


# The class-sum identity of gauge fixing: every colour class of a cell's
# faces sums to the cell's row, so the face outcomes of each class add up to
# the same cell outcome.


def face_color_classes(L, cell) -> list:
    """Partition a cell's faces (indices into the 2-cell list) into C(mu, 2)
    classes, each covering the cell once.

    On a hypercube lattice a face frees two bits, those on which its
    vertices differ, and the faces of the cell that free the same bits form
    one class; classes come in face order.  Any other count of classes, or
    a class that does not cover the cell exactly once, raises ValueError.
    """
    faces = L.cells_of_dim(2)
    classes: dict = {}
    for i, f in enumerate(faces):
        if f.vertices <= cell.vertices:
            free = reduce(operator.or_, f.vertices) ^ reduce(operator.and_, f.vertices)
            classes.setdefault(free, []).append(i)
    k, cover = math.comb(L.mu, 2), sorted(cell.vertices)
    if len(classes) != k or any(sorted(v for i in c for v in faces[i].vertices) != cover
                                for c in classes.values()):
        raise ValueError(f"cell faces admit no partitioning {k}-coloring")
    return list(classes.values())


def reconstruct_cell_outcome(face_outcomes: dict, color_class, d: int) -> int:
    """Sum of face measurement outcomes over one color class, mod d."""
    missing = [f for f in color_class if f not in face_outcomes]
    if missing:
        raise KeyError(f"missing outcomes for faces {missing}")
    return sum(face_outcomes[f] for f in color_class) % d


def class_sums_consistent(face_outcomes: dict, classes, d: int):
    """(consistent, sums): whether all color classes agree on the cell value."""
    sums = [reconstruct_cell_outcome(face_outcomes, cls, d) for cls in classes]
    return len(set(sums)) == 1, sums
