"""Gauge color codes, the star-conjugate Hadamard, and gauge fixing.

The gauge group is generated by X- and Z-type face operators; its center must
reproduce the cell stabilizers.  Every group is a matrix of (x | z) exponent
rows mod d: commutation is one symplectic product of two such matrices and
span membership one product with a span check, so the group-level checks
work for every d.  State-level gauge fixing is simulated with a stabilizer
tableau over prime d: phase exponents live mod d for odd primes and mod 4 for
d=2, and every update is a closed-form exact integer product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ring
# symplectic_phase is unused here but stays importable as gauge.symplectic_phase,
# which perfbench's tracer test patches as a name shared across modules
from .code import ColorCode, PauliWord, cell_rows, symplectic_phase  # noqa: F401
from .colex import Lattice
from .reports import ValidationReport


def _symplectic(A: np.ndarray, B: np.ndarray, d: int) -> np.ndarray:
    """Entry [i, j] is the c with A_i B_j = omega^c B_j A_i, for rows of
    (x | z) exponents: x_i . z_j - z_i . x_j mod d.  The dtype must hold
    n (d-1)^2."""
    n = A.shape[1] // 2
    return (A[:, :n] @ B[:, n:].T - A[:, n:] @ B[:, :n].T) % d


def _hadamard(xz: np.ndarray, star_signs):
    """The star-conjugate transversal Hadamard on rows of (x | z) exponents:
    x' = -sigma z and z' = sigma x, so unstarred qudits map (x, z) -> (-z, x)
    and starred ones (x, z) -> (z, -x).  Returns the unreduced exponents and
    each row's omega-power sum(x * z), which makes the map a homomorphism
    modulo global phase."""
    n = xz.shape[1] // 2
    if len(star_signs) != n:
        raise ValueError("star sign length mismatch")
    x, z, s = xz[:, :n], xz[:, n:], np.array(star_signs)
    return np.hstack([-s * z, s * x]), (x * z).sum(axis=1)


def _array(M: ring.ResidueMatrix) -> np.ndarray:
    """M's rows as an exact integer array, in a dtype that holds the product
    of a row with any canonical vector."""
    dtype = ring.exact_dtype(M.ncols * (M.modulus - 1) ** 2)
    return np.array(M.rows, dtype=dtype).reshape(M.nrows, M.ncols)


def _css(X: ring.ResidueMatrix, Z: ring.ResidueMatrix, n: int) -> ring.ResidueMatrix:
    """(x | z) exponent rows: the rows of X as X type, then those of Z as Z type."""
    zero = (0,) * n
    return ring._canonical(X.modulus, tuple(r + zero for r in X.rows)
                           + tuple(zero + r for r in Z.rows))


def _outside(M: ring.ResidueMatrix, rows: np.ndarray) -> list:
    """Indices of the canonical rows that are not in rowspan(M), from one
    product with M's span check."""
    H, g = ring.span_check(M, rows.shape[1])
    return np.flatnonzero(((rows.astype(H.dtype) @ H) % g).any(axis=1)).tolist()


@dataclass(frozen=True)
class GaugeCode:
    """Subsystem color code data on a mu >= 3 colex."""

    d: int
    n: int
    star_signs: tuple
    face_x: ring.ResidueMatrix  # X gauge exponents, one row per 2-cell
    face_z: ring.ResidueMatrix  # sigma-signed Z gauge exponents
    cell_x: ring.ResidueMatrix  # X stabilizer exponents, one row per mu-cell
    cell_z: ring.ResidueMatrix  # sigma-signed Z stabilizer exponents

    @cached_property
    def gauge_group(self) -> ring.ResidueMatrix:
        """The gauge generators as (x | z) rows: X faces first, then Z faces."""
        return _css(self.face_x, self.face_z, self.n)

    @cached_property
    def stabilizer_group(self) -> ring.ResidueMatrix:
        """The stabilizer generators as (x | z) rows: X cells, then Z cells."""
        return _css(self.cell_x, self.cell_z, self.n)

    def bare_logical_x(self) -> PauliWord:
        return PauliWord.x_word(self.d, (1,) * self.n)

    def bare_logical_z(self) -> PauliWord:
        return PauliWord.z_word(self.d, tuple(s % self.d for s in self.star_signs))


def build_gauge_code(L: Lattice, d: int) -> GaugeCode:
    """Face gauge generators plus cell stabilizers from a star-flagged colex."""
    if L.mu < 3:
        raise ValueError("gauge color codes need mu >= 3")
    sigma = L.star_signs()
    G = GaugeCode(
        d=d,
        n=len(L.vertex_ids),
        star_signs=sigma,
        face_x=cell_rows(L, 2, d),
        face_z=cell_rows(L, 2, d, sigma),
        cell_x=cell_rows(L, L.mu, d),
        cell_z=cell_rows(L, L.mu, d, sigma),
    )
    if _symplectic(_array(G.stabilizer_group), _array(G.gauge_group), d).any():
        raise AssertionError("stabilizer fails to commute with gauge group")
    return G


def center_equals_stabilizer(G: GaugeCode) -> ValidationReport:
    """Is the gauge-group center the cell stabilizer?

    The center modulo phases is the kernel of the symplectic Gram matrix of
    the gauge generators, applied to them; equality is checked as span
    membership both ways, one span-check product per direction, plus the
    stabilizer commuting with every gauge generator.
    """
    rep = ValidationReport()
    gauge, stab = _array(G.gauge_group), _array(G.stabilizer_group)
    gram = ring._canonical(G.d, tuple(map(tuple, _symplectic(gauge, gauge, G.d).tolist())))
    center = ring.mul_transpose(ring.kernel_mod(gram), G.gauge_group.transpose())

    missing = _outside(G.stabilizer_group, center)
    rep.add("center-in-stabilizer-span", not missing, witness=missing[:3] or None)

    missing = _outside(G.gauge_group, stab)
    rep.add("stabilizer-in-gauge-group", not missing, witness=missing[:3] or None)

    bad = [(int(i), int(j)) for i, j in np.argwhere(_symplectic(stab, gauge, G.d))]
    rep.add("stabilizer-central", not bad, witness=bad[:3] or None)
    return rep


def faces_of_cell(L: Lattice, cell) -> list:
    """Indices (into the 2-cell list) of the faces inside a top cell."""
    return [
        i
        for i, f in enumerate(L.cells_of_dim(2))
        if f.vertices <= cell.vertices
    ]


def face_color_classes(L: Lattice, cell) -> list:
    """Partition a cell's faces into 3 classes, each covering the cell once.

    Faces sharing a vertex must land in different classes; a backtracking
    3-coloring search with the partition requirement finds such classes
    (they exist for colex cells).
    """
    faces = L.cells_of_dim(2)
    idxs = faces_of_cell(L, cell)
    conflict = {
        i: {j for j in idxs if j != i and faces[i].vertices & faces[j].vertices}
        for i in idxs
    }
    assign: dict = {}

    def backtrack(pos: int) -> bool:
        if pos == len(idxs):
            for cls in range(3):
                cover = [v for i in idxs if assign[i] == cls for v in faces[i].vertices]
                if len(cover) != len(cell.vertices) or set(cover) != set(cell.vertices):
                    return False
            return True
        i = idxs[pos]
        for cls in range(3):
            if any(assign.get(j) == cls for j in conflict[i]):
                continue
            assign[i] = cls
            if backtrack(pos + 1):
                return True
            del assign[i]
        return False

    if not backtrack(0):
        raise ValueError("cell faces admit no partitioning 3-coloring")
    return [[i for i in idxs if assign[i] == cls] for cls in range(3)]


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


def _preserved(rep: ValidationReport, name: str, M: ring.ResidueMatrix, star_signs) -> None:
    """Add the check that transversal H maps every row of M into rowspan(M);
    the witness is the first three rows it maps outside."""
    bad = _outside(M, _hadamard(_array(M), star_signs)[0] % M.modulus)
    rep.add(name, not bad, witness=bad[:3] or None)


def verify_H_logical(G: GaugeCode) -> ValidationReport:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = ValidationReport()
    _preserved(rep, "gauge-group-normalized", G.gauge_group, G.star_signs)
    _preserved(rep, "stabilizer-group-preserved", G.stabilizer_group, G.star_signs)

    bars = _array(ring._canonical(G.d, tuple(
        w.x_exp + w.z_exp for w in (G.bare_logical_x(), G.bare_logical_z()))))
    hx, hz = _hadamard(bars, G.star_signs)[0]
    bad = _outside(G.gauge_group, np.array([hx - bars[1], hz + bars[0]]) % G.d)
    rep.add("logical-X-to-Z", 0 not in bad, "H(Xbar) = Zbar modulo gauge")
    rep.add("logical-Z-to-X-inverse", 1 not in bad, "H(Zbar) = Xbar^{-1} modulo gauge")
    return rep


def verify_H_stabilizer_code(C: ColorCode) -> ValidationReport:
    """Negative control: global transversal H on the plain stabilizer code.

    For mu' != mu - mu' + 2 the image of the Z generators leaves the
    stabilizer group, so preservation is expected to FAIL on 3D codes.
    """
    rep = ValidationReport()
    _preserved(rep, "stabilizer-group-preserved", _css(C.G0, C.z_stab, C.n), C.star_signs)
    return rep


# --------------------------------------------------------------------------
# Stabilizer tableau over prime d


@dataclass(frozen=True)
class Row:
    """omega-tilde^phase X^x Z^z with phase mod D (D = d odd, 4 for d=2)."""

    phase: int
    x: tuple
    z: tuple


class Tableau:
    """Full-rank stabilizer tableau for n qudits of prime dimension d.

    Phase convention: X Z = omega Z X, so Z^a X^b = omega^{-ab} X^b Z^a.
    The rows are a phase vector and an array of (x | z) exponents.
    Measurement follows the generalized Gottesman update: a generator that
    omega-noncommutes with the observable becomes the pivot; otherwise the
    outcome is determined by the phase of the matching group element.
    """

    def __init__(self, d: int, rows):
        if not _is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        rows = list(rows)
        self.d = d
        self.D = 4 if d == 2 else d
        self.scale = self.D // d
        self.n = len(rows[0].x) if rows else 0
        # holds every intermediate of _product and _symplectic exactly
        self._dtype = ring.exact_dtype(4 * (len(rows) + self.n + 1) * d * d)
        self.phase = np.array([r.phase % self.D for r in rows], dtype=self._dtype)
        xz = np.array([r.x + r.z for r in rows], dtype=self._dtype)
        self.xz = xz.reshape(len(rows), 2 * self.n) % d
        self._exp = None  # exponent matrix of rows, kept until an x/z part changes
        if _symplectic(self.xz, self.xz, d).any():
            raise ValueError("tableau rows must pairwise commute")

    @property
    def rows(self) -> list:
        n = self.n
        return [Row(p, tuple(v[:n]), tuple(v[n:]))
                for p, v in zip(self.phase.tolist(), self.xz.tolist())]

    def _exponents(self) -> ring.ResidueMatrix:
        """The rows' (x | z) exponents; one factorization serves every
        determined measurement until a row's x/z part changes."""
        if self._exp is None:
            self._exp = ring._canonical(self.d, tuple(map(tuple, self.xz.tolist())))
        return self._exp

    # -- group arithmetic on rows ------------------------------------------
    def _product(self, C: np.ndarray, phase: np.ndarray, xz: np.ndarray):
        """(phases, exponents) of prod_j F_j^C[i, j] for every row i of C, the
        factors F_j = (phase[j], xz[j]) taken in order, C in [0, d).

        Z^a X^b = omega^{-ab} X^b Z^a gives the closed form: the phase is
        sum_j c_j phi_j - scale (sum_{j<l} c_j c_l z_j.x_l
        + sum_j C(c_j, 2) z_j.x_j) mod D.  As scale * d = D, the z.x
        products count only mod d.
        """
        d, n = self.d, self.n
        M = (xz[:, n:] @ xz[:, :n].T) % d  # M[j, l] = z_j . x_l
        cross = (((C @ np.triu(M, 1)) % d * C).sum(axis=1)
                 + (C * (C - 1) // 2 % d * M.diagonal()).sum(axis=1))
        return (C @ phase - self.scale * cross) % self.D, (C @ xz) % d

    def _pivot(self, phase: np.ndarray, xz: np.ndarray, p: int, c: np.ndarray):
        """Row p becomes row_p^(1/c_p) and every other row i becomes
        row_i row_p^(-c_i/c_p), in one closed-form product: a linear function
        of the rows that is c_i on row i becomes 1 on row p and 0 elsewhere.
        For prime d, (r^a)^b = r^(ab mod d) phase included, so this equals
        raising the rescaled pivot row to each power."""
        inv = pow(int(c[p]), -1, self.d)
        k = -c * inv % self.d
        k[p] = inv
        C = np.hstack([np.eye(len(xz), dtype=self._dtype), k[:, None]])
        C[p, p] = 0
        return self._product(C, np.append(phase, phase[p]), np.vstack([xz, xz[p]]))

    @classmethod
    def zero_logical(cls, C: ColorCode) -> "Tableau":
        """The |0_L> tableau: X cells, an independent Z-stabilizer basis, Zbar."""
        rows = [Row(0, r, (0,) * C.n) for r in ring.row_basis(C.G0).rows]
        rows += [Row(0, (0,) * C.n, r) for r in ring.row_basis(C.z_stab).rows]
        rows.append(Row(0, (0,) * C.n, C.z_logical.entries))
        T = cls(C.d, rows)
        if len(rows) != C.n:
            raise ValueError(f"tableau rank {len(rows)} != n {C.n}")
        if ring.span_size(T._exponents()) != C.d ** C.n:
            raise ValueError("tableau rows are not independent")
        return T

    # -- state updates -----------------------------------------------------
    def apply_pauli(self, E: PauliWord) -> None:
        """Conjugate the state by a Pauli error (rows pick up phases only)."""
        e = np.array([E.x_exp + E.z_exp], dtype=self._dtype)
        self.phase = (self.phase + self.scale * _symplectic(e, self.xz, self.d)[0]) % self.D

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by the transversal Hadamard; each row's phase gains
        sum(x * z) in the tableau's own phase unit."""
        xz, dphi = _hadamard(self.xz, star_signs)
        self.phase = (self.phase + self.scale * dphi) % self.D
        self.xz = xz % self.d
        self._exp = None

    def measure(self, P: PauliWord, rng: random.Random) -> int:
        """Measure the generalized Pauli observable P; returns k with
        eigenvalue omega^k.  Deterministic when P commutes with all rows."""
        obs = np.array(P.x_exp + P.z_exp, dtype=self._dtype)
        coeffs = _symplectic(obs[None], self.xz, self.d)[0]
        hits = np.flatnonzero(coeffs)
        if not hits.size:
            return self._determined_outcome(obs)
        # every other row becomes a product that commutes with P; the pivot
        # row is replaced by P with the drawn outcome
        p = int(hits[0])
        self.phase, self.xz = self._pivot(self.phase, self.xz, p, coeffs)
        outcome = rng.randrange(self.d)
        self.phase[p], self.xz[p] = -outcome * self.scale % self.D, obs
        self._exp = None
        return outcome

    def _determined_outcome(self, obs: np.ndarray) -> int:
        sol = ring.solve_left(self._exponents(), obs.tolist())
        if sol is None:
            raise ValueError("observable commutes but is not in the group")
        C = np.array([sol.entries], dtype=self._dtype)
        phase, xz = self._product(C, self.phase, self.xz)
        if not np.array_equal(xz[0], obs):
            raise AssertionError("group element reconstruction failed")
        if phase[0] % self.scale != 0:
            raise ValueError("inconsistent tableau phase (state not physical)")
        return int(-(phase[0] // self.scale) % self.d)

    def canonical_form(self) -> tuple:
        """Unique reduced-echelon presentation of the stabilizer group,
        phases included; equal groups give equal forms."""
        phase, xz, r = self.phase, self.xz, 0
        for col in range(2 * self.n):
            hits = np.flatnonzero(xz[r:, col])
            if not hits.size:
                continue
            order = np.arange(len(xz))
            order[[r, r + hits[0]]] = order[[r + hits[0], r]]
            phase, xz = self._pivot(phase[order], xz[order], r, xz[order, col])
            r += 1
        n = self.n
        return tuple((tuple(v[:n]), tuple(v[n:]), p)
                     for p, v in zip(phase[:r].tolist(), xz[:r].tolist()))


def _is_prime(d: int) -> bool:
    return d >= 2 and all(d % p for p in range(2, int(d**0.5) + 1))


# --------------------------------------------------------------------------
# Gauge fixing


def _lex_least_solution(A: ring.ResidueMatrix, target) -> ring.ResidueVector | None:
    """Lexicographically least x with x @ A == target, for a prime modulus.

    The solutions are x0 + ker(A).  Eliminating column by column through the
    left kernel's rows zeroes x0 at every kernel pivot column; any other
    solution first differs from the result at a pivot column, where it is
    nonzero, so the result is the least.
    """
    p = A.modulus
    if not _is_prime(p):
        raise ValueError(f"lex-least solution needs a prime modulus, got {p}")
    sol = ring.solve_left(A, target)
    if sol is None:
        return None
    x = list(sol.entries)
    rows = [list(r) for r in ring.kernel_mod(A).rows]
    for col in range(len(x)):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[col], -1, p)
        for v in rows + [x]:
            c = v[col] * inv % p
            v[:] = [(a - c * b) % p for a, b in zip(v, piv)]
    return ring.ResidueVector(p, tuple(x))


def gauge_fix(T: Tableau, G: GaugeCode, rng: random.Random) -> dict:
    """Measure every Z face, apply the lex-least X-type gauge correction that
    zeroes all face outcomes, and report the correction log.

    Mutates T in place; afterwards the tableau should contain the color-code
    stabilizer group with trivial syndrome.
    """
    d = G.d
    outcomes = []
    for zrow in G.face_z.rows:
        outcomes.append(T.measure(PauliWord.z_word(d, zrow), rng))

    # want an X-type C with symplectic phase m_f against every Z face
    A = ring.ResidueMatrix(d, ring.mul_transpose(G.face_x, G.face_z).tolist())
    lam = _lex_least_solution(A, outcomes)
    if lam is None:
        raise ValueError("measured face outcomes admit no gauge correction")
    corr = ring.mat_vec_mul(G.face_x, lam.entries)
    T.apply_pauli(PauliWord.x_word(d, corr.entries))

    post = {
        "face_outcomes_zero": all(
            T.measure(PauliWord.z_word(d, zr), rng) == 0 for zr in G.face_z.rows
        ),
        "cell_x_outcomes_zero": all(
            T.measure(PauliWord.x_word(d, xr), rng) == 0 for xr in G.cell_x.rows
        ),
        "logical_x_plus": T.measure(G.bare_logical_x(), rng) == 0,
    }
    return {
        "measured": outcomes,
        "correction": list(lam.entries),
        "correction_support": [j for j, e in enumerate(corr.entries) if e],
        "post": post,
    }


def fix_demo(d: int, seed: int) -> dict:
    """The full §-style demo: |0_L>, transversal H, gauge fix, report."""
    from .colex import build_tetrahedral

    L, C = build_tetrahedral(d)
    G = build_gauge_code(L, d)
    rng = random.Random(seed)
    T = Tableau.zero_logical(C)
    T.apply_transversal_H(L.star_signs())
    log = gauge_fix(T, G, rng)
    log["seed"] = seed
    log["canonical_form"] = [
        {"x": list(x), "z": list(z), "phase": phase}
        for x, z, phase in T.canonical_form()
    ]
    return log
