"""Gauge color codes, the star-conjugate Hadamard, and gauge fixing.

The gauge group is generated by X- and Z-type face operators; its center must
reproduce the cell stabilizers.  Group-level checks (span membership of
symplectic exponent vectors) work for every d.  State-level gauge fixing is
simulated with a stabilizer tableau over prime d: phase exponents live mod d
for odd primes and mod 4 for d=2, and all updates are exact integer
arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import ring
# symplectic_phase is unused here but stays importable as gauge.symplectic_phase,
# which perfbench's tracer test patches as a name shared across modules
from .code import ColorCode, PauliWord, cell_rows, symplectic_phase  # noqa: F401
from .colex import Lattice
from .reports import ValidationReport


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

    def gauge_gens(self) -> list:
        """All gauge generators: X faces first, then Z faces."""
        return [PauliWord.x_word(self.d, r) for r in self.face_x.rows] + [
            PauliWord.z_word(self.d, r) for r in self.face_z.rows
        ]

    def stab_gens(self) -> list:
        return [PauliWord.x_word(self.d, r) for r in self.cell_x.rows] + [
            PauliWord.z_word(self.d, r) for r in self.cell_z.rows
        ]

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
    if _phase_matrix(G.stab_gens(), G.gauge_gens(), d).any():
        raise AssertionError("stabilizer fails to commute with gauge group")
    return G


def _symplectic_rows(words, d: int) -> ring.ResidueMatrix:
    return ring.ResidueMatrix(d, tuple(w.x_exp + w.z_exp for w in words))


def _phase_matrix(A: list, B: list, d: int) -> np.ndarray:
    """Entry [i, j] is symplectic_phase(A[i], B[j]), as one Z_d product:
    (x_a | z_a) . (z_b | -x_b) = x_a . z_b - x_b . z_a."""
    twisted = ring.ResidueMatrix(
        d, tuple(w.z_exp + tuple(-e for e in w.x_exp) for w in B)
    )
    return ring.mul_transpose(_symplectic_rows(A, d), twisted)


def center_equals_stabilizer(G: GaugeCode):
    """(verdict, report): is the gauge-group center the cell stabilizer?

    The center modulo phases is the kernel of the symplectic Gram matrix of
    the gauge generators; equality is checked as mutual span membership of
    exponent vectors plus stabilizer membership in the gauge group.
    """
    rep = ValidationReport()
    gens = G.gauge_gens()
    gram = ring.ResidueMatrix(G.d, _phase_matrix(gens, gens, G.d).tolist())
    combos = ring.kernel_mod(gram)
    gen_mat = _symplectic_rows(gens, G.d)
    center = ring.ResidueMatrix(
        G.d,
        tuple(ring.mat_vec_mul(gen_mat, v).entries for v in combos.rows) or ((0,) * (2 * G.n),),
    )
    stabs = G.stab_gens()
    stab_mat = _symplectic_rows(stabs, G.d)

    missing = [i for i, c in enumerate(center.rows) if not ring.in_rowspan(stab_mat, c)]
    rep.add("center-in-stabilizer-span", not missing, witness=missing[:3] or None)

    missing = [i for i, s in enumerate(stab_mat.rows) if not ring.in_rowspan(gen_mat, s)]
    rep.add("stabilizer-in-gauge-group", not missing, witness=missing[:3] or None)

    bad = [(int(i), int(j)) for i, j in np.argwhere(_phase_matrix(stabs, gens, G.d))]
    rep.add("stabilizer-central", not bad, witness=bad[:3] or None)
    return rep.ok, rep


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


def transversal_H_action(W: PauliWord, star_signs) -> PauliWord:
    """Symplectic action of the star-conjugate transversal Hadamard.

    Unstarred qudits: (x, z) -> (-z, x); starred: (x, z) -> (z, -x); the
    omega-phase picks up x*z per qudit so the map is a homomorphism modulo
    global phase.
    """
    if len(star_signs) != W.n:
        raise ValueError("star sign length mismatch")
    xs, zs = [], []
    dphi = 0
    for x, z, s in zip(W.x_exp, W.z_exp, star_signs):
        dphi += x * z
        if s == 1:
            xs.append(-z)
            zs.append(x)
        else:
            xs.append(z)
            zs.append(-x)
    return PauliWord(W.d, tuple(xs), tuple(zs), W.phase_exp + dphi)


def verify_H_logical(G: GaugeCode) -> ValidationReport:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = ValidationReport()
    gens = G.gauge_gens()
    gen_mat = _symplectic_rows(gens, G.d)
    stab_mat = _symplectic_rows(G.stab_gens(), G.d)

    def vec(w: PauliWord):
        return w.x_exp + w.z_exp

    bad = [
        i
        for i, g in enumerate(gens)
        if not ring.in_rowspan(gen_mat, vec(transversal_H_action(g, G.star_signs)))
    ]
    rep.add("gauge-group-normalized", not bad, witness=bad[:3] or None)

    bad = [
        i
        for i, s in enumerate(G.stab_gens())
        if not ring.in_rowspan(stab_mat, vec(transversal_H_action(s, G.star_signs)))
    ]
    rep.add("stabilizer-group-preserved", not bad, witness=bad[:3] or None)

    xbar, zbar = G.bare_logical_x(), G.bare_logical_z()
    hx = transversal_H_action(xbar, G.star_signs)
    diff = tuple((a - b) % G.d for a, b in zip(vec(hx), vec(zbar)))
    ok_x = all(e == 0 for e in diff) or ring.in_rowspan(gen_mat, diff)
    rep.add("logical-X-to-Z", ok_x, "H(Xbar) = Zbar modulo gauge")

    hz = transversal_H_action(zbar, G.star_signs)
    xinv = tuple((-e) % G.d for e in vec(xbar))
    diff = tuple((a - b) % G.d for a, b in zip(vec(hz), xinv))
    ok_z = all(e == 0 for e in diff) or ring.in_rowspan(gen_mat, diff)
    rep.add("logical-Z-to-X-inverse", ok_z, "H(Zbar) = Xbar^{-1} modulo gauge")
    return rep


def verify_H_stabilizer_code(C: ColorCode) -> ValidationReport:
    """Negative control: global transversal H on the plain stabilizer code.

    For mu' != mu - mu' + 2 the image of the Z generators leaves the
    stabilizer group, so preservation is expected to FAIL on 3D codes.
    """
    rep = ValidationReport()
    stabs = C.stabilizer_words()
    stab_mat = _symplectic_rows(stabs, C.d)
    bad = [
        i
        for i, s in enumerate(stabs)
        if not ring.in_rowspan(
            stab_mat,
            (lambda w: w.x_exp + w.z_exp)(transversal_H_action(s, C.star_signs)),
        )
    ]
    rep.add("stabilizer-group-preserved", not bad, witness=bad[:3] or None)
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
    Measurement follows the generalized Gottesman update: a generator that
    omega-noncommutes with the observable becomes the pivot; otherwise the
    outcome is determined by the phase of the matching group element.
    """

    def __init__(self, d: int, rows):
        if not _is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        self.d = d
        self.D = 4 if d == 2 else d
        self.scale = self.D // d
        self.rows = [Row(r.phase % self.D, r.x, r.z) for r in rows]
        self.n = len(self.rows[0].x) if self.rows else 0
        self._exp = None  # exponent matrix of rows, kept until an x/z part changes
        # entry [i, j] is _sp(row_i, row_j): (x_i | z_i) . (z_j | -x_j)
        twisted = ring.ResidueMatrix(d, tuple(r.z + tuple(-e for e in r.x) for r in self.rows))
        if ring.mul_transpose(self._exponents(), twisted).any():
            raise ValueError("tableau rows must pairwise commute")

    # -- group arithmetic on rows ------------------------------------------
    def _sp(self, a, b) -> int:
        return (
            sum(ax * bz - bx * az for ax, az, bx, bz in zip(a.x, a.z, b.x, b.z))
            % self.d
        )

    def _mul(self, a: Row, b: Row) -> Row:
        cross = sum(az * bx for az, bx in zip(a.z, b.x))
        return Row(
            (a.phase + b.phase - self.scale * cross) % self.D,
            tuple((ax + bx) % self.d for ax, bx in zip(a.x, b.x)),
            tuple((az + bz) % self.d for az, bz in zip(a.z, b.z)),
        )

    def _exponents(self) -> ring.ResidueMatrix:
        """The rows' (x | z) exponents; one factorization serves every
        determined measurement until a row's x/z part changes."""
        if self._exp is None:
            self._exp = ring.ResidueMatrix(self.d, tuple(r.x + r.z for r in self.rows))
        return self._exp

    def _pow(self, a: Row, k: int) -> Row:
        out = Row(0, (0,) * self.n, (0,) * self.n)
        for _ in range(k % self.d):
            out = self._mul(out, a)
        return out

    @classmethod
    def zero_logical(cls, C: ColorCode) -> "Tableau":
        """The |0_L> tableau: X cells, an independent Z-stabilizer basis, Zbar."""
        rows = [Row(0, r, (0,) * C.n) for r in ring.row_basis(C.G0).rows]
        rows += [Row(0, (0,) * C.n, r) for r in ring.row_basis(C.z_stab).rows]
        rows.append(Row(0, (0,) * C.n, C.z_logical.entries))
        T = cls(C.d, rows)
        if len(T.rows) != C.n:
            raise ValueError(f"tableau rank {len(T.rows)} != n {C.n}")
        if ring.span_size(T._exponents()) != C.d ** C.n:
            raise ValueError("tableau rows are not independent")
        return T

    # -- state updates -----------------------------------------------------
    def apply_pauli(self, E: PauliWord) -> None:
        """Conjugate the state by a Pauli error (rows pick up phases only)."""
        e = Row(0, E.x_exp, E.z_exp)
        self.rows = [
            Row((r.phase + self.scale * self._sp(e, r)) % self.D, r.x, r.z)
            for r in self.rows
        ]

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by transversal_H_action; the phase gains sum(x*z) in
        the tableau's own phase unit."""
        new = []
        for r in self.rows:
            h = transversal_H_action(PauliWord(self.d, r.x, r.z), star_signs)
            dphi = sum(x * z for x, z in zip(r.x, r.z))
            new.append(Row((r.phase + self.scale * dphi) % self.D, h.x_exp, h.z_exp))
        self.rows = new
        self._exp = None

    def measure(self, P: PauliWord, rng: random.Random) -> int:
        """Measure the generalized Pauli observable P; returns k with
        eigenvalue omega^k.  Deterministic when P commutes with all rows."""
        obs = Row(0, P.x_exp, P.z_exp)
        coeffs = [self._sp(obs, r) for r in self.rows]
        pivot = next((i for i, c in enumerate(coeffs) if c), None)
        if pivot is None:
            return self._determined_outcome(obs)
        # rescale the pivot so it omega-anticommutes exactly once
        inv = pow(coeffs[pivot], -1, self.d)
        prow = self._pow(self.rows[pivot], inv)
        for i, c in enumerate(coeffs):
            if i != pivot and c:
                self.rows[i] = self._mul(self.rows[i], self._pow(prow, (-c) % self.d))
        outcome = rng.randrange(self.d)
        self.rows[pivot] = Row((-outcome * self.scale) % self.D, obs.x, obs.z)
        self._exp = None
        return outcome

    def _determined_outcome(self, obs: Row) -> int:
        sol = ring.solve_left(self._exponents(), obs.x + obs.z)
        if sol is None:
            raise ValueError("observable commutes but is not in the group")
        g = Row(0, (0,) * self.n, (0,) * self.n)
        for coeff, r in zip(sol.entries, self.rows):
            if coeff:
                g = self._mul(g, self._pow(r, coeff))
        if (g.x, g.z) != (obs.x, obs.z):
            raise AssertionError("group element reconstruction failed")
        if g.phase % self.scale != 0:
            raise ValueError("inconsistent tableau phase (state not physical)")
        return (-(g.phase // self.scale)) % self.d

    def canonical_form(self) -> tuple:
        """Unique reduced-echelon presentation of the stabilizer group,
        phases included; equal groups give equal forms."""
        rows = list(self.rows)
        r = 0
        for col in range(2 * self.n):
            def entry(row):
                return (row.x + row.z)[col]

            piv = next((i for i in range(r, len(rows)) if entry(rows[i])), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = self._pow(rows[r], pow(entry(rows[r]), -1, self.d))
            for i in range(len(rows)):
                if i != r and entry(rows[i]):
                    rows[i] = self._mul(
                        rows[i], self._pow(rows[r], (-entry(rows[i])) % self.d)
                    )
            r += 1
        return tuple((row.x, row.z, row.phase) for row in rows[:r])


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
