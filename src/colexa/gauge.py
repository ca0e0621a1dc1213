"""Gauge color codes, the star-conjugate Hadamard, and gauge fixing.

The gauge group is generated by X- and Z-type face operators; its center must
reproduce the cell stabilizers.  Every group is a matrix of (x | z) exponent
rows mod d, and commutation is one symplectic product of two such matrices.
Both groups are CSS, so every other group-level question is asked of the X
and Z halves: the center comes from the left kernels of A = face_x face_z^T
and A^T, span membership is one product with each half's span check, and
transversal H, which sends each half into the other, preserves a group when
each half's image lies in the other half's span.
ring answers each kernel and span check, by an echelon form over F_d at
prime d and a Smith form otherwise, so the checks work for every d.
State-level gauge fixing runs on CSS states over prime d: every state and
observable of the demo is X-type or Z-type, so the state is an X half and a
Z half, each a reduced echelon form over F_d with the eigenvalue exponent of
every row.  Same-type products carry no phase, so the rows and which
outcomes are random depend on the operations alone; the exponents depend on
the draws, and linearly, so each is an affine form over the draws made so
far and a random outcome is a new draw, not a number (a reference run and
its Pauli frame, as in Gidney's Stim).  A determined outcome is read off the
reduced half with no solve, a random one is one elimination step in each
half, and the |0_L> bases are one echelon form per half, so the state
factors nothing else; the lex-least gauge correction is one product with an
echelon transform kept on the gauge code, which its lattice keeps per d.
The gauge code also keeps the fix demo's forms, so a seed only draws and
evaluates; the center and the reports are recomputed on each check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ring
from .code import ColorCode, cell_rows, symplectic_phase
from .colex import Lattice, hypercube_lattice
from .reports import Report


def _hadamard(xz: np.ndarray, star_signs) -> np.ndarray:
    """The star-conjugate transversal Hadamard on rows of (x | z) exponents:
    x' = -sigma z and z' = sigma x, so unstarred qudits map (x, z) -> (-z, x)
    and starred ones (x, z) -> (z, -x); the exponents are left unreduced."""
    n = xz.shape[1] // 2
    if len(star_signs) != n:
        raise ValueError("star sign length mismatch")
    x, z, s = xz[:, :n], xz[:, n:], np.array(star_signs)
    return np.hstack([-s * z, s * x])


def _css(X: ring.ResidueMatrix, Z: ring.ResidueMatrix) -> ring.ResidueMatrix:
    """(x | z) exponent rows: the rows of X as X type, then those of Z as Z type."""
    x, z = X.array, Z.array
    return ring.ResidueMatrix(X.modulus, np.block([[x, np.zeros_like(x)],
                                                   [np.zeros_like(z), z]]))


def _off_span(M: ring.ResidueMatrix, rows: np.ndarray) -> np.ndarray:
    """Which canonical rows lie outside rowspan(M): one product with its span
    check."""
    H = ring.span_check(M)
    return (rows.astype(H.dtype) @ H % M.modulus).any(axis=1)


def _outside(X: ring.ResidueMatrix, Z: ring.ResidueMatrix, rows: np.ndarray) -> list:
    """Indices of the canonical (x | z) rows outside rowspan(X) + rowspan(Z):
    those with x outside rowspan(X) or z outside rowspan(Z)."""
    n = X.ncols
    return np.flatnonzero(_off_span(X, rows[:, :n]) | _off_span(Z, rows[:, n:])).tolist()


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
        return _css(self.face_x, self.face_z)

    @cached_property
    def correction_system(self) -> tuple:
        """The _correction_system of A = face_x face_z^T, at prime d."""
        return _correction_system(ring.mul_transpose(self.face_x, self.face_z), self.d)

    @cached_property
    def stabilizer_group(self) -> ring.ResidueMatrix:
        """The stabilizer generators as (x | z) rows: X cells, then Z cells."""
        return _css(self.cell_x, self.cell_z)

    @cached_property
    def color_code(self) -> ColorCode:
        """The mu' = mu color code on this code's own cell_x and face_z."""
        ones = ring.ResidueMatrix(self.d, np.ones((1, self.n), dtype=np.int64))
        return ColorCode(self.d, self.n, self.star_signs, self.cell_x, ones, self.face_z)

    @cached_property
    def fix_demo_forms(self) -> tuple:
        """(forms, rows) of the fix demo, from one tableau run on first use;
        prime d only.  From |0_L> and transversal H, gauge_fix and the
        canonical form run once; forms stacks the affine forms, mod d, of
        everything fix_demo prints (face outcomes, correction, support,
        post outcomes, canonical phases: each row's sign omega^-k) over the
        run's draws, and rows holds the canonical (x, z) rows, which no draw
        changes."""
        T = Tableau.zero_logical(self.color_code)
        T.apply_transversal_H(self.star_signs)
        parts = list(gauge_fix(T, self).values())
        canonical = T.canonical_form()
        parts.append(-np.array([k for _, _, k in canonical], dtype=T._dtype) % self.d)
        return _stack(parts, T.draws + 1, T._dtype), [(x, z) for x, z, _ in canonical]

    def bare_logical_x(self) -> tuple:
        """Xbar as (x | z) exponents: X on every qudit."""
        return (1,) * self.n + (0,) * self.n

    def bare_logical_z(self) -> tuple:
        """Zbar as (x | z) exponents: Z^sigma_j on qudit j."""
        return (0,) * self.n + tuple(s % self.d for s in self.star_signs)


def build_gauge_code(L: Lattice, d: int) -> GaugeCode:
    """Face gauge generators plus cell stabilizers from a star-flagged colex,
    built on first use and kept on L per d, like its incidence."""
    if L.mu < 3:
        raise ValueError("gauge color codes need mu >= 3")
    kept = L.__dict__.setdefault("_gauge", {})
    if d in kept:
        return kept[d]
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
    if symplectic_phase(G.stabilizer_group.array, G.gauge_group.array, d).any():
        raise AssertionError("stabilizer fails to commute with gauge group")
    kept[d] = G
    return G


def _center(G: GaugeCode) -> ring.ResidueMatrix:
    """Generators of the gauge group's center modulo phases, as (x | z) rows.
    The gauge Gram matrix is [[0, A], [-A^T, 0]] with A = face_x face_z^T, so
    they are u face_x for u in leftker(A), then v face_z for v in leftker(A^T).
    A is factored first, so at composite d A^T keeps its Smith form,
    transposed, and one Smith form serves both halves."""
    A = ring.ResidueMatrix(G.d, ring.mul_transpose(G.face_x, G.face_z))
    x = ring.ResidueMatrix(G.d, ring.mul_transpose(ring.kernel_mod(A), G.face_x.transpose()))
    z = ring.ResidueMatrix(G.d, ring.mul_transpose(ring.kernel_mod(A.transpose()),
                                                   G.face_z.transpose()))
    return _css(x, z)


def center_equals_stabilizer(G: GaugeCode) -> Report:
    """Is the gauge-group center the cell stabilizer?

    The center is read from the X and Z halves (_center), never from the
    2f x 2f Gram matrix; equality is checked as span membership both ways,
    one product per half with its span check, plus the stabilizer commuting
    with every gauge generator.
    """
    rep = Report()
    gauge, stab = G.gauge_group.array, G.stabilizer_group.array

    missing = _outside(G.cell_x, G.cell_z, _center(G).array)
    rep.add("center-in-stabilizer-span", not missing, witness=missing[:3] or None)

    missing = _outside(G.face_x, G.face_z, stab)
    rep.add("stabilizer-in-gauge-group", not missing, witness=missing[:3] or None)

    bad = [(int(i), int(j)) for i, j in np.argwhere(symplectic_phase(stab, gauge, G.d))]
    rep.add("stabilizer-central", not bad, witness=bad[:3] or None)
    return rep


def _preserved(rep: Report, name: str, X: ring.ResidueMatrix, Z: ring.ResidueMatrix,
               star_signs) -> None:
    """Add the check that transversal H maps every row of the CSS group of X
    and Z into it; the witness is the first three rows it maps outside, X
    rows first, then Z rows numbered from X.nrows.  H sends an X row x to
    the Z row sigma x and a Z row z to the X row -sigma z (see _hadamard),
    so one half's image is checked against the other half's span."""
    s, N = np.array(star_signs), X.modulus
    if len(s) != X.ncols:
        raise ValueError("star sign length mismatch")
    bad = np.flatnonzero(np.concatenate([_off_span(Z, s * X.array % N),
                                         _off_span(X, -s * Z.array % N)])).tolist()
    rep.add(name, not bad, witness=bad[:3] or None)


def verify_H_logical(G: GaugeCode) -> Report:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = Report()
    _preserved(rep, "gauge-group-normalized", G.face_x, G.face_z, G.star_signs)
    _preserved(rep, "stabilizer-group-preserved", G.cell_x, G.cell_z, G.star_signs)

    bars = ring.ResidueMatrix(G.d, (G.bare_logical_x(), G.bare_logical_z())).array
    hx, hz = _hadamard(bars, G.star_signs)
    bad = _outside(G.face_x, G.face_z, np.array([hx - bars[1], hz + bars[0]]) % G.d)
    rep.add("logical-X-to-Z", 0 not in bad, "H(Xbar) = Zbar modulo gauge")
    rep.add("logical-Z-to-X-inverse", 1 not in bad, "H(Zbar) = Xbar^{-1} modulo gauge")
    return rep


def verify_H_stabilizer_code(C: ColorCode) -> Report:
    """Negative control: global transversal H on the plain stabilizer code.

    For mu' != mu - mu' + 2 the image of the Z generators leaves the
    stabilizer group, so preservation is expected to FAIL on 3D codes.
    """
    rep = Report()
    _preserved(rep, "stabilizer-group-preserved", C.G0, C.z_stab, C.star_signs)
    return rep


# --------------------------------------------------------------------------
# CSS stabilizer states over prime d


class Tableau:
    """CSS stabilizer state of n qudits of prime dimension d (Gottesman
    1998; Hostens, Dehaene & De Moor 2005): an X half and a Z half, rows[0]
    and rows[1], each a reduced echelon form over F_d kept square (row j is
    the row with its pivot in column j, or 0), with one affine form per row
    over the draws made so far (forms[t]; see evaluate): the exponent k of
    the row's eigenvalue omega^k.  Same-type products carry no phase, so
    every update is linear in the forms, and a random outcome is a new draw,
    not a number.  The generators xz are X-type or Z-type (x | z) rows, with
    their k (0 by default)."""

    def __init__(self, d: int, xz, values=None):
        if not ring.is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        n = np.shape(xz)[1] // 2
        # holds every product of a row or an observable with a half exactly
        self.d, self.n, self._dtype = d, n, ring.exact_dtype(2 * (n + 1) * d * d)
        kinds, V = self._css(xz)
        if (V[kinds == 0] @ V[kinds == 1].T % d).any():
            raise ValueError("tableau rows must pairwise commute")
        self.rows = [np.zeros((n, n), dtype=self._dtype) for _ in range(2)]
        self.forms = [np.zeros((n, 1), dtype=self._dtype) for _ in range(2)]
        for t, v, k in zip(kinds, V, [0] * len(V) if values is None else values):
            if not self._join(t, v, np.array([int(k) % d], dtype=self._dtype)):
                raise ValueError("tableau rows are not independent")

    @property
    def draws(self) -> int:
        """The number of random outcomes so far, each one draw."""
        return self.forms[0].shape[1] - 1

    @classmethod
    def zero_logical(cls, C: ColorCode) -> "Tableau":
        """The |0_L> state: bases of the X cells and of the Z stabilizers
        (the nonzero rows of their echelon forms over F_d), then Zbar."""
        if not ring.is_prime(C.d):
            raise ValueError("tableau simulation requires prime d")
        zero = [0] * C.n
        X, Z = (ring.echelon_mod_p(M.array, C.d)[0].tolist() for M in (C.G0, C.z_stab))
        xz = [r + zero for r in X if any(r)] + [zero + r for r in Z if any(r)]
        xz.append(zero + list(C.z_logical))
        if len(xz) != C.n:
            raise ValueError(f"tableau rank {len(xz)} != n {C.n}")
        return cls(C.d, xz)

    # -- the halves ----------------------------------------------------------
    def _rows(self, rows) -> np.ndarray:
        """The (x | z) rows as an array mod d; a row without 2n entries raises."""
        for row in rows:
            if len(row) != 2 * self.n:
                raise ValueError(f"observable row has {len(row)} entries, not 2n = {2 * self.n}")
        return np.array(rows, dtype=self._dtype).reshape(len(rows), 2 * self.n) % self.d

    def _css(self, rows) -> tuple:
        """(each row's half, 0 for X-type and 1 for Z-type, and its x or z
        part); a row with both parts nonzero raises."""
        xz = self._rows(rows)
        x, z = xz[:, :self.n], xz[:, self.n:]
        if ((x != 0).any(axis=1) & (z != 0).any(axis=1)).any():
            raise ValueError("a CSS state takes X-type or Z-type rows, not both")
        return (z != 0).any(axis=1).astype(int), x + z

    def _join(self, t: int, v: np.ndarray, form: np.ndarray) -> bool:
        """Reduce v, with its form, by half t and add it there; False, and
        nothing added, when v is in the half's span."""
        d, R, F = self.d, self.rows[t], self.forms[t]
        c = v * R.diagonal()  # v at the pivots
        v, form = (v - c @ R) % d, (form - c @ F) % d
        if not v.any():
            return False
        j = int(v.nonzero()[0][0])
        inv = pow(int(v[j]), -1, d)
        v, form, k = v * inv % d, form * inv % d, R[:, j, None]
        self.rows[t], self.forms[t] = (R - k * v) % d, (F - k * form) % d
        self.rows[t][j], self.forms[t][j] = v, form
        return True

    def _value(self, t: int, v: np.ndarray) -> np.ndarray:
        """The form of the member v of half t: no solve, as the half is
        reduced; v outside its span raises."""
        R = self.rows[t]
        c = v * R.diagonal()
        if ((c @ R - v) % self.d).any():
            raise ValueError("observable commutes but is not in the group")
        return c @ self.forms[t] % self.d

    def _random(self, t: int, v: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Measure v, of half t, which fails to commute with the other half's
        rows where c is nonzero: the last of them, p, leaves, and each row i
        takes row_i - (c_i/c_p) row_p; p has the largest pivot, so the half
        stays reduced.  v joins half t with a new draw, its returned form."""
        d, o = self.d, 1 - t
        p = int(c.nonzero()[0][-1])
        k = (c * pow(int(c[p]), -1, d) % d)[:, None]  # k_p = 1 clears row p
        R, F = self.rows[o], self.forms[o]
        self.rows[o], self.forms[o] = (R - k * R[p]) % d, (F - k * F[p]) % d
        self.forms = [np.hstack([F, np.zeros((self.n, 1), dtype=self._dtype)])
                      for F in self.forms]
        draw = np.eye(1, self.draws + 1, self.draws, dtype=self._dtype)[0]
        self._join(t, v, draw)
        return draw

    # -- state updates -------------------------------------------------------
    def apply_pauli(self, rows) -> None:
        """Conjugate the state by the Pauli error with (x | z) exponents
        rows: one row, or an affine form over the draws given as one row per
        form column, the constant first.  X^a Z^b adds x.b to the k of an X
        row x and -a.z to that of a Z row z."""
        e, n = self._rows(np.atleast_2d(rows)), self.n
        w = len(e)
        for t, sign in ((0, 1), (1, -1)):
            F = self.forms[t]
            F[:, :w] = (F[:, :w] + sign * self.rows[t] @ e[:, (1 - t) * n:(2 - t) * n].T) % self.d

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by the transversal Hadamard (see _hadamard): the halves
        swap, X rows x becoming Z rows sigma x and Z rows z X rows -sigma z,
        with their forms; each pivot entry, now +-1, is rescaled to 1."""
        if len(star_signs) != self.n:
            raise ValueError("star sign length mismatch")
        s, d = np.array(star_signs), self.d
        self.rows, self.forms = [-s * self.rows[1], s * self.rows[0]], self.forms[::-1]
        for t in (0, 1):
            lead = self.rows[t].diagonal()[:, None]  # its own inverse
            self.rows[t], self.forms[t] = self.rows[t] * lead % d, self.forms[t] * lead % d

    def measure(self, rows) -> np.ndarray:
        """Measure the X-type or Z-type observables with (x | z) exponent
        rows, in order; returns, one row each, the form of the k with
        eigenvalue omega^k, as wide as the draws made by the end of the block.
        A row with both parts nonzero raises before anything is measured."""
        outcomes = []
        for t, v in zip(*self._css(rows)):
            c = self.rows[1 - t] @ v % self.d
            outcomes.append(self._random(t, v, c) if c.any() else self._value(t, v))
        return _stack([F[None] for F in outcomes], self.draws + 1, self._dtype)

    def canonical_form(self) -> tuple:
        """The halves as kept, X rows first, with the forms of their k: the
        reduced echelon form of the whole group, so equal states give equal
        forms."""
        zero, out = (0,) * self.n, []
        for t, (R, F) in enumerate(zip(self.rows, self.forms)):
            pivots = R.diagonal() != 0
            for r, f in zip(R[pivots].tolist(), F[pivots].tolist()):
                out.append((tuple(r), zero, tuple(f)) if t == 0 else (zero, tuple(r), tuple(f)))
        return tuple(out)


def _stack(forms: list, width: int, dtype) -> np.ndarray:
    """Affine forms of at most width columns, stacked as one array of that
    width: a form made before the later draws is 0 on them."""
    out = np.zeros((sum(map(len, forms)), width), dtype=dtype)
    i = 0
    for F in forms:
        out[i:i + len(F), :F.shape[1]] = F
        i += len(F)
    return out


def evaluate(forms, draws, modulus: int) -> np.ndarray:
    """The affine forms at the draws x_1, x_2, ...: row [c_0, ..., c_w] is
    c_0 + c_1 x_1 + ... + c_w x_w mod modulus, by one exact product; a form
    narrower than the draws is 0 on the later ones."""
    forms = np.asarray(forms)
    w = forms.shape[-1]
    dtype = ring.exact_dtype(w * modulus ** 2)
    x = np.array([1, *draws[:w - 1]], dtype=dtype)
    return forms.astype(dtype) @ x % modulus


# --------------------------------------------------------------------------
# Gauge fixing


def _correction_system(A: np.ndarray, p: int) -> tuple:
    """(T, pivots, len(A)) of the echelon form T A^T[:, ::-1] = R mod a prime p."""
    if not ring.is_prime(p):
        raise ValueError(f"lex-least solution needs a prime modulus, got {p}")
    _R, T, pivots = ring.echelon_mod_p(A.T[:, ::-1], p)
    return ring.ResidueMatrix(p, T), pivots, len(A)


def _lex_least_solution(system: tuple, target) -> tuple | None:
    """Lexicographically least x with x @ A == target mod p, from the
    _correction_system of A by one product t' = T target: the target column
    of the echelon form of [A^T[:, ::-1] | target], eliminated last.  Past
    the rank, a nonzero t' is a pivot there: no solution.  Otherwise each
    pivot variable is its entry of t' minus multiples of the free variables
    right of it, the earlier x_i; taking x_0, x_1, ... in turn, each is fixed
    by the earlier ones or free and least at 0: every free variable is 0.
    The map is linear, so a target of affine forms, one row per entry, gives
    x as forms, and None unless a solution exists at every draw.
    """
    T, pivots, m = system
    t = T.array @ (np.array(target, dtype=T.array.dtype) % T.modulus) % T.modulus
    if t[len(pivots):].any():
        return None
    x = np.zeros((m,) + t.shape[1:], dtype=t.dtype)
    x[[m - 1 - i for i in pivots]] = t[:len(pivots)]
    return tuple(x.tolist())


def gauge_fix(T: Tableau, G: GaugeCode) -> dict:
    """Measure every Z face, apply the lex-least X-type gauge correction that
    zeroes all face outcomes, and measure the post-checks as one block.

    Mutates T in place; afterwards the tableau should contain the color-code
    stabilizer group with trivial syndrome.  Returns, as affine forms over
    T's draws (mod d, one row each), the face outcomes ("measured"), the
    correction lam ("correction"), its support exponents lam face_x
    ("support") and the post outcomes ("post": faces, X cells, Xbar).
    """
    z_faces = G.gauge_group.array[G.face_x.nrows:]
    outcomes = T.measure(z_faces)

    # want an X-type C with symplectic phase m_f against every Z face
    lam = _lex_least_solution(G.correction_system, outcomes)
    if lam is None:
        raise ValueError("measured face outcomes admit no gauge correction")
    lam = ring.ResidueMatrix(G.d, lam)
    corr = ring.mul_transpose(lam.transpose(), G.face_x.transpose())  # X^corr, per form column
    T.apply_pauli(np.hstack([corr, np.zeros_like(corr)]))

    c = G.cell_x.nrows
    post = T.measure(np.vstack([z_faces, G.stabilizer_group.array[:c], [G.bare_logical_x()]]))
    return {"measured": outcomes, "correction": lam.array, "support": corr.T, "post": post}


def fix_demo(d: int, seed: int) -> dict:
    """The full demo: |0_L>, transversal H, gauge fix, report.

    The tableau ran once per gauge code, on affine forms over its draws
    (GaugeCode.fix_demo_forms); the seed makes those draws, rng.randrange(d)
    in the order the run met them, and one product evaluates every form.
    """
    G = build_gauge_code(hypercube_lattice(3), d)
    forms, rows = G.fix_demo_forms
    rng = random.Random(seed)
    values = evaluate(forms, [rng.randrange(d) for _ in range(forms.shape[1] - 1)], d)
    f, c = G.face_z.nrows, G.cell_x.nrows
    outcomes, lam, corr, post, phases = (
        v.tolist() for v in np.split(values, np.cumsum([f, G.face_x.nrows, G.n, f + c + 1])))
    return {
        "measured": outcomes,
        "correction": lam,
        "correction_support": [j for j, e in enumerate(corr) if e],
        "post": {
            "face_outcomes_zero": not any(post[:f]),
            "cell_x_outcomes_zero": not any(post[f:f + c]),
            "logical_x_plus": post[f + c:] == [0],
        },
        "seed": seed,
        # each row's sign as a power of omega, or of i = omega^(1/2) at d = 2
        "canonical_form": [{"x": list(x), "z": list(z), "phase": phase * (2 if d == 2 else 1)}
                           for (x, z), phase in zip(rows, phases)],
    }
