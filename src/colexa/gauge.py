"""Gauge color codes, the star-conjugate Hadamard, and gauge fixing.

The gauge group is generated by X- and Z-type face operators; its center must
reproduce the cell stabilizers.  Every group is a matrix of (x | z) exponent
rows mod d, and commutation is one symplectic product of two such matrices.
Both groups are CSS, so every other group-level question is asked of the X
and Z halves: the center comes from the left kernels of A = face_x face_z^T
and A^T, and span membership is one product with each half's span check.
ring answers each kernel and span check, by an echelon form over F_d at
prime d and a Smith form otherwise, so the checks work for every d.
State-level gauge fixing is simulated with a stabilizer tableau over prime
d: phase exponents live mod d for odd primes and mod 4 for d=2, and every
update is a closed-form exact integer product.  The rows, the destabilizers,
which outcomes are random and every pivot depend on the operations alone;
only the phases depend on the draws, and linearly, so each phase is an
affine form over the draws made so far and a random outcome is a new draw,
not a number (a reference run and its Pauli frame, as in Gidney's Stim).
Destabilizer rows dual to the stabilizer rows, kept through every update,
turn a run of determined measurements into one symplectic product, with no
factorization and no solve, and a random outcome is one rank-one update.
Every other prime-d question (|0_L> bases, destabilizers, canonical form) is
one echelon form over F_d, so the tableau factors nothing; the lex-least
gauge correction is one product with an echelon transform kept on the gauge
code, which its lattice keeps per d.  The gauge code also keeps the fix
demo's forms, so a seed only draws and evaluates; the center and the
reports are recomputed on each check.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ring
from .code import ColorCode, cell_rows, symplectic_phase
from .colex import Lattice, hypercube_lattice
from .reports import Report


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


def _css(X: ring.ResidueMatrix, Z: ring.ResidueMatrix) -> ring.ResidueMatrix:
    """(x | z) exponent rows: the rows of X as X type, then those of Z as Z type."""
    x, z = X.array, Z.array
    return ring.ResidueMatrix(X.modulus, np.block([[x, np.zeros_like(x)],
                                                   [np.zeros_like(z), z]]))


def _outside(X: ring.ResidueMatrix, Z: ring.ResidueMatrix, rows: np.ndarray) -> list:
    """Indices of the canonical (x | z) rows outside rowspan(X) + rowspan(Z):
    those with x outside rowspan(X) or z outside rowspan(Z)."""
    n, out = X.ncols, np.zeros(len(rows), dtype=bool)
    for M, half in ((X, rows[:, :n]), (Z, rows[:, n:])):
        H = ring.span_check(M)
        out |= (half.astype(H.dtype) @ H % M.modulus).any(axis=1)
    return np.flatnonzero(out).tolist()


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
        """(forms, moduli, rows) of the fix demo, from one tableau run on
        first use; prime d only.  From |0_L> and transversal H, gauge_fix
        and the canonical form run once; forms stacks the affine forms of
        everything fix_demo prints (face outcomes, correction, support,
        post outcomes, canonical phases) over the run's draws, each with its
        modulus, and rows holds the canonical (x, z) rows, which no draw
        changes."""
        T = Tableau.zero_logical(self.color_code)
        T.apply_transversal_H(self.star_signs)
        parts = list(gauge_fix(T, self).values())
        canonical, dtype = T.canonical_form(), T._dtype
        parts.append(np.array([phase for _, _, phase in canonical], dtype=dtype))
        moduli = [self.d] * sum(map(len, parts[:-1])) + [T.D] * len(canonical)
        return (_stack(parts, T.draws + 1, dtype), np.array(moduli, dtype=dtype),
                [(x, z) for x, z, _ in canonical])

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
    and Z into it; the witness is the first three rows it maps outside."""
    bad = _outside(X, Z, _hadamard(_css(X, Z).array, star_signs)[0] % X.modulus)
    rep.add(name, not bad, witness=bad[:3] or None)


def verify_H_logical(G: GaugeCode) -> Report:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = Report()
    _preserved(rep, "gauge-group-normalized", G.face_x, G.face_z, G.star_signs)
    _preserved(rep, "stabilizer-group-preserved", G.cell_x, G.cell_z, G.star_signs)

    bars = ring.ResidueMatrix(G.d, (G.bare_logical_x(), G.bare_logical_z())).array
    hx, hz = _hadamard(bars, G.star_signs)[0]
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
# Stabilizer tableau over prime d


class Tableau:
    """Full-rank stabilizer tableau for n qudits of prime dimension d.

    Phase convention: X Z = omega Z X, so Z^a X^b = omega^{-ab} X^b Z^a.
    Row i is omega-tilde^phase_i X^x Z^z, phase mod D (D = d odd, 4 for
    d = 2).  The rows S are an array xz of (x | z) exponents and, since an
    outcome is not fixed until it is drawn, a phase array of affine forms
    over the draws: row i is [c_0, c_1, ..., c_k], the phase
    c_0 + c_1 x_1 + ... + c_k x_k for the k draws x_j made so far (see
    evaluate).  Every Pauli the tableau takes is one row; the destabilizer
    rows destab (D, no phases) satisfy <D_i, S_j> = delta_ij, built once
    from one echelon form and kept dual by every update (after Aaronson &
    Gottesman, and Hostens, Dehaene & De Moor for prime d).  Measurement
    follows the generalized Gottesman update: a generator that
    omega-noncommutes with the observable becomes the pivot; otherwise the
    observable is prod_j S_j^c_j with c = <D, obs>, and the outcome is that
    product's phase.  Every update is linear in the phases, so xz, destab
    and every pivot stay what a tableau drawing numbers would hold.
    """

    def __init__(self, d: int, xz, phase):
        if not ring.is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        r, width = np.shape(xz)
        self.d, self.D, self.n = d, 4 if d == 2 else d, width // 2
        self.scale = self.D // d
        # holds every intermediate of _product and symplectic_phase exactly
        self._dtype = ring.exact_dtype(4 * (r + self.n + 1) * d * d)
        phase = np.array(phase, dtype=self._dtype)  # numbers, or forms
        self.phase = (phase if phase.ndim == 2 else phase.reshape(r, 1)) % self.D
        self.xz = np.array(xz, dtype=self._dtype) % d
        if symplectic_phase(self.xz, self.xz, d).any():
            raise ValueError("tableau rows must pairwise commute")
        self.destab = self._dual()

    @property
    def draws(self) -> int:
        """The number of random outcomes so far, each one draw."""
        return self.phase.shape[1] - 1

    def _dual(self) -> np.ndarray:
        """Destabilizer rows D with <D_i, S_j> = delta_ij, that is D W^T = I
        for W = [z_S | -x_S].  One echelon T W = R has R = I on its pivot
        columns, so D = T^T there and 0 elsewhere; fewer pivots than rows
        means dependent rows."""
        n, r = self.n, len(self.xz)
        _R, T, pivots = ring.echelon_mod_p(np.hstack([self.xz[:, n:], -self.xz[:, :n]]), self.d)
        if len(pivots) < r:
            raise ValueError("tableau rows are not independent")
        D = np.zeros((r, 2 * n), dtype=self._dtype)
        D[:, pivots] = T.T
        return D

    # -- group arithmetic on rows ------------------------------------------
    def _product(self, C: np.ndarray, phase: np.ndarray, xz: np.ndarray):
        """(phase forms, exponents) of prod_j F_j^C[i, j] for every row i of
        C, the factors F_j = (phase[j], xz[j]) taken in order, C in [0, d).

        Z^a X^b = omega^{-ab} X^b Z^a gives the closed form: the phase is
        sum_j c_j phi_j - scale (sum_{j<l} c_j c_l z_j.x_l
        + sum_j C(c_j, 2) z_j.x_j) mod D, the sum taken form column by form
        column and the z.x term constant.  As scale * d = D, the z.x
        products count only mod d.
        """
        d, n = self.d, self.n
        M = (xz[:, n:] @ xz[:, :n].T) % d  # M[j, l] = z_j . x_l
        j = np.arange(len(M))
        cross = (((C @ np.where(j[:, None] < j, M, 0)) % d * C).sum(axis=1)
                 + (C * (C - 1) // 2 % d * M.diagonal()).sum(axis=1))
        forms = C @ phase
        forms[:, 0] -= self.scale * cross
        return forms % self.D, (C @ xz) % d

    def copy(self) -> "Tableau":
        """An independent tableau in the same state."""
        T = copy.copy(self)
        T.phase, T.xz, T.destab = self.phase.copy(), self.xz.copy(), self.destab.copy()
        return T

    @classmethod
    def zero_logical(cls, C: ColorCode) -> "Tableau":
        """The |0_L> tableau: bases of the X cells and of the Z stabilizers
        (the nonzero rows of their echelon forms over F_d), then Zbar."""
        if not ring.is_prime(C.d):
            raise ValueError("tableau simulation requires prime d")
        zero = [0] * C.n
        X, Z = (ring.echelon_mod_p(M.array, C.d)[0].tolist() for M in (C.G0, C.z_stab))
        xz = [r + zero for r in X if any(r)] + [zero + r for r in Z if any(r)]
        xz.append(zero + list(C.z_logical))
        T = cls(C.d, xz, [0] * len(xz))
        if len(xz) != C.n:
            raise ValueError(f"tableau rank {len(xz)} != n {C.n}")
        return T

    # -- state updates -----------------------------------------------------
    def _rows(self, rows) -> np.ndarray:
        """The (x | z) rows as an array mod d; a row without 2n entries raises."""
        for row in rows:
            if len(row) != 2 * self.n:
                raise ValueError(f"observable row has {len(row)} entries, not 2n = {2 * self.n}")
        return np.array(rows, dtype=self._dtype).reshape(len(rows), 2 * self.n) % self.d

    def apply_pauli(self, rows) -> None:
        """Conjugate the state by the Pauli error with (x | z) exponents
        rows: one row, or an affine form over the draws given as one row per
        form column, the constant first; each form column costs one
        symplectic product, and rows pick up phases only."""
        e = self._rows(np.atleast_2d(rows))
        w = len(e)
        self.phase[:, :w] = (self.phase[:, :w]
                             + self.scale * symplectic_phase(e, self.xz, self.d).T) % self.D

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by the transversal Hadamard; each row's phase gains
        sum(x * z) in the tableau's own phase unit."""
        xz, dphi = _hadamard(self.xz, star_signs)
        self.phase[:, 0] = (self.phase[:, 0] + self.scale * dphi) % self.D
        self.xz = xz % self.d
        self.destab = _hadamard(self.destab, star_signs)[0] % self.d

    def measure(self, rows) -> np.ndarray:
        """Measure the generalized Pauli observables with (x | z) exponent
        rows, in order; returns, one row each, the affine form over the
        draws of the k with eigenvalue omega^k, as wide as the draws made by
        the end of the block (mod d; see evaluate).

        One product finds the first row that fails to commute with the
        tableau.  The rows before it are determined and leave the state
        unchanged, so their outcomes come from one more product; that row is
        measured at random, as one new draw, and the rest are tested against
        the new rows.  Outcomes, draws and final state are those of one row
        at a time.
        """
        d, n = self.d, self.n
        obs = self._rows(rows)
        if d == 2 and ((obs[:, :n] * obs[:, n:]).sum(axis=1) % 2).any():
            raise ValueError("at d = 2 only Hermitian observables (even x.z) are measured")
        outcomes = []
        while len(obs):
            coeffs = symplectic_phase(obs, self.xz, d)
            hits = coeffs.any(axis=1).nonzero()[0]
            k = int(hits[0]) if hits.size else len(obs)
            if k:
                outcomes.append(self._determined_outcomes(obs[:k]))
            if k < len(obs):
                self._random_outcome(obs[k], coeffs[k])
                outcomes.append(np.eye(1, self.draws + 1, self.draws, dtype=self._dtype))
            obs = obs[k + 1:]
        return _stack(outcomes, self.draws + 1, self._dtype)

    def _random_outcome(self, obs: np.ndarray, coeffs: np.ndarray) -> None:
        """Measure obs, which fails to commute with the rows where coeffs is
        nonzero: the first of them is the pivot p.  Each row S_i becomes
        S_i S_p^k_i, k_i = -c_i/c_p, commuting with obs, by a rank-one update
        xz += k (x) S_p, phase += k phi_p - scale (k z.x_p + C(k, 2) z_p.x_p)
        (as in _product); row p becomes obs with phase -scale x, x a new
        draw: one more form column.  The destabilizers stay dual: D_i gains
        (e_i/c_p) S_p, D_p is -S_p/c_p."""
        d, n = self.d, self.n
        e = symplectic_phase(self.destab, obs[None], d)[:, 0]
        p = int(coeffs.nonzero()[0][0])
        inv = pow(int(coeffs[p]), -1, d)
        S_p = self.xz[p]
        self.destab = (self.destab + (e * inv % d)[:, None] * S_p) % d
        self.destab[p] = -inv * S_p % d
        k = -coeffs * inv % d
        zx = self.xz[:, n:] @ S_p[:n] % d
        phase = self.phase + k[:, None] * self.phase[p]
        phase[:, 0] -= self.scale * (k * zx + k * (k - 1) // 2 % d * zx[p])
        self.phase = np.hstack([phase % self.D, np.zeros((len(phase), 1), dtype=self._dtype)])
        self.phase[p] = 0
        self.phase[p, -1] = -self.scale % self.D
        self.xz = (self.xz + k[:, None] * S_p) % d
        self.xz[p] = obs

    def _determined_outcomes(self, obs: np.ndarray) -> np.ndarray:
        """Outcome forms of observables that commute with every row: one in
        the group is prod_j S_j^c_j with c_j = <D_j, obs>, so no solve.  The
        first row outside the group or with an unphysical phase raises."""
        phase, xz = self._product(symplectic_phase(self.destab, obs, self.d).T,
                                  self.phase, self.xz)
        outside = (xz != obs).any(axis=1)
        bad = (outside | (phase % self.scale != 0).any(axis=1)).nonzero()[0]
        if bad.size and outside[bad[0]]:
            raise ValueError("observable commutes but is not in the group")
        if bad.size:
            raise ValueError("inconsistent tableau phase (state not physical)")
        return -(phase // self.scale) % self.d

    def canonical_form(self) -> tuple:
        """Unique reduced-echelon presentation of the stabilizer group,
        phase forms included; equal groups give equal forms.  Row i of the
        echelon T xz = R is prod_j S_j^T_ij, all phased in one product: with
        Hermitian rows the group holds no scalar but I, so exponents fix the
        phase."""
        _R, T, pivots = ring.echelon_mod_p(self.xz, self.d)
        phase, xz = self._product(T[:len(pivots)].astype(self._dtype), self.phase, self.xz)
        n = self.n
        return tuple((tuple(v[:n]), tuple(v[n:]), tuple(p))
                     for p, v in zip(phase.tolist(), xz.tolist()))


def _stack(forms: list, width: int, dtype) -> np.ndarray:
    """Affine forms of at most width columns, stacked as one array of that
    width: a form made before the later draws is 0 on them."""
    out = np.zeros((sum(map(len, forms)), width), dtype=dtype)
    i = 0
    for F in forms:
        out[i:i + len(F), :F.shape[1]] = F
        i += len(F)
    return out


def evaluate(forms, draws, modulus) -> np.ndarray:
    """The affine forms at the draws x_1, x_2, ...: row [c_0, ..., c_w] is
    c_0 + c_1 x_1 + ... + c_w x_w mod modulus (one int, or one per row), by
    one exact product; a form narrower than the draws is 0 on the later
    ones."""
    forms = np.asarray(forms)
    w = forms.shape[-1]
    dtype = ring.exact_dtype(w * int(np.max(modulus)) ** 2)
    x = np.array([1, *draws[:w - 1]], dtype=dtype)
    return forms.astype(dtype) @ x % np.asarray(modulus, dtype=dtype)


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
    forms, moduli, rows = G.fix_demo_forms
    rng = random.Random(seed)
    values = evaluate(forms, [rng.randrange(d) for _ in range(forms.shape[1] - 1)], moduli)
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
        "canonical_form": [{"x": list(x), "z": list(z), "phase": phase}
                           for (x, z), phase in zip(rows, phases)],
    }
