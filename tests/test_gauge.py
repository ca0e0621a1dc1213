"""gauge: subsystem structure, transversal Hadamard, tableau gauge fixing."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexa import colex, gauge, ring
from colexa.code import PauliWord, symplectic_phase, syndrome
from colexa.reports import ValidationReport
from oracles import logical_words, stabilizer_words


@pytest.fixture(scope="module")
def tetra3():
    L, C = colex.build_tetrahedral(3)
    return L, C, gauge.build_gauge_code(L, 3)


def test_generator_counts(tetra3):
    _, _, G = tetra3
    assert G.gauge_group.nrows == 36  # 18 faces x 2 types
    assert G.stabilizer_group.nrows == 8  # 4 cells x 2 types
    # the exponent matrices are the word lists' rows, in the same order
    assert G.gauge_group.rows == tuple(w.x_exp + w.z_exp for w in gauge_gens(G))
    assert G.stabilizer_group.rows == tuple(w.x_exp + w.z_exp for w in stab_gens(G))


def test_gauge_group_is_nonabelian(tetra3):
    _, _, G = tetra3
    gens = gauge_gens(G)
    assert any(
        symplectic_phase(a, b) != 0
        for a in gens
        for b in gens
    )


def test_mu2_rejected():
    L, _ = colex.build_triangle_2d(3, 3)
    with pytest.raises(ValueError):
        gauge.build_gauge_code(L, 3)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_center_equals_stabilizer(d):
    L, _ = colex.build_tetrahedral(d)
    G = gauge.build_gauge_code(L, d)
    rep = gauge.center_equals_stabilizer(G)
    assert rep.ok, rep.to_dict()


def test_deleted_face_is_redundant(tetra3):
    # every face row lies in the span of the remaining 17, so dropping one
    # leaves the gauge group (and its center) unchanged
    _, _, G = tetra3
    assert in_rowspan(ring.ResidueMatrix(G.d, G.face_x.rows[1:]), G.face_x.rows[0])
    crippled = gauge.GaugeCode(
        d=G.d,
        n=G.n,
        star_signs=G.star_signs,
        face_x=ring.ResidueMatrix(G.d, G.face_x.rows[1:]),
        face_z=ring.ResidueMatrix(G.d, G.face_z.rows[1:]),
        cell_x=G.cell_x,
        cell_z=G.cell_z,
    )
    assert gauge.center_equals_stabilizer(crippled).ok


def test_corrupted_stabilizer_breaks_center(tetra3):
    # replace one cell stabilizer with a single-qudit X: it is neither in the
    # gauge span nor central, and the center check must flag all three legs
    _, _, G = tetra3
    bad_row = (1,) + (0,) * (G.n - 1)
    corrupted = gauge.GaugeCode(
        d=G.d,
        n=G.n,
        star_signs=G.star_signs,
        face_x=G.face_x,
        face_z=G.face_z,
        cell_x=ring.ResidueMatrix(G.d, (bad_row,) + G.cell_x.rows[1:]),
        cell_z=G.cell_z,
    )
    rep = gauge.center_equals_stabilizer(corrupted)
    assert not rep.ok
    failed = {c.name for c in rep.failures()}
    assert "stabilizer-in-gauge-group" in failed
    assert "stabilizer-central" in failed
    # the product-based witness is the first three pairs of the pairwise loop
    pairwise = [
        (i, j)
        for i, s in enumerate(stab_gens(corrupted))
        for j, g in enumerate(gauge_gens(corrupted))
        if symplectic_phase(s, g) != 0
    ]
    central = next(c for c in rep.checks if c.name == "stabilizer-central")
    assert central.witness == pairwise[:3]


def test_H_action_on_cells(tetra3):
    L, C, G = tetra3
    sg = G.star_signs
    for xrow, zrow in zip(G.cell_x.rows, G.cell_z.rows):
        mapped = oracle_transversal_H_action(PauliWord.x_word(3, xrow), sg)
        assert mapped.x_exp == (0,) * 15 and mapped.z_exp == zrow
        back = oracle_transversal_H_action(PauliWord.z_word(3, zrow), sg)
        assert back.z_exp == (0,) * 15
        assert back.x_exp == tuple((-e) % 3 for e in xrow)


def test_H_action_on_logicals(tetra3):
    _, _, G = tetra3
    hx = oracle_transversal_H_action(G.bare_logical_x(), G.star_signs)
    zbar = G.bare_logical_z()
    assert (hx.x_exp, hx.z_exp) == (zbar.x_exp, zbar.z_exp)
    hz = oracle_transversal_H_action(zbar, G.star_signs)
    assert (hz.x_exp, hz.z_exp) == (tuple((-1) % 3 for _ in range(15)), (0,) * 15)


def test_H_fourth_power_identity():
    for d in (2, 3, 5, 6):
        L, _ = colex.build_tetrahedral(d)
        sg = L.star_signs()
        rng = random.Random(d)
        for _ in range(10):
            W = PauliWord(
                d,
                tuple(rng.randrange(d) for _ in range(15)),
                tuple(rng.randrange(d) for _ in range(15)),
            )
            out = W
            for _ in range(4):
                out = oracle_transversal_H_action(out, sg)
            assert (out.x_exp, out.z_exp) == (W.x_exp, W.z_exp)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_H_preserves_symplectic_phases(data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    sg = tuple(data.draw(st.sampled_from([1, -1])) for _ in range(6))
    words = []
    for _ in range(2):
        words.append(
            PauliWord(
                d,
                tuple(data.draw(st.integers(0, d - 1)) for _ in range(6)),
                tuple(data.draw(st.integers(0, d - 1)) for _ in range(6)),
            )
        )
    a, b = words
    ha = oracle_transversal_H_action(a, sg)
    hb = oracle_transversal_H_action(b, sg)
    assert symplectic_phase(ha, hb) == symplectic_phase(a, b)


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_verify_H_logical(d):
    L, _ = colex.build_tetrahedral(d)
    G = gauge.build_gauge_code(L, d)
    assert gauge.verify_H_logical(G).ok


@pytest.mark.parametrize("d", [2, 3, 5])
def test_negative_control_stabilizer_code(d):
    _, C = colex.build_tetrahedral(d)
    rep = gauge.verify_H_stabilizer_code(C)
    assert not rep.ok  # global H does not preserve the 3D stabilizer code


def test_face_color_classes(tetra3):
    L, _, _ = tetra3
    faces = L.cells_of_dim(2)
    for cell in L.cells_of_dim(3):
        classes = gauge.face_color_classes(L, cell)
        assert sorted(len(c) for c in classes) == [2, 2, 2]
        for cls in classes:
            cover = sorted(v for i in cls for v in faces[i].vertices)
            assert cover == sorted(cell.vertices)


def test_reconstruction_consistency_random_errors(tetra3):
    L, C, G = tetra3
    classes_by_cell = [
        gauge.face_color_classes(L, c) for c in L.cells_of_dim(3)
    ]
    rng = random.Random(0)
    for _ in range(100):
        E = PauliWord(
            3,
            tuple(rng.randrange(3) for _ in range(15)),
            tuple(rng.randrange(3) for _ in range(15)),
        )
        T = gauge.Tableau.zero_logical(C)
        T.apply_pauli(E)
        outs = {
            fi: T.measure(PauliWord.x_word(3, xr), rng)
            for fi, xr in enumerate(G.face_x.rows)
        }
        syn = syndrome(C, E)
        for ci, classes in enumerate(classes_by_cell):
            consistent, sums = gauge.class_sums_consistent(outs, classes, 3)
            assert consistent
            assert sums[0] == syn[ci]


def test_reconstruction_flags_injected_fault(tetra3):
    L, _, _ = tetra3
    classes = gauge.face_color_classes(L, L.cells_of_dim(3)[0])
    outs = {f: 0 for cls in classes for f in cls}
    outs[classes[0][0]] = 1
    consistent, _ = gauge.class_sums_consistent(outs, classes, 3)
    assert not consistent
    with pytest.raises(KeyError):
        gauge.reconstruct_cell_outcome({}, classes[0], 3)


def test_tableau_requires_prime_d():
    with pytest.raises(ValueError):
        gauge.Tableau(4, [])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tableau_rejects_noncommuting_rows(d):
    # X0 X1 and Z0 Z1^(d-1) commute (phase 1 + (d-1) = 0 mod d); X0 does not
    # commute with the second, and that one pair is enough
    xx = gauge.Row(0, (1, 1), (0, 0))
    zz = gauge.Row(0, (0, 0), (1, d - 1))
    x0 = gauge.Row(0, (1, 0), (0, 0))
    with pytest.raises(ValueError, match="pairwise commute"):
        gauge.Tableau(d, [xx, zz, x0])
    assert len(gauge.Tableau(d, [xx, zz]).rows) == 2
    assert gauge.Tableau(d, []).rows == []


def test_tableau_measure_stabilizer_deterministic(tetra3):
    _, C, _ = tetra3
    T = gauge.Tableau.zero_logical(C)
    rng = random.Random(5)
    for g in stabilizer_words(C):
        # codeword(0) state: every stabilizer and Zbar give outcome 0
        assert T.measure(g, rng) == 0
    assert T.measure(logical_words(C)[1], rng) == 0


def test_tableau_measurement_repeatable(tetra3):
    _, C, _ = tetra3
    T = gauge.Tableau.zero_logical(C)
    rng = random.Random(5)
    xbar = logical_words(C)[0]
    first = T.measure(xbar, rng)  # random outcome, collapses the state
    assert T.measure(xbar, rng) == first  # now determined


def test_gauge_fix_identity_on_fixed_state(tetra3):
    _, C, G = tetra3
    T = gauge.Tableau.zero_logical(C)
    # Z faces are already stabilizers of |0_L>, so nothing to correct... but
    # fixing maps the state consistently: measured outcomes and correction 0
    log = gauge.gauge_fix(T, G, random.Random(0))
    assert log["measured"] == [0] * 18
    assert log["correction"] == [0] * 18


def test_gauge_fix_demo_deterministic_across_seeds(tetra3):
    L, C, G = tetra3
    forms = set()
    for seed in range(20):
        T = gauge.Tableau.zero_logical(C)
        T.apply_transversal_H(L.star_signs())
        log = gauge.gauge_fix(T, G, random.Random(seed))
        assert all(log["post"].values()), (seed, log)
        forms.add(T.canonical_form())
    assert len(forms) == 1


def test_gauge_fix_final_state_is_color_code_plus(tetra3):
    L, C, G = tetra3
    T = gauge.Tableau.zero_logical(C)
    T.apply_transversal_H(L.star_signs())
    gauge.gauge_fix(T, G, random.Random(1))
    rng = random.Random(2)
    for g in stabilizer_words(C):
        assert T.measure(g, rng) == 0
    assert T.measure(logical_words(C)[0], rng) == 0


def test_fix_demo_rejects_nonprime():
    with pytest.raises(ValueError):
        gauge.fix_demo(4, 0)


def greedy_lex_least(A, target):
    """Reference lex-least solver: fix x_0, x_1, ... to the least value that
    keeps the rest of the system solvable (one solve per candidate value)."""
    N = A.modulus
    rest = list(A.rows)
    t = [e % N for e in target]
    chosen = []
    for _ in range(A.nrows):
        head, rest = rest[0], rest[1:]
        sub = ring.ResidueMatrix(N, tuple(rest) or ((0,) * A.ncols,))
        for val in range(N):
            t2 = [(e - val * h) % N for e, h in zip(t, head)]
            if ring.solve_left(sub, t2) is not None:
                chosen.append(val)
                t = t2
                break
        else:
            return None
    return tuple(chosen)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(1, 5),
    c=st.integers(1, 5),
    solvable=st.booleans(),
    data=st.data(),
)
def test_lex_least_matches_greedy(p, r, c, solvable, data):
    rows = tuple(
        tuple(data.draw(st.integers(0, p - 1)) for _ in range(c)) for _ in range(r)
    )
    A = ring.ResidueMatrix(p, rows)
    if solvable:
        x = [data.draw(st.integers(0, p - 1)) for _ in range(r)]
        target = ring.mat_vec_mul(A, x).entries
    else:
        target = tuple(data.draw(st.integers(0, p - 1)) for _ in range(c))
    got = gauge._lex_least_solution(A, target)
    expected = greedy_lex_least(A, target)
    assert (got.entries if got is not None else None) == expected
    if solvable:
        assert got is not None


def test_lex_least_on_gauge_system(tetra3):
    _, _, G = tetra3
    A = ring.ResidueMatrix(3, ring.mul_transpose(G.face_x, G.face_z).tolist())
    rng = random.Random(7)
    for _ in range(5):
        target = ring.mat_vec_mul(A, [rng.randrange(3) for _ in range(A.nrows)]).entries
        assert gauge._lex_least_solution(A, target).entries == greedy_lex_least(A, target)


def test_lex_least_rejects_composite_modulus():
    with pytest.raises(ValueError):
        gauge._lex_least_solution(ring.ResidueMatrix(4, ((1, 2),)), (1, 2))


# --------------------------------------------------------------------------
# Oracles: the word-by-word gauge layer as it was before the exponent-matrix
# rewrite, kept verbatim but for names (the generator lists take G as an
# argument): PauliWord generator lists, the group checks with one in_rowspan
# solve per row, and the tableau with _sp, _mul and _pow by repeated _mul.


def in_rowspan(M: ring.ResidueMatrix, w) -> bool:
    """Whether w lies in the Z_N-row-span of M, by one linear solve."""
    return ring.solve_left(M, w) is not None


def gauge_gens(G) -> list:
    """All gauge generators: X faces first, then Z faces."""
    return [PauliWord.x_word(G.d, r) for r in G.face_x.rows] + [
        PauliWord.z_word(G.d, r) for r in G.face_z.rows
    ]


def stab_gens(G) -> list:
    return [PauliWord.x_word(G.d, r) for r in G.cell_x.rows] + [
        PauliWord.z_word(G.d, r) for r in G.cell_z.rows
    ]


def _symplectic_rows(words, d: int) -> ring.ResidueMatrix:
    return ring.ResidueMatrix(d, tuple(w.x_exp + w.z_exp for w in words))


def _phase_matrix(A: list, B: list, d: int) -> np.ndarray:
    """Entry [i, j] is symplectic_phase(A[i], B[j]), as one Z_d product:
    (x_a | z_a) . (z_b | -x_b) = x_a . z_b - x_b . z_a."""
    twisted = ring.ResidueMatrix(
        d, tuple(w.z_exp + tuple(-e for e in w.x_exp) for w in B)
    )
    return ring.mul_transpose(_symplectic_rows(A, d), twisted)


def oracle_center_equals_stabilizer(G):
    """(verdict, report): is the gauge-group center the cell stabilizer?

    The center modulo phases is the kernel of the symplectic Gram matrix of
    the gauge generators; equality is checked as mutual span membership of
    exponent vectors plus stabilizer membership in the gauge group.
    """
    rep = ValidationReport()
    gens = gauge_gens(G)
    gram = ring.ResidueMatrix(G.d, _phase_matrix(gens, gens, G.d).tolist())
    combos = ring.kernel_mod(gram)
    gen_mat = _symplectic_rows(gens, G.d)
    center = ring.ResidueMatrix(
        G.d,
        tuple(ring.mat_vec_mul(gen_mat, v).entries for v in combos.rows) or ((0,) * (2 * G.n),),
    )
    stabs = stab_gens(G)
    stab_mat = _symplectic_rows(stabs, G.d)

    missing = [i for i, c in enumerate(center.rows) if not in_rowspan(stab_mat, c)]
    rep.add("center-in-stabilizer-span", not missing, witness=missing[:3] or None)

    missing = [i for i, s in enumerate(stab_mat.rows) if not in_rowspan(gen_mat, s)]
    rep.add("stabilizer-in-gauge-group", not missing, witness=missing[:3] or None)

    bad = [(int(i), int(j)) for i, j in np.argwhere(_phase_matrix(stabs, gens, G.d))]
    rep.add("stabilizer-central", not bad, witness=bad[:3] or None)
    return rep.ok, rep


def oracle_transversal_H_action(W: PauliWord, star_signs) -> PauliWord:
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


def oracle_verify_H_logical(G) -> ValidationReport:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = ValidationReport()
    gens = gauge_gens(G)
    gen_mat = _symplectic_rows(gens, G.d)
    stab_mat = _symplectic_rows(stab_gens(G), G.d)

    def vec(w: PauliWord):
        return w.x_exp + w.z_exp

    bad = [
        i
        for i, g in enumerate(gens)
        if not in_rowspan(gen_mat, vec(oracle_transversal_H_action(g, G.star_signs)))
    ]
    rep.add("gauge-group-normalized", not bad, witness=bad[:3] or None)

    bad = [
        i
        for i, s in enumerate(stab_gens(G))
        if not in_rowspan(stab_mat, vec(oracle_transversal_H_action(s, G.star_signs)))
    ]
    rep.add("stabilizer-group-preserved", not bad, witness=bad[:3] or None)

    xbar, zbar = G.bare_logical_x(), G.bare_logical_z()
    hx = oracle_transversal_H_action(xbar, G.star_signs)
    diff = tuple((a - b) % G.d for a, b in zip(vec(hx), vec(zbar)))
    ok_x = all(e == 0 for e in diff) or in_rowspan(gen_mat, diff)
    rep.add("logical-X-to-Z", ok_x, "H(Xbar) = Zbar modulo gauge")

    hz = oracle_transversal_H_action(zbar, G.star_signs)
    xinv = tuple((-e) % G.d for e in vec(xbar))
    diff = tuple((a - b) % G.d for a, b in zip(vec(hz), xinv))
    ok_z = all(e == 0 for e in diff) or in_rowspan(gen_mat, diff)
    rep.add("logical-Z-to-X-inverse", ok_z, "H(Zbar) = Xbar^{-1} modulo gauge")
    return rep


def oracle_verify_H_stabilizer_code(C) -> ValidationReport:
    """Negative control: global transversal H on the plain stabilizer code.

    For mu' != mu - mu' + 2 the image of the Z generators leaves the
    stabilizer group, so preservation is expected to FAIL on 3D codes.
    """
    rep = ValidationReport()
    stabs = stabilizer_words(C)
    stab_mat = _symplectic_rows(stabs, C.d)
    bad = [
        i
        for i, s in enumerate(stabs)
        if not in_rowspan(
            stab_mat,
            (lambda w: w.x_exp + w.z_exp)(oracle_transversal_H_action(s, C.star_signs)),
        )
    ]
    rep.add("stabilizer-group-preserved", not bad, witness=bad[:3] or None)
    return rep


class OracleTableau:
    """Full-rank stabilizer tableau for n qudits of prime dimension d.

    Phase convention: X Z = omega Z X, so Z^a X^b = omega^{-ab} X^b Z^a.
    Measurement follows the generalized Gottesman update: a generator that
    omega-noncommutes with the observable becomes the pivot; otherwise the
    outcome is determined by the phase of the matching group element.
    """

    def __init__(self, d: int, rows):
        if not gauge._is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        self.d = d
        self.D = 4 if d == 2 else d
        self.scale = self.D // d
        self.rows = [gauge.Row(r.phase % self.D, r.x, r.z) for r in rows]
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

    def _mul(self, a, b):
        cross = sum(az * bx for az, bx in zip(a.z, b.x))
        return gauge.Row(
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

    def _pow(self, a, k: int):
        out = gauge.Row(0, (0,) * self.n, (0,) * self.n)
        for _ in range(k % self.d):
            out = self._mul(out, a)
        return out

    @classmethod
    def zero_logical(cls, C) -> "OracleTableau":
        """The |0_L> tableau: X cells, an independent Z-stabilizer basis, Zbar."""
        rows = [gauge.Row(0, r, (0,) * C.n) for r in ring.row_basis(C.G0).rows]
        rows += [gauge.Row(0, (0,) * C.n, r) for r in ring.row_basis(C.z_stab).rows]
        rows.append(gauge.Row(0, (0,) * C.n, C.z_logical.entries))
        T = cls(C.d, rows)
        if len(T.rows) != C.n:
            raise ValueError(f"tableau rank {len(T.rows)} != n {C.n}")
        if ring.span_size(T._exponents()) != C.d ** C.n:
            raise ValueError("tableau rows are not independent")
        return T

    # -- state updates -----------------------------------------------------
    def apply_pauli(self, E: PauliWord) -> None:
        """Conjugate the state by a Pauli error (rows pick up phases only)."""
        e = gauge.Row(0, E.x_exp, E.z_exp)
        self.rows = [
            gauge.Row((r.phase + self.scale * self._sp(e, r)) % self.D, r.x, r.z)
            for r in self.rows
        ]

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by oracle_transversal_H_action; the phase gains sum(x*z) in
        the tableau's own phase unit."""
        new = []
        for r in self.rows:
            h = oracle_transversal_H_action(PauliWord(self.d, r.x, r.z), star_signs)
            dphi = sum(x * z for x, z in zip(r.x, r.z))
            new.append(gauge.Row((r.phase + self.scale * dphi) % self.D, h.x_exp, h.z_exp))
        self.rows = new
        self._exp = None

    def measure(self, P: PauliWord, rng: random.Random) -> int:
        """Measure the generalized Pauli observable P; returns k with
        eigenvalue omega^k.  Deterministic when P commutes with all rows."""
        obs = gauge.Row(0, P.x_exp, P.z_exp)
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
        self.rows[pivot] = gauge.Row((-outcome * self.scale) % self.D, obs.x, obs.z)
        self._exp = None
        return outcome

    def _determined_outcome(self, obs) -> int:
        sol = ring.solve_left(self._exponents(), obs.x + obs.z)
        if sol is None:
            raise ValueError("observable commutes but is not in the group")
        g = gauge.Row(0, (0,) * self.n, (0,) * self.n)
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


# --------------------------------------------------------------------------
# The exponent-matrix layer against the oracles

TETRA = {}


def tetra(d):
    """(L, C, G) of the tetra code at d, built once per d."""
    if d not in TETRA:
        L, C = colex.build_tetrahedral(d)
        TETRA[d] = L, C, gauge.build_gauge_code(L, d)
    return TETRA[d]


def outcome_or_error(measure, P, seed):
    try:
        return measure(P, random.Random(seed))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(st.sampled_from(["pauli", "random", "rows", "face"]), max_size=12),
    h_at=st.integers(0, 12),
)
def test_tableau_matches_word_oracle(d, seed, steps, h_at):
    """From |0_L>: random Paulis, one transversal H and measurements of
    random words, of products of two current rows (determined) and of gauge
    faces; outcomes, rows and canonical forms agree after every step."""
    L, C, G = tetra(d)
    T, O = gauge.Tableau.zero_logical(C), OracleTableau.zero_logical(C)
    rng = random.Random(seed)
    steps.insert(h_at, "H")
    for step in steps:
        word = PauliWord(d, tuple(rng.randrange(d) for _ in range(15)),
                         tuple(rng.randrange(d) for _ in range(15)))
        if step == "H":
            T.apply_transversal_H(L.star_signs())
            O.apply_transversal_H(L.star_signs())
        elif step == "pauli":
            T.apply_pauli(word)
            O.apply_pauli(word)
        else:
            if step == "rows":
                a, b = rng.sample(O.rows, 2)
                k, m = rng.randrange(d), rng.randrange(d)
                word = PauliWord(d, tuple(k * u + m * v for u, v in zip(a.x, b.x)),
                                 tuple(k * u + m * v for u, v in zip(a.z, b.z)))
            elif step == "face":
                rows = G.face_x.rows if rng.randrange(2) else G.face_z.rows
                face = rng.choice(rows)
                word = PauliWord.x_word(d, face) if rows is G.face_x.rows else PauliWord.z_word(d, face)
            s = rng.randrange(2**32)
            assert outcome_or_error(T.measure, word, s) == outcome_or_error(O.measure, word, s)
        assert T.rows == O.rows
        assert T.canonical_form() == O.canonical_form()


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_corrupted_gauge_code_reports_match_oracle(d, data):
    """Rows dropped or changed and star signs flipped: the span-check group
    checks give the per-row loops' reports, witnesses included."""
    L, C, G = tetra(d)
    parts = {k: list(getattr(G, k).rows) for k in ("face_x", "face_z", "cell_x", "cell_z")}
    signs = list(G.star_signs)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["entry", "row", "drop", "sign"]))
        if kind == "sign":
            i = data.draw(st.integers(0, G.n - 1))
            signs[i] = -signs[i]
            continue
        rows = parts[data.draw(st.sampled_from(sorted(parts)))]
        i = data.draw(st.integers(0, len(rows) - 1))
        if kind == "drop" and len(rows) > 1:
            del rows[i]
        elif kind == "row":
            rows[i] = tuple(data.draw(st.integers(0, d - 1)) for _ in range(G.n))
        else:
            row = list(rows[i])
            row[data.draw(st.integers(0, G.n - 1))] = data.draw(st.integers(0, d - 1))
            rows[i] = tuple(row)
    bad = gauge.GaugeCode(d, G.n, tuple(signs),
                          **{k: ring.ResidueMatrix(d, tuple(v)) for k, v in parts.items()})
    rep = gauge.center_equals_stabilizer(bad)
    ok_o, rep_o = oracle_center_equals_stabilizer(bad)
    assert (rep.ok, rep.to_dict()) == (ok_o, rep_o.to_dict())
    assert gauge.verify_H_logical(bad).to_dict() == oracle_verify_H_logical(bad).to_dict()
    code = dataclasses.replace(C, star_signs=bad.star_signs, G0=bad.cell_x, z_stab=bad.face_z)
    assert (gauge.verify_H_stabilizer_code(code).to_dict()
            == oracle_verify_H_stabilizer_code(code).to_dict())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_transversal_H_action_matches_oracle(d):
    # the exponent map behind verify_H_logical and Tableau.apply_transversal_H
    sg = tetra(d)[0].star_signs()
    rng = random.Random(d)
    for _ in range(20):
        W = PauliWord(d, tuple(rng.randrange(d) for _ in range(15)),
                      tuple(rng.randrange(d) for _ in range(15)), rng.randrange(d))
        xz, dphi = gauge._hadamard(np.array([W.x_exp + W.z_exp], dtype=object), sg)
        mapped = PauliWord(d, tuple(xz[0, :15]), tuple(xz[0, 15:]), W.phase_exp + dphi[0])
        assert mapped == oracle_transversal_H_action(W, sg)
