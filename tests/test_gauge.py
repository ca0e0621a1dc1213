"""gauge: subsystem structure, transversal Hadamard, tableau gauge fixing."""

import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexa import colex, gauge, ring
from colexa.code import symplectic_phase, syndrome
from colexa.reports import Report
from builders import Drawn, drawn_fix, forget_gauge_codes, with_code
from oracles import (
    PauliWord,
    augmented_lex_least,
    class_sums_consistent,
    face_color_classes,
    logical_words,
    reconstruct_cell_outcome,
    solve_left,
    stabilizer_words,
    word_phase,
    x_word,
    z_word,
)


@pytest.fixture(scope="module")
def tetra3():
    L, C = with_code(colex.hypercube_lattice(3), 3)
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
        word_phase(a, b) != 0
        for a in gens
        for b in gens
    )


def test_mu2_rejected():
    L, _ = with_code(colex.triangle_lattice(3), 3)
    with pytest.raises(ValueError):
        gauge.build_gauge_code(L, 3)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_center_equals_stabilizer(d):
    L, _ = with_code(colex.hypercube_lattice(3), d)
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
    failed = {c.name for c in rep.checks if not c.ok}
    assert "stabilizer-in-gauge-group" in failed
    assert "stabilizer-central" in failed
    # the product-based witness is the first three pairs of the pairwise loop
    pairwise = [
        (i, j)
        for i, s in enumerate(stab_gens(corrupted))
        for j, g in enumerate(gauge_gens(corrupted))
        if word_phase(s, g) != 0
    ]
    central = next(c for c in rep.checks if c.name == "stabilizer-central")
    assert central.witness == pairwise[:3]


def test_H_action_on_cells(tetra3):
    L, C, G = tetra3
    sg = G.star_signs
    for xrow, zrow in zip(G.cell_x.rows, G.cell_z.rows):
        mapped = oracle_transversal_H_action(x_word(3, xrow), sg)
        assert mapped.x_exp == (0,) * 15 and mapped.z_exp == zrow
        back = oracle_transversal_H_action(z_word(3, zrow), sg)
        assert back.z_exp == (0,) * 15
        assert back.x_exp == tuple((-e) % 3 for e in xrow)


def test_H_action_on_logicals(tetra3):
    _, C, G = tetra3
    xbar, zbar = as_word(G.d, G.bare_logical_x()), as_word(G.d, G.bare_logical_z())
    assert (xbar, zbar) == logical_words(C)
    hx = oracle_transversal_H_action(xbar, G.star_signs)
    assert (hx.x_exp, hx.z_exp) == (zbar.x_exp, zbar.z_exp)
    hz = oracle_transversal_H_action(zbar, G.star_signs)
    assert (hz.x_exp, hz.z_exp) == (tuple((-1) % 3 for _ in range(15)), (0,) * 15)


def test_H_fourth_power_identity():
    for d in (2, 3, 5, 6):
        L, _ = with_code(colex.hypercube_lattice(3), d)
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
    assert word_phase(ha, hb) == word_phase(a, b)


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_verify_H_logical(d):
    L, _ = with_code(colex.hypercube_lattice(3), d)
    G = gauge.build_gauge_code(L, d)
    assert gauge.verify_H_logical(G).ok


@pytest.mark.parametrize("d", [2, 3, 5])
def test_negative_control_stabilizer_code(d):
    _, C = with_code(colex.hypercube_lattice(3), d)
    rep = gauge.verify_H_stabilizer_code(C)
    assert not rep.ok  # global H does not preserve the 3D stabilizer code


def test_face_color_classes(tetra3):
    L, _, _ = tetra3
    faces = L.cells_of_dim(2)
    for cell in L.cells_of_dim(3):
        classes = face_color_classes(L, cell)
        assert sorted(len(c) for c in classes) == [2, 2, 2]
        for cls in classes:
            cover = sorted(v for i in cls for v in faces[i].vertices)
            assert cover == sorted(cell.vertices)


def test_tetra_face_classes_are_pinned(tetra3):
    # the classes, list for list, that the propagation walk gave before the
    # bit masks replaced it: same faces, same class order
    L, _, _ = tetra3
    assert [face_color_classes(L, c) for c in L.cells_of_dim(3)] == [
        [[10, 11], [13, 14], [16, 17]], [[4, 5], [7, 8], [15, 17]],
        [[1, 2], [6, 8], [12, 14]], [[0, 2], [3, 5], [9, 11]]]


def backtracking_face_classes(L, cell) -> list:
    """The backtracking 3-coloring face_color_classes ran before it
    propagated classes from a seed vertex, kept as an oracle."""
    faces = L.cells_of_dim(2)
    idxs = [i for i, f in enumerate(faces) if f.vertices <= cell.vertices]
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


def as_partition(classes) -> frozenset:
    return frozenset(frozenset(c) for c in classes)


def test_face_classes_match_backtracking(tetra3):
    L, _, _ = tetra3
    for cell in L.cells_of_dim(3):
        assert (as_partition(face_color_classes(L, cell))
                == as_partition(backtracking_face_classes(L, cell)))


def cube_cell(faces) -> tuple:
    """A lattice holding one cube-shaped 3-cell on vertices 0..7 (bit i of
    a vertex is its i-th coordinate) and the given faces of it, each named
    by (axis, side)."""
    verts = tuple(range(8))
    cell = colex.Cell(3, frozenset(verts), color=0)
    cells = [cell] + [colex.Cell(2, frozenset(v for v in verts if v >> axis & 1 == side))
                      for axis, side in faces]
    return colex.Lattice(3, False, verts, {v: None for v in verts}, tuple(cells)), cell


def test_face_classes_of_a_cube_pair_opposite_faces():
    L, cell = cube_cell([(axis, side) for side in (0, 1) for axis in range(3)])
    classes = face_color_classes(L, cell)
    assert as_partition(classes) == as_partition(backtracking_face_classes(L, cell))
    assert as_partition(classes) == {frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})}


@pytest.mark.parametrize("faces", [
    # face (2, 1) missing: its four vertices lie on two faces each
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
    # face (0, 0) twice: its vertices lie on four faces each
    [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 0)],
])
def test_face_classes_refuse_a_vertex_not_on_three_faces(faces):
    L, cell = cube_cell(faces)
    for classes in (face_color_classes, backtracking_face_classes):
        with pytest.raises(ValueError, match="no partitioning 3-coloring"):
            classes(L, cell)


def test_face_classes_refuse_a_clash():
    # the boundary of a tetrahedron: three faces at every vertex, but the
    # four faces meet pairwise, so three classes cannot separate them
    verts = tuple(range(4))
    cell = colex.Cell(3, frozenset(verts), color=0)
    faces = [colex.Cell(2, frozenset(verts) - {v}) for v in verts]
    L = colex.Lattice(3, False, verts, {v: None for v in verts}, (cell, *faces))
    for classes in (face_color_classes, backtracking_face_classes):
        with pytest.raises(ValueError, match="no partitioning 3-coloring"):
            classes(L, cell)


def test_reconstruction_consistency_random_errors(tetra3):
    L, C, G = tetra3
    classes_by_cell = [
        face_color_classes(L, c) for c in L.cells_of_dim(3)
    ]
    rng = random.Random(0)
    for _ in range(100):
        E = PauliWord(
            3,
            tuple(rng.randrange(3) for _ in range(15)),
            tuple(rng.randrange(3) for _ in range(15)),
        )
        T = Drawn(gauge.Tableau.zero_logical(C))
        T.apply_pauli(E.row)
        outs = dict(enumerate(T.measure([x_word(3, xr).row for xr in G.face_x.rows], rng)))
        syn = syndrome(C, E.row)
        for ci, classes in enumerate(classes_by_cell):
            consistent, sums = class_sums_consistent(outs, classes, 3)
            assert consistent
            assert sums[0] == syn[ci]


def test_reconstruction_flags_injected_fault(tetra3):
    L, _, _ = tetra3
    classes = face_color_classes(L, L.cells_of_dim(3)[0])
    outs = {f: 0 for cls in classes for f in cls}
    outs[classes[0][0]] = 1
    consistent, _ = class_sums_consistent(outs, classes, 3)
    assert not consistent
    with pytest.raises(KeyError):
        reconstruct_cell_outcome({}, classes[0], 3)


def test_tableau_requires_prime_d():
    with pytest.raises(ValueError):
        gauge.Tableau(4, np.zeros((0, 0), dtype=int), [])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_tableau_rejects_noncommuting_rows(d):
    # X0 X1 and Z0 Z1^(d-1) commute (phase 1 + (d-1) = 0 mod d); X0 does not
    # commute with the second, and that one pair is enough
    xx, zz, x0 = (1, 1, 0, 0), (0, 0, 1, d - 1), (1, 0, 0, 0)
    with pytest.raises(ValueError, match="pairwise commute"):
        gauge.Tableau(d, [xx, zz, x0], [0, 0, 0])
    assert len(gauge.Tableau(d, [xx, zz], [0, 0]).canonical_form()) == 2
    assert gauge.Tableau(d, np.zeros((0, 4), dtype=int), []).canonical_form() == ()


def test_tableau_measure_stabilizer_deterministic(tetra3):
    _, C, _ = tetra3
    T = Drawn(gauge.Tableau.zero_logical(C))
    rng = random.Random(5)
    for g in stabilizer_words(C):
        # codeword(0) state: every stabilizer and Zbar give outcome 0
        assert T.measure([g.row], rng) == [0]
    assert T.measure([logical_words(C)[1].row], rng) == [0]


def test_tableau_measurement_repeatable(tetra3):
    _, C, _ = tetra3
    T = Drawn(gauge.Tableau.zero_logical(C))
    rng = random.Random(5)
    xbar = logical_words(C)[0].row
    first = T.measure([xbar], rng)  # random outcome, collapses the state
    assert T.measure([xbar], rng) == first  # now determined


def test_gauge_fix_identity_on_fixed_state(tetra3):
    _, C, G = tetra3
    T = Drawn(gauge.Tableau.zero_logical(C))
    # Z faces are already stabilizers of |0_L>, so nothing to correct... but
    # fixing maps the state consistently: measured outcomes and correction 0
    log = drawn_fix(T, G, random.Random(0))
    assert log["measured"] == [0] * 18
    assert log["correction"] == [0] * 18


def test_gauge_fix_demo_deterministic_across_seeds(tetra3):
    L, C, G = tetra3
    forms = set()
    for seed in range(20):
        T = Drawn(gauge.Tableau.zero_logical(C))
        T.apply_transversal_H(L.star_signs())
        log = drawn_fix(T, G, random.Random(seed))
        assert not any(log["post"]), (seed, log)
        forms.add(T.canonical_form())
    assert len(forms) == 1


def test_gauge_fix_final_state_is_color_code_plus(tetra3):
    L, C, G = tetra3
    T = Drawn(gauge.Tableau.zero_logical(C))
    T.apply_transversal_H(L.star_signs())
    drawn_fix(T, G, random.Random(1))
    rng = random.Random(2)
    for g in stabilizer_words(C):
        assert T.measure([g.row], rng) == [0]
    assert T.measure([logical_words(C)[0].row], rng) == [0]


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
            if solve_left(sub, t2) is not None:
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
        target = ring.mat_vec_mul(A, x)
    else:
        target = tuple(data.draw(st.integers(0, p - 1)) for _ in range(c))
    got = gauge._lex_least_solution(gauge._correction_system(np.array(rows), p), target)
    expected = greedy_lex_least(A, target)
    assert got == expected
    if solvable:
        assert got is not None


def test_lex_least_on_gauge_system(tetra3):
    _, _, G = tetra3
    A = ring.mul_transpose(G.face_x, G.face_z)
    M = ring.ResidueMatrix(3, A.tolist())
    rng = random.Random(7)
    for _ in range(5):
        target = ring.mat_vec_mul(M, [rng.randrange(3) for _ in range(M.nrows)])
        assert gauge._lex_least_solution(G.correction_system, target) == greedy_lex_least(M, target)


def test_lex_least_rejects_composite_modulus():
    with pytest.raises(ValueError):
        gauge._correction_system(np.array([[1, 2]]), 4)


@st.composite
def lex_systems(draw):
    """(A, p, targets): an r x c system over F_p, 0 <= r, c <= 6, with
    dependent rows or columns at times (rank-deficient A), and targets in
    the span of its rows and uniform ones, which are often unsolvable."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1009, 2**31 - 1, 10**18 + 3]))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    A = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if r >= 2 and draw(st.booleans()):  # a dependent row
        k = draw(st.integers(0, p - 1))
        A[-1] = [k * e % p for e in A[0]]
    if c >= 2 and draw(st.booleans()):  # a dependent column
        for row in A:
            row[-1] = row[0]
    M = ring.ResidueMatrix(p, np.array(A, dtype=object).reshape(r, c))
    targets = [ring.mat_vec_mul(M, [draw(entry) for _ in range(r)]) for _ in range(3)]
    targets += [tuple(draw(entry) for _ in range(c)) for _ in range(3)]
    return M.array, p, targets


@settings(max_examples=300, deadline=None)
@given(case=lex_systems())
def test_lex_least_from_the_kept_system_matches_the_augmented_elimination(case):
    """One kept elimination of A^T[:, ::-1] answers every target as the
    elimination of [A^T[:, ::-1] | target] did, None included."""
    A, p, targets = case
    system = gauge._correction_system(A, p)
    for target in targets:
        assert gauge._lex_least_solution(system, target) == augmented_lex_least(A, p, target)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_lex_least_on_the_tetra_system_matches_the_augmented_elimination(d):
    # A = face_x face_z^T is 18 x 18 of rank below 18; uniform targets are
    # mostly unsolvable and images of A always solvable
    G = tetra(d)[2]
    A = ring.mul_transpose(G.face_x, G.face_z)
    M = ring.ResidueMatrix(d, A)
    rng = random.Random(d)
    answers = []
    for _ in range(40):
        image = ring.mat_vec_mul(M, [rng.randrange(d) for _ in range(M.nrows)])
        for target in (image, tuple(rng.randrange(d) for _ in range(M.ncols))):
            answers.append(gauge._lex_least_solution(G.correction_system, target))
            assert answers[-1] == augmented_lex_least(A, d, target)
    assert None in answers and answers[::2].count(None) == 0


# --------------------------------------------------------------------------
# Oracles: the word-by-word gauge layer as it was before the exponent-matrix
# rewrite, kept verbatim but for names (the generator lists take G as an
# argument, the bare logicals are read as words, and the tableau has its own
# row type): PauliWord generator lists, the group checks with one in_rowspan
# solve per row, and the tableau with _sp, _mul and _pow by repeated _mul.


def as_word(d, xz) -> PauliWord:
    """The PauliWord of (x | z) exponents."""
    n = len(xz) // 2
    return PauliWord(d, tuple(xz[:n]), tuple(xz[n:]))


def in_rowspan(M: ring.ResidueMatrix, w) -> bool:
    """Whether w lies in the Z_N-row-span of M, by one linear solve."""
    return solve_left(M, w) is not None


def gauge_gens(G) -> list:
    """All gauge generators: X faces first, then Z faces."""
    return [x_word(G.d, r) for r in G.face_x.rows] + [
        z_word(G.d, r) for r in G.face_z.rows
    ]


def stab_gens(G) -> list:
    return [x_word(G.d, r) for r in G.cell_x.rows] + [
        z_word(G.d, r) for r in G.cell_z.rows
    ]


def _symplectic_rows(words, d: int) -> ring.ResidueMatrix:
    return ring.ResidueMatrix(d, tuple(w.x_exp + w.z_exp for w in words))


def _phase_matrix(A: list, B: list, d: int) -> np.ndarray:
    """Entry [i, j] is word_phase(A[i], B[j]), as one Z_d product:
    (x_a | z_a) . (z_b | -x_b) = x_a . z_b - x_b . z_a."""
    twisted = ring.ResidueMatrix(
        d, tuple(w.z_exp + tuple(-e for e in w.x_exp) for w in B)
    )
    return ring.mul_transpose(_symplectic_rows(A, d), twisted)


def oracle_center_equals_stabilizer(G):
    """(verdict, report): is the gauge-group center the cell stabilizer?

    The center modulo phases is the kernel of the symplectic Gram matrix of
    the gauge generators, whose only nonzero blocks are the X-face x Z-face
    phase block and minus its transpose.  Its generators come in the
    library's order: X-type combinations over the left kernel of the block,
    then Z-type ones over the left kernel of its transpose (both from the
    library's kernel, the block factored first, so that at composite d its
    transpose reads the block's Smith form, transposed, as the library's
    does).  Equality is checked as mutual span membership of exponent
    vectors plus stabilizer membership in the gauge group.
    """
    rep = Report()
    gens = gauge_gens(G)
    xs, zs = gens[:G.face_x.nrows], gens[G.face_x.nrows:]
    block = ring.ResidueMatrix(G.d, _phase_matrix(xs, zs, G.d))
    kernels = [ring.kernel_mod(block)]
    kernels.append(ring.kernel_mod(block.transpose()))
    center = ring.ResidueMatrix(
        G.d,
        tuple(ring.mat_vec_mul(_symplectic_rows(words, G.d), v)
              for words, K in zip((xs, zs), kernels) for v in K.rows)
        or ((0,) * (2 * G.n),),
    )
    gen_mat = _symplectic_rows(gens, G.d)
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


def oracle_verify_H_logical(G) -> Report:
    """Does the transversal Hadamard normalize gauge and stabilizer groups
    and act as the logical Hadamard modulo gauge?"""
    rep = Report()
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

    xbar, zbar = as_word(G.d, G.bare_logical_x()), as_word(G.d, G.bare_logical_z())
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


def oracle_verify_H_stabilizer_code(C) -> Report:
    """Negative control: global transversal H on the plain stabilizer code.

    For mu' != mu - mu' + 2 the image of the Z generators leaves the
    stabilizer group, so preservation is expected to FAIL on 3D codes.
    """
    rep = Report()
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


@dataclasses.dataclass(frozen=True)
class OracleRow:
    """omega-tilde^phase X^x Z^z with phase mod D (D = d odd, 4 for d=2)."""

    phase: int
    x: tuple
    z: tuple


class OracleTableau:
    """Full-rank stabilizer tableau for n qudits of prime dimension d.

    Phase convention: X Z = omega Z X, so Z^a X^b = omega^{-ab} X^b Z^a.
    Measurement follows the generalized Gottesman update: a generator that
    omega-noncommutes with the observable becomes the pivot; otherwise the
    outcome is determined by the phase of the matching group element.
    """

    def __init__(self, d: int, rows):
        if not ring.is_prime(d):
            raise ValueError("tableau simulation requires prime d")
        self.d = d
        self.D = 4 if d == 2 else d
        self.scale = self.D // d
        self.rows = [OracleRow(r.phase % self.D, r.x, r.z) for r in rows]
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
        return OracleRow(
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
        out = OracleRow(0, (0,) * self.n, (0,) * self.n)
        for _ in range(k % self.d):
            out = self._mul(out, a)
        return out

    @classmethod
    def zero_logical(cls, C) -> "OracleTableau":
        """The |0_L> tableau: X cells, an independent Z-stabilizer basis, Zbar."""
        rows = [OracleRow(0, r, (0,) * C.n) for r in ring.row_basis(C.G0).rows]
        rows += [OracleRow(0, (0,) * C.n, r) for r in ring.row_basis(C.z_stab).rows]
        rows.append(OracleRow(0, (0,) * C.n, C.z_logical))
        T = cls(C.d, rows)
        if len(T.rows) != C.n:
            raise ValueError(f"tableau rank {len(T.rows)} != n {C.n}")
        if ring.span_size(T._exponents()) != C.d ** C.n:
            raise ValueError("tableau rows are not independent")
        return T

    # -- state updates -----------------------------------------------------
    def apply_pauli(self, E: PauliWord) -> None:
        """Conjugate the state by a Pauli error (rows pick up phases only)."""
        e = OracleRow(0, E.x_exp, E.z_exp)
        self.rows = [
            OracleRow((r.phase + self.scale * self._sp(e, r)) % self.D, r.x, r.z)
            for r in self.rows
        ]

    def apply_transversal_H(self, star_signs) -> None:
        """Conjugate by oracle_transversal_H_action; the phase gains sum(x*z) in
        the tableau's own phase unit."""
        new = []
        for r in self.rows:
            h = oracle_transversal_H_action(PauliWord(self.d, r.x, r.z), star_signs)
            dphi = sum(x * z for x, z in zip(r.x, r.z))
            new.append(OracleRow((r.phase + self.scale * dphi) % self.D, h.x_exp, h.z_exp))
        self.rows = new
        self._exp = None

    def measure(self, P: PauliWord, rng: random.Random) -> int:
        """Measure the generalized Pauli observable P; returns k with
        eigenvalue omega^k.  Deterministic when P commutes with all rows."""
        if self.d == 2 and sum(x * z for x, z in zip(P.x_exp, P.z_exp)) % 2:
            raise ValueError("at d = 2 only Hermitian observables (even x.z) are measured")
        obs = OracleRow(0, P.x_exp, P.z_exp)
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
        self.rows[pivot] = OracleRow((-outcome * self.scale) % self.D, obs.x, obs.z)
        self._exp = None
        return outcome

    def _determined_outcome(self, obs) -> int:
        sol = solve_left(self._exponents(), obs.x + obs.z)
        if sol is None:
            raise ValueError("observable commutes but is not in the group")
        g = OracleRow(0, (0,) * self.n, (0,) * self.n)
        for coeff, r in zip(sol, self.rows):
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
        L, C = with_code(colex.hypercube_lattice(3), d)
        TETRA[d] = L, C, gauge.build_gauge_code(L, d)
    return TETRA[d]


def random_word(d, rng, n=15):
    """A uniform word, made Hermitian at d = 2 (X^x Z^z squares to
    (-1)^(x.z) there) by clearing z at the first qudit where x and z are 1."""
    x = tuple(rng.randrange(d) for _ in range(n))
    z = [rng.randrange(d) for _ in range(n)]
    if d == 2 and sum(a * b for a, b in zip(x, z)) % 2:
        z[next(j for j in range(n) if x[j] and z[j])] = 0
    return PauliWord(d, x, tuple(z))


def css_word(d, rng, n=15):
    """A uniform X-type or Z-type word, as a CSS state measures."""
    exps = tuple(rng.randrange(d) for _ in range(n))
    return x_word(d, exps) if rng.randrange(2) else z_word(d, exps)


def as_tableau(d, rows) -> Drawn:
    """The gauge.Tableau of X-type and Z-type OracleRows, read at its draws:
    the row omega-tilde^phase P holds P's eigenvalue omega^k, k = -phase/scale."""
    scale = 2 if d == 2 else 1
    return Drawn(gauge.Tableau(d, [r.x + r.z for r in rows], [-(r.phase // scale) for r in rows]))


def measure_one(T):
    """T.measure on one row: the block method called with a block of one."""
    return lambda row, rng: T.measure([row], rng)[0]


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
    """From |0_L>: random Pauli errors (x and z mixed), one transversal H and
    measurements of random X-type or Z-type words, of products of powers of
    two current rows of one type (determined) and of gauge faces; outcomes
    and canonical forms agree with the word-level oracle after every step."""
    L, C, G = tetra(d)
    O = OracleTableau.zero_logical(C)
    T = Drawn(gauge.Tableau.zero_logical(C))
    assert T.canonical_form() == O.canonical_form()
    rng = random.Random(seed)
    steps.insert(h_at, "H")
    for step in steps:
        word = css_word(d, rng)
        if step == "H":
            T.apply_transversal_H(L.star_signs())
            O.apply_transversal_H(L.star_signs())
        elif step == "pauli":
            error = random_word(d, rng)
            T.apply_pauli(error.row)
            O.apply_pauli(error)
        else:
            if step == "rows":
                half = "z" if rng.randrange(2) else "x"
                rows = [r for r in O.rows if any(getattr(r, half))] or O.rows
                a, b = rng.choice(rows), rng.choice(rows)
                k, m = rng.randrange(d), rng.randrange(d)
                word = PauliWord(d, tuple((k * u + m * v) % d for u, v in zip(a.x, b.x)),
                                 tuple((k * u + m * v) % d for u, v in zip(a.z, b.z)))
            elif step == "face":
                rows = G.face_x.rows if rng.randrange(2) else G.face_z.rows
                face = rng.choice(rows)
                word = x_word(d, face) if rows is G.face_x.rows else z_word(d, face)
            s = rng.randrange(2**32)
            assert (outcome_or_error(measure_one(T), word.row, s)
                    == outcome_or_error(O.measure, word, s))
        assert T.canonical_form() == O.canonical_form()


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_tableau_outside_word_matches_oracle(d):
    # on 3 qudits, X0 X1 and Z0 Z1^(d-1) leave Z2 commuting but outside the
    # group; a random measurement of X0 X2 replaces the Z row, and then X1 is
    # commuting but outside
    rows = [OracleRow(0, (1, 1, 0), (0, 0, 0)), OracleRow(0, (0, 0, 0), (1, d - 1, 0))]
    T, O = as_tableau(d, rows), OracleTableau(d, rows)
    outside = "observable commutes but is not in the group"
    for word, expected in [((0, 0, 0, 0, 0, 1), outside), ((1, 0, 1, 0, 0, 0), None),
                           ((0, 1, 0, 0, 0, 0), outside)]:
        got = outcome_or_error(measure_one(T), word, d)
        assert got == outcome_or_error(O.measure, PauliWord(d, word[:3], word[3:]), d)
        if expected:
            assert got == expected
        assert T.canonical_form() == O.canonical_form()


@pytest.mark.parametrize("tableau", [OracleTableau])
def test_tableau_refuses_a_non_hermitian_observable_at_d_2(tableau):
    # X Z has x.z = 1: it squares to -I, with eigenvalues +-i, not +-1;
    # (X Z) (x) (X Z) has x.z = 2 and is measured.  gauge.Tableau measures
    # no row with both parts nonzero (the test below)
    T = tableau(2, [OracleRow(0, (0, 0), (1, 0))])
    measure = lambda xz, rng: T.measure(as_word(2, xz), rng)
    with pytest.raises(ValueError, match="only Hermitian observables"):
        measure((1, 0, 1, 0), random.Random(0))
    assert [(r.phase, r.x + r.z) for r in T.rows] == [(0, (0, 0, 1, 0))]
    assert measure((1, 1, 1, 1), random.Random(0)) in (0, 1)
    assert [r.x + r.z for r in T.rows] == [(1, 1, 1, 1)]


@pytest.mark.parametrize("d", [2, 3])
def test_tableau_refuses_a_row_with_both_x_and_z_parts(d):
    # a CSS state measures X-type or Z-type rows; X0 Z1 is refused with one
    # ValueError, before the Z0 ahead of it in its block is measured
    T = Drawn(gauge.Tableau(d, [(0, 0, 1, 0), (0, 0, 0, 1)], [1, 0]))
    before = T.canonical_form()
    for rows in ([(1, 0, 0, 1)], [(0, 0, 1, 0), (1, 0, 0, 1)], [(1, 0, 1, 0)]):
        with pytest.raises(ValueError, match="^a CSS state takes X-type or Z-type rows, not both$"):
            T.measure(rows, random.Random(0))
        assert T.canonical_form() == before and T.draws == []


def test_tableau_rejects_dependent_rows():
    with pytest.raises(ValueError, match="tableau rows are not independent"):
        gauge.Tableau(3, [(1, 1, 0, 0), (2, 2, 0, 0)], [0, 1])


def draw_rows(d, C, G, kinds, rng) -> list:
    """One (x | z) row per kind: a power of a stabilizer generator, of Xbar
    or of Zbar, a uniform X-type or Z-type word (which commutes with almost
    nothing) or a gauge generator."""
    stabs, bars = [w.row for w in stabilizer_words(C)], [w.row for w in logical_words(C)]
    pick = {"stabilizer": lambda: rng.choice(stabs), "logical": lambda: rng.choice(bars),
            "random": lambda: css_word(d, rng).row,
            "face": lambda: rng.choice(G.gauge_group.rows)}
    rows = []
    for kind in kinds:
        k = rng.randrange(1, d)
        rows.append(tuple(k * e % d for e in pick[kind]()))
    return rows


def without_zbar(C) -> gauge.Tableau:
    """|0_L> without Zbar: the X cells and the Z stabilizers, of rank n - 1,
    so Zbar and Xbar commute with every row but lie outside the group."""
    zero = (0,) * C.n
    return gauge.Tableau(C.d, [r + zero for r in ring.row_basis(C.G0).rows]
                         + [zero + r for r in ring.row_basis(C.z_stab).rows])


def measured(T, rows, rng, one_at_a_time):
    """The outcomes of rows measured as one block or row by row, or the
    error message either way raises."""
    try:
        if one_at_a_time:
            return [measure_one(T)(row, rng) for row in rows]
        return T.measure(rows, rng)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7]),
    hadamard=st.booleans(),
    partial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["stabilizer", "logical", "random", "face"]),
                   min_size=1, max_size=12),
)
def test_block_measurement_equals_one_row_at_a_time(d, hadamard, partial, seed, kinds):
    """From |0_L>, with or without transversal H, a block of random rows
    gives the outcomes, rng state and canonical form of measuring its rows
    one at a time.  Without Zbar's row, logicals and faces commute with
    every row but lie outside the group; both ways raise."""
    L, C, G = tetra(d)
    start = Drawn(without_zbar(C) if partial else gauge.Tableau.zero_logical(C))
    if hadamard:
        start.apply_transversal_H(L.star_signs())
    rows = draw_rows(d, C, G, kinds, random.Random(seed))
    runs = []
    for one_at_a_time in (False, True):
        T, rng = start.copy(), random.Random(seed)
        runs.append((measured(T, rows, rng, one_at_a_time), T.canonical_form(), rng.getstate()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_block_raises_at_a_commuting_row_outside_the_group(d):
    # without Zbar's row, Zbar commutes with every row but is outside; the
    # stabilizer before it is measured, the random word after it never is
    L, C, G = tetra(d)
    T = Drawn(without_zbar(C))
    zbar = logical_words(C)[1].row
    rows = [stabilizer_words(C)[0].row, zbar, css_word(d, random.Random(d)).row]
    before = T.canonical_form()
    for one_at_a_time in (False, True):
        rng = random.Random(0)
        assert measured(T, rows, rng, one_at_a_time) == "observable commutes but is not in the group"
        assert T.canonical_form() == before and rng.getstate() == random.Random(0).getstate()


def test_block_raises_the_error_of_its_first_bad_row():
    # from Z0 on two qudits, X0 is random and replaces Z0; Z1 then commutes
    # with X0 but is outside, so the block raises there, after X0's draw,
    # and X1 after it is never measured
    x0, z1, x1 = (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)
    for d in (2, 3):
        runs = []
        for one_at_a_time in (False, True):
            T, rng = Drawn(gauge.Tableau(d, [(0, 0, 1, 0)], [1])), random.Random(0)
            error = measured(T, [x0, z1, x1], rng, one_at_a_time)
            assert error == "observable commutes but is not in the group"
            runs.append((T.canonical_form(), T.draws, rng.getstate()))
        assert runs[0] == runs[1]
        assert [(x, z) for x, z, _ in runs[0][0]] == [((1, 0), (0, 0))] and len(runs[0][1]) == 1


@pytest.mark.parametrize("length", [28, 31, 32])
def test_tableau_refuses_a_row_without_2n_entries(tetra3, length):
    # tetra has n = 15: a row must have 30 entries; nothing is measured or
    # applied, even when the bad row follows a good one
    _, C, _ = tetra3
    T, rng = Drawn(gauge.Tableau.zero_logical(C)), random.Random(0)
    before = T.canonical_form()
    message = f"observable row has {length} entries, not 2n = 30"
    with pytest.raises(ValueError, match=message):
        T.measure([logical_words(C)[0].row, (1,) * length], rng)
    with pytest.raises(ValueError, match=message):
        T.apply_pauli((1,) * length)
    assert T.canonical_form() == before and rng.getstate() == random.Random(0).getstate()


def test_fix_demo_start_is_never_mutated():
    # the demos share one set of forms per d, kept on the lattice's gauge
    # code: run in sequence, each gives what it gives from a gauge code and
    # forms built afresh
    runs = [(d, seed) for d in (2, 3, 5, 7) for seed in range(5)]
    shared = [gauge.fix_demo(d, seed) for d, seed in runs]
    fresh = []
    for d, seed in runs:
        forget_gauge_codes(colex.hypercube_lattice(3))
        fresh.append(gauge.fix_demo(d, seed))
    assert shared == fresh
    for _ in range(2):  # an error is not cached
        with pytest.raises(ValueError, match="tableau simulation requires prime d"):
            gauge.fix_demo(4, 0)


def drawn_demo(G, seed) -> dict:
    """fix_demo read from a tableau that takes each draw from the seed's rng
    as it meets the random outcome, block by block (Drawn), with no kept
    form: the demo as it was before its forms were kept."""
    T = Drawn(gauge.Tableau.zero_logical(G.color_code))
    T.apply_transversal_H(G.star_signs)
    log = drawn_fix(T, G, random.Random(seed))
    return demo_log(G, seed, log["measured"], log["correction"], log["support"], log["post"],
                    T.canonical_form())


def oracle_demo(G, seed) -> dict:
    """fix_demo on the word-by-word OracleTableau, which draws a number at
    each random outcome, with the greedy lex-least correction."""
    d, n = G.d, G.n
    O = OracleTableau.zero_logical(G.color_code)
    O.apply_transversal_H(G.star_signs)
    rng = random.Random(seed)
    faces = [z_word(d, f) for f in G.face_z.rows]
    measured = [O.measure(w, rng) for w in faces]
    A = ring.ResidueMatrix(d, ring.mul_transpose(G.face_x, G.face_z))
    lam = greedy_lex_least(A, measured)
    support = ring.mat_vec_mul(G.face_x, lam)
    O.apply_pauli(PauliWord(d, support, (0,) * n))
    post = faces + [x_word(d, c) for c in G.cell_x.rows] + [x_word(d, (1,) * n)]
    return demo_log(G, seed, measured, list(lam), support, [O.measure(w, rng) for w in post],
                    O.canonical_form())


def demo_log(G, seed, measured, lam, support, post, canonical) -> dict:
    """The dict fix_demo returns, from the numbers of one run."""
    f, c = G.face_z.nrows, G.cell_x.nrows
    return {
        "measured": measured,
        "correction": lam,
        "correction_support": [j for j, e in enumerate(support) if e],
        "post": {
            "face_outcomes_zero": not any(post[:f]),
            "cell_x_outcomes_zero": not any(post[f:f + c]),
            "logical_x_plus": post[f + c:] == [0],
        },
        "seed": seed,
        "canonical_form": [{"x": list(x), "z": list(z), "phase": p} for x, z, p in canonical],
    }


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 3000000019, 2**61 - 1, 10**18 + 3])
@settings(max_examples=15, deadline=None)
@given(seed=st.one_of(st.integers(-2**70, 2**70), st.integers(2**64, 2**130)))
def test_a_fresh_fix_demo_reads_the_kept_forms(d, seed):
    """From a fresh gauge code, one fix_demo returns the dict of a run that
    draws as it goes, and a later one, from the kept forms, the same.  The
    canonical phases are mod 4 at d = 2; d <= 11 runs on int64 and is also
    read from the word-by-word oracle, larger d on Python ints."""
    tetra = colex.hypercube_lattice(3)
    forget_gauge_codes(tetra)
    fresh = gauge.fix_demo(d, seed)
    G = gauge.build_gauge_code(tetra, d)
    assert G.fix_demo_forms[0].shape[1] == 1 + 6  # kept, over six draws
    assert fresh == drawn_demo(G, seed)
    assert gauge.fix_demo(d, seed) == fresh
    if d <= 11:
        assert fresh == oracle_demo(G, seed)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_fix_demo_without_the_correction_fails_its_face_check(d):
    # negative control: with apply_pauli a no-op the correction is never
    # applied, and some seed leaves a nonzero face outcome; the gauge code
    # and its forms are built afresh on both sides, so neither leaks
    tetra = colex.hypercube_lattice(3)
    forget_gauge_codes(tetra)
    try:
        with mock.patch.object(gauge.Tableau, "apply_pauli", lambda T, rows: None):
            skipped = [gauge.fix_demo(d, seed)["post"] for seed in range(40)]
    finally:
        forget_gauge_codes(tetra)
    assert any(not post["face_outcomes_zero"] for post in skipped)
    assert all(all(gauge.fix_demo(d, seed)["post"].values()) for seed in range(40))


def corrupted(d, data):
    """(C, G) of the tetra code at d with rows dropped or changed and star
    signs flipped; C takes G's star signs, X cells and Z faces."""
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
    code = dataclasses.replace(C, star_signs=bad.star_signs, G0=bad.cell_x, z_stab=bad.face_z)
    return code, bad


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_corrupted_gauge_code_reports_match_oracle(d, data):
    """Rows dropped or changed and star signs flipped: the span-check group
    checks give the per-row loops' reports, witnesses included."""
    code, bad = corrupted(d, data)
    rep = gauge.center_equals_stabilizer(bad)
    ok_o, rep_o = oracle_center_equals_stabilizer(bad)
    assert (rep.ok, rep.to_dict()) == (ok_o, rep_o.to_dict())
    assert gauge.verify_H_logical(bad).to_dict() == oracle_verify_H_logical(bad).to_dict()
    assert (gauge.verify_H_stabilizer_code(code).to_dict()
            == oracle_verify_H_stabilizer_code(code).to_dict())


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_center_from_halves_is_the_gram_kernel(d, data):
    """The halves' center and the kernel of the full 2f x 2f Gram matrix
    applied to the gauge rows span the same module over Z_d."""
    _code, bad = corrupted(d, data)
    gauge_rows = bad.gauge_group.array
    gram = ring.ResidueMatrix(d, symplectic_phase(gauge_rows, gauge_rows, d))
    zero = ((0,) * (2 * bad.n),)
    full = ring.ResidueMatrix(
        d, ring.mul_transpose(ring.kernel_mod(gram), bad.gauge_group.transpose()).tolist()
        or zero)
    halves = ring.ResidueMatrix(d, gauge._center(bad).rows or zero)
    assert all(in_rowspan(full, w) for w in halves.rows)
    assert all(in_rowspan(halves, w) for w in full.rows)


def test_span_check_holds_a_product_over_every_row():
    """At N = 3000000019, (N-1)^2 < 2^63 <= 15 (N-1)^2: each half's span
    check is kept in an exact dtype, so w @ H over all n rows of H equals
    the Python-integer product and never wraps."""
    N = 3000000019
    G = gauge.build_gauge_code(colex.hypercube_lattice(3), N)
    assert ring.is_prime(N) and (N - 1) ** 2 < 2**63 <= G.n * (N - 1) ** 2
    for M in (G.face_x, G.face_z, G.cell_x, G.cell_z):
        H = ring.span_check(M)
        assert H.shape[0] == G.n and H.dtype == M.array.dtype == object
        W = np.vstack([M.array, np.full((1, G.n), N - 1, dtype=object)])
        exact = [[sum(int(a) * int(b) for a, b in zip(w, h)) for h in H.T.tolist()]
                 for w in W.tolist()]
        assert (W.astype(H.dtype) @ H).tolist() == exact
        assert [not any(e % N for e in row) for row in exact] == [
            in_rowspan(M, w) for w in W.tolist()]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_transversal_H_action_matches_oracle(d):
    # the exponent map behind verify_H_logical (no phase: it maps groups)
    sg = tetra(d)[0].star_signs()
    rng = random.Random(d)
    for _ in range(20):
        W = PauliWord(d, tuple(rng.randrange(d) for _ in range(15)),
                      tuple(rng.randrange(d) for _ in range(15)), rng.randrange(d))
        xz = gauge._hadamard(np.array([W.x_exp + W.z_exp], dtype=object), sg)
        oracle = oracle_transversal_H_action(W, sg)
        assert PauliWord(d, tuple(xz[0, :15]), tuple(xz[0, 15:]), oracle.phase_exp) == oracle


# --------------------------------------------------------------------------
# Hypercube gauge codes beyond 3D: mu = 4 at d = 2, 3, 5 and mu = 5 at d = 2

HYPERCUBE = {}
BEYOND_3D = [(4, 2), (4, 3), (4, 5), (5, 2)]


def hypercube(mu, d):
    """(L, C, G) on the punctured (mu+1)-cube boundary, X stabilizers on the
    mu-cells, built once per (mu, d)."""
    if (mu, d) not in HYPERCUBE:
        L, C = with_code(colex.hypercube_lattice(mu), d)
        HYPERCUBE[mu, d] = L, C, gauge.build_gauge_code(L, d)
    return HYPERCUBE[mu, d]


@pytest.mark.parametrize("mu", [4, 5])
def test_face_classes_beyond_3d(mu):
    L = colex.hypercube_lattice(mu)
    faces = L.cells_of_dim(2)
    for cell in L.cells_of_dim(mu):
        classes = face_color_classes(L, cell)
        assert len(classes) == math.comb(mu, 2)
        assert sorted(i for c in classes for i in c) == [
            i for i, f in enumerate(faces) if f.vertices <= cell.vertices]
        for cls in classes:
            assert sorted(v for i in cls for v in faces[i].vertices) == sorted(cell.vertices)


@pytest.mark.parametrize("mu,d", BEYOND_3D)
def test_class_sums_are_the_x_cell_syndrome_beyond_3d(mu, d):
    L, C, G = hypercube(mu, d)
    classes_by_cell = [face_color_classes(L, c) for c in L.cells_of_dim(mu)]
    rng = random.Random(mu * d)
    for _ in range(5):
        E = PauliWord(d, tuple(rng.randrange(d) for _ in range(C.n)),
                      tuple(rng.randrange(d) for _ in range(C.n)))
        T = Drawn(gauge.Tableau.zero_logical(C))
        T.apply_pauli(E.row)
        outs = dict(enumerate(T.measure(G.gauge_group.rows[:G.face_x.nrows], rng)))
        syn = syndrome(C, E.row)
        for ci, classes in enumerate(classes_by_cell):
            consistent, sums = class_sums_consistent(outs, classes, d)
            assert consistent and sums[0] == syn[ci]


@pytest.mark.parametrize("mu,d", BEYOND_3D + [(4, 4), (4, 6), (5, 3)])
def test_center_and_H_beyond_3d(mu, d):
    # composite d at mu = 4 runs on the halves' Smith forms; mu = 5 at d = 3
    # took minutes on the 2f x 2f Gram matrix and takes about 0.1 s on halves
    _, C, G = hypercube(mu, d)
    assert gauge.center_equals_stabilizer(G).ok
    assert gauge.verify_H_logical(G).ok
    assert not gauge.verify_H_stabilizer_code(C).ok  # negative control


@pytest.mark.parametrize("mu,d", BEYOND_3D)
def test_gauge_fix_beyond_3d(mu, d):
    L, C, G = hypercube(mu, d)
    T = Drawn(gauge.Tableau.zero_logical(C))
    T.apply_transversal_H(L.star_signs())
    log = drawn_fix(T, G, random.Random(mu + d))
    assert not any(log["post"]), log["post"]
