"""gauge: subsystem structure, transversal Hadamard, tableau gauge fixing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from colexa import colex, gauge, ring
from colexa.code import PauliWord, symplectic_phase, syndrome


@pytest.fixture(scope="module")
def tetra3():
    L, C = colex.build_tetrahedral(3)
    return L, C, gauge.build_gauge_code(L, 3)


def test_generator_counts(tetra3):
    _, _, G = tetra3
    assert len(G.gauge_gens()) == 36  # 18 faces x 2 types
    assert len(G.stab_gens()) == 8  # 4 cells x 2 types


def test_gauge_group_is_nonabelian(tetra3):
    _, _, G = tetra3
    gens = G.gauge_gens()
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
    ok, rep = gauge.center_equals_stabilizer(G)
    assert ok, rep.to_dict()


def test_deleted_face_is_redundant(tetra3):
    # every face row lies in the span of the remaining 17, so dropping one
    # leaves the gauge group (and its center) unchanged
    _, _, G = tetra3
    assert ring.in_rowspan(
        ring.ResidueMatrix(G.d, G.face_x.rows[1:]), G.face_x.rows[0]
    )
    crippled = gauge.GaugeCode(
        d=G.d,
        n=G.n,
        star_signs=G.star_signs,
        face_x=ring.ResidueMatrix(G.d, G.face_x.rows[1:]),
        face_z=ring.ResidueMatrix(G.d, G.face_z.rows[1:]),
        cell_x=G.cell_x,
        cell_z=G.cell_z,
    )
    ok, _ = gauge.center_equals_stabilizer(crippled)
    assert ok


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
    ok, rep = gauge.center_equals_stabilizer(corrupted)
    assert not ok
    failed = {c.name for c in rep.failures()}
    assert "stabilizer-in-gauge-group" in failed
    assert "stabilizer-central" in failed
    # the product-based witness is the first three pairs of the pairwise loop
    pairwise = [
        (i, j)
        for i, s in enumerate(corrupted.stab_gens())
        for j, g in enumerate(corrupted.gauge_gens())
        if symplectic_phase(s, g) != 0
    ]
    central = next(c for c in rep.checks if c.name == "stabilizer-central")
    assert central.witness == pairwise[:3]


def test_H_action_on_cells(tetra3):
    L, C, G = tetra3
    sg = G.star_signs
    for xrow, zrow in zip(G.cell_x.rows, G.cell_z.rows):
        mapped = gauge.transversal_H_action(PauliWord.x_word(3, xrow), sg)
        assert mapped.x_exp == (0,) * 15 and mapped.z_exp == zrow
        back = gauge.transversal_H_action(PauliWord.z_word(3, zrow), sg)
        assert back.z_exp == (0,) * 15
        assert back.x_exp == tuple((-e) % 3 for e in xrow)


def test_H_action_on_logicals(tetra3):
    _, _, G = tetra3
    hx = gauge.transversal_H_action(G.bare_logical_x(), G.star_signs)
    zbar = G.bare_logical_z()
    assert (hx.x_exp, hx.z_exp) == (zbar.x_exp, zbar.z_exp)
    hz = gauge.transversal_H_action(zbar, G.star_signs)
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
                out = gauge.transversal_H_action(out, sg)
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
    ha = gauge.transversal_H_action(a, sg)
    hb = gauge.transversal_H_action(b, sg)
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
    for g in C.stabilizer_words():
        # codeword(0) state: every stabilizer and Zbar give outcome 0
        assert T.measure(g, rng) == 0
    assert T.measure(C.logical_z_words()[0], rng) == 0


def test_tableau_measurement_repeatable(tetra3):
    _, C, _ = tetra3
    T = gauge.Tableau.zero_logical(C)
    rng = random.Random(5)
    xbar = C.logical_x_words()[0]
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
    for g in C.stabilizer_words():
        assert T.measure(g, rng) == 0
    assert T.measure(C.logical_x_words()[0], rng) == 0


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
