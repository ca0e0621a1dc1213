"""Acceptance suite: the ten headline criteria, one pass/fail line each.

Each test prints `[criterion N] PASS <summary>` on success; pytest assertion
failures mark the criterion failed.  Runtimes stay within the documented
budgets at desk scale.
"""

import math
import random

import pytest

from colexa import code as code_mod
from colexa import colex, gatecalc, gauge, morth
from colexa.code import syndrome
from builders import Drawn, drawn_fix, with_code
from oracles import (
    PauliWord,
    class_sums_consistent,
    face_color_classes,
    min_logical_weight_x,
    min_logical_weight_z,
    stabilizer_words,
    unitary_hierarchy_level,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _report_channel(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(n, msg):
    # bypass pytest's capture so the line shows up without -s
    with _CAPSYS.disabled():
        print(f"\n[criterion {n}] PASS {msg}", flush=True)


def test_criterion_1_lattice_axioms():
    L, _ = with_code(colex.hypercube_lattice(3), 2)
    assert colex.validate_colex(L).ok
    assert colex.check_cell_balance(L).ok
    assert len(L.unstarred()) == 8 and len(L.starred()) == 7
    for dist in (3, 5):
        Lt, _ = with_code(colex.triangle_lattice(dist), 2)
        assert colex.validate_colex(Lt).ok
        assert colex.check_cell_balance(Lt).ok
        assert len(Lt.starred()) == len(Lt.unstarred()) - 1
    report(1, "lattice axioms + star counts (tetra 8/7, triangles off-by-one)")


def test_criterion_2_commutation():
    for d in (2, 3, 4, 5, 6, 7):
        _, C = with_code(colex.hypercube_lattice(3), d)
        assert code_mod.verify_code(C).ok, f"tetra d={d}"
        for dist in (3, 5):
            _, C = with_code(colex.triangle_lattice(dist), d)
            assert code_mod.verify_code(C).ok, f"triangle {dist} d={d}"
    report(2, "verify_code green on all builder codes, d in 2..7")


def test_criterion_3_m_star_orthogonality():
    verdicts = set()
    for d in (2, 3, 4, 5, 6, 7):
        _, C = with_code(colex.hypercube_lattice(3), d)
        M, g1 = morth.code_matrix(C)
        v = tuple(
            morth.is_m_star_orthogonal(M, g1, m, "strong").ok
            for m in (1, 2, 3, 4)
        )
        assert v == (True, True, True, False), f"tetra d={d}"
        verdicts.add(v)
        _, C = with_code(colex.triangle_lattice(3), d)
        M, g1 = morth.code_matrix(C)
        v = tuple(
            morth.is_m_star_orthogonal(M, g1, m, "strong").ok
            for m in (1, 2, 3)
        )
        assert v == (True, True, False), f"triangle d={d}"
    assert len(verdicts) == 1
    report(3, "tetra m<=3 not 4; triangle m<=2 not 3; d-independent")


def test_criterion_4_hierarchy_levels():
    rng = random.Random(2024)
    for d in (2, 3, 4, 5, 6, 7, 9):
        for r in range(1, min(d, 5) + 1):
            if all(math.factorial(r) * a % d == 0 for a in range(d)):
                # no leading coefficient can make the degree-r term survive
                continue
            done = 0
            while done < 100:
                coeffs = [rng.randrange(d) for _ in range(r + 1)]
                if math.factorial(r) * coeffs[r] % d == 0:
                    continue
                done += 1
                assert (
                    gatecalc.hierarchy_level(gatecalc.build_R(d, coeffs), r + 2)[0]
                    == r
                ), (d, r, coeffs)
    assert gatecalc.hierarchy_level(gatecalc.build_T(3))[0] == 1
    assert gatecalc.hierarchy_level(gatecalc.build_T36(3))[0] == 3
    assert gatecalc.hierarchy_level(gatecalc.build_T36(6))[0] == 3
    # unitary-oracle agreement at small d
    for g in (
        gatecalc.build_T(5),
        gatecalc.build_T36(3),
        gatecalc.build_S(5),
        gatecalc.build_T(2),
        gatecalc.build_S(4),
    ):
        assert (
            unitary_hierarchy_level(g.p, g.d, g.N)
            == gatecalc.hierarchy_level(g)[0]
        )
    report(4, "finite-difference level == r on 100 draws per (d,r); oracle agrees")


def test_criterion_5_transversal_T():
    for d in (4, 5, 7):
        _, C = with_code(colex.hypercube_lattice(3), d)
        rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(d))
        assert rep.ok and rep.checked == d**5, f"T d={d}"
    for d in (3, 6):
        _, C = with_code(colex.hypercube_lattice(3), d)
        rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T36(d))
        assert rep.ok and rep.checked == d**5, f"T36 d={d}"
    _, C = with_code(colex.triangle_lattice(3), 5)
    rep = gatecalc.verify_transversal_phase(C, gatecalc.build_T(5))
    assert not rep.ok and rep.witness is not None
    report(5, "tetra T d=4,5,7 + T36 d=3,6 pass; triangle T fails with witness")


def test_criterion_6_transversal_S_and_CX():
    for d in (3, 5, 7):
        _, C = with_code(colex.triangle_lattice(3), d)
        assert gatecalc.verify_transversal_phase(C, gatecalc.build_S(d)).ok
        _, C = with_code(colex.hypercube_lattice(3), d)
        assert gatecalc.verify_transversal_phase(C, gatecalc.build_S(d)).ok
    _, C = with_code(colex.hypercube_lattice(3), 3)
    assert gatecalc.verify_transversal_CX(C).ok
    report(6, "S passes d=3,5,7 on both codes; blockwise CX coset map passes")


def test_criterion_7_distances():
    for d in (2, 3):
        for dist in (3, 5):
            _, C = with_code(colex.triangle_lattice(dist), d)
            assert code_mod.distance(C, "x") == dist
            assert code_mod.distance(C, "z") == dist
        _, C = with_code(colex.hypercube_lattice(3), d)
        dx, dz = code_mod.distance(C, "x"), code_mod.distance(C, "z")
        # independent oracle first, regression pin second
        assert dx == min_logical_weight_x(C.n, d, C.z_stab.rows, C.star_signs)
        assert dz == min_logical_weight_z(C.n, d, C.G0.rows, C.star_signs)
        assert (dx, dz) == (7, 3)
    report(7, "triangle distances nominal; tetra (X,Z)=(7,3) oracle-confirmed")


def test_criterion_8_syndromes():
    L, C = with_code(colex.hypercube_lattice(3), 3)
    v1111 = list(L.vertex_ids).index(15)
    syn = syndrome(C, PauliWord.single(3, 15, v1111, "Z").row)
    assert syn[:4] == (1, 1, 1, 1) and not any(syn[4:])
    syn = syndrome(C, PauliWord.single(3, 15, v1111, "Z", power=2).row)
    assert syn[:4] == (2, 2, 2, 2)
    syn = syndrome(C, PauliWord.single(3, 15, v1111, "X").row)
    faces = L.cells_of_dim(2)
    assert not any(syn[:4])
    assert [i for i, v in enumerate(syn[4:]) if v] == [
        i for i, f in enumerate(faces) if 15 in f.vertices
    ]
    assert sum(1 for v in syn[4:] if v) == 6
    report(8, "Z@1111 flags the 4 cells (k then 2k); X@1111 flags its 6 faces")


def test_criterion_9_gauge_structure():
    for d in (2, 3, 5, 7):
        L, _ = with_code(colex.hypercube_lattice(3), d)
        G = gauge.build_gauge_code(L, d)
        rep = gauge.center_equals_stabilizer(G)
        assert rep.ok, (d, rep.to_dict())
        assert gauge.verify_H_logical(G).ok, d
    _, C = with_code(colex.hypercube_lattice(3), 3)
    assert not gauge.verify_H_stabilizer_code(C).ok  # negative control
    # face-class reconstruction under 100 random tableau errors
    L, C = with_code(colex.hypercube_lattice(3), 3)
    G = gauge.build_gauge_code(L, 3)
    classes_by_cell = [face_color_classes(L, c) for c in L.cells_of_dim(3)]
    rng = random.Random(42)
    for _ in range(100):
        E = tuple(rng.randrange(3) for _ in range(30))  # (x | z) exponents
        T = Drawn(gauge.Tableau.zero_logical(C))
        T.apply_pauli(E)
        outs = dict(enumerate(T.measure(G.gauge_group.rows[:G.face_x.nrows], rng)))
        for classes in classes_by_cell:
            consistent, _ = class_sums_consistent(outs, classes, 3)
            assert consistent
    report(9, "center=stabilizer d=2,3,5,7; H checks; face-class sums agree x100")


def test_criterion_10_gauge_fixing():
    L, C = with_code(colex.hypercube_lattice(3), 3)
    G = gauge.build_gauge_code(L, 3)
    forms = set()
    for seed in range(20):
        T = Drawn(gauge.Tableau.zero_logical(C))
        T.apply_transversal_H(L.star_signs())
        log = drawn_fix(T, G, random.Random(seed))
        assert not any(log["post"]), seed
        rng = random.Random(seed + 1000)
        for g in stabilizer_words(C):
            assert T.measure([g.x_exp + g.z_exp], rng) == [0]
        forms.add(T.canonical_form())
    assert len(forms) == 1
    report(10, "20 seeds end in the identical color-code group, syndrome 0, |+>")
