"""morth: strong/weak m*-orthogonality with tightness witnesses."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from colexa import colex, morth, ring
from colexa.code import CapExceeded


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 6, 7])
def tetra_matrix(request):
    _, C = colex.build_tetrahedral(request.param)
    M, g1 = morth.code_matrix(C)
    return request.param, C, M, g1


def circle(rows) -> list:
    """Entrywise integer product of canonical representatives; never
    reduced mod d."""
    return [math.prod(col) for col in zip(*rows)]


def one_row_report(row, signs, g1_rows=()):
    """The m = 1 report of a single signed row: its signed weight."""
    M = morth.StarSignedMatrix(ring.ResidueMatrix(5, (row,)), signs)
    return morth.is_m_star_orthogonal(M, g1_rows, 1)


def test_signed_weight_examples():
    # the all-ones row weighs 8 - 7 = 1: it holds as a G1 row, and as a G0
    # row it is the one witness, with that weight
    signs = (1,) * 8 + (-1,) * 7
    assert one_row_report((1,) * 15, signs, {0}).holds
    assert one_row_report((1,) * 15, signs).witnesses == [((0,), 1)]
    assert one_row_report((0, 0, 0), (1, -1, 1)).holds


def test_tetra_cell_rows_weigh_zero(tetra_matrix):
    # m = 1 on the G0 rows alone, none of them a G1 row: every weight is 0
    _, C, M, _ = tetra_matrix
    G0 = morth.StarSignedMatrix(C.G0, M.signs)
    assert morth.is_m_star_orthogonal(G0, (), 1).holds


def test_tetra_orthogonality_and_tightness(tetra_matrix):
    d, _, M, g1 = tetra_matrix
    for m in (1, 2, 3):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").holds
    rep = morth.is_m_star_orthogonal(M, g1, 4, "strong")
    assert not rep.holds
    # the tight witness: four distinct cell rows meeting in vertex 1111
    assert (1, 2, 3, 4) in [rows for rows, _ in rep.witnesses]
    assert morth.max_m_star(M, g1, "strong", 5) == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_triangle_orthogonality_and_tightness(d):
    _, C = colex.build_triangle_2d(d, 3)
    M, g1 = morth.code_matrix(C)
    for m in (1, 2):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").holds
    assert not morth.is_m_star_orthogonal(M, g1, 3, "strong").holds
    assert morth.max_m_star(M, g1, "strong", 5) == 2


def test_verdicts_are_d_independent():
    # the builder matrices have 0/1 entries (up to sign folding), so the
    # strong-mode integer weights cannot depend on d
    reports = {}
    for d in (2, 3, 4, 5, 6, 7):
        _, C = colex.build_tetrahedral(d)
        M, g1 = morth.code_matrix(C)
        reports[d] = [
            morth.is_m_star_orthogonal(M, g1, m, "strong").holds
            for m in (1, 2, 3, 4)
        ]
    assert len(set(map(tuple, reports.values()))) == 1


def test_strong_implies_weak(tetra_matrix):
    _, _, M, g1 = tetra_matrix
    for m in (1, 2, 3):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").holds
        assert morth.is_m_star_orthogonal(M, g1, m, "weak").holds


def test_d2_weak_is_triorthogonality():
    # Bravyi-Haah triorthogonality of the 15-qubit matrix: mod-2 weights of
    # single, double and triple row products, checked directly
    _, C = colex.build_tetrahedral(2)
    M, g1 = morth.code_matrix(C)
    rows = M.G.rows
    for m in (1, 2, 3):
        rep = morth.is_m_star_orthogonal(M, g1, m, "weak")
        assert rep.holds
        for multiset in itertools.combinations_with_replacement(range(len(rows)), m):
            prod = circle(rows[i] for i in multiset)
            expect = 1 if len(set(multiset)) == 1 and multiset[0] in g1 else 0
            assert sum(prod) % 2 == expect % 2


def test_geometric_cross_check():
    # products of q <= mu' distinct G0 rows are supported on a cell of
    # dimension >= mu' - q + 1, or nowhere
    L, C = colex.build_tetrahedral(3)
    idx = {v: j for j, v in enumerate(L.vertex_ids)}
    cells_by_dim = {
        k: [frozenset(idx[v] for v in c.vertices) for c in L.cells_of_dim(k)]
        for k in (1, 2, 3)
    }
    for q in (1, 2, 3):
        for combo in itertools.combinations(range(C.G0.nrows), q):
            prod = circle(C.G0.rows[i] for i in combo)
            supp = frozenset(j for j, e in enumerate(prod) if e)
            if not supp:
                continue
            dim = 3 - q + 1
            assert any(
                supp == cell
                for k in range(dim, 4)
                for cell in cells_by_dim.get(k, [])
            ), (combo, sorted(supp))


def test_all_ones_single_row_condition2_only():
    M = morth.StarSignedMatrix(ring.ResidueMatrix(5, ((1,),)), (1,))
    assert morth.max_m_star(M, {0}, "strong", 7) == 7


def test_report_json_shape():
    _, C = colex.build_tetrahedral(2)
    M, g1 = morth.code_matrix(C)
    obj = morth.is_m_star_orthogonal(M, g1, 4, "strong").to_dict()
    assert obj["m"] == 4 and obj["mode"] == "strong" and obj["holds"] is False
    assert all(set(w) == {"rows", "weight"} for w in obj["witnesses"])
    # canonical (lexicographic) witness order
    assert obj["witnesses"] == sorted(obj["witnesses"], key=lambda w: w["rows"])


def loop_m_star(M, g1_rows, m, mode):
    """The multiset loop is_m_star_orthogonal ran before it went blocked:
    one circle product per multiset, in lexicographic order."""
    g1 = frozenset(g1_rows)
    witnesses = []
    for multiset in itertools.combinations_with_replacement(range(M.G.nrows), m):
        prod = circle(M.G.rows[i] for i in multiset)
        w = sum(s * e for s, e in zip(M.signs, prod))
        expect = 1 if len(set(multiset)) == 1 and multiset[0] in g1 else 0
        bad = (w - expect) % M.G.modulus != 0 if mode == "weak" else w != expect
        if bad:
            witnesses.append((multiset, w))
    return morth.OrthogonalityReport(m, mode, not witnesses, witnesses).to_dict()


@settings(max_examples=60, deadline=None)
@given(
    # at 2^31 - 1 the weights of m >= 3 leave int64: 15 (d-1)^3 >= 2^63
    d=st.sampled_from([2, 3, 4, 6, 7, 2**31 - 1]),
    family=st.sampled_from(["tetra", "triangle"]),
    m=st.integers(1, 4),
    mode=st.sampled_from(["strong", "weak"]),
    data=st.data(),
)
def test_blocked_check_matches_multiset_loop(d, family, m, mode, data):
    _, C = (colex.build_tetrahedral(d) if family == "tetra"
            else colex.build_triangle_2d(d, 3))
    M, g1 = morth.code_matrix(C)
    assert morth.is_m_star_orthogonal(M, g1, m, mode).to_dict() == loop_m_star(M, g1, m, mode)
    rows = [list(r) for r in M.G.rows]
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, C.n - 1))
        rows[i][j] = data.draw(st.integers(0, d - 1))
    bad = morth.StarSignedMatrix(ring.ResidueMatrix(d, tuple(map(tuple, rows))), M.signs)
    assert morth.is_m_star_orthogonal(bad, g1, m, mode).to_dict() == loop_m_star(bad, g1, m, mode)


def test_multisets_charged_to_cap():
    _, C = colex.build_tetrahedral(2)
    M, g1 = morth.code_matrix(C)
    # 5 rows, m = 6: C(10, 6) = 210 multisets
    with pytest.raises(CapExceeded):
        morth.is_m_star_orthogonal(M, g1, 6, cap=209)
    assert not morth.is_m_star_orthogonal(M, g1, 6, cap=210).holds
