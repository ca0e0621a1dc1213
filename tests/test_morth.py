"""morth: strong/weak m*-orthogonality with tightness witnesses."""

import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from colexa import cli, colex, morth, ring
from colexa.code import CapExceeded
from builders import with_code


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 6, 7])
def tetra_matrix(request):
    _, C = with_code(colex.hypercube_lattice(3), request.param)
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
    assert one_row_report((1,) * 15, signs, {0}).ok
    assert one_row_report((1,) * 15, signs).witness == [((0,), 1)]
    assert one_row_report((0, 0, 0), (1, -1, 1)).ok


def test_tetra_cell_rows_weigh_zero(tetra_matrix):
    # m = 1 on the G0 rows alone, none of them a G1 row: every weight is 0
    _, C, M, _ = tetra_matrix
    G0 = morth.StarSignedMatrix(C.G0, M.signs)
    assert morth.is_m_star_orthogonal(G0, (), 1).ok


def test_tetra_orthogonality_and_tightness(tetra_matrix):
    d, _, M, g1 = tetra_matrix
    for m in (1, 2, 3):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").ok
    rep = morth.is_m_star_orthogonal(M, g1, 4, "strong")
    assert not rep.ok
    # the tight witness: four distinct cell rows meeting in vertex 1111
    assert (1, 2, 3, 4) in [rows for rows, _ in rep.witness]
    assert morth.max_m_star(M, g1, "strong", 5) == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_triangle_orthogonality_and_tightness(d):
    _, C = with_code(colex.triangle_lattice(3), d)
    M, g1 = morth.code_matrix(C)
    for m in (1, 2):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").ok
    assert not morth.is_m_star_orthogonal(M, g1, 3, "strong").ok
    assert morth.max_m_star(M, g1, "strong", 5) == 2


def test_verdicts_are_d_independent():
    # the builder matrices have 0/1 entries (up to sign folding), so the
    # strong-mode integer weights cannot depend on d
    reports = {}
    for d in (2, 3, 4, 5, 6, 7):
        _, C = with_code(colex.hypercube_lattice(3), d)
        M, g1 = morth.code_matrix(C)
        reports[d] = [
            morth.is_m_star_orthogonal(M, g1, m, "strong").ok
            for m in (1, 2, 3, 4)
        ]
    assert len(set(map(tuple, reports.values()))) == 1


def test_strong_implies_weak(tetra_matrix):
    _, _, M, g1 = tetra_matrix
    for m in (1, 2, 3):
        assert morth.is_m_star_orthogonal(M, g1, m, "strong").ok
        assert morth.is_m_star_orthogonal(M, g1, m, "weak").ok


def test_d2_weak_is_triorthogonality():
    # Bravyi-Haah triorthogonality of the 15-qubit matrix: mod-2 weights of
    # single, double and triple row products, checked directly
    _, C = with_code(colex.hypercube_lattice(3), 2)
    M, g1 = morth.code_matrix(C)
    rows = M.G.rows
    for m in (1, 2, 3):
        rep = morth.is_m_star_orthogonal(M, g1, m, "weak")
        assert rep.ok
        for multiset in itertools.combinations_with_replacement(range(len(rows)), m):
            prod = circle(rows[i] for i in multiset)
            expect = 1 if len(set(multiset)) == 1 and multiset[0] in g1 else 0
            assert sum(prod) % 2 == expect % 2


def test_geometric_cross_check():
    # products of q <= mu' distinct G0 rows are supported on a cell of
    # dimension >= mu' - q + 1, or nowhere
    L, C = with_code(colex.hypercube_lattice(3), 3)
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


def test_report_json_shape(capsys):
    code = cli.main(["morth", "check", "--code", "tetra", "--d", "2", "--m", "4"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1
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
    return not witnesses, witnesses


def verdict(rep) -> tuple:
    return rep.ok, rep.witness or []


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
    _, C = (with_code(colex.hypercube_lattice(3), d) if family == "tetra"
            else with_code(colex.triangle_lattice(3), d))
    M, g1 = morth.code_matrix(C)
    assert verdict(morth.is_m_star_orthogonal(M, g1, m, mode)) == loop_m_star(M, g1, m, mode)
    rows = [list(r) for r in M.G.rows]
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, C.n - 1))
        rows[i][j] = data.draw(st.integers(0, d - 1))
    bad = morth.StarSignedMatrix(ring.ResidueMatrix(d, tuple(map(tuple, rows))), M.signs)
    assert verdict(morth.is_m_star_orthogonal(bad, g1, m, mode)) == loop_m_star(bad, g1, m, mode)


def test_multisets_charged_to_cap():
    _, C = with_code(colex.hypercube_lattice(3), 2)
    M, g1 = morth.code_matrix(C)
    # 5 rows, m = 6: C(10, 6) = 210 multisets of 6 row indices, 1260 in all
    with pytest.raises(CapExceeded):
        morth.is_m_star_orthogonal(M, g1, 6, cap=1259)
    rep = morth.is_m_star_orthogonal(M, g1, 6, cap=1260)
    assert not rep.ok and rep.checked == 210


@pytest.mark.parametrize("m", [62, 63, 64, 100])
def test_weights_past_int64_at_large_m(m):
    # one row of 2s at d = 3 weighs 2^m sum(signs) = 2^(m+1) m-fold: past
    # int64 from m = 62 on, exact in Python ints, with m charged once
    M = morth.StarSignedMatrix(ring.ResidueMatrix(3, ((2, 2, 2, 2),)), (1, 1, -1, 1))
    rep = morth.is_m_star_orthogonal(M, {0}, m, cap=m)
    assert not rep.ok and rep.checked == 1 and rep.witness == [((0,) * m, 2 ** (m + 1))]
    with pytest.raises(CapExceeded):
        morth.is_m_star_orthogonal(M, {0}, m, cap=m - 1)


def offending(M, g1_rows, degrees, mode) -> list:
    """Every (multiset, weight) one morth.offenders call yields, sorted."""
    return sorted((tuple(rows), w) for found, weights in morth.offenders(M, g1_rows, degrees, mode)
                  for rows, w in zip(found.tolist(), weights.tolist()))


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@settings(max_examples=40, deadline=None)
@given(
    # at 2^31 - 1 the weights of m = 1 are int64 and those of m >= 3 are
    # Python ints: n (d-1)^3 >= 2^63
    d=st.sampled_from([2, 3, 4, 6, 7, 2**31 - 1]),
    r=st.integers(1, 7),
    n=st.integers(1, 6),
    m=st.integers(1, 5),
    mode=st.sampled_from(["strong", "weak"]),
    data=st.data(),
)
def test_product_recurrence_matches_multiset_loop(block_rows, d, r, n, m, mode, data):
    # random matrices, about half their entries 0, in blocks of 1, 3 and 7
    # rows, so that the levels of the recurrence are split across blocks
    entry = st.one_of(st.just(0), st.integers(0, d - 1))
    rows = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(r))
    signs = tuple(data.draw(st.sampled_from([1, -1])) for _ in range(n))
    g1 = data.draw(st.sets(st.integers(0, r - 1)))
    degrees = sorted(data.draw(st.sets(st.integers(1, m), min_size=1)))
    M = morth.StarSignedMatrix(ring.ResidueMatrix(d, rows), signs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring, "BLOCK_ROWS", block_rows)
        rep = morth.is_m_star_orthogonal(M, g1, m, mode)
        found = offending(M, g1, degrees, mode)
    assert verdict(rep) == loop_m_star(M, g1, m, mode)
    assert rep.checked == math.comb(r + m - 1, m)
    # one call weighs every degree, as gatecalc reads it
    assert found == sorted(w for k in degrees for w in loop_m_star(M, g1, k, mode)[1])


@pytest.fixture(scope="module")
def triangle9_strong():
    """Triangle L = 9 at d = 3 and its m = 4 strong loop verdict, whose 5456
    (m-1)-multisets take two blocks of ring.BLOCK_ROWS rows."""
    _, C = with_code(colex.triangle_lattice(9), 3)
    M, g1 = morth.code_matrix(C)
    assert math.comb(M.G.nrows + 2, 3) == 5456 > ring.BLOCK_ROWS
    return M, g1, loop_m_star(M, g1, 4, "strong")


def test_triangle9_strong_matches_multiset_loop(triangle9_strong):
    M, g1, loop = triangle9_strong
    assert verdict(morth.is_m_star_orthogonal(M, g1, 4, "strong")) == loop
    assert len(loop[1]) == 148


def test_triangle9_weak_matches_multiset_loop(triangle9_strong):
    # a weak offender is a strong one whose weight is off mod d too, so the
    # weak loop verdict is the strong one filtered (one loop, not two)
    M, g1, (_, strong) = triangle9_strong
    weak = [(rows, w) for rows, w in strong
            if (w - (len(set(rows)) == 1 and rows[0] in g1)) % 3]
    assert verdict(morth.is_m_star_orthogonal(M, g1, 4, "weak")) == (not weak, weak)
