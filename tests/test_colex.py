"""colex: lattice validation, star-bipartitions, builders."""

import dataclasses
import itertools
import json
import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from colexa import cli, code, colex, gatecalc, morth, ring
from colexa.colex import Cell, Lattice, _self_verify
from builders import code_json, with_code


@pytest.fixture(scope="module")
def tetra():
    return with_code(colex.hypercube_lattice(3), 3)


@pytest.fixture(scope="module")
def tri3():
    return with_code(colex.triangle_lattice(3), 3)


def test_tetrahedral_counts(tetra):
    L, _ = tetra
    assert len(L.vertex_ids) == 15
    assert len(L.cells_of_dim(3)) == 4
    assert len(L.cells_of_dim(2)) == 18
    assert len(L.cells_of_dim(1)) == 28
    assert all(len(c.vertices) == 8 for c in L.cells_of_dim(3))
    assert all(len(c.vertices) == 4 for c in L.cells_of_dim(2))


def test_tetrahedral_validates(tetra):
    L, _ = tetra
    assert colex.validate_colex(L).ok
    assert colex.check_cell_balance(L).ok
    assert L.punctured


def test_tetrahedral_star_counts(tetra):
    L, _ = tetra
    assert len(L.unstarred()) == 8
    assert len(L.starred()) == 7
    # popcount rule: starred iff even number of set bits
    for v in L.vertex_ids:
        assert L.star[v] == (bin(v).count("1") % 2 == 0)


def test_tetrahedral_face_star_balance(tetra):
    L, _ = tetra
    for f in L.cells_of_dim(2):
        assert sum(1 for v in f.vertices if L.star[v]) == 2


def test_tetrahedral_cell_intersections(tetra):
    # q distinct 3-cells meet in 2^(4-q) vertices for q <= 3, and in one
    # vertex (1111) for q = 4
    L, _ = tetra
    cells = [c.vertices for c in L.cells_of_dim(3)]
    for q in range(1, 5):
        for combo in itertools.combinations(cells, q):
            inter = frozenset.intersection(*combo)
            assert len(inter) == (2 ** (4 - q) if q <= 3 else 1)
    assert frozenset.intersection(*cells) == {15}


def test_star_bipartition_stable(tetra):
    L, _ = tetra
    again = colex.star_bipartition(L)
    assert again.star == L.star


def test_two_vertex_lattice():
    # closed target |starred| == |unstarred|; a punctured two-vertex lattice
    # would be infeasible (needs an odd vertex count)
    L = colex.Lattice(
        2, False, (0, 1), {0: None, 1: None},
        (colex.Cell(1, frozenset((0, 1))),),
    )
    L = colex.star_bipartition(L)
    assert sorted(L.star.values()) == [False, True]


def test_single_triangle_fails_bipartite():
    cells = tuple(
        colex.Cell(1, frozenset(e)) for e in [(0, 1), (1, 2), (0, 2)]
    ) + (colex.Cell(2, frozenset((0, 1, 2)), color=0),)
    L = colex.Lattice(2, True, (0, 1, 2), {v: None for v in range(3)}, cells)
    rep = colex.validate_colex(L)
    failed = {c.name for c in rep.checks if not c.ok}
    assert "bipartite-skeleton" in failed
    with pytest.raises(ValueError):
        colex.star_bipartition(L)


def closed_4cube_boundary(punctured=False):
    """The boundary of the 4-cube, a closed mu = 3 colex: the 16 four-bit
    vertices, every face of the cube below dimension 4, and the top cells
    {bit i = b}, colored i."""
    cells = []
    for k in (1, 2, 3):
        for free in itertools.combinations(range(4), k):
            fixed = [b for b in range(4) if b not in free]
            for vals in itertools.product((0, 1), repeat=len(fixed)):
                base = sum(v << b for b, v in zip(fixed, vals))
                vertices = frozenset(base | sum(1 << b for b, on in zip(free, bits) if on)
                                     for bits in itertools.product((0, 1), repeat=k))
                cells.append(Cell(k, vertices, fixed[0] if k == 3 else None))
    return Lattice(3, punctured, tuple(range(16)), {v: None for v in range(16)}, tuple(cells))


def test_closed_lattice_checks_valency_and_needs_star_flags():
    L = closed_4cube_boundary()
    assert [len(L.cells_of_dim(k)) for k in (1, 2, 3)] == [32, 24, 8]
    rep = colex.validate_colex(L)
    assert rep.ok
    assert {c.name: c.detail for c in rep.checks}["vertex-valency"] == \
        "valency == mu+1 at every vertex"
    bal = colex.check_cell_balance(L)
    assert not bal.ok and [(c.name, c.ok) for c in bal.checks] == [("star-flags-present", False)]
    # one vertex of valency 3 fails the closed valency check
    cut = dataclasses.replace(L, cells=tuple(c for c in L.cells if c.vertices != {0, 1}))
    assert not {c.name: c.ok for c in colex.validate_colex(cut).checks}["vertex-valency"]


def test_closed_lattice_check_balances_eight_and_eight(tmp_path, capsys):
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(colex.lattice_to_json(closed_4cube_boundary())))
    assert cli.main(["lattice", "check", "--lattice", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and (rep["starred"], rep["unstarred"]) == (8, 8)
    assert {"detail": "closed: starred 8 == unstarred 8", "name": "global-count",
            "ok": True} in rep["balance"]["checks"]


def test_punctured_flag_on_a_closed_lattice_has_no_star_orientation(tmp_path, capsys):
    # one component with as many starred as unstarred vertices: neither
    # orientation gives |starred| = |unstarred| - 1
    with pytest.raises(ValueError, match="no component orientation"):
        colex.star_bipartition(closed_4cube_boundary(punctured=True))
    path = tmp_path / "punctured.json"
    path.write_text(json.dumps(colex.lattice_to_json(closed_4cube_boundary(punctured=True))))
    assert cli.main(["lattice", "check", "--lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("colexa: no component orientation achieves "
                            "|starred| = |unstarred| - 1\n")


def three_paths():
    """A punctured mu = 1 lattice of three paths a-b-c, (1, 2, 3), (4, 5, 6)
    and (7, 8, 9), each with cells {a, b} of color 0 and {b, c} of color 1,
    and no star flags."""
    return {"mu": 1, "punctured": True,
            "vertices": [{"id": v, "star": None} for v in range(1, 10)],
            "cells": [{"dim": 1, "color": color, "vertices": [a + color, a + color + 1]}
                      for a in (1, 4, 7) for color in (0, 1)]}


def test_third_of_three_paths_is_flipped(tmp_path, capsys):
    # each path's 2-coloring stars only b (diff -1); the lexicographically
    # first orientation with diff sum -1 keeps two paths and flips the third
    L = colex.star_bipartition(colex.lattice_from_json(three_paths()))
    assert sorted(v for v, s in L.star.items() if s) == [2, 5, 7, 9]
    path = tmp_path / "paths.json"
    path.write_text(json.dumps(three_paths()))
    assert cli.main(["lattice", "check", "--lattice", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and (rep["starred"], rep["unstarred"]) == (4, 5)


def test_triangle3_counts(tri3):
    L, _ = tri3
    assert len(L.vertex_ids) == 7
    assert len(L.cells_of_dim(2)) == 3
    assert colex.validate_colex(L).ok
    assert colex.check_cell_balance(L).ok
    assert len(L.unstarred()) == 4 and len(L.starred()) == 3


def test_audit_assigns_missing_stars_and_builders_raise_on_a_failed_one(tetra):
    L, _ = tetra
    unflagged = L.with_star({v: None for v in L.vertex_ids})
    assert colex.audit(unflagged)[0].star == L.star
    flipped = L.with_star({**L.star, 1: not L.star[1]})
    audited, rep = colex.audit(flipped)
    assert audited.star == flipped.star
    assert not rep["ok"] and rep["validate"]["ok"] and not rep["balance"]["ok"]
    with pytest.raises(AssertionError, match="builder produced an invalid lattice"):
        _self_verify(flipped)


@pytest.mark.parametrize("builder, arg", [(colex.hypercube_lattice, 3),
                                           (colex.triangle_lattice, 7)])
def test_built_lattices_are_shared_and_read_only(builder, arg):
    L = builder(arg)
    before = colex.lattice_to_json(L)
    loaded = colex.lattice_from_json(before)
    v = L.vertex_ids[0]
    for lattice in (L, loaded):
        with pytest.raises(TypeError):
            lattice.star[v] = not lattice.star[v]
    flipped = L.with_star({**L.star, v: not L.star[v]})
    assert flipped is not L and flipped.star[v] != L.star[v]
    colex.audit(L)
    colex.audit(flipped)
    assert builder(arg) is L
    assert colex.lattice_to_json(L) == before


def test_lattice_keeps_a_private_copy_of_its_star_map():
    star = {0: True, 1: False}
    L = Lattice(1, False, (0, 1), star, (Cell(1, frozenset({0, 1}), color=0),))
    star[0] = False
    assert dict(L.star) == {0: True, 1: False}
    assert L.with_star(star).star == star and dict(L.star) == {0: True, 1: False}


@pytest.mark.parametrize("builder, arg", [(colex.hypercube_lattice, 3),
                                           (colex.triangle_lattice, 7)])
def test_equal_lattices_hash_equal_and_serve_as_dict_keys(builder, arg):
    L = builder(arg)
    same = [L.with_star(L.star), colex.lattice_from_json(colex.lattice_to_json(L))]
    v = L.vertex_ids[0]
    flipped = L.with_star({**L.star, v: not L.star[v]})
    keys = {L: "built", flipped: "flipped"}
    for M in same:
        assert M is not L and M == L and hash(M) == hash(L)
        assert keys[M] == "built"
    assert flipped != L and keys[flipped] == "flipped" and len(keys) == 2


def test_triangle5_counts():
    L, _ = with_code(colex.triangle_lattice(5), 2)
    assert len(L.vertex_ids) == 19
    assert len(L.cells_of_dim(2)) == 9
    assert colex.validate_colex(L).ok
    assert colex.check_cell_balance(L).ok


@pytest.mark.parametrize("distance", [7, 9])
def test_triangle_larger_distances_validate(distance):
    L, _ = with_code(colex.triangle_lattice(distance), 2)
    assert colex.validate_colex(L).ok
    assert colex.check_cell_balance(L).ok
    assert len(L.starred()) == len(L.unstarred()) - 1


def test_triangle_corners_single_plaquette(tri3):
    L, _ = tri3
    plaquettes = L.cells_of_dim(2)
    counts = {
        v: sum(1 for p in plaquettes if v in p.vertices) for v in L.vertex_ids
    }
    assert sorted(counts.values()).count(1) == 3  # three corners


def test_triangle_even_distance_rejected():
    with pytest.raises(ValueError):
        with_code(colex.triangle_lattice(4), 3)


def test_mislabeled_star_flag_fails_balance(tri3):
    L, _ = tri3
    bad = dict(L.star)
    v0 = L.vertex_ids[0]
    bad[v0] = not bad[v0]
    rep = colex.check_cell_balance(L.with_star(bad))
    names = {c.name for c in rep.checks if not c.ok}
    assert "cell-balance" in names
    witness = next(c for c in rep.checks if c.name == "cell-balance").witness
    assert any(v0 in w["vertices"] for w in witness)


def test_lattice_json_round_trip(tetra):
    L, _ = tetra
    back = colex.lattice_from_json(colex.lattice_to_json(L))
    assert back.mu == L.mu and back.punctured == L.punctured
    assert back.vertex_ids == L.vertex_ids
    assert back.star == L.star
    assert set(back.cells) == set(L.cells)


def pair_scan_clashes(L):
    """The mu-cell-coloring clashes as the O(r^2) pair scan over top cells
    that validate_colex ran before it bucketed them by (vertex, color)."""
    clashes = []
    for a, b in itertools.combinations(L.cells_of_dim(L.mu), 2):
        if a.color is not None and a.color == b.color and a.vertices & b.vertices:
            clashes.append((sorted(a.vertices)[0], sorted(b.vertices)[0]))
    return clashes


def recolor(L, colors):
    """L with top cell number i (in cell order) recolored to colors[i]."""
    cells, i = [], 0
    for c in L.cells:
        if c.dim == L.mu:
            c = dataclasses.replace(c, color=colors.get(i, c.color))
            i += 1
        cells.append(c)
    return dataclasses.replace(L, cells=tuple(cells))


def coloring_check(L):
    return next(c for c in colex.validate_colex(L).checks if c.name == "mu-cell-coloring")


def test_coloring_clash_witness_matches_pair_scan(tetra):
    L, _ = tetra
    bad = recolor(L, {1: 0})  # C_0 and C_1 share the vertices with bits 0 and 1 set
    check = coloring_check(bad)
    assert not check.ok
    assert check.witness == pair_scan_clashes(bad) == [(1, 2)]


@settings(max_examples=60, deadline=None)
@given(distance=st.sampled_from([3, 5, 7]), data=st.data())
def test_coloring_audit_matches_pair_scan(distance, data):
    L, _ = with_code(colex.triangle_lattice(distance), 2)
    r = len(L.cells_of_dim(L.mu))
    colors = data.draw(st.dictionaries(st.integers(0, r - 1), st.sampled_from([0, 1, 2, None])))
    bad = recolor(L, colors)
    check, expected = coloring_check(bad), pair_scan_clashes(bad)
    assert check.witness == (expected[:3] or None)
    assert check.ok == (not expected and all(c.color is not None
                                             for c in bad.cells_of_dim(bad.mu)))


def test_one_cell_of_wrong_size_is_reported_not_raised(tetra):
    L, _ = tetra
    for vertices in ((1,), (1, 2, 4)):
        cells = L.cells + (colex.Cell(1, frozenset(vertices)),)
        rep = colex.validate_colex(dataclasses.replace(L, cells=cells))
        sanity = next(c for c in rep.checks if c.name == "cell-sanity")
        assert not sanity.ok
        assert sanity.witness == [{"dim": 1, "vertices": list(vertices)}]


def seed_triangle_lattice(distance):
    """The triangle builder as it was when it scanned every face per plaquette
    and every pair of faces for edges, verbatim up to its lattice; its code
    came from from_colex(L, mu_prime=2, d=d)."""
    k = (distance - 1) // 2
    lo, hi = -(k + 6), 3 * k + 6
    centers = [
        (a, b)
        for a in range(lo, hi)
        for b in range(lo, hi)
        if a + 2 * b >= 0 and a - b >= -4 and 2 * a + b <= 3 * k - 4
    ]
    cset = set(centers)
    assert len(centers) == 3 * k * (k + 1) // 2

    # qudits interior to the patch: unit up/down triangles of the wedge
    tris = []
    for a in range(lo - 1, hi):
        for b in range(lo - 1, hi):
            up = [(a, b), (a + 1, b), (a, b + 1)]
            down = [(a + 1, b), (a, b + 1), (a + 1, b + 1)]
            if all(p in cset for p in up):
                tris.append(tuple(up))
            if all(p in cset for p in down):
                tris.append(tuple(down))

    tri_count = defaultdict(int)
    edge_count = defaultdict(int)
    for t in tris:
        for p in t:
            tri_count[p] += 1
        for e in itertools.combinations(sorted(t), 2):
            edge_count[e] += 1

    # walk the boundary cycle of the wedge to place side and corner qudits
    boundary = defaultdict(list)
    for (u, v), cnt in edge_count.items():
        if cnt == 1:
            boundary[u].append(v)
            boundary[v].append(u)
    assert all(len(nbrs) == 2 for nbrs in boundary.values())
    start = min(boundary)
    walk, prev = [start], None
    while True:
        nxt = [w for w in boundary[walk[-1]] if w != prev][0]
        prev = walk[-1]
        walk.append(nxt)
        if nxt == start:
            break
    walk = walk[:-1]
    assert len(walk) == len(boundary)

    tips = [p for p in walk if tri_count[p] == 1]
    assert len(tips) == 3
    tip_idx = [i for i, p in enumerate(walk) if p in tips]

    faces = [frozenset(t) for t in tris]
    m = len(walk)
    for side in range(3):
        i = tip_idx[side]
        while i != tip_idx[(side + 1) % 3]:
            faces.append(frozenset([walk[i], walk[(i + 1) % m], ("S", side)]))
            i = (i + 1) % m
    for side in range(3):
        faces.append(
            frozenset([walk[tip_idx[(side + 1) % 3]], ("S", side), ("S", (side + 1) % 3)])
        )

    # re-key qudits by contiguous integer id, sorted for determinism
    faces = sorted(faces, key=lambda f: sorted(map(str, f)))
    fid = {f: i for i, f in enumerate(faces)}
    verts = tuple(range(len(faces)))

    cells = []
    for p in sorted(cset):
        members = frozenset(fid[f] for f in faces if p in f)
        cells.append(Cell(2, members, color=(p[0] - p[1]) % 3))
    for fa, fb in itertools.combinations(faces, 2):
        if len(fa & fb) == 2:
            cells.append(Cell(1, frozenset((fid[fa], fid[fb]))))

    return _self_verify(Lattice(2, True, verts, {v: None for v in verts}, tuple(cells)))


@pytest.mark.parametrize("distance", [*range(3, 27, 2), 35])
def test_triangle_lattice_matches_pair_scan_builder(distance):
    L = colex.triangle_lattice(distance)
    assert colex.lattice_to_json(L) == colex.lattice_to_json(seed_triangle_lattice(distance))


def assert_canonical(M):
    assert all(type(e) is int for row in M.rows for e in row)
    assert M.rows == ring.ResidueMatrix(M.modulus, M.rows).rows


@pytest.mark.parametrize("d", [2, 3, 6])
@pytest.mark.parametrize("distance", [3, 5, 7, 9, 13, 25])
def test_triangle_code_matches_pair_scan_builder(d, distance):
    L, C = with_code(colex.triangle_lattice(distance), d)
    seed = code.from_colex(seed_triangle_lattice(distance), mu_prime=2, d=d)
    assert code_json(C) == code_json(seed)
    assert colex.lattice_to_json(L) == colex.lattice_to_json(colex.triangle_lattice(distance))
    for M in (C.G0, C.G1, C.z_stab, C.encoding(), C.G0.transpose(), C.z_stab.transpose()):
        assert_canonical(M)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_tetrahedral_code_rows_are_canonical(d):
    L, C = with_code(colex.hypercube_lattice(3), d)
    assert colex.lattice_to_json(L) == colex.lattice_to_json(colex.hypercube_lattice(3))
    for M in (C.G0, C.G1, C.z_stab, C.encoding(), C.G0.transpose(), C.z_stab.transpose()):
        assert_canonical(M)


# -- hypercube lattices: the paper's claims in every dimension ---------------


def hypercube_code(mu, d):
    return code.from_colex(colex.hypercube_lattice(mu), mu, d)


def degree_mu_gate(mu, d):
    """R gate with phase j^mu."""
    return gatecalc.build_gate("R:" + ",".join(["0"] * mu + ["1"]), d)


@pytest.mark.parametrize("mu", [2, 3, 4, 5])
def test_hypercube_lattice_validates(mu):
    L = colex.hypercube_lattice(mu)
    assert colex.validate_colex(L).ok and colex.check_cell_balance(L).ok
    assert len(L.vertex_ids) == 2 ** (mu + 1) - 1
    # a k-cell picks mu+1-k fixed bits and a nonzero pattern on them
    for k in range(1, mu + 1):
        assert len(L.cells_of_dim(k)) == math.comb(mu + 1, k) * (2 ** (mu + 1 - k) - 1)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("mu", [2, 3, 4, 5])
def test_hypercube_code_distances_and_m_star(mu, d):
    C = hypercube_code(mu, d)
    assert code.verify_code(C).ok
    assert (code.distance(C, "x"), code.distance(C, "z")) == (2 ** mu - 1, 3)
    assert morth.max_m_star(*morth.code_matrix(C)) == mu


@pytest.mark.parametrize("mu,d,level", [
    (3, 5, 3), (4, 5, 4), (4, 7, 4),
    # j^p = j mod p: the level drops when d <= mu
    (3, 3, 1), (4, 3, 2), (5, 5, 1),
])
def test_hypercube_degree_mu_gate_is_transversal(mu, d, level):
    g = degree_mu_gate(mu, d)
    assert gatecalc.verify_transversal_phase(hypercube_code(mu, d), g).ok
    assert gatecalc.hierarchy_level(g)[0] == level


def test_hypercube_degree_4_gate_fails_on_mu_3():
    rep = gatecalc.verify_transversal_phase(hypercube_code(3, 5), degree_mu_gate(4, 5))
    assert not rep.ok and rep.witness is not None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mu_2_hypercube_code_is_triangle_3(d):
    """Some qudit permutation carries the mu = 2 hypercube code's stars,
    span(G0) and span(Zstab) onto those of triangle L = 3."""
    H = hypercube_code(2, d)
    _, T = with_code(colex.triangle_lattice(3), d)
    target = (set(ring.iter_span(T.G0)), set(ring.iter_span(T.z_stab)))
    spans = (set(ring.iter_span(H.G0)), set(ring.iter_span(H.z_stab)))
    perms = (p for p in itertools.permutations(range(H.n))
             if tuple(H.star_signs[i] for i in p) == T.star_signs)
    assert any(tuple({tuple(v[i] for i in p) for v in s} for s in spans) == target
               for p in perms)
