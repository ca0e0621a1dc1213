"""code: stabilizers, codewords, syndromes, brute-force distances."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colexa import code as code_mod
from colexa import colex, gatecalc, gauge, morth, ring
from colexa.reports import Report
from builders import with_code
from oracles import (PauliWord, cell_incidence_rows, logical_words, min_logical_weight_x,
                     min_logical_weight_z, stabilizer_words, word_phase)


@pytest.fixture(scope="module")
def tetra3():
    return with_code(colex.hypercube_lattice(3), 3)


def site(L, vertex):
    return list(L.vertex_ids).index(vertex)


def test_generator_counts(tetra3):
    _, C = tetra3
    assert C.n == 15
    assert C.G0.nrows == 4
    assert C.G1.rows == ((1,) * 15,)
    assert C.z_stab.nrows == 18
    assert all(sum(1 for e in r if e) == 8 for r in C.G0.rows)


def test_symplectic_phase_basics():
    # X against Z on one qudit, and X X against Z Z^(d-1) on two
    assert code_mod.symplectic_phase(np.array([[1, 0]]), np.array([[0, 1]]), 5).tolist() == [[1]]
    for d in (2, 3, 4, 7):
        XX, ZZc = np.array([[1, 1, 0, 0]]), np.array([[0, 0, 1, d - 1]])
        assert code_mod.symplectic_phase(XX, ZZc, d).tolist() == [[0]]


def test_logical_pair_phase_one(tetra3):
    _, C = tetra3
    xbar, zbar = (np.array([w.row]) for w in logical_words(C))
    assert code_mod.symplectic_phase(xbar, zbar, C.d).tolist() == [[1]]
    assert word_phase(*logical_words(C)) == 1


@settings(max_examples=60, deadline=None)
@given(
    # 2^40 + 15 needs dtype=object: n (d-1)^2 passes 2^63
    d=st.sampled_from([2, 3, 4, 6, 2**40 + 15]),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_symplectic_phase_matches_word_oracle(d, n, data):
    def rows():
        count = data.draw(st.integers(0, 4))
        return [data.draw(st.lists(st.integers(-d, 2 * d), min_size=2 * n, max_size=2 * n))
                for _ in range(count)]

    A, B = rows(), rows()
    dtype = ring.exact_dtype(2 * n * (2 * d) ** 2)
    a, b = (np.array(M, dtype=dtype).reshape(len(M), 2 * n) for M in (A, B))
    P = code_mod.symplectic_phase(a, b, d)
    assert P.shape == (len(A), len(B))
    words = [[PauliWord(d, r[:n], r[n:]) for r in M] for M in (A, B)]
    assert P.tolist() == [[word_phase(u, v) for v in words[1]] for u in words[0]]
    assert ((P + code_mod.symplectic_phase(b, a, d).T) % d == 0).all()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_verify_code_tetra(d):
    _, C = with_code(colex.hypercube_lattice(3), d)
    assert code_mod.verify_code(C).ok


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_verify_code_triangle(d):
    _, C = with_code(colex.triangle_lattice(3), d)
    assert code_mod.verify_code(C).ok


def test_star_flip_breaks_commutation(tetra3):
    L, _ = tetra3
    bad = dict(L.star)
    bad[7] = not bad[7]
    C = code_mod.from_colex(L.with_star(bad), mu_prime=3, d=3)
    assert not code_mod.verify_code(C).ok


def term_set(cw) -> set:
    """A codeword's terms as a set of tuples (`tuple in ndarray` would be an
    elementwise any)."""
    return {tuple(t) for t in cw.terms.tolist()}


def test_codeword_counts_and_disjointness(tetra3):
    _, C = tetra3
    w0 = term_set(code_mod.codeword(C, 0))
    w1 = term_set(code_mod.codeword(C, 1))
    assert len(w0) == len(w1) == 3**4
    assert not (w0 & w1)
    assert (0,) * 15 in w0
    # x=0 terms are exactly the row span of G0
    assert w0 == set(ring.iter_span(C.G0))
    # x=1 terms are all-ones plus span elements
    for t in w1:
        shifted = tuple((e - 1) % 3 for e in t)
        assert shifted in w0


@pytest.mark.parametrize("d,dtype", [(2, np.uint8), (5, np.uint8), (256, np.uint8),
                                     (257, np.uint16), (2**32 + 1, np.uint64),
                                     (2**64, np.uint64), (2**64 + 1, object)])
def test_codeword_terms_are_a_sorted_read_only_array(d, dtype):
    """One row per distinct term, in lexicographic order, in the narrowest
    dtype that holds d - 1: the coset's terms, in some order.  G0 keeps at
    most d^2 <= 25 terms, d terms to d = 257, and none past 2^20, where the
    one term is x.G1."""
    rows = ((1, d - 1, 0, 1), (0, 2, 1, d - 2))
    G0 = ring.ResidueMatrix(d, rows[:2 if d <= 5 else 1 if d <= 257 else 0])
    G1 = ring.ResidueMatrix(d, ((1, d - 1, 0, 1),))
    C = code_mod.ColorCode(d, 4, (1,) * 4, G0=G0, G1=G1, z_stab=G1)
    cw = code_mod.codeword(C, 1)
    rows = cw.terms.tolist()
    assert cw.terms.dtype == dtype and not cw.terms.flags.writeable
    assert len(rows) == ring.span_size(C.G0)
    assert rows == [list(t) for t in sorted(set(ring.iter_span(C.G0, (1, d - 1, 0, 1))))]


def test_codeword_cap(tetra3):
    _, C = tetra3
    with pytest.raises(code_mod.CapExceeded):
        code_mod.codeword(C, 0, cap=10)


def test_syndrome_z_error_hits_cells(tetra3):
    L, C = tetra3
    E = PauliWord.single(3, 15, site(L, 0b1111), "Z")
    syn = code_mod.syndrome(C, E.row)
    assert syn[:4] == (1, 1, 1, 1)
    assert not any(syn[4:])
    E2 = PauliWord.single(3, 15, site(L, 0b1111), "Z", power=2)
    assert code_mod.syndrome(C, E2.row)[:4] == (2, 2, 2, 2)


def test_syndrome_x_error_hits_six_faces(tetra3):
    L, C = tetra3
    E = PauliWord.single(3, 15, site(L, 0b1111), "X")
    syn = code_mod.syndrome(C, E.row)
    assert not any(syn[:4])
    assert sum(1 for v in syn[4:] if v) == 6
    # the six flagged faces are exactly those containing vertex 1111
    faces = L.cells_of_dim(2)
    flagged = [i for i, v in enumerate(syn[4:]) if v]
    assert flagged == [i for i, f in enumerate(faces) if 15 in f.vertices]


def test_syndrome_stabilizer_is_silent(tetra3):
    _, C = tetra3
    for g in stabilizer_words(C):
        assert not any(code_mod.syndrome(C, g.row))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_syndrome_homomorphism(data, tetra3):
    _, C = tetra3
    draw_word = lambda: PauliWord(
        3,
        tuple(data.draw(st.integers(0, 2)) for _ in range(15)),
        tuple(data.draw(st.integers(0, 2)) for _ in range(15)),
    )
    E1, E2 = draw_word(), draw_word()
    prod = PauliWord(
        3,
        tuple((a + b) % 3 for a, b in zip(E1.x_exp, E2.x_exp)),
        tuple((a + b) % 3 for a, b in zip(E1.z_exp, E2.z_exp)),
    )
    s1, s2, sp = (code_mod.syndrome(C, E.row) for E in (E1, E2, prod))
    assert sp == tuple((a + b) % 3 for a, b in zip(s1, s2))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("dist", [3, 5])
def test_triangle_distance_matches_oracle(d, dist):
    _, C = with_code(colex.triangle_lattice(dist), d)
    assert code_mod.distance(C, "x") == dist
    assert code_mod.distance(C, "z") == dist
    assert min_logical_weight_x(C.n, d, C.z_stab.rows, C.star_signs) == dist
    assert min_logical_weight_z(C.n, d, C.G0.rows, C.star_signs) == dist


@pytest.mark.parametrize("d", [2, 3])
def test_tetra_distance_matches_oracle(d):
    _, C = with_code(colex.hypercube_lattice(3), d)
    dx = code_mod.distance(C, "x")
    dz = code_mod.distance(C, "z")
    assert dx == min_logical_weight_x(C.n, d, C.z_stab.rows, C.star_signs)
    assert dz == min_logical_weight_z(C.n, d, C.G0.rows, C.star_signs)
    # regression pins, justified by the oracle agreement above
    assert (dx, dz) == (7, 3)


def test_distance_cap(tetra3):
    _, C = tetra3
    with pytest.raises(code_mod.CapExceeded):
        code_mod.distance(C, "x", cap=10)


def test_code_json_round_trip(tetra3):
    _, C = tetra3
    back = code_mod.code_from_json(code_mod.code_to_json(C))
    assert back.d == C.d and back.n == C.n
    assert back.G0.rows == C.G0.rows
    assert back.G1.rows == C.G1.rows
    assert back.z_stab.rows == C.z_stab.rows
    assert back.star_signs == C.star_signs
    assert back.z_logical == C.z_logical


def test_code_matrices_take_n_columns():
    """A G0 built from no rows has width 0 and takes n; the code then
    answers as one whose G0 spans {0}.  A matrix with rows of another width
    is refused."""
    G1, Z = ring.ResidueMatrix(3, ((1, 1, 1),)), ring.ResidueMatrix(3, ((1, 2, 0),))
    C = code_mod.ColorCode(3, 3, (1, 1, 1), G0=ring.ResidueMatrix(3, ()), G1=G1, z_stab=Z)
    assert C.G0.array.shape == (0, 3)
    assert not code_mod.verify_code(C).ok
    assert (code_mod.distance(C, "x"), code_mod.distance(C, "z")) == (3, 1)
    assert term_set(code_mod.codeword(C, 1)) == {(1, 1, 1)}
    with pytest.raises(ValueError, match="z_stab has 2 columns, not n = 3"):
        code_mod.ColorCode(3, 3, (1, 1, 1), G0=G1, G1=G1, z_stab=ring.ResidueMatrix(3, ((1, 2),)))


@pytest.mark.parametrize("n", [255, 256, 300])
def test_distance_counts_weights_past_a_byte(n):
    """With no X stabilizers the one logical coset of x = 1 is the all-ones
    row: its weight n must not wrap in the dtype the rows are weighed in."""
    ones = ring.ResidueMatrix(2, np.ones((1, n), dtype=np.int64))
    C = code_mod.ColorCode(2, n, (1,) * n, G0=ring.ResidueMatrix(2, ()), G1=ones, z_stab=ones)
    assert code_mod.distance(C, "x") == code_mod._enumerate_distance(C, "x") == n


def test_from_colex_rejects_bad_mu_prime(tetra3):
    L, _ = tetra3
    with pytest.raises(ValueError):
        code_mod.from_colex(L, mu_prime=1, d=3)
    with pytest.raises(ValueError):
        code_mod.from_colex(L, mu_prime=4, d=3)


def named_lattice(name):
    family, size = name.split("-")
    build = colex.hypercube_lattice if family == "hypercube" else colex.triangle_lattice
    return build(int(size))


CODE_LATTICES = [(f"hypercube-{mu}", mu_prime) for mu in (2, 3, 4, 5)
                 for mu_prime in range(2, mu + 1)]
CODE_LATTICES += [(f"triangle-{L}", 2) for L in (3, 5, 7)]


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12])
@pytest.mark.parametrize("name, mu_prime", CODE_LATTICES)
def test_from_colex_verdict_matches_the_snf(name, mu_prime, d):
    # from_colex accepts exactly when the factored [G1; G0] has no left kernel
    L = named_lattice(name)
    n = len(L.vertex_ids)
    encoding = ring.ResidueMatrix(d, ((1,) * n,) + code_mod.cell_rows(L, mu_prime, d).rows)
    expected = ring.kernel_mod(encoding).nrows == 0
    try:
        code_mod.from_colex(L, mu_prime, d)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
    # mu' < mu leaves dependent indicator rows on every hypercube
    assert expected == (name.startswith("triangle") or mu_prime == L.mu)


ROW_LATTICES = [f"hypercube-{mu}" for mu in (3, 4, 5)]
ROW_LATTICES += [f"triangle-{L}" for L in range(3, 15, 2)]


@pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
@pytest.mark.parametrize("name", ROW_LATTICES)
def test_kept_rows_and_verdicts_match_the_oracle(name, d):
    """cell_rows, one cast of the incidence the lattice keeps, equals rows
    read straight off its cells, signed and unsigned; the verdict a lattice
    keeps per (mu', d) equals a fresh elimination of [G1; G0] built from
    those rows, on the call that decides it and on the one that reads it."""
    L = named_lattice(name)
    sigma = L.star_signs()
    for dim in range(1, L.mu + 1):
        assert code_mod.cell_rows(L, dim, d).rows == cell_incidence_rows(L, dim, d)
        assert code_mod.cell_rows(L, dim, d, sigma).rows == cell_incidence_rows(L, dim, d, sigma)
    for mu_prime in range(2, L.mu + 1):
        fresh = ring._eliminate(((1,) * len(sigma),) + cell_incidence_rows(L, mu_prime, d), d)
        for _ in range(2):
            try:
                kept = code_mod.from_colex(L, mu_prime, d).injective()
            except ValueError:
                kept = False
            assert kept == fresh


def pairwise_verify_code(C):
    """Reference commutation audit: word_phase over every word pair,
    the loop verify_code ran before it became matrix products."""
    rep = Report()
    stabs = stabilizer_words(C)
    bad = []
    for i, j in itertools.combinations(range(len(stabs)), 2):
        c = word_phase(stabs[i], stabs[j])
        if c != 0:
            bad.append({"pair": [i, j], "phase": c})
    rep.add("stabilizers-commute", not bad, witness=bad[:3] or None)
    logicals = list(logical_words(C))
    bad = []
    for li, lw in enumerate(logicals):
        for si, sw in enumerate(stabs):
            c = word_phase(lw, sw)
            if c != 0:
                bad.append({"logical": li, "stabilizer": si, "phase": c})
    rep.add("logicals-commute-with-stabilizers", not bad, witness=bad[:3] or None)
    c = word_phase(*logical_words(C))
    rep.add("logical-pair-omega-commutes", c == 1, f"phase {c}, expected 1")
    rep.add(
        "injective-encoding",
        ring.kernel_mod(ring.ResidueMatrix(C.d, C.G1.rows + C.G0.rows)).nrows == 0,
        "[G1; G0] has trivial left kernel",
    )
    return rep.to_dict()


def flip(M, i, j, by=1):
    rows = [list(r) for r in M.rows]
    rows[i][j] += by
    return ring.ResidueMatrix(M.modulus, tuple(map(tuple, rows)))


def test_verify_code_matches_pairwise_on_corrupted_z_stab(tetra3):
    _, C = tetra3
    bad = dataclasses.replace(C, z_stab=flip(C.z_stab, 5, 0))
    rep = code_mod.verify_code(bad).to_dict()
    assert not rep["ok"]
    assert rep == pairwise_verify_code(bad)
    witness = rep["checks"][0]["witness"]
    assert witness and all(w["pair"][1] == C.G0.nrows + 5 for w in witness)


@settings(max_examples=40, deadline=None)
@given(
    # 2^31 - 1 takes the Python-int product path: 15 * (d-1)^2 >= 2^63
    d=st.sampled_from([2, 3, 4, 5, 6, 7, 2**31 - 1]),
    family=st.sampled_from(["tetra", "triangle"]),
    data=st.data(),
)
def test_verify_code_matches_pairwise_on_random_corruption(d, family, data):
    _, C = (with_code(colex.hypercube_lattice(3), d) if family == "tetra"
            else with_code(colex.triangle_lattice(3), d))
    assert code_mod.verify_code(C).to_dict() == pairwise_verify_code(C)
    field = data.draw(st.sampled_from(["G0", "G1", "z_stab"]))
    M = getattr(C, field)
    for _ in range(data.draw(st.integers(1, 3))):
        M = flip(M, data.draw(st.integers(0, M.nrows - 1)),
                 data.draw(st.integers(0, C.n - 1)), data.draw(st.integers(1, d - 1)))
    bad = dataclasses.replace(C, **{field: M})
    assert code_mod.verify_code(bad).to_dict() == pairwise_verify_code(bad)


def test_mul_transpose_int64_and_object_agree():
    A = ring.ResidueMatrix(7, ((1, 2, 3), (6, 6, 6)))
    B = ring.ResidueMatrix(7, ((4, 5, 6), (0, 1, 0), (6, 6, 6)))
    small = ring.mul_transpose(A, B)
    assert small.dtype.name == "int64"
    big_N = 2**40 + 15  # n * (N-1)^2 no longer fits int64
    A2 = ring.ResidueMatrix(big_N, A.rows)
    B2 = ring.ResidueMatrix(big_N, ((big_N - 1,) * 3, (1, 1, 1)))
    exact = [[sum(a * b for a, b in zip(r, c)) % big_N for c in B2.rows] for r in A2.rows]
    out = ring.mul_transpose(A2, B2)
    assert out.dtype == object and out.tolist() == exact
    assert small.tolist() == [
        [sum(a * b for a, b in zip(r, c)) % 7 for c in B.rows] for r in A.rows
    ]


DISTANCE_CASES = [("tetra", d, None) for d in (2, 3, 4, 6)] + [
    ("triangle", d, L) for L in (3, 5) for d in (2, 3)
]


@pytest.mark.parametrize("family,d,L", DISTANCE_CASES)
def test_both_distance_methods_match_oracle(family, d, L):
    _, C = with_code(colex.hypercube_lattice(3) if family == "tetra" else colex.triangle_lattice(L), d)
    dz = min_logical_weight_z(C.n, d, C.G0.rows, C.star_signs)
    # the X oracle gives 7 for tetra at d = 6 too, but takes about 90 s
    dx = 7 if (family, d) == ("tetra", 6) else min_logical_weight_x(
        C.n, d, C.z_stab.rows, C.star_signs)
    assert code_mod.distance(C, "x") == dx
    assert code_mod.distance(C, "z") == dz
    if (family, d) == ("tetra", 6):
        # each method decides one sector within the default cap: the X search
        # needs about 9 * 10^7 vectors, the commutant has 6^11 elements
        assert code_mod._enumerate_distance(C, "x") == dx
        assert code_mod._search_distance(C, "z") == dz
        with pytest.raises(code_mod.CapExceeded):
            code_mod._search_distance(C, "x")
        with pytest.raises(code_mod.CapExceeded):
            code_mod._enumerate_distance(C, "z")
        return
    for method in (code_mod._enumerate_distance, code_mod._search_distance):
        assert (method(C, "x"), method(C, "z")) == (dx, dz)


@pytest.mark.parametrize("d", [5, 7])
def test_tetra_z_distance_within_default_cap(d):
    # the commutant has d^11 elements, beyond the cap; the support search
    # needs at most 15 (d-1) + 105 (d-1)^2 + 455 (d-1)^3 vectors
    _, C = with_code(colex.hypercube_lattice(3), d)
    assert code_mod.distance(C, "z") == 3


def test_distance_cap_exceeded_only_when_both_methods_exceed(tetra3):
    _, C = tetra3
    # the Z commutant has 3^11 = 177147 elements; the support search tests
    # 15*2 + 105*4 vectors of weight 1 and 2, and its 452nd, (1, 1, 2) on
    # qudits 0, 1, 2, is the first Z logical
    with pytest.raises(code_mod.CapExceeded, match="both exceed"):
        code_mod.distance(C, "z", cap=451)
    assert code_mod.distance(C, "z", cap=452) == 3
    with pytest.raises(code_mod.CapExceeded):
        code_mod._search_distance(C, "z", cap=451)
    with pytest.raises(code_mod.CapExceeded):
        code_mod._enumerate_distance(C, "z", cap=177146)
    assert code_mod._enumerate_distance(C, "z", cap=177147) == 3


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([4, 6, 127, 128, 129]), n=st.integers(2, 3), data=st.data())
def test_distance_methods_agree_at_the_block_dtype_edges(d, n, data):
    # k = 1 codes from JSON: G1 alone on qudit 0 keeps [G1; G0] injective,
    # and G0's unit on qudit 1 keeps the commutant at d^(n-1) vectors; a Z
    # row on qudit 0 alone makes the Z distance at least 2.  Span blocks are
    # uint8 up to d = 128 and uint16 at 129
    def row():
        return data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))

    G0 = [0, 1] + row()[2:]
    G1 = [1] + row()[1:]
    Zstab = [row() for _ in range(data.draw(st.integers(0, 2)))]
    if data.draw(st.booleans()):
        Zstab.append([1] + [0] * (n - 1))
    C = code_mod.code_from_json({"d": d, "n": n, "stars": [1] * n, "G0": [G0], "G1": [G1],
                                 "Zstab": Zstab})

    def outcome(method, sector):
        try:
            return method(C, sector)
        except ValueError as exc:
            return str(exc)

    for sector in ("x", "z"):
        assert (outcome(code_mod._enumerate_distance, sector)
                == outcome(code_mod._search_distance, sector))


def word_loop_syndrome(C, E):
    """The syndrome as it was before it became two products: the phase of
    every stabilizer word against E, X words first."""
    return tuple(word_phase(g, E) for g in stabilizer_words(C))


def json_code(d, G0, Zstab):
    """A tetra-sized code from JSON with the given generator rows."""
    n = 15
    return code_mod.code_from_json({"d": d, "n": n, "stars": [1] * n, "G0": G0,
                                    "G1": [[1] * n], "Zstab": Zstab})


@settings(max_examples=60, deadline=None)
@given(
    # 2^31 - 1 takes the Python-int product path: n * (d-1)^2 >= 2^63
    d=st.sampled_from([2, 3, 4, 6, 8, 12, 2**31 - 1]),
    family=st.sampled_from(["tetra", "triangle", "no G0", "no Zstab"]),
    data=st.data(),
)
def test_syndrome_products_match_word_loop(d, family, data):
    if family == "tetra":
        _, C = with_code(colex.hypercube_lattice(3), d)
    elif family == "triangle":
        _, C = with_code(colex.triangle_lattice(5), d)
    else:
        _, T = with_code(colex.hypercube_lattice(3), 2)
        G0 = [] if family == "no G0" else [list(r) for r in T.G0.rows]
        Zstab = [] if family == "no Zstab" else [list(r) for r in T.z_stab.rows]
        C = json_code(d, G0, Zstab)
    exps = st.lists(st.integers(-d, 2 * d), min_size=C.n, max_size=C.n)
    E = PauliWord(d, tuple(data.draw(exps)), tuple(data.draw(exps)))
    syn = code_mod.syndrome(C, E.row)
    assert syn == word_loop_syndrome(C, E)
    assert len(syn) == C.G0.nrows + C.z_stab.nrows
    assert all(type(s) is int for s in syn)


def test_syndrome_rejects_mismatched_word(tetra3):
    # an error row has 2n = 30 entries; a row carries no d to mismatch
    _, C = tetra3
    for e in (PauliWord.single(3, 14, 0, "Z").row, PauliWord.single(3, 16, 0, "Z").row,
              (0,) * 15):
        with pytest.raises(ValueError, match="not 2n = 30"):
            code_mod.syndrome(C, e)


@pytest.mark.parametrize("lo,hi,w", [(0, 2, 0), (0, 3, 1), (1, 4, 3), (0, 6, 2), (1, 2, 4)])
def test_product_matches_itertools(lo, hi, w):
    assert list(code_mod._product(lo, hi, w)) == list(itertools.product(range(lo, hi), repeat=w))


def test_product_at_huge_range_is_counted():
    d = 2**64
    assert list(itertools.islice(code_mod._product(1, d, 2), 3)) == [(1, 1), (1, 2), (1, 3)]


def tiny_code(d=2, G1=((1, 1, 1),)):
    """A 3-qudit code with logical X rows G1 and no stabilizers."""
    R = lambda rows: ring.ResidueMatrix(d, rows)
    return code_mod.ColorCode(d, 3, (1, 1, 1), R([]), R(G1), R([]))


def signed(signs):
    return morth.StarSignedMatrix(ring.ResidueMatrix(3, [[1, 2]]), signs)


# input checks that no command reaches: each call and the message it raises
LIBRARY_CHECKS = [
    pytest.param(lambda: code_mod.codeword(tiny_code(), (1, 0)),
                 "logical label must have length 1", id="codeword-label"),
    pytest.param(lambda: code_mod.distance(tiny_code(), "y"),
                 "sector must be 'x' or 'z'", id="distance-sector"),
    pytest.param(lambda: ring.ResidueMatrix(3, [[1, 2], [1]]), "ragged rows", id="ragged-rows"),
    pytest.param(lambda: ring.mul_transpose(ring.ResidueMatrix(3, [[1, 2]]),
                                            ring.ResidueMatrix(3, [[1, 2, 0]])),
                 "column counts differ", id="mul-transpose"),
    pytest.param(lambda: gatecalc.PhaseGate(3, 4, (0, 1, 2)),
                 "N must be a positive multiple of d", id="phase-gate-N"),
    pytest.param(lambda: gatecalc.PhaseGate(3, 9, (0, 1)),
                 "phase table must have length d", id="phase-gate-table"),
    pytest.param(lambda: gatecalc.hierarchy_level(gatecalc.build_T(3), 0),
                 "l_cap must be >= 1", id="hierarchy-l-cap"),
    pytest.param(lambda: gatecalc.verify_transversal_phase(tiny_code(3), gatecalc.build_T(5)),
                 "gate and code dimensions differ", id="transversal-d"),
    pytest.param(lambda: gatecalc.verify_transversal_phase(
                     tiny_code(3, ((1, 0, 0), (0, 1, 0))), gatecalc.build_T(3)),
                 "transversal phase check supports k=1 codes only", id="transversal-k"),
    pytest.param(lambda: signed((1,)), "signs length must equal column count",
                 id="signs-length"),
    pytest.param(lambda: signed((1, 2)), "signs must be +-1", id="signs-values"),
    pytest.param(lambda: morth.is_m_star_orthogonal(signed((1, -1)), {0}, 2, "medium"),
                 "mode must be 'strong' or 'weak'", id="morth-mode"),
    pytest.param(lambda: gauge._hadamard(np.zeros((1, 4), dtype=np.int64), (1,)),
                 "star sign length mismatch", id="hadamard-signs"),
    pytest.param(lambda: gauge.Tableau.zero_logical(tiny_code()),
                 "tableau rank 1 != n 3", id="zero-logical-rank"),
    pytest.param(lambda: colex.lattice_to_json(colex.Lattice(
                     1, False, ("a", "b"), {"a": True, "b": False},
                     (colex.Cell(1, frozenset("ab")),))),
                 "JSON export requires integer vertex ids", id="lattice-to-json-ids"),
]


@pytest.mark.parametrize("call, message", LIBRARY_CHECKS)
def test_library_input_checks_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
