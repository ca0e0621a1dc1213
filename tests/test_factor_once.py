"""Work counts: every ResidueMatrix is factored at most once, so the gauge
checks make a handful of Smith normal forms, not one per question, and at
prime d none, one echelon form per half instead; gauge fixing at prime d
makes none, and each later demo at a d eliminates only its canonical form,
since the gauge code keeps the correction system; a matrix asked only
whether its rows are independent is not
factored at all; each built-in lattice is built and audited once per
process; and a lattice keeps its color code per (mu', d), built and
decided once (a rejection too), so a repeated command builds, decides and
factors nothing, and no [G1; G0] is kept unless a span question asked for
it, while a code read from JSON is decided on every load.  A lattice keeps
its gauge code per d, so a later gauge check at d eliminates only the
center's two matrices.  A test that counts the first build of a code
clears the lattice caches or the codes and gauge codes the lattice keeps
first, so its count does not hang on which tests ran before it.  A code distance
eliminates G0^T once for both sectors.  Each enumerated matrix is reduced
to its row basis once per command: the cosets of a transversal check or of
an X distance are shifts of one inner block kept on G0, and a passing
transversal check at prime d with N = d enumerates nothing."""

import hashlib
import json
import pathlib
import random

import numpy as np
import pytest

from colexa import cli, code, colex, gauge, ring
from builders import Drawn, code_json, forget_codes, forget_gauge_codes, with_code
from oracles import solve_left, stabilizer_words
from test_same_json import VERDICT_CASES


@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    original = ring.smith_normal_form

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(ring, "smith_normal_form", counting)
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    original = ring._eliminate

    def counting(rows, N):
        calls.append(len(rows))
        return original(rows, N)

    monkeypatch.setattr(ring, "_eliminate", counting)
    return calls


@pytest.fixture
def decisions(monkeypatch):
    """(nrows, modulus) of every matrix that ring.independent_rows decides:
    one that holds no verdict yet."""
    calls = []
    original = ring.independent_rows

    def counting(M):
        if "_independent" not in M.__dict__:
            calls.append((M.nrows, M.modulus))
        return original(M)

    monkeypatch.setattr(ring, "independent_rows", counting)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10**18 + 3])
def test_fix_demo_factor_count(snf_calls, monkeypatch, d):
    # every prime-d question of the tableau and the correction is one
    # echelon form over F_d: no Smith form (so no solve over Z_N), no kernel;
    # the gauge code and its fix-demo forms are built afresh, so
    # zero_logical is counted too
    calls = []
    monkeypatch.setattr(ring, "kernel_mod", lambda *a: calls.append("kernel_mod"))
    forget_gauge_codes(colex.hypercube_lattice(3))
    log = gauge.fix_demo(d, 1)
    assert all(log["post"].values())
    assert snf_calls == [] and calls == []


@pytest.mark.parametrize("d", [2, 3, 5, 7, 10**18 + 3])
def test_later_fix_demos_eliminate_only_their_canonical_form(snf_calls, monkeypatch, d):
    # the first demo at d builds the gauge code, which the lattice keeps,
    # and runs the CSS state once, on forms over its draws: two echelon
    # forms for the |0_L> halves and one for the correction system (the
    # canonical form is the halves as kept), and two measured blocks, the Z
    # faces and then the three post-checks; the gauge code keeps the forms,
    # so every later demo at d only draws and evaluates: no echelon form and
    # no measurement
    echelons, measures, kernels = [], [], []
    original, measure = ring.echelon_mod_p, gauge.Tableau.measure
    monkeypatch.setattr(ring, "echelon_mod_p",
                        lambda A, p: echelons.append(A.shape) or original(A, p))
    monkeypatch.setattr(gauge.Tableau, "measure",
                        lambda T, rows: measures.append(len(rows)) or measure(T, rows))
    monkeypatch.setattr(ring, "kernel_mod", lambda *a: kernels.append(a))
    forget_gauge_codes(colex.hypercube_lattice(3))
    gauge.fix_demo(d, 0)
    assert len(echelons) == 3  # two |0_L> halves, the correction system
    assert measures == [18, 18 + 4 + 1]
    for seed in range(1, 6):
        echelons.clear(), measures.clear()
        log = gauge.fix_demo(d, seed)
        assert all(log["post"].values())
        assert echelons == [] and measures == []
    assert snf_calls == [] and kernels == []


@pytest.mark.parametrize("d", [2, 3, 5])
def test_determined_measurements_factor_nothing(snf_calls, d):
    # a determined outcome is read off its reduced half by one product; the
    # library has no linear solve, and nothing is factored
    C = with_code(colex.hypercube_lattice(3), d)[1]
    T = Drawn(gauge.Tableau.zero_logical(C))
    snf_calls.clear()
    rng = random.Random(0)
    assert all(T.measure([w.x_exp + w.z_exp], rng) == [0] for w in stabilizer_words(C))
    assert not hasattr(ring, "solve_left") and snf_calls == []


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_gauge_check_factor_count(snf_calls, monkeypatch, d):
    # every question is asked of the X and Z halves: at prime d the center
    # eliminates A = face_x face_z^T and A^T once each, and each half's span
    # check is one elimination of its transpose, kept for verify_H_logical;
    # at composite d the same six matrices are factored instead
    echelons = []
    original = ring.echelon_mod_p
    monkeypatch.setattr(ring, "echelon_mod_p",
                        lambda A, p: echelons.append(A.shape) or original(A, p))
    L, _ = with_code(colex.hypercube_lattice(3), d)
    forget_gauge_codes(L)
    G = gauge.build_gauge_code(L, d)
    snf_calls.clear()
    assert gauge.center_equals_stabilizer(G).ok and gauge.verify_H_logical(G).ok
    faces, cells = G.face_x.nrows, G.cell_x.nrows
    if d in (2, 3):
        assert snf_calls == []
        assert sorted(echelons) == sorted([(faces, faces)] * 2 + [(G.n, faces)] * 2
                                          + [(G.n, cells)] * 2)
    else:
        assert echelons == [] and len(snf_calls) <= 6


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_a_second_gauge_check_eliminates_only_the_center(snf_calls, monkeypatch, capsys, d):
    # the first command builds the gauge code and eliminates its four halves'
    # span checks; the negative control's mu' = mu color code is the gauge
    # code's own X cells and Z faces, so it reads two of them.  The lattice
    # keeps the gauge code, so a second command eliminates only the center's
    # A and A^T: two echelon forms at prime d; else A is factored first and
    # A^T keeps its Smith form, transposed, so one Smith form
    echelons = []
    original = ring.echelon_mod_p
    monkeypatch.setattr(ring, "echelon_mod_p",
                        lambda A, p: echelons.append(A.shape) or original(A, p))
    L = colex.hypercube_lattice(3)
    forget_gauge_codes(L)
    argv = ["gauge", "check", "--code", "tetra", "--d", str(d)]
    assert cli.main(argv) == 0
    G = gauge.build_gauge_code(L, d)
    C = G.color_code
    assert C.G0 is G.cell_x and C.z_stab is G.face_z
    first = capsys.readouterr().out
    if d in (2, 3):
        assert len(echelons) == 6 and snf_calls == []
    else:
        assert echelons == [] and len(snf_calls) <= 6
    echelons.clear(), snf_calls.clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    faces = G.face_x.nrows
    if d in (2, 3):
        assert echelons == [(faces, faces)] * 2 and snf_calls == []
    else:
        smith = [(len(A), len(A[0])) for A in snf_calls]
        assert echelons == [] and smith == [(faces, faces)]


@pytest.mark.parametrize("d", [3, 6])
def test_distance_eliminates_G0_transpose_once(snf_calls, monkeypatch, capsys, d):
    # G0's span check screens the X sector and holds the Z commutant as its
    # columns, so one elimination of G0^T serves both sectors.  The Smith
    # forms of [G1; G0] (5 x 15), G0 (4 x 15) and the commutant (11 x 15)
    # give span sizes and enumeration; each span check eliminates a
    # transpose: G0^T and Zstab^T.  At prime d those are echelon forms, and
    # the information-set search decides both sectors: [G1; G0] is
    # eliminated once per information set (ranks 5, 5, 4 and 1, so all 15
    # columns), and the commutant twice (ranks 11 and 4), so three Smith
    # forms in all.  At d = 6 they are Smith forms, but G0^T and the
    # commutant's transpose keep the Smith forms of G0 and the commutant,
    # transposed, so only Zstab^T is factored: four in all
    echelons = []
    original = ring.echelon_mod_p
    monkeypatch.setattr(ring, "echelon_mod_p",
                        lambda A, p: echelons.append(A.shape) or original(A, p))
    argv = ["code", "distance", "--code", "tetra", "--d", str(d), "--sector", "both"]
    forget_codes(colex.hypercube_lattice(3))
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"x": 7, "z": 3}
    smith = [(len(A), len(A[0])) for A in snf_calls]
    if d == 3:
        assert smith == [(5, 15), (4, 15), (11, 15)]
        assert echelons == [(15, 4)] + [(5, 15)] * 4 + [(15, 18)] + [(11, 15)] * 2
    else:
        assert smith == [(5, 15), (4, 15), (11, 15), (15, 18)] and echelons == []


def builtin_lattice(argv):
    """The shared built-in lattice that a code command's argv names."""
    args = cli.build_parser().parse_args(argv)
    return cli.builtin_lattice(args.code, args.distance, code.DEFAULT_CAP)


DIGESTS = json.loads((pathlib.Path(__file__).resolve().parent.parent / "perfbench"
                      / "digests.json").read_text())["digests"]


VERDICTS = {argv: (rc, digest) for argv, rc, digest in VERDICT_CASES}


@pytest.mark.parametrize("argv,enumerated,stdout", [
    # a passing prime-d check with N = d is decided by m*-weights, so
    # nothing is enumerated
    ("gate verify --code tetra --d 7 --gate T", 0, None),
    ("gate verify --code tetra --d 7 --gate S", 0, None),
    # d cosets x.G1 + span(G0) of one G0: at N = 3d, and on failing
    # checks, whose witness is the enumeration's
    ("gate verify --code tetra --d 6 --gate T36", 1, None),
    ("gate verify --code triangle --d 5 --gate T", 1, None),
    ("gate verify --code tetra --d 5 --gate R:0,0,0,0,1", 1, None),
    # d^k - 1 = 2 X cosets of G0
    ("code distance --code tetra --d 3 --sector x", 1, '{"x": 7}\n'),
    ("code distance --code triangle --d 3 --distance 5 --sector x", 1, '{"x": 5}\n'),
    # the X cosets of G0 and the Z sector's commutant, streamed whole
    ("code distance --code tetra --d 3 --sector both", 2, None),
    ("code distance --code triangle --d 3 --distance 5 --sector both", 2, None),
    # one coset, as before
    ("code codeword --code triangle --d 3 --distance 5 --x 1", 1, None),
])
def test_each_enumerated_matrix_is_reduced_once(monkeypatch, capsys, argv, enumerated, stdout):
    # span_blocks keeps the inner block on the matrix, so every later coset
    # of it only adds its shift: one row_basis per enumerated matrix, not
    # one per coset (a transversal check at d = 7 made seven).  A stdout of
    # None is the recorded one: a failing verdict's exit code and digest in
    # test_same_json, else perfbench's digest with exit 0
    calls = []
    original = ring.row_basis
    monkeypatch.setattr(ring, "row_basis", lambda M: calls.append(M) or original(M))
    forget_codes(builtin_lattice(argv.split()))
    rc = cli.main(argv.split())
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    if argv in VERDICTS:
        assert (rc, digest) == VERDICTS[argv]
    elif stdout is None:
        assert (rc, digest) == (0, DIGESTS[argv])
    else:
        assert (rc, out) == (0, stdout)
    assert len(calls) == len({id(M) for M in calls}) == enumerated


def test_repeated_questions_factor_once(snf_calls):
    M = ring.ResidueMatrix(6, ((2, 3, 0), (4, 0, 1), (0, 3, 3)))
    for w in [(0, 0, 0), (2, 3, 0), (1, 1, 1), (0, 3, 4)]:
        solve_left(M, w)
    ring.kernel_mod(M)
    ring.span_size(M)
    ring.row_basis(M)
    assert len(list(ring.iter_span(M))) == ring.span_size(M)
    assert len(snf_calls) == 1
    # an equal matrix is another instance and is factored on its own
    ring.kernel_mod(ring.ResidueMatrix(6, M.rows))
    assert len(snf_calls) == 2


def test_code_check_decides_independence_once(snf_calls, eliminations, capsys):
    # from_colex checks injectivity and verify_code reports it: both read the
    # one verdict the code keeps, and nothing is factored; the lattice keeps
    # the code, so checking it again eliminates nothing
    colex.triangle_lattice.cache_clear()
    argv = ["code", "check", "--code", "triangle", "--distance", "13"]
    assert cli.main(argv) == 0
    assert snf_calls == []
    faces = colex.triangle_lattice(13).cells_of_dim(2)
    assert eliminations == [len(faces) + 1]
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert eliminations == [len(faces) + 1] and snf_calls == []
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("action", ["build", "check"])
@pytest.mark.parametrize("lattice", [["tetra"], ["triangle", "--distance", "7"]])
def test_lattice_commands_factor_nothing(snf_calls, capsys, action, lattice):
    # a lattice command builds no code, so it runs no injectivity check
    assert cli.main(["lattice", action, "--lattice", *lattice]) == 0
    assert snf_calls == []


def test_syndrome_factors_nothing(snf_calls, capsys):
    # from_colex's injectivity check is an elimination; the syndrome itself is
    # two products
    argv = ["code", "syndrome", "--code", "triangle", "--d", "6", "--distance", "11",
            "--error", "X^2@3,Z@40"]
    assert cli.main(argv) == 0
    assert snf_calls == []


@pytest.mark.parametrize("argv", [
    "gate verify --code tetra --d 7 --gate T",
    "code codeword --code tetra --d 5",
    "code distance --code tetra --d 3 --sector both",
    "code syndrome --code triangle --d 2 --distance 11 --error X@3,Z@40",
    "code syndrome --code triangle --d 6 --distance 11 --error X^2@3,Z@40",
])
def test_a_second_command_builds_and_factors_nothing(snf_calls, monkeypatch, capsys, argv):
    # the lattice keeps the code, and the code's matrices keep their Smith
    # forms, row bases, span blocks and span checks, so a repeated command
    # builds no code, decides no injectivity and factors nothing
    calls = []
    for name in ("row_basis", "independent_rows", "echelon_mod_p"):
        original = getattr(ring, name)
        monkeypatch.setattr(ring, name, lambda *a, name=name, original=original:
                            calls.append(name) or original(*a))
    builds, build = [], code.ColorCode
    monkeypatch.setattr(code, "ColorCode", lambda **k: builds.append(k) or build(**k))
    L = builtin_lattice(argv.split())
    forget_codes(L)
    assert cli.main(argv.split()) == 0
    first = capsys.readouterr().out
    assert len(builds) == 1 and "independent_rows" in calls
    snf_calls.clear(), calls.clear()
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == first
    assert snf_calls == [] and calls == [] and len(builds) == 1


def test_a_kept_code_holds_no_encoding(capsys):
    # a code check and a syndrome ask no span question of [G1; G0], so the
    # kept code holds its three matrices and its verdict, not [G1; G0]
    L = colex.triangle_lattice(25)
    forget_codes(L)
    for argv in ("code check --code triangle --d 6 --distance 25",
                 "code syndrome --code triangle --d 6 --distance 25 --error X@3,Z@400"):
        assert cli.main(argv.split()) == 0
    C = L.__dict__["_codes"][2, 6]
    assert C.injective() is True and "_encoding" not in C.__dict__
    capsys.readouterr()


def test_tetra_at_another_mu_prime_builds_one_code(snf_calls, eliminations, decisions,
                                                  capsys):
    # only the mu' = 2 code is built, so only its injectivity check runs; its
    # 19 rows outnumber the 15 qudits, which decides it without elimination;
    # the lattice keeps the rejection, and a repeat fails the same way
    L = colex.hypercube_lattice(3)
    forget_codes(L)
    argv = ["code", "check", "--code", "tetra", "--mu-prime", "2"]
    message = ("colexa: mu_prime=2: [G1; G0] has a nontrivial left kernel "
               "(dependent generators or no encoded qudit)\n")
    for _ in range(2):
        assert cli.main(argv) == 2
        assert decisions == [(19, 2)]
        assert snf_calls == [] and eliminations == []
        assert capsys.readouterr() == ("", message)
    assert L.__dict__["_codes"] == {(2, 2): None}


def test_each_lattice_mu_prime_and_d_is_decided_once(decisions):
    # every (mu', d) on a lattice is decided on its first code, accepted or
    # not, and every later call returns the kept code or raises for the kept
    # rejection, in any order
    L = colex.hypercube_lattice(4)
    forget_codes(L)
    keys = [(mu_prime, d) for mu_prime in (2, 3, 4) for d in (2, 3, 6)]
    for mu_prime, d in keys + keys[::-1] + keys:
        try:
            C = code.from_colex(L, mu_prime, d)
            assert code.verify_code(C).ok and mu_prime == 4
        except ValueError:
            assert mu_prime < 4
    # the logical row and the C(5, mu') (2^(5 - mu') - 1) mu'-cells
    encoding_rows = {2: 1 + 10 * 7, 3: 1 + 10 * 3, 4: 1 + 5}
    assert decisions == [(encoding_rows[mu_prime], d) for mu_prime, d in keys]
    kept = L.__dict__["_codes"]
    assert sorted(kept) == sorted(keys)
    assert all((kept[key] is None) == (key[0] < 4) for key in keys)
    assert all(code.from_colex(L, 4, d) is kept[4, d] for d in (2, 3, 6))


def test_a_new_lattice_or_a_json_code_keeps_nothing(decisions, eliminations, tmp_path,
                                                   capsys):
    # with_star and lattice_from_json give lattices that start with nothing
    # kept, and a code read from JSON is decided on every load
    L = colex.hypercube_lattice(3)
    forget_codes(L)
    C = code.from_colex(L, 3, 5)
    kept = {"_incidence", "_codes", "_star_signs"}
    assert kept <= L.__dict__.keys() and L.__dict__["_codes"] == {(3, 5): C}
    fresh = [L.with_star(L.star), colex.lattice_from_json(colex.lattice_to_json(L))]
    for M in fresh:
        assert M == L and not kept & M.__dict__.keys()
    decisions.clear()
    for M in fresh:
        assert code.from_colex(M, 3, 5) is not C
    assert decisions == [(5, 5), (5, 5)]

    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_json(code.from_colex(L, 3, 5))))
    eliminations.clear()
    for _ in range(2):
        assert cli.main(["code", "check", "--code", str(path)]) == 0
    assert eliminations == [5, 5]
    capsys.readouterr()


def test_star_signs_are_kept_once_flags_are_set():
    # the first call builds sigma and keeps it for every later call, and
    # a lattice with an unset flag raises on every call and keeps nothing
    L = colex.hypercube_lattice(3).with_star(colex.hypercube_lattice(3).star)
    signs = L.star_signs()
    assert L.star_signs() is signs and L.__dict__["_star_signs"] is signs
    unset = L.with_star({**L.star, L.vertex_ids[0]: None})
    for _ in range(2):
        with pytest.raises(ValueError, match="star flags not assigned"):
            unset.star_signs()
    assert "_star_signs" not in unset.__dict__


def test_the_kept_incidence_is_read_only():
    # every code's matrices are casts of the kept incidence, never views of it
    colex.hypercube_lattice.cache_clear()
    L = colex.hypercube_lattice(3)
    C = code.from_colex(L, 3, 2)
    kept = L.__dict__["_incidence"]
    assert sorted(kept) == [2, 3]
    for rows in kept.values():
        assert rows.dtype == np.uint8 and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2
    assert not np.shares_memory(C.G0.array, kept[3])
    assert C.G0.array.tolist() == kept[3].tolist()


def test_each_lattice_is_built_and_audited_once(monkeypatch, capsys):
    colex.triangle_lattice.cache_clear()
    audits = []
    original = colex.audit
    monkeypatch.setattr(colex, "audit", lambda L: audits.append(L.mu) or original(L))
    for d in (2, 6):
        for error in ("X@0", "Z@5", "X@3,Z@40", "Z@60", "X@1,X@2", "Z@7"):
            argv = ["code", "syndrome", "--code", "triangle", "--distance", "11",
                    "--d", str(d), "--error", error]
            assert cli.main(argv) == 0
    assert audits == [2]

    tetra = colex.hypercube_lattice(3)
    gauge_lattices = []
    build = gauge.build_gauge_code
    monkeypatch.setattr(gauge, "build_gauge_code",
                        lambda L, d: gauge_lattices.append(L) or build(L, d))
    forget_gauge_codes(tetra)
    assert cli.main(["gauge", "check", "--code", "tetra"]) == 0
    gauge.fix_demo(3, 0)
    assert len(gauge_lattices) == 2 and all(L is tetra for L in gauge_lattices)
