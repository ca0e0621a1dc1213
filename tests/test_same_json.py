"""Same JSON: every operation of the benchmark's workloads prints, in
process, the stdout recorded in perfbench/digests.json and the verdict of
perfbench/answers.py, and the README's commands, the failing verdicts
below, 320 seeded fix-demos, gauge checks repeated on a kept gauge code and
the pools' code commands repeated on kept color codes print their recorded
stdout and exit codes.  perfbench/ is only read."""

import contextlib
import hashlib
import io
import json
import pathlib
import shlex
import sys

import pytest

from colexa import cli, colex, ring
from colexa import code as code_mod
from builders import code_json, forget_codes, forget_gauge_codes

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import answers  # noqa: E402
import workloads  # noqa: E402
from test_cli import readme_commands  # noqa: E402


def wrong_ops(workload: str, size: int) -> list:
    """(key, exit code, reason) of every operation of the workload's pool
    whose stdout digest or verdict differs from the recorded one."""
    ops = workloads.pool(workload)
    assert len(ops) == size
    return wrong_of(ops)


def wrong_of(ops: list) -> list:
    """(key, exit code, reason) of every operation, in order, whose stdout
    digest or verdict differs from the recorded one."""
    digests = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
    wrong = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        stdout = out.getvalue()
        _decided, correct, why = answers.check(op, rc, stdout, err.getvalue())
        if hashlib.sha256(stdout.encode()).hexdigest() != digests[op.key] or not correct:
            wrong.append((op.key, rc, why))
    return wrong


def test_gauge_pool_prints_the_recorded_stdout(monkeypatch):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    assert wrong_ops("gauge", 279) == []


@pytest.mark.parametrize("workload,size", [("enumerate", 56), ("factor", 157)])
def test_pool_prints_the_recorded_stdout(monkeypatch, workload, size):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    assert wrong_ops(workload, size) == []


# -- same JSON beyond the benchmark pools ------------------------------------
#
# The README's commands and verdicts the pools never print: failing lattice
# and code checks, a transversality witness with notes, a level above
# --l-cap, weak-mode m* witnesses, gauge checks at composite d, at primes up
# to 10^18 + 3 and past the Miller-Rabin bound, and gauge fixing at primes
# from 2 to 10^18 + 3 and at a composite d.  Each case is (argv, exit code, sha256
# of stdout); "{name}" in argv is the path of the JSON input named in
# json_inputs.  The triangle m* checks at d = 3, which the enumerate pool
# prints too, stand here as well: at L = 9 and m = 4 their multisets take
# more than one block.


def json_inputs() -> dict:
    """Mutated builder JSON, each failing one check."""
    tetra = colex.lattice_to_json(colex.hypercube_lattice(3))
    extra_cell = json.loads(json.dumps(tetra))
    extra_cell["cells"].append({"dim": 1, "color": None, "vertices": [1, 2, 4]})
    odd_edge = json.loads(json.dumps(tetra))
    odd_edge["cells"].append({"dim": 1, "color": None, "vertices": [1, 2]})
    unbalanced = json.loads(json.dumps(tetra))
    unbalanced["vertices"][0]["star"] = not unbalanced["vertices"][0]["star"]
    bad_g0 = code_json(code_mod.from_colex(colex.hypercube_lattice(3), 3, 3))
    bad_g0["G0"][0][0] = 2
    g1_twos = code_json(code_mod.from_colex(colex.hypercube_lattice(3), 3, 5))
    g1_twos["G1"] = [[2] * g1_twos["n"]]
    return {"extra_cell": extra_cell, "odd_edge": odd_edge, "unbalanced": unbalanced,
            "bad_g0": bad_g0, "g1_twos": g1_twos}


VERDICT_CASES = [
    ('lattice build --lattice tetra', 0,
     "3e58d42963a7fccde0272071eb0b5dd0a20fad55f96e7e6afb57cf4750db8469"),
    ('lattice build --lattice triangle --distance 5', 0,
     "ac4b030eaff28dbbcfa824b2af965c75c240a50c8e95ca5bc8bc7250a5f59870"),
    ('lattice check --lattice tetra', 0,
     "074df33d4f96e202d07d48dbfbb41e39c0914fe6f5aff16ae0ad9049b48e9112"),
    ('code build --code tetra --d 3', 0,
     "07f94d1ad7b108abbf31aa7e218c857d805565d3b0a4c73dc04d3130f60820bd"),
    ('code check --code triangle --d 5 --distance 3', 0,
     "baca58ce9184874364b1bbb0c19e14611a6066daad437563bd62aa5852e432db"),
    ('code distance --code tetra --d 2 --sector both', 0,
     "6d981b005094bf32557dab37586640a9ab3ff107d4602010b10ff0ce860af20d"),
    ('code codeword --code triangle --d 3 --x 1', 0,
     "79689e539eb3e566a463a8226aac6680e79a89750b3eb55ebad77e98e453a3a5"),
    ('code syndrome --code tetra --d 3 --error Z@1111', 0,
     "8dcb714ac7db7fad52dc911df24b8e20f1de7d55ffcc942812756511348ec600"),
    ("code syndrome --code tetra --d 3 --error 'X^2@7,Z@1010'", 0,
     "3f4db05eab24b7a8500cb026ef50bbbb41e402a9a096ebf045e6796436bde9b7"),
    ('morth check --code tetra --d 2 --m 3 --mode strong', 0,
     "93bc6836a33bd93be305b4d107d078ffe8e9e1e43608976a2981e9687950725d"),
    ('morth check --code tetra --d 2 --m 4 --mode strong', 1,
     "2e13d6cf9e06ccc8b343f6de705f4879c82408930b9cd51e5bf3216883fef860"),
    ('gate level --d 5 --gate T', 0,
     "f15f3f6b4bae530a931a52d2dfaf389e5b06abfab9b95f63bd08589cbb56d48a"),
    ('gate level --d 3 --gate T36', 0,
     "a2774022b4af46c7cdbcc4c6a69e11ce88479493df1eaf564c418003a312373c"),
    ('gate verify --code tetra --d 5 --gate T', 0,
     "0195b2735527f8e9dc0460a81a4ddb594fb210867913d01a8483b4775d373209"),
    ('gate verify --code tetra --d 2 --gate CX', 0,
     "ec23158f4f8dd28ca0e9e724b197a79600ec9b0a8986addaa683519666efa275"),
    ('gauge check --code tetra --d 3', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge fix-demo --d 3 --seed 7', 0,
     "ea9e0425043f2238a9d85057767f9475d7064679842be19cb0f2e5d9648bdad8"),
    ('lattice check --lattice {extra_cell}', 1,
     "dfb133af6e4362bf9c5cd265a627d6ca8edf3d8153de210f832ee515b7b92c02"),
    ('lattice check --lattice {odd_edge}', 1,
     "bca60a90e8de2502538ddc455478e3f35a799d078db1693455bbb3357b9769a2"),
    ('lattice check --lattice {unbalanced}', 1,
     "31942c2b09798ba4a97a3e298f59a82e39f2b5c4a204ce7fd804459fe1b2aed1"),
    ('lattice check --lattice triangle --distance 7', 0,
     "9dc1c52f1012e86f6b9aba4222eca5448567fa87642ccc8cea6d772e0611e5c6"),
    ('code check --code {bad_g0}', 1,
     "004589387a527bebcbb1b382ac545fb6aff35663f78e7263452200fd15ee6278"),
    ('code check --code tetra --d 4 --mu-prime 2', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('code distance --code {bad_g0} --sector x', 0,
     "a75521f04a5a82dac2536d2a2f22013564278e16f80b5bcc8aa451582965997b"),
    ('code codeword --code {g1_twos} --x 2', 0,
     "79e3247db05fc47aee2b62b80daa883712fad0a1419b749ae765498d4ccbe8b0"),
    ('gate verify --code {g1_twos} --d 5 --gate T', 1,
     "3c4d94d879b14fe5bfa44813576878a5765373b7952472b674eb91d7958b7af5"),
    ('gate verify --code {g1_twos} --d 5 --gate S', 1,
     "e4dca1ee6a3c86f4cc936f4df9975dc18e20f8062a40a4fd97caf4fcfcdbd8f1"),
    ('gate verify --code tetra --d 5 --gate R:0,0,0,0,1', 1,
     "cdca980b7cc95f821b099178c6f2d10efad1040dcfa25a519a02e4755d8bcf07"),
    ('gate verify --code tetra --d 3 --gate T36', 0,
     "c144287d0374962b47d8777fa636d8e3dfb6f673784cad36ecfdafa04c739491"),
    ('gate verify --code triangle --d 5 --gate T', 1,
     "1586238083170187af47d8ae74593342ca3953f6ae83dbcc0296a365d77f299c"),
    ('gate verify --code triangle --d 3 --gate CX', 0,
     "7bde1475421342a583efd6d5ccf31c36956e6b9f48dda787699e119bd7e2cd13"),
    ('gate level --d 5 --gate T --l-cap 2', 0,
     "c7e41defd8344b180f1b4083349029565871f46ce355da3c6bf2a508d86397d7"),
    ('gate level --d 7 --gate R:0,0,0,0,0,1 --l-cap 3', 0,
     "8ffa2bf4198694a8bae78d8165d9772622794a01402dddf4fd22cdc980012c7d"),
    ('gate level --d 6 --gate T36', 0,
     "72cf2a9b1f7b47a289d5a5f283cf401b0dfd70ae00d61aa75c26194b9ce23fb2"),
    ('morth check --code tetra --d 3 --m 4 --mode weak', 1,
     "742be64ead9c09489b8c8a3e30c014913cedeeab31e401793b999b2c4928e2ba"),
    ('morth check --code triangle --d 3 --m 3 --mode weak', 1,
     "f3af46bce713be099d321b0b88987530d421b99dfe173d45a2db60e4d7e921fa"),
    ('morth check --code tetra --d 5 --m 3 --mode weak', 0,
     "b376a4eb9e52bc84e9c9985840499f493721257874a2b22b2d0a466746a1a134"),
    ('morth check --code triangle --d 3 --distance 7 --m 4 --mode strong', 1,
     "a461bcb577505a5552e316b28ab399253992729f352944c96dbe270001f0d202"),
    ('morth check --code triangle --d 3 --distance 7 --m 4 --mode weak', 1,
     "5d8bc1ae394a84dd29cd881c17650a6b06d2dcf4e39ecd08fa5f4334c197059b"),
    ('morth check --code triangle --d 3 --distance 9 --m 4 --mode strong', 1,
     "71702b14e4ca98adee9e17c50ece648b352accd358f94ecad692c5e603155f7f"),
    ('morth check --code triangle --d 3 --distance 9 --m 4 --mode weak', 1,
     "2341e4cb974ea975c6b912f765be31f1b8c5327bd561f32909e0d90607e80fb9"),
    ('morth check --code triangle --d 3 --distance 9 --m 3 --mode weak', 1,
     "f0c5a2e584328156c0b6b5cd9082b57411c1773d68687c9eadf7c91b3943e0bc"),
    ('gauge check --code tetra --d 2', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code tetra --d 9', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code tetra --d 12', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code tetra --d 3000000019', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code tetra --d 1000000000000000003', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code tetra --d 3317044064679887385961983', 0,
     "b7381cc74636a2236a6c4745992a80bfdb93f9685f28f714a3846fb4918313d4"),
    ('gauge check --code {bad_g0}', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('gauge fix-demo --d 5 --seed 1', 0,
     "1abc86b8d73bd56149caea5f75a1718d770af195d32a48e61bedd0f340fb1d23"),
    ('gauge fix-demo --d 2 --seed 3', 0,
     "188ad5385140c01e425a118fed0b8371feded10a7ab07d9845cefd7074c59d96"),
    ('gauge fix-demo --d 2 --seed 0', 0,
     "035d07af1513d34b7f7a40e2ef42cb36c62380a516fccb959c9728228cab0f04"),
    ('gauge fix-demo --d 2 --seed 11', 0,
     "bdc65bee3702beac95c44d4db1719b2d517d20fb0c885748c22283ab408c00a7"),
    ('gauge fix-demo --d 3 --seed 0', 0,
     "b873d77700c145abf79e706bfa8a94b3c374671c4cb400eb8a64fba09ca33220"),
    ('gauge fix-demo --d 3 --seed 11', 0,
     "6dc37ceacd32491f7f876e865462a2d56d453812ce52d9fe72ba28bf268c8601"),
    ('gauge fix-demo --d 5 --seed 0', 0,
     "4fba670ca8b8d1b81536929d2ed97378f07ce89d9682e0d634cbd42ca6d9353f"),
    ('gauge fix-demo --d 5 --seed 11', 0,
     "3a966b9c995d105504de4ec507673d92020ef2f4ac51299bd97ea438b932178d"),
    ('gauge fix-demo --d 7 --seed 0', 0,
     "ae0d9806966661e25a5866f06be7bf8dfa4633c1aea36491142a58a8a39617e8"),
    ('gauge fix-demo --d 7 --seed 11', 0,
     "2323f7d0932b1df013d177009155a7fce695cba3cc514d9c15a3b25e763a4c27"),
    ('gauge fix-demo --d 11 --seed 0', 0,
     "5d79fda8a60c84b1355da844fd1b367fe44a2885e9ba328d11c93b6f07f1ab2f"),
    ('gauge fix-demo --d 11 --seed 11', 0,
     "ef8468c6e68071490a01b58ef8d50c89cffb1a4d2fb4d1408f18751c3f12103c"),
    ('gauge fix-demo --d 1009 --seed 0', 0,
     "81cbd4e2422be61b885127be273b62a46fd46435a050fc73da6bb722e3ada759"),
    ('gauge fix-demo --d 1009 --seed 11', 0,
     "2b61d1a4452101464147139e690add5fc776224e46d3a84a8ff575f6e6b5626d"),
    ('gauge fix-demo --d 1000000000000000003 --seed 0', 0,
     "ed5bd57ccdfc68a1449f081d3d57d735da1b582b1029ed7cbd7c853f2a80ad10"),
    ('gauge fix-demo --d 1000000000000000003 --seed 11', 0,
     "8285c43323682ef99dfec828fe1de86b44081c7e6111ce5b1b67d8b6213e0195"),
    ('gauge fix-demo --d 4 --seed 0', 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('lattice check --lattice tetra --pretty', 0,
     "18d587cda767442defce13bf16459eeb211e7bd7f2720abd7df8ae69d410a406"),
]


def stdout_and_code(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_readme_and_failing_verdicts_print_the_recorded_stdout(tmp_path, monkeypatch):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    paths = {}
    for name, obj in json_inputs().items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argvs = [" ".join(shlex.quote(a) for a in argv) for argv in readme_commands()]
    assert len(argvs) == 16
    wrong = []
    for argv, rc, digest in VERDICT_CASES:
        got = stdout_and_code(shlex.split(argv.format(**paths)))
        if got != (rc, digest):
            wrong.append((argv, got))
    assert wrong == []
    assert set(argvs) <= {argv for argv, _rc, _digest in VERDICT_CASES}


# -- codewords beyond the pools: the formula cmd_code_codeword printed ------
#
# before its terms were one array: the sorted set of iter_span tuples,
# through json.dumps.

# d > 2^64 and no G0 rows: one term, written from Python ints (dtype=object)
BIG_D = 2**64 + 13
BIG_CODE = {"d": BIG_D, "n": 3, "stars": [1, -1, 1], "G0": [],
            "G1": [[1, BIG_D - 1, 2**64]], "Zstab": [[1, 1, 1]]}


def set_formula(C, x: int, pretty: bool) -> str:
    terms = sorted(frozenset(ring.iter_span(C.G0, ring.mat_vec_mul(C.G1, (x,)))))
    payload = {"x": [x % C.d], "terms": terms, "count": len(terms)}
    return json.dumps(payload, indent=2 if pretty else None, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,x", [
    ("code codeword --code tetra --d 5 --x 3 --pretty", 3),
    ("code codeword --code triangle --d 3 --distance 5 --x 2 --pretty", 2),
    ("code codeword --code tetra --d 11 --x 7", 7),
    ("code codeword --code triangle --d 4 --distance 5 --x 1", 1),
    ("code codeword --code {big} --x 1", 1),
    ("code codeword --code {big} --x 2 --pretty", 2),
])
def test_codeword_prints_the_set_formula(argv, x, tmp_path, monkeypatch):
    """Pretty output, two-digit residues over more than one block of rows
    (11^4 terms), a composite d, and the Python-int path."""
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(BIG_CODE))
    argv = shlex.split(argv.format(big=big))
    args = cli.build_parser().parse_args(argv)
    args.cap = code_mod.DEFAULT_CAP
    _L, C = cli.load_code(args)
    want = hashlib.sha256(set_formula(C, x, "--pretty" in argv).encode()).hexdigest()
    # digests, not strings: pytest's diff of two long JSON texts takes minutes
    assert stdout_and_code(argv) == (0, want)


# -- gauge fixing over many seeds --------------------------------------------
#
# One sha256 over the stdout of 320 fix-demos, recorded before random
# outcomes became rank-one updates and the correction system was kept on
# the gauge code: every d from the binary field to the Python-int path,
# seeds 0-39 each, in that order.

FIX_DEMO_DS = (2, 3, 5, 7, 11, 13, 1009, 10**18 + 3)
FIX_DEMO_DIGEST = "f15a149f5cca6744d1aafeff46eff4d317625afb6b9a720d226c5a99bcf7d416"


def test_fix_demos_print_the_recorded_stdout():
    digest = hashlib.sha256()
    for d in FIX_DEMO_DS:
        for seed in range(40):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["gauge", "fix-demo", "--d", str(d), "--seed", str(seed)]) == 0
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == FIX_DEMO_DIGEST
    # a composite d still has no tableau: exit 2, nothing on stdout
    assert stdout_and_code(["gauge", "fix-demo", "--d", "4", "--seed", "0"]) == (
        2, hashlib.sha256(b"").hexdigest())


# -- kept gauge codes never reach stdout -------------------------------------
#
# The tetra lattice keeps its gauge code per d, with the span checks, the
# correction system and the fix-demo forms that the code keeps in turn.
# From a lattice that keeps none, gauge checks at each d, three times over
# and each followed by a fix-demo at the same d, print the recorded stdout
# and exit codes every time.


def test_kept_gauge_codes_never_reach_stdout():
    digests = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
    empty = hashlib.sha256(b"").hexdigest()
    tetra = colex.hypercube_lattice(3)
    forget_gauge_codes(tetra)
    for repeat in range(3):
        for d in (2, 3, 4, 6):
            check = f"gauge check --code tetra --d {d}"
            assert stdout_and_code(check.split()) == (0, digests[check])
            demo = f"gauge fix-demo --d {d} --seed {repeat}"
            want = (0, digests[demo]) if d in (2, 3) else (2, empty)
            assert stdout_and_code(demo.split()) == want
    assert sorted(tetra.__dict__["_gauge"]) == [2, 3, 4, 6]
    # a lattice from with_star is equal to tetra but keeps no gauge code
    flagged = tetra.with_star(tetra.star)
    assert flagged == tetra and "_gauge" not in flagged.__dict__


# -- kept color codes never reach stdout -------------------------------------
#
# Each built-in lattice keeps its color code per (mu', d), with the Smith
# forms, row bases, span blocks and span checks its matrices keep in turn.
# From lattices that keep none, every operation of the enumerate and factor
# pools runs twice in one process, in reversed order the second time, and
# prints its recorded stdout and verdict every time.


def test_kept_codes_never_reach_stdout(monkeypatch):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    ops = workloads.pool("enumerate") + workloads.pool("factor")
    lattices = set()
    for op in ops:
        args = cli.build_parser().parse_args(list(op.argv))
        name = getattr(args, "code", None) or args.lattice
        lattices.add(cli.builtin_lattice(name, args.distance, code_mod.DEFAULT_CAP))
    for L in lattices:
        forget_codes(L)
    assert wrong_of(ops + ops[::-1]) == []
    tetra = colex.hypercube_lattice(3)
    assert sorted(tetra.__dict__["_codes"]) == [(3, d) for d in range(2, 8)]


# -- kept fix-demo forms never reach stdout ----------------------------------
#
# The tetra lattice keeps its gauge code per d, and each gauge code the
# forms of its fix demo.  From a lattice that keeps none, every operation of
# the gauge pool runs twice in one process, in reversed order the second
# time, and prints its recorded stdout and verdict every time; a fix demo
# builds the forms at its d once, and a gauge check builds none.


def test_kept_fix_demo_forms_never_reach_stdout(monkeypatch):
    monkeypatch.delenv("COLEXA_CAP", raising=False)
    ops = workloads.pool("gauge")
    tetra = colex.hypercube_lattice(3)
    forget_gauge_codes(tetra)
    assert wrong_of(ops + ops[::-1]) == []
    kept = tetra.__dict__["_gauge"]
    assert sorted(kept) == [2, 3, 4, 5, 6, 7]
    assert sorted(d for d, G in kept.items() if "fix_demo_forms" in G.__dict__) == [2, 3, 5, 7]
