"""The three workloads, as lists of colexa argv generated from a seed.

A workload is a list of slots; each slot holds the operations it may run.
The seed picks one operation per slot and then the order of the pass, so the
mix of work is the same for every seed while the inputs (codeword labels,
syndrome errors, fix-demo seeds, gate choices, order) change.  Where the cost
of an operation depends on a choice, the choice is fixed, not seeded.  The union of
all slots is the pool that ``record.py`` takes stdout digests for.

Why these workloads:

* ``enumerate``: small codes with large spans.  Its cost is span enumeration
  in ``ring.iter_span``, ``code.distance``/``codeword``, ``gatecalc`` and
  ``morth``; its SNFs are tiny.  A distance or enumeration change shows here,
  an SNF cache should not.  The tetra Z distances at d=5 and d=7 exceed the
  default cap at the seed commit (true d_Z = 3) and are kept as undecided.
* ``factor``: large triangle codes (L up to 25, n = 469) at a prime and a
  composite d (2 and 6).  It enumerates nothing; its cost is the lattice
  builders, a few large SNFs and O(r^2) commutation pairs.  Builder,
  factor-once and matrix-product changes show here, enumeration changes
  should not.
* ``gauge``: hundreds of short operations on the 15-qudit tetra code.  Its
  cost is many small SNFs and solves repeated on the same few matrices, the
  tableau's ``measure`` and the CLI's per-call overhead.  A cache that helps
  here and costs ``factor`` (or the reverse) shows up in one of the two.

Every workload runs more than 100 operations per pass, so a 90th-percentile
latency always has at least ten samples beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import answers


@dataclass
class Op:
    kind: str
    argv: tuple
    params: dict

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _op(kind, params, *argv) -> Op:
    return Op(kind, tuple(str(a) for a in argv), params)


def _code_args(code, d, L):
    args = ["--code", code, "--d", d]
    return args + (["--distance", L] if code == "triangle" else [])


def distance(code, d, sector, L=None):
    return _op("distance", dict(code=code, d=d, L=L, sector=sector),
               "code", "distance", *_code_args(code, d, L), "--sector", sector)


def codeword(code, d, x, L=None):
    return _op("codeword", dict(code=code, d=d, L=L, x=x),
               "code", "codeword", *_code_args(code, d, L), "--x", x)


def morth_check(code, d, m, mode, L=None):
    return _op("morth", dict(code=code, d=d, L=L, m=m, mode=mode),
               "morth", "check", *_code_args(code, d, L), "--m", m, "--mode", mode)


def gate_verify(d, gate):
    return _op("gate-verify", dict(d=d, gate=gate),
               "gate", "verify", "--code", "tetra", "--d", d, "--gate", gate)


def code_check(d, L):
    return _op("code-check", dict(d=d, L=L), "code", "check", *_code_args("triangle", d, L))


def code_build(d, L):
    return _op("code-build", dict(d=d, L=L), "code", "build", *_code_args("triangle", d, L))


def lattice_check(L):
    return _op("lattice-check", dict(L=L),
               "lattice", "check", "--lattice", "triangle", "--distance", L)


def syndrome(d, L, pauli, power, site):
    return _op("syndrome", dict(d=d, L=L, pauli=pauli, power=power, site=site),
               "code", "syndrome", *_code_args("triangle", d, L),
               "--error", f"{pauli}^{power}@{site}")


def gauge_check(d):
    return _op("gauge-check", dict(d=d), "gauge", "check", "--code", "tetra", "--d", d)


def fix_demo(d, seed):
    return _op("fix-demo", dict(d=d, seed=seed), "gauge", "fix-demo", "--d", d, "--seed", seed)


def gate_level(d, gate):
    return _op("gate-level", dict(d=d, gate=gate), "gate", "level", "--d", d, "--gate", gate)


def syndrome_errors(L, d, count=32):
    """A fixed list of single-qudit errors on triangle L; the seed picks from it."""
    rng = random.Random(f"errors:{L}:{d}")
    n = answers.triangle_n(L)
    return [
        syndrome(d, L, rng.choice("XZ"), rng.randrange(1, d), rng.randrange(n))
        for _ in range(count)
    ]


# Each workload is built from groups of operations of similar cost: a low
# group, a median cluster, a band of medium operations and the heavy ones.
# A pass's median and 90th-percentile latencies are stable from run to run
# only when they fall inside a group of similar operations, not between two
# groups of different cost, so the group sizes put the median in the middle
# of the median cluster and the 90th percentile inside the band.

STRONG_WEAK = ("strong", "weak")


def enumerate_slots():
    # heavy tail (the triangle L=7 m=3 checks are medium)
    heavy = [
        distance("triangle", 2, "z", L=7),
        distance("triangle", 2, "x", L=7),
        distance("triangle", 3, "both", L=5),
        distance("tetra", 3, "both"),
        gate_verify(3, "CX"),
    ] + [morth_check("triangle", 3, m, mode, L=L)
         for L in (7, 9) for m in (3, 4) for mode in STRONG_WEAK]
    slots = [[op] for op in heavy]
    slots.append([codeword("triangle", 3, x, L=5) for x in range(3)])
    # band: transversal T and S at d=7 (about 0.13 s each)
    slots += [[gate_verify(7, "T")], [gate_verify(7, "S")]] * 6
    # medium
    slots += [[op] for op in (
        gate_verify(5, "T"), gate_verify(5, "S"), gate_verify(6, "T36"),
        distance("tetra", 2, "both"), distance("triangle", 2, "both", L=5),
    )]
    # low: m*-orthogonality and small spans; the tetra Z distances at d=5, 7
    # exceed the default cap at the seed commit (true d_Z = 3)
    slots += [[morth_check("tetra", d, m, mode)]
              for d in (2, 3, 5, 7) for m in (3, 4) for mode in STRONG_WEAK]
    slots += [[distance("tetra", 5, "z")], [distance("tetra", 7, "z")]]
    slots += [[gate_verify(2, "T")], [gate_verify(2, "CX")],
              [gate_verify(3, "T36")], [gate_verify(3, "S")]]
    slots += [[codeword("tetra", 2, x) for x in range(2)]] * 4
    slots += [[codeword("tetra", 3, x) for x in range(3)]] * 3
    # median cluster: codewords of tetra at d=5 (625 terms each)
    slots += [[gate_verify(4, "T")]]
    slots += [[codeword("tetra", 5, x) for x in range(5)]] * 121
    return slots


def factor_slots():
    slots = [[op] for op in (
        code_check(6, 25),
        code_check(2, 21),
        code_build(2, 25),
        lattice_check(25),
    )]
    slots.append(syndrome_errors(21, 6))
    # band: commutation audits of triangle L=13 (n = 127)
    slots += [[code_check(2, 13)], [code_check(6, 13)]] * 8
    # median cluster: syndromes on triangle L=11
    slots += [syndrome_errors(11, 2), syndrome_errors(11, 6)] * 44
    # low: builds, lattice checks and syndromes of triangle L=7
    slots += [syndrome_errors(7, 2), syndrome_errors(7, 6)] * 4
    slots += [[code_build(2, 7)], [code_build(6, 7)]] * 4
    slots += [[lattice_check(7)]] * 5
    return slots


GATE_LEVEL_POOL = [gate_level(d, g) for (g, d) in answers.GATE_LEVELS]


def gauge_slots():
    # band: gauge checks; median cluster: fix-demos; low: gate levels
    slots = [[gauge_check(d)] for d in (2, 3, 4, 6)] * 6
    for d in (2, 3, 5, 7):
        slots += [[fix_demo(d, s) for s in range(64)]] * 24
    slots += [GATE_LEVEL_POOL] * 40
    return slots


WORKLOADS = {
    "enumerate": enumerate_slots,
    "factor": factor_slots,
    "gauge": gauge_slots,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(slot) for slot in WORKLOADS[workload]()]
    rng.shuffle(ops)
    return ops


def pool(workload: str) -> list[Op]:
    """Every operation any seed can generate for ``workload``, once each."""
    seen = {}
    for slot in WORKLOADS[workload]():
        for op in slot:
            seen.setdefault(op.key, op)
    return list(seen.values())
