"""Diagonal-gate calculus: phase tables, hierarchy levels, transversal checks.

A diagonal gate is a table p: Z_d -> Z_N with N a multiple of d; the gate is
diag(exp(2*pi*i*p(j)/N)).  Conjugation by X shifts the table index, so the
commutator with X is again diagonal with table p(j+1)-p(j); iterating this
cyclic finite difference classifies the Clifford-hierarchy level exactly for
this gate class, with no complex numbers anywhere.  Transversal logical-gate
identities reduce to integer congruences over codeword terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import ring
from .code import CapExceeded, ColorCode, DEFAULT_CAP, codeword


@dataclass(frozen=True)
class PhaseGate:
    """diag(e^{2 pi i p(j) / N}) for j in Z_d, with d | N."""

    d: int
    N: int
    p: tuple

    def __post_init__(self):
        if self.N % self.d != 0 or self.N <= 0:
            raise ValueError("N must be a positive multiple of d")
        if len(self.p) != self.d:
            raise ValueError("phase table must have length d")
        object.__setattr__(self, "p", tuple(int(e) % self.N for e in self.p))

    def conjugate(self) -> "PhaseGate":
        """The complex-conjugate gate: phase table negated mod N."""
        return PhaseGate(self.d, self.N, tuple(-e for e in self.p))

    def is_constant(self) -> bool:
        return len(set(self.p)) == 1


@dataclass
class HierarchyVerdict:
    level: int | None  # None means "> l_cap"
    l_cap: int
    difference_trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "level": self.level if self.level is not None else f"> {self.l_cap}",
            "trace": [list(t) for t in self.difference_trace],
        }


def build_R(d: int, coeffs) -> PhaseGate:
    """R gate with polynomial phase f(j) = sum a_m j^m, all mod d."""
    coeffs = [int(a) for a in coeffs]
    table = tuple(
        sum(a * j**m for m, a in enumerate(coeffs)) % d for j in range(d)
    )
    return PhaseGate(d, d, table)


def build_S(d: int) -> PhaseGate:
    """The qudit phase gate, f(j) = j^2."""
    return build_R(d, (0, 0, 1))


def build_T(d: int) -> PhaseGate:
    """The cubing gate f(j) = j^3 mod d (degenerates below level 3 for d=2,3,6)."""
    return build_R(d, (0, 0, 0, 1))


def build_T36(d: int) -> PhaseGate:
    """The exceptional cubing gate over gamma = omega^{1/3}: p(j) = j^3 mod 3d."""
    if d not in (3, 6):
        raise ValueError("T36 exists only for d in {3, 6}")
    return PhaseGate(d, 3 * d, tuple(j**3 % (3 * d) for j in range(d)))


def build_gate(spec: str, d: int) -> PhaseGate:
    """Parse a CLI gate spec: T | T36 | S | R:a0,a1,...,ar."""
    spec = spec.strip()
    if spec == "T":
        return build_T(d)
    if spec == "T36":
        return build_T36(d)
    if spec == "S":
        return build_S(d)
    if spec.startswith("R:"):
        coeffs = [int(tok) for tok in spec[2:].split(",")]
        return build_R(d, coeffs)
    raise ValueError(f"unknown gate spec {spec!r}")


def cyclic_difference(g: PhaseGate) -> PhaseGate:
    """Phase table of X^dagger g X g^dagger: p'(j) = p(j+1 mod d) - p(j)."""
    return PhaseGate(
        g.d, g.N, tuple(g.p[(j + 1) % g.d] - g.p[j] for j in range(g.d))
    )


def hierarchy_level(g: PhaseGate, l_cap: int = 10) -> HierarchyVerdict:
    """Smallest l with the l-fold cyclic difference constant; exact for
    diagonal gates with phases in (2 pi / N) Z.

    A constant table c after l differences sums to 0 over the cycle, so
    d*c = 0 mod N, forcing c into (N/d)Z: the (l-1)-fold difference is then
    a power of Z up to global phase, which closes the induction.
    """
    if l_cap < 1:
        raise ValueError("l_cap must be >= 1")
    trace = []
    cur = g
    for l in range(1, l_cap + 1):
        cur = cyclic_difference(cur)
        trace.append(cur.p)
        if cur.is_constant():
            return HierarchyVerdict(level=l, l_cap=l_cap, difference_trace=trace)
    return HierarchyVerdict(level=None, l_cap=l_cap, difference_trace=trace)


@dataclass
class VerificationReport:
    name: str
    passed: bool
    checked: int
    witness: dict | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed, "checked": self.checked,
               "witness": self.witness}
        if self.notes:
            out["notes"] = self.notes
        return out


def transversal_phase(C: ColorCode, g: PhaseGate, term) -> int:
    """Accumulated phase (mod N) of the star-conjugate transversal gate on
    one computational-basis term: unstarred qudits apply g, starred apply
    the conjugate gate."""
    return sum(s * g.p[t] for s, t in zip(C.star_signs, term)) % g.N


def verify_transversal_phase(C: ColorCode, g: PhaseGate, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check that the transversal gate acts as p on the logical label.

    For every term t = y.G0 + x.G1 of every logical basis state, the total
    transversal phase must equal p(x) mod N.  First failing (x, y) in
    lexicographic order is the witness.
    """
    if g.d != C.d:
        raise ValueError("gate and code dimensions differ")
    if C.k != 1:
        raise ValueError("transversal phase check supports k=1 codes only")
    notes = []
    if any(e != 1 for e in C.G1.rows[0]):
        notes.append(
            "G1 row is not all-ones; logical phase target p(x) assumes the "
            "all-ones logical row, so per-x diagnostics below may not match "
            "any intended gate"
        )
    span = ring.span_size(C.G0)
    if span * C.d > cap:
        raise CapExceeded(f"transversal check needs {span * C.d} > cap {cap} evaluations")
    orders = ring.span_orders(C.G0)
    dtype = ring.exact_dtype(C.n * g.N)
    table = np.array(g.p, dtype=dtype)
    signs = np.array(C.star_signs, dtype=dtype)
    checked = 0
    for x in range(C.d):
        offset = tuple((x * e) % C.d for e in C.G1.rows[0])
        expect = g.p[x]
        for block in ring.span_blocks(C.G0, offset):
            phases = (table[block] @ signs) % g.N
            bad = np.flatnonzero(phases != expect)
            if bad.size:
                i = int(bad[0])
                # the term's rank among this x's terms, in mixed radix
                # over the span orders, is its y
                rank, y = checked % span + i, []
                for o in reversed(orders):
                    rank, digit = divmod(rank, o)
                    y.append(digit)
                return VerificationReport(
                    name="transversal-phase",
                    passed=False,
                    checked=checked + i + 1,
                    witness={
                        "x": x,
                        "y": y[::-1],
                        "term": block[i].tolist(),
                        "phase": int(phases[i]),
                        "expected": expect,
                    },
                    notes=notes,
                )
            checked += len(block)
    return VerificationReport("transversal-phase", True, checked, None, notes)


def verify_transversal_S(C: ColorCode, cap: int = DEFAULT_CAP) -> VerificationReport:
    rep = verify_transversal_phase(C, build_S(C.d), cap)
    rep.name = "transversal-S"
    return rep


def verify_transversal_CX(C: ColorCode, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Blockwise SUM gate check on two copies of C.

    CX maps |t1>|t2> to |t1>|t2 + t1>; the logical claim is that every term
    sum lands in the term set of the summed logical label, for all label
    pairs.  This is the CSS coset property, checked by full enumeration:
    t1 + t2 lies in o + span(G0), o = (x1 + x2).G1, iff (t1 + t2 - o) H == 0
    mod g for the check matrix (H, g) of span(G0).  The product is linear and
    g divides d, so it is summed from t1 H, t2 H and G1 H, each computed once.
    Pairs run t1-major over each word's terms in the term set's iteration
    order, BLOCK_ROWS pairs at a time; the first failing pair is the witness.
    """
    if C.k != 1:
        raise ValueError("CX check supports k=1 codes only")
    span = ring.span_size(C.G0)
    total = (C.d * span) ** 2
    if total > cap:
        raise CapExceeded(f"CX check needs {total} > cap {cap} pair checks")
    H, g = ring.span_check(C.G0, C.n)
    logical = (np.array(C.G1.rows[0], dtype=H.dtype) @ H) % g
    terms = [np.array(list(codeword(C, x, cap).terms), dtype=H.dtype).reshape(-1, C.n)
             for x in range(C.d)]
    checks = [(T @ H) % g for T in terms]
    checked = 0
    for x1, x2 in itertools.product(range(C.d), repeat=2):
        P1, P2, o = checks[x1], checks[x2], (x1 + x2) * logical
        rows = max(1, ring.BLOCK_ROWS // len(P2))
        for a in range(0, len(P1), rows):
            sums = (P1[a:a + rows, None, :] + P2[None, :, :] - o) % g
            bad = np.flatnonzero((sums != 0).any(axis=2))
            if bad.size:
                i, j = divmod(int(bad[0]), len(P2))
                return VerificationReport(
                    "transversal-CX", False, checked + int(bad[0]) + 1,
                    {"x1": x1, "x2": x2, "t1": terms[x1][a + i].tolist(),
                     "t2": terms[x2][j].tolist()},
                )
            checked += sums.shape[0] * sums.shape[1]
    return VerificationReport("transversal-CX", True, checked)
