"""Diagonal-gate calculus: phase tables, hierarchy levels, transversal checks.

A diagonal gate is a table p: Z_d -> Z_N with N a multiple of d; the gate is
diag(exp(2*pi*i*p(j)/N)).  Conjugation by X shifts the table index, so the
commutator with X is again diagonal with table p(j+1)-p(j); iterating this
cyclic finite difference classifies the Clifford-hierarchy level exactly for
this gate class, with no complex numbers anywhere.  Transversal phase-gate
identities reduce to integer congruences over codeword terms; transversal CX
holds on every CSS code by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ring
# codeword is unused here but stays importable as gatecalc.codeword, which
# perfbench's tracer test patches as a name shared across modules
from .code import CapExceeded, ColorCode, DEFAULT_CAP, codeword  # noqa: F401


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
    """R gate with polynomial phase f(j) = sum a_m j^m, all mod d.

    Horner's rule on all j at once, reducing mod d after every step, so no
    intermediate exceeds d^2."""
    dtype = ring.exact_dtype(d * d)
    j, table = np.arange(d, dtype=dtype), np.zeros(d, dtype=dtype)
    for a in reversed([int(a) % d for a in coeffs]):
        table = (table * j + a) % d
    return PhaseGate(d, d, tuple(table.tolist()))


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


def verify_transversal_CX(C: ColorCode, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Transversal SUM gate check on two copies of C.

    CX maps |t1>|t2> to |t1>|t2 + t1>; the logical claim is that every term
    sum lands in the term set of the summed logical label, for all label
    pairs.  That holds on every CSS code by linearity (Gottesman 1997): the
    terms of x are x.G1 + span(G0), so t1 + t2 lies in (x1 + x2).G1 +
    span(G0), the term set of x1 + x2 mod d.  The check is decided without
    enumeration, but it is charged the (d |span(G0)|)^2 pairs it covers, so
    over-cap inputs are refused as before, and a pass reports them all.
    """
    if C.k != 1:
        raise ValueError("CX check supports k=1 codes only")
    total = (C.d * ring.span_size(C.G0)) ** 2
    if total > cap:
        raise CapExceeded(f"CX check needs {total} > cap {cap} pair checks")
    return VerificationReport("transversal-CX", True, total)
