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

from dataclasses import dataclass

import numpy as np

from . import ring
# codeword is unused here but stays importable as gatecalc.codeword, which
# perfbench's tracer test patches as a name shared across modules
from .code import CapExceeded, ColorCode, DEFAULT_CAP, codeword  # noqa: F401
from .reports import Report


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

    def is_constant(self) -> bool:
        return len(set(self.p)) == 1


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
        try:
            coeffs = [int(tok) for tok in spec[2:].split(",")]
        except ValueError:
            raise ValueError(f"gate spec {spec!r}: the R coefficients must be integers") from None
        return build_R(d, coeffs)
    raise ValueError(f"unknown gate spec {spec!r}")


def cyclic_difference(g: PhaseGate) -> PhaseGate:
    """Phase table of X^dagger g X g^dagger: p'(j) = p(j+1 mod d) - p(j)."""
    return PhaseGate(
        g.d, g.N, tuple(g.p[(j + 1) % g.d] - g.p[j] for j in range(g.d))
    )


def hierarchy_level(g: PhaseGate, l_cap: int = 10) -> tuple:
    """(level, trace): the smallest l <= l_cap with the l-fold cyclic
    difference constant, or None if there is none, and the tables of the
    differences taken.  Exact for diagonal gates with phases in (2 pi / N) Z.

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
            return l, trace
    return None, trace


def verify_transversal_phase(C: ColorCode, g: PhaseGate, cap: int = DEFAULT_CAP) -> Report:
    """Check that the transversal gate acts as p on the logical label.

    For every term t = y.G0 + x.G1 of every logical basis state, the total
    transversal phase must equal p(x) mod N.  First failing (x, y) in
    lexicographic order is the witness.
    """
    if g.d != C.d:
        raise ValueError("gate and code dimensions differ")
    if C.k != 1:
        raise ValueError("transversal phase check supports k=1 codes only")
    notes = ""
    g1 = C.G1.array[0]
    if (g1 != 1).any():
        notes = ("G1 row is not all-ones; logical phase target p(x) assumes the "
                 "all-ones logical row, so per-x diagnostics below may not match "
                 "any intended gate")
    span = ring.span_size(C.G0)
    if span * C.d > cap:
        raise CapExceeded(f"transversal check needs {span * C.d} > cap {cap} evaluations")
    orders = ring.span_orders(C.G0)
    dtype = ring.exact_dtype(C.n * g.N)
    table = np.array(g.p, dtype=dtype)
    signs = np.array(C.star_signs, dtype=dtype)
    checked = 0
    for x in range(C.d):
        offset = g1 * x % C.d
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
                witness = {"x": x, "y": y[::-1], "term": block[i].tolist(),
                           "phase": int(phases[i]), "expected": expect}
                return Report("transversal-phase", False, checked + i + 1, witness, notes)
            checked += len(block)
    return Report("transversal-phase", True, checked, detail=notes)


def verify_transversal_CX(C: ColorCode) -> Report:
    """Transversal SUM gate check on two copies of C.

    CX maps |t1>|t2> to |t1>|t2 + t1>; the logical claim is that every term
    sum lands in the term set of the summed logical label, for all label
    pairs.  That holds on every CSS code by linearity (Gottesman 1997): the
    terms of x are x.G1 + span(G0), so t1 + t2 lies in (x1 + x2).G1 +
    span(G0), the term set of x1 + x2 mod d.  The check enumerates nothing,
    so nothing is charged to the cap; a pass reports the (d |span(G0)|)^2
    pairs it covers.
    """
    if C.k != 1:
        raise ValueError("CX check supports k=1 codes only")
    return Report("transversal-CX", True, (C.d * ring.span_size(C.G0)) ** 2)
