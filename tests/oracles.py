"""Independent test oracles: brute-force implementations kept deliberately
separate from the library's algorithms (no Smith normal form, no table
calculus), so agreement between the two is meaningful evidence.
"""

import itertools

import numpy as np

from colexa.code import PauliWord


def brute_kernel(rows, N):
    """All v with v @ M == 0 mod N, by exhaustive scan over Z_N^m."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = set()
    for v in itertools.product(range(N), repeat=m):
        w = [sum(c * row[j] for c, row in zip(v, rows)) % N for j in range(n)]
        if not any(w):
            out.add(v)
    return out


def brute_span(rows, N):
    """All row-combinations of M mod N, by exhaustive scan."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = set()
    for v in itertools.product(range(N), repeat=m):
        out.add(tuple(sum(c * row[j] for c, row in zip(v, rows)) % N for j in range(n)))
    return out


def stabilizer_words(C) -> list:
    """C's generators as PauliWords, X type first then Z type: the syndrome
    order."""
    return ([PauliWord.x_word(C.d, row) for row in C.G0.rows]
            + [PauliWord.z_word(C.d, row) for row in C.z_stab.rows])


def logical_words(C) -> tuple:
    """(Xbar, Zbar) of a k = 1 code as PauliWords."""
    return PauliWord.x_word(C.d, C.G1.rows[0]), PauliWord.z_word(C.d, C.z_logical.entries)


def unitary_hierarchy_level(p_table, d, N, l_cap=10):
    """Clifford-hierarchy level of diag(e^{2 pi i p(j)/N}) by explicit complex
    conjugation: U is level l iff X^dag U X U^dag is level l-1, with level-1
    meaning the commutator with X is a scalar matrix (diagonal Pauli test).
    """
    diag = np.exp(2j * np.pi * np.array(p_table) / N)
    for l in range(1, l_cap + 1):
        diag = np.roll(diag, -1) * diag.conj()  # X^dag U X U^dag, still diagonal
        if np.allclose(diag, diag[0]):
            return l
    return None


def min_logical_weight_z(n, d, G0_rows, sigma):
    """Smallest weight of a Z-type logical: exponent vectors v with
    G0 @ v == 0 (commutes with every X stabilizer) and sum(v) != 0 mod d
    (nontrivial logical class, detected by the bare logical X).

    Weight-increasing search over supports; no span machinery anywhere.
    """
    G0 = np.array(G0_rows, dtype=np.int64)
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            cols = G0[:, support]
            exps = np.array(
                list(itertools.product(range(1, d), repeat=w)), dtype=np.int64
            )
            ok = ~((exps @ cols.T) % d).any(axis=1)
            ok &= exps.sum(axis=1) % d != 0
            if ok.any():
                return w
    raise AssertionError("no Z logical found")


def min_logical_weight_x(n, d, Zstab_rows, sigma):
    """Smallest weight of an X-type logical: v with Zstab @ v == 0 and
    sigma . v != 0 mod d (detected by the bare logical Z)."""
    Zs = np.array(Zstab_rows, dtype=np.int64)
    sg = np.array(sigma, dtype=np.int64)
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            cols = Zs[:, support]
            scols = sg[list(support)]
            exps = np.array(
                list(itertools.product(range(1, d), repeat=w)), dtype=np.int64
            )
            ok = ~((exps @ cols.T) % d).any(axis=1)
            ok &= (exps @ scols) % d != 0
            if ok.any():
                return w
    raise AssertionError("no X logical found")
