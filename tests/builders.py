"""Built-in lattices with their codes, built as the command line builds them,
and each distance method on its own."""

import copy
import json

import numpy as np

from colexa import code, gauge
from colexa.code import DEFAULT_CAP, CapExceeded, code_to_json, from_colex


def with_code(L, d):
    """(L, its color code over Z_d with X generators on the mu-cells)."""
    return L, from_colex(L, L.mu, d)


def code_json(C):
    """code_to_json(C) with its arrays as nested lists, as json.loads reads
    it back: plain values to dump, compare with == or edit."""
    return json.loads(json.dumps(code_to_json(C), default=np.ndarray.tolist))


def forget_gauge_codes(L):
    """Drop the gauge codes L keeps, so the next gauge.build_gauge_code on L
    builds afresh and a count of its work does not hang on test order."""
    L.__dict__.pop("_gauge", None)


def forget_codes(L):
    """Drop the color codes (and rejections) L keeps, so the next
    code.from_colex on L builds and decides afresh and a count of its work
    does not hang on test order."""
    L.__dict__.pop("_codes", None)


class Drawn:
    """A gauge.Tableau read at its draws, as a state that drew a number at
    each random outcome would read: measure takes the block's new draws from
    its rng, rng.randrange(d) in the order the state met them (a block that
    raises takes those it met), and every outcome and canonical form is a
    number.  Every other attribute is the state's."""

    def __init__(self, T, draws=()):
        self.T, self.draws = T, list(draws)

    def __getattr__(self, name):
        return getattr(self.T, name)

    def draw(self, rng) -> None:
        """Draw a value for every draw the state made since the last."""
        self.draws += [rng.randrange(self.T.d) for _ in range(self.T.draws - len(self.draws))]

    def measure(self, rows, rng) -> list:
        try:
            forms = self.T.measure(rows)
        finally:
            self.draw(rng)
        return gauge.evaluate(forms, self.draws, self.T.d).tolist()

    def canonical_form(self) -> tuple:
        """The canonical rows, each with its sign omega^-k as the word-level
        oracle keeps it: -k mod d, or 2k mod 4 (a power of i) at d = 2."""
        d = self.T.d
        return tuple((x, z, int(-gauge.evaluate(k, self.draws, d) % d) * (2 if d == 2 else 1))
                     for x, z, k in self.T.canonical_form())

    def copy(self) -> "Drawn":
        return Drawn(copy.deepcopy(self.T), self.draws)


def drawn_fix(T: Drawn, G, rng) -> dict:
    """gauge.gauge_fix on a Drawn tableau, its new draws taken from rng:
    every form of the log read at T's draws, as lists of numbers."""
    forms = gauge.gauge_fix(T.T, G)
    T.draw(rng)
    return {key: gauge.evaluate(F, T.draws, G.d).tolist() for key, F in forms.items()}


# Each distance method alone, on the sector code._sector gives, as
# code.distance would run it with no upper bound from a first block.


def enumerate_distance(C, sector, cap=DEFAULT_CAP):
    """The distance by enumerating the whole coset space."""
    _A, B, space, blocks = code._sector(C, sector)
    if space > cap:
        raise CapExceeded(f"{sector.upper()}-sector coset space {space} > cap {cap}")
    return code._found(code._lightest_of(blocks, B, C.n + 1), C.n)


def search_distance(C, sector, cap=DEFAULT_CAP):
    """The distance by the weight-ordered support search alone."""
    A, B, _space, _blocks = code._sector(C, sector)
    return code._weight_search(C, A, B, cap, C.n + 1)


def information_distance(C, sector, cap=DEFAULT_CAP):
    """The distance by the information-set search alone, at prime d."""
    A, B, _space, _blocks = code._sector(C, sector)
    return code._information_search(code._information_sets(A), B, cap, C.n + 1)
