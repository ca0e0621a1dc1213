"""Colex lattices: validation, star-bipartitions, and the lattice builders.

A colex is a celluation of an orientable manifold whose vertices have valency
mu+1 and whose top cells are properly (mu+1)-colored.  Orientability itself is
not checked; the combinatorial consequences that the code constructions
actually consume are: a bipartite 1-skeleton, the proper coloring, and the
balanced star counts inside every cell.  Punctured lattices (one vertex and
its incident cells removed) are first-class and carry the off-by-one global
star count.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .reports import Report, check_shape


@dataclass(frozen=True)
class Cell:
    """A k-cell, stored extensionally as its vertex set."""

    dim: int
    vertices: frozenset
    color: int | None = None


@dataclass(frozen=True)
class Lattice:
    """A (possibly punctured) mu-dimensional colex candidate.

    The star map may hold None values before star_bipartition has run.
    Vertices are integer ids; 0-cells are not stored.  The star map is a
    read-only view of a private copy, so a lattice can be shared: with_star
    gives a lattice with other flags.
    """

    mu: int
    punctured: bool
    vertex_ids: tuple
    star: Mapping
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "star", MappingProxyType(dict(self.star)))

    def __hash__(self) -> int:
        """Over the fields the generated __eq__ compares, the star map as its items."""
        return hash((self.mu, self.punctured, self.vertex_ids, frozenset(self.star.items()),
                     self.cells))

    def cells_of_dim(self, k: int) -> list:
        return [c for c in self.cells if c.dim == k]

    def adjacency(self) -> dict:
        """Vertex adjacency from the 1-cells of two vertices."""
        adj = defaultdict(set)
        for c in self.cells:
            if c.dim == 1 and len(c.vertices) == 2:
                u, v = c.vertices
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def starred(self) -> list:
        return [v for v in self.vertex_ids if self.star.get(v) is True]

    def unstarred(self) -> list:
        return [v for v in self.vertex_ids if self.star.get(v) is False]

    def star_signs(self) -> tuple:
        """sigma_j per vertex in vertex_ids order: +1 unstarred, -1 starred.
        Kept on the lattice on first use; missing flags raise on every call."""
        if "_star_signs" not in self.__dict__:
            flags = [self.star.get(v) for v in self.vertex_ids]
            if None in flags:
                raise ValueError("star flags not assigned; run star_bipartition")
            self.__dict__["_star_signs"] = tuple(-1 if flag else 1 for flag in flags)
        return self.__dict__["_star_signs"]

    def with_star(self, star: Mapping) -> "Lattice":
        return Lattice(self.mu, self.punctured, self.vertex_ids, star, self.cells)


def validate_colex(L: Lattice) -> Report:
    """Check the combinatorially-checkable colex axioms.

    Failures are report entries, never exceptions.
    """
    rep = Report()
    vset = set(L.vertex_ids)

    bad = [c for c in L.cells
           if not (1 <= c.dim <= L.mu) or not c.vertices or not c.vertices <= vset
           or (c.dim == 1 and len(c.vertices) != 2)]
    rep.add(
        "cell-sanity",
        not bad,
        "cell dims in [1,mu], nonempty vertex sets, 1-cells of size 2",
        witness=[{"dim": c.dim, "vertices": sorted(c.vertices)} for c in bad[:3]] or None,
    )

    adj = L.adjacency()
    over = [v for v in L.vertex_ids if len(adj.get(v, ())) > L.mu + 1]
    if L.punctured:
        ok = not over
        detail = "valency <= mu+1 (boundary vertices may be lower)"
    else:
        under = [v for v in L.vertex_ids if len(adj.get(v, ())) != L.mu + 1]
        ok = not over and not under
        detail = "valency == mu+1 at every vertex"
    rep.add("vertex-valency", ok, detail, witness=sorted(over)[:5] or None)

    top = L.cells_of_dim(L.mu)
    uncolored = [c for c in top if c.color is None or not (0 <= c.color <= L.mu)]
    # same-colored top cells that share a vertex meet in a (vertex, color) bucket
    buckets = defaultdict(list)
    for i, c in enumerate(top):
        if c.color is not None:
            for v in c.vertices:
                buckets[v, c.color].append(i)
    pairs = sorted({p for b in buckets.values() for p in itertools.combinations(b, 2)})
    clashes = [(min(top[i].vertices), min(top[j].vertices)) for i, j in pairs]
    rep.add(
        "mu-cell-coloring",
        not uncolored and not clashes,
        "top cells carry colors in [0,mu]; same-colored cells never share a vertex",
        witness=clashes[:3] or None,
    )

    odd = _two_coloring(L, adj)[2]
    rep.add(
        "bipartite-skeleton",
        odd is None,
        "1-skeleton admits a 2-coloring",
        witness=list(odd) if odd else None,
    )
    return rep


def _two_coloring(L: Lattice, adj: dict):
    """(side, components, clash) of the breadth-first 2-coloring of the
    1-skeleton, roots and neighbours taken in sorted order, each root on
    side False: clash is the first edge (u, w) found with both ends on one
    side, where the walk stops, or None when the skeleton is bipartite."""
    side, comps = {}, []
    for root in sorted(L.vertex_ids):
        if root in side:
            continue
        side[root] = False
        comp = [root]
        for u in comp:  # comp grows while it is walked: breadth-first order
            for w in sorted(adj.get(u, ())):
                if w not in side:
                    side[w] = not side[u]
                    comp.append(w)
                elif side[w] == side[u]:
                    return side, comps, (u, w)
        comps.append(comp)
    return side, comps, None


def star_bipartition(L: Lattice) -> Lattice:
    """Assign star flags by deterministic BFS 2-coloring of the 1-skeleton.

    For punctured lattices the per-component colorings are oriented (flipped
    or not, lexicographically first feasible pattern) so that the global
    counts satisfy |starred| = |unstarred| - 1.  Odd cycles raise ValueError.
    """
    color, comps, odd = _two_coloring(L, L.adjacency())
    if odd is not None:
        raise ValueError("1-skeleton has an odd cycle through {},{}".format(*odd))

    # diff contributed by a component = (#True - #False) under the seed
    # orientation; flipping the component negates it
    diffs = [
        sum(1 if color[v] else -1 for v in comp) for comp in comps
    ]
    target = -1 if L.punctured else 0  # starred minus unstarred
    flips = _orientation_flips(diffs, target)
    if flips is None:
        if L.punctured:
            raise ValueError(
                "no component orientation achieves |starred| = |unstarred| - 1"
            )
        flips = [False] * len(comps)  # closed: report via check_cell_balance

    return L.with_star({v: color[v] != flip for comp, flip in zip(comps, flips) for v in comp})


def _orientation_flips(diffs, target):
    """Lexicographically first flip pattern with sum(+-diffs) == target."""
    # reachable[i] = set of partial sums achievable using components i..end
    reachable = [{0}]
    for diff in reversed(diffs):
        reachable.insert(0, {s + e for s in reachable[0] for e in (diff, -diff)})
    if target not in reachable[0]:
        return None
    flips = []  # each component unflipped unless the rest cannot then reach target
    for diff, rest in zip(diffs, reachable[1:]):
        flips.append(target - diff not in rest)
        target += diff if flips[-1] else -diff
    return flips


def check_cell_balance(L: Lattice) -> Report:
    """Check that every cell holds equal starred and unstarred vertex counts.

    Also checks the global count (equal when closed, off-by-one punctured).
    Star flags must be assigned first.
    """
    rep = Report()
    if any(L.star.get(v) is None for v in L.vertex_ids):
        rep.add("star-flags-present", False, "star flags missing")
        return rep
    rep.add("star-flags-present", True)

    bad = [{"dim": c.dim, "vertices": sorted(c.vertices)} for c in L.cells
           if 2 * sum(1 for v in c.vertices if L.star[v]) != len(c.vertices)]
    rep.add(
        "cell-balance",
        not bad,
        "every cell contains equally many starred and unstarred vertices",
        witness=bad[:3] or None,
    )

    ns = len(L.starred())
    nu = len(L.unstarred())
    if L.punctured:
        rep.add(
            "global-count",
            ns == nu - 1,
            f"punctured: starred {ns} must equal unstarred {nu} minus 1",
        )
    else:
        rep.add("global-count", ns == nu, f"closed: starred {ns} == unstarred {nu}")
    return rep


def audit(L: Lattice) -> tuple:
    """(L, report) of the full check: validate_colex, then, if it holds,
    star_bipartition where any star flag is missing and check_cell_balance.
    The report is a JSON object whose "ok" holds iff every check run does;
    it also counts the starred and unstarred vertices once balance ran."""
    rep = validate_colex(L)
    out = {"validate": rep.to_dict(), "ok": rep.ok}
    if rep.ok:
        if any(L.star.get(v) is None for v in L.vertex_ids):
            L = star_bipartition(L)
        bal = check_cell_balance(L)
        out.update(balance=bal.to_dict(), ok=bal.ok,
                   starred=len(L.starred()), unstarred=len(L.unstarred()))
    return L, out


def _self_verify(L: Lattice) -> Lattice:
    """Builders audit their lattice and raise unless the report holds."""
    L, rep = audit(L)
    if not rep["ok"]:
        raise AssertionError(f"builder produced an invalid lattice: {rep}")
    return L


@functools.cache
def hypercube_lattice(mu: int) -> Lattice:
    """The punctured mu-colex on the boundary of the (mu+1)-cube, built and
    audited once per mu per process and shared read-only.

    Vertices are the nonzero (mu+1)-bit strings: the all-zero vertex is
    punctured out.  A k-cell fixes mu+1-k bits, with mask F, to a pattern
    P != 0 and is {b : b & F == P}; the top cell of colour i is {bit i set}.
    Cells come top-down: top cells by colour, then for each k the free-bit
    sets in combinations order and the patterns in product order.  Star flag
    = even popcount.  mu = 3 is the 15-qudit tetrahedral lattice.
    """
    bits = range(mu + 1)
    verts = tuple(range(1, 2 ** (mu + 1)))
    cells = []
    for k in range(mu, 0, -1):
        frees = list(itertools.combinations(bits, k))
        for free in reversed(frees) if k == mu else frees:  # top cell i fixes bit i
            fixed = [i for i in bits if i not in free]
            F = sum(1 << i for i in fixed)
            patterns = itertools.product((0, 1), repeat=len(fixed))
            for pattern in itertools.islice(patterns, 1, None):  # P = 0 skipped
                P = sum(p << i for i, p in zip(fixed, pattern))
                members = frozenset(b for b in verts if b & F == P)
                cells.append(Cell(k, members, color=fixed[0] if k == mu else None))

    L = _self_verify(Lattice(mu, True, verts, {v: None for v in verts}, tuple(cells)))
    for v in verts:
        assert L.star[v] == (bin(v).count("1") % 2 == 0), "popcount star rule"
    return L


@functools.cache
def triangle_lattice(distance: int) -> Lattice:
    """Triangular patch of the hexagonal 6.6.6 2-colex, built and audited
    once per distance per process and shared read-only.

    Built from the dual picture: plaquette centers live on a triangular wedge
    of the integer lattice and qubits are the unit triangles of that wedge
    plus boundary faces; corners sit in a single plaquette each, so every
    side of the patch holds an odd number of qudits and the nominal distance
    is `distance`.  No step is quadratic in the number of qudits.
    """
    if distance < 3 or distance % 2 == 0:
        raise ValueError("distance must be an odd integer >= 3")
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

    # qudits interior to the patch: unit up/down triangles of the wedge, by
    # lower-left anchor: a center (up) or the point left of one (down)
    tris = []
    for a, b in sorted(cset | {(a - 1, b) for a, b in cset}):
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

    # re-key qudits by contiguous integer id, sorted for determinism; a
    # plaquette holds the faces on its center, and two faces (all of three
    # elements) share a 1-cell iff they share a pair of elements
    faces = sorted(faces, key=lambda f: sorted(map(str, f)))
    members = defaultdict(list)
    shared = defaultdict(list)
    for i, f in enumerate(faces):
        for p in f:
            members[p].append(i)
        for pair in itertools.combinations(f, 2):
            shared[frozenset(pair)].append(i)
    edges = sorted(e for ids in shared.values() for e in itertools.combinations(ids, 2))
    verts = tuple(range(len(faces)))
    cells = [Cell(2, frozenset(members[p]), color=(p[0] - p[1]) % 3) for p in sorted(cset)]
    cells += [Cell(1, frozenset(e)) for e in edges]
    return _self_verify(Lattice(2, True, verts, {v: None for v in verts}, tuple(cells)))


def lattice_to_json(L: Lattice) -> dict:
    return {
        "mu": L.mu,
        "punctured": L.punctured,
        "vertices": [
            {"id": _vid(v), "star": L.star.get(v)} for v in L.vertex_ids
        ],
        "cells": [
            {
                "dim": c.dim,
                "color": c.color,
                "vertices": sorted(_vid(v) for v in c.vertices),
            }
            for c in L.cells
        ],
    }


_LATTICE_SHAPE = {
    "mu": int,
    "punctured": bool,
    "vertices": [{"id": int, "star": (bool, None)}],
    "cells": [{"dim": int, "vertices": [int], "color": (int, None)}],
}


def lattice_from_json(obj: dict) -> Lattice:
    """The lattice of a JSON object of _LATTICE_SHAPE; a repeated vertex id,
    or a cell listing a vertex twice, raises ValueError naming the field."""
    check_shape(obj, _LATTICE_SHAPE, "lattice")
    verts = tuple(v["id"] for v in obj["vertices"])
    lists = [("vertices[{}].id", verts)]
    lists += [(f"cells[{i}].vertices[{{}}]", c["vertices"]) for i, c in enumerate(obj["cells"])]
    for field, ids in lists:
        if len(set(ids)) < len(ids):
            j = next(j for j, v in enumerate(ids) if v in ids[:j])
            raise ValueError(f"lattice.{field.format(j)} repeats the vertex {ids[j]}")
    star = {v["id"]: v.get("star") for v in obj["vertices"]}
    cells = tuple(
        Cell(c["dim"], frozenset(c["vertices"]), c.get("color"))
        for c in obj["cells"]
    )
    return Lattice(obj["mu"], obj["punctured"], verts, star, cells)


def _vid(v) -> int:
    if not isinstance(v, int):
        raise ValueError("JSON export requires integer vertex ids")
    return v
