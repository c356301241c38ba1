"""Edge girth, edge-set girth and balance of oriented edge sets.

The girth of an edge set E0 is the length of a shortest cycle meeting E0
in an odd number of edges.  It is found on the parity double cover: two
layers of the graph, with E0 edges crossing between layers, so a shortest
(v, 0) -> (v, 1) path projects to a shortest odd closed walk.

Such a cycle holds an E0 edge, so it passes through every vertex cover of
E0 at least once: BFS runs start only from a small cover to find the
length L, and the witness is then the one a run from every vertex would
report first, found by runs cut at L edges from the vertices below the
first cover vertex that reaches L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import DEFAULT_BUDGET
from .graphs import Cycle, Graph, _bfs_path, enumerate_cycles, mask_indices

INFINITE = math.inf


@dataclass(frozen=True)
class GirthResult:
    witness: Optional[Cycle]  # a shortest cycle, or None when there is none

    @property
    def value(self) -> float:
        """The witness's length, an int, or INFINITE when there is none."""
        return INFINITE if self.witness is None else len(self.witness)

    @property
    def is_finite(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "value": self.value if self.is_finite else "infinity",
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass(frozen=True)
class OrientedEdgeSet:
    """An edge subset where every member edge has a designated tail vertex."""

    edges: int
    tails: tuple[tuple[int, int], ...]  # (edge index, tail vertex), sorted

    @staticmethod
    def from_tails(g: Graph, tails: Mapping[int, int]) -> "OrientedEdgeSet":
        mask = 0
        items = []
        for i in sorted(tails):
            u, v = g.edges[i]
            t = tails[i]
            if t not in (u, v):
                raise ValueError(f"tail {t} is not an endpoint of edge {i}")
            mask |= 1 << i
            items.append((i, t))
        return OrientedEdgeSet(mask, tuple(items))

    @staticmethod
    def from_pairs(g: Graph, pairs: Iterable[tuple[int, int]]) -> "OrientedEdgeSet":
        """Build from (tail, head) vertex pairs."""
        tails = {}
        for t, h in pairs:
            i = g.edge_index(t, h)
            if i in tails:
                raise ValueError(f"edge {(t, h)} given twice")
            tails[i] = t
        return OrientedEdgeSet.from_tails(g, tails)

    def reversed(self, g: Graph) -> "OrientedEdgeSet":
        flipped = {}
        for i, t in self.tails:
            u, v = g.edges[i]
            flipped[i] = v if t == u else u
        return OrientedEdgeSet.from_tails(g, flipped)

    def to_json(self, g: Graph) -> list[dict]:
        out = []
        for i, t in self.tails:
            u, v = g.edges[i]
            out.append({"edge": i, "tail": t, "head": v if t == u else u})
        return out


@dataclass(frozen=True)
class BalanceVerdict:
    witness: Optional[Cycle]  # a short cycle the orientation is unbalanced on

    @property
    def balanced(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        return {
            "balanced": self.balanced,
            "witness": self.witness.to_json() if self.witness else None,
        }


def edge_girth(g: Graph, e: int) -> GirthResult:
    """Length of a shortest cycle through edge e; INFINITE for a bridge."""
    u, v = g.edges[e]
    path = _bfs_path(g._incidence, g.full_mask() ^ 1 << e, u, v)
    return GirthResult(None if path is None else Cycle.from_vertices(g, path))


def _parity_cover(g: Graph, e0: int) -> list[list[tuple[int, int]]]:
    """Incidence lists of the parity double cover of (g, e0), ascending by
    neighbour, each lift keeping the index of its edge in g.

    Node 2v+p stands for (v, p); an edge of e0 joins the two layers.
    """
    cover: list[list[tuple[int, int]]] = [[] for _ in range(2 * g.n)]
    for v, pairs in enumerate(g._incidence):
        for w, i in pairs:
            flip = e0 >> i & 1
            cover[2 * v].append((2 * w + flip, i))
            cover[2 * v + 1].append((2 * w + 1 - flip, i))
    return cover


def _vertex_cover(g: Graph, e0: int) -> list[int]:
    """A vertex cover of the edges of e0, ascending: greedily, the vertices
    by most e0 edges, ties to the lowest, each taken while one of its e0
    edges is uncovered, so a star is covered by its centre alone."""
    ends: list[list[int]] = [[] for _ in range(g.n)]
    for i in mask_indices(e0):
        u, v = g.edges[i]
        ends[u].append(v)
        ends[v].append(u)
    cover: set[int] = set()
    for v in sorted(range(g.n), key=lambda x: -len(ends[x])):  # stable: ties to the lowest
        if any(w not in cover for w in ends[v]):
            cover.add(v)
    return sorted(cover)


def edge_set_girth(g: Graph, e0: int) -> GirthResult:
    """Shortest cycle with odd |E(C) & E0|, via the parity double cover.

    The witness is the first shortest one that a (v, 0) -> (v, 1) BFS from
    each v = 0, 1, ... in turn finds, each run cut below the best length so
    far.  Only the runs that can matter are made:

    * a cycle meeting E0 oddly holds an E0 edge, so it passes through a
      vertex of any vertex cover C of E0; the runs from C alone, ascending
      and cut below the best so far, give the length L, and h, the first
      vertex of C whose run reaches L;
    * the witness comes from the first v that reaches L, which is h or a
      vertex below it outside C (a vertex of C below h cannot reach L); a
      run cut at L edges has the same parents as an uncut one up to the
      moment it reaches (v, 1), so it returns the same path.

    Raises ValueError when e0 is negative or has a bit at or above g.m.
    """
    if e0 < 0 or e0 >> g.m:
        raise ValueError(f"edge mask is not a subset of the graph's {g.m} edges")
    cover, full = _parity_cover(g, e0), g.full_mask()

    def closed_walk(s: int, limit: Optional[int]) -> Optional[list[int]]:
        path = _bfs_path(cover, full, 2 * s, 2 * s + 1, limit)
        return None if path is None else [node >> 1 for node in path[:-1]]  # s once

    sources = _vertex_cover(g, e0)
    best: Optional[list[int]] = None
    for c in sources:
        walk = closed_walk(c, None if best is None else len(best) - 1)
        if walk is not None:
            best, h = walk, c
    if best is None:
        return GirthResult(None)
    skip = set(sources)
    for s in range(h):
        if s not in skip:
            walk = closed_walk(s, len(best))
            if walk is not None:
                best = walk
                break
    # a shortest odd closed walk is a simple cycle: a repeated vertex would
    # split it into two shorter closed walks, one of them odd
    assert len(set(best)) == len(best)
    return GirthResult(Cycle.from_vertices(g, best))


def _crossings(g: Graph, cyc: Cycle, mask: int) -> list[tuple[int, int]]:
    """The edges of `mask` on the cycle in traversal order, each as
    (edge index, the vertex the walk enters it from)."""
    vs = cyc.vertices
    out = []
    for a, b in zip(vs, vs[1:] + vs[:1]):
        i = g.edge_index(a, b)
        if mask >> i & 1:
            out.append((i, a))
    return out


def check_balance(g: Graph, estar: OrientedEdgeSet, bound: int,
                  cycle_budget: int = DEFAULT_BUDGET) -> BalanceVerdict:
    """Is the orientation balanced on every cycle shorter than `bound`?

    Balanced on C: exactly half of C's edges in the oriented set agree with
    C's traversal order, so an empty intersection is balanced and an odd one
    is unbalanced outright.
    """
    if bound < 3:
        raise ValueError("bound must be >= 3")
    if bound - 1 < 3:
        return BalanceVerdict(None)
    tails = dict(estar.tails)
    for cyc in enumerate_cycles(g, bound - 1, budget=cycle_budget):
        hits = _crossings(g, cyc, estar.edges)
        if 2 * sum(tails[i] == a for i, a in hits) != len(hits):
            return BalanceVerdict(cyc)
    return BalanceVerdict(None)
