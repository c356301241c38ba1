"""Edge girth, edge-set girth and balance of oriented edge sets.

The girth of an edge set E0 is the length of a shortest cycle meeting E0
in an odd number of edges.  It is found on the parity double cover: two
layers of the graph, with E0 edges crossing between layers, so a shortest
(v, 0) -> (v, 1) path projects to a shortest odd closed walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import DEFAULT_BUDGET
from .graphs import Cycle, Graph, _bfs_path, enumerate_cycles

INFINITE = math.inf


@dataclass(frozen=True)
class GirthResult:
    value: float  # an int when finite, INFINITE otherwise
    witness: Optional[Cycle]

    @property
    def is_finite(self) -> bool:
        return self.value != INFINITE

    def to_json(self) -> dict:
        return {
            "value": int(self.value) if self.is_finite else "infinity",
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
    balanced: bool
    witness: Optional[Cycle]

    def to_json(self) -> dict:
        return {
            "balanced": self.balanced,
            "witness": self.witness.to_json() if self.witness else None,
        }


def edge_girth(g: Graph, e: int) -> GirthResult:
    """Length of a shortest cycle through edge e; INFINITE for a bridge."""
    u, v = g.edges[e]
    path = _bfs_path(g._incidence, g.full_mask() ^ 1 << e, u, v)
    if path is None:
        return GirthResult(INFINITE, None)
    return GirthResult(len(path), Cycle.from_vertices(g, path))


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


def edge_set_girth(g: Graph, e0: int) -> GirthResult:
    """Shortest cycle with odd |E(C) & E0|, via the parity double cover."""
    cover = _parity_cover(g, e0)
    best: Optional[list[int]] = None
    for s in range(g.n):
        limit = None if best is None else len(best) - 1
        path = _bfs_path(cover, g.full_mask(), 2 * s, 2 * s + 1, limit)
        if path is not None:
            best = [node >> 1 for node in path[:-1]]  # closed walk, s once
    if best is None:
        return GirthResult(INFINITE, None)
    # a shortest odd closed walk is a simple cycle: a repeated vertex would
    # split it into two shorter closed walks, one of them odd
    assert len(set(best)) == len(best)
    return GirthResult(len(best), Cycle.from_vertices(g, best))


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
        return BalanceVerdict(True, None)
    tails = dict(estar.tails)
    for cyc in enumerate_cycles(g, bound - 1, budget=cycle_budget):
        hits = _crossings(g, cyc, estar.edges)
        if 2 * sum(tails[i] == a for i, a in hits) != len(hits):
            return BalanceVerdict(False, cyc)
    return BalanceVerdict(True, None)
