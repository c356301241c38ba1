"""Immutable simple graphs with edge-subset combinatorics.

Vertices are 0..n-1.  Edges are stored as a tuple of (u, v) pairs with
u < v; the position of a pair in that tuple is the edge's index, stable
for the lifetime of the graph.  Edge subsets are plain int bitmasks over
those indices.

The package's graph primitives live here, once each.  A subgraph is
always the graph's own incidence lists read under an edge mask; no module
builds neighbour lists of an edge subset:

* `Graph._incidence`: ascending (neighbour, edge index) pairs per vertex,
  built once per graph;
* `_find` and `_union`: union-find and its merge loop;
* `_bases`: the one take-before-leave-out walk over the edge sets that join
  the components of a base edge mask, which the DP-good search of
  `classify` runs once per odd girth; it keeps its components as flat
  least-vertex labels and runs union-find only to test whether the
  undecided edges can still join them;
* `spanning_tree_count`: the spanning trees that hold a forced edge set
  and take their other edges from an edge mask, by the matrix-tree theorem
  as one integer (Bareiss) determinant; `spanning_tree_rank` sums them;
* `_blocks`: the lowpoint DFS that splits a subgraph into its blocks, whose
  one-edge blocks are its bridges;
* `_bfs`: the one BFS walk over incidence lists under a mask, from a list
  of roots, cut at a depth and stopped at a target on request, as a parent
  dict in visiting order; `_bfs_path` reads shortest paths off it, and the
  ascending neighbour order fixes every witness cycle the package reports;
* `cycle_space_ranks`: the GF(2) rank of the cycles up to each asked
  length, from Horton's candidate cycles;
* `_search_plan`: the greedy min-frontier vertex order and, per step, the
  back edges and the surviving slots of its frontier, which both exact
  counts (transversals and chromatic polynomials) walk forward; vertices
  it is asked to keep stay on the frontier to the end;
* `_require_connected`: the connectivity rule, under which n = 0 fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError, GraphParseError

MAX_VERTICES = 10_000  # largest vertex count parse_graph accepts


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "edges", "adj", "_index", "_incidence")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in index:
                raise ValueError(f"duplicate edge {e}")
            index[e] = len(norm)
            norm.append(e)
        self.n = n
        self.edges = tuple(norm)
        self._index = index
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            pairs[u].append((v, i))
            pairs[v].append((u, i))
        # _incidence[v]: (neighbour, edge index) pairs, ascending by neighbour
        self._incidence = tuple(tuple(sorted(a)) for a in pairs)
        self.adj = tuple(tuple(w for w, _ in a) for a in self._incidence)

    @property
    def m(self) -> int:
        return len(self.edges)

    def full_mask(self) -> int:
        return (1 << len(self.edges)) - 1

    def edge_index(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self._index[e]
        except KeyError:
            raise KeyError(f"no edge {e}") from None

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self._index

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_mask(self, pairs: Iterable[tuple[int, int]]) -> int:
        mask = 0
        for u, v in pairs:
            mask |= 1 << self.edge_index(u, v)
        return mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def mask_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Cycle:
    """A simple cycle as a canonical vertex sequence.

    Canonical form: the smallest vertex comes first, and of the two
    traversal directions the one with the smaller second vertex is kept,
    so equal cycles compare equal as tuples.
    """

    vertices: tuple[int, ...]

    @staticmethod
    def from_vertices(g: Graph, seq: Iterable[int]) -> "Cycle":
        vs = tuple(seq)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle vertices must be distinct")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if not g.has_edge(a, b):
                raise ValueError(f"({a}, {b}) is not an edge")
        return Cycle(_canonical_rotation(vs))

    def __len__(self) -> int:
        return len(self.vertices)

    def edge_pairs(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(a, b) if a < b else (b, a) for a, b in zip(vs, vs[1:] + vs[:1])]

    def edge_mask(self, g: Graph) -> int:
        return g.edge_mask(self.edge_pairs())

    def to_json(self) -> list[int]:
        return list(self.vertices)


def _canonical_rotation(vs: tuple[int, ...]) -> tuple[int, ...]:
    k = vs.index(min(vs))
    rot = vs[k:] + vs[:k]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first data line n, then one "u v" per line.

    '#' starts a comment that runs to the end of its line.  Pairs are
    normalized to u < v and de-duplicated keeping first-occurrence order.  A
    vertex count above MAX_VERTICES is rejected before anything of that size
    is built.
    """
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphParseError(f"expected vertex count at line {lineno}, got {line!r}")
            if n < 0:
                raise GraphParseError(f"negative vertex count at line {lineno}")
            if n > MAX_VERTICES:
                raise GraphParseError(f"vertex count {n} at line {lineno} is above "
                                      f"the limit of {MAX_VERTICES}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"malformed edge at line {lineno}: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed edge at line {lineno}: {line!r}")
        if u == v:
            raise GraphParseError(f"loop at line {lineno}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"endpoint out of range at line {lineno}: {line!r}")
        e = (u, v) if u < v else (v, u)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    if n is None:
        raise GraphParseError("empty input: no vertex count line")
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# named fixtures (generated, not parsed)

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    bounds = [0, *accumulate(sizes)]
    edges = [(u, v) for a, b in combinations(range(len(sizes)), 2)
             for u in range(bounds[a], bounds[a + 1]) for v in range(bounds[b], bounds[b + 1])]
    return Graph(bounds[-1], edges)


# 14 vertices, 21 edges: outer 5-cycle, an inner 5-cycle sharing the edge
# (2, 3), and six pendant triangles hanging off the two cycles.
_FIG1_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (2, 6), (5, 6), (5, 7), (3, 7),
    (5, 8), (7, 8),
    (5, 9), (6, 9),
    (7, 10), (3, 10),
    (6, 11), (2, 11),
    (4, 12), (0, 12),
    (0, 13), (1, 13),
]


def fig1_graph() -> Graph:
    return Graph(14, _FIG1_EDGES)


# 10 vertices, 22 edges; the interesting edge set runs between the vertex
# classes {0, 2, 6} and {1, 3, 7}.
_FIG3B_EDGES = [
    (2, 3), (2, 7), (3, 6), (0, 3), (1, 2),
    (3, 5), (4, 5), (2, 4), (0, 2), (1, 3), (0, 4),
    (4, 6), (6, 8), (4, 8), (1, 5), (5, 9), (7, 9),
    (5, 7), (2, 6), (3, 7), (5, 8), (4, 9),
]

FIG3B_V1 = (0, 2, 6)
FIG3B_V2 = (1, 3, 7)
FIG3B_CROSSING = _FIG3B_EDGES[:5]


def fig3b_graph() -> Graph:
    return Graph(10, _FIG3B_EDGES)


def _capped(n: int) -> int:
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices is above the limit of {MAX_VERTICES}")
    return n


def fixture(name: str) -> Graph:
    """Resolve a fixture name like "cycle:4" or "fig1" to a Graph.

    A family member with more than MAX_VERTICES vertices is rejected before
    anything of that size is built.
    """
    base, _, arg = name.partition(":")
    families = {"cycle": cycle_graph, "path": path_graph, "complete": complete_graph}
    try:
        if base in families:
            return families[base](_capped(int(arg)))
        if base == "complete_multipartite":
            sizes = [int(s) for s in arg.split(",")]
            _capped(sum(sizes))
            return complete_multipartite(sizes)
        if base == "fig1" and not arg:
            return fig1_graph()
        if base == "fig3b" and not arg:
            return fig3b_graph()
    except ValueError as exc:
        raise ValueError(f"bad fixture {name!r}: {exc}") from None
    raise ValueError(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# edge-subset combinatorics

def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], pairs: Iterable[tuple[int, int]]) -> int:
    """Merge the endpoints of every pair in `parent`; returns the merge count."""
    merges = 0
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            merges += 1
    return merges


def spanning_tree_count(g: Graph, forced: int = 0, allowed: Optional[int] = None) -> int:
    """The number of spanning trees of g that hold every edge of `forced`
    and take their other edges from the mask `allowed` (all of E by
    default); 0 if the forced edges close a cycle or no such tree exists.

    Matrix-tree theorem: contract the forced edges (union-find) and take
    the determinant of the contracted multigraph's Laplacian with the row
    and column of vertex 0's class deleted, by `_determinant`.
    """
    parent = list(range(g.n))
    if g.n == 0 or _union(parent, (g.edges[i] for i in mask_indices(forced))) < forced.bit_count():
        return 0
    rows: dict[int, int] = {}
    row = [rows.setdefault(_find(parent, v), len(rows)) for v in range(g.n)]
    lap = [[0] * len(rows) for _ in rows]
    for i in mask_indices(g.full_mask() if allowed is None else allowed):
        u, v = g.edges[i]
        a, b = row[u], row[v]
        if a != b:  # forced edges, and edges inside a class, are loops now
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    return _determinant([r[1:] for r in lap[1:]])


def spanning_tree_rank(g: Graph, tree: int, forced: int = 0) -> int:
    """The 1-based position of `tree` among the spanning trees that hold
    `forced`, in descending order of their indicator vectors, edge 0 most
    significant.  A tree before it agrees with it on the edges before some
    edge i it leaves out and takes i: one `spanning_tree_count` per such i."""
    rank, allowed = 1, g.full_mask()
    for i in mask_indices(allowed & ~tree):
        bit = 1 << i
        rank += spanning_tree_count(g, forced | (tree & (bit - 1)) | bit, allowed)
        allowed ^= bit  # left out by every later term
    return rank


def _determinant(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, overwriting `rows`: every division is exact, so each entry
    stays an integer minor of the input."""
    sign, prev = 1, 1
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            for c in range(k + 1, len(rows)):
                row[c] = (row[c] * p - f * top[c]) // prev
        prev = p
    return sign * prev


def _blocks(g: Graph, mask: int) -> list[list[int]]:
    """The blocks of the spanning subgraph with edge set `mask`, each as the
    indices of its edges.  A block is a maximal 2-connected subgraph or a
    bridge, so every edge of `mask` lies in exactly one block and the
    bridges are the one-edge blocks."""
    incidence = g._incidence
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    edges: list[int] = []  # edges met but not yet closed into a block
    blocks: list[list[int]] = []

    # iterative lowpoint DFS; parallel edges cannot occur in a simple graph.
    # A frame is (vertex, tree edge in, iterator, len(edges) before that edge).
    for root in range(g.n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(incidence[root]), 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pedge, it, mark = stack[-1]
            for w, i in it:
                if i == pedge or not mask >> i & 1:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, i, iter(incidence[w]), len(edges)))
                    edges.append(i)
                    break
                if disc[w] < disc[v]:  # a back edge, met first from below
                    edges.append(i)
                    low[v] = min(low[v], disc[w])
            else:  # every edge at v is done
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u separates v's subtree
                        blocks.append(edges[mark:])
                        del edges[mark:]
    return blocks


def _bfs(incidence: Sequence[Sequence[tuple[int, int]]], mask: int, roots: Iterable[int],
         limit: Optional[int] = None, target: Optional[int] = None) -> dict[int, int]:
    """The BFS forest over the edges of `mask`, as a dict from each vertex
    reached to its parent, in visiting order, each root mapped to itself.

    `incidence` holds (neighbour, edge index) pairs per vertex, tried in
    list order, so ascending lists give the same forest every time.  A tree
    starts at each root not yet reached; a vertex `limit` edges from its
    root is not expanded, and the walk returns as soon as it reaches
    `target`.
    """
    parent: dict[int, int] = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = root
        if root == target:
            return parent
        frontier = [root]
        depth = 0
        while frontier and (limit is None or depth < limit):
            depth += 1
            nxt = []
            for x in frontier:
                for w, i in incidence[x]:
                    if w in parent or not mask >> i & 1:
                        continue
                    parent[w] = x
                    if w == target:
                        return parent
                    nxt.append(w)
            frontier = nxt
    return parent


def _bfs_path(incidence: Sequence[Sequence[tuple[int, int]]], mask: int, u: int, v: int,
              limit: Optional[int] = None) -> Optional[list[int]]:
    """A shortest u-v path over the edges of `mask`, as its vertex list from
    u to v, read off `_bfs` from u; None if v is not within `limit` edges
    of u."""
    parent = _bfs(incidence, mask, [u], limit, v)
    if v not in parent:
        return None
    path = [v]
    while v != u:
        v = parent[v]
        path.append(v)
    path.reverse()
    return path


def _search_plan(g: Graph, keep: Iterable[int] = ()):
    """The vertex order that the frontier searches of `covers` and
    `chromatic` walk, as (order, steps).  The frontier is the list of placed
    vertices that still have an unplaced neighbour, in placement order; a
    vertex in `keep` counts one unplaced neighbour more, so it stays on the
    frontier to the end and the last frontier is `keep` in placement order.

    * `order`: greedy min-frontier: each step places, among the unplaced
      vertices next to a placed one (any unplaced vertex when there are
      none), one that leaves the fewest placed vertices with an unplaced
      neighbour, then one with the most placed neighbours, then the lowest;
    * `steps[k]`: (back, kept) over the slots of order[k]'s step, which
      number the frontier before order[k] is placed, then order[k] itself.
      `back` holds (slot, edge index, earlier vertex) for each edge from
      order[k] back into the frontier, and `kept` the slots of the next
      frontier, order[k] last if it stays on it.
    """
    n = g.n
    keep = set(keep)
    left = [g.degree(v) + (v in keep) for v in range(n)]  # unplaced neighbours
    placed = [False] * n
    order: list[int] = []
    steps = []
    frontier: list[int] = []
    near: set[int] = set()  # unplaced vertices next to a placed one
    for _ in range(n):
        best = None
        for v in near or (v for v in range(n) if not placed[v]):
            nbrs = [w for w in g.adj[v] if placed[w]]
            drops = sum(1 for w in nbrs if left[w] == 1)
            rank = (len(frontier) - drops + (left[v] > 0), -len(nbrs), v)
            if best is None or rank < best:
                best = rank
        v = best[2]
        slot = {w: s for s, w in enumerate(frontier)}
        back = [(slot[w], i, w) for w, i in g._incidence[v] if w in slot]
        placed[v] = True
        order.append(v)
        for w in g.adj[v]:
            left[w] -= 1
            if not placed[w]:
                near.add(w)
        near.discard(v)
        frontier.append(v)
        kept = [s for s, w in enumerate(frontier) if left[w] > 0]
        steps.append((back, kept))
        frontier = [frontier[s] for s in kept]
    return order, steps


def component_count(g: Graph, mask: int) -> int:
    """Components of the spanning subgraph with edge set `mask`."""
    return g.n - _union(list(range(g.n)), (g.edges[i] for i in mask_indices(mask)))


def non_bridge_edges(g: Graph, mask: int) -> int:
    """Edges of `mask` that lie on a cycle of the spanning subgraph."""
    for block in _blocks(g, mask):
        if len(block) == 1:
            mask ^= 1 << block[0]
    return mask


def enumerate_cycles(g: Graph, max_len: int, budget: int = DEFAULT_BUDGET) -> list[Cycle]:
    """All simple cycles of length <= max_len, each once, in canonical form.

    Raises BudgetExceededError if more than `budget` cycles would be listed.
    """
    if max_len < 3:
        raise ValueError("max_len must be >= 3")
    out: list[tuple[int, ...]] = []
    adj = g.adj
    seen = [False] * g.n
    # a path from its smallest vertex s, with one neighbour iterator per
    # vertex on it; each cycle is kept in the direction with path[1] < path[-1]
    for s in range(g.n):
        seen[s] = True
        path = [s]
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append(tuple(path))
                        if len(out) > budget:
                            raise BudgetExceededError("cycles", len(out), budget)
                elif w > s and not seen[w] and len(path) < max_len:
                    seen[w] = True
                    path.append(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                seen[path.pop()] = False
    out.sort(key=lambda c: (len(c), c))
    return [Cycle(c) for c in out]


def _horton_candidates(g: Graph, cut: int) -> Iterator[tuple[int, int]]:
    """(d(r, x) + d(r, y) + 1, P(r, x) + xy + P(y, r) as an edge mask) for
    every root r and edge xy whose ends a BFS from r cut at depth `cut`
    reaches, with P the paths of that BFS tree; the mask is 0 on its edges."""
    full = g.full_mask()
    for root in range(g.n):
        depth = [-1] * g.n
        path = [0] * g.n  # edge mask of the BFS path from the root
        depth[root] = 0
        for w, p in _bfs(g._incidence, full, [root], cut).items():
            if w != root:
                depth[w] = depth[p] + 1
                path[w] = path[p] | 1 << g.edge_index(p, w)
        for i, (x, y) in enumerate(g.edges):
            if depth[x] >= 0 and depth[y] >= 0:
                yield depth[x] + depth[y] + 1, path[x] ^ path[y] ^ 1 << i


def cycle_space_ranks(g: Graph, targets: dict[int, int]) -> dict[int, int]:
    """For each length l in `targets`, the rank over GF(2) of the cycles of
    length at most l.  The search stops as soon as every rank has reached
    its target, so the ranks are exact whenever one of them does not.

    Horton's candidates span these cycles: with P the paths of a BFS tree
    from a vertex r of a cycle C of length l, C is the sum of
    P(r, x) + xy + P(y, r) over its edges xy, and each term has at most
    d(r, x) + d(r, y) + 1 <= l edges.  So the BFS is cut at depth
    max(l) // 2, and a candidate joins the bases, keyed by top bit, of the
    lengths from its d(r, x) + d(r, y) + 1 up until one already spans it.
    """
    lengths = sorted(targets)
    bases: dict[int, dict[int, int]] = {length: {} for length in lengths}
    missing = sum(1 for length in lengths if targets[length] > 0)
    for first, cycle in _horton_candidates(g, max(lengths, default=0) // 2):
        if not missing:
            break
        for length in lengths:
            if length < first:
                continue
            basis = bases[length]
            while cycle and cycle.bit_length() - 1 in basis:
                cycle ^= basis[cycle.bit_length() - 1]
            if not cycle:
                break  # in the span of every longer basis too
            basis[cycle.bit_length() - 1] = cycle
            missing -= len(basis) == targets[length]
    return {length: len(bases[length]) for length in lengths}


def _bases(g: Graph, base: int, free: Sequence[int], need: int, budget: int) -> Iterator[int]:
    """The edge sets of `free` (ascending edge indices) that join the
    components of the edge mask `base`, which may hold cycles, by `need`
    merges, as edge masks without `base`.

    The walk decides the edges of `free` in turn, taking each one that
    merges two components before leaving it out, and leaves an edge out
    only while the later edges can still make the merges left, so the sets
    come in descending order of their indicator vectors, the first edge of
    `free` most significant.  With `base` a forest and `free` every other
    edge, the sets are the spanning trees that hold `base` in the order
    `spanning_tree_rank` counts.  Reaching set budget + 1 raises
    BudgetExceededError; the DP-good search walks the bases of one girth
    at a time, so its counter is named for them.
    """
    edges = g.edges
    parent = list(range(g.n))
    _union(parent, (edges[i] for i in mask_indices(base)))
    least: dict[int, int] = {}
    labels = tuple(least.setdefault(_find(parent, v), v) for v in range(g.n))
    pairs = [edges[i] for i in free]
    count = 0
    # a frame (k, labels, chosen, need): free[:k] is decided, labels[v] is
    # the least vertex of v's component (so it is also a parent list),
    # `chosen` holds the edges taken, and `need` more merges are left.  Once
    # free[k:] can make them, taking or skipping free[k] keeps that true, so
    # the inner loop reaches need == 0 before free runs out.
    stack = [(0, labels, 0, need)]
    while stack:
        k, labels, chosen, need = stack.pop()
        if _union(list(labels), pairs[k:]) < need:
            continue
        while need:
            u, v = pairs[k]
            a, b = labels[u], labels[v]
            if a != b:
                stack.append((k + 1, labels, chosen, need))  # free[k] left out, walked later
                if a > b:
                    a, b = b, a
                labels = tuple([a if x == b else x for x in labels])
                chosen |= 1 << free[k]
                need -= 1
            k += 1
        if count >= budget:
            raise BudgetExceededError("bases of one girth", count + 1, budget)
        count += 1
        yield chosen


def _require_connected(g: Graph) -> None:
    """Raise ValueError unless g is connected; the empty graph is not."""
    if component_count(g, g.full_mask()) != 1:
        raise ValueError("graph must be connected")


def bfs_tree(g: Graph, root: int = 0) -> int:
    """Edge mask of the BFS spanning tree from `root` (vertex-order ties)."""
    _require_connected(g)
    tree = _bfs(g._incidence, g.full_mask(), [root])
    return g.edge_mask((p, v) for v, p in tree.items() if v != p)
