"""Full m-fold covers in permutation form, and exact cover-coloring counts.

A cover assigns each edge (u, v), u < v, a permutation sigma of range(m):
cover vertex (u, i) is matched to (v, sigma(i)).  A transversal picks one
index per vertex and is counted when no edge's matched pair is picked.
`dp_exact` minimizes the transversal count over all tree-normalized covers,
which is the full cover space up to renaming of list vertices.  It counts one
cover per orbit of the first two non-tree edges under simultaneous
conjugation, weighted by the orbit size.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product
from typing import Mapping, Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .girth import OrientedEdgeSet
from .graphs import DEFAULT_SUBSET_CAP, Graph, _bfs_forest, _require_connected, bfs_tree, mask_indices

DEFAULT_NODE_BUDGET = 10**7


@dataclass(frozen=True)
class Cover:
    graph: Graph
    m: int
    perms: tuple[tuple[int, ...], ...]

    def is_identity(self, edge_index: int) -> bool:
        return self.perms[edge_index] == tuple(range(self.m))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "perms": {
                str(i): list(p)
                for i, p in enumerate(self.perms)
                if not self.is_identity(i)
            },
        }

    @staticmethod
    def from_json(g: Graph, data: dict) -> "Cover":
        m = int(data["m"])
        return Cover(g, m, tuple(_assigned_perms(g, m, data.get("perms", {}))))


@dataclass(frozen=True)
class SlopingReport:
    sloping: int  # edge mask of non-identity edges after normalization
    x_sizes: tuple[tuple[int, int], ...]  # (edge index, |X_e|)
    y_sets: tuple[tuple[int, frozenset[int]], ...]

    def x_size(self, e: int) -> int:
        return dict(self.x_sizes).get(e, 0)

    def y_set(self, e: int) -> frozenset[int]:
        return dict(self.y_sets).get(e, frozenset())

    def to_json(self) -> dict:
        return {
            "sloping": sorted(mask_indices(self.sloping)),
            "x_sizes": {str(e): s for e, s in self.x_sizes},
            "y_sets": {str(e): sorted(ys) for e, ys in self.y_sets},
        }


@dataclass(frozen=True)
class CountReport:
    value: int
    method: str  # "backtracking" | "inclusion-exclusion"
    cover: Optional[Cover] = None
    minimizers: Optional[int] = None

    def to_json(self) -> dict:
        out = {"value": str(self.value), "method": self.method}
        if self.cover is not None:
            out["cover"] = self.cover.to_json()
        if self.minimizers is not None:
            out["minimizers"] = self.minimizers
        return out


def _assigned_perms(g: Graph, m: int,
                    assignment: Mapping[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """One permutation per edge, identity where `assignment` (keys: edge indices
    or their strings) gives none; raises ValueError on any invalid input."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    for key, seq in dict(assignment).items():
        i = int(key)
        if not (0 <= i < len(g.edges)):
            raise ValueError(f"permutation for unknown edge index {i}")
        p = tuple(int(x) for x in seq)
        if tuple(sorted(p)) != ident:
            raise ValueError(f"not a permutation of range({m}): {seq!r}")
        perms[i] = p
    return perms


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple([p[x] for x in q])


def _along(g: Graph, perms: Sequence[tuple[int, ...]], i: int, v: int) -> tuple[int, ...]:
    """The matching of edge i read from endpoint v: index x in L(v) is
    matched to index f[x] at the other end.  perms[i] is read from the
    smaller endpoint."""
    return perms[i] if v == g.edges[i][0] else _invert(perms[i])


def canonical_cover(g: Graph, m: int) -> Cover:
    """The all-identity cover; its transversal count is P(G, m)."""
    ident = tuple(range(m))
    return Cover(g, m, (ident,) * len(g.edges))


def sloping_report(cov: Cover) -> SlopingReport:
    sloping = 0
    x_sizes = []
    y_sets = []
    for i, p in enumerate(cov.perms):
        support = frozenset(q for q in range(cov.m) if p[q] != q)
        if support:
            sloping |= 1 << i
            x_sizes.append((i, len(support)))
            y_sets.append((i, support))
    return SlopingReport(sloping, tuple(x_sizes), tuple(y_sets))


def build_cover(g: Graph, m: int, assignment: Optional[Mapping[int, Sequence[int]]] = None):
    """Normalize a permutation assignment so a BFS tree carries identities.

    Returns (Cover, SlopingReport).  Renaming the fibre of each vertex is an
    isomorphism of the cover graph, so counts are unchanged; the normalized
    form concentrates all the twist on non-tree edges.
    """
    perms = _assigned_perms(g, m, assignment or {})
    _require_connected(g)

    # gauge[v]: the renaming applied to L(v), composed along the BFS tree
    # path from vertex 0 so tree edges become identity when the matching
    # map is conjugated by the endpoint gauges
    gauge = [tuple(range(m))] * g.n
    for v, p, i in _bfs_forest(g, g.full_mask(), [0])[1:]:
        gauge[v] = _compose(_along(g, perms, i, p), gauge[p])

    normalized = []
    for i, (u, v) in enumerate(g.edges):
        normalized.append(_compose(_invert(gauge[v]), _compose(perms[i], gauge[u])))
    cov = Cover(g, m, tuple(normalized))
    return cov, sloping_report(cov)


def twisted_cover(g: Graph, estar: OrientedEdgeSet, m: int) -> Cover:
    """Cyclic-shift permutations on the oriented edges, identity elsewhere.

    An edge directed t -> h matches index q at t with q+1 (mod m) at h; the
    sloping set of the result is exactly the oriented edge set.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    up = tuple((q + 1) % m for q in range(m))
    down = tuple((q - 1) % m for q in range(m))
    shifts = {i: up if t == g.edges[i][0] else down for i, t in estar.tails}
    return Cover(g, m, tuple(_assigned_perms(g, m, shifts)))


# ---------------------------------------------------------------------------
# counting

def _count_component(g: Graph, cov: Cover, order: list[int],
                     nodes: int, node_budget: int) -> tuple[int, int]:
    """Transversals of the component searched in `order`, and the node count
    `nodes` plus the nodes this search generated."""
    m = cov.m
    pos = {v: k for k, v in enumerate(order)}
    # constraints[k]: for vertex order[k], pairs (earlier position, forbidden
    # map f) meaning choice x at the earlier vertex forbids f[x] here
    constraints: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for k, v in enumerate(order):
        for w, i in g._incidence[v]:
            if pos[w] < k:
                constraints[k].append((pos[w], _along(g, cov.perms, i, w)))

    chosen = [0] * len(order)
    total = 0

    def candidates(k: int) -> list[int]:
        # every candidate becomes a search node, so it is charged here
        nonlocal nodes
        banned = {f[chosen[j]] for j, f in constraints[k]}
        opts = [x for x in range(m) if x not in banned]
        nodes += len(opts)
        if nodes > node_budget:
            raise BudgetExceededError("transversal search nodes", nodes, node_budget)
        return opts

    # explicit stack backtracking; stack depth equals assigned prefix length.
    # The last vertex's candidates are leaves: they are counted, not visited.
    last = len(order) - 1
    if last == 0:
        total = len(candidates(0))
        return total, nodes
    stack: list[list[int]] = [candidates(0)]
    while stack:
        opts = stack[-1]
        if not opts:
            stack.pop()
            continue
        chosen[len(stack) - 1] = opts.pop()
        if len(stack) == last:
            total += len(candidates(last))
        else:
            stack.append(candidates(len(stack)))
    return total, nodes


def count_transversals(g: Graph, cov: Cover, node_budget: int = DEFAULT_NODE_BUDGET) -> CountReport:
    """Exact transversal count by pruned backtracking, component by component,
    each searched in BFS order from its highest-degree vertex.  Raises
    BudgetExceededError once the search generates more than `node_budget` nodes."""
    roots = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    orders: list[list[int]] = []
    for v, p, _ in _bfs_forest(g, g.full_mask(), roots):
        if p < 0:
            orders.append([])
        orders[-1].append(v)
    orders.sort(key=min)
    total = 1
    nodes = 0
    for order in orders:
        count, nodes = _count_component(g, cov, order, nodes, node_budget)
        total *= count
        if total == 0:
            break
    return CountReport(total, "backtracking")


def matched_selection_count(g: Graph, cov: Cover, edge_mask: int) -> int:
    """Selections (one index per vertex of G) matching every edge in the mask.

    Per component of the spanning subgraph this is the number of fibre
    indices consistent around every cycle; isolated vertices contribute a
    factor m.
    """
    m = cov.m
    perms = cov.perms
    # rho[v]: index j at the root of v's BFS tree forces index rho[v][j] at v
    rho = [tuple(range(m))] * g.n
    root = list(range(g.n))
    forest = 0
    for v, p, i in _bfs_forest(g, edge_mask, range(g.n)):
        if p >= 0:
            rho[v] = _compose(_along(g, perms, i, p), rho[p])
            root[v] = root[p]
            forest |= 1 << i
    # good[r]: indices at tree root r that every closing edge so far keeps
    good: list[Sequence[int]] = [range(m)] * g.n
    for i in mask_indices(edge_mask & ~forest):
        a, b = g.edges[i]
        good[root[a]] = [j for j in good[root[a]] if perms[i][rho[a][j]] == rho[b][j]]
    return math.prod(len(good[r]) for r in range(g.n) if root[r] == r)


def count_incl_excl(g: Graph, cov: Cover, cap: int = DEFAULT_SUBSET_CAP) -> CountReport:
    """Transversal count as the alternating sum over edge subsets."""
    ne = len(g.edges)
    if ne > cap:
        raise BudgetExceededError("2^|E| subset terms", 2**ne, 2**cap)
    total = 0
    for mask in range(1 << ne):
        term = matched_selection_count(g, cov, mask)
        if mask.bit_count() % 2 == 0:
            total += term
        else:
            total -= term
    return CountReport(total, "inclusion-exclusion")


# ---------------------------------------------------------------------------
# exact DP color function at desk scale

def _assignment_cover(g: Graph, m: int, free: list[int], combo) -> Cover:
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    for i, sigma in zip(free, combo):
        perms[i] = sigma
    return Cover(g, m, tuple(perms))


def dp_exact(g: Graph, m: int, budget: int = DEFAULT_BUDGET,
             node_budget: int = DEFAULT_NODE_BUDGET, jobs: int = 1) -> CountReport:
    """Minimum transversal count over all tree-normalized m-fold covers.

    Fixes one BFS spanning tree with identity permutations and sweeps every
    permutation assignment on the q non-tree edges; normalization loses no
    covers, so the minimum is the DP color function value at m.  Renaming
    every fibre by the same permutation conjugates each edge's permutation
    and keeps the count, so the first two non-tree edges run only over
    lexicographically smallest orbit representatives ("heads", see
    `_orbit_heads`), each weighted by its orbit size; `minimizers` is still a
    count over all (m!)^q assignments.  Ties are broken toward the
    lexicographically smallest assignment.  The sweep is cut into one chunk
    per head; with `jobs` > 1 the chunks run on up to that many processes,
    never more than there are chunks or CPUs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tree = bfs_tree(g, root=0)  # raises for disconnected graphs
    free = [i for i in range(len(g.edges)) if not (tree >> i & 1)]
    q = len(free)
    space = math.factorial(m) ** q
    if space > budget:
        raise BudgetExceededError("(m!)^q covers", space, budget)

    heads = _orbit_heads(m, q)
    chunks = [(g, m, free, node_budget, head) for head, _ in heads]
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the executor module costs CLI start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_dp_chunk, chunks))
    else:
        results = list(map(_dp_chunk, chunks))

    # heads are in lexicographic order and the lexicographically smallest
    # minimizer starts with a head, so the first strict minimum is it
    best = None
    for (_, weight), (value, combo, ties) in zip(heads, results):
        if best is None or value < best:
            best, best_combo, minimizers = value, combo, weight * ties
        elif value == best:
            minimizers += weight * ties
    argmin = _assignment_cover(g, m, free, best_combo)
    return CountReport(best, "backtracking", cover=argmin, minimizers=minimizers)


def _partitions(m: int, top: int):
    """The partitions of m into parts of at most `top`, parts non-increasing."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, top), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _orbit_heads(m: int, q: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Orbit representatives of the first min(q, 2) edge permutations under
    simultaneous conjugation, as (head, orbit size) in lexicographic order.

    The first permutation runs over the lexicographically smallest element of
    each conjugacy class: fixed points first, then cycles in increasing
    length, each on consecutive indices.  The second runs over the smallest
    element of each orbit of that head's centralizer.  The smallest
    assignment of any orbit starts with its head, which keeps the argmin.
    """
    if q == 0:
        return [((), 1)]
    classes = []
    for lengths in _partitions(m, m):
        c: list[int] = []
        for k in reversed(lengths):
            start = len(c)
            c.extend(range(start + 1, start + k))
            c.append(start)
        z = math.prod(k ** a * math.factorial(a) for k, a in Counter(lengths).items())
        classes.append((tuple(c), math.factorial(m) // z))
    classes.sort()
    if q == 1:
        return [((c,), size) for c, size in classes]

    perms = list(permutations(range(m)))
    heads = []
    for c, size in classes:
        centralizer = [p for p in perms if _compose(p, c) == _compose(c, p)]
        seen: set[tuple[int, ...]] = set()
        for s in perms:  # lexicographic, so each orbit is met at its smallest element
            if s in seen:
                continue
            orbit = {_compose(p, _compose(s, _invert(p))) for p in centralizer}
            seen |= orbit
            heads.append(((c, s), size * len(orbit)))
    return heads


def _dp_chunk(args):
    """Sweep the assignments that start with `head`: (min, argmin, ties)."""
    g, m, free, node_budget, head = args
    # with every free edge in the head there is nothing left to sweep, and
    # with q <= 1 the cover budget allows an m too large to list S_m
    perm_list = list(permutations(range(m))) if len(head) < len(free) else []
    best = None
    best_combo = None
    minimizers = 0
    for rest in product(perm_list, repeat=len(free) - len(head)):
        combo = head + rest
        value = count_transversals(g, _assignment_cover(g, m, free, combo), node_budget).value
        if best is None or value < best:
            best = value
            best_combo = combo
            minimizers = 1
        elif value == best:
            minimizers += 1
    return best, best_combo, minimizers
