"""Full m-fold covers in permutation form, and exact cover-coloring counts.

A cover assigns each edge (u, v), u < v, a permutation sigma of range(m):
cover vertex (u, i) is matched to (v, sigma(i)).  A transversal picks one
index per vertex and is counted when no edge's matched pair is picked.
`dp_exact` minimizes the transversal count over all tree-normalized covers,
which is the full cover space up to renaming of list vertices.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from itertools import permutations, product
from typing import Mapping, Optional, Sequence

from .errors import BudgetExceededError
from .girth import OrientedEdgeSet
from .graphs import DEFAULT_SUBSET_CAP, Graph, bfs_tree, component_vertex_sets, mask_indices

DEFAULT_NODE_BUDGET = 10**7
DEFAULT_COVER_BUDGET = 10**6


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
        if m < 1:
            raise ValueError("m must be >= 1")
        ident = tuple(range(m))
        perms = [ident] * len(g.edges)
        for key, seq in dict(data.get("perms", {})).items():
            i = int(key)
            if not (0 <= i < len(g.edges)):
                raise ValueError(f"perm for unknown edge index {i}")
            perms[i] = _check_perm(seq, m)
        return Cover(g, m, tuple(perms))


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


def _check_perm(seq: Sequence[int], m: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in seq)
    if sorted(p) != list(range(m)):
        raise ValueError(f"not a permutation of range({m}): {seq!r}")
    return p


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(q)))


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
    if m < 1:
        raise ValueError("m must be >= 1")
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    if assignment:
        for key, seq in dict(assignment).items():
            i = int(key)
            if not (0 <= i < len(g.edges)):
                raise ValueError(f"assignment for unknown edge index {i}")
            perms[i] = _check_perm(seq, m)

    tree = bfs_tree(g, root=0)  # raises for disconnected graphs

    # gauge[v]: the renaming applied to L(v); chosen so tree edges become
    # identity when the matching map is conjugated by the endpoint gauges
    gauge: list[Optional[tuple[int, ...]]] = [None] * g.n
    gauge[0] = ident
    queue = deque([0])
    while queue:
        p = queue.popleft()
        for w in g.adj[p]:
            i = g.edge_index(p, w)
            if not (tree >> i & 1) or gauge[w] is not None:
                continue
            u, v = g.edges[i]
            fwd = perms[i] if p == u else _invert(perms[i])  # p -> w matching
            gauge[w] = _compose(fwd, gauge[p])
            queue.append(w)

    normalized = []
    for i, (u, v) in enumerate(g.edges):
        gu, gv = gauge[u], gauge[v]
        assert gu is not None and gv is not None
        normalized.append(_compose(_invert(gv), _compose(perms[i], gu)))
    cov = Cover(g, m, tuple(normalized))
    return cov, sloping_report(cov)


def twisted_cover(g: Graph, estar: OrientedEdgeSet, m: int) -> Cover:
    """Cyclic-shift permutations on the oriented edges, identity elsewhere.

    An edge directed t -> h matches index q at t with q+1 (mod m) at h; the
    sloping set of the result is exactly the oriented edge set.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    ident = tuple(range(m))
    up = tuple((q + 1) % m for q in range(m))
    down = tuple((q - 1) % m for q in range(m))
    tails = dict(estar.tails)
    perms = []
    for i, (u, v) in enumerate(g.edges):
        if i in tails:
            perms.append(up if tails[i] == u else down)
        else:
            perms.append(ident)
    return Cover(g, m, tuple(perms))


# ---------------------------------------------------------------------------
# counting

def _component_order(g: Graph, comp: list[int]) -> list[int]:
    members = set(comp)
    root = max(comp, key=lambda v: (g.degree(v), -v))
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w in seen or w not in members:
                continue
            seen.add(w)
            order.append(w)
            queue.append(w)
    return order


class _NodeBudget:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("transversal search node budget exhausted")


def _count_component(g: Graph, cov: Cover, order: list[int], budget: _NodeBudget) -> int:
    m = cov.m
    pos = {v: k for k, v in enumerate(order)}
    # constraints[k]: for vertex order[k], pairs (earlier position, forbidden
    # map f) meaning choice x at the earlier vertex forbids f[x] here
    constraints: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for v in order:
        for w in g.adj[v]:
            if w not in pos or pos[w] >= pos[v]:
                continue
            i = g.edge_index(v, w)
            u1, _ = g.edges[i]
            f = cov.perms[i] if w == u1 else _invert(cov.perms[i])
            constraints[pos[v]].append((pos[w], f))

    chosen = [0] * len(order)
    total = 0

    def candidates(k: int) -> list[int]:
        banned = set()
        for j, f in constraints[k]:
            banned.add(f[chosen[j]])
        return [x for x in range(m) if x not in banned]

    # explicit stack backtracking; stack depth equals assigned prefix length
    stack: list[list[int]] = [candidates(0)]
    while stack:
        opts = stack[-1]
        if not opts:
            stack.pop()
            continue
        budget.spend()
        chosen[len(stack) - 1] = opts.pop()
        if len(stack) == len(order):
            total += 1
            continue
        stack.append(candidates(len(stack)))
    return total


def count_transversals(g: Graph, cov: Cover, node_budget: int = DEFAULT_NODE_BUDGET) -> CountReport:
    """Exact transversal count by pruned backtracking, component by component."""
    budget = _NodeBudget(node_budget)
    total = 1
    for comp in component_vertex_sets(g, g.full_mask()):
        order = _component_order(g, comp)
        total *= _count_component(g, cov, order, budget)
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
    sub: list[list[int]] = [[] for _ in range(g.n)]
    for i in mask_indices(edge_mask):
        u, v = g.edges[i]
        sub[u].append(i)
        sub[v].append(i)

    seen = [False] * g.n
    ident = tuple(range(m))
    total = 1
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        # rho[v]: root index j forces index rho[v][j] at v
        rho: dict[int, tuple[int, ...]] = {root: ident}
        used: set[int] = set()
        closing: list[int] = []  # edges whose cycle constraint must be checked
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for i in sub[v]:
                if i in used:
                    continue
                used.add(i)
                a, b = g.edges[i]
                w = b if v == a else a
                if w in rho:
                    closing.append(i)
                    continue
                seen[w] = True
                fwd = cov.perms[i] if v == a else _invert(cov.perms[i])
                rho[w] = _compose(fwd, rho[v])
                queue.append(w)
        good = 0
        for j in range(m):
            ok = True
            for i in closing:
                a, b = g.edges[i]
                if cov.perms[i][rho[a][j]] != rho[b][j]:
                    ok = False
                    break
            if ok:
                good += 1
        total *= good
        if total == 0:
            return 0
    return total


def count_incl_excl(g: Graph, cov: Cover, cap: int = DEFAULT_SUBSET_CAP) -> CountReport:
    """Transversal count as the alternating sum over edge subsets."""
    ne = len(g.edges)
    if ne > cap:
        raise BudgetExceededError(
            f"2^{ne} subset terms exceed the cap of 2^{cap}",
            attempted=2**ne,
            budget=2**cap,
        )
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

def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _assignment_cover(g: Graph, m: int, free: list[int], combo) -> Cover:
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    for i, sigma in zip(free, combo):
        perms[i] = sigma
    return Cover(g, m, tuple(perms))


def dp_exact(g: Graph, m: int, budget: int = DEFAULT_COVER_BUDGET,
             node_budget: int = DEFAULT_NODE_BUDGET, jobs: int = 1) -> CountReport:
    """Minimum transversal count over all tree-normalized m-fold covers.

    Fixes one BFS spanning tree with identity permutations and enumerates
    every permutation assignment on the q non-tree edges; normalization
    loses no covers, so the minimum is the DP color function value at m.
    Ties are broken toward the lexicographically smallest assignment.
    The sweep is cut into one chunk per permutation of the first non-tree
    edge; with `jobs` > 1 the chunks run on up to that many processes,
    never more than there are chunks or CPUs.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tree = bfs_tree(g, root=0)  # raises for disconnected graphs
    free = [i for i in range(len(g.edges)) if not (tree >> i & 1)]
    q = len(free)
    space = _factorial(m) ** q
    if space > budget:
        raise BudgetExceededError(
            f"(m!)^q = {space} covers exceed the budget of {budget}",
            attempted=space,
            budget=budget,
        )

    heads = [(p,) for p in permutations(range(m))] if q else [()]
    chunks = [(g, m, free, node_budget, head) for head in heads]
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the executor module costs CLI start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_dp_chunk, chunks))
    else:
        results = list(map(_dp_chunk, chunks))

    # chunks are in lexicographic order, so the first strict minimum is the
    # lexicographically smallest assignment
    best, best_combo, minimizers = results[0]
    for value, combo, count in results[1:]:
        if value < best:
            best, best_combo, minimizers = value, combo, count
        elif value == best:
            minimizers += count
    argmin = _assignment_cover(g, m, free, best_combo)
    return CountReport(best, "backtracking", cover=argmin, minimizers=minimizers)


def _dp_chunk(args):
    """Sweep the assignments that start with `head`: (min, argmin, ties)."""
    g, m, free, node_budget, head = args
    # a tree has nothing to sweep, and its m is not bounded by the cover budget
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
