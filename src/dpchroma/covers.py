"""Full m-fold covers in permutation form, and exact cover-coloring counts.

A cover assigns each edge (u, v), u < v, a permutation sigma of range(m):
cover vertex (u, i) is matched to (v, sigma(i)).  A transversal picks one
index per vertex and is counted when no edge's matched pair is picked.
`count_transversals`, the library's one route to that count, counts them
by one forward pass that keeps, per value of the frontier (the placed
vertices with an unplaced neighbour), the number of prefixes giving it,
so its cost follows the width of the graph rather than the size of the
count.  On a cyclic cover, one whose every matching is a rotation
x -> x + s (mod m), as in shift covers, the canonical cover and every
cover with m <= 2, adding one constant to every index is an automorphism,
so a state is a class of frontier values up to a common shift.
`dp_exact` minimizes the transversal count over all tree-normalized covers,
which is the full cover space up to renaming of list vertices.  It takes one
assignment of all but the last free edge per orbit under simultaneous
conjugation, weighted by the orbit size, and reads every permutation on the
last edge off one pass: the pass keeps both ends of that edge on the
frontier, so its last states count the transversals per pair of their
values, and the best permutation is a maximum-weight matching on them.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .girth import OrientedEdgeSet
from .graphs import Graph, _bfs, _require_connected, _search_plan, bfs_tree

DEFAULT_NODE_BUDGET = 10**7
# largest fold count accepted: one edge alone takes m^2 search nodes, so no
# count with an edge finishes above m of about 3,200 under the default budget
MAX_FOLD = 100_000


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
    def from_json(g: Graph, data) -> "Cover":
        """Read {"m": m, "perms": {edge index: [images]}} with integer m and
        images; raises ValueError on any other shape."""
        perms = data.get("perms", {}) if isinstance(data, dict) else None
        if not (isinstance(perms, dict) and type(data.get("m")) is int
                and all(isinstance(p, list) for p in perms.values())):
            raise ValueError('a cover is {"m": integer, "perms": {edge index: [integers]}}')
        return Cover(g, data["m"], tuple(_assigned_perms(g, data["m"], perms)))


@dataclass(frozen=True)
class SlopingReport:
    # each sloping (non-identity) edge, in edge order, to the indices its
    # permutation moves
    supports: dict[int, frozenset[int]]

    @property
    def sloping(self) -> int:
        """The edge mask of the sloping edges."""
        return sum(1 << e for e in self.supports)

    def to_json(self) -> dict:
        return {
            "sloping": list(self.supports),
            "x_sizes": {str(e): len(ys) for e, ys in self.supports.items()},
            "y_sets": {str(e): sorted(ys) for e, ys in self.supports.items()},
        }


@dataclass(frozen=True)
class CountReport:
    value: int
    cover: Optional[Cover] = None
    minimizers: Optional[int] = None

    def to_json(self) -> dict:
        out = {"value": str(self.value)}
        if self.cover is not None:
            out["cover"] = self.cover.to_json()
        if self.minimizers is not None:
            out["minimizers"] = self.minimizers
        return out


def _check_fold(m: int, least: int = 1) -> None:
    """Reject a fold count below `least` or above MAX_FOLD, before anything
    of size m is built."""
    if m < least:
        raise ValueError(f"m must be >= {least}")
    if m > MAX_FOLD:
        raise ValueError(f"m = {m} is above the limit of {MAX_FOLD}")


def _assigned_perms(g: Graph, m: int,
                    assignment: Mapping[int, Sequence[int]]) -> list[tuple[int, ...]]:
    """One permutation per edge, identity where `assignment` (keys: edge indices
    or their strings) gives none; raises ValueError on any invalid input,
    two keys naming one edge (such as "1" and "01") included."""
    _check_fold(m)
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    given: set[int] = set()
    for key, seq in dict(assignment).items():
        i = int(key)
        if not (0 <= i < len(g.edges)):
            raise ValueError(f"permutation for unknown edge index {i}")
        if i in given:
            raise ValueError(f"two permutations for edge index {i}")
        given.add(i)
        p = tuple(seq)
        if not all(type(x) is int for x in p) or tuple(sorted(p)) != ident:
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
    _check_fold(m)
    ident = tuple(range(m))
    return Cover(g, m, (ident,) * len(g.edges))


def sloping_report(cov: Cover) -> SlopingReport:
    supports = (frozenset(q for q in range(cov.m) if p[q] != q) for p in cov.perms)
    return SlopingReport({i: support for i, support in enumerate(supports) if support})


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
    for v, p in _bfs(g._incidence, g.full_mask(), 0).items():
        if v != p:
            gauge[v] = _compose(_along(g, perms, g.edge_index(p, v), p), gauge[p])

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
    _check_fold(m, least=2)
    up = tuple((q + 1) % m for q in range(m))
    down = tuple((q - 1) % m for q in range(m))
    shifts = {i: up if t == g.edges[i][0] else down for i, t in estar.tails}
    return Cover(g, m, tuple(_assigned_perms(g, m, shifts)))


# ---------------------------------------------------------------------------
# counting

def _rotations(cov: Cover) -> bool:
    """Whether every matching of `cov` is a rotation x -> x + s (mod m)."""
    ident = tuple(range(cov.m))
    return cov.m > 0 and all(p == ident[p[0]:] + ident[:p[0]] for p in cov.perms)


def _count(cov: Cover, keep: tuple[int, ...], node_budget: int) -> dict[tuple[int, ...], int]:
    """The last states of a forward pass along `_search_plan(cov.graph, keep)`.

    `states` maps the frontier values to the number of prefixes that give
    them, or on a cover of rotations the values minus the first of them to
    the total over that shift class.  The transversals are the count of the
    empty frontier (); a plan that keeps vertices to the end leaves their
    values instead.  Every candidate of every state is a node; more than
    `node_budget` of them raise BudgetExceededError.
    """
    g, m = cov.graph, cov.m
    _, steps = _search_plan(g, keep)
    cyclic = _rotations(cov)
    states = {(): 1}
    width = nodes = 0  # width: the frontier size before the vertex placed
    for back, kept in steps:
        # value x in slot s forbids f[x] at the new vertex
        maps = [(s, _along(g, cov.perms, i, w)) for s, i, w in back]
        grow = width in kept
        old = kept[:-1] if grow else kept
        width = len(kept)
        out: dict[tuple[int, ...], int] = {}
        for vals, count in states.items():
            banned = {f[vals[s]] for s, f in maps}
            nodes += m - len(banned)
            if nodes > node_budget:
                raise BudgetExceededError("transversal search nodes", nodes, node_budget)
            z = vals[old[0]] if cyclic and old else 0
            head = tuple([(vals[s] - z) % m for s in old])
            if grow and (old or not cyclic):
                for x in range(m):
                    if x not in banned:
                        key = head + ((x - z) % m,)
                        out[key] = out.get(key, 0) + count
            else:
                # every candidate lands in one state: the new vertex leaves
                # the frontier, or alone on it starts the shift class (0,)
                key = (0,) if grow else head
                out[key] = out.get(key, 0) + count * (m - len(banned))
        states = out
    return states


def count_transversals(cov: Cover, node_budget: int = DEFAULT_NODE_BUDGET) -> CountReport:
    """Exact transversal count of `cov` by a forward pass over frontier values.

    The pass places the vertices in the greedy min-frontier order of
    `_search_plan` and keeps the number of prefixes per value of the
    frontier (the placed vertices with an unplaced neighbour), which is all
    that the rest of the count reads.  Components multiply, and the pass
    costs about n * m^(w+1) for frontier width w, not the size of the count.

    When every matching of `cov` is a rotation (p(x) = x + p(0) mod m: the
    shift covers of `twisted_cover`, the canonical cover, any cover with
    m <= 2), adding c to every index maps transversals to transversals, so a
    state is a class of frontier values up to a common shift, about m^(w-1)
    of them per step instead of m^w.  Raises ValueError unless `cov` holds
    one permutation of range(m) per edge of its graph, 1 <= m <= MAX_FOLD,
    as `Cover.from_json` requires; raises BudgetExceededError once it
    generates more than `node_budget` candidate values.
    """
    edges = len(cov.graph.edges)
    if len(cov.perms) != edges:
        raise ValueError(f"{len(cov.perms)} permutations for a graph of {edges} edges")
    _assigned_perms(cov.graph, cov.m, dict(enumerate(cov.perms)))
    return CountReport(_count(cov, (), node_budget).get((), 0))


def _pair_counts(cov: Cover, u: int, v: int) -> list[list[int]]:
    """M[i][j], the transversals of `cov` with x_u = i and x_v = j, read off
    the last states of one pass that keeps u and v, under DEFAULT_NODE_BUDGET.

    A shift class (0, d) of a cover of rotations splits evenly over its m
    shifts, since adding one constant to every index is an automorphism.
    """
    m = cov.m
    order, _ = _search_plan(cov.graph, (u, v))
    flip = order.index(u) > order.index(v)  # the last frontier is (v, u)
    shifts = range(m) if _rotations(cov) else (0,)
    pairs = [[0] * m for _ in range(m)]
    for key, count in _count(cov, (u, v), DEFAULT_NODE_BUDGET).items():
        for z in shifts:
            a, b = [(x + z) % m for x in key]
            i, j = (b, a) if flip else (a, b)
            pairs[i][j] += count // len(shifts)
    return pairs


# ---------------------------------------------------------------------------
# exact DP color function at desk scale

def _assignment_cover(g: Graph, m: int, free: list[int], combo) -> Cover:
    ident = tuple(range(m))
    perms = [ident] * len(g.edges)
    for i, sigma in zip(free, combo):
        perms[i] = sigma
    return Cover(g, m, tuple(perms))


# the sweep's work: one subset DP over 2^m column sets per orbit of all but
# the last free edge, plus the m! permutations `_orbit_walk` lists when q >= 3
SWEEP_COUNTER = "prefix orbits x 2^m column sets + listed permutations"
# the least sweep work that starts worker processes.  A pool of two costs
# 25-30 ms to import, fork and join, and a unit of work 7-63 us by the width
# of the pass (K5 and Petersen at m = 3, both 11,150 units), so every sweep
# measured below it ran slower on a pool (K4 at m = 5: 5,272 units, 39 ms in
# this process, 66 ms on two workers) and one under it runs here for at most
# about 0.5 s at the widths measured; the count ignores the cost of a pass,
# so a change to the pass should measure it again
POOL_WORK = 8192


def dp_exact(g: Graph, m: int, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> CountReport:
    """Minimum transversal count over all tree-normalized m-fold covers.

    Fixes one BFS spanning tree with identity permutations and sweeps the
    permutation assignments on the q non-tree edges; normalization loses no
    covers, so the minimum is the DP color function value at m.  Renaming
    every fibre by the same permutation conjugates each edge's permutation
    and keeps the count, so one assignment of the first q - 1 free edges per
    orbit is taken, weighted by the orbit size: the first over conjugacy
    class heads (`_orbit_heads`), the others over stabilizer orbits
    (`_orbit_walk`).  The last free edge e = uv is read off one pass per
    such prefix: with M[i][j] the transversals of the cover without e that
    have x_u = i and x_v = j (`_pair_counts`), sigma on e counts
    sum(M) - sum_i M[i][sigma(i)], so the best sigma is a maximum-weight
    matching on M (`_best_matching`).  `minimizers` still counts all
    (m!)^q assignments, and ties go to the lexicographically smallest.  The
    search plan is built once per sweep and kept in the memo of the graph
    without e, which every chunk carries, to a worker process too.  The
    sweep has one chunk per head; with `jobs` > 1 the chunks run on up to
    that many processes, never more than there are chunks or CPUs this
    process may use, but only when the work of `_check_sweep` reaches
    POOL_WORK: a smaller sweep runs in this process whatever `jobs` is.
    Raises BudgetExceededError when that work passes `budget`, or when one
    count passes DEFAULT_NODE_BUDGET search nodes.
    """
    _check_fold(m)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tree = bfs_tree(g, root=0)  # raises for disconnected graphs
    free = [i for i in range(len(g.edges)) if not (tree >> i & 1)]
    q = len(free)
    work = _check_sweep(m, q, budget)
    if not free:
        cov = canonical_cover(g, m)
        return CountReport(count_transversals(cov).value, cover=cov, minimizers=1)

    e = free[-1]
    rest = Graph(g.n, g.edges[:e] + g.edges[e + 1:])  # free[:-1] keep their indices
    heads = _orbit_heads(m, q - 1)
    _search_plan(rest, keep=g.edges[e])  # built here, and read from rest's memo by each chunk
    chunks = [(rest, m, free, g.edges[e], head) for head, _ in heads]
    workers = min(jobs, len(chunks), _usable_cpus())
    if workers > 1 and work >= POOL_WORK:
        # imported here: the executor module costs CLI start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_dp_chunk, chunks))
    else:
        results = list(map(_dp_chunk, chunks))

    # heads are in lexicographic order and the lexicographically smallest
    # minimizer starts with a head, so the first strict minimum is it
    best, best_combo, minimizers = _least(
        (value, combo, weight * ties) for (_, weight), (value, combo, ties) in zip(heads, results))
    argmin = _assignment_cover(g, m, free, best_combo)
    return CountReport(best, cover=argmin, minimizers=minimizers)


def _usable_cpus() -> int:
    """The CPUs this process may run on: `os.process_cpu_count` where it
    exists (Python 3.13+), else the size of the affinity mask, else the
    CPUs of the host."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_sweep(m: int, q: int, budget: int) -> int:
    """The work of the sweep of `dp_exact`; raises BudgetExceededError if it
    would pass `budget`, before anything of its size is built.

    Its work is 1 for a tree, else 2^m column sets per orbit of the first
    q - 1 free edges, Burnside's sum over the classes of S_m of
    (m! / class size)^(q - 2) (1 when q = 1), plus m! when q >= 3 lists S_m.
    Each factor stops growing once past max(budget, 2^64), since in full it
    can have millions of digits.
    """
    if q == 0:
        return 1
    cap = max(budget, 2**64)
    columns = 1
    for _ in range(m):
        columns *= 2
        if columns > cap:
            break
    listed = 0
    if q >= 3:
        listed = 1
        for k in range(2, m + 1):
            listed *= k
            if listed > cap:
                break
    orbits = 1
    if q >= 2 and columns + listed <= cap:
        orbits = 0
        for _, z in _cycle_types(m):
            orbits += z ** min(q - 2, cap.bit_length())
            if orbits * columns > cap:
                break
    work = orbits * columns + listed
    if work > budget:
        raise BudgetExceededError(SWEEP_COUNTER, work, budget)
    return work


def _best_matching(pairs: list[list[int]]) -> tuple[int, int, tuple[int, ...]]:
    """The most that sum_i pairs[i][sigma(i)] reaches over the permutations
    sigma of range(m), how many sigma reach it, and the lexicographically
    first of them, by one DP over the 2^m sets of columns that rows 0, 1, ...
    take: best[S] is the most that the later rows add on the other columns.
    """
    m = len(pairs)
    full = (1 << m) - 1
    best = [0] * (full + 1)
    ways = [0] * (full + 1)
    ways[full] = 1
    for taken in range(full - 1, -1, -1):
        row = pairs[taken.bit_count()]
        top = None
        for j in range(m):
            if not taken >> j & 1:
                t = row[j] + best[taken | 1 << j]
                if top is None or t > top:
                    top, tied = t, ways[taken | 1 << j]
                elif t == top:
                    tied += ways[taken | 1 << j]
        best[taken], ways[taken] = top, tied
    sigma: list[int] = []
    taken = 0
    for row in pairs:  # the first column that still reaches the best
        j = next(j for j in range(m) if not taken >> j & 1
                 and row[j] + best[taken | 1 << j] == best[taken])
        sigma.append(j)
        taken |= 1 << j
    return best[0], ways[0], tuple(sigma)


def _least(results):
    """The least value of (value, assignment, weight) triples, with the first
    assignment that reaches it and the summed weight of all that do."""
    best = None
    for value, combo, weight in results:
        if best is None or value < best[0]:
            best = [value, combo, weight]
        elif value == best[0]:
            best[2] += weight
    return best


def _partitions(m: int, top: int):
    """The partitions of m into parts of at most `top`, parts non-increasing."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, top), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _cycle_types(m: int):
    """The conjugacy classes of S_m, as (cycle lengths, non-increasing; the
    order of the centralizer of one class member)."""
    for lengths in _partitions(m, m):
        yield lengths, math.prod(k ** a * math.factorial(a) for k, a in Counter(lengths).items())


def _orbit_heads(m: int, q: int) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """The smallest element of each conjugacy class of S_m, as ((head,),
    class size) in lexicographic order, or [((), 1)] for q = 0 free edges.

    It puts the fixed points first, then the cycles in increasing length,
    each on consecutive indices, so S_m is never listed.  The smallest
    assignment of any orbit starts with its head, which keeps the argmin.
    """
    if q == 0:
        return [((), 1)]
    classes = []
    for lengths, z in _cycle_types(m):
        c: list[int] = []
        for k in reversed(lengths):
            start = len(c)
            c.extend(range(start + 1, start + k))
            c.append(start)
        classes.append(((tuple(c),), math.factorial(m) // z))
    return sorted(classes)


def _orbit_walk(perms, head, depth):
    """The smallest assignment of each orbit of `depth` permutations from
    `perms` (S_m, lexicographic) that start with `head`, as (assignment,
    weight) in lexicographic order.  Each further edge takes the smallest
    element of each orbit of the stabilizer of the choices so far (the
    permutations commuting with all of them), weighted by the orbit size.
    """
    group = [p for p in perms if all(_compose(p, c) == _compose(c, p) for c in head)]
    stack = [(head, 1, group)]  # (assignment, weight, stabilizer), smallest on top
    while stack:
        chosen, weight, group = stack.pop()
        if len(chosen) == depth:
            yield chosen, weight
            continue
        last = len(chosen) + 1 == depth  # a leaf needs no stabilizer
        seen: set[tuple[int, ...]] = set()
        children = []
        for s in perms:  # lexicographic, so each orbit is met at its smallest element
            if s not in seen:
                orbit = {_compose(p, _compose(s, _invert(p))) for p in group}
                seen |= orbit
                stab = None if last else [p for p in group if _compose(p, s) == _compose(s, p)]
                children.append((chosen + (s,), weight * len(orbit), stab))
        stack.extend(reversed(children))


def _dp_chunk(args):
    """Count one prefix per orbit of the first q - 1 free edges that starts
    with `head`, each with every permutation on the last one: (min, argmin,
    ties), ties weighted by orbit size over the size of the head's class."""
    rest, m, free, (u, v), head = args
    depth = len(free) - 1
    # with q <= 2 the walk has nothing to choose, and the sweep budget allows
    # an m too large to list S_m
    perms = list(permutations(range(m))) if len(head) < depth else []
    results = []
    for combo, weight in _orbit_walk(perms, head, depth):
        pairs = _pair_counts(_assignment_cover(rest, m, free, combo), u, v)
        top, tied, sigma = _best_matching(pairs)
        results.append((sum(map(sum, pairs)) - top, combo + (sigma,), weight * tied))
    return _least(results)
