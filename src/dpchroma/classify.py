"""Sufficient-condition checkers with machine-checkable certificates.

Every checker returns a ClassifierVerdict.  A satisfied verdict carries a
certificate an independent verifier can re-check; a violated verdict carries
a witness for the failed clause.  A budget caps the work a search does,
never the size of an answer it has decided: a search that runs over its
budget raises BudgetExceededError, and only `classify` turns that into an
inconclusive verdict; the one other inconclusive verdict is the quad
search's, whose candidates prove nothing when none of them fits.  The
implied membership is always that of a sufficient condition, never an
exact classification.

The DP-good search first runs two tests that need no tree, the girth-MST
test and the cycle-space rank test.  When neither rules every tree out,
it searches one girth at a time: the DP-good trees are the forced edges
plus one good basis of the edges of each odd girth, so the first of them
holds the first good basis of every girth, and the labels placed on top of
those bases, girth by girth, are its labeling.  One bounded BFS per label
both decides that it can be placed and closes its witness cycle.

The crossing-edge-set check is the balanced-orientation check plus one
test on each shorter cycle, with the same set-girth gate and certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, combinations
from typing import Optional, Sequence

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .girth import (
    INFINITE,
    GirthResult,
    OrientedEdgeSet,
    _crossings,
    check_balance,
    edge_girth,
    edge_set_girth,
)
from .graphs import (
    Cycle,
    Graph,
    _bases,
    _bfs_path,
    _require_connected,
    _union,
    component_count,
    cycle_space_ranks,
    enumerate_cycles,
    mask_indices,
    spanning_tree_count,
    spanning_tree_rank,
)

# the implied class of a satisfied DP-good or vertex-order verdict: the
# paper's DP≈, the graphs with P_DP(G, m) = P(G, m) for all large enough m
DP_STAR = "DP*"
DP_LESS = "DP<"
UNKNOWN = "unknown"

SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DpGoodCertificate:
    """Spanning tree, girth-sorted labeling of the other edges, and one
    shortest cycle per labeled edge drawn from the already-available edges."""

    tree: int  # edge mask
    labeling: tuple[int, ...]
    witness_cycles: tuple[Cycle, ...]

    def to_json(self) -> dict:
        return {
            "tree": sorted(mask_indices(self.tree)),
            "labeling": list(self.labeling),
            "cycles": [c.to_json() for c in self.witness_cycles],
        }

    @staticmethod
    def from_json(data: dict) -> "DpGoodCertificate":
        tree = 0
        for i in data["tree"]:
            tree |= 1 << int(i)
        return DpGoodCertificate(
            tree,
            tuple(int(i) for i in data["labeling"]),
            tuple(Cycle(tuple(int(v) for v in seq)) for seq in data["cycles"]),
        )


@dataclass(frozen=True)
class ClassifierVerdict:
    condition: str
    status: str
    implied: str
    certificate: object = None
    witness: object = None
    detail: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.status == SATISFIED

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "implied": self.implied,
            "note": "satisfied status is a sufficient condition for the "
                    "implied membership, for all large enough fold counts",
            "certificate": _jsonify(self.certificate),
            "witness": _jsonify(self.witness),
            "detail": _jsonify(self.detail),
        }


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if obj != INFINITE else "infinity"
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonify(x) for x in obj]
    return repr(obj)


# ---------------------------------------------------------------------------
# DP-good search and verification

def _subgraph_cycle(g: Graph, mask: int) -> Optional[Cycle]:
    """A shortest cycle through the least edge of `mask` that lies on a
    cycle of the spanning subgraph, or None if it is a forest.

    One union-find pass over the edges of `mask` in descending index order:
    the last edge whose ends are already joined is that least edge, whose
    cycle has only larger edges besides it.  The cycle is the BFS path
    between its ends over `mask` without it, closed by the edge.
    """
    parent = list(range(g.n))
    least = None
    for i in reversed(list(mask_indices(mask))):
        if not _union(parent, [g.edges[i]]):  # its ends were already joined
            least = i
    if least is None:
        return None
    u, v = g.edges[least]
    return Cycle.from_vertices(g, _bfs_path(g._incidence, mask ^ 1 << least, u, v))


def _girth_values(g: Graph) -> tuple[float, ...]:
    """The `edge_girth` value of every edge, without its witness, kept in
    `g._memo`: the checks `classify` runs on one graph compute them once."""
    if "girths" not in g._memo:
        full = g.full_mask()
        paths = (_bfs_path(g._incidence, full ^ 1 << i, u, v) for i, (u, v) in enumerate(g.edges))
        g._memo["girths"] = tuple(INFINITE if path is None else len(path) for path in paths)
    return g._memo["girths"]


def _place(g: Graph, girth: int, pending: Sequence[int], available: int):
    """Label the edges of `pending`, all of odd girth `girth`: each step
    places the first pending edge uv whose endpoints a BFS over `available`
    plus the edges placed joins within girth - 1 edges (no shorter path
    exists, uv having that girth), and that path closed by uv is its
    witness cycle.  Returns the (edge, witness cycle)
    pairs in the order placed, or None once no pending edge can be placed.

    Placing any placeable edge is safe: available cycles only gain edges,
    so a placeable edge stays placeable and a valid order can always be
    rearranged to start with it.
    """
    pending = list(pending)
    placed: list[tuple[int, Cycle]] = []
    while pending:
        for e in pending:
            u, v = g.edges[e]
            path = _bfs_path(g._incidence, available, u, v, girth - 1)
            if path is not None:
                break
        else:
            return None
        placed.append((e, Cycle.from_vertices(g, path)))
        available |= 1 << e
        pending.remove(e)
    return placed


def _labels_needed(g: Graph, girths: Sequence[float]) -> Optional[dict[int, int]]:
    """The girth-MST test: None when no spanning tree is DP-good because
    of its forced edges, else the labels every DP-good tree needs per odd
    girth.

    A labeled edge of girth g closes a g-cycle of the tree and earlier
    labels, all of girth at most g, so by induction along the labeling the
    tree's edges of girth at most g join what all edges of girth at most g
    join: every DP-good tree is a minimum spanning tree for the weights
    "girth", and it holds every edge of even or infinite girth.  One
    union-find pass over the girths in increasing order checks that such a
    tree exists (no forced edge joins vertices that smaller girths or
    forced edges of its own girth already joined) and counts, per odd
    girth g, the edges of girth g it must leave out to be labeled: those
    of girth g minus their merges.
    """
    levels: dict[float, list[tuple[int, int]]] = {}
    for pair, value in zip(g.edges, girths):
        levels.setdefault(value, []).append(pair)
    parent = list(range(g.n))
    needed = {}
    for value in sorted(levels):
        pairs = levels[value]
        left_out = len(pairs) - _union(parent, pairs)
        if value == INFINITE or int(value) % 2 == 0:
            if left_out:
                return None
        elif left_out:
            needed[int(value)] = left_out
    return needed


def _rank_test(g: Graph, needed: dict[int, int]) -> bool:
    """The rank test: whether, at every odd girth g that needs labels, the
    cycles of length at most g reach the rank of the labels of girth at
    most g, counted by `_labels_needed`.

    The witness cycles C_1, ..., C_q of a labeling are a basis of the cycle
    space, since C_i holds e_i and no later label.  A cycle D of length at
    most l is a sum of some C_i, and the last of them has its edge e_i on
    D, so every C_i in the sum has length at most l: the cycles of length
    at most g have rank the number of labels of girth at most g.  After
    the girth-MST test that number is the cyclomatic number of the edges
    of girth at most g, which that rank can never exceed.
    """
    ranks = cycle_space_ranks(g, needed)
    return all(ranks[girth] >= target for girth, target in zip(needed, accumulate(needed.values())))


def _first_basis(g: Graph, girths: Sequence[float], girth: int, need: int,
                 budget: int) -> Optional[tuple[int, list[tuple[int, Cycle]]]]:
    """The first good basis of the edges of girth `girth`, in the order of
    `_bases`, as (basis, the (label, witness cycle) pairs `_place` placed
    on it), or None: a basis over the components of the smaller girths
    whose other edges of that girth, its `need` labels, `_place` labels on
    top of it and of every edge of smaller girth.
    """
    below = at = 0
    for i, value in enumerate(girths):
        if value < girth:
            below |= 1 << i
        elif value == girth:
            at |= 1 << i
    free = list(mask_indices(at))
    for basis in _bases(g, below, free, len(free) - need, budget):
        placed = _place(g, girth, mask_indices(at & ~basis), below | basis)
        if placed is not None:
            return basis, placed
    return None


def check_dp_good(g: Graph, budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Search for a DP-good certificate over spanning trees.

    Edges of even or infinite girth can never be labeled, so every candidate
    tree must contain them; if they already close a cycle no tree exists and
    the verdict is violated outright.  The girth-MST test (`_labels_needed`)
    and the rank test (`_rank_test`) then rule out every tree without
    looking at one.

    Otherwise the search runs one odd girth g at a time.  Every edge of
    girth below g is in the tree or labeled before the labels of girth g,
    and a g-cycle has no edge of larger girth, so a tree is DP-good exactly
    when its part of each girth is a good basis (`_first_basis`).  The
    girths are disjoint coordinates of the descending indicator vectors of
    the candidate trees, edge 0 most significant, so the first DP-good tree
    holds the first good basis of every girth, and all edges of an odd
    girth that needs no labels.  Its labeling and witness cycles are the
    ones `_place` placed on each basis, in increasing girth: a g-cycle
    has no edge of larger girth, so the tree's edges of larger girth would
    not change them.

    `detail["trees_tried"]` is that of a search that labels the candidate
    trees in turn, in that order, counted by the matrix-tree theorem: the
    certified tree's position (`spanning_tree_rank`), or with
    no witness cycle and no DP-good tree the number of candidate trees
    (`spanning_tree_count`).  The benchmark's answer checks
    (`bench/checks.py`) pin both meanings.  `budget` caps only the work
    done: a girth whose walk tries more than `budget` bases raises
    BudgetExceededError, and a decided verdict is returned however many
    trees it counts.
    """
    _require_connected(g)
    girths = _girth_values(g)
    forced = 0
    for i, value in enumerate(girths):
        if value == INFINITE or int(value) % 2 == 0:
            forced |= 1 << i
    witness = _subgraph_cycle(g, forced)
    if witness is not None:
        return ClassifierVerdict(
            "dp-good", VIOLATED, UNKNOWN, witness=witness,
            detail={
                "reason": "edges of even or infinite girth contain a cycle, "
                          "so no spanning tree can absorb them all",
                "forced_edges": sorted(mask_indices(forced)),
            },
        )

    needed = _labels_needed(g, girths)
    cert = None
    if needed is not None and _rank_test(g, needed):
        tree = sum(1 << i for i, value in enumerate(girths) if value not in needed)
        placed: list[tuple[int, Cycle]] = []
        for girth, need in needed.items():
            found = _first_basis(g, girths, girth, need, budget)
            if found is None:
                break
            tree |= found[0]
            placed += found[1]
        else:
            cert = DpGoodCertificate(tree, tuple(e for e, _ in placed),
                                     tuple(c for _, c in placed))
    trees = (spanning_tree_count(g, forced) if cert is None
             else spanning_tree_rank(g, cert.tree, forced))
    if cert is None:
        return ClassifierVerdict(
            "dp-good", VIOLATED, UNKNOWN,
            detail={"reason": "no spanning tree admits a valid labeling",
                    "trees_tried": trees},
        )
    return ClassifierVerdict(
        "dp-good", SATISFIED, DP_STAR, certificate=cert,
        detail={"trees_tried": trees,
                "girth_sequence": [int(girths[e]) for e in cert.labeling]},
    )


def certificate_failure_reason(g: Graph, cert: DpGoodCertificate) -> Optional[str]:
    """None if the certificate verifies; otherwise a short reason code."""
    tree = cert.tree
    if tree < 0 or tree >= 1 << len(g.edges):
        return "tree-mask-out-of-range"
    if tree.bit_count() != g.n - 1:
        return "tree-size"
    if component_count(g, tree) != 1:
        return "tree-not-spanning"
    free = sorted(i for i in range(len(g.edges)) if not (tree >> i & 1))
    if sorted(cert.labeling) != free:
        return "labeling-not-the-non-tree-edges"
    if len(cert.witness_cycles) != len(cert.labeling):
        return "cycle-count"
    values = _girth_values(g)
    girths = []
    for e in cert.labeling:
        value = values[e]
        if value == INFINITE:
            return "labeled-edge-is-a-bridge"
        if int(value) % 2 == 0:
            return "labeled-edge-has-even-girth"
        girths.append(int(value))
    if any(a > b for a, b in zip(girths, girths[1:])):
        return "girths-not-sorted"
    available = tree
    seen_cycles = set()
    for k, (e, cyc) in enumerate(zip(cert.labeling, cert.witness_cycles)):
        try:
            valid = Cycle.from_vertices(g, cyc.vertices)
        except ValueError:
            return f"witness-{k}-not-a-cycle"
        if valid.vertices in seen_cycles:
            return "witness-cycles-not-distinct"
        seen_cycles.add(valid.vertices)
        if len(valid) != girths[k]:
            return f"witness-{k}-wrong-length"
        cmask = valid.edge_mask(g)
        if not (cmask >> e & 1):
            return f"witness-{k}-misses-its-edge"
        available |= 1 << e
        if cmask & ~available:
            return f"witness-{k}-uses-unavailable-edges"
    return None


def verify_dp_good_certificate(g: Graph, cert: DpGoodCertificate) -> bool:
    """Independent re-check of all certificate invariants."""
    return certificate_failure_reason(g, cert) is None


# ---------------------------------------------------------------------------
# connected back-neighborhood vertex orders

def _neighbor_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _mask_connected(nbr: list[int], mask: int) -> bool:
    if mask == 0:
        return False
    reach = mask & -mask
    while True:
        grown = reach
        rest = reach
        while rest:
            low = rest & -rest
            grown |= nbr[low.bit_length() - 1] & mask
            rest ^= low
        if grown == reach:
            return reach == mask
        reach = grown


def check_vertex_order(g: Graph, order: Optional[Sequence[int]] = None,
                       budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Orders where each vertex's earlier neighbors are non-empty and connected.

    With an order given it is verified. Without one, a top-down search over
    vertex subsets finds the order whose last vertex, and each last vertex
    before it, is the least that can end a valid order; it decides only the
    subsets the full set reaches, and deciding more than `budget` of them
    raises BudgetExceededError.
    A satisfied verdict implies DP-good and hence the strict cover class.
    """
    _require_connected(g)
    condition = "connected-back-neighborhood-order"
    nbr = _neighbor_masks(g)

    if order is not None:
        seq = [int(v) for v in order]
        if sorted(seq) != list(range(g.n)):
            raise ValueError("order must be a permutation of the vertices")
        placed = 0
        for i, v in enumerate(seq):
            if i > 0:
                back = nbr[v] & placed
                if not _mask_connected(nbr, back):
                    return ClassifierVerdict(
                        condition, VIOLATED, UNKNOWN,
                        witness={"index": i, "vertex": v,
                                 "back_neighborhood": sorted(mask_indices(back))},
                    )
            placed |= 1 << v
        return ClassifierVerdict(condition, SATISFIED, DP_STAR,
                                 certificate=tuple(seq))

    # last[mask]: the least v that can end a valid order of mask, or -1.  Such
    # a v has a non-empty, connected back-neighbourhood in mask - v, and
    # mask - v has a valid order.  A set is decided only when a larger set
    # asks for it, on an explicit stack rather than by recursion
    connected = cache(lambda back: _mask_connected(nbr, back))
    full = (1 << g.n) - 1
    last = {1 << v: v for v in range(g.n)}
    decided = 0  # the sets above the singletons
    stack = [] if full in last else [(full, full)]
    while stack:
        mask, rest = stack.pop()
        while rest:
            low = rest & -rest
            prev = mask ^ low
            if last.get(prev, 0) >= 0 and connected(nbr[low.bit_length() - 1] & prev):
                break
            rest ^= low
        if rest and prev not in last:  # decide prev first, then try the same v again
            stack += ((mask, rest), (prev, prev))
            continue
        decided += 1
        if decided > budget:
            raise BudgetExceededError("vertex sets decided", decided, budget)
        last[mask] = low.bit_length() - 1 if rest else -1
    if last[full] < 0:
        return ClassifierVerdict(
            condition, VIOLATED, UNKNOWN,
            detail={"reason": "no vertex order satisfies the condition "
                              "(exhaustive over all orders)"},
        )
    seq = []
    mask = full
    while mask:
        seq.append(last[mask])
        mask ^= 1 << seq[-1]
    seq.reverse()
    return ClassifierVerdict(condition, SATISFIED, DP_STAR,
                             certificate=tuple(seq))


# ---------------------------------------------------------------------------
# even set-girth with balanced orientation, and crossing edge sets

def _set_girth_gate(g: Graph, condition: str, mask: int):
    """(edge_set_girth(g, mask), violated verdict or None): the first clause
    of both DP< checks fails when that girth is infinite or odd."""
    r = edge_set_girth(g, mask)
    if not r.is_finite:
        return r, ClassifierVerdict(
            condition, VIOLATED, UNKNOWN,
            detail={"reason": "no cycle meets the edge set an odd number of times"},
        )
    if int(r.value) % 2 == 1:
        return r, ClassifierVerdict(
            condition, VIOLATED, UNKNOWN, witness=r.witness,
            detail={"reason": "set girth is odd", "set_girth": int(r.value)},
        )
    return r, None


def _dp_less(g: Graph, condition: str, r: GirthResult, oriented: OrientedEdgeSet, **extra):
    """The satisfied DP< verdict: set girth, its witness and the orientation."""
    return ClassifierVerdict(
        condition, SATISFIED, DP_LESS,
        certificate={"set_girth": int(r.value), "girth_witness": r.witness,
                     "orientation": oriented.to_json(g), **extra},
    )


def check_balanced_orientation(g: Graph, estar: OrientedEdgeSet,
                               cycle_budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Even set-girth plus an orientation balanced on every shorter cycle."""
    condition = "balanced-orientation"
    if estar.edges == 0:
        raise ValueError("the oriented edge set must be non-empty")
    r, failed = _set_girth_gate(g, condition, estar.edges)
    if failed:
        return failed
    bal = check_balance(g, estar, int(r.value), cycle_budget=cycle_budget)
    if not bal.balanced:
        return ClassifierVerdict(
            condition, VIOLATED, UNKNOWN, witness=bal.witness,
            detail={"reason": "orientation unbalanced on a short cycle",
                    "set_girth": int(r.value)},
        )
    return _dp_less(g, condition, r, estar)


def crossing_edges(g: Graph, v1: Sequence[int], v2: Sequence[int]) -> int:
    s1, s2 = set(v1), set(v2)
    return sum(1 << i for i, (u, v) in enumerate(g.edges)
               if (u in s1 and v in s2) or (u in s2 and v in s1))


def check_crossing_edge_set(g: Graph, v1: Sequence[int], v2: Sequence[int],
                            estar: Optional[int] = None,
                            cycle_budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Edge set between two vertex classes, even set-girth, and no short
    cycle leaving a cross-class path when its crossing edges are removed.
    The edge set `estar` is all crossing edges by default; a given one
    must be non-empty.

    This is `check_balanced_orientation` on E* oriented from the first class
    to the second, with one test on each shorter cycle: it fails when two
    consecutive E* edges along it are entered from the same class, since the
    stretch between them joins the two classes.  Otherwise their directions
    alternate, which is balance, so the certificate is the same.
    """
    condition = "crossing-edge-set"
    s1, s2 = set(v1), set(v2)
    if s1 & s2:
        raise ValueError("the vertex classes must be disjoint")
    if not s1 | s2 <= set(range(g.n)):
        raise ValueError(f"the vertex classes must lie in 0..{g.n - 1}")
    cross = crossing_edges(g, v1, v2)
    if estar is None:
        estar = cross
    elif estar == 0:
        raise ValueError("the oriented edge set must be non-empty")
    if estar & ~cross:
        raise ValueError("the edge set must lie between the two classes")
    tails = {}
    for i in mask_indices(estar):
        u, v = g.edges[i]
        tails[i] = u if u in s1 else v
    oriented = OrientedEdgeSet.from_tails(g, tails)

    r, failed = _set_girth_gate(g, condition, estar)
    if failed:
        return failed
    # an even set girth is at least 4, so there are shorter cycles to check
    for cyc in enumerate_cycles(g, int(r.value) - 1, budget=cycle_budget):
        hits = _crossings(g, cyc, estar)
        for (i, a), (_, b) in zip(hits, hits[1:] + hits[:1]):
            if (a in s1) == (b in s1):
                u, v = g.edges[i]
                return ClassifierVerdict(
                    condition, VIOLATED, UNKNOWN, witness=cyc,
                    detail={"reason": "a short cycle minus the crossing "
                                      "edges leaves a cross-class path",
                            "path_endpoints": [v if a == u else u, b],
                            "set_girth": int(r.value)},
                )
    return _dp_less(g, condition, r, oriented, v1=sorted(s1), v2=sorted(s2))


# ---------------------------------------------------------------------------
# a scan for sufficient conditions

def scan_even_girth(g: Graph) -> ClassifierVerdict:
    """An edge of even girth is already sufficient for the strict class."""
    condition = "even-girth-edge"
    girths = _girth_values(g)
    for i, value in enumerate(girths):
        if value != INFINITE and value % 2 == 0:
            return ClassifierVerdict(
                condition, SATISFIED, DP_LESS,
                certificate={"edge": i, "girth": value,
                             "witness": edge_girth(g, i).witness},
            )
    return ClassifierVerdict(
        condition, VIOLATED, UNKNOWN,
        detail={"reason": "every edge has odd or infinite girth",
                "edge_girths": [value if value != INFINITE else "infinity"
                                for value in girths]},
    )


def search_quad_crossing(g: Graph, budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Bounded search for a crossing edge set of set-girth exactly four.

    Candidates are single edges and stars around a vertex; exhausting them
    proves nothing, so the fallback is inconclusive.  A single edge's set
    girth is its edge girth, so singles are read from `_girth_values` and
    only the first edge of girth 4 runs `edge_set_girth`, for its witness;
    each single still counts as a candidate.  Between the two, the
    cycle space stops the search: when the cycles of length at most 4 have
    the rank of the triangles, every 4-cycle is a GF(2) sum of triangles,
    so an edge set that meets every triangle evenly meets every 4-cycle
    evenly and none has set girth four.
    More than `budget` candidates raise BudgetExceededError.
    """
    condition = "quad-girth-crossing-set"
    tried = 0

    def first_fit(candidates, may_fit=lambda mask: True):
        nonlocal tried
        for v1, v2, mask in candidates:
            tried += 1
            if tried > budget:
                raise BudgetExceededError("quad candidates", tried, budget)
            if not may_fit(mask):
                continue
            r = edge_set_girth(g, mask)
            if r.is_finite and int(r.value) == 4:
                return ClassifierVerdict(
                    condition, SATISFIED, DP_LESS,
                    certificate={"v1": list(v1), "v2": list(v2),
                                 "edges": sorted(mask_indices(mask)),
                                 "witness": r.witness},
                )
        return None

    def stars():
        for v, pairs in enumerate(g._incidence):
            for size in range(2, len(pairs) + 1):
                for sub in combinations(pairs, size):
                    yield (v,), tuple(w for w, _ in sub), sum(1 << i for _, i in sub)

    def inconclusive(reason):
        return ClassifierVerdict(condition, INCONCLUSIVE, UNKNOWN,
                                 detail={"reason": reason, "tried": tried})

    girths = _girth_values(g)
    found = first_fit((((u,), (v,), 1 << i) for i, (u, v) in enumerate(g.edges)),
                      lambda mask: girths[mask.bit_length() - 1] == 4)
    if found is not None:
        return found
    ranks = cycle_space_ranks(g, (3, 4))  # no pass once the rank test found that the triangles span
    if ranks[4] == ranks[3]:
        return inconclusive("no edge set has set girth four: every 4-cycle "
                            "is a sum of triangles")
    return first_fit(stars()) or inconclusive(
        "no candidate in the searched space has set-girth four; the search "
        "is not exhaustive")


def classify(g: Graph, budget: int = DEFAULT_BUDGET) -> list[ClassifierVerdict]:
    """Run every sufficient-condition check and report all verdicts.

    This is the one place where a budget error becomes a verdict: a sub-check
    that runs over its budget is reported as inconclusive.  Membership is
    never claimed beyond what a satisfied condition implies.
    """
    _require_connected(g)
    verdicts = []
    checks = [
        ("even-girth-edge", lambda: scan_even_girth(g)),
        ("dp-good", lambda: check_dp_good(g, budget=budget)),
        ("connected-back-neighborhood-order", lambda: check_vertex_order(g, budget=budget)),
        ("quad-girth-crossing-set", lambda: search_quad_crossing(g, budget=budget)),
    ]
    for name, run in checks:
        try:
            verdicts.append(run())
        except BudgetExceededError as exc:
            verdicts.append(ClassifierVerdict(
                name, INCONCLUSIVE, UNKNOWN,
                detail={"reason": f"budget exceeded: {exc}"},
            ))
    return verdicts
