"""Sufficient-condition checkers with machine-checkable certificates.

Every checker returns a ClassifierVerdict.  A satisfied verdict carries a
certificate an independent verifier can re-check; a violated verdict carries
a witness for the failed clause.  A search that runs over its budget raises
BudgetExceededError, and only `classify` turns that into an inconclusive
verdict; the one other inconclusive verdict is the quad search's, whose
candidates prove nothing when none of them fits.  The implied membership is
always that of a sufficient condition, never an exact classification.

The crossing-edge-set check is the balanced-orientation check plus one test
on each shorter cycle, with the same set-girth gate and certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional, Sequence

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
    _bfs_forest,
    _bfs_path,
    _require_connected,
    component_count,
    enumerate_cycles,
    mask_indices,
    non_bridge_edges,
    spanning_trees,
)

DP_STAR = "DP*"
DP_APPROX = "DP≈"
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
    """Some cycle inside the spanning subgraph, or None if it is a forest."""
    cyclic = non_bridge_edges(g, mask)
    if cyclic == 0:
        return None
    start_edge = next(mask_indices(cyclic))
    u, v = g.edges[start_edge]
    # shortest u-v path avoiding the edge itself, within the cyclic part
    path = _bfs_path(g._incidence, cyclic ^ 1 << start_edge, u, v)
    return Cycle.from_vertices(g, path)


@lru_cache(maxsize=1)
def _girth_values(g: Graph) -> tuple[float, ...]:
    """The `edge_girth` value of every edge, without building its witness.

    The last graph's values are kept, so the checks `classify` runs on one
    graph compute them once."""
    full = g.full_mask()
    paths = (_bfs_path(g._incidence, full ^ 1 << i, u, v) for i, (u, v) in enumerate(g.edges))
    return tuple(INFINITE if path is None else len(path) for path in paths)


def _shortest_path_layers(g: Graph, e: int, girth: int) -> list[list[tuple[int, int, int]]]:
    """The arcs of every shortest u-v path of G - e, for e = uv of finite
    girth, in girth - 1 layers.

    With d_u and d_v the distances in G - e, an arc x->y of an edge xy lies
    on such a path exactly when d_u(x) + 1 + d_v(y) = girth - 1, and it goes
    to layer d_u(x) as (bit of x, bit of y, bit of the edge).
    """
    u, v = g.edges[e]
    rest = g.full_mask() ^ 1 << e
    dist = []
    for root in (u, v):
        d = [g.n] * g.n
        d[root] = 0
        for w, parent, _ in _bfs_forest(g, rest, [root])[1:]:
            d[w] = d[parent] + 1
        dist.append(d)
    du, dv = dist
    layers: list[list[tuple[int, int, int]]] = [[] for _ in range(girth - 1)]
    for i in mask_indices(rest):
        a, b = g.edges[i]
        for x, y in ((a, b), (b, a)):
            if du[x] + 1 + dv[y] == girth - 1:
                layers[du[x]].append((1 << x, 1 << y, 1 << i))
    return layers


def _closes_cycle(layers: list[list[tuple[int, int, int]]], available: int) -> bool:
    """Whether some shortest cycle through the edge of `layers` has all its
    other edges in the edge mask `available`: a walk from u that keeps, layer
    by layer, the heads of the available arcs leaving a reached vertex."""
    reach = layers[0][0][0]  # every arc of layer 0 leaves u
    for layer in layers:
        nxt = 0
        for x, y, edge in layer:
            if reach & x and available & edge:
                nxt |= y
        if not nxt:
            return False
        reach = nxt
    return True


class _Closure:
    """The DP-good closure of the edges a spanning-tree walk has taken.

    An edge e of odd girth g joins the closure once some shortest cycle
    through it lies in the edges taken, the edges joined and every edge of
    girth < g.  Every edge of a g-cycle has girth at most g, so a tree is
    DP-good exactly when its closure is all of E: the joined edges, in
    girth order and in the order they joined, are a valid labeling.  The
    closure only grows with the edges taken, and it does not depend on the
    order in which edges are tested, so each frame of the walk carries the
    closure of its own prefix.

    A value is (closure mask, mask of the edges that had layers when it was
    last brought up to date).  Layers are built only for the edges a tree's
    closure has not reached (`full`).  A taken or joined edge x is passed on
    only to the edges of its girth whose layers contain x (`_users[x]`), and
    a value older than some layers first tests their edges (`_settle`).
    """

    def __init__(self, g: Graph, girths: Sequence[float], forced: int):
        self._g = g
        self._girths = girths
        self.start = (forced, 0)
        self._full = g.full_mask()
        self._arcs: list[Optional[list]] = [None] * len(girths)
        self._layered = 0  # edges with layers
        self._users = [0] * len(girths)
        of_girth: dict[float, int] = {}
        for x, girth in enumerate(girths):
            of_girth[girth] = of_girth.get(girth, 0) | 1 << x
        below, shorter = {}, 0
        for girth in sorted(of_girth):
            below[girth] = shorter
            shorter |= of_girth[girth]
        self._below = [below[girth] for girth in girths]  # edges of smaller girth

    def layers(self, e: int) -> list:
        """The `_shortest_path_layers` of edge e, built on first use."""
        arcs = self._arcs[e]
        if arcs is None:
            girths = self._girths
            arcs = self._arcs[e] = _shortest_path_layers(self._g, e, int(girths[e]))
            for x in mask_indices(sum({edge for layer in arcs for _, _, edge in layer})):
                if girths[x] == girths[e]:
                    self._users[x] |= 1 << e
            self._layered |= 1 << e
        return arcs

    def _spread(self, closure: int, todo: int) -> int:
        """Join every edge of the mask `todo` that closes a cycle, and every
        edge that then follows."""
        arcs, below, users = self._arcs, self._below, self._users
        while todo:
            low = todo & -todo
            todo ^= low
            e = low.bit_length() - 1
            if _closes_cycle(arcs[e], closure | below[e]):
                closure |= low
                todo |= users[e] & ~closure
        return closure

    def _settle(self, value: tuple[int, int]) -> tuple[int, int]:
        closure, layered = value
        if layered != self._layered:
            return self._spread(closure, self._layered & ~layered & ~closure), self._layered
        return value

    def take(self, value: tuple[int, int], i: int) -> tuple[int, int]:
        """The value after the walk takes edge i."""
        closure, layered = self._settle(value)
        if closure >> i & 1:
            return closure, layered
        closure |= 1 << i
        return self._spread(closure, self._users[i] & ~closure), layered

    def full(self, value: tuple[int, int]) -> bool:
        """Whether the closure of a tree's value is all of E."""
        if value[0] == self._full:
            return True
        for e in mask_indices(self._full & ~value[0] & ~self._layered):
            self.layers(e)
        return self._settle(value)[0] == self._full


def _greedy_labeling(g: Graph, tree: int, girths: Sequence[float],
                     layers: Callable[[int], list]):
    """Build the certificate of a DP-good spanning tree, or None if the tree
    is not DP-good.

    The tree holds every edge of even or infinite girth, and the other
    edges are placed in (girth, index) order; an edge can be placed once
    some shortest cycle through it lies inside the tree plus the edges
    placed before it, which `_closes_cycle` decides on `layers(e)`.
    Placing any currently placeable edge of minimal girth is safe: available
    cycles only gain edges, so a placeable edge stays placeable and a valid
    ordering can always be rearranged to start with it.  Once every edge is
    placed, each witness cycle closes a BFS path over the tree plus the
    edges placed before its edge.
    """
    available = tree
    pending = sorted(mask_indices(g.full_mask() & ~tree), key=lambda i: (girths[i], i))
    labeling: list[int] = []
    while pending:
        girth_now = girths[pending[0]]
        for e in pending:
            if girths[e] != girth_now:
                return None
            if _closes_cycle(layers(e), available):
                break
        else:
            return None
        labeling.append(e)
        available |= 1 << e
        pending.remove(e)
    available = tree
    cycles = []
    for e in labeling:
        u, v = g.edges[e]
        path = _bfs_path(g._incidence, available, u, v, int(girths[e]) - 1)
        cycles.append(Cycle.from_vertices(g, path))
        available |= 1 << e
    return DpGoodCertificate(tree, tuple(labeling), tuple(cycles))


def check_dp_good(g: Graph, budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Search for a DP-good certificate over spanning trees.

    Edges of even or infinite girth can never be labeled, so every candidate
    tree must contain them; if they already close a cycle no tree exists and
    the verdict is violated outright.  More than `budget` candidate trees
    raise BudgetExceededError.

    The candidate trees come from one spanning-tree walk, and each frame of
    the walk carries the `_Closure` of the edges it has taken, updated on
    every edge it takes: a tree is DP-good exactly when its closure is all
    of E.  `_greedy_labeling` runs once, on the first such tree, to build
    its certificate.  The trees, their order and `trees_tried` are those of
    a search that labels every tree in turn.

    `detail["trees_tried"]` counts the candidate trees, streamed in
    descending order of their indicator vectors: for a satisfied verdict it
    is the 1-based position of the certified tree in that stream, for a
    violated one with no witness cycle the number of spanning trees that
    contain every edge of even or infinite girth.  The benchmark's answer
    checks (`bench/checks.py`) pin both meanings.
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

    closure = _Closure(g, girths, forced)
    stream = spanning_trees(g, budget=budget, forced=forced,
                            carry=(closure.start, closure.take))
    for tree in stream:
        if closure.full(stream.value):
            cert = _greedy_labeling(g, tree, girths, closure.layers)
            return ClassifierVerdict(
                "dp-good", SATISFIED, DP_STAR, certificate=cert,
                detail={
                    "trees_tried": stream.count,
                    "girth_sequence": [int(girths[e]) for e in cert.labeling],
                },
            )
    return ClassifierVerdict(
        "dp-good", VIOLATED, UNKNOWN,
        detail={"reason": "no spanning tree admits a valid labeling",
                "trees_tried": stream.count},
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

    With an order given it is verified; without one, a subset dynamic program
    searches for any valid order, and 2^n subsets over `budget` raise
    BudgetExceededError.
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
                if back == 0 or not _mask_connected(nbr, back):
                    return ClassifierVerdict(
                        condition, VIOLATED, UNKNOWN,
                        witness={"index": i, "vertex": v,
                                 "back_neighborhood": sorted(mask_indices(back))},
                    )
            placed |= 1 << v
        return ClassifierVerdict(condition, SATISFIED, DP_STAR,
                                 certificate=tuple(seq))

    if (1 << g.n) > budget:
        raise BudgetExceededError("vertex subsets", 1 << g.n, budget)

    full = (1 << g.n) - 1
    ok = bytearray(full + 1)
    for v in range(g.n):
        ok[1 << v] = 1
    conn_memo: dict[int, bool] = {}

    def last_vertex(mask: int) -> int:
        """The lowest v whose removal leaves an `ok` subset with a non-empty,
        connected back-neighbourhood of v, or -1."""
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            prev = mask ^ low
            if not ok[prev]:
                continue
            back = nbr[v] & prev
            if back == 0:
                continue
            hit = conn_memo.get(back)
            if hit is None:
                hit = _mask_connected(nbr, back)
                conn_memo[back] = hit
            if hit:
                return v
        return -1

    for mask in range(1, full + 1):
        if mask.bit_count() > 1 and last_vertex(mask) >= 0:
            ok[mask] = 1
    if not ok[full]:
        return ClassifierVerdict(
            condition, VIOLATED, UNKNOWN,
            detail={"reason": "no vertex order satisfies the condition "
                              "(exhaustive over all orders)"},
        )
    # walk back from the full set, taking the vertex the forward loop took
    seq = []
    mask = full
    while mask:
        v = last_vertex(mask) if mask.bit_count() > 1 else (mask.bit_length() - 1)
        seq.append(v)
        mask ^= 1 << v
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
    mask = 0
    for i, (u, v) in enumerate(g.edges):
        if (u in s1 and v in s2) or (u in s2 and v in s1):
            mask |= 1 << i
    return mask


def check_crossing_edge_set(g: Graph, v1: Sequence[int], v2: Sequence[int],
                            estar: Optional[int] = None,
                            cycle_budget: int = DEFAULT_BUDGET) -> ClassifierVerdict:
    """Edge set between two vertex classes, even set-girth, and no short
    cycle leaving a cross-class path when its crossing edges are removed.

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
    proves nothing, so the fallback is inconclusive.
    More than `budget` candidates raise BudgetExceededError.
    """
    condition = "quad-girth-crossing-set"
    tried = 0

    def candidates():
        for i, (u, v) in enumerate(g.edges):
            yield (u,), (v,), 1 << i
        for v, pairs in enumerate(g._incidence):
            for size in range(2, len(pairs) + 1):
                for sub in combinations(pairs, size):
                    yield (v,), tuple(w for w, _ in sub), sum(1 << i for _, i in sub)

    for v1, v2, mask in candidates():
        tried += 1
        if tried > budget:
            raise BudgetExceededError("quad candidates", tried, budget)
        r = edge_set_girth(g, mask)
        if r.is_finite and int(r.value) == 4:
            return ClassifierVerdict(
                condition, SATISFIED, DP_LESS,
                certificate={"v1": list(v1), "v2": list(v2),
                             "edges": sorted(mask_indices(mask)),
                             "witness": r.witness},
            )
    return ClassifierVerdict(
        condition, INCONCLUSIVE, UNKNOWN,
        detail={"reason": "no candidate in the searched space has set-girth "
                          "four; the search is not exhaustive",
                "tried": tried},
    )


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
