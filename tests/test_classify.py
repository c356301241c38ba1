import importlib
import json
import random
import sys
from collections import Counter
from itertools import combinations, islice
from time import perf_counter

import pytest

import oracles
from conftest import (
    connected_edge_sets,
    outer_path_near_triangulation,
    random_connected_graph,
    random_edges,
    stacked_torus,
    stacked_triangulation,
)

from dpchroma import (
    DP_LESS,
    DP_STAR,
    BudgetExceededError,
    Cycle,
    DpGoodCertificate,
    Graph,
    OrientedEdgeSet,
    UNKNOWN,
    certificate_failure_reason,
    check_balanced_orientation,
    check_crossing_edge_set,
    check_dp_good,
    check_vertex_order,
    chromatic_polynomial,
    classify,
    complete_graph,
    complete_multipartite,
    count_transversals,
    cycle_graph,
    cycle_space_ranks,
    dp_exact,
    edge_set_girth,
    fig1_graph,
    fig3b_graph,
    fixture,
    mask_indices,
    path_graph,
    scan_even_girth,
    search_quad_crossing,
    spanning_tree_count,
    twisted_cover,
)
from dpchroma.classify import (
    _first_basis,
    _girth_values,
    _labels_needed,
    _neighbor_masks,
    _place,
    _rank_test,
    _star_fits,
    _subgraph_cycle,
)
from dpchroma.girth import INFINITE
from dpchroma.graphs import FIG3B_CROSSING, FIG3B_V1, FIG3B_V2

# the package re-exports the function `classify` under the module's name
classify_module = importlib.import_module("dpchroma.classify")


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


# A known-good certificate for the 14-vertex fixture, frozen here:
# 13 tree edges, 8 labeled edges with girths (3,3,3,3,3,3,5,5).
FIG1_TREE = [0, 1, 4, 5, 6, 7, 8, 10, 11, 14, 15, 17, 19]
FIG1_LABELING = [16, 12, 9, 13, 20, 18, 2, 3]
FIG1_CYCLES = [
    (2, 6, 11),
    (5, 6, 9),
    (5, 7, 8),
    (3, 7, 10),
    (0, 1, 13),
    (0, 4, 12),
    (2, 3, 7, 5, 6),
    (0, 1, 2, 3, 4),
]


def fig1_certificate():
    return DpGoodCertificate(
        mask_of(FIG1_TREE),
        tuple(FIG1_LABELING),
        tuple(Cycle(c) for c in FIG1_CYCLES),
    )


# ---------------------------------------------------------------------------
# DP-good search

def test_tree_is_dp_good_with_empty_labeling():
    verdict = check_dp_good(path_graph(5))
    assert verdict.satisfied
    assert verdict.certificate.labeling == ()
    assert certificate_failure_reason(path_graph(5), verdict.certificate) is None


def test_c4_is_not_dp_good():
    verdict = check_dp_good(cycle_graph(4))
    assert verdict.status == "violated"
    # witness: the even-girth edges close a cycle
    assert verdict.witness is not None


def test_k4_is_dp_good():
    g = complete_graph(4)
    verdict = check_dp_good(g)
    assert verdict.satisfied and verdict.implied == DP_STAR
    assert certificate_failure_reason(g, verdict.certificate) is None


def test_fig1_is_dp_good_with_expected_girths():
    g = fig1_graph()
    verdict = check_dp_good(g)
    assert verdict.satisfied
    assert verdict.detail["girth_sequence"] == [3, 3, 3, 3, 3, 3, 5, 5]
    assert certificate_failure_reason(g, verdict.certificate) is None


def test_dp_good_budget_returns_inconclusive():
    # the checker raises once the girth-3 walk of SEARCHED_EDGES tries its
    # 13th basis; classify is the one place that reports the overrun
    g = Graph(9, SEARCHED_EDGES)
    with pytest.raises(BudgetExceededError) as err:
        check_dp_good(g, budget=12)
    assert (err.value.counter, err.value.attempted) == ("bases of one girth", 13)
    verdict = {v.condition: v for v in classify(g, budget=12)}["dp-good"]
    assert verdict.status == "inconclusive"
    assert "bases of one girth" in verdict.detail["reason"]
    assert check_dp_good(g, budget=13).satisfied


def test_dp_good_requires_connected():
    with pytest.raises(ValueError):
        check_dp_good(Graph(4, [(0, 1), (2, 3)]))


def test_forced_cycle_matches_the_bridge_and_bfs_oracles(rng):
    """The cycle a violated verdict names among the forced edges: the least
    edge of the mask that is no bridge of it, closed by the BFS path over
    the mask without that edge; None exactly when the mask is a forest."""
    kinds = Counter()
    for _ in range(600):
        n = rng.randint(1, 10)
        g = Graph(n, random_edges(rng, n, rng.uniform(0.2, 0.7)))
        edges = list(g.edges)
        mask = rng.randrange(1 << g.m)
        subset = list(mask_indices(mask))
        cyclic = sorted(set(subset) - set(oracles.bridges(n, edges, subset)))
        got = _subgraph_cycle(g, mask)
        kinds["cyclic" if cyclic else "forest"] += 1
        kinds["disconnected"] += len(oracles.components(n, edges, subset)) > 1
        if not cyclic:
            assert got is None
            continue
        u, v = edges[cyclic[0]]
        adj = oracles.sorted_adjacency(n, edges, [i for i in subset if i != cyclic[0]])
        assert got == Cycle.from_vertices(g, oracles.bfs_path(adj, u, v))
    # the draw holds forests, cyclic masks and disconnected masks
    assert min(kinds["cyclic"], kinds["forest"], kinds["disconnected"]) >= 100, kinds


def test_emitted_certificates_always_verify(rng):
    seen_satisfied = 0
    for _ in range(40):
        g = random_connected_graph(rng, lo=2, hi=6)
        verdict = check_dp_good(g)
        if verdict.satisfied:
            seen_satisfied += 1
            assert certificate_failure_reason(g, verdict.certificate) is None
    assert seen_satisfied > 0


def test_plane_near_triangulations_are_dp_good():
    rng = random.Random(2022)
    for grow in (stacked_triangulation, outer_path_near_triangulation):
        for n in (12, 17, 23, 30, 40):
            g = grow(n, rng)
            assert len(oracles.components(g.n, list(g.edges))) == 1
            if grow is stacked_triangulation:
                assert g.m == 3 * n - 6  # a maximal plane graph
            verdict = check_dp_good(g)
            assert verdict.satisfied, (grow.__name__, n)
            assert certificate_failure_reason(g, verdict.certificate) is None


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (3, 3, 3, 3)])
def test_complete_multipartite_graphs_are_dp_good(sizes):
    g = complete_multipartite(sizes)
    verdict = check_dp_good(g)
    assert verdict.satisfied
    assert certificate_failure_reason(g, verdict.certificate) is None


@pytest.mark.parametrize("sizes", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_complete_bipartite_graphs_are_not_dp_good(sizes):
    # every edge lies on a 4-cycle and on no triangle, so none can be labeled
    assert check_dp_good(complete_multipartite(sizes)).status == "violated"


# ---------------------------------------------------------------------------
# the per-tree closure and labeling against the BFS greedy of tests/oracles.py

def unlabelable_mask(g):
    """The edges of even or infinite girth, which every candidate tree holds."""
    mask = 0
    for i, x in enumerate(oracles.edge_girths(g.n, list(g.edges))):
        if x is None or x % 2 == 0:
            mask |= 1 << i
    return mask


def levels_label(g, girths, tree):
    """The per-girth decision of `check_dp_good` on one candidate tree: for
    each odd girth of its other edges, in increasing order, `_place` labels
    them on top of the tree's edges of that girth and every edge of smaller
    girth.  Returns the certificate of the (label, witness cycle) pairs in
    the order placed, or None."""
    rest = g.full_mask() & ~tree
    placed = []
    for value in sorted({girths[e] for e in mask_indices(rest)}):
        below = sum(1 << i for i, x in enumerate(girths) if x < value)
        pending = [e for e in mask_indices(rest) if girths[e] == value]
        found = _place(g, int(value), pending, below | tree)
        if found is None:
            return None
        placed += found
    return DpGoodCertificate(tree, tuple(e for e, _ in placed), tuple(c for _, c in placed))


def candidate_trees(g, budget=None):
    """The oracle's spanning trees that hold every edge of even or infinite
    girth, in descending indicator order."""
    forced = set(mask_indices(unlabelable_mask(g)))
    return oracles.spanning_trees_holding(g.n, list(g.edges), forced, budget)


def assert_labelings_match(g, limit=None):
    """Walk every candidate tree of g in the oracle's order.  For each tree
    the per-girth decision holds exactly when the oracle labels the tree,
    and its labels with the witness cycles `_place` closed are the oracle's
    certificate, whose BFS runs over the whole tree and the earlier labels.
    Returns the trees compared and how many of them were labeled."""
    edges = list(g.edges)
    oracle_girths = oracles.edge_girths(g.n, edges)
    girths = _girth_values(g)
    assert [None if x == INFINITE else x for x in girths] == oracle_girths
    compared = labeled = 0
    for tree in islice(candidate_trees(g), limit):
        want = oracles.dp_good_labeling(g.n, edges, oracle_girths, tree)
        cert = levels_label(g, girths, mask_of(tree))
        assert (cert is None) is (want is None), tree
        if cert is not None:
            assert cert.to_json() == want, tree
        compared += 1
        labeled += want is not None
    return compared, labeled


def test_labeling_matches_oracle_on_every_fig1_tree():
    compared, labeled = assert_labelings_match(fig1_graph())
    assert compared == 10854 and labeled > 0


def test_labeling_matches_oracle_on_fig3b_trees():
    assert assert_labelings_match(fig3b_graph(), 3000) == (3000, 0)


def test_labeling_matches_oracle_on_small_graphs():
    labeled = 0
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            forced = set(mask_indices(unlabelable_mask(g)))
            want = sum(forced <= tree for tree in oracles.spanning_tree_sets(n, list(edges)))
            compared, hits = assert_labelings_match(g)
            assert compared == want
            labeled += hits
    assert labeled > 0


def test_labeling_matches_oracle_on_seeded_graphs(rng):
    labeled = 0
    for _ in range(30):
        g = random_connected_graph(rng, lo=6, hi=9)
        labeled += assert_labelings_match(g, 200)[1]
    assert labeled > 0


def count_place_calls(monkeypatch):
    """Record (pending edges, result) of every `_place` call."""
    calls = []

    def counted(g, girth, pending, available):
        pending = list(pending)
        calls.append((pending, place(g, girth, pending, available)))
        return calls[-1][1]

    place = classify_module._place
    monkeypatch.setattr(classify_module, "_place", counted)
    return calls


def test_fig3b_exhausts_every_candidate_tree(monkeypatch):
    # the rank test rules fig3b out (13 labels of girth 3, triangles of
    # rank 12), so no basis is tried and nothing is placed
    calls = count_place_calls(monkeypatch)
    verdict = check_dp_good(fig3b_graph())
    assert verdict.status == "violated"
    assert verdict.detail["trees_tried"] == 61370
    assert calls == []


# 8 vertices, 17 edges, every edge of girth 3: from a seeded family, one of
# the few violated graphs that pass the girth-MST test and have a distinct
# triangle for each label (10 labels, 11 triangles), but whose triangles
# have rank 9, so the rank test rules it out
WALKED_EDGES = [(0, 3), (0, 6), (1, 2), (1, 4), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5),
                (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]


def test_rank_test_rules_out_a_graph_with_enough_triangles(monkeypatch):
    g = Graph(8, WALKED_EDGES)
    girths = _girth_values(g)
    assert _labels_needed(g, girths) == {3: 10}
    assert len(oracles.all_cycles(g.n, WALKED_EDGES, 3)) == 11
    assert oracles.cycle_space_rank(g.n, WALKED_EDGES, 3) == 9
    assert not _rank_test(g, {3: 10})
    calls = count_place_calls(monkeypatch)
    verdict = check_dp_good(g)
    assert verdict.status == "violated"
    assert verdict.detail["trees_tried"] == 4305
    assert calls == []


# 9 vertices, 22 edges, every edge of girth 3, in a shuffled order whose
# first 12 bases of the girth-3 edges leave some edge unlabeled
SEARCHED_EDGES = [(6, 4), (3, 1), (6, 1), (5, 1), (7, 5), (4, 2), (5, 2), (7, 2), (6, 0),
                  (0, 1), (7, 8), (6, 8), (4, 8), (5, 0), (3, 2), (6, 3), (0, 2), (1, 2),
                  (5, 4), (7, 4), (7, 3), (7, 6)]


def test_walk_places_once_per_basis_tried(monkeypatch):
    g = Graph(9, SEARCHED_EDGES)
    girths = _girth_values(g)
    assert set(girths) == {3} and _rank_test(g, _labels_needed(g, girths))
    calls = count_place_calls(monkeypatch)
    verdict = check_dp_good(g)
    assert verdict.satisfied and verdict.detail["trees_tried"] == 13
    assert len(calls) == 13
    assert [found is None for _, found in calls] == [True] * 12 + [False]


def test_one_place_call_labels_a_long_cycle(monkeypatch):
    # the first basis leaves out the last edge, whose BFS over the path of
    # the other 300 edges closes the whole cycle
    calls = count_place_calls(monkeypatch)
    assert check_dp_good(cycle_graph(301)).satisfied
    assert [pending for pending, _ in calls] == [[300]]
    [(e, witness)] = calls[0][1]
    assert e == 300 and len(witness) == 301


def test_walk_that_finds_no_good_basis_is_violated(monkeypatch):
    # no graph small enough for a test is known that passes both rule-out
    # tests yet has no good basis, so a `_place` that never places anything
    # stands in for one: fig1 passes both tests, its girth-3 walk tries
    # every basis and finds none good, and every candidate tree is counted
    monkeypatch.setattr(classify_module, "_place", lambda *args: None)
    g = fig1_graph()
    verdict = check_dp_good(g)
    assert verdict.status == "violated" and verdict.certificate is None
    assert verdict.detail == {"reason": "no spanning tree admits a valid labeling",
                              "trees_tried": spanning_tree_count(g, 0)}
    assert verdict.detail["trees_tried"] == 10854


# ---------------------------------------------------------------------------
# the per-girth search against an oracle search over the oracle's trees

def oracle_dp_good_search(g, budget):
    """Label the candidate trees in the oracle's order in turn with the
    oracle: (trees walked up to the first labeled one, or all of them, and
    that tree's certificate JSON or None).  The walk raises past `budget`."""
    edges = list(g.edges)
    girths = oracles.edge_girths(g.n, edges)
    count = 0
    for count, tree in enumerate(candidate_trees(g, budget), 1):
        want = oracles.dp_good_labeling(g.n, edges, girths, tree)
        if want is not None:
            return count, want
    return count, None


def assert_search_matches_oracle(g, budget=10**6):
    """`check_dp_good` against the oracle search at `budget`.  Wherever the
    oracle answers, the same status, `trees_tried` and certificate; with no
    candidate tree at all the unlabelable edges close the witness cycle.
    Where the oracle runs past `budget` trees, the search raises only when
    one girth's walk tries more than `budget` bases, and otherwise gives
    its verdict at the default budget.  Returns the oracle's tree count,
    None where the oracle runs past `budget`."""
    try:
        trees, want = oracle_dp_good_search(g, budget)
    except BudgetExceededError:
        try:
            verdict = check_dp_good(g, budget=budget)
        except BudgetExceededError as err:
            assert str(err) == str(BudgetExceededError("bases of one girth", budget + 1, budget))
        else:
            assert verdict == check_dp_good(g)
        return None
    verdict = check_dp_good(g, budget=budget)
    if want is not None:
        assert verdict.satisfied
        assert verdict.certificate.to_json() == want
    else:
        assert verdict.status == "violated"
    assert verdict.detail.get("trees_tried", 0) == trees
    assert (verdict.witness is not None) is (trees == 0)
    return trees


def test_search_matches_oracle_on_small_graphs():
    statuses = Counter()
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            trees = assert_search_matches_oracle(g)
            for budget in range(1, trees):
                assert assert_search_matches_oracle(g, budget) is None
            assert assert_search_matches_oracle(g, max(trees, 1)) == trees
            statuses[check_dp_good(g).status, trees > 1] += 1
    assert statuses["satisfied", False] and statuses["violated", True]


def test_search_matches_oracle_on_seeded_graphs(rng):
    for _ in range(60):
        g = random_connected_graph(rng, lo=6, hi=9)
        for budget in (1, 2, 5, 40, 3000):
            assert_search_matches_oracle(g, budget)


def test_search_matches_oracle_on_shuffled_fig1(rng):
    # new vertex names and edge order move the first DP-good tree
    positions = set()
    for _ in range(40):
        names = list(range(14))
        rng.shuffle(names)
        edges = [(names[u], names[v]) for u, v in fig1_graph().edges]
        rng.shuffle(edges)
        positions.add(assert_search_matches_oracle(Graph(14, edges)))
    assert max(positions) > 100


def test_search_matches_oracle_on_figures():
    assert assert_search_matches_oracle(fig1_graph()) == 3781
    assert assert_search_matches_oracle(fig3b_graph()) == 61370


def test_fig1_budget_between_walked_trees_and_rank():
    # each girth takes its first basis, and the certified tree has rank
    # 3,781: a budget of 0 stops the search at its first basis, and any
    # budget from 1 on lets it answer, although up to 3,780 the oracle
    # runs past it
    for budget in (0, 1, 2, 388, 389, 390, 3780):
        assert assert_search_matches_oracle(fig1_graph(), budget) is None
    with pytest.raises(BudgetExceededError) as err:
        check_dp_good(fig1_graph(), budget=0)
    assert err.value.counter == "bases of one girth"
    for budget in (1, 2, 3780, 3781):
        verdict = check_dp_good(fig1_graph(), budget=budget)
        assert verdict.satisfied and verdict.detail["trees_tried"] == 3781


def oracle_first_bases(g, tree):
    """Per odd girth that needs labels, the first set of edges of that girth,
    in descending indicator order, that makes a DP-good tree for the oracle
    when it replaces the girth's part of `tree`; the sets have the size of
    that part and join what it joins together with the edges of smaller
    girth."""
    edges = list(g.edges)
    weight = oracle_weights(g)
    first = {}
    for level in sorted(set(weight) - {INFINITE}):
        at = [i for i, w in enumerate(weight) if w == level]
        part = [i for i in at if tree >> i & 1]
        if level % 2 == 0 or len(part) == len(at):
            continue
        below = [i for i, w in enumerate(weight) if w < level]
        rest = tree & ~mask_of(at)
        for basis in combinations(at, len(part)):  # descending indicator vectors
            if joined(g, below + list(basis)) != joined(g, below + at):
                continue
            trial = rest | mask_of(basis)
            if oracles.dp_good_labeling(g.n, edges, oracles.edge_girths(g.n, edges),
                                        set(mask_indices(trial))) is not None:
                first[level] = mask_of(basis)
                break
    return first


def assert_first_good_bases(g):
    """The certified tree's part at each girth is that girth's first good
    basis, the library's `_first_basis` and the oracle's, and its labels of
    that girth, with their witness cycles, are the ones `_first_basis`
    placed.  Returns the girths that needed labels."""
    verdict = check_dp_good(g)
    assert verdict.satisfied
    tree = verdict.certificate.tree
    girths = _girth_values(g)
    needed = _labels_needed(g, girths)
    want = oracle_first_bases(g, tree)
    assert set(want) == set(needed)
    cert = verdict.certificate
    for level, need in needed.items():
        part = tree & sum(1 << i for i, x in enumerate(girths) if x == level)
        basis, placed = _first_basis(g, girths, level, need, 10**6)
        assert basis == part == want[level]
        assert placed == [(e, c) for e, c in zip(cert.labeling, cert.witness_cycles)
                          if girths[e] == level]
    return len(needed)


def test_certified_tree_holds_the_first_good_basis_of_each_girth(rng):
    levels = Counter()
    for _ in range(8):
        names = list(range(14))
        rng.shuffle(names)
        edges = [(names[u], names[v]) for u, v in fig1_graph().edges]
        rng.shuffle(edges)
        levels["fig1"] += assert_first_good_bases(Graph(14, edges))
    levels["searched"] += assert_first_good_bases(Graph(9, SEARCHED_EDGES))
    seeded = 0
    while seeded < 12:
        g = random_connected_graph(rng, lo=6, hi=10)
        girths = _girth_values(g)
        needed = _labels_needed(g, girths)
        if needed and len(needed) > 1 and check_dp_good(g).satisfied:
            levels["seeded"] += assert_first_good_bases(g)
            seeded += 1
    assert levels["fig1"] == 16 and levels["searched"] == 1 and levels["seeded"] >= 24


# ---------------------------------------------------------------------------
# the girth-MST and rank tests against oracles

def rule_out_families():
    """400 seeded 5-10-vertex graphs, the figures, plane near-triangulations
    and complete multipartite graphs."""
    rng = random.Random(18)
    graphs = [random_connected_graph(rng, lo=5, hi=10) for _ in range(400)]
    graphs += [fig1_graph(), fig3b_graph()]
    for grow in (stacked_triangulation, outer_path_near_triangulation):
        graphs += [grow(n, rng) for n in (12, 17, 23)]
    graphs += [complete_multipartite(sizes)
               for sizes in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3), (3, 3))]
    return graphs


def oracle_weights(g):
    """Each edge's girth from the oracle, infinity for a bridge."""
    return [INFINITE if x is None else x for x in oracles.edge_girths(g.n, list(g.edges))]


def joined(g, indices):
    """The components of the spanning subgraph on some edges, from the oracle."""
    return len(oracles.components(g.n, list(g.edges), list(indices)))


def oracle_labels_needed(g):
    """`_labels_needed` from the definition: per odd girth g, how many edges
    of girth g a tree leaves out when, for every girth, its edges of at
    most that girth join what all of them join; None when the edges of even
    or infinite girth cannot all be in such a tree."""
    weight = oracle_weights(g)
    needed = {}
    for level in sorted(set(weight)):
        below = [i for i, w in enumerate(weight) if w < level]
        at = [i for i, w in enumerate(weight) if w == level]
        left_out = len(at) - (joined(g, below) - joined(g, below + at))
        if level == INFINITE or level % 2 == 0:
            if left_out:
                return None
        elif left_out:
            needed[level] = left_out
    return needed


def oracle_cycle_count(g, level):
    """The cycles of length `level` through an edge of that girth."""
    weight = oracle_weights(g)
    return sum(any(weight[g.edge_index(a, b)] == level for a, b in zip(c, c[1:] + c[:1]))
               for c in oracles.all_cycles(g.n, list(g.edges), level) if len(c) == level)


def is_girth_mst(g, tree):
    """Whether the tree holds every edge of even or infinite girth and, for
    each girth, its edges of girth at most that join what all such edges
    join."""
    weight = oracle_weights(g)
    if unlabelable_mask(g) & ~tree:
        return False
    for level in set(weight):
        upto = [i for i, w in enumerate(weight) if w <= level]
        if joined(g, upto) != joined(g, [i for i in upto if tree >> i & 1]):
            return False
    return True


def test_rule_out_tests_match_their_definitions():
    # after the girth-MST test the rank of the cycles of length at most g
    # never exceeds the labels of girth at most g, and the rank test holds
    # where it reaches them at every girth that needs labels; it implies
    # the older test that each girth has a distinct g-cycle per label
    fired = Counter()
    for g in rule_out_families():
        girths = _girth_values(g)
        needed = _labels_needed(g, girths)
        assert needed == oracle_labels_needed(g)
        fired["girth-mst"] += needed is None
        reached, total = True, 0
        for level, need in (needed or {}).items():
            total += need
            rank = oracles.cycle_space_rank(g.n, list(g.edges), level)
            assert rank <= total, (g, level)
            reached &= rank == total
            if reached:
                assert oracle_cycle_count(g, level) >= need, (g, level)
        if needed is not None:
            assert _rank_test(g, needed) is reached, g
            fired["rank"] += not reached
    assert fired["girth-mst"] and fired["rank"]


def test_rule_outs_agree_with_the_oracle_search():
    # a ruled-out graph reports every candidate tree, or the same budget
    # error, as the oracle search over the oracle's trees does; the oracle
    # labels every tree where there are at most 500 of them and the first
    # 500 elsewhere
    fired = Counter()
    for g in rule_out_families():
        girths = _girth_values(g)
        forced = unlabelable_mask(g)
        if joined(g, mask_indices(forced)) != g.n - forced.bit_count():
            continue  # the forced edges close the witness cycle
        needed = _labels_needed(g, girths)
        test = ("girth-mst" if needed is None else None if _rank_test(g, needed) else "rank")
        fired[test] += 1
        if test is None:
            verdict = check_dp_good(g, budget=20000)
            if verdict.satisfied:
                assert is_girth_mst(g, verdict.certificate.tree)
            continue
        trees = spanning_tree_count(g, forced)
        if trees <= 500:
            assert assert_search_matches_oracle(g) == trees
        else:
            assert assert_search_matches_oracle(g, 500) is None
        for budget in (1, 2, 5, 40):
            assert assert_search_matches_oracle(g, budget) == (trees if trees <= budget else None)
        # a rule-out walks no basis, so no budget stops it
        verdict = check_dp_good(g, budget=1)
        assert verdict.status == "violated" and verdict.detail["trees_tried"] == trees
    assert fired["girth-mst"] and fired["rank"] and fired[None]


def test_rank_test_stops_dense_violated_graphs_at_once():
    # three graphs of the family pass the girth-MST test and have a
    # distinct triangle per label, yet no DP-good tree; the rank test
    # rules each out without a tree, with the verdict of labeling every
    # candidate tree in turn, however many there are
    family = rule_out_families()
    for index, trees in ((282, 592694), (359, 44702)):
        g = family[index]
        assert not _rank_test(g, _labels_needed(g, _girth_values(g)))
        verdict = check_dp_good(g)
        assert verdict.status == "violated" and verdict.detail["trees_tried"] == trees
    g = family[173]
    assert (g.n, g.m) == (10, 32)
    assert spanning_tree_count(g, unlabelable_mask(g)) == 3559283
    start = perf_counter()
    verdict = check_dp_good(g)
    assert perf_counter() - start < 1.0
    assert verdict.status == "violated" and verdict.detail["trees_tried"] == 3559283


# 11 vertices, 30 edges, from a seeded comparison: the girth-MST test rules
# it out, and it has more candidate trees than the default budget
MST_RULED_OUT_EDGES = [(0, 5), (3, 6), (0, 9), (2, 10), (3, 8), (0, 8), (6, 8), (1, 8), (5, 6),
                       (2, 9), (2, 8), (6, 9), (3, 5), (0, 4), (5, 9), (3, 7), (1, 4), (4, 5),
                       (1, 5), (2, 3), (1, 3), (8, 9), (6, 7), (0, 7), (6, 10), (3, 4), (0, 6),
                       (5, 10), (2, 7), (4, 9)]


def test_girth_mst_rule_out_answers_past_the_tree_count():
    # the budget caps the bases walked, and a rule-out walks none, so the
    # verdict stands with its 1,222,286 candidate trees, at once
    g = Graph(11, MST_RULED_OUT_EDGES)
    assert _labels_needed(g, _girth_values(g)) is None
    start = perf_counter()
    verdict = check_dp_good(g)
    assert perf_counter() - start < 0.5
    assert verdict.status == "violated" and verdict.detail["trees_tried"] == 1222286
    assert spanning_tree_count(g, unlabelable_mask(g)) == 1222286
    dp_good = {v.condition: v for v in classify(g, budget=1)}["dp-good"]
    assert dp_good.detail == verdict.detail


def test_shortest_path_walk_follows_reached_vertices():
    # edge 0 = uv has girth 5: its shortest cycles close the u-v paths
    # u a m b v, u a m d v, u c m b v and u c m d v, which meet at m
    u, v, a, b, c, d, m = range(7)
    g = Graph(7, [(u, v), (u, a), (a, m), (m, b), (b, v),
                  (u, c), (c, m), (m, d), (d, v)])

    def available(*pairs):
        return sum(1 << g.edge_index(x, y) for x, y in pairs)

    # switching from the path through a and b to the one through c and d at m
    switch = available((u, a), (a, m), (m, d), (d, v))
    # each step of the path has an available edge, but a-m is missing, so
    # nothing from u reaches m
    broken = available((u, a), (c, m), (m, b), (b, v))
    for mask, placeable in ((switch, True), (broken, False)):
        placed = _place(g, 5, [0], mask)
        assert (placed is not None) is placeable
        adj = oracles.sorted_adjacency(g.n, list(g.edges), mask_indices(mask))
        path = oracles.bfs_path(adj, u, v, 4)
        assert (path is not None) is placeable
        if placeable:
            assert placed == [(0, Cycle.from_vertices(g, path))]


# ---------------------------------------------------------------------------
# certificate verification

def test_k4_star_certificate_any_order():
    g = complete_graph(4)
    tree = mask_of([0, 1, 2])  # edges at vertex 0
    triangle = {3: (0, 1, 2), 4: (0, 1, 3), 5: (0, 2, 3)}
    for order in ([3, 4, 5], [5, 3, 4], [4, 5, 3]):
        cert = DpGoodCertificate(tree, tuple(order),
                                 tuple(Cycle(triangle[e]) for e in order))
        assert certificate_failure_reason(g, cert) is None


def test_fig1_certificate_verifies():
    assert certificate_failure_reason(fig1_graph(), fig1_certificate()) is None


def test_fig1_certificate_reordered_fails():
    cert = fig1_certificate()
    bad = DpGoodCertificate(
        cert.tree,
        cert.labeling[-2:] + cert.labeling[:-2],
        cert.witness_cycles[-2:] + cert.witness_cycles[:-2],
    )
    assert certificate_failure_reason(fig1_graph(), bad) == "girths-not-sorted"


def test_certificate_malformed_reasons():
    g = complete_graph(4)
    tree = mask_of([0, 1, 2])
    tri = Cycle((0, 1, 2))
    ok = DpGoodCertificate(tree, (3, 4, 5),
                           (tri, Cycle((0, 1, 3)), Cycle((0, 2, 3))))
    assert certificate_failure_reason(g, ok) is None

    bad_tree = DpGoodCertificate(mask_of([0, 1]), (3, 4, 5), ok.witness_cycles)
    assert certificate_failure_reason(g, bad_tree) == "tree-size"

    wrong_label = DpGoodCertificate(tree, (3, 4, 4), ok.witness_cycles)
    assert certificate_failure_reason(g, wrong_label) == "labeling-not-the-non-tree-edges"

    not_cycle = DpGoodCertificate(tree, (3, 4, 5),
                                  (tri, Cycle((0, 1, 3)), Cycle((0, 2, 9))))
    assert certificate_failure_reason(g, not_cycle) == "witness-2-not-a-cycle"

    misses = DpGoodCertificate(tree, (3, 4, 5),
                               (tri, tri, Cycle((0, 2, 3))))
    assert certificate_failure_reason(g, misses) == "witness-cycles-not-distinct"

    # C4-like even girth rejection
    c4 = cycle_graph(4)
    cert = DpGoodCertificate(mask_of([0, 1, 2]), (3,), (Cycle((0, 1, 2, 3)),))
    assert certificate_failure_reason(c4, cert) == "labeled-edge-has-even-girth"


def test_certificate_unavailable_edges_detected():
    g = fig1_graph()
    cert = fig1_certificate()
    # swap the long-cycle order: the outer 5-cycle needs edge 2 available first
    labeling = list(cert.labeling)
    cycles = list(cert.witness_cycles)
    labeling[6], labeling[7] = labeling[7], labeling[6]
    cycles[6], cycles[7] = cycles[7], cycles[6]
    bad = DpGoodCertificate(cert.tree, tuple(labeling), tuple(cycles))
    assert certificate_failure_reason(g, bad) == "witness-6-uses-unavailable-edges"


# K4's star at vertex 0 (edges 0-2) labels edges 3 = 12, 4 = 13 and 5 = 23
K4_STAR = mask_of([0, 1, 2])
K4_TRIANGLES = (Cycle((0, 1, 2)), Cycle((0, 1, 3)), Cycle((0, 2, 3)))
# a triangle with a pendant edge 3 = 23, a bridge
PENDANT_TRIANGLE = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize("g,cert,reason", [
    (complete_graph(4), DpGoodCertificate(1 << 6, (3, 4, 5), K4_TRIANGLES),
     "tree-mask-out-of-range"),
    (complete_graph(4), DpGoodCertificate(-1, (3, 4, 5), K4_TRIANGLES),
     "tree-mask-out-of-range"),
    # three edges, but a triangle that leaves vertex 3 out
    (complete_graph(4), DpGoodCertificate(mask_of([0, 1, 3]), (2, 4, 5), K4_TRIANGLES),
     "tree-not-spanning"),
    # labeling the bridge 23 leaves it out of a tree of the right size,
    # which then cannot span: every spanning tree holds every bridge
    (PENDANT_TRIANGLE, DpGoodCertificate(mask_of([0, 1, 2]), (3,), (Cycle((0, 1, 2)),)),
     "tree-not-spanning"),
    (complete_graph(4), DpGoodCertificate(K4_STAR, (3, 4, 5), K4_TRIANGLES[:2]),
     "cycle-count"),
    # a 4-cycle through edge 12 where its girth is 3
    (complete_graph(4), DpGoodCertificate(K4_STAR, (3, 4, 5),
                                          (Cycle((0, 1, 2, 3)),) + K4_TRIANGLES[1:]),
     "witness-0-wrong-length"),
    # the triangle 013 has the right length but not edge 12
    (complete_graph(4), DpGoodCertificate(K4_STAR, (3, 4, 5),
                                          (K4_TRIANGLES[1], K4_TRIANGLES[0], K4_TRIANGLES[2])),
     "witness-0-misses-its-edge"),
], ids=["mask-too-large", "mask-negative", "tree-not-spanning", "labels-a-bridge",
        "cycle-count", "wrong-length", "misses-its-edge"])
def test_certificate_failure_reason_codes(g, cert, reason):
    assert certificate_failure_reason(g, cert) == reason


def test_certificate_json_round_trip():
    g = fig1_graph()
    cert = fig1_certificate()
    data = json.loads(json.dumps(cert.to_json()))
    back = DpGoodCertificate.from_json(data)
    assert back == cert
    assert certificate_failure_reason(g, back) is None


# ---------------------------------------------------------------------------
# vertex orders

def test_k4_any_order_satisfies():
    g = complete_graph(4)
    from itertools import permutations

    for order in permutations(range(4)):
        assert check_vertex_order(g, order).satisfied


def test_c4_every_order_fails():
    g = cycle_graph(4)
    from itertools import permutations

    for order in permutations(range(4)):
        assert check_vertex_order(g, order).status == "violated"
    assert check_vertex_order(g).status == "violated"


def test_vertex_order_search_returns_verifiable_order(rng):
    hits = 0
    for _ in range(40):
        g = random_connected_graph(rng, lo=2, hi=6)
        verdict = check_vertex_order(g)
        if verdict.satisfied:
            hits += 1
            assert check_vertex_order(g, verdict.certificate).satisfied
    assert hits > 0


def test_complete_tripartite_is_orderable():
    verdict = check_vertex_order(complete_multipartite([1, 1, 2]))
    assert verdict.satisfied and verdict.implied == DP_STAR


def assert_vertex_order_matches_oracle(n, edges):
    # the same status, and the same order: each last vertex the least that
    # can end a valid order of what is left
    expected = oracles.vertex_order(n, edges)
    verdict = check_vertex_order(Graph(n, edges))
    assert verdict.status == ("violated" if expected is None else "satisfied"), edges
    assert verdict.certificate == (None if expected is None else tuple(expected)), edges
    return expected is not None


def test_vertex_order_search_matches_oracle_on_small_graphs():
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            assert_vertex_order_matches_oracle(n, edges)


def test_vertex_order_search_matches_oracle_on_seeded_graphs(rng):
    found = 0
    for _ in range(150):
        g = random_connected_graph(rng, lo=8, hi=10)
        found += assert_vertex_order_matches_oracle(g.n, list(g.edges))
    assert 0 < found < 150


def test_vertex_order_and_census_on_the_graph_atlas():
    # every connected graph on at most 7 vertices: the search agrees with the
    # oracle, and classify gives each graph exactly one class but one, C7^2
    nx = pytest.importorskip("networkx")
    found = 0
    census = Counter()
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() == 0 or not nx.is_connected(atlas):
            continue
        n, edges = atlas.number_of_nodes(), sorted(tuple(sorted(e)) for e in atlas.edges())
        found += assert_vertex_order_matches_oracle(n, edges)
        implied = tuple(sorted({v.implied for v in classify(Graph(n, edges)) if v.satisfied}))
        census[implied] += 1
        if not implied:
            assert nx.is_isomorphic(atlas, nx.circulant_graph(7, [1, 2]))
    assert found == 505
    assert census == {(DP_STAR,): 540, (DP_LESS,): 455, (): 1}


def test_vertex_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        check_vertex_order(cycle_graph(4), [0, 1, 2, 2])


def test_order_implies_dp_good_small():
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            if check_vertex_order(g).satisfied:
                assert check_dp_good(g).satisfied


def test_dp_good_graphs_have_dp_equal_chromatic_at_small_m():
    # desk-scale soundness: satisfied certificates really mark covers whose
    # minimum matches the chromatic count for small fold numbers
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            if len(edges) - (n - 1) > 3:
                continue
            g = Graph(n, edges)
            if check_dp_good(g).satisfied:
                p = chromatic_polynomial(g)
                for m in (2, 3):
                    assert dp_exact(g, m).value == p(m)


# ---------------------------------------------------------------------------
# balanced orientations and crossing sets

def test_balanced_orientation_c4():
    g = cycle_graph(4)
    est = OrientedEdgeSet.from_pairs(g, [(0, 1)])
    verdict = check_balanced_orientation(g, est)
    assert verdict.satisfied and verdict.implied == DP_LESS
    assert verdict.certificate["set_girth"] == 4


def test_balanced_orientation_k4_single_edge_fails():
    g = complete_graph(4)
    est = OrientedEdgeSet.from_pairs(g, [(0, 1)])
    verdict = check_balanced_orientation(g, est)
    assert verdict.status == "violated"
    assert verdict.detail["set_girth"] == 3


def test_balanced_orientation_empty_set_error():
    with pytest.raises(ValueError):
        check_balanced_orientation(cycle_graph(4), OrientedEdgeSet(0, ()))


def test_balanced_orientation_matches_brute_force_evaluation():
    # plain 4-cycle and the 4-cycle plus a chord; every edge set of size
    # one or two, every orientation, against a direct conditions check
    from itertools import combinations, product

    graphs = [cycle_graph(4), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])]
    for g in graphs:
        cycles = oracles.all_cycles(g.n, list(g.edges))
        for k in (1, 2):
            for subset in combinations(range(g.m), k):
                for tails_choice in product(*[g.edges[i] for i in subset]):
                    tails = dict(zip(subset, tails_choice))
                    est = OrientedEdgeSet.from_tails(g, tails)
                    got = check_balanced_orientation(g, est)
                    r0, _ = oracles.edge_set_girth(g.n, list(g.edges), set(subset))
                    expect = (r0 is not None and r0 % 2 == 0
                              and _oracle_balanced(g, tails, cycles, r0))
                    assert got.satisfied == expect


def _oracle_balanced(g, tails, cycles, bound):
    for cyc in cycles:
        if len(cyc) >= bound:
            continue
        along = against = 0
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            i = g.edge_index(a, b)
            if i in tails:
                if tails[i] == a:
                    along += 1
                else:
                    against += 1
        if along + against and along != against:
            return False
    return True


def test_crossing_edge_set_c4():
    g = cycle_graph(4)
    verdict = check_crossing_edge_set(g, [0], [1], 1 << 0)
    assert verdict.satisfied
    assert verdict.certificate["set_girth"] == 4


def test_crossing_edge_set_fig3b():
    g = fig3b_graph()
    estar = g.edge_mask(FIG3B_CROSSING)
    verdict = check_crossing_edge_set(g, FIG3B_V1, FIG3B_V2, estar)
    assert verdict.satisfied and verdict.implied == DP_LESS
    assert verdict.certificate["set_girth"] == 4


def test_crossing_edge_set_k4_odd_girth():
    g = complete_graph(4)
    verdict = check_crossing_edge_set(g, [0], [1], 1 << g.edge_index(0, 1))
    assert verdict.status == "violated"


def test_crossing_edge_set_validation():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        check_crossing_edge_set(g, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        check_crossing_edge_set(g, [0], [1], 1 << 1)  # edge (1,2) not crossing
    with pytest.raises(ValueError, match="must be non-empty"):
        check_crossing_edge_set(g, [0], [1], 0)


def test_crossing_satisfied_implies_balanced_orientation(rng):
    # the class-to-class orientation must then pass the balance conditions
    def implication_holds(g, v1, v2, estar=None):
        verdict = check_crossing_edge_set(g, v1, v2, estar)
        if not verdict.satisfied:
            return False
        tails = {}
        s1 = set(v1)
        for item in verdict.certificate["orientation"]:
            tails[item["edge"]] = item["tail"]
            assert item["tail"] in s1
        est = OrientedEdgeSet.from_tails(g, tails)
        assert check_balanced_orientation(g, est).satisfied
        return True

    fig3b = fig3b_graph()
    c6 = cycle_graph(6)
    positives = [
        (cycle_graph(4), [0], [1], None),
        (c6, [0], [1], None),
        # three alternating edges of the 6-cycle: odd intersection, girth 6
        (c6, [0, 2, 4], [1, 3, 5], c6.edge_mask([(0, 1), (2, 3), (4, 5)])),
        (fig3b, FIG3B_V1, FIG3B_V2, fig3b.edge_mask(FIG3B_CROSSING)),
    ]
    for g, v1, v2, estar in positives:
        assert implication_holds(g, v1, v2, estar)
    # random splits rarely qualify, but whenever one does the
    # delegation must hold as well
    for _ in range(80):
        g = random_connected_graph(rng, lo=3, hi=6)
        v1 = [v for v in range(g.n) if rng.random() < 0.4]
        v2 = [v for v in range(g.n) if v not in v1 and rng.random() < 0.5]
        if v1 and v2:
            implication_holds(g, v1, v2)


def _core_with_handle(rng):
    """A connected bipartite graph and its two classes: a random core on 4-6
    vertices plus a path of new vertices (the handle) between two core
    vertices, and one edge of the handle."""
    k = rng.randint(4, 6)
    side = [0, 1] + [rng.randrange(2) for _ in range(k - 2)]
    edges = {(0, 1)}
    for v in range(2, k):
        edges.add((rng.choice([u for u in range(v) if side[u] != side[v]]), v))
    edges |= {(u, v) for u in range(k) for v in range(u + 1, k)
              if side[u] != side[v] and rng.random() < 0.6}
    x, y = rng.sample(range(k), 2)
    inner = rng.randint(2, 5)
    if inner % 2 == (side[x] != side[y]):  # the handle has inner + 1 edges
        inner += 1
    path = [x, *range(k, k + inner), y]
    side += [side[x] ^ (j & 1) for j in range(1, inner + 1)]
    edges |= {(min(p), max(p)) for p in zip(path, path[1:])}
    g = Graph(k + inner, sorted(edges))
    classes = [[v for v in range(g.n) if side[v] == c] for c in (0, 1)]
    j = rng.randrange(inner + 1)
    return g, classes, g.edge_index(path[j], path[j + 1])


def test_crossing_edge_set_matches_brute_force_arcs(rng):
    # E* is the edge cut of a random vertex set with one handle edge toggled,
    # so every cycle avoiding that edge meets E* evenly and the set girth is
    # at least the handle's: the shorter cycles then reach the cross-class
    # test, which random class splits almost never do
    reasons = Counter()
    for _ in range(400):
        g, (v1, v2), handle = _core_with_handle(rng)
        if rng.random() < 0.5:
            v1, v2 = v2, v1
        s = {v for v in range(g.n) if rng.random() < 0.5}
        estar = 1 << handle
        for i, (u, v) in enumerate(g.edges):
            estar ^= ((u in s) != (v in s)) << i
        if estar == 0:
            continue
        verdict = check_crossing_edge_set(g, v1, v2, estar)
        e0 = set(mask_indices(estar))
        assert verdict.satisfied == oracles.crossing_set_holds(g.n, list(g.edges), v1, v2, e0)
        reasons[verdict.detail.get("reason")] += 1
    assert reasons[None] >= 50
    assert reasons["a short cycle minus the crossing edges leaves a cross-class path"] >= 40


def test_twist_beats_chromatic_on_balanced_fixtures():
    pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
    for g in (cycle_graph(4), cycle_graph(6), pendant):
        est = OrientedEdgeSet.from_tails(g, {0: g.edges[0][0]})
        verdict = check_balanced_orientation(g, est)
        assert verdict.satisfied
        p = chromatic_polynomial(g)
        for m in range(2, 9):
            cov = twisted_cover(g, est, m)
            assert count_transversals(cov).value < p(m)


# ---------------------------------------------------------------------------
# the aggregate classifier

def test_each_condition_implies_its_one_class():
    # one satisfied verdict of each of the six conditions: the DP-good and
    # vertex-order conditions give DP*, the four set-girth conditions DP<
    c4 = cycle_graph(4)
    h = fig3b_graph()
    satisfied = [
        scan_even_girth(c4),
        check_dp_good(fig1_graph()),
        check_vertex_order(complete_graph(4)),
        check_balanced_orientation(c4, OrientedEdgeSet.from_pairs(c4, [(0, 1)])),
        check_crossing_edge_set(h, FIG3B_V1, FIG3B_V2, h.edge_mask(FIG3B_CROSSING)),
        search_quad_crossing(fixture("cycle:4")),
    ]
    assert all(v.satisfied for v in satisfied)
    assert {v.condition: v.implied for v in satisfied} == {
        "even-girth-edge": DP_LESS,
        "dp-good": DP_STAR,
        "connected-back-neighborhood-order": DP_STAR,
        "balanced-orientation": DP_LESS,
        "crossing-edge-set": DP_LESS,
        "quad-girth-crossing-set": DP_LESS,
    }
    assert all(v.to_json()["implied"] == v.implied for v in satisfied)
    # a violated or inconclusive verdict implies no class
    others = [scan_even_girth(complete_graph(4)), check_dp_good(fig3b_graph()),
              check_vertex_order(cycle_graph(5)), search_quad_crossing(complete_graph(4))]
    assert [v.status for v in others] == ["violated"] * 3 + ["inconclusive"]
    assert all(v.implied == v.to_json()["implied"] == UNKNOWN for v in others)


def test_classify_c6_even_girth():
    verdicts = classify(cycle_graph(6))
    by_name = {v.condition: v for v in verdicts}
    assert by_name["even-girth-edge"].satisfied
    assert by_name["even-girth-edge"].implied == DP_LESS
    assert not by_name["dp-good"].satisfied


def test_classify_k4_dp_star():
    verdicts = classify(complete_graph(4))
    by_name = {v.condition: v for v in verdicts}
    assert by_name["dp-good"].satisfied
    assert by_name["dp-good"].implied == DP_STAR
    assert by_name["even-girth-edge"].status == "violated"


def test_classify_fig1():
    verdicts = classify(fig1_graph())
    by_name = {v.condition: v for v in verdicts}
    assert by_name["dp-good"].satisfied and by_name["dp-good"].implied == DP_STAR
    assert by_name["even-girth-edge"].status == "violated"


def test_classify_reports_all_four_checks():
    verdicts = classify(cycle_graph(5))
    assert [v.condition for v in verdicts] == [
        "even-girth-edge", "dp-good", "connected-back-neighborhood-order",
        "quad-girth-crossing-set",
    ]


RANK_STOP = "no edge set has set girth four: every 4-cycle is a sum of triangles"
# no edge has girth 4, and the first star of set girth 4 is {02, 05}
STAR_FOUR = Graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                      (2, 5), (3, 4)])


def test_quad_rank_stop_ends_a_triangulation_search_at_once():
    # every 4-cycle of a stacked triangulation is a sum of triangles, so the
    # search stops after the single edges instead of trying every star
    g = stacked_triangulation(30, random.Random(2022))
    start = perf_counter()
    verdicts = classify(g)
    assert perf_counter() - start < 1.0
    quad = verdicts[-1].to_json()
    assert quad["status"] == "inconclusive"
    assert quad["detail"] == {"reason": RANK_STOP, "tried": g.m}


def test_quad_rank_stop_fires_only_without_set_girth_four():
    # brute force over every non-empty edge set of the graph
    fired = 0
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            verdict = search_quad_crossing(Graph(n, edges))
            if verdict.detail.get("reason") != RANK_STOP:
                continue
            fired += 1
            assert verdict.detail["tried"] == len(edges)
            for k in range(1, len(edges) + 1):
                for subset in combinations(range(len(edges)), k):
                    assert oracles.edge_set_girth(n, list(edges), set(subset))[0] != 4
    assert fired > 0
    # the rank rises at 4 here, so the search goes on past the single
    # edges, none of which has set girth four, to a star that has
    verdict = search_quad_crossing(STAR_FOUR)
    assert verdict.satisfied and verdict.certificate["v2"] == [2, 5]


def test_quad_singles_call_edge_set_girth_only_for_a_witness(monkeypatch, rng):
    # a single edge's set girth is its edge girth, read from the girth table,
    # and a star's is decided from its centre's neighbourhood; only the first
    # fitting candidate runs edge_set_girth, on the certificate's edges, for
    # its witness
    calls = []

    def spy(g, mask):
        calls.append(mask)
        return edge_set_girth(g, mask)

    monkeypatch.setattr(classify_module, "edge_set_girth", spy)
    # fig3b tries 22 singles and 266 stars, and none fits
    graphs = [fig1_graph(), fig3b_graph(), complete_graph(5), STAR_FOUR]
    graphs += [random_connected_graph(rng, lo=4, hi=10) for _ in range(80)]
    seen = Counter()
    for g in graphs:
        calls.clear()
        verdict = search_quad_crossing(g)
        fours = [i for i, x in enumerate(oracle_weights(g)) if x == 4]
        if verdict.satisfied:
            edges = verdict.certificate["edges"]
            assert calls == [sum(1 << i for i in edges)]
            assert edges == fours[:1] if fours else len(edges) > 1
            seen["single" if fours else "star"] += 1
        else:
            assert calls == [] and not fours
            seen["none"] += 1
    assert seen["single"] and seen["star"] and seen["none"]


def test_star_rule_matches_the_set_girth_oracle(rng):
    # a star fits exactly when the oracle's shortest cycle meeting it oddly
    # has length 4; the stacked torus's vertex 0 has 2^24 - 25 stars, so
    # there only the first 2,300 (the stars of 2 and 3 edges) are compared
    graphs = [fig1_graph(), fig3b_graph(), complete_graph(4), complete_graph(5),
              stacked_torus()]
    graphs += [random_connected_graph(rng, lo=4, hi=10) for _ in range(200)]
    fits = Counter()
    for g in graphs:
        nbr = _neighbor_masks(g)
        for v, pairs in enumerate(g._incidence):
            subs = list(islice((sub for size in range(2, len(pairs) + 1)
                                for sub in combinations(pairs, size)), 2300))
            found = list(islice(_star_fits(g, nbr, v), 2300))
            assert len(found) == len(subs)
            for sub, fit in zip(subs, found):
                edges = [i for _, i in sub]
                four = oracles.edge_set_girth(g.n, list(g.edges), edges, 4)[0] == 4
                star = ((v,), tuple(w for w, _ in sub), sum(1 << i for i in edges))
                assert fit == (star if four else None)
                fits[four] += 1
    assert fits[True] > 100 and fits[False] > 10000


def test_quad_search_meets_its_budget_on_the_stacked_torus_in_seconds():
    # every edge has girth 3 but the cycle rank rises at length 4, so the
    # search tries the 102 single edges and then the stars at vertex 0, of
    # degree 24, until the budget stops it.  About 1.6 s on a shared 2-core
    # host; one set-girth search per star took 1.8 s per 20,000 stars there
    g = stacked_torus()
    assert (g.n, g.m, g.degree(0)) == (34, 102, 24)
    assert set(_girth_values(g)) == {3}
    ranks = cycle_space_ranks(g, (3, 4))
    assert ranks[4] > ranks[3]
    start = perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        search_quad_crossing(g)
    assert perf_counter() - start < 10.0
    assert str(info.value) == (
        "quad candidates: reached 1000001, over the budget of 1000000")


def test_quad_budget_counts_every_single_and_star():
    # fig3b has 22 single edges and no edge of girth 4, then 266 stars
    g = fig3b_graph()
    for budget in (1, 21, 22, 287):
        with pytest.raises(BudgetExceededError) as info:
            search_quad_crossing(g, budget=budget)
        assert str(info.value) == (
            f"quad candidates: reached {budget + 1}, over the budget of {budget}")
    verdict = search_quad_crossing(g, budget=288)
    assert verdict.status == "inconclusive" and verdict.detail["tried"] == 288
    # fig1's rank stop ends its search after its 21 single edges
    assert search_quad_crossing(fig1_graph(), budget=21).detail == {
        "reason": RANK_STOP, "tried": 21}


@pytest.mark.parametrize("name", ["outer-path-400", "stacked-400", "K10,10,10"])
def test_classify_answers_on_large_near_triangulations_and_multipartite(name, horton_calls):
    # about 0.3 s each on a shared 2-core host; before the quad search read
    # its single edges off the girth table, 95 s, 18 s and 0.67 s.  The
    # vertex-order search decides few of the 2^n sets, so it answers too.
    # The triangles span the cycle space, so the quad search's rank stop
    # reads the ranks the DP-good rank test left on the graph: Horton's
    # candidates are generated once
    g = {"outer-path-400": lambda: outer_path_near_triangulation(400, random.Random(1)),
         "stacked-400": lambda: stacked_triangulation(400, random.Random(1)),
         "K10,10,10": lambda: complete_multipartite((10, 10, 10))}[name]()
    start = perf_counter()
    verdicts = classify(g)
    assert perf_counter() - start < 10.0
    assert [(v.condition, v.status) for v in verdicts] == [
        ("even-girth-edge", "violated"),
        ("dp-good", "satisfied"),
        ("connected-back-neighborhood-order", "satisfied"),
        ("quad-girth-crossing-set", "inconclusive")]
    assert verdicts[3].detail == {"reason": RANK_STOP, "tried": g.m}
    assert horton_calls == [1]


# two graphs outside every condition classify checks
G10 = Graph(10, [(0, 1), (0, 2), (0, 9), (1, 2), (1, 7), (1, 9), (2, 4), (2, 7), (3, 4),
                 (3, 8), (3, 9), (4, 7), (4, 8), (5, 9), (6, 7), (8, 9)])
C7_SQUARED = Graph(7, [(i, (i + d) % 7) for i in range(7) for d in (1, 2)])


def classify_timed(g):
    start = perf_counter()
    verdicts = classify(g)
    assert perf_counter() - start < 0.5  # about 5 ms each
    assert [v.status for v in verdicts[:3]] == ["violated"] * 3
    assert verdicts[3].status == "inconclusive"
    assert sorted({v.implied for v in verdicts if v.satisfied}) == []
    return verdicts


def test_g10_lies_outside_every_condition():
    # no edge has even girth, and no tree is DP-good: it needs 7 labels of
    # girth 3, but its triangles have rank 6 and its 5-cycles raise it to 7
    verdicts = classify_timed(G10)
    assert [v.condition for v in verdicts[:3]] == [
        "even-girth-edge", "dp-good", "connected-back-neighborhood-order"]
    needed = _labels_needed(G10, _girth_values(G10))
    assert needed == {3: 7} and not _rank_test(G10, needed)
    assert cycle_space_ranks(G10, (3, 4, 5)) == {3: 6, 4: 6, 5: 7}
    # so no edge set has set girth four either
    assert verdicts[3].detail == {"reason": RANK_STOP, "tried": 16}


def test_c7_squared_lies_outside_every_condition_but_a_class_pair():
    verdicts = classify_timed(C7_SQUARED)
    assert verdicts[3].detail == {
        "reason": "no candidate in the searched space has set-girth four; the search "
                  "is not exhaustive",
        "tried": 91}
    # the class pair V1 = {3, 4}, V2 = {5, 6} has set girth four
    verdict = check_crossing_edge_set(C7_SQUARED, [3, 4], [5, 6])
    assert verdict.satisfied and verdict.certificate["set_girth"] == 4


class CountingMemo(dict):
    """A graph memo that records every table stored in it by name."""

    def __init__(self):
        super().__init__()
        self.stored = Counter()

    def __setitem__(self, key, value):
        self.stored[key] += 1
        super().__setitem__(key, value)


def test_classify_computes_edge_girths_once():
    # every check of classify reads one girth table, built on the graph's
    # first call and kept on the graph for every later one
    family = [fig1_graph(), fig3b_graph(), fig1_graph()]
    for g in family:
        g._memo = CountingMemo()
        for _ in range(2):
            classify(g)
    assert [g._memo.stored["girths"] for g in family] == [1, 1, 1]
    assert all(_girth_values(g) is g._memo["girths"] for g in family)


def test_classify_keeps_no_reference_to_the_graph():
    # the tables classify builds live on the graph, so once it returns no
    # module state holds the graph
    for g in (fig1_graph(), complete_multipartite((2, 3, 4)), G10):
        before = sys.getrefcount(g)
        classify(g)
        assert sys.getrefcount(g) == before


def test_scan_even_girth_odd_graph():
    verdict = scan_even_girth(complete_graph(4))
    assert verdict.status == "violated"
    assert verdict.detail["edge_girths"] == [3] * 6


def test_verdicts_serialize_to_json(rng):
    for g in (cycle_graph(4), cycle_graph(5), complete_graph(4), fig1_graph()):
        for verdict in classify(g):
            blob = json.dumps(verdict.to_json(), ensure_ascii=False)
            assert json.loads(blob)["condition"] == verdict.condition
