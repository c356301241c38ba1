import concurrent.futures
import math
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

import oracles
from conftest import connected_edge_sets, random_connected_graph, random_edges

from dpchroma import (
    BudgetExceededError,
    Cover,
    Graph,
    OrientedEdgeSet,
    build_cover,
    canonical_cover,
    check_dp_good,
    check_vertex_order,
    chromatic_polynomial,
    complete_graph,
    count_transversals,
    cycle_graph,
    dp_exact,
    enumerate_cycles,
    fig1_graph,
    fig3b_graph,
    path_graph,
    search_quad_crossing,
    sloping_report,
    twisted_cover,
)
from dpchroma.covers import (MAX_FOLD, SWEEP_COUNTER, _best_matching, _invert, _orbit_heads,
                             _pair_counts)
from dpchroma.graphs import _bases, _search_plan, bfs_tree
from test_classify import SEARCHED_EDGES


def random_cover(rng, g, m):
    perms = {i: list(rng.sample(range(m), m)) for i in range(g.m)}
    return Cover(g, m, tuple(tuple(perms[i]) for i in range(g.m))), perms


# ---------------------------------------------------------------------------
# build_cover and normalization

def test_identity_assignment_is_horizontal():
    g = cycle_graph(4)
    cov, report = build_cover(g, 3, None)
    assert report.sloping == 0
    assert cov.perms == canonical_cover(g, 3).perms


def test_shift_on_tree_edge_migrates_to_nontree_edge():
    g = cycle_graph(4)
    shift = (1, 2, 0)
    cov, report = build_cover(g, 3, {0: shift})
    # exactly one sloping edge survives, with full support
    assert bin(report.sloping).count("1") == 1
    e = report.sloping.bit_length() - 1
    assert report.x_size(e) == 3
    assert report.y_set(e) == frozenset({0, 1, 2})


def test_k3_all_swaps_normalizes_to_one_swap():
    g = complete_graph(3)
    swap = (1, 0)
    cov, report = build_cover(g, 2, {0: swap, 1: swap, 2: swap})
    assert bin(report.sloping).count("1") == 1
    e = report.sloping.bit_length() - 1
    assert cov.perms[e] == swap


def test_build_cover_pinned_normalization():
    # recorded before the BFS walks were merged: fixes the BFS tree from
    # vertex 0 that the gauges follow
    cov, report = build_cover(fig1_graph(), 3, {0: [1, 2, 0], 5: [2, 0, 1]})
    assert cov.to_json() == {"m": 3, "perms": {"2": [1, 2, 0], "15": [2, 0, 1],
                                               "20": [1, 2, 0]}}
    assert report.sloping == 1081348 == (1 << 2) | (1 << 15) | (1 << 20)


def test_build_cover_rejects_non_bijections():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        build_cover(g, 2, {0: (0, 0)})


def test_build_cover_requires_connected():
    with pytest.raises(ValueError):
        build_cover(Graph(4, [(0, 1), (2, 3)]), 2, None)


def test_normalization_preserves_counts(rng):
    for _ in range(60):
        g = random_connected_graph(rng, lo=2, hi=6)
        m = rng.randint(1, 3)
        raw, raw_perms = random_cover(rng, g, m)
        cov, _ = build_cover(g, m, raw_perms)
        direct = oracles.transversal_count(g.n, list(g.edges),
                                           [tuple(raw_perms[i]) for i in range(g.m)], m)
        assert count_transversals(g, raw).value == direct
        assert count_transversals(g, cov).value == direct


def test_sloping_report_sizes_match():
    g = cycle_graph(5)
    cov, report = build_cover(g, 4, {2: (1, 0, 2, 3), 4: (1, 2, 3, 0)})
    for e, size in report.x_sizes:
        assert size == len(report.y_set(e))


# ---------------------------------------------------------------------------
# twisted covers

def test_twisted_empty_set_is_canonical():
    g = cycle_graph(4)
    cov = twisted_cover(g, OrientedEdgeSet.from_tails(g, {}), 3)
    assert cov.perms == canonical_cover(g, 3).perms
    assert count_transversals(g, cov).value == chromatic_polynomial(g)(3)


@pytest.mark.parametrize("maker,m,expected", [
    (cycle_graph, 3, 15),   # P(C4, 3) = 18
    (cycle_graph, 2, 0),
])
def test_twisted_c4(maker, m, expected):
    g = maker(4)
    est = OrientedEdgeSet.from_tails(g, {0: 0})
    cov = twisted_cover(g, est, m)
    assert sloping_report(cov).sloping == 1
    assert count_transversals(g, cov).value == expected


def test_twisted_c3_exceeds_chromatic_count():
    g = cycle_graph(3)
    est = OrientedEdgeSet.from_tails(g, {0: 0})
    assert count_transversals(g, twisted_cover(g, est, 3)).value == 9
    assert chromatic_polynomial(g)(3) == 6
    assert count_transversals(g, twisted_cover(g, est, 2)).value == 2
    assert chromatic_polynomial(g)(2) == 0


def test_twisted_direction_matters_for_perms():
    g = cycle_graph(4)
    down = twisted_cover(g, OrientedEdgeSet.from_tails(g, {0: 1}), 3)
    up = twisted_cover(g, OrientedEdgeSet.from_tails(g, {0: 0}), 3)
    assert down.perms[0] == (2, 0, 1)
    assert up.perms[0] == (1, 2, 0)


# ---------------------------------------------------------------------------
# counting, against the brute-force oracle

def test_canonical_cover_counts_are_chromatic(rng):
    for _ in range(20):
        g = random_connected_graph(rng, lo=2, hi=6)
        m = rng.randint(1, 3)
        cov = canonical_cover(g, m)
        expected = chromatic_polynomial(g)(m)
        assert count_transversals(g, cov).value == expected


def test_counting_methods_agree_on_random_covers(rng):
    # besides 120 graphs on 2-6 vertices, some disconnected: n = 1, edgeless
    # graphs, m = 1, and sparse 7-9 vertex graphs, whose search frontier
    # drops vertices so that stored counts are reused
    shapes = [(rng.randint(2, 6), rng.uniform(0.3, 0.8), rng.randint(1, 3))
              for _ in range(120)]
    shapes += [(1, 0.0, 1), (1, 0.0, 3), (4, 0.0, 2), (4, 0.9, 1)]
    shapes += [(rng.randint(7, 9), 0.25, rng.randint(2, 3)) for _ in range(20)]
    for n, p, m in shapes:
        g = Graph(n, random_edges(rng, n, p))
        cov, _ = random_cover(rng, g, m)
        direct = oracles.transversal_count(n, list(g.edges), list(cov.perms), m)
        assert count_transversals(g, cov).value == direct


def test_frontier_search_reuses_counts_on_a_long_path():
    # the plain search would visit 3 * 2^39 leaves; the pass keeps one state
    # per shift class of the frontier's single vertex: 3 nodes at vertex 0,
    # then 2 for the one state (0,) at each of the 39 others, 81 in all.
    # Renamed, it keeps one state per value: 3 + 39 * 3*2 = 237 nodes
    g = path_graph(40)
    assert count_transversals(g, canonical_cover(g, 3), node_budget=81).value == 3 * 2**39
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, canonical_cover(g, 3), node_budget=80)
    assert (err.value.attempted, err.value.budget) == (81, 80)
    other = renamed(canonical_cover(g, 3), random.Random(40))
    assert not is_cyclic(other)
    assert count_transversals(g, other, node_budget=237).value == 3 * 2**39
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, other, node_budget=236)
    assert (err.value.attempted, err.value.budget) == (237, 236)


def rotation(m, s):
    return tuple((x + s) % m for x in range(m))


def renamed(cov, rng):
    """The cover with each fibre renamed by a random permutation: an
    isomorphic cover, so it has the same count."""
    names = [rng.sample(range(cov.m), cov.m) for _ in range(cov.graph.n)]
    perms = tuple(tuple(names[v][p[x]] for x in _invert(names[u]))
                  for (u, v), p in zip(cov.graph.edges, cov.perms))
    return Cover(cov.graph, cov.m, perms)


def is_cyclic(cov):
    return all(p == rotation(cov.m, p[0]) for p in cov.perms)


def test_frontier_search_stores_nothing_on_a_complete_graph():
    # no vertex of K7 leaves the frontier before the last one is placed, so
    # on a renamed (not cyclic) cover every prefix is its own state and the
    # pass generates the sum of 7!/(7-k)! nodes.  On the canonical cover a
    # state is a shift class of 7 prefixes, which divides the nodes after
    # the first vertex by 7: 7 + (13699 - 7) / 7 = 1963
    g = complete_graph(7)
    budget = sum(math.factorial(7) // math.factorial(7 - k) for k in range(1, 8))
    assert budget == 13699
    cov = renamed(canonical_cover(g, 7), random.Random(7))
    assert not is_cyclic(cov)
    assert count_transversals(g, cov, node_budget=budget).value == 5040
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, cov, node_budget=budget - 1)
    assert (err.value.attempted, err.value.budget) == (13699, 13698)
    assert count_transversals(g, canonical_cover(g, 7), node_budget=1963).value == 5040
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, canonical_cover(g, 7), node_budget=1962)
    assert (err.value.attempted, err.value.budget) == (1963, 1962)


def test_shift_covers_match_both_oracles(rng):
    # sparse connected graphs, whose frontier drops vertices, so counts are
    # stored and shared between frontier values that differ by a shift
    cases = 0
    while cases < 40:
        n, m = rng.randint(5, 9), rng.randint(2, 6)
        g = Graph(n, random_edges(rng, n, 0.4))
        if m ** n > 80_000 or g.m > 12 or not oracles.is_connected(n, list(g.edges)):
            continue
        cases += 1
        cov = Cover(g, m, tuple(rotation(m, rng.randrange(m)) for _ in g.edges))
        direct = oracles.transversal_count(n, list(g.edges), list(cov.perms), m)
        assert count_transversals(g, cov).value == direct


@pytest.mark.parametrize("maker,arcs", [
    (fig1_graph, [(0, 1)]),
    (fig3b_graph, [(2, 3), (2, 7), (6, 3), (0, 3), (2, 1)]),
], ids=["fig1", "fig3b"])
@pytest.mark.parametrize("m", [8, 10])
def test_renamed_shift_cover_counts_without_the_shift(maker, arcs, m):
    # the renamed cover is not cyclic, so its search keys on plain values
    g = maker()
    cov = twisted_cover(g, OrientedEdgeSet.from_pairs(g, arcs), m)
    other = renamed(cov, random.Random(m))
    assert is_cyclic(cov) and not is_cyclic(other)
    assert count_transversals(g, other).value == count_transversals(g, cov).value


def test_rotations_and_one_transposition_match_the_oracle(rng):
    m = 4
    for _ in range(20):
        g = random_connected_graph(rng, lo=5, hi=7)
        perms = [rotation(m, rng.randrange(m)) for _ in g.edges]
        perms[rng.randrange(g.m)] = (1, 0, 2, 3)
        cov = Cover(g, m, tuple(perms))
        assert not is_cyclic(cov)
        assert count_transversals(g, cov).value == \
            oracles.transversal_count(g.n, list(g.edges), perms, m)


def test_shift_cover_shares_counts_between_shifted_frontiers():
    # C6 placed 0..5 with a shift on edge 01 at m = 6: the frontier from
    # vertex 1 on is (x0, x(k-1)), and a state is its shift class, keyed on
    # d = x(k-1) - x0.  Nodes: 6 at vertex 0, 5 for the state (0,) at
    # vertex 1, 5 for each of the 5 states d != 1 at vertex 2 and of the 6
    # states at vertices 3-4, and 5 + 5*4 at vertex 5, where x5 avoids x0
    # and x4: 6 + 5 + 25 + 30 + 30 + 25 = 121.  Renamed, the cover is not
    # cyclic and keeps one state per frontier value: 6 + 6*5 + 30*5 + 36*5
    # + 36*5 + (6*5 + 30*4) = 696 nodes
    g = cycle_graph(6)
    cov = twisted_cover(g, OrientedEdgeSet.from_pairs(g, [(0, 1)]), 6)
    assert count_transversals(g, cov, node_budget=121).value == 5**6 - 1
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, cov, node_budget=120)
    assert (err.value.attempted, err.value.budget) == (121, 120)
    other = renamed(cov, random.Random(6))
    assert not is_cyclic(other)
    assert count_transversals(g, other, node_budget=696).value == 5**6 - 1
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, other, node_budget=695)
    assert (err.value.attempted, err.value.budget) == (696, 695)


def test_node_budget_counts_every_search_node():
    # K3 at m=3 from vertex 0: the canonical cover is cyclic, so the states
    # are shift classes: 3 nodes for vertex 0, 2 for the one state (0,), and
    # 1 for each of the states (0, 1) and (0, 2): 3 + 2 + 2 = 7 nodes, 6
    # transversals.  Renamed, it keeps the plain states: 3 + 3*2 + 6*1 = 15
    g, cov = complete_graph(3), canonical_cover(complete_graph(3), 3)
    assert count_transversals(g, cov, node_budget=7).value == 6
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, cov, node_budget=6)
    assert (err.value.attempted, err.value.budget) == (7, 6)
    other = renamed(cov, random.Random(3))
    assert not is_cyclic(other)
    assert count_transversals(g, other, node_budget=15).value == 6
    with pytest.raises(BudgetExceededError) as err:
        count_transversals(g, other, node_budget=14)
    assert (err.value.attempted, err.value.budget) == (15, 14)


@pytest.mark.parametrize("run", [
    lambda: dp_exact(complete_graph(4), 3, budget=10),
    lambda: count_transversals(complete_graph(5), canonical_cover(complete_graph(5), 3),
                               node_budget=6),
    lambda: enumerate_cycles(complete_graph(5), 5, budget=3),
    lambda: list(_bases(complete_graph(4), 0, range(6), 3, budget=5)),
    lambda: check_dp_good(Graph(9, SEARCHED_EDGES), budget=12),
    lambda: check_vertex_order(fig1_graph(), budget=63),
    lambda: search_quad_crossing(fig1_graph(), budget=3),
], ids=["dp_exact", "count_transversals", "enumerate_cycles",
        "_bases", "check_dp_good", "check_vertex_order", "search_quad_crossing"])
def test_budget_error_reports_progress(run):
    with pytest.raises(BudgetExceededError) as err:
        run()
    assert err.value.attempted > err.value.budget
    assert err.value.counter
    assert err.value.counter in str(err.value)
    assert str(err.value.budget) in str(err.value)


def test_count_budget_error():
    # K5 has no 3-colouring, and the pass finds that in 7 nodes (3 + 2 + 2)
    g = complete_graph(5)
    with pytest.raises(BudgetExceededError):
        count_transversals(g, canonical_cover(g, 3), node_budget=6)


def test_multiplicative_over_components(rng):
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        e1 = random_edges(rng, n1, 0.6)
        e2 = random_edges(rng, n2, 0.6)
        g1, g2 = Graph(n1, e1), Graph(n2, e2)
        joint = Graph(n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2])
        m = rng.randint(1, 3)
        c1, _ = random_cover(rng, g1, m)
        c2, _ = random_cover(rng, g2, m)
        cj = Cover(joint, m, c1.perms + c2.perms)
        assert count_transversals(joint, cj).value == \
            count_transversals(g1, c1).value * count_transversals(g2, c2).value


# ---------------------------------------------------------------------------
# dp_exact

def test_dp_exact_on_trees():
    for n in (2, 3, 5):
        g = path_graph(n)
        for m in (2, 3):
            report = dp_exact(g, m)
            assert report.value == m * (m - 1) ** (n - 1)
            assert report.minimizers == 1
            assert report.cover.perms == canonical_cover(g, m).perms


def test_dp_exact_on_a_tree_lists_no_permutations(monkeypatch):
    # (m!)^0 = 1 cover passes any budget, so a large m must cost nothing
    import dpchroma.covers as covers

    def refuse(*args):
        raise AssertionError("permutations listed for a tree")

    monkeypatch.setattr(covers, "permutations", refuse)
    assert dp_exact(path_graph(3), 12).value == 12 * 11 * 11


def test_dp_exact_on_one_cycle_lists_no_permutations(monkeypatch):
    # with one free edge the heads come from the partitions of m
    import dpchroma.covers as covers

    def refuse(*args):
        raise AssertionError("permutations listed for one free edge")

    monkeypatch.setattr(covers, "permutations", refuse)
    assert dp_exact(cycle_graph(4), 9).value == (9 - 1) ** 4 - 1


def plain_sweep(g, m):
    """Every assignment on the free edges of the BFS tree from vertex 0, in
    lexicographic order: (min count, first minimizing perms, minimizers)."""
    tree = bfs_tree(g, 0)
    free = [i for i in range(g.m) if not (tree >> i & 1)]
    best = None
    for combo in product(list(permutations(range(m))), repeat=len(free)):
        perms = [tuple(range(m))] * g.m
        for i, sigma in zip(free, combo):
            perms[i] = sigma
        value = count_transversals(g, Cover(g, m, tuple(perms))).value
        if best is None or value < best:
            best, argmin, ties = value, tuple(perms), 1
        elif value == best:
            ties += 1
    return best, argmin, ties


def test_orbit_sweep_matches_plain_sweep():
    # fold counts per number q of free edges; q >= 3 reaches the stabilizer
    # orbits past the second free edge
    checked = Counter()
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            q = len(edges) - n + 1
            if q <= 2:
                folds = (2, 3, 4) if n <= 4 else (2, 3)
            else:
                folds = {3: (2, 3), 4: (2,)}.get(q, ())
            if not folds:
                continue
            g = Graph(n, edges)
            for m in folds:
                report = dp_exact(g, m)
                assert (report.value, report.cover.perms, report.minimizers) == plain_sweep(g, m)
            checked[q] += 1
    assert checked[0] + checked[1] + checked[2] == 595
    assert (checked[3], checked[4]) == (121, 45)


@pytest.mark.parametrize("g, m, orbits", [
    (path_graph(4), 3, 1), (cycle_graph(4), 4, 1), (complete_graph(4), 2, 4),
    (complete_graph(4), 3, 11), (complete_graph(4), 4, 43), (complete_graph(5), 3, 1393),
])
def test_one_count_per_orbit(monkeypatch, g, m, orbits):
    # one pass per orbit of the first q - 1 free edges, the last read off
    # its pair counts; the orbits of (q - 1)-tuples under simultaneous
    # conjugation number sum over cycle types of z^(q - 2), z the
    # centralizer order (Burnside), or 1 when q <= 1
    import dpchroma.covers as covers

    q = g.m - g.n + 1
    types = Counter(cycle_type(p) for p in permutations(range(m)))
    z = [math.factorial(m) // size for size in types.values()]
    assert (sum(Fraction(c) ** (q - 2) for c in z) if q >= 2 else 1) == orbits
    calls = []
    count = covers._count
    monkeypatch.setattr(covers, "_count", lambda *args: calls.append(1) or count(*args))
    dp_exact(g, m)
    assert len(calls) == orbits


@pytest.mark.parametrize("g, m, value, minimizers", [
    (cycle_graph(4), 10, 6560, 1_334_961),
    # P(K4, 5): the paper's DP-equals-chromatic case of complete
    # multipartite graphs with at least three parts
    (complete_graph(4), 5, 120, 1),
])
def test_dp_exact_past_the_full_sweep(g, m, value, minimizers):
    # (m!)^q = 3,628,800 and 120^3 covers: beyond a sweep that counts every
    # orbit of all q free edges under the default budget
    report = dp_exact(g, m)
    assert (report.value, report.minimizers) == (value, minimizers)
    assert count_transversals(g, report.cover).value == value


def test_pair_counts_match_the_tally(rng):
    # covers of rotations keep shift classes, which split evenly over shifts
    orders = Counter()
    for trial in range(60):
        g = random_connected_graph(rng, lo=2, hi=5)
        m = rng.randint(1, 4)
        if trial % 2:
            cov, _ = random_cover(rng, g, m)
        else:
            cov = Cover(g, m, tuple(tuple((x + s) % m for x in range(m))
                                    for s in [rng.randrange(m) for _ in g.edges]))
        u, v = sorted(rng.sample(range(g.n), 2))
        plan = _search_plan(g, keep=(u, v))
        orders[plan[0].index(u) < plan[0].index(v)] += 1
        assert _pair_counts(g, plan, cov, u, v, 10**6) == \
            oracles.pair_counts(g.n, list(g.edges), list(cov.perms), m, u, v)
    assert orders[True] and orders[False]  # u placed first, and v placed first


def test_best_matching_matches_brute_force(rng):
    # entries from a small range, so that most matrices tie
    for _ in range(200):
        m = rng.randint(1, 5)
        weights = [[rng.randint(0, 2) for _ in range(m)] for _ in range(m)]
        assert _best_matching(weights) == oracles.best_matching(weights)
    assert _best_matching([[1] * 4] * 4) == (4, 24, (0, 1, 2, 3))


def test_dp_exact_with_one_fold_and_many_free_edges():
    # 1,711 free edges: the walk goes that many edges deep without recursing
    report = dp_exact(complete_graph(60), 1)
    assert (report.value, report.minimizers) == (0, 1)


@pytest.mark.parametrize("m", range(1, 7))
def test_orbit_heads_weights_and_class_representatives(m):
    for q in range(4):
        heads = _orbit_heads(m, q)
        assert heads == sorted(heads)
        assert sum(w * math.factorial(m) ** (q - len(h)) for h, w in heads) == math.factorial(m) ** q
    smallest = {}
    for p in permutations(range(m)):  # lexicographic, so the first of a type is its smallest
        smallest.setdefault(cycle_type(p), p)
    assert [h for (h,), _ in _orbit_heads(m, 1)] == sorted(smallest.values())


def cycle_type(p):
    seen = set()
    lengths = []
    for start in range(len(p)):
        k = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = p[x]
            k += 1
        if k:
            lengths.append(k)
    return tuple(sorted(lengths))


def test_dp_exact_c3():
    assert dp_exact(cycle_graph(3), 2).value == 0
    assert dp_exact(cycle_graph(3), 3).value == 6


def test_dp_exact_c4_with_argmin():
    report = dp_exact(cycle_graph(4), 3)
    assert report.value == 15
    assert report.minimizers == 2  # the two cyclic shifts
    cov = report.cover
    twisted = [i for i in range(4) if not cov.is_identity(i)]
    assert len(twisted) == 1
    assert cov.perms[twisted[0]] in {(1, 2, 0), (2, 0, 1)}
    assert count_transversals(cycle_graph(4), cov).value == 15


def test_dp_exact_matches_brute_force(rng):
    for _ in range(15):
        g = random_connected_graph(rng, lo=2, hi=5)
        if g.m - (g.n - 1) > 2:
            continue
        for m in (2, 3):
            assert dp_exact(g, m).value == oracles.dp_minimum(g.n, list(g.edges), m)


def test_dp_exact_budget_error():
    g = complete_graph(4)
    with pytest.raises(BudgetExceededError) as err:
        dp_exact(g, 3, budget=10)
    # 11 orbits of the first two free edges, 2^3 column sets each, and the
    # 3! permutations that the orbit walk lists
    assert err.value.attempted == 11 * 2 ** 3 + 6
    assert err.value.counter == SWEEP_COUNTER


def test_fold_counts_above_the_cap_are_rejected():
    g = cycle_graph(4)
    est = OrientedEdgeSet.from_pairs(g, [(0, 1)])
    for build in (lambda m: twisted_cover(g, est, m),
                  lambda m: Cover.from_json(g, {"m": m}),
                  lambda m: dp_exact(g, m)):
        with pytest.raises(ValueError, match=f"above the limit of {MAX_FOLD}"):
            build(MAX_FOLD + 1)


def test_dp_exact_disconnected_error():
    with pytest.raises(ValueError):
        dp_exact(Graph(4, [(0, 1), (2, 3)]), 2)


# C4 with the chord 0-2: two free edges, so one chunk per conjugacy class
# of S_m on the first
C4_CHORD = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def test_dp_exact_parallel_matches_serial():
    g = C4_CHORD
    serial = dp_exact(g, 3, jobs=1)
    parallel = dp_exact(g, 3, jobs=2)
    assert parallel.value == serial.value
    assert parallel.minimizers == serial.minimizers
    assert parallel.cover.perms == serial.cover.perms


def test_dp_exact_workers_bounded_by_chunks_and_cpus(monkeypatch):
    # a recording stand-in for the process pool: it runs the chunks in this
    # process and keeps the worker count it was asked for
    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    g = C4_CHORD
    # (cpus, jobs, m, workers asked for); one chunk per orbit head of the
    # first free edge (as many as the partitions of m), no pool for one worker
    for cpus, jobs, m, workers in ((3, 64, 3, [3]), (64, 64, 2, [2]),
                                   (8, 2, 3, [2]), (1, 64, 3, []), (8, 1, 3, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        asked.clear()
        assert dp_exact(g, m, jobs=jobs) == dp_exact(g, m)
        assert asked == workers


def test_dp_le_chromatic(rng):
    for _ in range(15):
        g = random_connected_graph(rng, lo=2, hi=5)
        if g.m - (g.n - 1) > 2:
            continue
        for m in (2, 3):
            assert dp_exact(g, m).value <= chromatic_polynomial(g)(m)


# ---------------------------------------------------------------------------
# odd-intersection cycles of twisted covers have no matched copies

def test_cycle_matched_count_is_the_matched_selection_oracle(rng):
    # on a cycle graph the fixed points around the cycle are the picks
    # of all m^n that match every edge
    for _ in range(40):
        n, m = rng.randint(3, 6), rng.randint(1, 4)
        g = cycle_graph(n)
        cov, _ = random_cover(rng, g, m)
        assert oracles.cycle_matched_count(list(g.edges), cov.perms, m, range(n)) == \
            oracles.matched_count(n, list(g.edges), cov.perms, m, range(g.m))


def test_twisted_cycle_has_no_matched_copies_small():
    for n in (3, 5, 6):
        g = cycle_graph(n)
        for k in (1, 3):
            if k > n:
                continue
            est = OrientedEdgeSet.from_tails(g, {i: g.edges[i][0] for i in range(k)})
            for m in range(k + 1, 6):
                cov = twisted_cover(g, est, m)
                assert oracles.cycle_matched_count(list(g.edges), cov.perms, m, range(n)) == 0


def test_twisted_odd_intersection_cycles_die_in_any_graph(rng):
    # not just cycle graphs: every odd-intersection cycle of a shift cover
    # admits zero matched copies once m exceeds the twisted set size
    from dpchroma import enumerate_cycles

    for _ in range(40):
        g = random_connected_graph(rng, lo=3, hi=6)
        if g.m == 0:
            continue
        k = rng.randint(1, min(3, g.m))
        picked = rng.sample(range(g.m), k)
        tails = {i: g.edges[i][rng.randint(0, 1)] for i in picked}
        est = OrientedEdgeSet.from_tails(g, tails)
        mask = sum(1 << i for i in picked)
        for cyc in enumerate_cycles(g, g.n):
            cmask = cyc.edge_mask(g)
            if bin(cmask & mask).count("1") % 2 == 0:
                continue
            for m in range(k + 1, k + 4):
                cov = twisted_cover(g, est, m)
                assert oracles.cycle_matched_count(list(g.edges), cov.perms, m,
                                                   cyc.vertices) == 0


# ---------------------------------------------------------------------------
# serialization

def test_cover_json_round_trip(rng):
    g = random_connected_graph(rng, lo=3, hi=5)
    cov, _ = random_cover(rng, g, 3)
    data = cov.to_json()
    back = Cover.from_json(g, data)
    assert back.perms == cov.perms
    with pytest.raises(ValueError):
        Cover.from_json(g, {"m": 3, "perms": {str(g.m + 5): [0, 1, 2]}})
    with pytest.raises(ValueError):
        Cover.from_json(g, {"m": 3, "perms": {"0": [0, 0, 2]}})


def test_count_report_json():
    report = dp_exact(cycle_graph(4), 3)
    data = report.to_json()
    assert data["value"] == "15"
    assert set(data) == {"value", "cover", "minimizers"} and data["minimizers"] == 2
    assert count_transversals(cycle_graph(4), canonical_cover(cycle_graph(4), 3)).to_json() == \
        {"value": "18"}
