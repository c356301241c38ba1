import pytest

import oracles
from conftest import connected_edge_sets, random_edges

from dpchroma import (
    BudgetExceededError,
    Cycle,
    Graph,
    GraphParseError,
    complete_graph,
    complete_multipartite,
    component_count,
    cycle_graph,
    enumerate_cycles,
    fig1_graph,
    fixture,
    non_bridge_edges,
    parse_graph,
    path_graph,
    spanning_trees,
)
from dpchroma.graphs import MAX_VERTICES, _blocks


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


# ---------------------------------------------------------------------------
# parsing

def test_parse_triangle():
    g = parse_graph("3\n0 1\n1 2\n0 2")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_parse_c4_with_comments_and_blanks():
    g = parse_graph("# a square\n4\n\n0 1\n1 2\n2 3\n0 3\n")
    assert g.edges == ((0, 1), (1, 2), (2, 3), (0, 3))


def test_parse_loop_names_line():
    with pytest.raises(GraphParseError, match="loop at line 2"):
        parse_graph("2\n0 0")


def test_parse_dedupes_after_sorting():
    g = parse_graph("3\n1 0\n0 1\n2 1")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_rejects_bad_lines():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("3\n0 1 2")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_graph("3\n0 7")
    with pytest.raises(GraphParseError):
        parse_graph("")


def test_parse_caps_the_vertex_count():
    assert parse_graph(f"{MAX_VERTICES}\n0 1").n == MAX_VERTICES
    with pytest.raises(GraphParseError, match="vertex count 100000000 at line 2"):
        parse_graph("# huge\n100000000\n0 1")


def test_graph_rejects_duplicates_and_loops():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 2)])


# ---------------------------------------------------------------------------
# fixtures

def test_fixture_names():
    assert fixture("cycle:5").edges == cycle_graph(5).edges
    assert fixture("path:3").n == 3
    assert fixture("complete:4").m == 6
    kmp = fixture("complete_multipartite:1,1,2")
    assert kmp.n == 4 and kmp.m == 5
    assert fixture("fig1").n == 14 and fixture("fig1").m == 21
    assert fixture("fig3b").n == 10 and fixture("fig3b").m == 22
    with pytest.raises(ValueError):
        fixture("petersen")
    # sizes are capped before anything is built
    assert fixture(f"path:{MAX_VERTICES}").n == MAX_VERTICES
    for name in [f"cycle:{MAX_VERTICES + 1}", "complete:100000",
                 f"complete_multipartite:{MAX_VERTICES},1"]:
        with pytest.raises(ValueError, match=f"above the limit of {MAX_VERTICES}"):
            fixture(name)


def test_fig1_shape():
    g = fig1_graph()
    degrees = sorted(g.degree(v) for v in range(g.n))
    assert sum(degrees) == 2 * 21
    # the six pendant-triangle apexes have degree 2
    assert degrees[:6] == [2] * 6


# ---------------------------------------------------------------------------
# components and bridges

def test_component_count_examples():
    c4 = cycle_graph(4)
    assert component_count(c4, 0) == 4
    assert component_count(c4, c4.full_mask()) == 1
    k3 = complete_graph(3)
    assert component_count(k3, 1) == 2


def test_component_count_matches_forest_rank(rng):
    for _ in range(100):
        n = rng.randint(1, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        mask = rng.randrange(1 << g.m) if g.m else 0
        sub = [i for i in range(g.m) if mask >> i & 1]
        assert component_count(g, mask) == len(oracles.components(n, list(g.edges), sub))


def test_non_bridge_edges_examples():
    p4 = path_graph(4)
    assert non_bridge_edges(p4, p4.full_mask()) == 0
    c4 = cycle_graph(4)
    assert non_bridge_edges(c4, c4.full_mask()) == c4.full_mask()
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert non_bridge_edges(g, g.full_mask()) == mask_of([0, 1, 2])


def test_non_bridge_edges_against_oracle(rng):
    for _ in range(80):
        n = rng.randint(2, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        mask = rng.randrange(1 << g.m) if g.m else 0
        sub = [i for i in range(g.m) if mask >> i & 1]
        expected = set(sub) - set(oracles.bridges(n, list(g.edges), sub))
        got = non_bridge_edges(g, mask)
        assert got == mask_of(expected)
        assert got & ~mask == 0


def test_bridge_removal_changes_components_one_by_one(rng):
    for _ in range(40):
        n = rng.randint(2, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        mask = rng.randrange(1 << g.m) if g.m else 0
        bridges = mask & ~non_bridge_edges(g, mask)
        base = component_count(g, mask)
        for i in range(g.m):
            if bridges >> i & 1:
                assert component_count(g, mask ^ (1 << i)) == base + 1


def test_blocks_against_oracle(rng):
    for _ in range(120):
        n = rng.randint(0, 8)
        edges = random_edges(rng, n, rng.uniform(0.15, 0.7))
        g = Graph(n, edges)
        # the whole edge set, then a random subset of it
        for mask in (g.full_mask(), rng.randrange(1 << g.m)):
            subset = [i for i in range(g.m) if mask >> i & 1]
            blocks = _blocks(g, mask)
            # every edge of the subset lies in exactly one block
            assert sorted(i for b in blocks for i in b) == subset
            # the one-edge blocks are the bridges
            bridges = sorted(b[0] for b in blocks if len(b) == 1)
            assert bridges == oracles.bridges(n, edges, subset)
            spans = [{v for i in b for v in edges[i]} for b in blocks]
            for b, verts in zip(blocks, spans):
                if len(b) == 1:
                    continue
                # 2-connected: connected, and still connected without any vertex
                pairs = [edges[i] for i in b]
                for cut in [None, *verts]:
                    rest = sorted(verts - {cut})
                    pos = {v: k for k, v in enumerate(rest)}
                    sub = [(pos[u], pos[v]) for u, v in pairs if cut not in (u, v)]
                    assert oracles.is_connected(len(rest), sub)
            # maximal: two 2-connected blocks sharing two vertices would be one
            for a in range(len(spans)):
                for c in range(a + 1, len(spans)):
                    assert len(spans[a] & spans[c]) <= 1


# ---------------------------------------------------------------------------
# cycles

def test_enumerate_cycles_examples():
    assert len(enumerate_cycles(cycle_graph(4), 4)) == 1
    assert len(enumerate_cycles(complete_graph(4), 3)) == 4
    assert len(enumerate_cycles(complete_graph(4), 4)) == 7


def test_enumerate_cycles_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_cycles(complete_graph(5), 5, budget=3)


def test_enumerate_cycles_matches_oracle_exhaustive():
    for n in range(1, 6):
        for edges in _all_edge_sets(n):
            g = Graph(n, edges)
            got = [c.vertices for c in enumerate_cycles(g, max(n, 3))]
            assert sorted(got) == sorted(oracles.all_cycles(n, list(edges)))


def test_enumerate_cycles_matches_oracle_random_n6(rng):
    for _ in range(150):
        edges = random_edges(rng, 6, rng.uniform(0.3, 0.9))
        g = Graph(6, edges)
        max_len = rng.randint(3, 6)
        got = [c.vertices for c in enumerate_cycles(g, max_len)]
        assert sorted(got) == sorted(oracles.all_cycles(6, edges, max_len))


def _all_edge_sets(n):
    from itertools import combinations

    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)


def test_cycle_canonical_form():
    g = cycle_graph(5)
    a = Cycle.from_vertices(g, [2, 3, 4, 0, 1])
    b = Cycle.from_vertices(g, [1, 0, 4, 3, 2])
    assert a == b
    assert a.vertices[0] == 0 and a.vertices[1] < a.vertices[-1]


def test_cycle_rejects_non_cycles():
    g = path_graph(4)
    with pytest.raises(ValueError):
        Cycle.from_vertices(g, [0, 1, 2, 3])  # (3, 0) is not an edge
    with pytest.raises(ValueError):
        Cycle.from_vertices(cycle_graph(4), [0, 1])


# ---------------------------------------------------------------------------
# spanning trees

def test_spanning_tree_counts():
    assert len(list(spanning_trees(complete_graph(3)))) == 3
    assert len(list(spanning_trees(cycle_graph(4)))) == 4
    assert len(list(spanning_trees(complete_graph(4)))) == 16


def test_spanning_trees_are_trees(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = random_edges(rng, n, 0.6)
        if not oracles.is_connected(n, edges):
            continue
        g = Graph(n, edges)
        trees = list(spanning_trees(g))
        expected = oracles.spanning_tree_sets(n, edges)
        assert len(trees) == len(expected)
        assert {frozenset(i for i in range(g.m) if t >> i & 1) for t in trees} == set(expected)
        for t in trees:
            assert bin(t).count("1") == n - 1
            assert component_count(g, t) == 1


def test_spanning_trees_truncation_flag():
    g = complete_graph(4)
    stream = spanning_trees(g, budget=5)
    trees = iter(stream)
    got = [next(trees) for _ in range(5)]
    assert len(set(got)) == 5
    assert stream.count == 5
    with pytest.raises(BudgetExceededError) as err:
        next(trees)
    assert (err.value.counter, err.value.attempted, err.value.budget) == ("spanning trees", 6, 5)
    assert stream.count == 5
    full = spanning_trees(g, budget=16)
    assert len(list(full)) == 16
    assert full.count == 16


def test_spanning_trees_forced_edges():
    g = complete_graph(4)
    forced = 1 << g.edge_index(0, 1)
    trees = list(spanning_trees(g, forced=forced))
    assert all(t & forced for t in trees)
    assert len(trees) == 8  # half of K4's 16 trees contain a fixed edge


def test_spanning_trees_order_with_forced_edges(rng):
    # descending indicator vectors, edge 0 most significant: check_dp_good's
    # trees_tried and its pinned certificates depend on this order
    closing = 0
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            trees = oracles.spanning_tree_sets(n, list(edges))
            for _ in range(2):
                forced = {i for i in range(g.m) if rng.random() < 0.3}
                want = sorted((t for t in trees if forced <= t),
                              key=lambda t: [i in t for i in range(g.m)], reverse=True)
                closing += not want
                assert list(spanning_trees(g, forced=mask_of(forced))) == [mask_of(t) for t in want]
    assert closing > 0  # some forced sets close a cycle, so their stream is empty


def test_spanning_trees_disconnected_error():
    with pytest.raises(ValueError):
        spanning_trees(Graph(4, [(0, 1), (2, 3)]))


def test_enumeration_count_on_all_small_connected():
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            assert len(list(spanning_trees(g))) == len(oracles.spanning_tree_sets(n, list(edges)))
