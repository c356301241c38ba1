import pytest

import oracles
from conftest import connected_edge_sets, random_connected_graph, random_edges

from dpchroma import (
    BudgetExceededError,
    Cycle,
    Graph,
    GraphParseError,
    complete_graph,
    component_count,
    cycle_graph,
    cycle_space_ranks,
    enumerate_cycles,
    fig1_graph,
    fig3b_graph,
    fixture,
    mask_indices,
    non_bridge_edges,
    parse_graph,
    path_graph,
    spanning_tree_count,
)
from dpchroma.graphs import (MAX_VERTICES, _bases, _bfs, _bfs_path, _blocks, _search_plan,
                             spanning_tree_rank)


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


def test_parse_trailing_comments():
    g = parse_graph("3  # vertices\n0 1 # spoke\n1 2#\n # indented\n0 2")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2), (0, 2))
    with pytest.raises(GraphParseError, match="malformed edge at line 2"):
        parse_graph("3\n0 1 2 # x")


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
# breadth-first search

def bfs_graphs(rng):
    """Every connected graph with n <= 5, then seeded 6-10-vertex graphs."""
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            yield Graph(n, edges)
    for _ in range(60):
        yield random_connected_graph(rng, lo=6, hi=10)


def test_bfs_matches_the_queue_oracle(rng):
    for g in bfs_graphs(rng):
        edges = list(g.edges)
        for mask in (g.full_mask(), rng.randrange(1 << g.m)):
            subset = list(mask_indices(mask))
            for roots in ([rng.randrange(g.n)], rng.sample(range(g.n), min(3, g.n)), range(g.n)):
                for limit in (None, 0, 1, 2):
                    expected = oracles.bfs_forest(g.n, edges, subset, roots, limit)
                    assert list(_bfs(g._incidence, mask, roots, limit).items()) == expected
                    # the walk stops right after reaching its target
                    target = rng.randrange(g.n)
                    reached = [v for v, _ in expected]
                    if target in reached:
                        expected = expected[:reached.index(target) + 1]
                    got = _bfs(g._incidence, mask, roots, limit, target)
                    assert list(got.items()) == expected


def test_bfs_path_matches_the_oracle(rng):
    for g in bfs_graphs(rng):
        mask = rng.randrange(1 << g.m)
        adj = oracles.sorted_adjacency(g.n, list(g.edges), list(mask_indices(mask)))
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    for limit in (None, 1, 2):
                        assert _bfs_path(g._incidence, mask, u, v, limit) == \
                            oracles.bfs_path(adj, u, v, limit)


# ---------------------------------------------------------------------------
# search plan

def replay_search_plan(g):
    """Walk the plan's steps, checking each against the graph."""
    order, steps = _search_plan(g)
    assert sorted(order) == list(range(g.n)) and len(steps) == g.n
    placed: list[int] = []
    frontier: list[int] = []
    back_edges = []
    for v, (back, kept) in zip(order, steps):
        slots = frontier + [v]
        for s, i, w in back:
            assert s < len(frontier) and slots[s] == w and set(g.edges[i]) == {v, w}
            back_edges.append(i)
        placed.append(v)
        frontier = [slots[s] for s in kept]
        # the placed vertices with an unplaced neighbour, in placement order
        assert frontier == [u for u in placed if any(w not in placed for w in g.adj[u])]
    assert sorted(back_edges) == list(range(g.m))


def test_search_plan_steps_replay(rng):
    replay_search_plan(Graph(0, []))
    replay_search_plan(Graph(1, []))
    replay_search_plan(fig1_graph())
    for _ in range(150):
        n = rng.randint(2, 12)
        # sparse, often disconnected graphs, and two components side by side
        g = Graph(n, random_edges(rng, n, rng.uniform(0.05, 0.5)))
        replay_search_plan(g)
        k = rng.randint(1, n - 1)
        a, b = random_edges(rng, k, 0.6), random_edges(rng, n - k, 0.6)
        replay_search_plan(Graph(n, a + [(u + k, v + k) for u, v in b]))


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


def test_cycle_space_ranks_examples():
    # fig1: six pendant triangles, then two 5-cycles; fig3b: twelve
    # triangles, then one 4-cycle; a cycle alone has rank 1 at its length
    lengths = range(1, 9)
    assert cycle_space_ranks(fig1_graph(), dict.fromkeys(lengths, 99)) == {
        1: 0, 2: 0, 3: 6, 4: 6, 5: 8, 6: 8, 7: 8, 8: 8}
    assert cycle_space_ranks(fig3b_graph(), {3: 99, 4: 99, 5: 99}) == {3: 12, 4: 13, 5: 13}
    assert cycle_space_ranks(cycle_graph(7), {6: 9, 7: 9}) == {6: 0, 7: 1}
    assert cycle_space_ranks(cycle_graph(1101), {1101: 1}) == {1101: 1}
    assert cycle_space_ranks(complete_graph(5), {}) == {}


def test_cycle_space_ranks_match_elimination_over_all_cycles(rng):
    # every length from 1 to n + 1, once with targets no rank reaches (exact
    # ranks) and once with the exact ranks as targets, where the search
    # may stop early but never short of a target
    checked = 0
    while checked < 150:
        n = rng.randint(3, 8)
        edges = random_edges(rng, n, rng.uniform(0.3, 0.8))
        g = Graph(n, edges)
        want = {length: oracles.cycle_space_rank(n, edges, length) for length in range(1, n + 2)}
        assert cycle_space_ranks(g, dict.fromkeys(want, g.m + 1)) == want, edges
        assert cycle_space_ranks(g, want) == want, edges
        for length in want:
            lone = cycle_space_ranks(g, {length: g.m + 1})
            assert lone == {length: want[length]}, (edges, length)
        checked += 1


def test_cycle_space_ranks_match_networkx_minimum_cycle_basis(rng):
    # the cycles of a minimum cycle basis of length at most l span every
    # cycle of length at most l, so their count is the rank at l
    nx = pytest.importorskip("networkx")
    checked = 0
    while checked < 40:
        n = rng.randint(4, 14)
        edges = random_edges(rng, n, rng.uniform(0.15, 0.6))
        if not oracles.is_connected(n, edges):
            continue
        h = nx.Graph(edges)
        lengths = sorted(len(c) for c in nx.minimum_cycle_basis(h))
        targets = dict.fromkeys(range(3, n + 1), len(edges) + 1)
        want = {length: sum(x <= length for x in lengths) for length in targets}
        assert cycle_space_ranks(Graph(n, edges), targets) == want, edges
        checked += 1


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

def tree_walk(g, base=0, budget=10**6):
    """The `_bases` walk over every edge outside `base`, joining the
    components of `base` into one; with `base` a forest, the spanning trees
    that hold it, without it."""
    free = [i for i in range(g.m) if not base >> i & 1]
    return _bases(g, base, free, component_count(g, base) - 1, budget)


def test_spanning_tree_counts():
    assert len(list(tree_walk(complete_graph(3)))) == 3
    assert len(list(tree_walk(cycle_graph(4)))) == 4
    assert len(list(tree_walk(complete_graph(4)))) == 16


def test_spanning_trees_are_trees(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = random_edges(rng, n, 0.6)
        if not oracles.is_connected(n, edges):
            continue
        g = Graph(n, edges)
        trees = list(tree_walk(g))
        expected = oracles.spanning_tree_sets(n, edges)
        assert len(trees) == len(expected)
        assert {frozenset(i for i in range(g.m) if t >> i & 1) for t in trees} == set(expected)
        for t in trees:
            assert bin(t).count("1") == n - 1
            assert component_count(g, t) == 1


def test_spanning_trees_truncation_flag():
    g = complete_graph(4)
    trees = tree_walk(g, budget=5)
    got = [next(trees) for _ in range(5)]
    assert len(set(got)) == 5
    with pytest.raises(BudgetExceededError) as err:
        next(trees)
    assert (err.value.counter, err.value.attempted, err.value.budget) == \
        ("bases of one girth", 6, 5)
    assert len(list(tree_walk(g, budget=16))) == 16
    with pytest.raises(BudgetExceededError):
        next(tree_walk(g, budget=0))


def test_spanning_trees_forced_edges():
    g = complete_graph(4)
    forced = 1 << g.edge_index(0, 1)
    trees = list(tree_walk(g, forced))
    assert all(not t & forced and component_count(g, t | forced) == 1 for t in trees)
    assert len(trees) == 8  # half of K4's 16 trees contain a fixed edge


def test_spanning_trees_order_with_forced_edges(rng):
    # descending indicator vectors, edge 0 most significant: check_dp_good's
    # trees_tried and its pinned certificates depend on this order.  A base
    # that closes a cycle is joined as its spanning forest F is, by the
    # trees that hold F, without F
    closing = 0
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            trees = oracles.spanning_tree_sets(n, list(edges))
            for _ in range(2):
                forced = {i for i in range(g.m) if rng.random() < 0.3}
                forest = []
                for i in sorted(forced):
                    grown = forest + [i]
                    if len(oracles.components(n, edges, grown)) == n - len(grown):
                        forest = grown
                want = sorted((t for t in trees if set(forest) <= t),
                              key=lambda t: [i in t for i in range(g.m)], reverse=True)
                assert (list(tree_walk(g, mask_of(forced)))
                        == [mask_of(t - set(forest)) for t in want])
                closing += len(forest) < len(forced)
                holding = want if len(forest) == len(forced) else []
                assert list(oracles.spanning_trees_holding(n, list(edges), forced)) == holding
    assert closing > 0  # some forced sets close a cycle, so no tree holds them


def test_spanning_tree_count_matches_oracle_sets(rng):
    # the trees holding a forced forest whose other edges are allowed, and
    # none when the forced edges close a cycle
    closing = masked = 0
    graphs = 0
    while graphs < 240:
        n = rng.randint(1, 8)
        edges = random_edges(rng, n, rng.uniform(0.2, 0.7))
        if len(edges) > 14:
            continue
        graphs += 1
        g = Graph(n, edges)
        trees = oracles.spanning_tree_sets(n, edges)
        forest = set()
        for i in rng.sample(range(len(edges)), len(edges)):
            if rng.random() < 0.4:
                picked = forest | {i}
                if len(oracles.components(n, edges, picked)) == n - len(picked):
                    forest = picked
        assert spanning_tree_count(g, mask_of(forest)) == sum(forest <= t for t in trees)
        assert spanning_tree_count(g) == len(trees)
        allowed = {i for i in range(len(edges)) if rng.random() < 0.7}
        assert (spanning_tree_count(g, mask_of(forest), mask_of(allowed))
                == sum(forest <= t <= forest | allowed for t in trees))
        masked += bool(forest - allowed)  # forced edges count as allowed
        cycles = oracles.all_cycles(n, edges)
        if cycles:
            cyc = cycles[rng.randrange(len(cycles))]
            closed = {g.edge_index(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
            assert spanning_tree_count(g, mask_of(forest | closed)) == 0
            closing += 1
    assert closing > 50 and masked > 50


def test_spanning_tree_rank_is_the_oracle_order_position(rng):
    ranked = 0
    for n in range(1, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            for forced in (set(), {i for i in range(g.m) if rng.random() < 0.3}):
                trees = oracles.spanning_trees_holding(n, list(edges), forced)
                for position, tree in enumerate(trees, 1):
                    assert spanning_tree_rank(g, mask_of(tree), mask_of(forced)) == position
                    ranked += position > 1
    assert ranked > 1000


def test_spanning_tree_count_cayley():
    assert spanning_tree_count(complete_graph(1)) == 1
    for n in range(2, 41):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)
    assert spanning_tree_count(Graph(0, [])) == 0


def test_spanning_tree_count_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    graphs = 0
    while graphs < 20:
        n = rng.randint(2, 12)
        edges = random_edges(rng, n, rng.uniform(0.3, 0.8))
        if not oracles.is_connected(n, edges):
            continue
        graphs += 1
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        assert spanning_tree_count(Graph(n, edges)) == round(nx.number_of_spanning_trees(h))


def test_enumeration_count_on_all_small_connected():
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            g = Graph(n, edges)
            assert len(list(tree_walk(g))) == len(oracles.spanning_tree_sets(n, list(edges)))
