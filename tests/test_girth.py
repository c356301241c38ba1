from itertools import combinations

import pytest

import oracles
from conftest import (
    outer_path_near_triangulation,
    random_connected_graph,
    random_edges,
    stacked_triangulation,
)

from dpchroma import (
    INFINITE,
    Graph,
    OrientedEdgeSet,
    check_balance,
    complete_graph,
    cycle_graph,
    edge_girth,
    edge_set_girth,
    fig1_graph,
    fig3b_graph,
    path_graph,
)
from dpchroma.girth import _vertex_cover


def test_edge_girth_examples():
    c4 = cycle_graph(4)
    for i in range(4):
        assert edge_girth(c4, i).value == 4
    k4 = complete_graph(4)
    for i in range(6):
        assert edge_girth(k4, i).value == 3
    pendant = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert edge_girth(pendant, 3).value == INFINITE
    assert edge_girth(pendant, 3).witness is None


def test_edge_girth_witness_is_shortest_cycle_through_edge():
    k4 = complete_graph(4)
    r = edge_girth(k4, k4.edge_index(0, 1))
    assert len(r.witness) == 3
    assert (0, 1) in r.witness.edge_pairs()


def test_edge_girth_matches_bfs_over_g_minus_e(rng):
    # value and witness equal a BFS over freshly sorted lists of G - e
    graphs = [fig1_graph(), fig3b_graph()]
    graphs += [random_connected_graph(rng, lo=6, hi=10) for _ in range(40)]
    for g in graphs:
        edges = list(g.edges)
        for e, (u, v) in enumerate(edges):
            rest = [i for i in range(len(edges)) if i != e]
            path = oracles.bfs_path(oracles.sorted_adjacency(g.n, edges, rest), u, v)
            r = edge_girth(g, e)
            if path is None:
                assert r.value == INFINITE and r.witness is None
            else:
                assert r.value == len(path)
                assert r.witness.to_json() == oracles.canonical_cycle(path)


def test_edge_set_girth_examples():
    c4 = cycle_graph(4)
    assert edge_set_girth(c4, 1 << 0).value == 4
    opposite = (1 << 0) | (1 << 2)
    assert edge_set_girth(c4, opposite).value == INFINITE
    k4 = complete_graph(4)
    r = edge_set_girth(k4, 1 << k4.edge_index(0, 1))
    assert r.value == 3
    assert (0, 1) in r.witness.edge_pairs()


def test_edge_set_girth_witness_has_odd_intersection(rng):
    for _ in range(60):
        n = rng.randint(3, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        if g.m == 0:
            continue
        mask = rng.randrange(1, 1 << g.m)
        r = edge_set_girth(g, mask)
        if r.is_finite:
            hits = sum(1 for p in r.witness.edge_pairs()
                       if mask >> g.edge_index(*p) & 1)
            assert hits % 2 == 1
            assert len(r.witness) == r.value


def test_edge_set_girth_matches_oracle(rng):
    for _ in range(120):
        n = rng.randint(3, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        if g.m == 0:
            continue
        mask = rng.randrange(1, 1 << g.m)
        sub = {i for i in range(g.m) if mask >> i & 1}
        expected, _ = oracles.edge_set_girth(n, list(g.edges), sub)
        got = edge_set_girth(g, mask)
        if expected is None:
            assert not got.is_finite
        else:
            assert got.value == expected


def stars(g):
    """(centre, edge mask) of every star the quad search tries: two or more
    edges at one vertex."""
    for v in range(g.n):
        at = [i for i, e in enumerate(g.edges) if v in e]
        for size in range(2, len(at) + 1):
            for sub in combinations(at, size):
                yield v, sum(1 << i for i in sub)


def witness_cases(rng):
    """(graph, edge mask) pairs: seeded edge sets of small graphs, every star
    of the figures, the crossing sets E(V1, V2) of seeded bipartitions, and
    seeded edge sets of plane near-triangulations on 12 to 40 vertices."""
    for g, draws in [(fig1_graph(), 30), (fig3b_graph(), 30)]:
        for _ in range(draws):
            yield g, rng.randrange(1, 1 << g.m)
        for _, mask in stars(g):
            yield g, mask
    for _ in range(60):
        g = random_connected_graph(rng, 3, 9)
        for _ in range(3):
            yield g, rng.randrange(1, 1 << g.m)
    for _ in range(60):
        g = random_connected_graph(rng, 4, 12)
        side = {v for v in range(g.n) if rng.random() < 0.5}
        yield g, sum(1 << i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side))
    for grow in (stacked_triangulation, outer_path_near_triangulation):
        for n in (12, 17, 23, 30, 40):
            g = grow(n, rng)
            for _ in range(4):
                yield g, rng.randrange(1, 1 << g.m)


def test_edge_set_girth_witness_matches_parity_cover_bfs(rng):
    # the oracle runs a BFS from every vertex; the library only from a
    # vertex cover of the edge set, then cut at the length it found
    finite = 0
    for g, mask in witness_cases(rng):
        sub = {i for i in range(g.m) if mask >> i & 1}
        cover = _vertex_cover(g, mask)
        assert cover == sorted(set(cover))
        assert all(u in cover or v in cover for u, v in (g.edges[i] for i in sub))
        r = edge_set_girth(g, mask)
        expected = oracles.set_girth_witness(g.n, list(g.edges), sub)
        assert (list(r.witness.vertices) if r.witness else None) == expected
        finite += expected is not None
    assert finite > 0


def test_vertex_cover_of_a_star_is_its_centre():
    # so setgirth on a star costs one BFS run for its length (the quad
    # search decides its stars from the centre's neighbourhood, with none)
    for g in (fig1_graph(), fig3b_graph(), complete_graph(5)):
        for v, mask in stars(g):
            assert _vertex_cover(g, mask) == [v]
    assert _vertex_cover(complete_graph(4), 0) == []


def test_edge_set_girth_rejects_a_mask_outside_the_edges():
    g = cycle_graph(4)
    for mask in (1 << 100, 1 << 4, 0b11111, -1, -(1 << 4)):
        with pytest.raises(ValueError):
            edge_set_girth(g, mask)
    assert edge_set_girth(g, 0).value == INFINITE
    assert edge_set_girth(g, g.full_mask()).value == INFINITE
    assert edge_set_girth(g, 0b0111).value == 4


def test_singleton_set_girth_equals_edge_girth(rng):
    for _ in range(40):
        n = rng.randint(3, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        for i in range(g.m):
            assert edge_set_girth(g, 1 << i).value == edge_girth(g, i).value


# ---------------------------------------------------------------------------
# balance

def test_balance_trivial_bound():
    g = complete_graph(4)
    est = OrientedEdgeSet.from_pairs(g, [(0, 1)])
    assert check_balance(g, est, 3).balanced


def test_balance_disjoint_cycles_are_fine():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    est = OrientedEdgeSet.from_pairs(g, [(0, 1), (1, 2)])
    # the other triangle misses the set entirely and must not flag
    verdict = check_balance(g, est, 4)
    assert not verdict.balanced  # triangle (0,1,2) meets the set twice, both forward
    est2 = OrientedEdgeSet.from_pairs(g, [(0, 1), (2, 1)])
    assert check_balance(g, est2, 4).balanced


def test_balance_c4_opposite_edges():
    g = cycle_graph(4)
    # both "forward" along the traversal 0-1-2-3: unbalanced
    est = OrientedEdgeSet.from_pairs(g, [(0, 1), (2, 3)])
    verdict = check_balance(g, est, 5)
    assert not verdict.balanced
    assert verdict.witness.vertices == (0, 1, 2, 3)
    # flip one direction: balanced
    est2 = OrientedEdgeSet.from_pairs(g, [(0, 1), (3, 2)])
    assert check_balance(g, est2, 5).balanced


def test_odd_intersection_is_always_unbalanced(rng):
    from dpchroma import enumerate_cycles

    for _ in range(40):
        n = rng.randint(3, 6)
        g = Graph(n, random_edges(rng, n, 0.6))
        if g.m == 0:
            continue
        mask = rng.randrange(1, 1 << g.m)
        tails = {i: g.edges[i][rng.randint(0, 1)] for i in range(g.m) if mask >> i & 1}
        est = OrientedEdgeSet.from_tails(g, tails)
        has_odd = any(
            sum(1 for p in c.edge_pairs() if mask >> g.edge_index(*p) & 1) % 2 == 1
            for c in enumerate_cycles(g, n)
        )
        verdict = check_balance(g, est, n + 1)
        if has_odd:
            assert not verdict.balanced


def test_reversing_all_directions_preserves_balance(rng):
    for _ in range(40):
        n = rng.randint(3, 6)
        g = Graph(n, random_edges(rng, n, 0.6))
        if g.m == 0:
            continue
        mask = rng.randrange(1, 1 << g.m)
        tails = {i: g.edges[i][rng.randint(0, 1)] for i in range(g.m) if mask >> i & 1}
        est = OrientedEdgeSet.from_tails(g, tails)
        forward = check_balance(g, est, n + 1)
        backward = check_balance(g, est.reversed(g), n + 1)
        assert forward.balanced == backward.balanced
        if forward.witness is not None:
            assert forward.witness == backward.witness


def test_oriented_set_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        OrientedEdgeSet.from_tails(g, {0: 2})
    with pytest.raises(KeyError):
        OrientedEdgeSet.from_pairs(g, [(0, 2)])


def test_girth_result_json():
    g = cycle_graph(4)
    data = edge_set_girth(g, 1).to_json()
    assert data["value"] == 4
    assert data["witness"] == [0, 1, 2, 3]
    pendant = Graph(3, [(0, 1)])
    data = edge_girth(pendant, 0).to_json()
    assert data["value"] == "infinity"
