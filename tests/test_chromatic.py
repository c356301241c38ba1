import pytest

import oracles
from conftest import random_connected_graph, random_edges

from dpchroma import (
    Graph,
    Polynomial,
    chromatic_polynomial,
    chromatic_value,
    complete_graph,
    cycle_graph,
    path_graph,
)


def test_polynomial_arithmetic():
    x = Polynomial.x()
    p = (x - Polynomial.one()) ** 2
    assert p.coeffs == (1, -2, 1)
    assert (p * x)(3) == 12
    assert (p - p) == Polynomial.zero()
    assert Polynomial((0, 0, 0)).coeffs == ()


def test_polynomial_format():
    assert chromatic_polynomial(cycle_graph(4)).format() == "m^4 - 4*m^3 + 6*m^2 - 3*m"
    assert Polynomial.zero().format() == "0"
    assert Polynomial((2,)).format() == "2"


def test_polynomial_json_round_trip():
    p = chromatic_polynomial(complete_graph(5))
    data = p.to_json()
    assert all(isinstance(s, str) for s in data)
    assert Polynomial.from_json(data) == p


def test_empty_graph_is_monomial():
    p = chromatic_polynomial(Graph(3, []))
    assert p.coeffs == (0, 0, 0, 1)


def test_triangle():
    p = chromatic_polynomial(complete_graph(3))
    # m(m-1)(m-2)
    assert p.coeffs == (0, 2, -3, 1)
    assert p(3) == 6


def test_c4_closed_form():
    p = chromatic_polynomial(cycle_graph(4))
    m = Polynomial.x()
    expected = (m - Polynomial.one()) ** 4 + (m - Polynomial.one())
    assert p == expected
    assert p(3) == 18


def incl_excl(g):
    return Polynomial(oracles.chromatic_incl_excl(g.n, list(g.edges)))


def test_incl_excl_single_edge():
    p = incl_excl(Graph(2, [(0, 1)]))
    assert p.coeffs == (0, -1, 1)  # m^2 - m


def test_incl_excl_triangle_value():
    assert incl_excl(complete_graph(3))(3) == 6


def test_incl_excl_c4_at_two():
    # frozen from the brute-force proper-coloring oracle
    assert oracles.color_count(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2) == 2
    assert incl_excl(cycle_graph(4))(2) == 2


def shaped_graphs(rng, count):
    """`count` seeded graphs of at most 8 vertices and 14 edges, cycling
    through shapes that exercise the block product: no vertex, one vertex,
    isolated vertices, trees, blocks glued at cut vertices, and random
    connected and sparse graphs."""
    out = [Graph(0, []), Graph(1, [])]
    shapes = ["isolated", "tree", "glued", "connected", "sparse"]
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        if shape == "isolated":
            n = rng.randint(2, 8)
            edges = random_edges(rng, n - 2, 0.6)  # the last two stay isolated
        elif shape == "tree":
            n = rng.randint(2, 8)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
        elif shape == "glued":
            # two connected graphs sharing one vertex, plus a pendant edge
            a = random_connected_graph(rng, 2, 4)
            b = random_connected_graph(rng, 2, 4)
            shift = a.n - 1
            n = a.n + b.n
            edges = list(a.edges) + [(u + shift, v + shift) for u, v in b.edges]
            edges.append((rng.randrange(n - 1), n - 1))
        elif shape == "connected":
            g = random_connected_graph(rng, 3, 6)
            n, edges = g.n, list(g.edges)
        else:
            n = rng.randint(3, 8)
            edges = random_edges(rng, n, 0.25)
        relabel = list(range(n))
        rng.shuffle(relabel)
        out.append(Graph(n, [(relabel[u], relabel[v]) for u, v in edges]))
    return out


def test_two_routes_agree_on_random_graphs(rng):
    for g in shaped_graphs(rng, 80):
        assert chromatic_polynomial(g) == incl_excl(g)


def test_matches_brute_force_coloring_counts(rng):
    for g in shaped_graphs(rng, 40):
        p = chromatic_polynomial(g)
        for m in range(0, 4):
            assert p(m) == oracles.color_count(g.n, list(g.edges), m)


def test_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    graphs = []
    while len(graphs) < 20:
        n = rng.randint(1, 8)
        edges = random_edges(rng, n, rng.uniform(0.2, 0.6))
        if len(edges) <= 12:  # networkx takes seconds on 8 vertices, 16 edges
            graphs.append(Graph(n, edges))
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected = sympy.Poly(nx.chromatic_polynomial(h), sympy.Symbol("x"))
        coeffs = tuple(int(c) for c in reversed(expected.all_coeffs()))
        assert chromatic_polynomial(g).coeffs == coeffs


def test_disconnected_is_component_product(rng):
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        e1 = random_edges(rng, n1, 0.6)
        e2 = random_edges(rng, n2, 0.6)
        joint = Graph(n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2])
        product = chromatic_polynomial(Graph(n1, e1)) * chromatic_polynomial(Graph(n2, e2))
        assert chromatic_polynomial(joint) == product


def test_deletion_contraction_identity(rng):
    for _ in range(20):
        g = random_connected_graph(rng, lo=3, hi=6)
        if g.m == 0:
            continue
        e = rng.randrange(g.m)
        u, v = g.edges[e]
        deleted = Graph(g.n, [x for i, x in enumerate(g.edges) if i != e])
        merged = []
        for i, (a, b) in enumerate(g.edges):
            if i == e:
                continue
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                pair = (a2, b2) if a2 < b2 else (b2, a2)
                if pair not in merged:
                    merged.append(pair)
        contracted = Graph(g.n, merged)  # vertex v becomes isolated: factor m
        lhs = chromatic_polynomial(g) * Polynomial.x()
        rhs = (chromatic_polynomial(deleted) * Polynomial.x()
               - chromatic_polynomial(contracted))
        assert lhs == rhs


def test_degree_and_leading_coefficient(rng):
    for _ in range(20):
        g = random_connected_graph(rng)
        p = chromatic_polynomial(g)
        assert p.degree == g.n
        assert p.coeffs[-1] == 1


def test_tree_closed_form():
    p = chromatic_polynomial(path_graph(5))
    m = Polynomial.x()
    assert p == m * (m - Polynomial.one()) ** 4


def large_closed_forms():
    """(graph, its chromatic polynomial in closed form) for three graphs far
    past the oracles' reach."""
    m = Polynomial.x()
    one = Polynomial.one()
    two = Polynomial((2,))
    # the cycle C_1000: (m-1)^1000 + (m-1)
    yield cycle_graph(1000), (m - one) ** 1000 + (m - one)
    # the wheel with 30 rim vertices: m((m-2)^30 + (m-2))
    rim = [(i, i % 30 + 1) for i in range(1, 31)]
    wheel = Graph(31, [(0, i) for i in range(1, 31)] + rim)
    yield wheel, m * ((m - two) ** 30 + (m - two))
    # a depth-7 binary tree (127 vertices, 64 leaves) with a triangle on each
    # leaf: m(m-1)^126 ((m-1)(m-2))^64
    edges = [((v - 1) // 2, v) for v in range(1, 127)]
    for k, leaf in enumerate(range(63, 127)):
        a, b = 127 + 2 * k, 128 + 2 * k
        edges += [(leaf, a), (leaf, b), (a, b)]
    yield Graph(255, edges), m * (m - one) ** 126 * ((m - one) * (m - two)) ** 64


def test_closed_forms_of_large_graphs():
    for g, expected in large_closed_forms():
        assert chromatic_polynomial(g) == expected


AT_M = [*range(9), 40]


def test_value_at_m_matches_the_polynomial(rng):
    # disconnected graphs, trees, isolated vertices, glued blocks, the graph
    # with no vertex (P = 1) and one vertex (P = m), at m = 0 among others
    graphs = shaped_graphs(rng, 80)
    assert graphs[0] == Graph(0, [])
    for g in graphs:
        p = chromatic_polynomial(g)
        assert [chromatic_value(g, m) for m in AT_M] == [p(m) for m in AT_M]
    assert chromatic_value(Graph(0, []), 0) == 1
    assert chromatic_value(Graph(2, [(0, 1)]), 0) == 0


def test_value_at_m_on_large_closed_forms():
    # the polynomials themselves are checked by test_closed_forms_of_large_graphs
    for g, expected in large_closed_forms():
        assert [chromatic_value(g, m) for m in AT_M] == [expected(m) for m in AT_M]
