"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Random families are seeded, so every run checks the same instances.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import oracles
from conftest import connected_edge_sets, is_chordal, random_edges

from dpchroma import (
    Graph,
    OrientedEdgeSet,
    check_dp_good,
    check_vertex_order,
    chromatic_polynomial,
    count_transversals,
    cycle_graph,
    dp_exact,
    edge_girth,
    edge_set_girth,
    fig1_graph,
    twisted_cover,
    verify_dp_good_certificate,
)
from test_classify import fig1_certificate


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [FAIL] {name}")
        raise
    print(f"criterion {num:2d} [PASS] {name} ({time.time() - start:.1f}s)")


def _connected_graphs_with_small_excess(max_n, max_q):
    for n in range(1, max_n + 1):
        for edges in connected_edge_sets(n):
            if len(edges) - (n - 1) <= max_q:
                yield Graph(n, edges)


def test_criterion_1_chromatic_oracle_equivalence():
    with criterion(1, "block product equals subset sum on 200 random graphs"):
        start = time.time()
        rng = random.Random(101)
        done = 0
        while done < 200:
            n = rng.randint(2, 6)
            edges = random_edges(rng, n, rng.uniform(0.3, 0.8))
            if not oracles.is_connected(n, edges):
                continue
            g = Graph(n, edges)
            assert chromatic_polynomial(g).coeffs == oracles.chromatic_incl_excl(n, list(g.edges))
            done += 1
        assert time.time() - start < 60


def test_criterion_2_dp_counting_oracle_equivalence():
    with criterion(2, "frontier pass equals brute force on 500 random covers"):
        start = time.time()
        rng = random.Random(202)
        for _ in range(500):
            n = rng.randint(2, 6)
            g = Graph(n, random_edges(rng, n, rng.uniform(0.3, 0.8)))
            m = rng.randint(1, 3)
            perms = tuple(tuple(rng.sample(range(m), m)) for _ in range(g.m))
            from dpchroma import Cover

            cov = Cover(g, m, perms)
            assert count_transversals(g, cov).value == \
                oracles.transversal_count(n, list(g.edges), list(perms), m)
        assert time.time() - start < 300


def test_criterion_3_fundamental_inequality():
    with criterion(3, "dp_exact <= chromatic on all n<=5 graphs with q<=2"):
        start = time.time()
        for g in _connected_graphs_with_small_excess(5, 2):
            p = chromatic_polynomial(g)
            for m in (2, 3, 4):
                assert dp_exact(g, m).value <= p(m)
        assert time.time() - start < 300


def test_criterion_4_chordal_equality():
    with criterion(4, "dp_exact equals chromatic on chordal n<=5 graphs with q<=2"):
        start = time.time()
        checked = 0
        for g in _connected_graphs_with_small_excess(5, 2):
            if not is_chordal(g.n, list(g.edges)):
                continue
            checked += 1
            p = chromatic_polynomial(g)
            for m in (2, 3):
                assert dp_exact(g, m).value == p(m)
        assert checked > 100
        assert time.time() - start < 300


def test_criterion_5_exact_desk_values():
    with criterion(5, "frozen exact counts on small cycles"):
        c3, c4 = cycle_graph(3), cycle_graph(4)
        assert chromatic_polynomial(c4)(3) == 18
        assert dp_exact(c4, 3).value == 15
        assert dp_exact(c4, 2).value == 0
        assert dp_exact(c3, 2).value == 0
        est = OrientedEdgeSet.from_tails(c3, {0: 0})
        twisted3 = count_transversals(c3, twisted_cover(c3, est, 3)).value
        assert twisted3 == 9
        assert chromatic_polynomial(c3)(3) == 6
        assert twisted3 > 6


def test_criterion_6_twist_construction_beats_chromatic():
    with criterion(6, "shift cover strictly below chromatic for m in 2..8"):
        start = time.time()
        pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
        for g in (cycle_graph(4), cycle_graph(6), pendant):
            p = chromatic_polynomial(g)
            even_edges = [i for i in range(g.m)
                          if edge_girth(g, i).is_finite
                          and int(edge_girth(g, i).value) % 2 == 0]
            assert even_edges
            for e in even_edges:
                est = OrientedEdgeSet.from_tails(g, {e: g.edges[e][0]})
                for m in range(2, 9):
                    cov = twisted_cover(g, est, m)
                    assert count_transversals(g, cov).value < p(m)
        assert time.time() - start < 60


def test_criterion_7_odd_intersection_cycles_have_no_copies():
    with criterion(7, "no matched cycle copies in shift covers once m > k"):
        from itertools import product

        for n in range(3, 9):
            g = cycle_graph(n)
            for k in (1, 2, 3):
                if k > n:
                    continue
                for subset in combinations(range(n), k):
                    # the lone cycle meets the set k times; only odd k applies
                    if k % 2 == 0:
                        continue
                    for choice in product((0, 1), repeat=k):
                        tails = {i: g.edges[i][c] for i, c in zip(subset, choice)}
                        est = OrientedEdgeSet.from_tails(g, tails)
                        for m in range(k + 1, 9):
                            cov = twisted_cover(g, est, m)
                            assert oracles.cycle_matched_count(
                                list(g.edges), cov.perms, m, range(n)) == 0


def test_criterion_8_fig1_certificate():
    with criterion(8, "the 14-vertex fixture certificate verifies and is found"):
        g = fig1_graph()
        cert = fig1_certificate()
        assert verify_dp_good_certificate(g, cert)
        girths = [int(edge_girth(g, e).value) for e in cert.labeling]
        assert girths == [3, 3, 3, 3, 3, 3, 5, 5]
        verdict = check_dp_good(g)
        assert verdict.satisfied
        assert verdict.detail["girth_sequence"] == [3, 3, 3, 3, 3, 3, 5, 5]
        assert verify_dp_good_certificate(g, verdict.certificate)


def test_criterion_9_vertex_order_implies_dp_good():
    with criterion(9, "orderable implies certificate found, all n<=6 graphs"):
        for n in range(1, 7):
            for edges in connected_edge_sets(n):
                g = Graph(n, edges)
                if check_vertex_order(g).satisfied:
                    assert check_dp_good(g).satisfied


def test_criterion_10_girth_oracle():
    with criterion(10, "set girth equals enumeration minimum on 300 random sets"):
        rng = random.Random(1010)
        done = 0
        while done < 300:
            n = rng.randint(3, 7)
            g = Graph(n, random_edges(rng, n, rng.uniform(0.3, 0.7)))
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
            # singleton girth always reduces to the edge girth
            for i in range(g.m):
                assert edge_set_girth(g, 1 << i).value == edge_girth(g, i).value
            done += 1
