"""Shared test helpers: graph generators and small structural predicates."""

import random
from functools import lru_cache
from itertools import combinations

import pytest

from dpchroma import Graph


def random_edges(rng: random.Random, n: int, p: float):
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def random_connected_graph(rng: random.Random, lo=2, hi=6):
    """A random connected graph with lo <= n <= hi vertices."""
    while True:
        n = rng.randint(lo, hi)
        edges = random_edges(rng, n, rng.uniform(0.3, 0.8))
        g = Graph(n, edges)
        if _connected(n, edges):
            return g


def stacked_triangulation(n, rng):
    """A plane triangulation grown from a triangle by putting each new
    vertex inside a face and joining it to the face's three corners."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]  # inside and outside the first triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, edges)


def outer_path_near_triangulation(n, rng):
    """A plane graph whose inner faces are triangles, grown from a triangle
    by joining each new vertex to a path of 2 or more consecutive vertices
    of the outer cycle; the path's inner vertices leave the outer cycle."""
    edges = [(0, 1), (0, 2), (1, 2)]
    outer = [0, 1, 2]
    for v in range(3, n):
        k = rng.randint(2, min(len(outer), 5))
        i = rng.randrange(len(outer))
        outer = outer[i:] + outer[:i]
        edges += [(w, v) for w in outer[:k]]
        outer = [outer[0], v] + outer[k - 1:]
    return Graph(n, edges)


def _connected(n, edges):
    if n <= 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@lru_cache(maxsize=None)
def connected_edge_sets(n):
    """Every labeled connected graph on n vertices, as edge tuples."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if _connected(n, edges):
            out.append(tuple(edges))
    return out


def is_chordal(n, edges):
    """Repeatedly strip simplicial vertices; chordal iff nothing is left."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    while alive:
        simplicial = None
        for v in alive:
            nb = adj[v] & alive
            if all(b in adj[a] for a, b in combinations(sorted(nb), 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.remove(simplicial)
    return True


@pytest.fixture
def horton_calls(monkeypatch):
    """The BFS cut of every call of `graphs._horton_candidates`, in order."""
    from dpchroma import graphs

    calls = []
    horton = graphs._horton_candidates
    monkeypatch.setattr(graphs, "_horton_candidates",
                        lambda g, cut: calls.append(cut) or horton(g, cut))
    return calls


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
