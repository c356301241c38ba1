"""Reference routes for checking benchmark answers, independent of dpchroma.

Everything works on plain (n, edges) inputs with u < v in every pair and
imports nothing from the package under test, so a defect in the library
cannot hide the same defect here.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction


def count_assignments(n, constraints, m):
    """Maps x: range(n) -> range(m) that avoid every constraint (a, b, f).

    A constraint forbids x[b] == f[x[a]] for a permutation f of range(m):
    the identity on every edge counts proper m-colourings, P(G, m), and a
    cover edge (u, v) with permutation sigma is the constraint (u, v, sigma).
    The count is a frontier dynamic program: vertices join one at a time, a
    table maps the values of the frontier (joined vertices with a neighbour
    still to come) to the number of consistent partial maps, and a vertex
    leaves the table once its last neighbour has joined.
    """
    adj = [[] for _ in range(n)]
    for a, b, f in constraints:
        inverse = [0] * m
        for q, r in enumerate(f):
            inverse[r] = q
        adj[a].append((b, tuple(inverse)))  # seen from a: x[a] != f^-1[x[b]]
        adj[b].append((a, tuple(f)))        # seen from b: x[b] != f[x[a]]
    waiting = [len({w for w, _ in adj[v]}) for v in range(n)]
    joined = [False] * n
    frontier: list[int] = []
    table = {(): 1}
    for _ in range(n):
        v = min((u for u in range(n) if not joined[u]),
                key=lambda u: (_frontier_after(u, adj, joined, waiting, frontier), u))
        slot = {w: k for k, w in enumerate(frontier)}
        checks = [(slot[w], f) for w, f in adj[v] if joined[w]]
        grown: dict[tuple, int] = defaultdict(int)
        for state, ways in table.items():
            banned = {f[state[k]] for k, f in checks}
            for c in range(m):
                if c not in banned:
                    grown[state + (c,)] += ways
        joined[v] = True
        frontier.append(v)
        for w in {w for w, _ in adj[v]}:
            waiting[w] -= 1
        waiting[v] = len({w for w, _ in adj[v] if not joined[w]})
        keep = [k for k, w in enumerate(frontier) if waiting[w] > 0]
        if len(keep) == len(frontier):
            table = grown
            continue
        table = defaultdict(int)
        for state, ways in grown.items():
            table[tuple(state[k] for k in keep)] += ways
        frontier = [frontier[k] for k in keep]
    return sum(table.values())


def _frontier_after(u, adj, joined, waiting, frontier):
    """Frontier size once u joins: vertices whose last pending neighbour is u
    leave, and u stays if it still has neighbours to come."""
    nbrs = {w for w, _ in adj[u]}
    leaving = sum(1 for w in frontier if w in nbrs and waiting[w] == 1)
    stays = any(not joined[w] for w in nbrs)
    return len(frontier) - leaving + (1 if stays else 0)


def colourings(n, edges, m):
    """P(G, m): proper m-colourings."""
    ident = tuple(range(m))
    return count_assignments(n, [(u, v, ident) for u, v in edges], m)


def shift_cover_transversals(n, edges, arcs, m):
    """Transversals of the cover matching q at t with q + 1 at h per arc (t, h)."""
    ident = tuple(range(m))
    up = tuple((q + 1) % m for q in range(m))
    directed = {(min(t, h), max(t, h)): (t, h) for t, h in arcs}
    cons = []
    for u, v in edges:
        t, h = directed.get((u, v), (u, v))
        cons.append((t, h, up if (u, v) in directed else ident))
    return count_assignments(n, cons, m)


def simple_cycles(n, edges):
    """Every simple cycle once, as a vertex tuple starting at its least vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []

    def extend(path, seen):
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            elif w > path[0] and w not in seen:
                seen.add(w)
                path.append(w)
                extend(path, seen)
                path.pop()
                seen.discard(w)

    for s in range(n):
        extend([s], {s})
    return out


def cycle_edge_indices(cycle, index):
    return [index[(a, b) if a < b else (b, a)]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def edge_set_girth(n, edges, subset):
    """Length of a shortest cycle meeting the edge-index set oddly, or None."""
    index = {e: i for i, e in enumerate(edges)}
    best = None
    for cyc in simple_cycles(n, edges):
        hits = sum(1 for i in cycle_edge_indices(cyc, index) if i in subset)
        if hits % 2 == 1 and (best is None or len(cyc) < best):
            best = len(cyc)
    return best


def edge_girth(n, edges, e):
    """Length of a shortest cycle through edge e (BFS avoiding e), or None."""
    u, v = edges[e]
    adj = [[] for _ in range(n)]
    for a, b in edges:
        if (a, b) != (u, v):
            adj[a].append(b)
            adj[b].append(a)
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in dist:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist[v] + 1 if v in dist else None


def forced_edges(n, edges) -> set:
    """Edges of even or infinite girth: every DP-good spanning tree holds them."""
    girths = (edge_girth(n, edges, i) for i in range(len(edges)))
    return {i for i, g in enumerate(girths) if g is None or g % 2 == 0}


def connected(n, vertices, edges):
    """Is the subgraph induced on `vertices` by `edges` connected (non-empty)?"""
    vs = set(vertices)
    if not vs:
        return False
    adj = defaultdict(list)
    for a, b in edges:
        if a in vs and b in vs:
            adj[a].append(b)
            adj[b].append(a)
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def forced_tree_count(n, edges, forced) -> int:
    """Spanning trees containing every forced edge (matrix-tree theorem).

    Contract the forced edges and count the spanning trees of the resulting
    multigraph as a cofactor of its Laplacian; zero if the forced edges
    already close a cycle.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in forced:
        a, b = (find(x) for x in edges[i])
        if a == b:
            return 0
        parent[a] = b
    roots = sorted({find(v) for v in range(n)})
    pos = {r: k for k, r in enumerate(roots)}
    size = len(roots)
    lap = [[Fraction(0)] * size for _ in range(size)]
    for i, (u, v) in enumerate(edges):
        if i in forced:
            continue
        a, b = pos[find(u)], pos[find(v)]
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    return _determinant([row[1:] for row in lap[1:]])


def _determinant(rows) -> int:
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            if factor:
                for c in range(col, len(rows)):
                    rows[r][c] -= factor * rows[col][c]
    return int(det)
