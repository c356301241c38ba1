"""Brute-force oracles, independent of the package under test.

Everything here works on plain (n, edges) pairs, where edges is a list of
(u, v) tuples with u < v, and enumerates exhaustively.  Deliberately no
imports from dpchroma beyond its budget error: these are the reference
implementations the fast code is checked against.
"""

from bisect import insort
from collections import deque
from itertools import combinations, permutations, product

from dpchroma.errors import BudgetExceededError


def components(n, edges, subset=None):
    """Connected components as a list of vertex sets (isolated included)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = edges if subset is None else [edges[i] for i in subset]
    for u, v in picked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def is_connected(n, edges):
    return n <= 1 or len(components(n, edges)) == 1


def color_count(n, edges, m):
    """Number of proper m-colorings, by trying all m^n assignments."""
    total = 0
    for assign in product(range(m), repeat=n):
        if all(assign[u] != assign[v] for u, v in edges):
            total += 1
    return total


def chromatic_incl_excl(n, edges):
    """Chromatic polynomial coefficients, ascending in m, as the sum over
    edge subsets A of (-1)^|A| m^c(A), for c(A) the components of (V, A)."""
    counts = [0] * (n + 1)
    for mask in range(1 << len(edges)):
        subset = [i for i in range(len(edges)) if mask >> i & 1]
        counts[len(components(n, edges, subset))] += (-1) ** len(subset)
    return tuple(counts)


def transversal_count(n, edges, perms, m):
    """Cover colorings by trying all m^n index picks.

    perms[i] is the permutation for edges[i] = (u, v) with u < v, mapping
    the index chosen at u to the forbidden index at v.
    """
    total = 0
    for assign in product(range(m), repeat=n):
        ok = True
        for (u, v), sigma in zip(edges, perms):
            if assign[v] == sigma[assign[u]]:
                ok = False
                break
        if ok:
            total += 1
    return total


def pair_counts(n, edges, perms, m, u, v):
    """M[i][j]: the transversals with index i at u and j at v, tallied over
    all m^n index picks."""
    pairs = [[0] * m for _ in range(m)]
    for assign in product(range(m), repeat=n):
        if all(assign[b] != sigma[assign[a]] for (a, b), sigma in zip(edges, perms)):
            pairs[assign[u]][assign[v]] += 1
    return pairs


def best_matching(weights):
    """(max, count, first) of sum_i weights[i][sigma(i)] over every
    permutation sigma, in lexicographic order."""
    m = len(weights)
    scores = [(sum(weights[i][s[i]] for i in range(m)), s) for s in permutations(range(m))]
    top = max(score for score, _ in scores)
    winners = [s for score, s in scores if score == top]
    return top, len(winners), winners[0]


def matched_count(n, edges, perms, m, subset):
    """Selections where every edge in subset is matched (not merely allowed)."""
    total = 0
    for assign in product(range(m), repeat=n):
        ok = True
        for i in subset:
            u, v = edges[i]
            if assign[v] != perms[i][assign[u]]:
                ok = False
                break
        if ok:
            total += 1
    return total


def cycle_matched_count(edges, perms, m, cycle):
    """Index picks on the vertices of `cycle`, a vertex sequence, that match
    every edge of it: the fixed points of the permutation composed around
    the cycle, perms[i] read from the smaller end of edges[i]."""
    index = {e: i for i, e in enumerate(edges)}
    cycle = list(cycle)
    around = list(range(m))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        sigma = perms[index[min(a, b), max(a, b)]]
        step = sigma if a < b else [sigma.index(y) for y in range(m)]
        around = [step[x] for x in around]
    return sum(x == y for x, y in enumerate(around))


def all_cycles(n, edges, max_len=None):
    """Every simple cycle, canonical (min vertex first, smaller neighbor next)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found = set()

    def extend(path, seen):
        if max_len is not None and len(path) > max_len:
            return
        last = path[-1]
        for w in adj[last]:
            if w == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    found.add(tuple(path))
            elif w not in seen and w > path[0]:
                seen.add(w)
                path.append(w)
                extend(path, seen)
                path.pop()
                seen.remove(w)

    for s in range(n):
        extend([s], {s})
    return sorted(found, key=lambda c: (len(c), c))


def cycle_space_rank(n, edges, max_len):
    """The GF(2) rank of the cycles of length at most max_len, by
    elimination over every simple cycle as a bitmask of edge indices."""
    index = {frozenset(e): i for i, e in enumerate(edges)}
    basis = []  # kept sorted descending, so each min() clears one top bit
    for cyc in all_cycles(n, edges, max_len):
        vec = sum(1 << index[frozenset(p)] for p in zip(cyc, cyc[1:] + cyc[:1]))
        for row in basis:
            vec = min(vec, vec ^ row)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
    return len(basis)


def spanning_tree_sets(n, edges):
    """All spanning trees as frozensets of edge indices (exhaustive)."""
    if n == 0:
        return []
    trees = []
    for combo in combinations(range(len(edges)), n - 1):
        if len(components(n, edges, combo)) == 1:
            trees.append(frozenset(combo))
    return trees


def spanning_trees_holding(n, edges, forced=frozenset(), budget=None):
    """The spanning trees (frozensets of edge indices) that hold every edge
    of `forced`, in descending order of their indicator vectors, edge 0 most
    significant; none if the forced edges close a cycle.

    Each other edge in turn is taken, where it joins two components of the
    edges taken, before it is left out, where the edges not yet decided can
    still join the graph (an edge inside a component joins nothing new).
    Reaching tree budget + 1 raises BudgetExceededError.
    """
    free = [i for i in range(len(edges)) if i not in forced]
    start = sorted(forced)
    comps = components(n, edges, start)
    if len(comps) != n - len(start) or len(components(n, edges, start + free)) != 1:
        return
    label = [0] * n  # label[v]: the component of v among the edges taken
    for c, comp in enumerate(comps):
        for v in comp:
            label[v] = c
    count = 0
    stack = [(0, start, label)]  # (edges of free decided, edges taken, labels)
    while stack:
        k, chosen, label = stack.pop()
        if k == len(free):
            if count == budget:
                raise BudgetExceededError("spanning trees", count + 1, budget)
            count += 1
            yield frozenset(chosen)
            continue
        u, v = edges[free[k]]
        a, b = label[u], label[v]
        if a == b or len(components(n, edges, chosen + free[k + 1:])) == 1:
            stack.append((k + 1, chosen, label))  # left out, walked after the take
        if a != b:
            stack.append((k + 1, chosen + [free[k]], [a if x == b else x for x in label]))


def bridges(n, edges, subset):
    """Edge indices in subset whose removal splits their subgraph further."""
    base = len(components(n, edges, subset))
    out = []
    for i in subset:
        rest = [j for j in subset if j != i]
        if len(components(n, edges, rest)) > base:
            out.append(i)
    return out


def twisted_perms(edges, estar_tails, m):
    """Shift permutations for directed edges, identity elsewhere.

    estar_tails maps edge index -> tail vertex; the matching sends index q
    at the tail to q+1 (mod m) at the head.
    """
    perms = []
    for i, (u, v) in enumerate(edges):
        if i in estar_tails:
            if estar_tails[i] == u:
                perms.append(tuple((q + 1) % m for q in range(m)))
            else:
                perms.append(tuple((q - 1) % m for q in range(m)))
        else:
            perms.append(tuple(range(m)))
    return perms


def dp_minimum(n, edges, m):
    """Exact DP count: minimize transversals over tree-normalized covers."""
    tree = min(spanning_tree_sets(n, edges))
    free = [i for i in range(len(edges)) if i not in tree]
    ident = tuple(range(m))
    best = None
    for combo in product(list(permutations(range(m))), repeat=len(free)):
        perms = [ident] * len(edges)
        for i, sigma in zip(free, combo):
            perms[i] = sigma
        cnt = transversal_count(n, edges, perms, m)
        if best is None or cnt < best:
            best = cnt
    return best


def edge_set_girth(n, edges, e0):
    """Shortest cycle meeting e0 (edge index set) an odd number of times."""
    index = {e: i for i, e in enumerate(edges)}
    best = None
    for cyc in all_cycles(n, edges):
        hits = 0
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            i = index[(a, b) if a < b else (b, a)]
            if i in e0:
                hits += 1
        if hits % 2 == 1 and (best is None or len(cyc) < len(best)):
            best = cyc
    return (None, None) if best is None else (len(best), best)


def set_girth_witness(n, edges, e0):
    """The shortest cycle meeting e0 (edge index set) oddly that a BFS over
    the parity double cover finds first, or None: node 2v+p stands for
    (v, p), e0 edges join the layers, neighbours are tried ascending, and
    for s = 0, 1, ... a (s, 0)-(s, 1) path replaces the best so far only
    when it is shorter."""
    cover = [[] for _ in range(2 * n)]
    for i, (u, v) in enumerate(edges):
        flip = 1 if i in e0 else 0
        for a, b in ((u, v), (v, u)):
            cover[2 * a].append(2 * b + flip)
            cover[2 * a + 1].append(2 * b + 1 - flip)
    for nbrs in cover:
        nbrs.sort()
    best = None
    for s in range(n):
        limit = None if best is None else len(best) - 1
        path = bfs_path(cover, 2 * s, 2 * s + 1, limit)
        if path is not None:
            best = [node >> 1 for node in path[:-1]]
    return None if best is None else canonical_cycle(best)


def crossing_set_holds(n, edges, v1, v2, e0):
    """The crossing-edge-set condition for e0 between classes v1 and v2.

    The set girth must be finite and even, and on every shorter cycle each
    arc left by deleting the e0 edges (from the vertex after one e0 edge to
    the vertex before the next) must start and end in the same class.
    """
    r0, _ = edge_set_girth(n, edges, e0)
    if r0 is None or r0 % 2 == 1:
        return False
    index = {e: i for i, e in enumerate(edges)}
    side = {v: 1 for v in v1} | {v: 2 for v in v2}
    for cyc in all_cycles(n, edges, r0 - 1):
        k = len(cyc)
        cuts = [p for p in range(k)
                if index[tuple(sorted((cyc[p], cyc[(p + 1) % k])))] in e0]
        if not cuts:
            continue
        for a, b in zip(cuts, cuts[1:] + [cuts[0] + k]):
            if side[cyc[(a + 1) % k]] != side[cyc[b % k]]:
                return False
    return True


def sorted_adjacency(n, edges, subset):
    """Ascending neighbour lists of the edges with indices in subset."""
    adj = [[] for _ in range(n)]
    for i in subset:
        u, v = edges[i]
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return adj


def bfs_path(adj, u, v, limit=None):
    """A shortest u-v path trying neighbours in list order, or None if v is
    not within limit edges of u."""
    parent = {u: u}
    frontier = [u]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        nxt = []
        for x in frontier:
            for w in adj[x]:
                if w in parent:
                    continue
                parent[w] = x
                if w == v:
                    path = [v]
                    while x != u:
                        path.append(x)
                        x = parent[x]
                    path.append(u)
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def bfs_forest(n, edges, subset, roots, limit=None):
    """The BFS forest of the edges with indices in subset, as (vertex,
    parent) pairs in visiting order, each root its own parent: one FIFO
    queue per root not yet reached, neighbours ascending, and a vertex limit
    edges from its root not expanded."""
    adj = sorted_adjacency(n, edges, subset)
    depth = {}
    out = []
    for r in roots:
        if r in depth:
            continue
        depth[r] = 0
        out.append((r, r))
        queue = deque([r])
        while queue:
            x = queue.popleft()
            if depth[x] == limit:
                continue
            for w in adj[x]:
                if w not in depth:
                    depth[w] = depth[x] + 1
                    out.append((w, x))
                    queue.append(w)
    return out


def canonical_cycle(path):
    """The cycle through path's vertices from its smallest vertex, in the
    direction with the smaller second vertex."""
    k = path.index(min(path))
    rot = path[k:] + path[:k]
    return rot if rot[1] < rot[-1] else rot[:1] + rot[:0:-1]


def edge_girths(n, edges):
    """Shortest cycle length through each edge, None for a bridge."""
    out = []
    for e, (u, v) in enumerate(edges):
        rest = [i for i in range(len(edges)) if i != e]
        path = bfs_path(sorted_adjacency(n, edges, rest), u, v)
        out.append(None if path is None else len(path))
    return out


def dp_good_labeling(n, edges, girths, tree):
    """The greedy DP-good labeling of one spanning tree (a set of edge
    indices), as certificate JSON, or None.

    The edges of odd girth outside the tree are placed in (girth, index)
    order, each as the first of the least pending girth whose endpoints a
    BFS over the tree plus the edges placed so far joins by a path of
    girth - 1 edges; that path closes its witness cycle.
    """
    labelable = sorted((i for i, x in enumerate(girths) if x is not None and x % 2),
                       key=lambda i: (girths[i], i))
    adj = sorted_adjacency(n, edges, tree)
    pending = [i for i in labelable if i not in tree]
    labeling = []
    paths = []
    while pending:
        girth_now = girths[pending[0]]
        placed = None
        for e in pending:
            if girths[e] != girth_now:
                break
            u, v = edges[e]
            target = girths[e] - 1
            path = bfs_path(adj, u, v, target)
            if path is not None and len(path) - 1 == target:
                placed = (e, path)
                break
        if placed is None:
            return None
        e, path = placed
        labeling.append(e)
        paths.append(path)
        u, v = edges[e]
        insort(adj[u], v)
        insort(adj[v], u)
        pending.remove(e)
    return {"tree": sorted(tree), "labeling": labeling,
            "cycles": [canonical_cycle(path) for path in paths]}


def vertex_order(n, edges):
    """An order in which every vertex after the first has a non-empty,
    connected set of earlier neighbours, or None.  The last vertex is the
    least that can end such an order, and so on down; plain recursion."""
    adjacent = set(edges) | {(v, u) for u, v in edges}

    def order(rest):
        if len(rest) == 1:
            return sorted(rest)
        for v in sorted(rest):
            back = sorted(u for u in rest if (u, v) in adjacent)
            index = {u: i for i, u in enumerate(back)}
            inside = [(index[a], index[b]) for a, b in edges if a in index and b in index]
            if not back or not is_connected(len(back), inside):
                continue
            head = order(rest - {v})
            if head is not None:
                return head + [v]
        return None

    return order(frozenset(range(n)))


def cycle_graph(n):
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def complete_graph(n):
    return n, list(combinations(range(n), 2))


def path_graph(n):
    return n, [(i, i + 1) for i in range(n - 1)]
