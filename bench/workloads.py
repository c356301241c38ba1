"""Seeded query lists for the benchmark workloads.

A workload turns a seed into graphs, written as edge-list files so that the
seeded queries parse their input through `--graph`, and into a list of
queries; the paper's figures and complete:4 are named with `--fixture`.  A query
is the argument vector for `dpchroma.cli.main` plus the facts its answer is
checked against.  The same seed always gives the same queries.

The query mix in each workload is a fixed schedule of graph shapes; the seed
only chooses which graphs of each shape are drawn, so that the work, and with
it the run time, varies little from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations

from oracles import colourings, forced_edges, forced_tree_count, shift_cover_transversals

HERE = os.path.dirname(os.path.abspath(__file__))
POOL = os.path.join(HERE, "pool.json")

# fixtures of dpchroma.graphs, copied edge for edge so that the checks need
# nothing from the package under test
FIG1 = (14, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (2, 6), (5, 6), (5, 7), (3, 7),
    (5, 8), (7, 8),
    (5, 9), (6, 9),
    (7, 10), (3, 10),
    (6, 11), (2, 11),
    (4, 12), (0, 12),
    (0, 13), (1, 13),
])
FIG3B = (10, [
    (2, 3), (2, 7), (3, 6), (0, 3), (1, 2),
    (3, 5), (4, 5), (2, 4), (0, 2), (1, 3), (0, 4),
    (4, 6), (6, 8), (4, 8), (1, 5), (5, 9), (7, 9),
    (5, 7), (2, 6), (3, 7), (5, 8), (4, 9),
])
FIG3B_V1 = (0, 2, 6)
FIG3B_V2 = (1, 3, 7)
# the crossing edge set of fig3b, every edge oriented from V1 to V2
FIG3B_ARCS = ((2, 3), (2, 7), (6, 3), (0, 3), (2, 1))
COMPLETE4 = (4, list(combinations(range(4), 2)))

# P_DP(K4, 4), computed once by tests/oracles.dp_minimum (a brute-force sweep
# over all 24^3 tree-normalized covers with an m^n transversal count)
DP_COMPLETE4_M4 = 24
# spanning trees that check_dp_good streams on the two paper figures: fig1
# finds a certificate on tree 3,781 and fig3b exhausts all 61,370 trees that
# contain its even-girth edges
FIG1_TREES = 3781
FIG3B_TREES = 61370

# dp-sweep: (vertices, fold count m, non-tree edges q, graphs); every graph
# has (m!)^q <= 576 covers, and most of the sweep is the many small
# backtracking counts of m = 4.  The twelve 576-cover sweeps on five vertices
# hold the 90th-percentile latency inside one kind of query.
DP_SWEEP = (
    (4, 3, 2, 8), (4, 3, 3, 6), (4, 4, 1, 8), (4, 4, 2, 3),
    (5, 3, 1, 8), (5, 3, 2, 10), (5, 3, 3, 10), (5, 4, 1, 10), (5, 4, 2, 12),
    (6, 3, 1, 8), (6, 3, 2, 10), (6, 3, 3, 10), (6, 4, 1, 10), (6, 4, 2, 3),
)
# certify: (vertices, edges, graphs) for the seeded classify queries, each
# graph followed by SETGIRTHS setgirth queries.  A graph is kept only when
# the spanning trees that check_dp_good may stream, those containing every
# edge of even or infinite girth, number within TREES.  The bounds keep the
# classify costs alike from seed to seed, and the setgirth majority puts
# the median latency inside one kind of query.
CERTIFY = ((8, 15, 16), (9, 16, 16), (10, 17, 16))
SETGIRTHS = 2
TREES = (550, 650)


def connected_graph(rng: random.Random, n: int, ne: int) -> list[tuple[int, int]]:
    """A random connected simple graph with n vertices and ne edges, sorted."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, ne - (n - 1)))
    return sorted(edges)


class Workload:
    """Collects the graph files and queries of one workload instance."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.queries: list[dict] = []
        self.graph_files: list[str] = []

    def graph(self, n: int, edges) -> str:
        path = os.path.join(self.workdir, f"g{len(self.graph_files):03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        self.graph_files.append(path)
        return path

    def add(self, argv: list[str], kind: str, n: int, edges, **facts) -> None:
        self.queries.append({"argv": argv + ["--format", "json"], "kind": kind, "n": n,
                             "edges": [list(e) for e in edges], **facts})


def dp_sweep(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"dp-sweep/{seed}")
    b = Workload(workdir)
    shapes = [(n, m, q) for n, m, q, copies in DP_SWEEP for _ in range(copies)]
    rng.shuffle(shapes)
    for n, m, q in shapes:
        edges = connected_graph(rng, n, n - 1 + q)
        path = b.graph(n, edges)
        b.add(["dpexact", "--graph", path, "--m", str(m)], "dpexact", n, edges, m=m)
    for jobs in ("1", "2"):
        b.add(["dpexact", "--fixture", "complete:4", "--m", "4", "--jobs", jobs],
              "dpexact", *COMPLETE4, m=4, dp_value=DP_COMPLETE4_M4)
    return b


def _arc_text(arcs) -> str:
    return ",".join(f"{t}>{h}" for t, h in arcs)


def fold_count(seed: int, workdir: str) -> Workload:
    """Chromatic polynomials and twisted-cover counts at m = 4, 5, 6.

    The seeded graphs come from a pool whose reference values were computed
    once by an independent route (make_pool.py); each graph's chromatic
    query comes before its twist queries, which reuse the cached polynomial.
    """
    rng = random.Random(f"fold-count/{seed}")
    with open(POOL, encoding="utf-8") as fh:
        pool = json.load(fh)
    b = Workload(workdir)
    entries = []
    for stratum in pool["strata"]:
        entries.extend(rng.sample(stratum["graphs"], stratum["pick"]))
    rng.shuffle(entries)
    for entry in entries:
        n, edges = entry["n"], [tuple(e) for e in entry["edges"]]
        path = b.graph(n, edges)
        values = {int(m): v for m, v in entry["chromatic"].items()}
        b.add(["chromatic", "--graph", path, "--at", "4", "--at", "5", "--at", "6"],
              "chromatic", n, edges, values=values)
        for m, count in entry["twist"].items():
            b.add(["twist", "--graph", path, "--estar", _arc_text(entry["arcs"]), "--m", m],
                  "twist", n, edges, m=int(m), count=count, p=values[int(m)])
    for name, (n, edges), arcs, ms in (("fig1", FIG1, (), ()),
                                       ("fig3b", FIG3B, FIG3B_ARCS, (4, 5, 6))):
        values = {m: colourings(n, edges, m) for m in (4, 5, 6)}
        b.add(["chromatic", "--fixture", name, "--at", "4", "--at", "5", "--at", "6"],
              "chromatic", n, edges, values=values)
        for m in ms:
            b.add(["twist", "--fixture", name, "--estar", _arc_text(arcs), "--m", str(m)],
                  "twist", n, edges, m=m, p=values[m],
                  count=shift_cover_transversals(n, edges, arcs, m))
    return b


def certify(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"certify/{seed}")
    b = Workload(workdir)
    b.add(["classify", "--fixture", "fig1"], "classify", *FIG1, trees=FIG1_TREES)
    b.add(["classify", "--fixture", "fig3b"], "classify", *FIG3B, trees=FIG3B_TREES)
    arcs = _arc_text(FIG3B_ARCS)
    v1, v2 = ",".join(map(str, FIG3B_V1)), ",".join(map(str, FIG3B_V2))
    b.add(["cor5", "--fixture", "fig3b", "--v1", v1, "--v2", v2],
          "crossing", *FIG3B, v1=FIG3B_V1, v2=FIG3B_V2)
    b.add(["thm5", "--fixture", "fig3b", "--estar", arcs],
          "orientation", *FIG3B, arcs=FIG3B_ARCS)
    b.add(["balance", "--fixture", "fig3b", "--estar", arcs, "--bound", "4"],
          "balance", *FIG3B, arcs=FIG3B_ARCS, bound=4)
    shapes = [(n, ne) for n, ne, copies in CERTIFY for _ in range(copies)]
    rng.shuffle(shapes)
    for n, ne in shapes:
        while True:
            edges = connected_graph(rng, n, ne)
            trees = forced_tree_count(n, edges, forced_edges(n, edges))
            if TREES[0] <= trees <= TREES[1]:
                break
        path = b.graph(n, edges)
        b.add(["classify", "--graph", path], "classify", n, edges)
        for _ in range(SETGIRTHS):
            subset = sorted(rng.sample(range(ne), rng.randint(1, ne // 2)))
            b.add(["setgirth", "--graph", path, "--edges", ",".join(map(str, subset))],
                  "setgirth", n, edges, subset=subset)
    return b


WORKLOADS = {"dp-sweep": dp_sweep, "fold-count": fold_count, "certify": certify}
