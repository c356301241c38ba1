"""Regenerate pool.json, the graphs of the fold-count workload.

    python3 bench/make_pool.py

Each stratum holds connected graphs with a fixed vertex and edge count; a
benchmark run draws `pick` graphs from every stratum.  Each graph carries a
crossing edge set between two random vertex classes of three, oriented from
the first class to the second, and its reference values: P(G, m) at
m = 4, 5, 6 and the twisted-cover count at every m whose expected count
m^n (1 - 1/m)^|E| stays within TWIST_CAP.  The cap keeps each count far
inside the default transversal node budget and its query under about a
second.  The values come from oracles.py, not from dpchroma, and the pool is
written once, so a run only looks them up.

So that runs with different seeds do alike work, each stratum keeps the
candidates closest to the stratum's middle by two costs read from the
input: the number of acyclic orientations, |P(G, -1)|, which tracks the
size of a deletion-contraction, and the largest twisted-cover count, which
tracks the size of a backtracking count.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics

from oracles import colourings, shift_cover_transversals
from workloads import POOL, connected_graph

SEED = 2203
TWIST_CAP = 4e5
POOL_FACTOR = 2  # graphs per stratum, as a multiple of the graphs drawn
CANDIDATES = 5  # candidates generated per graph kept
STRATA = ((11, 23, 22), (12, 26, 9), (13, 28, 9))  # (n, |E|, pick)


def acyclic_orientations(n: int, edges) -> int:
    """|P(G, -1)|, by the recurrence over non-empty independent source sets."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    full = (1 << n) - 1
    independent = [True] * (full + 1)
    for t in range(1, full + 1):
        low = (t & -t).bit_length() - 1
        independent[t] = independent[t & (t - 1)] and not nbr[low] & t
    count = [0] * (full + 1)
    count[0] = 1
    for s in range(1, full + 1):
        total = 0
        t = s
        while t:
            if independent[t]:
                total += count[s ^ t] if t.bit_count() % 2 else -count[s ^ t]
            t = (t - 1) & s
        count[s] = total
    return count[full]


def pool_entry(rng: random.Random, n: int, ne: int) -> dict:
    while True:
        edges = connected_graph(rng, n, ne)
        vertices = rng.sample(range(n), 6)
        v1, v2 = set(vertices[:3]), set(vertices[3:])
        arcs = [(u, v) if u in v1 else (v, u) for u, v in edges
                if (u in v1 and v in v2) or (u in v2 and v in v1)]
        if arcs:
            break
    twist_ms = [m for m in (4, 5, 6) if m ** n * (1 - 1 / m) ** ne <= TWIST_CAP]
    return {
        "n": n,
        "edges": edges,
        "arcs": arcs,
        "twist": {str(m): shift_cover_transversals(n, edges, arcs, m) for m in twist_ms},
    }


def middle(entries: list, keep: int) -> list:
    """The `keep` entries whose costs lie closest to the stratum medians."""
    costs = [(math.log(e["acyclic"]), math.log1p(max(e["twist"].values()))) for e in entries]
    centre = [statistics.median(c[k] for c in costs) for k in (0, 1)]
    spread = [statistics.pstdev(c[k] for c in costs) or 1.0 for k in (0, 1)]
    ranked = sorted(range(len(entries)), key=lambda i: sum(
        abs(costs[i][k] - centre[k]) / spread[k] for k in (0, 1)))
    return [entries[i] for i in sorted(ranked[:keep])]


def main() -> None:
    rng = random.Random(SEED)
    strata = []
    for n, ne, pick in STRATA:
        candidates = [pool_entry(rng, n, ne) for _ in range(CANDIDATES * POOL_FACTOR * pick)]
        for entry in candidates:
            entry["acyclic"] = acyclic_orientations(n, entry["edges"])
        graphs = middle(candidates, POOL_FACTOR * pick)
        for entry in graphs:
            entry["chromatic"] = {str(m): colourings(n, entry["edges"], m) for m in (4, 5, 6)}
        strata.append({"n": n, "edges": ne, "pick": pick, "graphs": graphs})
        print(f"stratum n={n} |E|={ne}: {len(graphs)} graphs")
    with open(POOL, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "twist_cap": TWIST_CAP, "strata": strata}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {os.path.relpath(POOL)}")


if __name__ == "__main__":
    main()
