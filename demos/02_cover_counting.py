"""
Covers and transversal counting
===============================

A full m-fold cover assigns a permutation to every edge; a transversal
picks one fibre index per vertex avoiding every matched pair.  The count
comes from a forward pass that keeps one prefix count per value of its
frontier, and tree normalization never changes it.
"""

from dpchroma import (
    build_cover,
    canonical_cover,
    chromatic_polynomial,
    count_transversals,
    cycle_graph,
    sloping_report,
)

print("Cover counting")
print("=" * 60)

###############################################################################
# The canonical (all identity) cover reproduces proper coloring counts.

g = cycle_graph(4)
cov = canonical_cover(g, 3)
assert count_transversals(cov).value == chromatic_polynomial(g)(3)
print(f"canonical cover of C4 at m=3 counts {count_transversals(cov).value},")
print(f"exactly P(C4, 3) = {chromatic_polynomial(g)(3)}")

###############################################################################
# Arbitrary permutation assignments are normalized so that a spanning
# tree carries identities; the twist migrates onto the non-tree edges.

shift = (1, 2, 0)
cov, report = build_cover(g, 3, {0: shift})
print(f"\nassigned a 3-shift to edge 0 {g.edges[0]}")
print(f"after normalization the sloping edges are {report.to_json()['sloping']}")
for e, size in report.x_sizes:
    print(f"  edge {e} {g.edges[e]}: {size} non-horizontal matching pairs")
print(f"its transversals: {count_transversals(cov).value}")

###############################################################################
# Normalization is a relabeling of fibres, so counts cannot change.

raw, _ = build_cover(g, 3, {0: shift, 2: (2, 0, 1)})
renorm, rep = build_cover(g, 3, {i: p for i, p in enumerate(raw.perms)})
assert count_transversals(raw).value == count_transversals(renorm).value
print(f"gauge moves keep the count at {count_transversals(raw).value}")
print(f"sloping report: {sloping_report(renorm).to_json()}")
