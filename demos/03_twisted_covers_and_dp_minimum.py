"""
Shift covers and the exact DP minimum
=====================================

Putting a cyclic shift on a chosen edge set and identities elsewhere can
push the transversal count below the chromatic value on even cycles, or
above it on odd ones.  At desk scale the minimum over all covers is
computed exactly by enumerating tree-normalized permutation assignments,
one per orbit under renaming every fibre, with the last free edge read off
one pair-count matrix.
"""

from dpchroma import (
    OrientedEdgeSet,
    chromatic_polynomial,
    complete_graph,
    count_transversals,
    cycle_graph,
    dp_exact,
    twisted_cover,
)

print("Shift covers and DP minima")
print("=" * 60)

###############################################################################
# An even cycle with one shifted edge loses exactly m transversals.

c4 = cycle_graph(4)
est = OrientedEdgeSet.from_pairs(c4, [(0, 1)])
p4 = chromatic_polynomial(c4)
print("C4 with one shifted edge:")
for m in range(2, 7):
    twisted = count_transversals(twisted_cover(c4, est, m)).value
    print(f"  m={m}: twisted {twisted} vs chromatic {p4(m)}")

###############################################################################
# On an odd cycle the same construction gains transversals instead.

c3 = cycle_graph(3)
est3 = OrientedEdgeSet.from_pairs(c3, [(0, 1)])
p3 = chromatic_polynomial(c3)
print("\nC3 with one shifted edge:")
for m in range(2, 7):
    twisted = count_transversals(twisted_cover(c3, est3, m)).value
    print(f"  m={m}: twisted {twisted} vs chromatic {p3(m)}")

###############################################################################
# dp_exact minimizes over every tree-normalized cover and returns one
# minimizing cover plus the number of ties.

report = dp_exact(c4, 3)
print(f"\nDP minimum of C4 at m=3: {report.value} "
      f"(chromatic value {p4(3)}, {report.minimizers} minimizing covers)")
twisting = {i: p for i, p in enumerate(report.cover.perms)
            if not report.cover.is_identity(i)}
for i, p in twisting.items():
    print(f"  argmin twists edge {i} {c4.edges[i]} by {p}")

###############################################################################
# Odd cycles are chordal-like here: nothing beats the canonical cover.

print(f"\nDP minimum of C3 at m=3: {dp_exact(c3, 3).value} "
      f"equals the chromatic value {p3(3)}")
print(f"DP minimum of C3 at m=2: {dp_exact(c3, 2).value} "
      f"(no proper 2-coloring of a triangle)")

###############################################################################
# Complete multipartite graphs with at least three parts are DP-equal to
# their chromatic polynomial: K4 (four parts of one vertex) at m = 5.

k4 = complete_graph(4)
report = dp_exact(k4, 5)
print(f"\nP_DP(K4, 5) = {report.value} = P(K4, 5) = {chromatic_polynomial(k4)(5)} "
      f"({report.minimizers} minimizing cover)")

###############################################################################
# One free edge is one counting pass plus a matching on a 10 x 10 matrix,
# where the full sweep would count 10! = 3,628,800 covers.

report = dp_exact(c4, 10)
print(f"DP minimum of C4 at m=10: {report.value} (chromatic value {p4(10)}, "
      f"{report.minimizers} minimizing covers)")
