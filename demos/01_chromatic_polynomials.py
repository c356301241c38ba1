"""
Chromatic polynomials, two independent ways
===========================================

Build graphs from fixtures or edge-list text, compute the chromatic
polynomial as a product over the graph's blocks (each 2-connected block
counted by a search over set partitions of its frontier), and cross-check
it against the alternating sum over edge subsets.
"""

from dpchroma import (
    Polynomial,
    chromatic_incl_excl,
    chromatic_polynomial,
    complete_graph,
    cycle_graph,
    fixture,
    parse_graph,
)

print("Chromatic polynomials")
print("=" * 60)

###############################################################################
# Graphs come from named fixtures or from edge-list text.

c4 = fixture("cycle:4")
k4 = complete_graph(4)
house = parse_graph("""
# a 4-cycle with a roof triangle
5
0 1
1 2
2 3
0 3
0 4
1 4
""")

for name, g in [("C4", c4), ("K4", k4), ("house", house)]:
    print(f"{name}: {g.n} vertices, {g.m} edges")

###############################################################################
# The polynomial counts proper colorings exactly.

p = chromatic_polynomial(c4)
print(f"\nP(C4, m) = {p.format()}")
for m in range(5):
    print(f"  P({m}) = {p(m)}")

###############################################################################
# An independent route: sum (-1)^|A| m^c(A) over all edge subsets A.
# The two computations must agree coefficient for coefficient.

for name, g in [("C4", c4), ("K4", k4), ("house", house)]:
    direct = chromatic_polynomial(g)
    subset_sum = chromatic_incl_excl(g)
    assert direct == subset_sum
    print(f"{name}: both routes give {direct.format()}")

###############################################################################
# Blocks multiply: two triangles sharing a vertex give P(K3)^2 / m.

bowtie = parse_graph("5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4")
triangle = chromatic_polynomial(complete_graph(3))
assert chromatic_polynomial(bowtie) * Polynomial.x() == triangle * triangle
print(f"\nP(bowtie, m) = {chromatic_polynomial(bowtie).format()}")

g = cycle_graph(5)
print(f"\nP(C5, m) = {chromatic_polynomial(g).format()}")
print(f"P(C5, 3) = {chromatic_polynomial(g)(3)} proper 3-colorings")
