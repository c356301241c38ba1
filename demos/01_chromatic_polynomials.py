"""
Chromatic polynomials
=====================

Build graphs from fixtures or edge-list text and compute the chromatic
polynomial as a product over the graph's blocks: each bridge gives a factor
m - 1, and each 2-connected block is counted by a forward pass over set
partitions of its frontier.
"""

from itertools import product

from dpchroma import (
    Polynomial,
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
# The polynomial agrees with a direct count of proper colourings.

for name, g in [("C4", c4), ("K4", k4), ("house", house)]:
    p = chromatic_polynomial(g)
    for m in range(4):
        direct = sum(all(c[u] != c[v] for u, v in g.edges) for c in product(range(m), repeat=g.n))
        assert p(m) == direct
    print(f"{name}: {p.format()}, matching direct counts for m = 0..3")

###############################################################################
# Blocks multiply: two triangles sharing a vertex give P(K3)^2 / m, and a
# pendant edge multiplies by m - 1.

bowtie = parse_graph("5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4")
triangle = chromatic_polynomial(complete_graph(3))
assert chromatic_polynomial(bowtie) * Polynomial.x() == triangle * triangle
print(f"\nP(bowtie, m) = {chromatic_polynomial(bowtie).format()}")

kite = parse_graph("6\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n4 5")
assert chromatic_polynomial(kite) == chromatic_polynomial(bowtie) * (Polynomial.x() - Polynomial.one())
print(f"bowtie plus a pendant edge: {chromatic_polynomial(kite).format()}")

g = cycle_graph(5)
print(f"\nP(C5, m) = {chromatic_polynomial(g).format()}")
print(f"P(C5, 3) = {chromatic_polynomial(g)(3)} proper 3-colorings")
