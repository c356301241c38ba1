"""
Certificates and the sufficient-condition classifier
====================================================

A DP-good certificate is a spanning tree plus a girth-sorted labeling of
the remaining edges, each closing a shortest cycle inside the edges
already available.  Certificates are searched for, independently
re-verified, and aggregated with the other sufficient conditions into
per-graph verdicts.
"""

import json

from dpchroma import (
    DpGoodCertificate,
    certificate_failure_reason,
    check_crossing_edge_set,
    check_dp_good,
    check_vertex_order,
    classify,
    complete_graph,
    cycle_graph,
    fig1_graph,
    fig3b_graph,
)
from dpchroma.graphs import FIG3B_CROSSING, FIG3B_V1, FIG3B_V2

print("Certificates and classification")
print("=" * 60)

###############################################################################
# The 14-vertex showcase fixture: DP-good with girths (3,3,3,3,3,3,5,5).

g = fig1_graph()
verdict = check_dp_good(g)
cert = verdict.certificate
print(f"fig1: {verdict.status}, girth sequence {verdict.detail['girth_sequence']}")
print(f"tree edges: {cert.to_json()['tree']}")
print(f"labeling:   {list(cert.labeling)}")
assert certificate_failure_reason(g, cert) is None
print("independent verification: OK")

# trees_tried is a matrix-tree count, not the bases the search tries: the
# certified tree's position among the candidate trees, or all of them when
# none is DP-good (fig3b, ruled out by the rank test without a tree).
print(f"fig1 trees_tried: {verdict.detail['trees_tried']} (the certified tree's rank)")
violated = check_dp_good(fig3b_graph())
print(f"fig3b: {violated.status}, trees_tried "
      f"{violated.detail['trees_tried']} (every candidate tree)")

###############################################################################
# Certificates survive a JSON round trip and re-verify.

blob = json.dumps(cert.to_json())
assert certificate_failure_reason(g, DpGoodCertificate.from_json(json.loads(blob))) is None
print("JSON round trip: OK")

###############################################################################
# Vertex orders with connected back-neighborhoods give a direct route.

for name, graph in [("K4", complete_graph(4)), ("C4", cycle_graph(4))]:
    v = check_vertex_order(graph)
    extra = f", order {list(v.certificate)}" if v.satisfied else ""
    print(f"{name} vertex order: {v.status}{extra}")

###############################################################################
# Crossing edge sets between two vertex classes, on the 10-vertex fixture.

h = fig3b_graph()
v = check_crossing_edge_set(h, FIG3B_V1, FIG3B_V2, h.edge_mask(FIG3B_CROSSING))
print(f"\nfig3b crossing set: {v.status}, set girth "
      f"{v.certificate['set_girth']}, implied {v.implied}")

###############################################################################
# The aggregate classifier runs every check and reports all verdicts.

for name, graph in [("C6", cycle_graph(6)), ("K4", complete_graph(4)),
                    ("fig1", g)]:
    print(f"\nclassify {name}:")
    for v in classify(graph):
        print(f"  {v.condition}: {v.status}"
              + (f" -> {v.implied}" if v.satisfied else ""))
