"""Chromatic polynomials, DP color functions and cover certificates."""

from .chromatic import Polynomial, chromatic_polynomial, chromatic_value
from .classify import (
    DP_LESS,
    DP_STAR,
    UNKNOWN,
    ClassifierVerdict,
    DpGoodCertificate,
    certificate_failure_reason,
    check_balanced_orientation,
    check_crossing_edge_set,
    check_dp_good,
    check_vertex_order,
    classify,
    scan_even_girth,
    search_quad_crossing,
)
from .covers import (
    CountReport,
    Cover,
    SlopingReport,
    build_cover,
    canonical_cover,
    count_transversals,
    dp_exact,
    sloping_report,
    twisted_cover,
)
from .errors import BudgetExceededError, GraphParseError
from .girth import (
    INFINITE,
    BalanceVerdict,
    GirthResult,
    OrientedEdgeSet,
    check_balance,
    edge_girth,
    edge_set_girth,
)
from .graphs import (
    Cycle,
    Graph,
    bfs_tree,
    complete_graph,
    complete_multipartite,
    component_count,
    cycle_graph,
    cycle_space_ranks,
    enumerate_cycles,
    fig1_graph,
    fig3b_graph,
    fixture,
    mask_indices,
    parse_graph,
    path_graph,
    spanning_tree_count,
)

__version__ = "0.1.0"
