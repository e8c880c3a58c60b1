"""Monochromatic connectivity invariants of small graphs.

Exact values of tmc (total), mc (edge) and mvc (vertex) monochromatic
connection numbers with verifying witnesses, the extremal colorings behind
them, and a harness that sweeps small-graph corpora checking every bound,
formula and sufficient condition the library implements.
"""

from .coloring import (
    EdgeColoring,
    TotalColoring,
    VertexColoring,
    coloring_from_json,
    coloring_to_json,
    total_coloring,
    verify_mc,
    verify_mvc,
    verify_tmc,
)
from .constructions import (
    complete_tmc_coloring,
    max_leaf_tmc_coloring,
    multipartite_tmc_coloring,
    tree_based_tmc_coloring,
    wheel_tmc_coloring,
)
from .graphs import (
    Graph,
    GraphConditionSet,
    GraphFormatError,
    canonical_order,
    complement,
    complete_graph,
    complete_multipartite_graph,
    connected_labeled_graphs,
    cycle_graph,
    diameter,
    from_edge_list,
    has_cut_vertex,
    is_connected,
    is_triangle_free,
    max_degree,
    parse_edgelist,
    parse_graph6,
    path_graph,
    random_gnp,
    relabel,
    star_graph,
    tmc_identity_conditions,
    to_graph6,
    vertex_connectivity,
    wheel_graph,
)
from .harness import (
    Finding,
    SurveyRecord,
    TheoremCheckRecord,
    builtin_corpus,
    check_all,
    diameter2_size_bound,
    hunt_tmc_le_mc,
    hunt_tmc_le_mvc,
    is_star,
    multipartite_sizes,
    survey_random,
    wheel_order,
)
from .maxleaf import SpanningTreeResult, max_leaf_exact
from .solvers import (
    SolverRangeError,
    SolverReport,
    mc_exact,
    mvc_exact,
    reverify,
    tmc_exact,
)

__version__ = "0.1.0"

__all__ = [
    # coloring
    "EdgeColoring", "TotalColoring", "VertexColoring", "coloring_from_json",
    "coloring_to_json", "total_coloring", "verify_mc", "verify_mvc",
    "verify_tmc",
    # constructions
    "complete_tmc_coloring", "max_leaf_tmc_coloring",
    "multipartite_tmc_coloring", "tree_based_tmc_coloring",
    "wheel_tmc_coloring",
    # graphs
    "Graph", "GraphConditionSet", "GraphFormatError", "canonical_order",
    "complement", "complete_graph", "complete_multipartite_graph",
    "connected_labeled_graphs", "cycle_graph", "diameter", "from_edge_list",
    "has_cut_vertex", "is_connected", "is_triangle_free", "max_degree",
    "parse_edgelist", "parse_graph6", "path_graph", "random_gnp", "relabel",
    "star_graph", "tmc_identity_conditions", "to_graph6",
    "vertex_connectivity", "wheel_graph",
    # harness
    "Finding", "SurveyRecord", "TheoremCheckRecord", "builtin_corpus",
    "check_all", "diameter2_size_bound", "hunt_tmc_le_mc", "hunt_tmc_le_mvc",
    "is_star", "multipartite_sizes", "survey_random", "wheel_order",
    # maxleaf
    "SpanningTreeResult", "max_leaf_exact",
    # solvers
    "SolverRangeError", "SolverReport", "mc_exact", "mvc_exact", "reverify",
    "tmc_exact",
]
