"""Exact distance-based indices and sharp extremal bounds for connected
bipartite graphs with a prescribed number of cut edges.

The library computes five indices exactly (Wiener, hyper-Wiener, Harary,
connective eccentricity, eccentricity distance sum), builds the extremal
pendant-decorated complete bipartite family, applies index-monotone
surgeries with checked delta contracts, evaluates closed-form bounds with
their full residue case table, and verifies everything against an
exhaustive enumeration oracle.
"""

from .constructors import (
    BkSpec,
    DecoratedCore,
    Infeasible,
    b_graph,
    complete_bipartite,
    feasible_cut_edge_counts,
    realize,
    star,
)
from .extremal import (
    BoundResult,
    CaseLabel,
    CaseRow,
    Reconciliation,
    admissible_x,
    case_table,
    closed_form,
    optimize,
    reconcile,
    star_value,
)
from .graphs import (
    Bipartition,
    Graph,
    add_edge,
    bipartition,
    bridges,
    certificate,
    distances_from,
    graph6_decode,
    graph6_encode,
    is_connected,
    new_graph,
    relabel,
)
from .indices import IndexKind, all_indices, compute
from .oracle import (
    VerificationReport,
    complete_bipartite_blocks,
    enumerate_connected_bipartite,
    filter_by_cut_edges,
    labeled_class_certificates,
    verification_sweep,
    verify_bound,
)
from .transforms import (
    CutEdgeContext,
    ProbeReport,
    ShiftPrediction,
    contract_bridge,
    cut_edge_context,
    index_deltas,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)

__version__ = "0.1.0"

__all__ = [
    "BkSpec",
    "Bipartition",
    "BoundResult",
    "CaseLabel",
    "CaseRow",
    "CutEdgeContext",
    "DecoratedCore",
    "Graph",
    "IndexKind",
    "Infeasible",
    "ProbeReport",
    "Reconciliation",
    "ShiftPrediction",
    "VerificationReport",
    "add_edge",
    "admissible_x",
    "all_indices",
    "b_graph",
    "bipartition",
    "bridges",
    "case_table",
    "certificate",
    "closed_form",
    "complete_bipartite",
    "complete_bipartite_blocks",
    "compute",
    "contract_bridge",
    "cut_edge_context",
    "distances_from",
    "enumerate_connected_bipartite",
    "feasible_cut_edge_counts",
    "filter_by_cut_edges",
    "graph6_decode",
    "graph6_encode",
    "index_deltas",
    "is_connected",
    "labeled_class_certificates",
    "monotonicity_probe",
    "new_graph",
    "optimize",
    "realize",
    "reconcile",
    "relabel",
    "shift_pendants_across_parts",
    "shift_pendants_within_part",
    "star",
    "star_value",
    "verification_sweep",
    "verify_bound",
]
