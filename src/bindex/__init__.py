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
    admissible_x,
    b_graph,
    complete_bipartite,
    feasible_cut_edge_counts,
    realize,
    star,
)
from .extremal import (
    BoundResult,
    CaseRow,
    Reconciliation,
    case_table,
    closed_form,
    optimize,
    reconcile,
)
from .graphs import (
    Graph,
    add_edge,
    bridges,
    certificate,
    edge_count,
    graph6_decode,
    graph6_encode,
    is_connected,
    new_graph,
)
from .indices import IndexKind, all_indices, compute
from .oracle import (
    VerificationReport,
    enumerate_connected_bipartite,
    labeled_class_certificates,
    verification_sweep,
)
from .transforms import (
    contract_bridge,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)

__version__ = "0.1.0"

__all__ = [
    "BkSpec",
    "BoundResult",
    "CaseRow",
    "DecoratedCore",
    "Graph",
    "IndexKind",
    "Infeasible",
    "Reconciliation",
    "VerificationReport",
    "add_edge",
    "admissible_x",
    "all_indices",
    "b_graph",
    "bridges",
    "case_table",
    "certificate",
    "closed_form",
    "complete_bipartite",
    "compute",
    "contract_bridge",
    "edge_count",
    "enumerate_connected_bipartite",
    "feasible_cut_edge_counts",
    "graph6_decode",
    "graph6_encode",
    "is_connected",
    "labeled_class_certificates",
    "monotonicity_probe",
    "new_graph",
    "optimize",
    "realize",
    "reconcile",
    "shift_pendants_across_parts",
    "shift_pendants_within_part",
    "star",
    "verification_sweep",
]
