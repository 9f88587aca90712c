"""Independent references for the correctness gate.

Index values come from networkx shortest-path lengths, counts from OEIS.
Nothing here imports bindex.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

# OEIS A005142: connected bipartite graphs on n unlabeled vertices.
CLASSES = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730, 10: 4032}
# OEIS A001832: connected bipartite graphs on n labeled vertices.
LABELED = {1: 1, 2: 1, 3: 3, 4: 19, 5: 195, 6: 3031, 7: 67263}

INDEX_KEYS = ("w", "ww", "h", "cei", "eds")


def indices_of(g) -> dict[str, Fraction]:
    """The five indices of a connected networkx graph, exactly."""
    import networkx as nx

    by_distance: dict[int, int] = {}
    degree_by_ecc: dict[int, int] = {}
    eds = 0
    for u, lengths in nx.all_pairs_shortest_path_length(g):
        if len(lengths) != g.number_of_nodes():
            raise ValueError("graph is disconnected")
        for d in lengths.values():
            by_distance[d] = by_distance.get(d, 0) + 1
        ecc = max(lengths.values())
        degree_by_ecc[ecc] = degree_by_ecc.get(ecc, 0) + g.degree(u)
        eds += ecc * sum(lengths.values())
    # by_distance counts ordered pairs, so every unordered pair twice
    return {
        "w": Fraction(sum(d * c for d, c in by_distance.items()), 2),
        "ww": Fraction(sum((d + d * d) * c for d, c in by_distance.items()), 4),
        "h": sum((Fraction(c, 2 * d) for d, c in by_distance.items() if d), Fraction(0)),
        "cei": sum((Fraction(deg, e) for e, deg in degree_by_ecc.items()), Fraction(0)),
        "eds": Fraction(eds),
    }


def from_graph6(line: str):
    import networkx as nx

    return nx.from_graph6_bytes(line.encode("ascii"))


def connected_bipartite(g) -> bool:
    import networkx as nx

    return nx.is_connected(g) and nx.is_bipartite(g)


def pairwise_non_isomorphic(graphs) -> bool:
    """True iff no two of the networkx graphs are isomorphic."""
    import networkx as nx

    buckets: dict[str, list] = {}
    with warnings.catch_warnings():
        # the hash only buckets graphs here; its change across versions is moot
        warnings.simplefilter("ignore", UserWarning)
        for g in graphs:
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
    for group in buckets.values():
        for i, a in enumerate(group):
            if any(nx.is_isomorphic(a, b) for b in group[i + 1 :]):
                return False
    return True
