"""Cross-checks of the BFS-built graph functions against networkx.

Skipped where networkx is not installed. Graphs come from hypothesis:
arbitrary edge subsets (mostly non-bipartite), subsets of the edges across
a random two-coloring (bipartite, often disconnected or full of cut
edges), and explicit K_1, disconnected and odd-cycle examples, plus a
hexagon, whose bridgeless block is bipartite but not complete.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex.graphs import (
    UNREACHABLE,
    bipartition,
    bridges,
    certificate,
    distances_from,
    is_connected,
    new_graph,
    relabel,
)
from bindex.indices import IndexKind, compute
from bindex.oracle import complete_bipartite_blocks
from bindex.transforms import cut_edge_context

nx = pytest.importorskip("networkx")


@st.composite
def graphs(draw, max_n=9, n=None):
    if n is None:
        n = draw(st.integers(1, max_n))
    color = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):  # keep only edges across the coloring
        pairs = [(u, v) for u, v in pairs if color[u] != color[v]]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [p for p, keep in zip(pairs, chosen) if keep])


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


K1 = new_graph(1)
TWO_EDGES = new_graph(4, [(0, 1), (2, 3)])
TRIANGLE_AND_PATH = new_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
B_GRAPH = new_graph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (4, 5)])
HEXAGON_AND_PENDANT = new_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])

CASES = (K1, TWO_EDGES, TRIANGLE_AND_PATH, B_GRAPH, HEXAGON_AND_PENDANT)


def with_cases(test):
    for g in CASES:
        test = example(g)(test)
    return settings(max_examples=300, deadline=None, database=None)(given(graphs())(test))


@st.composite
def graph_pairs(draw):
    """(a, b) on the same vertex count: b is a relabelled copy of a, the
    copy with one edge moved to a non-edge, or an independent graph."""
    a = draw(graphs(max_n=8))
    perm = draw(st.permutations(range(a.n)))
    how = draw(st.sampled_from(["copy", "move", "other"]))
    if how == "other":
        return a, draw(graphs(n=a.n))
    b = a
    edges = a.edges()
    non_edges = [p for p in combinations(range(a.n), 2) if not a.has_edge(*p)]
    if how == "move" and edges and non_edges:
        gone = draw(st.sampled_from(edges))
        added = draw(st.sampled_from(non_edges))
        b = new_graph(a.n, [e for e in edges if e != gone] + [added])
    return a, relabel(b, perm)


C6 = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = new_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
STAR_AND_VERTEX = new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
SQUARE_AND_VERTEX = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])


@settings(max_examples=300, deadline=None, database=None)
@given(graph_pairs())
@example((K1, K1))
@example((C6, TWO_TRIANGLES))  # same degrees, not isomorphic
@example((STAR_AND_VERTEX, SQUARE_AND_VERTEX))  # cospectral, not isomorphic
@example((C6, relabel(C6, [3, 0, 5, 1, 4, 2])))
def test_certificate_matches_isomorphism(pair):
    a, b = pair
    assert (certificate(a) == certificate(b)) == nx.is_isomorphic(to_nx(a), to_nx(b))


@settings(max_examples=300, deadline=None, database=None)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_certificate_survives_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert certificate(relabel(g, perm)) == certificate(g)


@with_cases
def test_connectivity_and_distances(g):
    h = to_nx(g)
    assert is_connected(g) == nx.is_connected(h)
    for u in range(g.n):
        lengths = nx.single_source_shortest_path_length(h, u)
        assert distances_from(g, u) == tuple(lengths.get(v, UNREACHABLE) for v in range(g.n))
    if is_connected(g):
        assert compute(IndexKind.W, g) == nx.wiener_index(h)


@with_cases
def test_bipartition(g):
    h = to_nx(g)
    part = bipartition(g)
    assert (part is not None) == nx.is_bipartite(h)
    if part is None:
        return
    assert part.part_x | part.part_y == set(range(g.n))
    assert not part.part_x & part.part_y
    assert all((u in part.part_x) != (v in part.part_x) for u, v in g.edges())
    assert all(min(comp) in part.part_x for comp in nx.connected_components(h))


@with_cases
def test_bridges_and_blocks(g):
    h = to_nx(g)
    cut = bridges(g)
    assert cut == {(min(u, v), max(u, v)) for u, v in nx.bridges(h)}
    h.remove_edges_from(cut)
    blocks = [h.subgraph(c) for c in nx.connected_components(h)]
    assert complete_bipartite_blocks(g) == all(map(is_complete_bipartite, blocks))


def is_complete_bipartite(b):
    if b.number_of_nodes() == 1:
        return True
    if not nx.is_bipartite(b):
        return False
    x, y = nx.bipartite.sets(b)
    return b.number_of_edges() == len(x) * len(y)


@with_cases
def test_cut_edge_sides(g):
    if not is_connected(g):
        return
    for u, w in bridges(g):
        h = to_nx(g)
        h.remove_edge(u, w)
        side_u = nx.node_connected_component(h, u)
        if len(side_u) < 2 or g.n - len(side_u) < 2:
            with pytest.raises(ValueError):
                cut_edge_context(g, u, w)
            continue
        ctx = cut_edge_context(g, u, w)
        assert ctx.side_u == side_u
        assert ctx.side_w == nx.node_connected_component(h, w)
