"""The five distance-based indices, frozen values and cross-checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex.constructors import BkSpec, b_graph, star
from bindex.indices import IndexKind, _profile, all_indices, cei_by_edges, compute, eds_by_pairs
from bindex.graphs import UNREACHABLE, distances_from, is_connected, new_graph
from bindex.oracle import enumerate_connected_bipartite

F = Fraction
W, WW, H, CEI, EDS = IndexKind


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


# rows of frozen values: graph -> (W, WW, H, CEI, EDS), recomputable by hand
# from the pair-distance multisets
KNOWN = [
    (path(4), (10, 15, F(13, 3), F(8, 3), 52)),
    (star(4), (9, 12, F(9, 2), F(9, 2), 33)),
    (star(5), (16, 22, 7, 6, 60)),
    # 6-cycle: six pairs at distance 1, six at 2, three at 3
    (cycle(6), (27, 42, 10, 4, 162)),
    (b_graph(BkSpec(5, 1, 2)), (16, 23, F(22, 3), F(9, 2), 79)),
]


@pytest.mark.parametrize("g, want", KNOWN, ids=[f"row{i}" for i in range(len(KNOWN))])
def test_frozen_index_values(g, want):
    assert compute(W, g) == want[0]
    assert compute(WW, g) == want[1]
    assert compute(H, g) == want[2]
    assert compute(CEI, g) == want[3]
    assert compute(EDS, g) == want[4]


def test_compute_dispatch_and_types():
    g = path(4)
    by_kind = all_indices(g)
    assert list(by_kind) == list(IndexKind)
    for kind in IndexKind:
        assert compute(kind, g) == by_kind[kind]
    # a subset, in the order asked
    assert list(all_indices(g, (EDS, W)).items()) == [(EDS, by_kind[EDS]), (W, by_kind[W])]
    assert isinstance(by_kind[IndexKind.W], int)
    assert isinstance(by_kind[IndexKind.WW], int)
    assert isinstance(by_kind[IndexKind.EDS], int)
    assert isinstance(by_kind[IndexKind.H], Fraction)
    assert isinstance(by_kind[IndexKind.CEI], Fraction)


def test_kind_metadata():
    downs = {k for k in IndexKind if k.decreases_when_edges_added}
    assert downs == {IndexKind.W, IndexKind.WW, IndexKind.EDS}
    for k in IndexKind:
        assert k.bound_direction == ("lower" if k.decreases_when_edges_added else "upper")
    assert {k for k in IndexKind if k.is_rational} == {IndexKind.H, IndexKind.CEI}


def test_two_vertex_and_single_vertex():
    k2 = new_graph(2, [(0, 1)])
    assert compute(W, k2) == 1 and compute(WW, k2) == 1
    assert compute(H, k2) == 1 and compute(CEI, k2) == 2 and compute(EDS, k2) == 2
    k1 = new_graph(1, [])
    assert compute(W, k1) == 0 and compute(WW, k1) == 0 and compute(H, k1) == 0
    assert compute(EDS, k1) == 0
    assert all_indices(k1, (W, WW, H, EDS)) == {W: 0, WW: 0, H: 0, EDS: 0}
    with pytest.raises(ValueError, match="cei undefined"):
        compute(CEI, k1)  # eccentricity zero: no degree/eccentricity ratio exists
    with pytest.raises(ValueError, match="cei undefined"):
        all_indices(k1)


def test_disconnected_rejected():
    g = new_graph(4, [(0, 1), (2, 3)])
    for kind in IndexKind:
        with pytest.raises(ValueError):
            compute(kind, g)


def test_alternate_formulations_agree():
    # EDS via eccentricity-weighted pairs, CEI via per-edge split
    for n in range(2, 7):
        for g in enumerate_connected_bipartite(n):
            assert eds_by_pairs(g) == compute(EDS, g)
            assert cei_by_edges(g) == compute(CEI, g)


def test_hyper_wiener_always_integral_here():
    # (sum d + sum d^2) is divisible by 4 on every graph in the small corpus
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            assert isinstance(compute(WW, g), int)


def per_source_profile(g):
    """The reference profile: (degree, eccentricity, transmission, count per
    distance) from a full BFS distance row of every vertex."""
    rows = []
    for u in range(g.n):
        dist = distances_from(g, u)
        if UNREACHABLE in dist:
            raise ValueError("index undefined: graph is disconnected")
        ecc = max(dist)
        counts = [0] * (ecc + 1)
        for d in dist:
            counts[d] += 1
        rows.append((g.degree(u), ecc, sum(dist), tuple(counts)))
    return tuple(rows)


def per_vertex_profile(g):
    """_profile's class rows copied out to each member, in the same shape."""
    rows = [None] * g.n
    for members, degree, ecc, counts in _profile(g):
        trans = sum(d * c for d, c in enumerate(counts))
        for u in range(g.n):
            if members >> u & 1:
                assert rows[u] is None  # the classes partition the vertices
                rows[u] = (degree, ecc, trans, counts)
    return tuple(rows)


def indices_from_rows(rows):
    """The five indices summed vertex by vertex from per-source rows."""
    pairs = [(d, c) for _, _, _, counts in rows for d, c in enumerate(counts) if d]
    return {
        W: sum(d * c for d, c in pairs) // 2,
        WW: sum((d + d * d) * c for d, c in pairs) // 4,
        H: sum((F(c, 2 * d) for d, c in pairs), F(0)),
        CEI: sum((F(degree, ecc) for degree, ecc, _, _ in rows), F(0)),
        EDS: sum(ecc * trans for _, ecc, trans, _ in rows),
    }


def outcome(fn, g):
    try:
        return fn(g)
    except ValueError as e:
        return ("ValueError", str(e))


def test_profile_matches_per_source_bfs_on_every_class():
    for n in range(1, 9):
        for g in enumerate_connected_bipartite(n):
            reference = per_source_profile(g)
            assert per_vertex_profile(g) == reference
            if n > 1:
                assert all_indices(g) == indices_from_rows(reference)


@st.composite
def twin_blowups(draw):
    """Arbitrary graphs with each vertex copied into up to three false twins.

    One copy each gives any graph on up to 8 vertices: non-bipartite,
    disconnected and K_1 included. The labels are shuffled so that twins
    are not adjacent labels.
    """
    base = draw(st.integers(1, 8))
    copies = draw(st.lists(st.integers(1, 3), min_size=base, max_size=base))
    pairs = [(a, b) for a in range(base) for b in range(a + 1, base)]
    base_edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    owner = [a for a, c in enumerate(copies) for _ in range(c)]
    label = draw(st.permutations(range(len(owner))))
    edges = [
        (label[u], label[v])
        for u in range(len(owner))
        for v in range(u + 1, len(owner))
        if (owner[u], owner[v]) in base_edges
    ]
    return new_graph(len(owner), edges)


@settings(max_examples=400, deadline=None, database=None)
@given(twin_blowups())
@example(new_graph(1))
@example(new_graph(4, [(0, 1), (2, 3)]))
@example(new_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))
def test_profile_matches_per_source_bfs_on_random_graphs(g):
    # disconnected graphs must raise the same ValueError on both sides; K_1
    # has a profile on both, and its cei error is checked above
    reference = outcome(per_source_profile, g)
    assert outcome(per_vertex_profile, g) == reference
    if g.n > 1 and is_connected(g):
        assert all_indices(g) == indices_from_rows(reference)


@settings(max_examples=400, deadline=None, database=None)
@given(twin_blowups().filter(lambda g: g.n >= 2 and is_connected(g)))
@example(new_graph(3, [(0, 1), (0, 2), (1, 2)]))
def test_alternate_formulations_agree_on_random_graphs(g):
    # non-bipartite and twin-rich connected graphs, beyond the small classes
    assert eds_by_pairs(g) == compute(EDS, g)
    assert cei_by_edges(g) == compute(CEI, g)
