"""The five distance-based indices, frozen values and cross-checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex.constructors import BkSpec, b_graph, star
from bindex.indices import (
    IndexKind,
    _profile,
    all_indices,
    cei,
    cei_by_edges,
    compute,
    eds,
    eds_by_pairs,
    harary,
    hyper_wiener,
    wiener,
)
from bindex.graphs import UNREACHABLE, distances_from, new_graph
from bindex.oracle import enumerate_connected_bipartite

F = Fraction


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
    assert wiener(g) == want[0]
    assert hyper_wiener(g) == want[1]
    assert harary(g) == want[2]
    assert cei(g) == want[3]
    assert eds(g) == want[4]


def test_compute_dispatch_and_types():
    g = path(4)
    by_kind = all_indices(g)
    for kind in IndexKind:
        assert compute(kind, g) == by_kind[kind]
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
    assert wiener(k2) == 1 and hyper_wiener(k2) == 1
    assert harary(k2) == 1 and cei(k2) == 2 and eds(k2) == 2
    k1 = new_graph(1, [])
    assert wiener(k1) == 0 and hyper_wiener(k1) == 0 and harary(k1) == 0
    assert eds(k1) == 0
    with pytest.raises(ValueError):
        cei(k1)  # eccentricity zero: no degree/eccentricity ratio exists


def test_disconnected_rejected():
    g = new_graph(4, [(0, 1), (2, 3)])
    for fn in (wiener, hyper_wiener, harary, cei, eds):
        with pytest.raises(ValueError):
            fn(g)


def test_alternate_formulations_agree():
    # EDS via eccentricity-weighted pairs, CEI via per-edge split
    for n in range(2, 7):
        for g in enumerate_connected_bipartite(n):
            assert eds_by_pairs(g) == eds(g)
            assert cei_by_edges(g) == cei(g)


def test_hyper_wiener_always_integral_here():
    # (sum d + sum d^2) is divisible by 4 on every graph in the small corpus
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            assert isinstance(hyper_wiener(g), int)


def per_source_profile(g):
    """The reference profile: a full BFS distance row from every vertex."""
    rows = []
    for u in range(g.n):
        dist = distances_from(g, u).dist
        if UNREACHABLE in dist:
            raise ValueError("index undefined: graph is disconnected")
        ecc = max(dist)
        counts = [0] * (ecc + 1)
        for d in dist:
            counts[d] += 1
        rows.append((ecc, sum(dist), tuple(counts)))
    return tuple(rows)


def outcome(profile, g):
    try:
        return profile(g)
    except ValueError as e:
        return ("ValueError", str(e))


def test_profile_matches_per_source_bfs_on_every_class():
    for n in range(1, 9):
        for g in enumerate_connected_bipartite(n):
            assert _profile(g) == per_source_profile(g)


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
    assert outcome(_profile, g) == outcome(per_source_profile, g)
