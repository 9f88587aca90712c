"""The five distance-based indices, frozen values and cross-checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex.constructors import BkSpec, b_graph, star
from bindex.indices import IndexKind, _profile, all_indices, compute
from bindex.graphs import add_edge, distances_from, is_connected, new_graph
from bindex.oracle import enumerate_connected_bipartite
from bindex.transforms import EDGE_ADDITION_SIGNS
from conftest import outcome, random_connected_bipartite
from reference import bipartition, cei_by_edges, edges, eds_by_pairs, indices_from_rows, per_source_profile

F = Fraction
W, WW, H, CEI, EDS = IndexKind


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def typed(values):
    """Each value with its type: Fraction(2) == 2, so equality alone cannot tell."""
    return [(kind, value, type(value)) for kind, value in values.items()]


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
    assert {k for k in IndexKind if k.bound_direction == "lower"} == {W, WW, EDS}
    assert {k for k in IndexKind if k.bound_direction == "upper"} == {H, CEI}
    # the edge addition law reads the same side: lower-bounded indices fall
    assert EDGE_ADDITION_SIGNS == {W: "<0", WW: "<0", H: ">0", CEI: ">0", EDS: "<0"}


def test_two_vertex_and_single_vertex():
    k2 = new_graph(2, [(0, 1)])
    assert compute(W, k2) == 1 and compute(WW, k2) == 1
    assert compute(H, k2) == 1 and compute(CEI, k2) == 2 and compute(EDS, k2) == 2
    k1 = new_graph(1, [])
    assert compute(W, k1) == 0 and compute(WW, k1) == 0 and compute(H, k1) == 0
    assert compute(EDS, k1) == 0
    assert typed(all_indices(k1, (W, WW, H, EDS))) == [
        (W, 0, int), (WW, 0, int), (H, 0, Fraction), (EDS, 0, int)
    ]
    with pytest.raises(ValueError, match="cei undefined"):
        compute(CEI, k1)  # eccentricity zero: no degree/eccentricity ratio exists
    with pytest.raises(ValueError, match="cei undefined"):
        all_indices(k1)


def test_all_indices_reads_kinds_once():
    # a generator of kinds gives the dict the list gives, in the order asked
    g = b_graph(BkSpec(9, 2, 3))
    for kinds in ([EDS, W, CEI], list(IndexKind), [H]):
        want = list(all_indices(g, kinds).items())
        assert list(all_indices(g, (kind for kind in kinds)).items()) == want
        assert want == [(kind, all_indices(g)[kind]) for kind in kinds]
    # K_1: every index but CEI is zero, and CEI is refused before any work
    k1 = new_graph(1)
    assert all_indices(k1, (W,)) == {W: 0}
    assert all_indices(k1, (kind for kind in (H, W))) == {H: 0, W: 0}
    for kinds in ([CEI], [W, CEI], list(IndexKind)):
        for given_kinds in (kinds, (kind for kind in kinds)):
            with pytest.raises(ValueError, match=r"^cei undefined: eccentricity zero \(single vertex\)$"):
                all_indices(k1, given_kinds)


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


def per_vertex_profile(g):
    """_profile's class rows copied out to each member, in the same shape."""
    rows = [None] * len(g)
    for members, degree, ecc, counts in _profile(g):
        trans = sum(d * c for d, c in enumerate(counts))
        for u in range(len(g)):
            if members >> u & 1:
                assert rows[u] is None  # the classes partition the vertices
                rows[u] = (degree, ecc, trans, counts)
    return tuple(rows)


def test_profile_matches_per_source_bfs_on_every_class():
    for n in range(1, 9):
        for g in enumerate_connected_bipartite(n):
            reference = per_source_profile(g)
            assert per_vertex_profile(g) == reference
            if n > 1:
                assert all_indices(g) == indices_from_rows(reference)


def test_profile_matches_per_source_bfs_on_twin_poor_graphs():
    # 20 to 60 vertices, few twins, dense to sparse: the frontier soon
    # outgrows the unseen rest, so a step expands many representatives
    # against few candidates and often ends early, once all are reached
    rng = random.Random(15)
    for _ in range(30):
        g = random_connected_bipartite(rng, 20, 60)
        reference = per_source_profile(g)
        assert per_vertex_profile(g) == reference
        assert all_indices(g) == indices_from_rows(reference)
        # one same-colour edge between the two deepest vertices of one colour,
        # seen from vertex 0 (the first class's source): an odd cycle, so every
        # later BFS tests all unseen vertices and has no closing last layer
        dist = distances_from(g, 0)
        u = max(range(len(g)), key=dist.__getitem__)
        same_colour = [w for w in range(len(g)) if w != u and (dist[w] - dist[u]) % 2 == 0]
        odd = add_edge(g, u, max(same_colour, key=dist.__getitem__))
        assert bipartition(odd) is None
        reference = per_source_profile(odd)
        assert per_vertex_profile(odd) == reference
        assert all_indices(odd) == indices_from_rows(reference)
        # the same graph beside a copy of itself: disconnected, both must say so
        twice = new_graph(2 * len(g), edges(g) + tuple((u + len(g), v + len(g)) for u, v in edges(g)))
        assert outcome(per_vertex_profile, twice) == outcome(per_source_profile, twice)
        assert outcome(per_vertex_profile, twice)[0] == "ValueError"


def random_tree(rng, n):
    return new_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def caterpillar(spine, legs):
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i % spine, spine + i) for i in range(legs)]
    return new_graph(spine + legs, edges)


@pytest.mark.parametrize(
    "g",
    [path(2), path(3), path(61), path(200), path(300), caterpillar(40, 80), caterpillar(100, 200)]
    + [random_tree(random.Random(seed), 30 + 40 * seed) for seed in range(4)]
    + [random_tree(random.Random(seed), 300) for seed in range(4, 6)],
    ids=["P2", "P3", "P61", "P200", "P300", "caterpillar", "caterpillar300"]
    + [f"tree{seed}" for seed in range(4)]
    + [f"tree300_{seed}" for seed in range(4, 6)],
)
def test_profile_matches_per_source_bfs_on_paths_and_trees(g):
    # thin frontiers, many unseen vertices and diameters up to 299: up to
    # hundreds of steps per BFS, each expanding few representatives; the
    # long diameters also make the common denominator lcm(1..diam) of H
    # and CEI a very large integer
    reference = per_source_profile(g)
    assert per_vertex_profile(g) == reference
    assert typed(all_indices(g)) == typed(indices_from_rows(reference))


@pytest.mark.parametrize(
    "g, h, cei",
    [(new_graph(2, [(0, 1)]), 1, 2), (star(5), 7, 6), (cycle(6), 10, 4), (path(3), F(5, 2), 3)],
    ids=["K2", "star5", "C6", "P3"],
)
def test_rational_indices_stay_fractions_when_integral(g, h, cei):
    values = all_indices(g)
    assert typed(values) == [
        (W, values[W], int),
        (WW, values[WW], int),
        (H, h, Fraction),
        (CEI, cei, Fraction),
        (EDS, values[EDS], int),
    ]


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
@example(new_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7)]))
@example(new_graph(2, [(0, 1)]))
def test_profile_matches_per_source_bfs_on_random_graphs(g):
    # disconnected graphs must raise the same ValueError on both sides; K_1
    # has a profile on both, and its cei error is checked above
    reference = outcome(per_source_profile, g)
    assert outcome(per_vertex_profile, g) == reference
    if len(g) > 1 and is_connected(g):
        assert all_indices(g) == indices_from_rows(reference)


@settings(max_examples=400, deadline=None, database=None)
@given(twin_blowups().filter(lambda g: len(g) >= 2 and is_connected(g)))
@example(new_graph(3, [(0, 1), (0, 2), (1, 2)]))
def test_alternate_formulations_agree_on_random_graphs(g):
    # non-bipartite and twin-rich connected graphs, beyond the small classes
    assert eds_by_pairs(g) == compute(EDS, g)
    assert cei_by_edges(g) == compute(CEI, g)
