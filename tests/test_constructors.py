"""Constructors: stars, complete bipartite cores, decoration, B-family."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindex.constructors import (
    BkSpec,
    DecoratedCore,
    Infeasible,
    b_graph,
    bound_cut_edge_counts,
    check_bound_row,
    complete_bipartite,
    feasible_cut_edge_counts,
    realize,
    star,
)
from bindex.extremal import closed_form, optimize
from bindex.graphs import bridges, certificate, edge_count, is_connected
from bindex.indices import IndexKind, compute
from bindex.oracle import enumerate_connected_bipartite
from reference import bipartition, decorated_core_graph, degree, has_edge, neighbors


def test_star_shape():
    g = star(6)
    assert len(g) == 6
    assert degree(g, 0) == 5
    assert all(degree(g, v) == 1 for v in range(1, 6))
    with pytest.raises(ValueError):
        star(1)


def test_complete_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert len(g) == 5
    assert edge_count(g) == 6
    part = bipartition(g)
    assert part is not None
    assert sorted(map(len, (part.part_x, part.part_y))) == [2, 3]
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_decorated_core_make_and_realize():
    core = DecoratedCore.make(2, 3, {0: 2, 3: 1})
    g = realize(core)
    assert is_connected(g)
    assert len(g) == 2 + 3 + 3
    # pendants are labeled after the 5 core vertices, grouped by owner
    assert neighbors(g, 0) == (2, 3, 4, 5, 6)
    assert neighbors(g, 3) == (0, 1, 7)
    assert degree(g, 5) == 1 and has_edge(g, 0, 5)
    assert degree(g, 7) == 1 and has_edge(g, 3, 7)


@st.composite
def decorated_cores(draw):
    s = draw(st.integers(1, 5))
    t = draw(st.integers(1, 5))
    pendants = draw(st.lists(st.integers(0, 3), min_size=s + t, max_size=s + t))
    return DecoratedCore(s, tuple(pendants))


@settings(max_examples=200, deadline=None, database=None)
@given(decorated_cores())
def test_realize_matches_edge_list_build(core):
    assert realize(core) == decorated_core_graph(core)


def test_decorated_core_validation():
    with pytest.raises(ValueError):
        DecoratedCore.make(0, 3, {})
    with pytest.raises(ValueError):
        DecoratedCore.make(2, 2, {4: 1})  # owner out of range
    with pytest.raises(ValueError):
        DecoratedCore.make(2, 2, {0: -1})
    # t is derived from the pendant counts, one per core vertex
    core = DecoratedCore(2, (0, 1, 0))
    assert (core.t, [f.name for f in fields(core)]) == (1, ["s", "pendants"])
    assert core == DecoratedCore.make(2, 1, {1: 1})
    with pytest.raises(Infeasible, match=r"^core parts must be >=1, got \(2, 0\)$"):
        DecoratedCore(2, (0, 0))


def test_bk_spec_validation():
    spec = BkSpec(9, 2, 3)
    assert spec.y == 4
    assert [f.name for f in fields(spec)] == ["n", "k", "x"]  # y = n - k - x is derived
    assert not spec.is_star
    assert spec.label() == "B_2(3,4)"
    assert BkSpec(7, 6, 1).is_star
    assert BkSpec(7, 6, 1).label() == "S_7"
    for n, k, x in [
        (4, 1, 1),  # order too small
        (9, 0, 3),  # needs at least one pendant edge
        (9, 7, 1),  # k = n-2 never occurs
        (9, 6, 1),  # k = n-3 never occurs
        (9, 9, 1),  # k > n-1
        (9, 2, 1),  # non-star x must be >= 2
        (9, 2, 4),  # x beyond n-k-x
        (9, 8, 2),  # star row forces x = 1
    ]:
        with pytest.raises(Infeasible):
            BkSpec(n, k, x)
    # x must be an integer of admissible_x, not merely lie between its ends
    for x, text, y in [(Fraction(5, 2), "5/2", "9/2"), (2.5, "2.5", "4.5")]:
        with pytest.raises(Infeasible, match=rf"^x={text} violates 2 <= x <= n-k-x = {y} for n=9, k=2$"):
            BkSpec(9, 2, x)
    assert BkSpec(9, 2, Fraction(3)).y == 4
    assert b_graph(BkSpec(9, 2, Fraction(3))) == b_graph(BkSpec(9, 2, 3))
    assert BkSpec(10, 2, 3.0).label() == "B_2(3,5)"


def test_b_graph_small_example():
    g = b_graph(BkSpec(5, 1, 2))
    assert len(g) == 5
    assert edge_count(g) == 5
    assert len(bridges(g)) == 1
    # the pendant hangs on the vertex whose core degree is the far part size
    assert degree(g, 0) == 2 + 1


def test_b_graph_wiener_example():
    assert compute(IndexKind.W, b_graph(BkSpec(10, 2, 3))) == 77


def test_b_graph_matches_decorated_core():
    spec = BkSpec(8, 2, 3)
    assert b_graph(spec) == realize(DecoratedCore.make(3, 3, {0: 2}))


def test_b_graph_star_row():
    g = b_graph(BkSpec(6, 5, 1))
    assert certificate(g) == certificate(star(6))


def test_b_graph_bridges_are_k_pendant_edges():
    for n in range(5, 15):
        for k in sorted(feasible_cut_edge_counts(n)):
            if k < 1 or k == n - 1:
                continue
            for x in range(2, (n - k) // 2 + 1):
                g = b_graph(BkSpec(n, k, x))
                cut = bridges(g)
                assert len(cut) == k
                assert all(degree(g, a) == 1 or degree(g, b) == 1 for a, b in cut)
                part = bipartition(g)
                assert part is not None
                assert sorted(map(len, (part.part_x, part.part_y))) == sorted(
                    (x, n - x)
                )


def test_b_graph_mirror_family_members_differ():
    # B_k(x, n-k-x) and B_k(n-k-x, x) are different graphs unless x is central
    for n in range(7, 13):
        for k in sorted(feasible_cut_edge_counts(n)):
            if k < 1 or k == n - 1:
                continue
            for x in range(2, (n - k) // 2 + 1):
                y = n - k - x
                if x == y:
                    continue
                a = b_graph(BkSpec(n, k, x))
                flipped = realize(DecoratedCore.make(y, x, {0: k}))
                assert certificate(a) != certificate(flipped)


def test_feasible_cut_edge_counts():
    for n in range(5, 10):
        want = set(range(0, n - 3)) | {n - 1}
        assert set(feasible_cut_edge_counts(n)) == want
    # below 4 vertices only trees are connected and bipartite
    assert feasible_cut_edge_counts(3) == (2,)
    assert feasible_cut_edge_counts(2) == (1,)
    assert feasible_cut_edge_counts(1) == (0,)
    with pytest.raises(ValueError):
        feasible_cut_edge_counts(0)
    # exactly the counts some class has, n = 4 (trees and C_4 only) included
    for n in range(1, 9):
        found = {len(bridges(g)) for g in enumerate_connected_bipartite(n)}
        assert feasible_cut_edge_counts(n) == tuple(sorted(found)), n


def test_bound_rows_are_the_feasible_counts_but_zero():
    for n in range(5, 12):
        want = tuple(range(1, n - 3)) + (n - 1,)
        assert bound_cut_edge_counts(n) == want
        assert bound_cut_edge_counts(n) == feasible_cut_edge_counts(n)[1:]
        for k in want:
            check_bound_row(n, k)
    with pytest.raises(Infeasible, match=r"^bounds defined for n>=5, got n=4$"):
        bound_cut_edge_counts(4)


def test_bound_row_check_accepts_exactly_the_bound_rows():
    for n in range(5, 40):
        rows = bound_cut_edge_counts(n)
        for k in range(-2, n + 2):
            if k in rows:
                check_bound_row(n, k)
            else:
                with pytest.raises(Infeasible, match=rf"^k={k} out of range: "):
                    check_bound_row(n, k)
    for n in (4, 1, 0, -3):
        with pytest.raises(Infeasible, match=rf"^bounds defined for n>=5, got n={n}$"):
            check_bound_row(n, 1)


@pytest.mark.parametrize("k", [0, 6, 7, 9, -1])  # below 1, n-3, n-2, past n-1
def test_every_bound_row_check_gives_one_message(k):
    message = rf"^k={k} out of range: need 1 <= k <= n-4 = 5 or the tree row k = n-1$"
    for attempt in (
        lambda: check_bound_row(9, k),
        lambda: BkSpec(9, k, 2),
        lambda: optimize(IndexKind.W, 9, k),
        lambda: closed_form(IndexKind.W, 9, k, 2),
    ):
        with pytest.raises(Infeasible, match=message):
            attempt()
    with pytest.raises(Infeasible, match=r"^bounds defined for n>=5, got n=4$"):
        BkSpec(4, 1, 2)
