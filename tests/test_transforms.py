"""Surgeries and probes: exact deltas in covered regimes, strict signs elsewhere."""

from __future__ import annotations

import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex import indices
from bindex.constructors import DecoratedCore, Infeasible, realize, star
from bindex.graphs import bridges, certificate, edge_count, is_connected, new_graph
from bindex.indices import IndexKind, all_indices, compute
from bindex.oracle import enumerate_connected_bipartite
from bindex.transforms import (
    EDGE_ADDITION_SIGNS,
    EdgeProbe,
    contract_bridge,
    holds,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)
import reference
from conftest import outcome, random_bridge_context, random_connected_bipartite, scrambled
from reference import contract_holds, edges, index_deltas, neighbors

F = Fraction


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_triangles():
    return new_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def edge_addition_law_holds(deltas):
    return contract_holds(EDGE_ADDITION_SIGNS, deltas)


@pytest.mark.parametrize(
    "delta, want, expected",
    [
        (-1, "<0", True),
        (0, "<0", False),
        (F(1, 6), ">0", True),
        (0, ">0", False),
        (0, F(0), True),  # an exact zero, as the within-part shift gives CEI
        (F(-1, 4), "<0", True),
        (F(-12), F(-12), True),
        (-12, F(-11), False),
        (2, F(2), True),
    ],
)
def test_holds_checks_an_exact_value_or_a_sign(delta, want, expected):
    assert holds(delta, want) is expected


def test_holds_knows_no_non_strict_sign():
    with pytest.raises(KeyError):
        holds(0, ">=0")


def test_contract_bridge_turns_p4_into_star():
    g = path(4)
    after = contract_bridge(g, 1, 2)
    assert certificate(after) == certificate(star(4))
    deltas = index_deltas(g, after)
    assert deltas[IndexKind.W] == -1
    assert deltas[IndexKind.WW] == -3
    assert deltas[IndexKind.H] == F(1, 6)
    assert deltas[IndexKind.CEI] == F(11, 6)
    assert deltas[IndexKind.EDS] == -19


def test_contract_bridge_on_two_triangles():
    g = two_triangles()
    assert compute(IndexKind.W, g) == 27
    after = contract_bridge(g, 2, 3)
    assert compute(IndexKind.W, after) == 23
    assert len(after) == len(g)
    assert edge_count(after) == edge_count(g)


def test_contract_bridge_rejects_bad_input():
    with pytest.raises(ValueError):
        contract_bridge(cycle(4), 0, 1)  # not a cut edge
    with pytest.raises(ValueError):
        contract_bridge(path(3), 0, 1)  # one side is a single vertex
    with pytest.raises(ValueError, match="^contract_bridge needs a connected graph$"):
        contract_bridge(new_graph(4, [(0, 1), (2, 3)]), 0, 1)
    # an endpoint outside the graph is named as such, not called a non-cut edge
    for u, w, bad in [(9, 1, 9), (1, 4, 4), (-1, 0, -1)]:
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=4$"):
            contract_bridge(path(4), u, w)


def _shore(g, u, w):
    """u's component once the edge (u, w) is deleted, by a plain search."""
    seen, todo = {u}, [u]
    while todo:
        a = todo.pop()
        for b in neighbors(g, a):
            if {a, b} != {u, w} and b not in seen:
                seen.add(b)
                todo.append(b)
    return frozenset(seen)


def _connected_classes(n):
    """One graph per isomorphism class of connected graphs on n labeled vertices."""
    pairs = list(combinations(range(n), 2))
    found = {}
    for mask in range(1 << len(pairs)):
        g = new_graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            found.setdefault(certificate(g), g)
    return list(found.values())


def test_contract_bridge_decides_every_ordered_pair():
    # every connected bipartite class to n = 7, every connected class to
    # n = 5 (odd cycles too), and seeded graphs; all pairs, u == w included
    rng = random.Random(19)
    graphs = [g for n in range(1, 8) for g in enumerate_connected_bipartite(n)]
    graphs += [g for n in range(1, 6) for g in _connected_classes(n)]
    graphs += [random_connected_bipartite(rng) for _ in range(40)]
    graphs += [random_bridge_context(rng)[0] for _ in range(40)]
    accepted = 0
    for g in graphs:
        cut = bridges(g)
        for u in range(len(g)):
            for w in range(len(g)):
                after = outcome(lambda pair: contract_bridge(g, *pair), (u, w))
                if (min(u, w), max(u, w)) not in cut:
                    assert after == ("ValueError", f"({u}, {w}) is not a cut edge"), (g, u, w)
                    continue
                side = _shore(g, u, w)
                if min(len(side), len(g) - len(side)) < 2:
                    assert after == ("ValueError", "both sides of the cut edge must have at least 2 vertices")
                    continue
                assert after == reference.contract_bridge(g, u, w), (g, u, w)
                accepted += 1
    assert accepted == 254  # cut edges with two vertices or more on each shore


def test_contract_bridge_directions_on_seeded_contexts():
    rng = random.Random(2024)
    for _ in range(200):
        g, u, w = random_bridge_context(rng)
        after = contract_bridge(g, u, w)
        assert len(after) == len(g)
        assert edge_count(after) == edge_count(g)
        assert edge_addition_law_holds(index_deltas(g, after))


@st.composite
def connected_bipartite(draw):
    """(n, edges): a random spanning tree on 2..8 vertices plus any set of
    edges between its two color classes, so any connected bipartite graph."""
    n = draw(st.integers(2, 8))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    color = [0]
    for p in parents:
        color.append(1 - color[p])
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if color[u] != color[v]]
    return n, sorted(set(zip(parents, range(1, n))) | draw(st.sets(st.sampled_from(cross))))


@st.composite
def bridge_contexts(draw):
    """(g, u, w): two connected bipartite sides joined by any bridge (u, w),
    labels shuffled."""
    (a, left), (b, right) = draw(connected_bipartite()), draw(connected_bipartite())
    u = draw(st.integers(0, a - 1))
    w = a + draw(st.integers(0, b - 1))
    edges = left + [(x + a, y + a) for x, y in right] + [(u, w)]
    label = draw(st.permutations(range(a + b)))
    g = new_graph(a + b, [(label[x], label[y]) for x, y in edges])
    return g, label[u], label[w]


@settings(max_examples=400, deadline=None, database=None)
@given(bridge_contexts())
@example((path(4), 1, 2))
def test_contract_bridge_contract_on_any_bridge(bridge):
    g, u, w = bridge
    after = contract_bridge(g, u, w)
    assert after == reference.contract_bridge(g, u, w)
    assert len(after) == len(g)
    assert edge_count(after) == edge_count(g)
    deltas = index_deltas(g, after)
    assert deltas[IndexKind.W] < 0
    assert deltas[IndexKind.WW] < 0
    assert deltas[IndexKind.EDS] < 0
    assert deltas[IndexKind.H] > 0
    assert deltas[IndexKind.CEI] > 0


def test_within_part_shift_minimal_example():
    core = DecoratedCore.make(2, 2, {0: 1, 1: 1})
    shifted, expected = shift_pendants_within_part(core, 0, 1)
    deltas = index_deltas(realize(core), realize(shifted))
    assert deltas[IndexKind.W] == -2
    assert deltas[IndexKind.WW] == -7
    assert deltas[IndexKind.H] == F(1, 4)
    assert contract_holds(expected, deltas)


def test_within_part_shift_flat_cei_case():
    # a third decorated vertex in the same part pins every eccentricity
    core = DecoratedCore.make(3, 3, {0: 2, 1: 3, 2: 1})
    shifted, expected = shift_pendants_within_part(core, 0, 1)
    deltas = index_deltas(realize(core), realize(shifted))
    assert deltas[IndexKind.CEI] == 0
    assert deltas[IndexKind.EDS] == -16 * 2 * 3
    assert contract_holds(expected, deltas)


def test_within_part_shift_grid():
    # every core shape and pendant load in the documented regime, both parts,
    # with and without a third decorated vertex
    for s in range(2, 5):
        for t in range(s, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    setups = [
                        ({0: a, 1: b}, 0, 1, t),
                        ({s: a, s + 1: b}, s, s + 1, s),
                    ]
                    if s >= 3:
                        setups.append(({0: a, 1: b, 2: 1}, 0, 1, None))
                    if t >= 3:
                        setups.append(({s: a, s + 1: b, s + 2: 2}, s, s + 1, None))
                    for pendants, donor, receiver, far_part in setups:
                        core = DecoratedCore.make(s, t, pendants)
                        shifted, expected = shift_pendants_within_part(core, donor, receiver)
                        before, after = realize(core), realize(shifted)
                        assert len(after) == len(before)
                        assert edge_count(after) == edge_count(before)
                        deltas = index_deltas(before, after)
                        assert contract_holds(expected, deltas), (s, t, pendants)
                        assert deltas[IndexKind.W] == -2 * a * b
                        assert deltas[IndexKind.WW] == -7 * a * b
                        assert deltas[IndexKind.H] == F(a * b, 4)
                        assert deltas[IndexKind.EDS] < 0
                        if far_part is not None:
                            # receiver's eccentricity falls, lifting CEI by
                            # far_part/6 plus (a+b)/4
                            assert deltas[IndexKind.CEI] == F(far_part, 6) + F(a + b, 4)


def test_within_part_shift_rejects_bad_input():
    core = DecoratedCore.make(2, 2, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        shift_pendants_within_part(core, 0, 0)  # donor equals receiver
    with pytest.raises(ValueError):
        shift_pendants_within_part(core, 0, 2)  # crosses parts
    with pytest.raises(ValueError):
        shift_pendants_within_part(DecoratedCore.make(2, 2, {0: 1}), 0, 1)
    with pytest.raises(ValueError):
        shift_pendants_within_part(DecoratedCore.make(1, 3, {1: 1, 2: 1}), 1, 2)


def test_shifts_a_core_cannot_take_are_infeasible():
    # Infeasible, not a plain ValueError: the CLI exits 2 for them
    core = DecoratedCore.make(2, 2, {0: 1, 1: 1})
    with pytest.raises(Infeasible, match=r"^core vertex 9 out of range$"):
        shift_pendants_within_part(core, 0, 9)
    with pytest.raises(Infeasible, match=r"^within-part shift needs both core parts of size >= 2$"):
        shift_pendants_within_part(DecoratedCore.make(1, 3, {1: 1, 2: 1}), 1, 2)
    with pytest.raises(Infeasible, match=r"^across-part shift needs part sizes 2 <= s <= t$"):
        shift_pendants_across_parts(DecoratedCore.make(3, 2, {0: 1, 3: 1}))


@st.composite
def decorated_cores(draw):
    """K_{s,t} with 2 <= s <= t <= 6 and 0..4 pendants on every core vertex."""
    t = draw(st.integers(2, 6))
    s = draw(st.integers(2, t))
    pendants = draw(st.lists(st.integers(0, 4), min_size=s + t, max_size=s + t))
    return DecoratedCore(s, tuple(pendants))


@st.composite
def within_part_shifts(draw):
    """Any decorated core with any donor/receiver pair from one core part."""
    core = draw(decorated_cores())
    part = draw(st.sampled_from([range(core.s), range(core.s, core.s + core.t)]))
    return core, draw(st.sampled_from(part)), draw(st.sampled_from(part))


@settings(max_examples=400, deadline=None, database=None)
@given(within_part_shifts())
@example((DecoratedCore.make(2, 2, {0: 1, 1: 1}), 0, 0))
@example((DecoratedCore.make(3, 3, {0: 2, 1: 3, 2: 1}), 0, 1))
def test_within_part_shift_contract_on_any_core(shift):
    core, donor, receiver = shift
    a, b = core.pendants[donor], core.pendants[receiver]
    if donor == receiver or a < 1 or b < 1:
        reason = "must differ" if donor == receiver else "at least one pendant"
        with pytest.raises(ValueError, match=reason):
            shift_pendants_within_part(core, donor, receiver)
        return
    shifted, expected = shift_pendants_within_part(core, donor, receiver)
    deltas = index_deltas(realize(core), realize(shifted))
    assert contract_holds(expected, deltas)
    assert deltas[IndexKind.W] == -2 * a * b
    assert deltas[IndexKind.WW] == -7 * a * b
    assert deltas[IndexKind.H] == F(a * b, 4)


@st.composite
def across_part_cores(draw):
    """Any decorated core, or one with pendants left only on vertices 0 and s."""
    core = draw(decorated_cores())
    if draw(st.booleans()):
        ends = {0: core.pendants[0], core.s: core.pendants[core.s]}
        core = DecoratedCore.make(core.s, core.t, ends)
    return core


@settings(max_examples=400, deadline=None, database=None)
@given(across_part_cores())
@example(DecoratedCore.make(2, 3, {0: 1, 2: 1}))
def test_across_part_shift_contract_on_any_core(core):
    s, t = core.s, core.t
    a, b = core.pendants[0], core.pendants[s]
    others = any(count for v, count in enumerate(core.pendants) if v not in (0, s))
    if a < 1 or b < 1 or others:
        reason = "need pendants on" if a < 1 or b < 1 else "only on vertices 0 and s"
        with pytest.raises(ValueError, match=reason):
            shift_pendants_across_parts(core)
        return
    shifted, expected = shift_pendants_across_parts(core)
    deltas = index_deltas(realize(core), realize(shifted))
    assert contract_holds(expected, deltas)
    assert deltas[IndexKind.W] == -a * b + b * (s - t)
    assert deltas[IndexKind.CEI] == F(s * (t - 1), 6)


def test_across_part_shift_minimal_example():
    core = DecoratedCore.make(2, 3, {0: 1, 2: 1})
    shifted, expected = shift_pendants_across_parts(core)
    deltas = index_deltas(realize(core), realize(shifted))
    assert deltas[IndexKind.CEI] == F(2 * (3 - 1), 6)
    assert deltas[IndexKind.W] == -1 + 1 * (2 - 3)
    assert contract_holds(expected, deltas)


def test_across_part_shift_grid():
    for s in range(2, 5):
        for t in range(s, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    core = DecoratedCore.make(s, t, {0: a, s: b})
                    shifted, expected = shift_pendants_across_parts(core)
                    before, after = realize(core), realize(shifted)
                    assert len(after) == len(before)
                    assert edge_count(after) == edge_count(before)
                    deltas = index_deltas(before, after)
                    assert contract_holds(expected, deltas), (s, t, a, b)
                    assert deltas[IndexKind.W] == -a * b + b * (s - t)
                    assert deltas[IndexKind.CEI] == F(s * (t - 1), 6)
                    assert deltas[IndexKind.WW] < 0
                    assert deltas[IndexKind.EDS] < 0
                    assert deltas[IndexKind.H] > 0


def test_across_part_shift_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_pendants_across_parts(DecoratedCore.make(1, 3, {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        shift_pendants_across_parts(DecoratedCore.make(2, 3, {0: 1}))
    with pytest.raises(ValueError):
        shift_pendants_across_parts(DecoratedCore.make(2, 3, {0: 1, 2: 1, 3: 1}))


def test_probe_star_and_cycle_are_consistent():
    for g in (star(6), cycle(6)):
        probes = monotonicity_probe(g)
        assert all(p.consistent for p in probes)
    assert len(monotonicity_probe(star(6))) == 10  # all leaf pairs
    # consistent is derived from the deltas: one wrong sign, or a zero, breaks it
    (probe, *_) = monotonicity_probe(cycle(6))
    assert [f.name for f in fields(probe)] == ["u", "v", "deltas"]
    for kind in IndexKind:
        for wrong in (-probe.deltas[kind], 0):
            assert EdgeProbe(probe.u, probe.v, {**probe.deltas, kind: wrong}).consistent is False


def test_probe_computes_the_base_graph_once(monkeypatch):
    real = indices._profile
    calls = []
    monkeypatch.setattr(indices, "_profile", lambda g: calls.append(g) or real(g))
    monotonicity_probe(star(6))
    assert len(calls) == 11  # the star once, then each of its 10 one-edge supergraphs


def test_probe_is_isomorphism_invariant():
    rng = random.Random(11)
    g = two_triangles()
    a = monotonicity_probe(g)
    b = monotonicity_probe(scrambled(rng, g))
    assert all(p.consistent for p in a) == all(p.consistent for p in b)
    assert len(a) == len(b)


def test_probe_sampling_is_deterministic():
    g = cycle(8)
    a = monotonicity_probe(g, samples=5, seed=3)
    b = monotonicity_probe(g, samples=5, seed=3)
    assert [(p.u, p.v) for p in a] == [(p.u, p.v) for p in b]
    assert len(a) == 5


def test_probe_rejects_complete_and_disconnected():
    k4 = new_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(ValueError):
        monotonicity_probe(k4)
    with pytest.raises(ValueError):
        monotonicity_probe(new_graph(4, [(0, 1), (2, 3)]))
    for samples in (0, -1):
        with pytest.raises(ValueError, match=rf"^samples must be >= 1, got {samples}$"):
            monotonicity_probe(cycle(8), samples=samples)


def test_edge_addition_sign_table():
    assert list(EDGE_ADDITION_SIGNS.items()) == [
        (IndexKind.W, "<0"),
        (IndexKind.WW, "<0"),
        (IndexKind.H, ">0"),
        (IndexKind.CEI, ">0"),
        (IndexKind.EDS, "<0"),
    ]
    g = path(5)
    deltas = index_deltas(g, new_graph(5, list(edges(g)) + [(0, 4)]))
    assert edge_addition_law_holds(deltas)
    assert not edge_addition_law_holds(index_deltas(g, g))


def test_all_indices_consistency_helper():
    g = path(4)
    vals = all_indices(g)
    assert set(vals) == set(IndexKind)
