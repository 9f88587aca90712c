"""Surgeries and probes: exact deltas in covered regimes, strict signs elsewhere."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex import indices
from bindex.constructors import DecoratedCore, realize, star
from bindex.graphs import certificate, new_graph
from bindex.indices import IndexKind, all_indices, compute
from bindex.transforms import (
    EDGE_ADDITION_SIGNS,
    contract_bridge,
    cut_edge_context,
    holds,
    index_deltas,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)
from conftest import random_bridge_context, scrambled

F = Fraction


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_triangles():
    return new_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def edge_addition_law_holds(deltas):
    return all(holds(deltas[kind], want) for kind, want in EDGE_ADDITION_SIGNS.items())


@pytest.mark.parametrize(
    "delta, want, expected",
    [
        (-1, "<0", True),
        (0, "<0", False),
        (F(1, 6), ">0", True),
        (0, ">0", False),
        (0, ">=0", True),
        (F(-1, 4), ">=0", False),
        (F(-12), F(-12), True),
        (-12, F(-11), False),
        (2, F(2), True),
    ],
)
def test_holds_checks_an_exact_value_or_a_sign(delta, want, expected):
    assert holds(delta, want) is expected


def test_contract_bridge_turns_p4_into_star():
    g = path(4)
    ctx = cut_edge_context(g, 1, 2)
    assert ctx.side_u == frozenset({0, 1})
    assert ctx.side_w == frozenset({2, 3})
    after = contract_bridge(ctx)
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
    after = contract_bridge(cut_edge_context(g, 2, 3))
    assert compute(IndexKind.W, after) == 23
    assert after.n == g.n
    assert after.edge_count == g.edge_count


def test_cut_edge_context_rejects_bad_input():
    with pytest.raises(ValueError):
        cut_edge_context(cycle(4), 0, 1)  # not a cut edge
    with pytest.raises(ValueError):
        cut_edge_context(path(3), 0, 1)  # one side is a single vertex
    with pytest.raises(ValueError):
        cut_edge_context(new_graph(4, [(0, 1), (2, 3)]), 0, 1)  # disconnected


def test_contract_bridge_directions_on_seeded_contexts():
    rng = random.Random(2024)
    for _ in range(200):
        ctx = random_bridge_context(rng)
        after = contract_bridge(ctx)
        assert after.n == ctx.graph.n
        assert after.edge_count == ctx.graph.edge_count
        assert edge_addition_law_holds(index_deltas(ctx.graph, after))


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
    """Two connected bipartite sides joined by any bridge, labels shuffled."""
    (a, left), (b, right) = draw(connected_bipartite()), draw(connected_bipartite())
    u = draw(st.integers(0, a - 1))
    w = a + draw(st.integers(0, b - 1))
    edges = left + [(x + a, y + a) for x, y in right] + [(u, w)]
    label = draw(st.permutations(range(a + b)))
    g = new_graph(a + b, [(label[x], label[y]) for x, y in edges])
    return cut_edge_context(g, label[u], label[w])


@settings(max_examples=400, deadline=None, database=None)
@given(bridge_contexts())
@example(cut_edge_context(path(4), 1, 2))
def test_contract_bridge_contract_on_any_bridge(ctx):
    after = contract_bridge(ctx)
    assert after.n == ctx.graph.n
    assert after.edge_count == ctx.graph.edge_count
    deltas = index_deltas(ctx.graph, after)
    assert deltas[IndexKind.W] < 0
    assert deltas[IndexKind.WW] < 0
    assert deltas[IndexKind.EDS] < 0
    assert deltas[IndexKind.H] > 0
    assert deltas[IndexKind.CEI] > 0


def test_within_part_shift_minimal_example():
    core = DecoratedCore.make(2, 2, {0: 1, 1: 1})
    pred = shift_pendants_within_part(core, 0, 1)
    deltas = index_deltas(realize(core), realize(pred.shifted))
    assert deltas[IndexKind.W] == -2
    assert deltas[IndexKind.WW] == -7
    assert deltas[IndexKind.H] == F(1, 4)
    assert pred.check(deltas)


def test_within_part_shift_flat_cei_case():
    # a third decorated vertex in the same part pins every eccentricity
    core = DecoratedCore.make(3, 3, {0: 2, 1: 3, 2: 1})
    pred = shift_pendants_within_part(core, 0, 1)
    deltas = index_deltas(realize(core), realize(pred.shifted))
    assert deltas[IndexKind.CEI] == 0
    assert deltas[IndexKind.EDS] == -16 * 2 * 3
    assert pred.check(deltas)


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
                        pred = shift_pendants_within_part(core, donor, receiver)
                        before, after = realize(core), realize(pred.shifted)
                        assert after.n == before.n
                        assert after.edge_count == before.edge_count
                        deltas = index_deltas(before, after)
                        assert pred.check(deltas), (s, t, pendants)
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


@st.composite
def decorated_cores(draw):
    """K_{s,t} with 2 <= s <= t <= 6 and 0..4 pendants on every core vertex."""
    t = draw(st.integers(2, 6))
    s = draw(st.integers(2, t))
    pendants = draw(st.lists(st.integers(0, 4), min_size=s + t, max_size=s + t))
    return DecoratedCore(s, t, tuple(pendants))


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
    pred = shift_pendants_within_part(core, donor, receiver)
    deltas = index_deltas(realize(core), realize(pred.shifted))
    assert pred.check(deltas)
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
    pred = shift_pendants_across_parts(core)
    deltas = index_deltas(realize(core), realize(pred.shifted))
    assert pred.check(deltas)
    assert deltas[IndexKind.W] == -a * b + b * (s - t)
    assert deltas[IndexKind.CEI] == F(s * (t - 1), 6)


def test_across_part_shift_minimal_example():
    core = DecoratedCore.make(2, 3, {0: 1, 2: 1})
    pred = shift_pendants_across_parts(core)
    deltas = index_deltas(realize(core), realize(pred.shifted))
    assert deltas[IndexKind.CEI] == F(2 * (3 - 1), 6)
    assert deltas[IndexKind.W] == -1 + 1 * (2 - 3)
    assert pred.check(deltas)


def test_across_part_shift_grid():
    for s in range(2, 5):
        for t in range(s, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    core = DecoratedCore.make(s, t, {0: a, s: b})
                    pred = shift_pendants_across_parts(core)
                    before, after = realize(core), realize(pred.shifted)
                    assert after.n == before.n
                    assert after.edge_count == before.edge_count
                    deltas = index_deltas(before, after)
                    assert pred.check(deltas), (s, t, a, b)
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
        report = monotonicity_probe(g)
        assert report.consistent
        assert all(p.consistent for p in report.probes)
    assert len(monotonicity_probe(star(6)).probes) == 10  # all leaf pairs


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
    assert a.consistent == b.consistent
    assert len(a.probes) == len(b.probes)


def test_probe_sampling_is_deterministic():
    g = cycle(8)
    a = monotonicity_probe(g, samples=5, seed=3)
    b = monotonicity_probe(g, samples=5, seed=3)
    assert [(p.u, p.v) for p in a.probes] == [(p.u, p.v) for p in b.probes]
    assert len(a.probes) == 5


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
    assert EDGE_ADDITION_SIGNS[IndexKind.W] == "<0"
    assert EDGE_ADDITION_SIGNS[IndexKind.H] == ">0"
    assert EDGE_ADDITION_SIGNS[IndexKind.CEI] == ">0"
    assert set(EDGE_ADDITION_SIGNS) == set(IndexKind)
    g = path(5)
    deltas = index_deltas(g, new_graph(5, list(g.edges()) + [(0, 4)]))
    assert edge_addition_law_holds(deltas)
    assert not edge_addition_law_holds(index_deltas(g, g))


def test_all_indices_consistency_helper():
    g = path(4)
    vals = all_indices(g)
    assert set(vals) == set(IndexKind)
