"""Core graph type: construction, BFS, bridges, bipartition, certificates."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex.graphs import (
    UNREACHABLE,
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
from conftest import random_connected_bipartite, scrambled


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_construction_and_accessors():
    g = new_graph(4, [(0, 1), (1, 0), (1, 2)])
    assert g.n == 4
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(g.neighbors(1)) == [0, 2]
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(0, [])
    with pytest.raises(ValueError):
        new_graph(2, [(-1, 0)])


def test_bfs_distances_on_path():
    g = path(4)
    assert distances_from(g, 0) == (0, 1, 2, 3)
    assert distances_from(g, 2) == (2, 1, 0, 1)


def test_bfs_marks_unreachable():
    g = new_graph(4, [(0, 1), (2, 3)])
    row = distances_from(g, 0)
    assert row[1] == 1
    assert row[2] == UNREACHABLE and row[3] == UNREACHABLE
    assert not is_connected(g)


def test_is_connected():
    assert is_connected(path(5))
    assert is_connected(new_graph(1, []))
    assert not is_connected(new_graph(2, []))


def test_bridges():
    assert bridges(path(4)) == frozenset({(0, 1), (1, 2), (2, 3)})
    assert bridges(cycle(4)) == frozenset()
    # two triangles joined by one edge: only the joint is a bridge
    g = new_graph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    )
    assert bridges(g) == frozenset({(2, 3)})
    assert bridges(new_graph(2, [(0, 1)])) == frozenset({(0, 1)})


def test_bipartition():
    part = bipartition(path(4))
    assert part is not None
    assert set(part.part_x) | set(part.part_y) == {0, 1, 2, 3}
    assert bipartition(cycle(6)) is not None
    assert bipartition(cycle(5)) is None
    # works per component on disconnected graphs
    part = bipartition(new_graph(4, [(0, 1), (2, 3)]))
    assert part is not None
    assert bipartition(new_graph(7, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 4)])) is None


def test_relabel_preserves_structure():
    g = cycle(6)
    mapping = {0: 3, 1: 5, 2: 0, 3: 1, 4: 4, 5: 2}
    h = relabel(g, mapping)
    assert h.edge_count == g.edge_count
    assert h.has_edge(3, 5) and h.has_edge(5, 0)
    assert certificate(h) == certificate(g)


def test_certificate_separates_and_unifies():
    assert certificate(path(4)) != certificate(cycle(4))
    assert certificate(path(4)) != certificate(new_graph(4, [(0, 1), (0, 2), (0, 3)]))
    rng = random.Random(7)
    for i in range(25):
        g = random_connected_bipartite(rng)
        assert certificate(scrambled(rng, g)) == certificate(g)


def test_certificate_respects_limit():
    g = path(11)
    with pytest.raises(ValueError):
        certificate(g)
    assert certificate(g, limit=11)


def test_graph6_round_trip():
    for g in (new_graph(1, []), path(2), cycle(6), path(10)):
        assert graph6_decode(graph6_encode(g)) == g
    big = path(80)  # exercises the multi-byte order header
    enc = graph6_encode(big)
    assert enc.startswith("~")
    assert graph6_decode(enc) == big


@st.composite
def any_graphs(draw, max_n=100):
    """Any graph on 1..max_n vertices: an edge mask over the vertex pairs."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return new_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@settings(max_examples=200, deadline=None, database=None)
@given(any_graphs())
@example(path(62))  # the largest order with a one-byte header
@example(path(63))  # the smallest with the '~' header
@example(new_graph(63, [(u, v) for v in range(63) for u in range(v)]))
def test_graph6_round_trip_any_graph(g):
    enc = graph6_encode(g)
    assert enc.startswith("~") == (g.n > 62)
    assert graph6_decode(enc) == g


def test_graph6_decode_rejects_garbage():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("E" + chr(30))  # byte below the printable range
    with pytest.raises(ValueError):
        graph6_decode("E")  # truncated body
    # every other check, each message with the offset it blames
    for text, msg in [
        ("A@", "nonzero graph6 padding at offset 1"),  # n = 2, bit 0 clear, pad bit set
        ("~~??????", "invalid graph6 byte 0x7e at offset 1: 8-byte sizes unsupported"),
        ("~??", "truncated graph6 size block at offset 3"),
        ("?", "invalid graph6 byte 0x3f at offset 0: empty graph"),
        ("A??", "graph6 body length 2 != 1 for n=2 (offset 2)"),
    ]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            graph6_decode(text)


def test_known_graph6_form():
    # upper triangle read column by column, six bits per printable byte:
    # 5-path packs 1 01 001 0001 (+ two pad bits) into 41, 4 -> "DhC",
    # 5-cycle packs 1 01 001 1001 into 41, 36 -> "Dhc"
    assert graph6_encode(path(5)) == "DhC"
    assert graph6_decode("DhC") == path(5)
    assert graph6_encode(cycle(5)) == "Dhc"
