"""Graphs as tuples of neighbour masks: construction, BFS, bridges, bipartition, certificates."""

from __future__ import annotations

import random
import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindex import graphs
from bindex.constructors import DecoratedCore, complete_bipartite, realize, star
from bindex.graphs import (
    UNREACHABLE,
    add_edge,
    bridges,
    certificate,
    distances_from,
    edge_count,
    graph6_decode,
    graph6_encode,
    is_connected,
    new_graph,
)
from bindex.indices import IndexKind, all_indices
from bindex.oracle import enumerate_connected_bipartite
from bindex.transforms import contract_bridge
from conftest import outcome, random_connected_bipartite, scrambled
from reference import bipartition, degree, edges, has_edge, neighbors, reference_certificate, relabel
from reference import bridges as reference_bridges
from reference import graph6_decode as reference_graph6_decode


def path(n):
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_construction_and_accessors():
    """A graph is a plain tuple, bit v of entry u the edge (u, v): every
    constructor returns one, and every reader takes a tuple literal."""
    g = new_graph(4, [(0, 1), (1, 0), (1, 2)])
    assert len(g) == 4
    assert edge_count(g) == 2
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
    assert not has_edge(g, 0, 2)
    assert (degree(g, 1), neighbors(g, 1), edges(g)) == (2, (0, 2), ((0, 1), (1, 2)))
    built = {
        "new_graph": (new_graph(4, [(0, 1), (1, 2)]), (0b0010, 0b0101, 0b0010, 0b0000)),
        "add_edge": (add_edge(path(4), 3, 0), (0b1010, 0b0101, 0b1010, 0b0101)),  # C_4
        "graph6_decode": (graph6_decode("Bw"), (0b110, 0b101, 0b011)),  # K_3
        "realize": (realize(DecoratedCore.make(1, 1, {0: 1})), (0b110, 0b001, 0b001)),  # P_3, centre 0
        "contract_bridge": (contract_bridge(path(4), 1, 2), (0b0010, 0b1101, 0b0010, 0b0010)),  # S_4
        "enumerate_connected_bipartite": (next(enumerate_connected_bipartite(3)), (0b110, 0b001, 0b001)),
    }
    for name, (got, want) in built.items():
        assert type(got) is tuple and got == want, name
    assert all(type(g) is tuple for n in range(1, 7) for g in enumerate_connected_bipartite(n))
    k2 = (0b10, 0b01)
    assert all_indices(k2) == {
        IndexKind.W: 1, IndexKind.WW: 1, IndexKind.H: 1, IndexKind.CEI: 2, IndexKind.EDS: 2,
    }
    assert bridges(k2) == {(0, 1)}
    assert certificate(k2) == "A_"


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(0, [])
    with pytest.raises(ValueError):
        new_graph(2, [(-1, 0)])
    assert edge_count(add_edge(path(3), 0, 2)) == 3
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        add_edge(path(3), 1, 1)
    with pytest.raises(ValueError, match=r"^edge \(1, 0\) already present$"):
        add_edge(path(3), 1, 0)


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


def disjoint_union(*gs):
    pairs, offset = [], 0
    for g in gs:
        pairs += [(u + offset, v + offset) for u, v in edges(g)]
        offset += len(g)
    return new_graph(offset, pairs)


def large_graphs():
    """Seeded graphs past the n <= 9 the hypothesis strategies draw."""
    rng = random.Random(2024)
    tree = new_graph(2000, [(rng.randrange(v), v) for v in range(1, 2000)])  # random recursive
    edges = [(i, (i + 1) % 300) for i in range(300)]
    for root in range(0, 300, 7):  # a pendant path of 1..6 edges on every 7th cycle vertex
        last = root
        for _ in range(rng.randint(1, 6)):
            edges.append((last, len(edges)))  # edge i >= 300 ends at new vertex i
            last = len(edges) - 1
    hairy = new_graph(len(edges), edges)
    dense, sparse = (
        new_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        for n, p in ((200, 0.5), (300, 0.005))
    )
    return {
        "path": path(2000),
        "tree": tree,
        "hairy-cycle": hairy,
        "union": disjoint_union(path(2000), tree, hairy, cycle(5)),
        "dense": dense,
        "sparse": sparse,
    }


def test_bridges_match_the_reference_on_every_class_to_n9():
    for n in range(1, 10):
        for g in enumerate_connected_bipartite(n):
            assert bridges(g) == reference_bridges(g), graph6_encode(g)


@pytest.mark.parametrize(
    "name, g", [pytest.param(name, g, id=name) for name, g in large_graphs().items()]
)
def test_bridges_match_the_reference_on_large_graphs(name, g):
    cut = bridges(g)
    assert cut == reference_bridges(g)
    if name in ("path", "tree"):
        assert len(cut) == len(g) - 1
    if name == "dense":
        assert not cut and is_connected(g)


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
    assert edge_count(h) == edge_count(g)
    assert has_edge(h, 3, 5) and has_edge(h, 5, 0)
    assert certificate(h) == certificate(g)


def test_certificate_separates_and_unifies():
    assert certificate(path(4)) != certificate(cycle(4))
    assert certificate(path(4)) != certificate(new_graph(4, [(0, 1), (0, 2), (0, 3)]))
    rng = random.Random(7)
    for i in range(25):
        g = random_connected_bipartite(rng)
        assert certificate(scrambled(rng, g)) == certificate(g)


def test_certificate_takes_no_size_limit():
    # the oracle's cap is the one size guard; certificate certifies any n
    twelve = new_graph(12, [(i, i + 1) for i in range(11)] + [(0, 3), (4, 11)])
    for g in (path(11), twelve):
        assert certificate(g) == reference_certificate(g)


def test_certificate_runs_past_the_recursion_limit():
    # thousands of candidates in one cell: the independent-set search is not recursive
    n = 1200
    center_last = new_graph(n, [(v, n - 1) for v in range(n - 1)])
    k600 = complete_bipartite(600, 600)  # part X first is already canonical
    for g, canonical in ((star(n), center_last), (new_graph(n), new_graph(n)), (k600, k600)):
        assert certificate(g) == graph6_encode(canonical)


def test_certificate_of_a_long_path_is_relabeling_invariant():
    # the independent-set search bounds each branch by a greedy matching, so P_60 is quick
    rng = random.Random(60)
    cert = certificate(path(60))
    g = graph6_decode(cert)
    assert (edge_count(g), is_connected(g), max(degree(g, v) for v in range(60))) == (59, True, 2)
    assert [certificate(scrambled(rng, path(60))) for _ in range(3)] == [cert] * 3


def test_graph6_size_is_checked_before_any_work():
    g = new_graph(258048)  # one past graph6's limit; a bit string would take ~33e9 chars
    for encode in (graph6_encode, certificate):
        assert outcome(encode, g) == ("ValueError", "graph6 encoder supports n<=258047, got 258048")


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
@example(new_graph(1))
def test_graph6_round_trip_any_graph(g):
    enc = graph6_encode(g)
    assert enc.startswith("~") == (len(g) > 62)
    assert graph6_decode(enc) == reference_graph6_decode(enc) == g
    assert graph6_decode(enc.encode("ascii") + b"\n") == g


@st.composite
def damaged_encodings(draw):
    """A valid graph6 line cut short, with one byte replaced, or with random
    bits set in its last byte, where any padding bits are."""
    enc = graph6_encode(draw(any_graphs(max_n=20))).encode("ascii")
    at = draw(st.integers(0, len(enc)))
    how = draw(st.sampled_from(["cut", "replace", "pad"]))
    if how == "cut":
        return enc[:at]
    if how == "replace":
        return enc[:at] + bytes([draw(st.integers(0, 255))]) + enc[at + 1 :]
    return enc[:-1] + bytes([63 + ((enc[-1] - 63) | draw(st.integers(0, 63)))])


@settings(max_examples=500, deadline=None, database=None)
@given(
    st.one_of(
        st.binary(max_size=30),
        # mostly graph6 bytes, so the size, length and padding checks run
        st.lists(st.one_of(st.integers(63, 126), st.integers(0, 255)), max_size=30).map(bytes),
        damaged_encodings(),
        st.text(max_size=12),  # str input, code points past 0xff included
    )
)
@example(b"")
@example(b" \t\r\n")
@example(b"A@")  # nonzero padding
@example(b"AO")  # only the first padding bit set
@example(b"~~??????")
@example(b"~??")
@example(b"?")
@example(b"A??")
@example(b"DhC\xa0")
@example("F\u4e00")
@example("\ud800")  # a lone surrogate, which st.text() never draws
def test_graph6_decode_matches_reference_on_any_input(data):
    assert outcome(graph6_decode, data) == outcome(reference_graph6_decode, data)


def complete(n):
    return new_graph(n, [(u, v) for v in range(n) for u in range(v)])


CYCLE_10 = new_graph(10, [(i, (i + 1) % 10) for i in range(10)])
PETERSEN = new_graph(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)
CUBE = new_graph(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b])
K_5_5 = new_graph(10, [(u, v) for u in range(5) for v in range(5, 10)])
THREE_TRIANGLES_AND_K1 = new_graph(
    10, [(3 * t + i, 3 * t + j) for t in range(3) for i, j in ((0, 1), (1, 2), (0, 2))]
)
SYMMETRIC = {
    "K10": complete(10),
    "empty10": new_graph(10),
    "K5,5": K_5_5,
    "C10": CYCLE_10,
    "Petersen": PETERSEN,
    "Q3": CUBE,
    "3K3+K1": THREE_TRIANGLES_AND_K1,
}


def test_certificate_tries_one_of_each_true_twin_class(monkeypatch):
    # every vertex of K10 is a true twin of every other: one branch per
    # node, so ten nodes, where branching on each twin would take 10!
    calls = 0
    search = graphs._maximum_independent_sets

    def counted(adj, cands):
        nonlocal calls
        calls += 1
        assert calls <= 10, "branched on a true twin"
        return search(adj, cands)

    monkeypatch.setattr(graphs, "_maximum_independent_sets", counted)
    assert certificate(complete(10)) == reference_certificate(complete(10))
    assert calls == 10


@pytest.mark.parametrize("name", SYMMETRIC)
def test_certificate_matches_reference_on_symmetric_graphs(name):
    # twins (K10, the empty graph, K5,5, 3K3+K1) and vertex-transitive graphs
    # with no twins (C10, Petersen, Q3) stress the twin merge and the
    # maximum independent set step, where a wrong cell search would differ
    g = SYMMETRIC[name]
    assert certificate(g) == reference_certificate(g)
    rng = random.Random(name)
    assert certificate(scrambled(rng, g)) == certificate(g)


@settings(max_examples=400, deadline=None, database=None)
@given(any_graphs(max_n=9))
@example(new_graph(3, [(0, 1)]))
@example(new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))  # the center is no maximum set
def test_certificate_matches_reference_on_any_graph(g):
    assert certificate(g) == reference_certificate(g)


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


def test_graph6_decode_reads_bytes_and_names_the_raw_byte():
    assert graph6_decode(b" DhC\r\n") == graph6_decode("DhC") == path(5)
    for raw, msg in [
        (b"\xff", "invalid graph6 byte 0xff at offset 0"),
        ("F\u00e9".encode("utf-8"), "invalid graph6 byte 0xc3 at offset 1"),
        # not ASCII whitespace: never stripped, so blamed as the byte it is
        (b"DhC\xa0", "invalid graph6 byte 0xa0 at offset 3"),
        ("DhC\x1f", "invalid graph6 byte 0x1f at offset 3"),
        # text is read as its UTF-8 bytes, and offsets count bytes
        ("F\u4e00", "invalid graph6 byte 0xe4 at offset 1"),
        ("F\u00e9", "invalid graph6 byte 0xc3 at offset 1"),
        ("DhC\u00a0", "invalid graph6 byte 0xc2 at offset 3"),
        # a surrogate escape, as sys.argv carries an undecodable byte
        ("F\udce9", "invalid graph6 byte 0xe9 at offset 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(msg)):
            graph6_decode(raw)
    # any other lone surrogate has no bytes; the codec error is a ValueError
    with pytest.raises(ValueError, match="surrogates not allowed"):
        graph6_decode("\ud800")


def test_known_graph6_form():
    # upper triangle read column by column, six bits per printable byte:
    # 5-path packs 1 01 001 0001 (+ two pad bits) into 41, 4 -> "DhC",
    # 5-cycle packs 1 01 001 1001 into 41, 36 -> "Dhc"
    assert graph6_encode(path(5)) == "DhC"
    assert graph6_decode("DhC") == path(5)
    assert graph6_encode(cycle(5)) == "Dhc"
