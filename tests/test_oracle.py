"""Exhaustive enumeration, the verification sweep and its plumbing.

verify_bound is one row of verification_sweep, so its tests also cover the
sweep's optimum, certificates and up-front request checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from bindex import oracle
from bindex.constructors import (
    BkSpec,
    DecoratedCore,
    Infeasible,
    b_graph,
    complete_bipartite,
    realize,
    star,
)
from bindex.extremal import admissible_x
from bindex.graphs import bipartition, bridges, certificate, is_connected, new_graph
from bindex.indices import IndexKind, compute
from bindex.oracle import (
    VerificationReport,
    complete_bipartite_blocks,
    enumerate_connected_bipartite,
    filter_by_cut_edges,
    labeled_class_certificates,
    labeled_connected_bipartite_masks,
    load_reports,
    bound_rows,
    verification_sweep,
    verify_bound,
)

W = IndexKind.W

# connected bipartite isomorphism classes by vertex count, OEIS A005142
CLASS_COUNTS = [1, 1, 1, 3, 5, 17, 44, 182, 730, 4032]


def test_enumeration_class_counts():
    for n, want in enumerate(CLASS_COUNTS, start=1):
        got = list(enumerate_connected_bipartite(n, cap=10))
        assert len(got) == want, n
        certs = {certificate(g) for g in got}
        assert len(certs) == want  # no class listed twice


@pytest.mark.slow
def test_enumeration_class_count_n11():
    got = list(enumerate_connected_bipartite(11, cap=11))
    assert len(got) == 25598
    assert len({certificate(g, limit=11) for g in got}) == 25598  # no class listed twice


@pytest.mark.parametrize(
    "s, t", [(s, t) for t in range(1, 8) for s in range(1, t + 1) if s + t <= 8]
)
def test_search_yields_the_whole_multiset_rule(s, t):
    """The prefix search keeps exactly what the whole-multiset rule keeps.

    The rule: a sorted tuple of t nonempty s-bit column masks is canonical
    iff no row permutation maps it to a smaller sorted tuple and, when
    s = t, neither does any row permutation of its transpose (the rows as
    t-bit masks). The search must yield the connected canonical tuples, in
    the same order, as graphs with rows 0..s-1 and columns s..s+t-1.
    """
    remaps = []
    for p in permutations(range(s)):
        remaps.append([sum(1 << p[i] for i in range(s) if c >> i & 1) for c in range(1 << s)])
    want = []
    for combo in combinations_with_replacement(range(1, 1 << s), t):
        rows = tuple(sum(1 << j for j in range(t) if combo[j] >> i & 1) for i in range(s))
        images = [tuple(sorted(tbl[c] for c in combo)) for tbl in remaps]
        if s == t:
            images += [tuple(sorted(tbl[r] for r in rows)) for tbl in remaps]
        if min(images) < combo:
            continue
        edges = [(i, s + j) for j in range(t) for i in range(s) if combo[j] >> i & 1]
        g = new_graph(s + t, edges)
        if is_connected(g):
            want.append(g)
    assert list(oracle._classes_with_parts(s, t)) == want


def test_certificates_at_n8_are_byte_identical():
    # sha256 of the sorted certificates, one per line: n = 8 as first written
    # by the relabel-and-encode certificate, n = 9 and 10 as written by the
    # vertex-by-vertex branch and bound; n = 7 is pinned by
    # tests/golden/enumerate_n7.g6
    pinned = {
        8: (182, "37b3e8eedf8fb535f2ace010586c6a6e069af713ffcd5169f5ef68aef83a93a8"),
        9: (730, "1368f5e8f8ee5713bae9533ffdbb378c01a774b4126f1aee88bbd353a0b2203f"),
        10: (4032, "2c6e0cf519241bc622822b5ce0b945e20313c567a58ac62549b151ff7fb232bf"),
    }
    for n, (lines, want) in pinned.items():
        graphs = enumerate_connected_bipartite(n, cap=10)
        certs = sorted(certificate(g).decode("ascii") for g in graphs)
        assert len(certs) == lines, n
        assert hashlib.sha256("\n".join(certs).encode("ascii")).hexdigest() == want, n


def test_enumeration_emits_connected_bipartite_graphs():
    for g in enumerate_connected_bipartite(6):
        assert is_connected(g)
        assert bipartition(g) is not None


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(10))


def test_cut_edge_histogram_n6():
    by_k = {}
    for g in enumerate_connected_bipartite(6):
        by_k.setdefault(len(bridges(g)), []).append(g)
    assert {k: len(v) for k, v in by_k.items()} == {0: 5, 1: 2, 2: 4, 5: 6}
    assert filter_by_cut_edges(enumerate_connected_bipartite(6), 2) == by_k[2]


def test_verify_bound_known_optimum():
    report = verify_bound(W, 8, 2)
    assert report.oracle_value == 48
    assert report.oracle_certificates == (certificate(b_graph(BkSpec(8, 2, 2))).decode(),)
    # the other family member is strictly worse here
    assert compute(W, b_graph(BkSpec(8, 2, 3))) == 49


@pytest.mark.parametrize(
    "change, verdict",
    [
        ({"value": Fraction(47)}, "value-mismatch"),
        ({"family": (BkSpec(8, 2, 3),)}, "family-mismatch"),
        ({"value": Fraction(47), "family": (BkSpec(8, 2, 3),)}, "value-mismatch"),
    ],
)
def test_verify_bound_verdict_names_what_differs(monkeypatch, change, verdict):
    real = oracle.optimize
    monkeypatch.setattr(oracle, "optimize", lambda *args: replace(real(*args), **change))
    report = verify_bound(W, 8, 2)
    assert report.verdict == verdict
    assert not report.matched


def test_sweep_computes_only_the_requested_kinds(monkeypatch):
    asked = []
    real = oracle.all_indices

    def spy(g, kinds):
        asked.append(tuple(kinds))
        return real(g, kinds)

    monkeypatch.setattr(oracle, "all_indices", spy)
    (report,) = verification_sweep([8], [W], ks=[2])
    assert asked and set(asked) == {(W,)}
    # W is an int per graph; the report still carries a Fraction
    assert type(report.oracle_value) is Fraction and report.oracle_value == 48


def test_verify_bound_infeasible_k():
    with pytest.raises(Infeasible):
        verify_bound(W, 8, 5)  # n-3 cut edges never occur


def test_verify_bound_is_the_sweep_row():
    sweep = {(r.index, r.n, r.k): r for r in verification_sweep(range(5, 9))}
    assert len(sweep) == sum(len(bound_rows(n)) for n in range(5, 9)) * len(IndexKind)
    for (kind, n, k), row in sweep.items():
        assert verify_bound(kind, n, k) == row


@pytest.mark.parametrize("k", [5, 0, 9])
def test_verification_sweep_rejects_k_that_is_no_bound_row(monkeypatch, k):
    # n = 8 has rows 1..4 and 7; k = 5 = n-3 never occurs
    enumerated = []
    monkeypatch.setattr(
        oracle, "enumerate_connected_bipartite", lambda n, cap: enumerated.append(n) or []
    )
    with pytest.raises(Infeasible, match=rf"k={k} at n=8\b"):
        verification_sweep([8], ks=[k])
    with pytest.raises(Infeasible, match=rf"k={k} at n=5, 8\b"):
        verification_sweep(iter([8, 5]), ks=iter([k, 1]))
    assert enumerated == []


def test_verification_sweep_keeps_k_that_fits_some_n():
    # k = 2 is a bound row at n = 8 but not at n = 5 (rows 1 and 4)
    rows = verification_sweep(iter([5, 8]), [W], ks=[2])
    assert [(r.n, r.k) for r in rows] == [(8, 2)]


def test_bound_rows():
    assert bound_rows(8) == [1, 2, 3, 4, 7]
    assert bound_rows(8, ks=[2, 7]) == [2, 7]
    with pytest.raises(Infeasible, match=r"^bounds defined for n>=5, got n=4$"):
        bound_rows(4)


@pytest.mark.parametrize("n", [0, -3])
def test_enumeration_below_one_vertex_is_infeasible(n):
    with pytest.raises(Infeasible, match=rf"^need n>=1, got n={n}$"):
        list(enumerate_connected_bipartite(n))


def test_verify_bound_rows_match():
    for k in bound_rows(8):
        report = verify_bound(W, 8, k)
        assert report.matched, k
        assert report.verdict == "match"
        assert report.oracle_value == report.predicted_value
        assert report.oracle_certificates == report.predicted_certificates


def test_verification_sweep_streams_and_skips():
    reports = list(verification_sweep([5]))
    assert len(reports) == len(bound_rows(5)) * len(IndexKind)
    assert all(r.matched for r in reports)
    order = list(IndexKind)
    keys = [(r.index.value, r.n, r.k) for r in reports]
    ranks = [(r.n, r.k, order.index(r.index)) for r in reports]
    assert ranks == sorted(ranks)
    assert list(verification_sweep([5], skip=keys)) == []
    one_shot = verification_sweep([5, 6], [W], ks=iter([1]))
    assert [(r.n, r.k) for r in one_shot] == [(5, 1), (6, 1)]


def test_verification_sweep_rejects_n_above_cap_before_any_work(monkeypatch):
    enumerated = []
    monkeypatch.setattr(
        oracle, "enumerate_connected_bipartite", lambda n, cap: enumerated.append(n) or []
    )
    with pytest.raises(ValueError, match=r"n=10 above cap=9"):
        next(verification_sweep([5, 10], cap=9))
    assert enumerated == []


def test_verification_sweep_certificates_use_the_same_cap(monkeypatch):
    # n = 11 is past certificate()'s default limit; cap=11 must cover it
    family = [b_graph(BkSpec(11, k, x)) for k in (1, 2) for x in admissible_x(11, k)]
    monkeypatch.setattr(oracle, "enumerate_connected_bipartite", lambda n, cap: family)
    (report,) = verification_sweep([11], [W], ks=[1], cap=11)
    assert report.matched
    assert report.oracle_certificates == tuple(
        sorted(certificate(b_graph(BkSpec(11, 1, x)), 11).decode() for x in (4, 5))
    )


def test_report_round_trip(tmp_path):
    report = verify_bound(IndexKind.H, 6, 1)
    assert VerificationReport.from_dict(report.to_dict()) == report
    path = tmp_path / "rows.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(report.to_dict()) + "\n")
    loaded = load_reports(path)
    assert loaded == {("h", 6, 1): report}


def test_load_reports_accepts_a_row_with_elapsed_ms(tmp_path):
    # rows written before the timing field was dropped still resume
    report = verify_bound(IndexKind.H, 6, 1)
    assert "elapsed_ms" not in report.to_dict()
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({**report.to_dict(), "elapsed_ms": 0.412}) + "\n")
    assert load_reports(path) == {("h", 6, 1): report}


@pytest.mark.parametrize(
    "bad",
    [b'{"index": "h", "n"', b'{"index": "h"}', b'{"index": "h\xff"}'],
    ids=["cut-row", "missing-field", "non-ascii"],
)
def test_load_reports_names_file_and_line_of_a_bad_row(tmp_path, bad):
    good = json.dumps(verify_bound(IndexKind.H, 6, 1).to_dict()).encode("ascii")
    path = tmp_path / "rows.jsonl"
    path.write_bytes(good + b"\n\n" + bad + b"\n")  # blank lines still count
    with pytest.raises(ValueError, match=r"rows\.jsonl, line 3: "):
        load_reports(path)


def test_complete_bipartite_blocks():
    positives = [
        star(7),
        complete_bipartite(3, 4),
        b_graph(BkSpec(8, 2, 3)),
        new_graph(5, [(i, i + 1) for i in range(4)]),  # path: trivial blocks
        realize(DecoratedCore.make(2, 3, {0: 1, 2: 1})),
    ]
    for g in positives:
        assert complete_bipartite_blocks(g), g
    c6 = new_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = new_graph(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    )
    cube = new_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    for g in (c6, two_triangles, cube):
        assert not complete_bipartite_blocks(g), g


def test_labeled_scan_counts():
    assert len(labeled_connected_bipartite_masks(2)) == 1
    assert len(labeled_connected_bipartite_masks(3)) == 3
    # 16 labeled trees plus the 3 labelings of the 4-cycle
    assert len(labeled_connected_bipartite_masks(4)) == 19
    # labeled connected bipartite graphs, OEIS A001832
    assert len(labeled_connected_bipartite_masks(5)) == 195
    assert len(labeled_connected_bipartite_masks(6)) == 3031
    assert len(labeled_connected_bipartite_masks(7)) == 67263
    with pytest.raises(ValueError):
        labeled_connected_bipartite_masks(8)


@pytest.mark.parametrize("n", range(2, 7))
def test_labeled_scan_matches_per_mask_filter(n):
    """The edge-by-edge search keeps exactly what a plain filter keeps, in order.

    Bit i of a mask is the i-th vertex pair in lexicographic order. n = 7
    has 2^21 masks, too many to filter here; its output is pinned below.
    """
    pairs = list(combinations(range(n), 2))
    want = []
    for mask in range(1 << len(pairs)):
        g = new_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if is_connected(g) and bipartition(g) is not None:
            want.append(mask)
    assert labeled_connected_bipartite_masks(n) == want


def test_labeled_scan_n7_is_pinned():
    # sha256 of the 67263 kept masks, comma-joined in the order returned
    masks = labeled_connected_bipartite_masks(7)
    digest = hashlib.sha256(",".join(map(str, masks)).encode("ascii")).hexdigest()
    assert digest == "1a5bc8489a52953c38fcff44306967e5e168a2592239c813bf69049aeda596ab"


def test_labeled_classes_agree_with_generator():
    for n in range(1, 7):
        labeled = labeled_class_certificates(n)
        generated = {certificate(g) for g in enumerate_connected_bipartite(n)}
        assert labeled == generated, n
