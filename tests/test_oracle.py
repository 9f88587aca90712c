"""Exhaustive enumeration, extremal search, verification plumbing."""

from __future__ import annotations

import json

import pytest

from bindex.constructors import (
    BkSpec,
    DecoratedCore,
    Infeasible,
    b_graph,
    complete_bipartite,
    realize,
    star,
)
from bindex.graphs import bridges, certificate, new_graph
from bindex.indices import IndexKind
from bindex.oracle import (
    VerificationReport,
    complete_bipartite_blocks,
    enumerate_connected_bipartite,
    extremal_search,
    filter_by_cut_edges,
    labeled_class_certificates,
    labeled_connected_bipartite_masks,
    load_reports,
    bound_rows,
    verification_sweep,
    verify_bound,
)

W = IndexKind.W

# connected bipartite isomorphism classes by vertex count
CLASS_COUNTS = [1, 1, 1, 3, 5, 17, 44, 182]


def test_enumeration_class_counts():
    for n, want in enumerate(CLASS_COUNTS, start=1):
        got = list(enumerate_connected_bipartite(n))
        assert len(got) == want, n
        certs = {certificate(g) for g in got}
        assert len(certs) == want  # no class listed twice


def test_enumeration_emits_connected_bipartite_graphs():
    from bindex.graphs import bipartition, is_connected

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


def test_extremal_search_known_optimum():
    res = extremal_search(W, 8, 2)
    assert res.value == 48
    assert res.certificates == (certificate(b_graph(BkSpec(8, 2, 2))).decode(),)
    # the other family member is strictly worse here
    from bindex.indices import wiener

    assert wiener(b_graph(BkSpec(8, 2, 3))) == 49


def test_extremal_search_infeasible_k():
    with pytest.raises(Infeasible):
        extremal_search(W, 8, 5)  # n-3 cut edges never occur


def test_bound_rows():
    assert bound_rows(8) == [1, 2, 3, 4, 7]
    assert bound_rows(8, ks=[2, 7]) == [2, 7]
    with pytest.raises(Infeasible):
        bound_rows(4)


def test_verify_bound_rows_match():
    for k in bound_rows(8):
        report = verify_bound(W, 8, k)
        assert report.matched, k
        assert report.verdict == "match"
        assert report.oracle_value == report.predicted_value
        assert report.oracle_certificates == report.predicted_certificates


def test_verification_sweep_streams_and_skips():
    reports = list(verification_sweep([5], timing=True))
    assert len(reports) == len(bound_rows(5)) * len(IndexKind)
    assert all(r.matched for r in reports)
    assert all(r.elapsed_ms is not None for r in reports)
    order = list(IndexKind)
    keys = [(r.index.value, r.n, r.k) for r in reports]
    ranks = [(r.n, r.k, order.index(r.index)) for r in reports]
    assert ranks == sorted(ranks)
    assert list(verification_sweep([5], skip=keys)) == []


def test_report_round_trip(tmp_path):
    report = verify_bound(IndexKind.H, 6, 1)
    assert VerificationReport.from_dict(report.to_dict()) == report
    path = tmp_path / "rows.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(report.to_dict()) + "\n")
    loaded = load_reports(path)
    assert loaded == {("h", 6, 1): report}


@pytest.mark.parametrize(
    "bad", ['{"index": "h", "n"', '{"index": "h"}'], ids=["cut-row", "missing-field"]
)
def test_load_reports_names_file_and_line_of_a_bad_row(tmp_path, bad):
    good = json.dumps(verify_bound(IndexKind.H, 6, 1).to_dict())
    path = tmp_path / "rows.jsonl"
    path.write_text(good + "\n\n" + bad + "\n")  # blank lines still count
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
    with pytest.raises(ValueError):
        labeled_connected_bipartite_masks(8)


def test_labeled_classes_agree_with_generator():
    for n in range(1, 7):
        labeled = labeled_class_certificates(n)
        generated = {certificate(g) for g in enumerate_connected_bipartite(n)}
        assert labeled == generated, n
