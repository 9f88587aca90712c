"""Exhaustive enumeration, the verification sweep and its plumbing.

The test_verify_bound_* tests ask verification_sweep for one (index, n, k)
row, so they also cover the sweep's optimum, certificates and up-front
request checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindex import oracle
from bindex.constructors import (
    BkSpec,
    DecoratedCore,
    Infeasible,
    admissible_x,
    b_graph,
    bound_cut_edge_counts,
    complete_bipartite,
    realize,
    star,
)
from bindex.extremal import optimize
from bindex.graphs import bridges, certificate, graph6_encode, is_connected, new_graph
from bindex.indices import IndexKind, all_indices, compute
from bindex.oracle import (
    VerificationReport,
    enumerate_connected_bipartite,
    labeled_class_certificates,
    labeled_connected_bipartite_masks,
    load_reports,
    verification_sweep,
)
import reference
from conftest import random_connected_bipartite
from reference import bipartition, has_edge

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
    assert len({certificate(g) for g in got}) == 25598  # no class listed twice
    # sha256 of the graph6 lines in yield order, as the field-subtracting
    # packed search first yielded them
    lines = "\n".join(graph6_encode(g) for g in got)
    digest = hashlib.sha256(lines.encode("ascii")).hexdigest()
    assert digest == "b4b7ba528dd171a871a772a1754e423a77beda4601452fc3861e262e3a17b840"


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


@pytest.mark.parametrize(
    "s, t", [(s, n - s) for n in range(2, 12) for s in range(1, n // 2 + 1)]
)
def test_packed_search_matches_the_reference_search(s, t):
    # every split with n <= 11: (5, 5), (5, 6) with 120 permutation fields,
    # and t = 3 and t = 7, where a count digit can fill up (t = 2**digit - 1)
    assert list(oracle._classes_with_parts(s, t)) == list(reference.classes_with_parts(s, t))


def test_yield_order_at_n10_is_pinned():
    # sha256 of the graph6 lines in yield order, as the per-permutation-list
    # search first yielded them
    lines = [graph6_encode(g) for g in enumerate_connected_bipartite(10, cap=10)]
    assert len(lines) == 4032
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == "bd979f1a9db14ba72f9b00015cf7e2863a6fdf2ffaa3274bf6a2a8d4d4c8d0ba"


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
        certs = sorted(certificate(g) for g in graphs)
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
    assert oracle._by_cut_edges(enumerate_connected_bipartite(6), [2, 3]) == {2: by_k[2], 3: []}


def test_verify_bound_known_optimum():
    (report,) = verification_sweep([8], [W], [2])
    assert report.oracle_value == 48
    assert report.oracle_certificates == (certificate(b_graph(BkSpec(8, 2, 2))),)
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
    (report,) = verification_sweep([8], [W], [2])
    assert report.verdict == verdict
    assert not report.matched


def test_verdict_is_derived_from_values_then_certificates():
    x2, x3 = (certificate(b_graph(BkSpec(8, 2, x))) for x in (2, 3))

    def report(oracle_value, oracle_certs):
        return VerificationReport(W, 8, 2, Fraction(oracle_value), oracle_certs, Fraction(48), (x2,))

    assert report(48, (x2,)).verdict == "match"
    assert report(48, (x3,)).verdict == "family-mismatch"
    assert report(49, (x3,)).verdict == "value-mismatch"  # values are compared first
    assert [r.matched for r in (report(48, (x2,)), report(49, (x2,)))] == [True, False]


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


def test_sweep_ranks_73_graphs_up_to_n10(monkeypatch):
    # the parity bounds leave 73 of the 3790 bound-row classes to rank
    calls = []
    real = oracle.all_indices
    monkeypatch.setattr(oracle, "all_indices", lambda g, kinds: calls.append(g) or real(g, kinds))
    rows = list(verification_sweep(range(5, 11), cap=10))
    assert len(rows) == 135 and all(r.matched for r in rows)
    assert len(calls) == 73


def _bound_row_groups(ns):
    """(n, k, classes with k cut edges) for every bound row of every n in ns."""
    for n in ns:
        groups = oracle._by_cut_edges(enumerate_connected_bipartite(n, cap=n), bound_cut_edge_counts(n))
        for k, group in groups.items():
            yield n, k, group


def test_pruned_ranking_matches_ranking_every_candidate():
    kind_sets = [list(IndexKind)] + [[kind] for kind in IndexKind]
    seen = 0
    for n, k, group in _bound_row_groups(range(5, 11)):
        seen += len(group)
        for kinds in kind_sets:
            got = oracle._best_multi(group, kinds)
            want = reference.best_multi(group, kinds)
            assert list(got) == kinds, (n, k)
            for kind in kinds:
                (value, graphs), (ref_value, ref_graphs) = got[kind], want[kind]
                assert (type(value), value) == (type(ref_value), ref_value), (kind, n, k)
                assert oracle._certs(graphs) == oracle._certs(ref_graphs), (kind, n, k)
    assert seen == 3790


def _bounds_and_values(g):
    """g's parity bounds, its indices and its diameter."""
    bound = oracle._parity_bounds(g)
    assert bound == reference.parity_bounds(g), g
    diam = max(ecc for _, ecc, _, _ in reference.per_source_profile(g))
    return bound, all_indices(g), diam


def _assert_bounds_hold(g):
    bound, value, diam = _bounds_and_values(g)
    for kind in IndexKind:
        if kind.bound_direction == "lower":
            assert bound[kind] <= value[kind], (kind, g)
        else:
            assert bound[kind] >= value[kind], (kind, g)
    assert [bound[kind] == value[kind] for kind in IndexKind] == [diam <= 3] * 5, g
    return diam


def test_parity_bounds_hold_on_every_class_up_to_n9():
    # from n = 2: K_1 has no CEI
    diams = Counter(_assert_bounds_hold(g) for n in range(2, 10) for g in enumerate_connected_bipartite(n))
    assert sum(diams.values()) == sum(CLASS_COUNTS[1:9])
    assert sum(c for d, c in diams.items() if d > 3) > 0  # strict cases are covered too


def test_parity_bounds_hold_on_random_graphs():
    rng = random.Random(30)
    graphs = [random_connected_bipartite(rng) for _ in range(300)]
    graphs += [random_connected_bipartite(rng, 20, 60) for _ in range(60)]
    diams = [_assert_bounds_hold(g) for g in graphs]
    assert min(diams) <= 3 < max(diams)


def test_parity_bounds_are_exact_on_the_extremal_families():
    graphs = [star(n) for n in range(2, 13)]
    graphs += [
        b_graph(BkSpec(n, k, x))
        for n in range(5, 13)
        for k in bound_cut_edge_counts(n)
        for x in admissible_x(n, k)
    ]
    for g in graphs:
        bound, value, _ = _bounds_and_values(g)
        assert bound == value, g


def test_sweep_keeps_no_class_whose_k_has_no_rows(monkeypatch):
    # n = 8 has no k = 0 row, so its k = 0 classes must be gone by the first row.
    # A tuple takes no weak reference, so each such class's reference count is
    # compared with that of an equal new tuple that only this list holds.
    real = oracle.enumerate_connected_bipartite
    unranked = []

    def tracked(n, cap):
        for g in real(n, cap):
            if not bridges(g):
                unranked.append(g)
            yield g

    monkeypatch.setattr(oracle, "enumerate_connected_bipartite", tracked)
    rows = verification_sweep([8], [W], cap=8)
    first = next(rows)
    gc.collect()
    assert (first.n, first.k) == (8, 1)
    assert len(unranked) > 0
    unranked.append(tuple(list(unranked[0])))  # the control
    counts = [sys.getrefcount(g) for g in unranked]
    assert counts == [counts[-1]] * len(counts)


def test_sweep_keeps_no_class_of_the_last_n_while_it_enumerates_the_next(monkeypatch):
    # the same refcount comparison, taken as the enumeration of n = 8 starts:
    # every class of n = 7, ranked or not, must be gone by then
    real = oracle.enumerate_connected_bipartite
    seen = []
    counts = []

    def tracked(n, cap):
        if n == 8:
            gc.collect()
            seen.append(tuple(list(seen[0])))  # the control
            counts.extend(sys.getrefcount(g) for g in seen)
        for g in real(n, cap):
            if n == 7:
                seen.append(g)
            yield g

    monkeypatch.setattr(oracle, "enumerate_connected_bipartite", tracked)
    rows = list(verification_sweep([7, 8], cap=8))
    assert [r.n for r in rows].count(8) == 5 * len(bound_cut_edge_counts(8))
    assert len(seen) > 1 and counts == [counts[-1]] * len(counts)


def test_sweep_names_a_k_the_enumeration_never_produced(monkeypatch):
    real = oracle.enumerate_connected_bipartite
    monkeypatch.setattr(
        oracle,
        "enumerate_connected_bipartite",
        lambda n, cap: (g for g in real(n, cap) if len(bridges(g)) != 2),
    )
    rows = verification_sweep([8], ks=[1, 2], cap=8)
    assert [(r.n, r.k, r.index) for r in islice(rows, len(IndexKind))] == [
        (8, 1, kind) for kind in IndexKind
    ]
    with pytest.raises(
        Infeasible, match=r"^enumeration produced no graph with n=8, k=2 cut edges$"
    ):
        next(rows)


def test_verify_bound_infeasible_k():
    with pytest.raises(Infeasible):
        verification_sweep([8], [W], [5])  # n-3 cut edges never occur


def test_verify_bound_is_the_sweep_row():
    sweep = {(r.index, r.n, r.k): r for r in verification_sweep(range(5, 9))}
    assert len(sweep) == sum(len(bound_cut_edge_counts(n)) for n in range(5, 9)) * len(IndexKind)
    for (kind, n, k), row in sweep.items():
        assert list(verification_sweep([n], [kind], [k])) == [row]


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
    assert bound_cut_edge_counts(8) == (1, 2, 3, 4, 7)
    assert [(r.n, r.k) for r in verification_sweep([8], [W], ks=[7, 2])] == [(8, 2), (8, 7)]
    for rows in (lambda: bound_cut_edge_counts(4), lambda: verification_sweep([4])):
        with pytest.raises(Infeasible, match=r"^bounds defined for n>=5, got n=4$"):
            rows()


@pytest.mark.parametrize("n", [0, -3])
def test_enumeration_below_one_vertex_is_infeasible(n):
    with pytest.raises(Infeasible, match=rf"^need n>=1, got n={n}$"):
        list(enumerate_connected_bipartite(n))


def test_verify_bound_rows_match():
    for k in bound_cut_edge_counts(8):
        (report,) = verification_sweep([8], [W], [k])
        assert report.matched, k
        assert report.verdict == "match"
        assert report.oracle_value == report.predicted_value
        assert report.oracle_certificates == report.predicted_certificates


def test_verification_sweep_streams_and_skips():
    reports = list(verification_sweep([5]))
    assert len(reports) == len(bound_cut_edge_counts(5)) * len(IndexKind)
    assert all(r.matched for r in reports)
    order = list(IndexKind)
    keys = [(r.index.value, r.n, r.k) for r in reports]
    ranks = [(r.n, r.k, order.index(r.index)) for r in reports]
    assert ranks == sorted(ranks)
    assert list(verification_sweep([5], skip=keys)) == []
    one_shot = verification_sweep([5, 6], [W], ks=iter([1]))
    assert [(r.n, r.k) for r in one_shot] == [(5, 1), (6, 1)]


def test_verification_sweep_reads_an_empty_kinds_list_as_no_rows():
    # only None means every index; an empty list asks for none, as an empty ks does
    assert len(list(verification_sweep([6]))) == 15
    assert list(verification_sweep([6], [])) == []
    assert list(verification_sweep([6], ks=[])) == []


def test_verification_sweep_rejects_n_above_cap_before_any_work(monkeypatch):
    enumerated = []
    monkeypatch.setattr(
        oracle, "enumerate_connected_bipartite", lambda n, cap: enumerated.append(n) or []
    )
    with pytest.raises(ValueError, match=r"n=10 above cap=9"):
        next(verification_sweep([5, 10], cap=9))
    assert enumerated == []


def test_verification_sweep_certificates_use_the_same_cap(monkeypatch):
    # cap=11 lets the sweep enumerate n = 11; its certificates need no cap of their own
    family = [b_graph(BkSpec(11, k, x)) for k in (1, 2) for x in admissible_x(11, k)]
    monkeypatch.setattr(oracle, "enumerate_connected_bipartite", lambda n, cap: family)
    (report,) = verification_sweep([11], [W], ks=[1], cap=11)
    assert report.matched
    assert report.oracle_certificates == tuple(
        sorted(certificate(b_graph(BkSpec(11, 1, x))) for x in (4, 5))
    )


def test_report_round_trip(tmp_path):
    (report,) = verification_sweep([6], [IndexKind.H], [1])
    assert VerificationReport.from_dict(report.to_dict()) == report
    path = tmp_path / "rows.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(report.to_dict()) + "\n")
    loaded = load_reports(path)
    assert loaded == {("h", 6, 1): report}


def test_load_reports_accepts_a_row_with_elapsed_ms(tmp_path):
    # rows written before the timing field was dropped still resume
    (report,) = verification_sweep([6], [IndexKind.H], [1])
    assert "elapsed_ms" not in report.to_dict()
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({**report.to_dict(), "elapsed_ms": 0.412}) + "\n")
    assert load_reports(path) == {("h", 6, 1): report}


@pytest.mark.parametrize("size, count", [(12, 45), (13, 50)], ids=["n12", "n13"])
def test_committed_rows_match_the_bounds(size, count):
    # written once by `bindex verify --n 12 --cap 12 --out tests/golden/verify_n12.jsonl`
    # and the same at n = 13; read back, never re-enumerated (212780 and 2241730 classes)
    rows = load_reports(Path(__file__).parent / "golden" / f"verify_n{size}.jsonl")
    assert sorted(rows) == sorted((kind.value, size, k) for kind in IndexKind for k in bound_cut_edge_counts(size))
    assert len(rows) == count
    for (index, n, k), row in rows.items():
        bound = optimize(IndexKind(index), n, k)
        family = oracle._certs(b_graph(spec) for spec in bound.family)
        assert (row.predicted_value, row.predicted_certificates) == (bound.value, family)
        assert (row.oracle_value, row.oracle_certificates) == (bound.value, family)
        assert row.matched


@pytest.mark.parametrize(
    "bad",
    [
        b'{"index": "h", "n"',
        b'{"index": "h"}',
        b'{"index": "h\xff"}',
        {"oracle_value": "1/0"},
        {"n": "6"},
        {"verdict": "banana"},
        {"oracle_certificates": "DFw"},
        {"oracle_value": "0"},  # the row still says match
    ],
    ids=[
        "cut-row", "missing-field", "non-ascii", "zero-denominator", "n-as-text",
        "unknown-verdict", "certificates-as-text", "verdict-its-values-deny",
    ],
)
def test_load_reports_names_file_and_line_of_a_bad_row(tmp_path, bad):
    (report,) = verification_sweep([6], [IndexKind.H], [1])
    row = report.to_dict()
    good = json.dumps(row).encode("ascii")
    if isinstance(bad, dict):  # parses, but to_dict would not write it back
        bad = json.dumps({**row, **bad}).encode("ascii")
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
        assert reference.complete_bipartite_blocks(g), g
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
        assert not reference.complete_bipartite_blocks(g), g


def a001832(n: int) -> int:
    """Labeled connected bipartite graphs on n vertices, by formula.

    c(m) = sum over j of C(m, j) 2^(j(m-j)) counts the 2-coloured labeled
    graphs on m vertices. Their exponential generating function is the
    exponential of the connected ones', and a connected bipartite graph has
    exactly two colourings, so the count is n!/2 times the n-th coefficient
    of log(sum c(m) x^m/m!) (Harary & Palmer, Graphical Enumeration, 1973).
    With f_0 = 1, L = log f satisfies f L' = f', so n L_n is n f_n less the
    sum over 0 < j < n of j L_j f_(n-j). Fractions throughout: sum() of
    nothing is the int 0, and an int divided by n would be a float.
    """
    f = [
        Fraction(sum(comb(m, j) * 2 ** (j * (m - j)) for j in range(m + 1)), factorial(m))
        for m in range(n + 1)
    ]
    log = [Fraction(0)]
    for m in range(1, n + 1):
        log.append(f[m] - sum((j * log[j] * f[m - j] for j in range(1, m)), Fraction(0)) / m)
    count = factorial(n) * log[n] / 2
    assert count.denominator == 1
    return count.numerator


def test_labeled_scan_counts():
    assert labeled_connected_bipartite_masks(1) == [0]  # K_1: no pairs, one empty mask
    assert len(labeled_connected_bipartite_masks(2)) == 1
    assert len(labeled_connected_bipartite_masks(3)) == 3
    # 16 labeled trees plus the 3 labelings of the 4-cycle
    assert len(labeled_connected_bipartite_masks(4)) == 19
    # labeled connected bipartite graphs, OEIS A001832
    assert len(labeled_connected_bipartite_masks(5)) == 195
    assert len(labeled_connected_bipartite_masks(6)) == 3031
    assert len(labeled_connected_bipartite_masks(7)) == 67263
    for n in range(1, 8):
        assert a001832(n) == len(labeled_connected_bipartite_masks(n)), n
    assert a001832(11) == 426_609_529_863
    assert a001832(12) == 47_982_981_969_979
    for n in (0, 8):
        with pytest.raises(ValueError, match=rf"^labeled scan supports 1 <= n <= 7, got n={n}$"):
            labeled_connected_bipartite_masks(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_labeled_scan_matches_per_mask_filter(n):
    """The vertex-by-vertex search keeps exactly what a plain filter keeps, in order.

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


def test_labeled_path_matches_the_reference_path():
    for n in range(2, 8):
        assert labeled_connected_bipartite_masks(n) == reference.labeled_connected_bipartite_masks(n), n
    for n in range(1, 8):
        assert labeled_class_certificates(n) == reference.labeled_class_certificates(n), n


@pytest.mark.parametrize("n", range(1, 8))
def test_plain_changes_visit_every_order_once(n):
    walk = oracle._plain_changes(n)
    order = list(range(n))
    seen = {tuple(order)}
    for i in walk:
        order[i], order[i + 1] = order[i + 1], order[i]
        seen.add(tuple(order))
    assert len(walk) + 1 == len(seen) == len(list(permutations(range(n))))


def _swapped(steps, mask):
    for d, low in steps:
        t = (mask ^ mask >> d) & low
        mask ^= t | t << d
    return mask


def _relabeled(n, mask, i):
    # the pair mask of new_graph with vertices i and i + 1 exchanged
    pairs = list(combinations(range(n), 2))
    swap = {i: i + 1, i + 1: i}
    g = new_graph(n, [(swap.get(u, u), swap.get(v, v)) for b, (u, v) in enumerate(pairs) if mask >> b & 1])
    return sum(1 << b for b, (u, v) in enumerate(pairs) if has_edge(g, u, v))


@pytest.mark.parametrize("n", range(2, 6))
def test_delta_swaps_relabel_every_mask(n):
    swaps = oracle._transposition_swaps(n)
    assert len(swaps) == n - 1
    for mask in range(1 << n * (n - 1) // 2):
        for i, steps in enumerate(swaps):
            assert _swapped(steps, mask) == _relabeled(n, mask, i), (mask, i)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(0, (1 << 21) - 1), st.integers(0, 5))
def test_delta_swaps_relabel_masks_at_n7(mask, i):
    assert _swapped(oracle._transposition_swaps(7)[i], mask) == _relabeled(7, mask, i)


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_walk_certifies_each_class_once(monkeypatch, n):
    # a walk that missed some permutations would leave images behind, and
    # certify them too: the certificate set alone would not show it
    real = oracle.certificate
    calls = []

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracle, "certificate", spy)
    certs = labeled_class_certificates(n)
    assert len(calls) == len(certs) == CLASS_COUNTS[n - 1]
