"""Bound polynomials, the printed case table, and their reconciliation."""

from __future__ import annotations

import re
from dataclasses import fields
from fractions import Fraction

import pytest

from bindex.constructors import (
    BkSpec,
    Infeasible,
    b_graph,
    bound_cut_edge_counts,
    feasible_cut_edge_counts,
    star,
)
from bindex.extremal import (
    TABLE_RELATION,
    Reconciliation,
    admissible_x,
    case_table,
    closed_form,
    optimize,
    reconcile,
)
from bindex.indices import IndexKind, all_indices, compute
from reference import case_table_family, optimize_by_scan, reconcile_findings

F = Fraction

W, WW, H, CEI, EDS = (
    IndexKind.W,
    IndexKind.WW,
    IndexKind.H,
    IndexKind.CEI,
    IndexKind.EDS,
)


def nonstar_rows(n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for k in feasible_cut_edge_counts(n):
            if 1 <= k <= n - 4:
                yield n, k


def test_closed_form_spot_values():
    assert closed_form(W, 5, 1, 2) == 16
    assert closed_form(H, 5, 1, 2) == F(22, 3)
    assert closed_form(CEI, 6, 1, 2) == F(19, 3)


def test_closed_forms_match_direct_computation():
    for n, k in nonstar_rows(5, 12):
        for x in admissible_x(n, k):
            g = b_graph(BkSpec(n, k, x))
            direct = all_indices(g)
            for kind in IndexKind:
                assert closed_form(kind, n, k, x) == direct[kind], (kind, n, k, x)


def test_closed_form_rejects_bad_parameters():
    for n, k, x in [(9, 7, 2), (9, 6, 2), (9, 0, 2), (9, 9, 2), (4, 1, 2)]:
        with pytest.raises(Infeasible):
            closed_form(W, n, k, x)
    for x in (1, 4, 0, -2, F(5, 2), 2.5):  # admissible x at (9, 2) is 2..3
        message = f"x={x} not admissible for n=9, k=2: need integer 2 <= x <= n-k-x"
        with pytest.raises(Infeasible, match=f"^{re.escape(message)}$"):
            closed_form(W, 9, 2, x)
    for kind in IndexKind:  # an integral Fraction is the integer it equals
        assert closed_form(kind, 9, 2, F(3)) == closed_form(kind, 9, 2, 3)


def test_admissible_x():
    assert list(admissible_x(9, 2)) == [2, 3]
    assert list(admissible_x(8, 4)) == [2]
    assert list(admissible_x(11, 1)) == [2, 3, 4, 5]
    assert list(admissible_x(8, 7)) == []


def test_optimize_known_answers():
    r = optimize(W, 11, 2)
    assert r.value == 94 and [s.x for s in r.family] == [3, 4]
    assert tuple(s.label() for s in r.family) == ("B_2(3,6)", "B_2(4,5)")
    r = optimize(W, 10, 4)
    assert r.value == 82 and [s.x for s in r.family] == [2]
    r = optimize(CEI, 7, 1)
    assert r.value == F(53, 6) and [s.x for s in r.family] == [3]
    r = optimize(W, 8, 2)
    assert r.value == 48 and [s.x for s in r.family] == [2]
    # the side is the index's own and the optimal x are the family's: neither is stored
    assert [f.name for f in fields(r)] == ["value", "family"]
    assert W.bound_direction == "lower"
    assert H.bound_direction == "upper"


def _check_optimize(n, k, kind):
    r = optimize(kind, n, k)
    # the same value and every optimal x, once each and ascending
    assert r == optimize_by_scan(kind, n, k), (kind, n, k)
    for spec in r.family:
        assert spec == BkSpec(n, k, spec.x)
    return r


def test_optimize_result_invariants():
    for n, k in nonstar_rows(5, 60):
        for kind in IndexKind:
            _check_optimize(n, k, kind)
    # above n = 60, a sample of small, middle and large k: the optimum lies
    # at x = 2 (the vertex clamped), at the top x, and on two tied x
    at = {"x=2": 0, "top x": 0, "tie": 0}
    for n in range(61, 401, 13):
        for k in sorted({1, 2, 3, n // 7, n // 5, n // 3, n // 2, n - 6, n - 5, n - 4}):
            for kind in IndexKind:
                r = _check_optimize(n, k, kind)
                xs = [s.x for s in r.family]
                at["x=2"] += xs[0] == 2
                at["top x"] += xs[-1] == admissible_x(n, k)[-1]
                at["tie"] += len(xs) == 2
    assert all(at.values()), at


def test_optimize_star_rows_use_true_star_values():
    for n in range(5, 13):
        true = all_indices(star(n))
        for kind in IndexKind:
            r = optimize(kind, n, n - 1)
            assert r.value == true[kind]
            assert [s.x for s in r.family] == [1]
            assert r.family == (BkSpec(n, n - 1, 1),)


def test_star_value_closed_forms():
    for n in range(5, 13):
        true = all_indices(star(n))
        assert optimize(W, n, n - 1).value == (n - 1) ** 2 == true[W]
        assert optimize(WW, n, n - 1).value == F((n - 1) * (3 * n - 4), 2) == true[WW]
        assert optimize(H, n, n - 1).value == F(n * n + n - 2, 4) == true[H]
        assert optimize(CEI, n, n - 1).value == F(3 * (n - 1), 2) == true[CEI]
        assert optimize(EDS, n, n - 1).value == (n - 1) * (4 * n - 5) == true[EDS]


def test_wiener_tie_structure():
    # two minimizers exactly when n is odd and the pendant load is light
    for n in range(5, 41):
        for k in feasible_cut_edge_counts(n):
            if not 1 <= k <= n - 4:
                continue
            r = optimize(W, n, k)
            expect_tie = n % 2 == 1 and k <= (n - 5) // 2
            assert (len(r.family) == 2) == expect_tie, (n, k)


def test_case_table_totality_and_shape():
    for n in range(5, 31):
        for k in feasible_cut_edge_counts(n):
            if k < 1 or k in (n - 2, n - 3):
                continue
            for kind in IndexKind:
                row = case_table(kind, n, k)
                assert row.label.startswith(kind.value + ".")
                assert row.relation == TABLE_RELATION[kind]
                if row.family_valid:
                    assert row.family
                    for spec in row.family:
                        assert spec.n == n and spec.k == k


def test_case_table_family_matches_the_reference_rule():
    """Every printed optimizer x that is an integer is admissible, at every n.

    So a row's family is invalid only through a fractional x, and reconcile
    names no other cause. Off its x = 2 boundary clause (and the tree row,
    which prints no x), each clause's x lies in 2 <= x <= (n - k)/2:
    - W: 2k <= n - 5, so x >= (n - 2k - 1)/2 >= 2, and x <= (n - 2k + 1)/2
      <= (n - k)/2 as k >= 1.
    - WW: 2n - 5k >= 9, so x >= (2n - 5k - 2)/4 >= 7/4, and an integer x is
      >= 2; x <= (2n - 5k + 2)/4 <= (n - k)/2 as 3k >= 2.
    - H: m = 3n - 4k >= 13, so x >= (m - 3)/6 >= 5/3, and x <= (n - k)/2
      means 6x <= m + k. Only the largest 6x could exceed it: m + 3 when m
      is 3 mod 6, at k <= 2, and m + 2 when m is 4 mod 6, at k = 1. Those
      cases need 3n to be 1, 5 or 2 mod 6, but 3n is 0 or 3 mod 6.
    - CEI: n - k >= 4, so x = (n - k)/2 or (n - k - 1)/2 is >= 2.
    - EDS: m = 3n - 11k >= 24, so x >= (m - 2)/10 >= 11/5, and
      x <= (m + 8)/10 <= (n - k)/2 as 8 <= 2n + 6k.
    The x = 2 clauses hold 2 <= (n - k)/2 as n - k >= 4.
    """
    invalid = 0
    for n in range(5, 61):
        for k in bound_cut_edge_counts(n):
            for kind in IndexKind:
                row = case_table(kind, n, k)
                expected = case_table_family(n, k, row.x_values)
                assert (row.family, row.family_valid) == expected, (kind, n, k)
                assert row.family_valid or any(x.denominator != 1 for x in row.x_values), (kind, n, k)
                invalid += not row.family_valid
    assert invalid  # the fractional WW optimizers are among the rows compared


def test_table_relations():
    assert TABLE_RELATION == {W: ">=", WW: "<=", H: "<=", CEI: "<=", EDS: ">="}


def test_case_table_star_rows():
    for kind in IndexKind:
        row = case_table(kind, 9, 8)
        assert row.label == f"{kind.value}.i"
        assert row.family == (BkSpec(9, 8, 1),)


def test_case_table_frozen_spots():
    row = case_table(W, 11, 2)
    assert row.label == "w.iii"
    assert row.value == 94 and row.x_values == (3, 4) and row.family_valid

    row = case_table(WW, 10, 2)
    assert row.label == "ww.iii"
    assert row.value == F(225, 2) and not row.family_valid

    row = case_table(WW, 7, 1)
    assert row.label == "ww.v"
    assert row.value == F(387, 8) and not row.family_valid

    row = case_table(WW, 8, 1)
    assert row.label == "ww.vi"
    assert row.value == 64 and row.family_valid

    row = case_table(WW, 12, 3)
    assert row.label == "ww.iv"
    assert row.value == 173 and row.family_valid

    row = case_table(H, 8, 1)
    assert row.label == "h.v"
    assert row.value == F(121, 6) and row.family_valid

    row = case_table(CEI, 6, 1)
    assert row.label == "cei.iii"
    assert row.value == F(19, 3) and row.family_valid

    row = case_table(EDS, 15, 2)
    assert row.label == "eds.ii"
    assert row.value == 827


def test_case_table_value_matches_closed_form_when_family_valid():
    for n in range(5, 21):
        for k in feasible_cut_edge_counts(n):
            if not 1 <= k <= n - 4:
                continue
            for kind in IndexKind:
                row = case_table(kind, n, k)
                if row.family_valid:
                    for spec in row.family:
                        assert closed_form(kind, n, k, spec.x) == row.value


def test_reconcile_nonstar_w_h_cei_fully_consistent():
    for n, k in nonstar_rows(5, 12):
        for kind in (W, H, CEI):
            assert reconcile(kind, n, k).consistent, (kind, n, k)


def test_reconcile_ww_findings():
    value_mismatches = set()
    family_only = set()
    for n, k in nonstar_rows(5, 12):
        r = reconcile(WW, n, k)
        value_match, family_match, direction_conflict = reconcile_findings(WW, r)
        assert direction_conflict  # printed as an upper bound, proved a minimum
        if not value_match:
            value_mismatches.add((n, k))
        elif not family_match:
            family_only.add((n, k))
    assert value_mismatches == {(7, 1), (9, 1), (10, 2), (11, 1), (11, 2)}
    assert family_only == {(10, 1)}


def test_reconcile_ww_value_details():
    r = reconcile(WW, 7, 1)
    assert r.table.value == F(387, 8) and r.computed.value == 48
    r = reconcile(WW, 10, 2)
    assert r.table.value == F(225, 2) and r.computed.value == 113
    # the half-integer entries can never equal an index that is integral here
    assert reconcile(WW, 9, 1).table.value == F(655, 8)
    assert reconcile(WW, 11, 1).table.value == F(995, 8)
    assert reconcile(WW, 11, 2).table.value == F(1097, 8)


def test_reconcile_eds_family_tie():
    # the quadratic's vertex lands exactly between 2 and 3: two minimizers,
    # the table names only one
    r = reconcile(EDS, 11, 1)
    assert reconcile_findings(EDS, r) == (True, False, False)
    assert [s.x for s in r.computed.family] == [2, 3]
    assert r.table.x_values == (2,)
    for n, k in nonstar_rows(5, 12):
        if (n, k) != (11, 1):
            assert reconcile(EDS, n, k).consistent, (n, k)


def test_reconcile_eds_off_by_one_regression():
    # adjacent boundary regime: printed value exceeds the true optimum by 1
    r = reconcile(EDS, 15, 2)
    assert not reconcile_findings(EDS, r)[0]
    assert r.notes == (
        "table value 827 != optimized value 826",
        "table family {B_2(2,11)} != optimized family {B_2(3,10)}",
    )
    assert r.table.value == 827
    assert r.computed.value == 826
    assert [s.x for s in r.computed.family] == [3]


def test_reconcile_star_rows():
    for n in range(5, 13):
        for kind in IndexKind:
            r = reconcile(kind, n, n - 1)
            value_match, family_match, direction_conflict = reconcile_findings(kind, r)
            assert family_match
            assert value_match == (kind in (WW, H))
            assert direction_conflict == (kind is WW)
            if kind is W:
                assert r.table.value == F(n * (n - 1), 2)
                assert r.computed.value == (n - 1) ** 2
            if kind in (CEI, EDS):
                assert r.table.value == F(n * n + n - 2, 4)


def test_reconcile_notes_every_disagreement_once():
    # notes are the only record of a finding: consistent is exactly the
    # conjunction of the three comparisons, and each failed one has one note
    assert [f.name for f in fields(Reconciliation)] == ["computed", "table", "notes"]
    for n in range(5, 61):
        for k in bound_cut_edge_counts(n):
            for kind in IndexKind:
                r = reconcile(kind, n, k)
                value_match, family_match, direction_conflict = reconcile_findings(kind, r)
                assert r.consistent == (value_match and family_match and not direction_conflict)
                family_note = "optimizer" if not r.table.family_valid else "family"
                expected = (
                    ["prints"] * direction_conflict
                    + ["value"] * (not value_match)
                    + [family_note] * (not family_match)
                )
                assert [note.split()[1] for note in r.notes] == expected, (kind, n, k)


def test_compute_on_family_members_beats_table_direction():
    # sanity: the proved direction holds for each family graph vs the optimum
    for n, k in nonstar_rows(5, 10):
        for kind in IndexKind:
            best = optimize(kind, n, k)
            for x in admissible_x(n, k):
                val = compute(kind, b_graph(BkSpec(n, k, x)))
                if kind.bound_direction == "lower":
                    assert val >= best.value
                else:
                    assert val <= best.value
