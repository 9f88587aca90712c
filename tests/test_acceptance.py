"""Acceptance gate: seven criteria, one test per criterion.

Each test prints one PASS line when it holds; criterion 3 also runs the
n = 9 verification sweep (730 classes, well under a second).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from bindex.constructors import BkSpec, DecoratedCore, b_graph, realize
from bindex.extremal import admissible_x, closed_form, reconcile
from bindex.graphs import bridges, certificate, graph6_decode
from bindex.indices import IndexKind, all_indices, compute
from bindex.oracle import (
    complete_bipartite_blocks,
    enumerate_connected_bipartite,
    labeled_class_certificates,
    verification_sweep,
)
from bindex.transforms import (
    contract_bridge,
    index_deltas,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)
from conftest import random_bridge_context, random_connected_bipartite

F = Fraction

W, WW, H, CEI, EDS = (
    IndexKind.W,
    IndexKind.WW,
    IndexKind.H,
    IndexKind.CEI,
    IndexKind.EDS,
)


@pytest.fixture(scope="module")
def desk_sweep():
    """One exhaustive verification pass over 5 <= n <= 8, shared by two criteria."""
    return list(verification_sweep(range(5, 9)))


def test_criterion_1_closed_forms_match_direct_computation():
    started = time.monotonic()
    points = 0
    for n in range(5, 61):
        for k in range(1, n - 3):
            for x in admissible_x(n, k):
                direct = all_indices(b_graph(BkSpec(n, k, x)))
                for kind in IndexKind:
                    assert closed_form(kind, n, k, x) == direct[kind], (kind, n, k, x)
                points += 1
    elapsed = time.monotonic() - started
    assert points == 15834
    assert elapsed < 60
    print(
        f"PASS criterion 1: closed forms equal direct indices at all "
        f"{points} family members for 5 <= n <= 60 ({elapsed:.1f}s)"
    )


def test_criterion_2_spot_values():
    vals = all_indices(b_graph(BkSpec(5, 1, 2)))
    assert vals[W] == 16
    assert vals[WW] == 23
    assert vals[H] == F(22, 3)
    assert vals[CEI] == F(9, 2)
    assert vals[EDS] == 79
    small = compute(CEI, b_graph(BkSpec(6, 1, 2)))
    assert small == F(19, 3)
    assert small == closed_form(CEI, 6, 1, 2)
    print("PASS criterion 2: frozen spot values reproduced exactly")


def test_criterion_3_desk_scale_verification(desk_sweep):
    started = time.monotonic()
    findings = [r.to_dict() for r in desk_sweep if not r.matched]
    assert len(desk_sweep) == 70  # 14 (n, k) rows, five indices each
    assert findings == [], findings
    assert time.monotonic() - started < 300
    print(
        "PASS criterion 3: oracle value and extremal family match the "
        "predictions on all 70 rows for 5 <= n <= 8"
    )


@pytest.mark.slow
def test_criterion_3_n9_sweep():
    rows = list(verification_sweep([9, 10], cap=10))
    assert len(rows) == 65  # (6 + 7 bound rows) x 5 indices
    findings = [r.to_dict() for r in rows if not r.matched]
    assert findings == [], findings
    print("PASS criterion 3: n = 9, 10 sweeps fully matched")


def test_criterion_4_star_row_errata_detection():
    flagged = set()
    for n in range(5, 13):
        for kind in IndexKind:
            rec = reconcile(kind, n, n - 1)
            assert rec.family_match  # the star itself is never in dispute
            if not rec.value_match:
                flagged.add((kind, n, "value"))
            if rec.direction_conflict:
                flagged.add((kind, n, "direction"))
    expected = set()
    for n in range(5, 13):
        expected |= {(W, n, "value"), (CEI, n, "value"), (EDS, n, "value")}
        expected |= {(WW, n, "direction")}
    assert flagged == expected
    # the printed star values these rows conflict with, and the true ones
    for n in range(5, 13):
        for kind, true in ((W, (n - 1) ** 2), (CEI, F(3 * (n - 1), 2)),
                           (EDS, (n - 1) * (4 * n - 5))):
            rec = reconcile(kind, n, n - 1)
            assert rec.computed.value == true
            assert rec.table.value != true
    print(
        "PASS criterion 4: star rows flag exactly the three printed-value "
        "conflicts plus the lower/upper direction conflict, 5 <= n <= 12"
    )


def test_criterion_5_transformation_contracts():
    started = time.monotonic()

    # edge addition: strict directions on every absent edge of 1000 graphs
    rng = random.Random(20260822)
    probes = 0
    for _ in range(1000):
        report = monotonicity_probe(random_connected_bipartite(rng, lo=4, hi=10))
        assert report.consistent
        probes += len(report.probes)
    assert probes > 0

    # cut edge contraction: strict directions on 200 seeded contexts
    rng = random.Random(1789)
    for _ in range(200):
        ctx = random_bridge_context(rng)
        deltas = index_deltas(ctx.graph, contract_bridge(ctx))
        assert deltas[W] < 0 and deltas[WW] < 0 and deltas[EDS] < 0
        assert deltas[H] > 0 and deltas[CEI] > 0

    # pendant shifts: exact deltas over the full documented grid
    for s in range(2, 5):
        for t in range(s, 5):
            for a in range(1, 4):
                for b in range(1, 4):
                    core = DecoratedCore.make(s, t, {0: a, 1: b})
                    pred = shift_pendants_within_part(core, 0, 1)
                    deltas = index_deltas(realize(core), realize(pred.shifted))
                    assert deltas[W] == -2 * a * b
                    assert deltas[WW] == -7 * a * b
                    assert deltas[H] == F(a * b, 4)
                    assert deltas[CEI] >= 0
                    assert deltas[EDS] < 0

                    core = DecoratedCore.make(s, t, {0: a, s: b})
                    pred = shift_pendants_across_parts(core)
                    deltas = index_deltas(realize(core), realize(pred.shifted))
                    assert deltas[CEI] == F(s * (t - 1), 6)
                    assert deltas[W] < 0 and deltas[WW] < 0 and deltas[EDS] < 0
                    assert deltas[H] > 0

    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(
        f"PASS criterion 5: zero violations across {probes} edge additions, "
        f"200 contractions and both shift grids ({elapsed:.1f}s)"
    )


def test_criterion_6_structural_facts(desk_sweep):
    # feasible cut-edge counts, read off the exhaustive enumeration
    for n in range(5, 10):
        seen = {len(bridges(g)) for g in enumerate_connected_bipartite(n)}
        assert seen == set(range(0, n - 3)) | {n - 1}, n

    # every oracle extremal graph is a decorated complete bipartite core:
    # complete bipartite blocks, bridges all pendant, one support vertex
    for report in desk_sweep:
        for cert in report.oracle_certificates:
            g = graph6_decode(cert)
            assert complete_bipartite_blocks(g), report
            supports = set()
            for a, b in bridges(g):
                assert g.degree(a) == 1 or g.degree(b) == 1, report
                supports.add(b if g.degree(a) == 1 else a)
            assert len(supports) <= 1, report
    print(
        "PASS criterion 6: cut-edge feasibility sets for 5 <= n <= 9 and "
        "the decorated-core structure of every oracle extremal graph"
    )


def test_criterion_7_enumeration_soundness():
    started = time.monotonic()
    counts = []
    for n in range(1, 8):
        labeled = labeled_class_certificates(n)
        generated = {certificate(g) for g in enumerate_connected_bipartite(n)}
        assert labeled == generated, n
        counts.append(len(labeled))
    assert counts == [1, 1, 1, 3, 5, 17, 44]
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(
        f"PASS criterion 7: labeled scan and canonical generator agree on "
        f"all classes up to 7 vertices ({elapsed:.1f}s)"
    )
