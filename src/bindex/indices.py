"""Five exact distance-based indices of connected graphs.

W   = sum over unordered pairs of d(u, v)
WW  = (1/2) sum over pairs of (d + d^2), always an integer
H   = sum over pairs of 1/d                   (exact Fraction)
CEI = sum over vertices of deg(u)/ecc(u)      (exact Fraction)
EDS = sum over vertices of ecc(u) * D(u), D = transmission

all_indices computes every requested index in one uncached pass over the
profile's rows, one row per false-twin class (vertices with equal neighbor
masks): the class's members, their shared degree, their eccentricity and
the number of vertices at each distance. The profile runs one BFS per
class, so the extremal graphs B_k(x, y), which have four such classes,
cost four BFS runs and four rows at any size. The pass aggregates integer
counts first and divides exactly at the end, so sweeps over thousands of
graphs stay cheap and no floats appear anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graphs import UNREACHABLE, Graph, distances_from


class IndexKind(str, Enum):
    """The five indices, with their behavior under edge addition."""

    W = "w"
    WW = "ww"
    H = "h"
    CEI = "cei"
    EDS = "eds"

    @property
    def decreases_when_edges_added(self) -> bool:
        return self in (IndexKind.W, IndexKind.WW, IndexKind.EDS)

    @property
    def bound_direction(self) -> str:
        """Over graphs with fixed n and cut edges: the side the optimum sits on.

        Indices that shrink as edges are added are bounded from below (the
        extremal graph minimizes them); the other two are bounded from above.
        """
        return "lower" if self.decreases_when_edges_added else "upper"

    @property
    def is_rational(self) -> bool:
        return self in (IndexKind.H, IndexKind.CEI)


def _profile(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """One (members, degree, eccentricity, count-per-distance) row per class.

    Vertices with equal neighbor masks are false twins: swapping two of
    them is an automorphism, so they share one row. members is the class's
    vertex mask and degree the popcount of its shared neighbor mask. Each
    class runs one frontier BFS from its lowest member, and each layer's
    count is the frontier's popcount.
    """
    adj = g.adj
    classes: dict[int, int] = {}
    for u, mask in enumerate(adj):
        classes[mask] = classes.get(mask, 0) | 1 << u
    # Only one vertex per class needs its mask OR'd into the next layer: a
    # twin is in the same layer as its class's lowest member, or that member
    # is the source and its neighbors are already seen at layer 1.
    reps = 0
    for members in classes.values():
        reps |= members & -members
    full = (1 << g.n) - 1
    rows = []
    for mask, members in classes.items():
        # inline, not graphs.layers: only one vertex per twin class is expanded
        seen = frontier = members & -members
        counts = [1]
        while True:
            reach = 0
            frontier &= reps
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                break
            seen |= frontier
            counts.append(frontier.bit_count())
        if seen != full:
            raise ValueError("index undefined: graph is disconnected")
        rows.append((members, mask.bit_count(), len(counts) - 1, tuple(counts)))
    return rows


def all_indices(
    g: Graph, kinds: Iterable[IndexKind] = tuple(IndexKind)
) -> dict[IndexKind, int | Fraction]:
    """The requested indices of g, in the order asked, from one profile pass.

    W, WW and EDS are ints, H and CEI Fractions. A disconnected graph
    raises ValueError; so does K_1, but only when CEI is requested
    (its eccentricity is zero, so no degree/eccentricity ratio exists).
    """
    at_distance = [0] * g.n  # ordered pairs of vertices at each distance
    degree_at_ecc = [0] * g.n  # summed degree of the vertices of each eccentricity
    eds = 0
    for members, degree, ecc, counts in _profile(g):
        size = members.bit_count()
        trans = 0
        for d, c in enumerate(counts):
            trans += d * c
            at_distance[d] += size * c
        degree_at_ecc[ecc] += size * degree
        eds += size * ecc * trans
    values: dict[IndexKind, int | Fraction] = {}
    for kind in kinds:
        if kind is IndexKind.W:
            values[kind] = sum(d * c for d, c in enumerate(at_distance)) // 2
        elif kind is IndexKind.WW:
            # each unordered pair appears twice, and d + d^2 is even
            values[kind] = sum((d + d * d) * c for d, c in enumerate(at_distance)) // 4
        elif kind is IndexKind.H:
            values[kind] = sum(
                (Fraction(c, 2 * d) for d, c in enumerate(at_distance) if d and c),
                Fraction(0),
            )
        elif kind is IndexKind.CEI:
            if g.n == 1:
                raise ValueError("cei undefined: eccentricity zero (single vertex)")
            values[kind] = sum(
                (Fraction(deg, e) for e, deg in enumerate(degree_at_ecc) if deg),
                Fraction(0),
            )
        else:
            values[kind] = eds
    return values


def compute(kind: IndexKind, g: Graph) -> int | Fraction:
    return all_indices(g, (kind,))[kind]


def _distance_rows(g: Graph) -> list[tuple[int, ...]]:
    """A plain BFS distance row from every vertex, for the two forms below."""
    rows = [distances_from(g, u) for u in range(g.n)]
    if any(UNREACHABLE in row for row in rows):
        raise ValueError("index undefined: graph is disconnected")
    return rows


def eds_by_pairs(g: Graph) -> int:
    """EDS through its pair form: sum of (ecc(u) + ecc(v)) * d(u, v).

    Slower than all_indices; kept as an identity cross-check that shares
    no code with the profile.
    """
    rows = _distance_rows(g)
    ecc = [max(row) for row in rows]
    return sum(
        (ecc[u] + ecc[v]) * rows[u][v] for u in range(g.n) for v in range(u + 1, g.n)
    )


def cei_by_edges(g: Graph) -> Fraction:
    """CEI through its edge form: sum over edges of 1/ecc(u) + 1/ecc(v)."""
    ecc = [max(row) for row in _distance_rows(g)]
    total = Fraction(0)
    for u, v in g.edges():
        total += Fraction(1, ecc[u]) + Fraction(1, ecc[v])
    return total
