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
cost four BFS runs and four rows at any size. Each BFS stops as soon as
every vertex is seen and finds each layer top-down from the frontier or
bottom-up from the unseen vertices, whichever tests fewer vertices; on the
dense, twin-poor graphs of a random stream that cuts the vertex steps by 44%
(1,621,008 -> 914,002 over 1730 graphs of 9 to 60 vertices).

The rows are tallied into ordered pairs per distance and degree per
eccentricity, both only up to the diameter, and one loop over d = 1..diam
turns the tallies into integer sums. Every distance and every eccentricity
lies in 1..diam, so L = lcm(1..diam) is a common denominator of every term
of H and CEI: each is one integer numerator over L (2L for H), taking one
exact division instead of a Fraction normalization per term. No floats
appear anywhere.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graphs import Graph
from .graphs import distances_from  # noqa: F401  benchmarks/spans.py wraps bindex.indices.distances_from


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


def _profile(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """One (members, degree, eccentricity, count-per-distance) row per class.

    Vertices with equal neighbor masks are false twins: swapping two of
    them is an automorphism, so they share one row. members is the class's
    vertex mask and degree the popcount of its shared neighbor mask. Each
    class runs one BFS from its lowest member and stops once every vertex
    is seen, so no last layer is expanded to find nothing; each layer's
    count is its popcount. Each layer comes from the cheaper of two steps
    (direction-optimizing BFS; Beamer, Asanovic & Patterson, SC 2012):
    top-down ORs the neighbor masks of the frontier's class representatives,
    bottom-up keeps each unseen vertex whose mask meets the frontier. An
    empty layer means some vertex is unreachable.
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
        # inline, not graphs.layers: one vertex per twin class, either direction
        frontier = members & -members
        unseen = full ^ frontier
        counts = [1]
        while unseen:
            top = frontier & reps
            reach = 0
            if top.bit_count() <= unseen.bit_count():
                while top:
                    low = top & -top
                    reach |= adj[low.bit_length() - 1]
                    top ^= low
                frontier = reach & unseen
            else:
                bottom = unseen
                while bottom:
                    low = bottom & -bottom
                    if adj[low.bit_length() - 1] & frontier:
                        reach |= low
                    bottom ^= low
                frontier = reach
            if not frontier:
                raise ValueError("index undefined: graph is disconnected")
            unseen ^= frontier
            counts.append(frontier.bit_count())
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
    rows = _profile(g)
    diam = max((ecc for _, _, ecc, _ in rows), default=0)
    at_distance = [0] * (diam + 1)  # ordered pairs of vertices at each distance
    degree_at_ecc = [0] * (diam + 1)  # summed degree of the vertices of each eccentricity
    eds = 0
    for members, degree, ecc, counts in rows:
        size = members.bit_count()
        trans = 0
        for d, c in enumerate(counts):
            trans += d * c
            at_distance[d] += size * c
        degree_at_ecc[ecc] += size * degree
        eds += size * ecc * trans
    # every distance and eccentricity divides lcm(1..diam): H and CEI are
    # one integer numerator each over it, normalized once
    lcm = math.lcm(*range(1, diam + 1))
    sum_d = sum_d2 = h_num = cei_num = 0
    for d in range(1, diam + 1):
        c = at_distance[d]
        sum_d += d * c
        sum_d2 += d * d * c
        share = lcm // d
        h_num += share * c
        cei_num += share * degree_at_ecc[d]
    computed = {
        IndexKind.W: sum_d // 2,
        # each unordered pair appears twice, and d + d^2 is even
        IndexKind.WW: (sum_d + sum_d2) // 4,
        IndexKind.H: Fraction(h_num, 2 * lcm),
        IndexKind.CEI: Fraction(cei_num, lcm),
        IndexKind.EDS: eds,
    }
    values: dict[IndexKind, int | Fraction] = {}
    for kind in kinds:
        if kind is IndexKind.CEI and g.n == 1:
            raise ValueError("cei undefined: eccentricity zero (single vertex)")
        values[kind] = computed[kind]
    return values


def compute(kind: IndexKind, g: Graph) -> int | Fraction:
    return all_indices(g, (kind,))[kind]
