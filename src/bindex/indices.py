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
cost four BFS runs and four rows at any size. Each BFS starts at layer 1,
the class's own neighbor mask, and finds each further layer top-down, from
the class representatives in the frontier. The first BFS also finds the
two sides of a bipartite graph; the later ones then test only the side the
next layer lies on, stop a step once that side is all reached, and count
the last layer without a step.

The rows are tallied into ordered pairs per distance and degree per
eccentricity, and the same loop takes the diameter, the largest
eccentricity; one loop over d = 1..diam turns the tallies into integer
sums. Every distance and every eccentricity lies in 1..diam, so
L = lcm(1..diam) is a common denominator of every term of H and CEI: each
is one integer numerator over L (2L for H), taking one exact division
instead of a Fraction normalization per term. No floats
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
    """The five indices; bound_direction is the one statement of each one's side."""

    W = "w"
    WW = "ww"
    H = "h"
    CEI = "cei"
    EDS = "eds"

    @property
    def bound_direction(self) -> str:
        """Over graphs with fixed n and cut edges: the side the optimum sits on.

        W, WW and EDS fall when an edge is added, so the extremal graph
        minimizes them (a lower bound); H and CEI rise, so it maximizes them.
        """
        return "lower" if self in (IndexKind.W, IndexKind.WW, IndexKind.EDS) else "upper"


_W, _WW, _H, _CEI, _EDS = IndexKind  # bound once: a module global beats an Enum lookup


def _profile(g: Graph) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """One (members, degree, eccentricity, count-per-distance) row per class.

    Vertices with equal neighbor masks are false twins: swapping two of
    them is an automorphism, so they share one row. members is the class's
    vertex mask and degree the popcount of its shared neighbor mask. Each
    class runs one BFS from its lowest member; layer 1 is the class's mask,
    so the search starts there, and each layer's count is its popcount.
    Each further layer is the set of candidates that some class
    representative in the frontier reaches: the step strikes each such
    representative's neighbors from the candidates, and what it strikes
    is the layer. An empty layer means some vertex is unreachable.

    The first class's BFS takes every unseen vertex as a candidate. It is
    the one connectivity check, and its even and odd layers are the two
    sides of a bipartition if no class's mask meets its own side. In a
    bipartite graph layer d lies on the side of parity d, so every later
    BFS takes only the unseen vertices there, ends a step once all of
    them are reached, and stops as soon as the frontier's side holds no
    unseen vertex: each vertex still unseen then has all its neighbors
    seen, so together they are the last layer. A graph with an odd cycle
    keeps every unseen vertex a candidate and has no such last step.
    """
    classes: dict[int, int] = {}
    for u, mask in enumerate(g):
        classes[mask] = classes.get(mask, 0) | 1 << u
    # Only one vertex per class needs its mask OR'd into the next layer: a
    # twin is in the same layer as its class's lowest member, or that member
    # is the source and its neighbors are already seen at layer 1.
    reps = 0
    cut = [0] * len(g)  # each representative's non-neighbors, for the top-down step
    for mask, members in classes.items():
        low = members & -members
        reps |= low
        cut[low.bit_length() - 1] = ~mask
    full = (1 << len(g)) - 1
    rows = []
    for mask, members in classes.items():
        source = members & -members
        # inline, not graphs.layers: one vertex per twin class
        frontier = mask
        unseen = full ^ source ^ mask
        counts = [1, mask.bit_count()] if mask else [1]
        # the side of the frontier, and the side of the next layer
        if not rows:
            here = there = full
            even, odd = source, mask  # the sides: this BFS's even and odd layers
        elif source & even:
            here, there = odd, even
        else:
            here, there = even, odd
        while unseen:
            if not unseen & here:
                counts.append(unseen.bit_count())
                break
            candidates = unseen & there
            left = candidates
            top = frontier & reps
            while top:
                low = top & -top
                left &= cut[low.bit_length() - 1]
                if not left:
                    break
                top ^= low
            frontier = candidates ^ left
            if not frontier:
                raise ValueError("index undefined: graph is disconnected")
            if not rows:
                if len(counts) & 1:
                    odd |= frontier
                else:
                    even |= frontier
            unseen ^= frontier
            counts.append(frontier.bit_count())
            here, there = there, here
        if not rows:
            for nbrs, group in classes.items():
                if nbrs & (even if group & even else odd):
                    even = odd = full  # an odd cycle: no sides to use
                    break
        rows.append((members, mask.bit_count(), len(counts) - 1, tuple(counts)))
    return rows


def all_indices(
    g: Graph, kinds: Iterable[IndexKind] = tuple(IndexKind)
) -> dict[IndexKind, int | Fraction]:
    """The requested indices of g, in the order asked, from one profile pass.

    W, WW and EDS are ints, H and CEI Fractions. kinds is read once, so it
    may be an iterator. A disconnected graph raises ValueError; so does
    K_1, but only when CEI is requested (its eccentricity is zero, so no
    degree/eccentricity ratio exists).
    """
    if len(g) == 1:
        kinds = tuple(kinds)
        if _CEI in kinds:
            raise ValueError("cei undefined: eccentricity zero (single vertex)")
    # no distance or eccentricity reaches n: the tallies need no diameter yet
    at_distance = [0] * len(g)  # ordered pairs of vertices at each distance
    degree_at_ecc = [0] * len(g)  # summed degree of the vertices of each eccentricity
    diam = eds = 0
    for members, degree, ecc, counts in _profile(g):
        size = members.bit_count()
        trans = 0
        for d, c in enumerate(counts):
            trans += d * c
            at_distance[d] += size * c
        degree_at_ecc[ecc] += size * degree
        eds += size * ecc * trans
        if ecc > diam:
            diam = ecc
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
        _W: sum_d // 2,
        # each unordered pair appears twice, and d + d^2 is even
        _WW: (sum_d + sum_d2) // 4,
        _H: Fraction(h_num, 2 * lcm),
        _CEI: Fraction(cei_num, lcm),
        _EDS: eds,
    }
    return {kind: computed[kind] for kind in kinds}


def compute(kind: IndexKind, g: Graph) -> int | Fraction:
    return all_indices(g, (kind,))[kind]
