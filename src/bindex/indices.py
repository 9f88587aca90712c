"""Five exact distance-based indices of connected graphs.

wiener      W   = sum over unordered pairs of d(u, v)
hyper_wiener WW = (1/2) sum over pairs of (d + d^2), always an integer
harary      H   = sum over pairs of 1/d               (exact Fraction)
cei             = sum over vertices of deg(u)/ecc(u)  (exact Fraction)
eds             = sum over vertices of ecc(u) * D(u), D = transmission

All five read one cached per-vertex profile: eccentricity, transmission and
the number of vertices at each distance. The profile runs one BFS per
false-twin class (vertices with equal neighbor masks), so the extremal
graphs B_k(x, y), which have four such classes, cost four BFS runs at any
size. All computation aggregates integer counts first and divides exactly
at the end, so sweeps over thousands of graphs stay cheap and no floats
appear anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .graphs import Graph, distances_from


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


@lru_cache(maxsize=256)
def _profile(g: Graph) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Per-vertex (eccentricity, transmission, count-per-distance) rows.

    Vertices with equal neighbor masks are false twins: swapping two of
    them is an automorphism, so they share one row. Each class runs one
    frontier BFS from its first vertex, and each layer's count is the
    frontier's popcount.
    """
    adj = g.adj
    first: dict[int, int] = {}
    for u, mask in enumerate(adj):
        first.setdefault(mask, u)
    # Only one vertex per class needs its mask OR'd into the next layer: a
    # twin is in the same layer as its class's first vertex, or that first
    # vertex is the source and its neighbors are already seen at layer 1.
    reps = 0
    for u in first.values():
        reps |= 1 << u
    full = (1 << g.n) - 1
    by_mask = {}
    for mask, u in first.items():
        # inline, not graphs.layers: only one vertex per twin class is expanded
        seen = frontier = 1 << u
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
        trans = sum(d * c for d, c in enumerate(counts))
        by_mask[mask] = (len(counts) - 1, trans, tuple(counts))
    return tuple(by_mask[mask] for mask in adj)


def wiener(g: Graph) -> int:
    return sum(trans for _, trans, _ in _profile(g)) // 2


def hyper_wiener(g: Graph) -> int:
    s1 = 0
    s2 = 0
    for _, trans, counts in _profile(g):
        s1 += trans
        s2 += sum(d * d * c for d, c in enumerate(counts))
    # (s1 + s2) counts ordered pairs of d + d^2, each pair twice and even
    return (s1 + s2) // 4


def harary(g: Graph) -> Fraction:
    total: dict[int, int] = {}
    for _, _, counts in _profile(g):
        for d, c in enumerate(counts):
            if d and c:
                total[d] = total.get(d, 0) + c
    return sum((Fraction(c, 2 * d) for d, c in total.items()), Fraction(0))


def cei(g: Graph) -> Fraction:
    """Connective eccentricity: degree over eccentricity, summed.

    Undefined on K_1 (eccentricity zero).
    """
    by_ecc: dict[int, int] = {}
    for u, (ecc, _, _) in enumerate(_profile(g)):
        if ecc == 0:
            raise ValueError("cei undefined: eccentricity zero (single vertex)")
        by_ecc[ecc] = by_ecc.get(ecc, 0) + g.degree(u)
    return sum((Fraction(deg, e) for e, deg in by_ecc.items()), Fraction(0))


def eds(g: Graph) -> int:
    return sum(ecc * trans for ecc, trans, _ in _profile(g))


def compute(kind: IndexKind, g: Graph) -> int | Fraction:
    return _DISPATCH[kind](g)


def all_indices(g: Graph) -> dict[IndexKind, int | Fraction]:
    return {kind: fn(g) for kind, fn in _DISPATCH.items()}


_DISPATCH = {
    IndexKind.W: wiener,
    IndexKind.WW: hyper_wiener,
    IndexKind.H: harary,
    IndexKind.CEI: cei,
    IndexKind.EDS: eds,
}


def eds_by_pairs(g: Graph) -> int:
    """EDS through its pair form: sum of (ecc(u) + ecc(v)) * d(u, v).

    Slower than eds(); kept as an identity cross-check.
    """
    prof = _profile(g)
    total = 0
    for u in range(g.n):
        dist = distances_from(g, u)
        for v in range(u + 1, g.n):
            total += (prof[u][0] + prof[v][0]) * dist[v]
    return total


def cei_by_edges(g: Graph) -> Fraction:
    """CEI through its edge form: sum over edges of 1/ecc(u) + 1/ecc(v)."""
    prof = _profile(g)
    total = Fraction(0)
    for u, v in g.edges():
        total += Fraction(1, prof[u][0]) + Fraction(1, prof[v][0])
    return total
