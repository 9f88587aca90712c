"""Index-monotone graph surgeries and the edge-addition probe.

Three operations, each preserving vertex count and changing all five
indices in a known direction:

* contract_bridge: slide one side of a cut edge together and hang a new
  pendant, keeping edge count too;
* shift_pendants_within_part: move all pendants of one decorated core
  vertex to a decorated mate in the same part;
* shift_pendants_across_parts: move the pendants sitting on the large-part
  vertex of a doubly decorated core over to the small-part vertex.

Each operation is one call that validates its own arguments first.
contract_bridge(g, u, w) deletes (u, w) from a copy of the adjacency and
walks u's side, the vertices u still reaches: (u, w) is a cut edge iff
that side misses w, and both shores hold 2+ vertices iff u's counts 2 to
n-2. It then writes the merged neighbor masks directly.

Each contract is one expectation map from every index to either its exact
delta (a Fraction, where a closed form is known) or the sign the delta
must have ("<0" or ">0"); holds() is the one check of a delta
against its entry. EDGE_ADDITION_SIGNS is the edge addition law (W, WW,
EDS fall, H and CEI rise), read off IndexKind.bound_direction;
contract_bridge also obeys it and monotonicity_probe checks it on sampled
absent edges, returning one EdgeProbe per edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .constructors import DecoratedCore, Infeasible
from .graphs import Graph, _check_vertex, add_edge, is_connected, layers
from .indices import IndexKind, all_indices

EDGE_ADDITION_SIGNS: dict[IndexKind, Fraction | str] = {
    kind: "<0" if kind.bound_direction == "lower" else ">0" for kind in IndexKind
}


def holds(delta, want: Fraction | str) -> bool:
    """Whether delta meets want: an exact value, or a sign "<0" or ">0"."""
    if isinstance(want, str):
        return {"<0": delta < 0, ">0": delta > 0}[want]
    return delta == want


def contract_bridge(g: Graph, u: int, w: int) -> Graph:
    """Identify the ends of the cut edge (u, w) and hang a new pendant on the merge.

    First checks that u and w are vertices of the connected graph g and that
    (u, w) is a cut edge with at least 2 vertices per side: with the edge
    deleted, u no longer reaches w. So u == w and a non-adjacent pair are no
    cut edge. Vertex count and edge count are both preserved. W, WW and EDS
    strictly fall; H and CEI strictly rise. Labels: w disappears, the
    survivors keep their relative order, the new pendant becomes n-1.
    """
    _check_vertex(len(g), u)
    _check_vertex(len(g), w)
    if not is_connected(g):
        raise ValueError("contract_bridge needs a connected graph")
    adj = list(g)
    adj[u] &= ~(1 << w)
    adj[w] &= ~(1 << u)
    side = sum(layers(adj, u))  # u's side: it holds w iff (u, w) is no cut edge
    if side >> w & 1:
        raise ValueError(f"({u}, {w}) is not a cut edge")
    if not 2 <= side.bit_count() <= len(g) - 2:  # w's shore is the other vertices
        raise ValueError("both sides of the cut edge must have at least 2 vertices")
    moved = g[w] & ~(1 << u)  # w's other neighbors, reattached to u
    low = (1 << w) - 1
    adj = []
    for v, mask in enumerate(g):
        if v != w:
            mask |= moved if v == u else (moved >> v & 1) << u
            adj.append(mask & low | mask >> (w + 1) << w)  # drop bit w, shift higher labels down
    root = u - (u > w)
    adj[root] |= 1 << (len(g) - 1)
    adj.append(1 << root)
    return tuple(adj)


def shift_pendants_within_part(
    core: DecoratedCore, donor: int, receiver: int
) -> tuple[DecoratedCore, dict[IndexKind, Fraction | str]]:
    """Move all of donor's pendants onto receiver (same core part): (shifted, expected).

    With a = pendants(donor) and b = pendants(receiver), both >= 1, the
    exact deltas are W: -2ab, WW: -7ab, H: +ab/4. CEI stays exactly flat
    when a third vertex of that part is decorated and rises strictly
    otherwise (the receiver's eccentricity drops, so no simple product
    formula applies); EDS falls strictly, by exactly -16ab in the
    decorated-third case. Needs both core parts of size >= 2.
    """
    if core.s < 2 or core.t < 2:
        raise Infeasible("within-part shift needs both core parts of size >= 2")
    if donor == receiver:
        raise ValueError("donor and receiver must differ")
    for vertex in (donor, receiver):
        if not 0 <= vertex < core.s + core.t:
            raise Infeasible(f"core vertex {vertex} out of range")
    if (donor < core.s) != (receiver < core.s):
        raise ValueError("donor and receiver must sit in the same core part")
    a = core.pendants[donor]
    b = core.pendants[receiver]
    if a < 1 or b < 1:
        raise ValueError("donor and receiver must each hold at least one pendant")
    part = range(core.s) if donor < core.s else range(core.s, core.s + core.t)
    third_decorated = any(
        core.pendants[v] > 0 for v in part if v not in (donor, receiver)
    )
    pendants = list(core.pendants)
    pendants[receiver] += pendants[donor]
    pendants[donor] = 0
    shifted = DecoratedCore(core.s, tuple(pendants))
    expected = {
        IndexKind.W: Fraction(-2 * a * b),
        IndexKind.WW: Fraction(-7 * a * b),
        IndexKind.H: Fraction(a * b, 4),
        IndexKind.CEI: Fraction(0) if third_decorated else ">0",
        IndexKind.EDS: Fraction(-16 * a * b) if third_decorated else "<0",
    }
    return shifted, expected


def shift_pendants_across_parts(
    core: DecoratedCore,
) -> tuple[DecoratedCore, dict[IndexKind, Fraction | str]]:
    """Move the large-part pendants onto the decorated small-part vertex: (shifted, expected).

    The core must be K_{s,t} with 2 <= s <= t and pendants on exactly two
    vertices: a >= 1 on small-part vertex 0 and b >= 1 on large-part vertex
    s. Exact deltas: W by -ab + b(s-t), CEI by +s(t-1)/6; WW and EDS fall
    strictly, H rises strictly.
    """
    s, t = core.s, core.t
    if not 2 <= s <= t:
        raise Infeasible("across-part shift needs part sizes 2 <= s <= t")
    a = core.pendants[0]
    b = core.pendants[s]
    if a < 1 or b < 1:
        raise ValueError("need pendants on small-part vertex 0 and large-part vertex s")
    for v, count in enumerate(core.pendants):
        if v not in (0, s) and count:
            raise ValueError(
                "across-part shift allows pendants only on vertices 0 and s"
            )
    pendants = list(core.pendants)
    pendants[0] += b
    pendants[s] = 0
    shifted = DecoratedCore(s, tuple(pendants))
    expected = {
        **EDGE_ADDITION_SIGNS,
        IndexKind.W: Fraction(-a * b + b * (s - t)),
        IndexKind.CEI: Fraction(s * (t - 1), 6),
    }
    return shifted, expected


@dataclass(frozen=True, eq=False)
class EdgeProbe:
    """Index deltas of adding edge (u, v); consistent iff each meets EDGE_ADDITION_SIGNS."""

    u: int
    v: int
    deltas: dict[IndexKind, int | Fraction]

    @property
    def consistent(self) -> bool:
        return all(holds(self.deltas[k], want) for k, want in EDGE_ADDITION_SIGNS.items())


def monotonicity_probe(g: Graph, samples: int | None = None, seed: int = 0) -> tuple[EdgeProbe, ...]:
    """Add absent edges and check every index moves the right way.

    Returns one EdgeProbe per added edge, in (u, v) order; the contract
    holds iff every probe is consistent. samples=None probes every absent
    pair; otherwise a seeded sample of that size, at least 1. The graph
    must be connected and not complete.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not is_connected(g):
        raise ValueError("monotonicity probe needs a connected graph")
    absent = [
        (u, v)
        for u in range(len(g))
        for v in range(u + 1, len(g))
        if not g[u] >> v & 1
    ]
    if not absent:
        raise ValueError("graph is complete: no edge can be added")
    if samples is not None and samples < len(absent):
        absent = sorted(random.Random(seed).sample(absent, samples))
    base = all_indices(g)
    probes = []
    for u, v in absent:
        after = all_indices(add_edge(g, u, v))
        probes.append(EdgeProbe(u, v, {kind: after[kind] - base[kind] for kind in IndexKind}))
    return tuple(probes)
