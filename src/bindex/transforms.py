"""Index-monotone graph surgeries and the edge-addition probe.

Three operations, each preserving vertex count and changing all five
indices in a known direction:

* contract_bridge: slide one side of a cut edge together and hang a new
  pendant, keeping edge count too;
* shift_pendants_within_part: move all pendants of one decorated core
  vertex to a decorated mate in the same part;
* shift_pendants_across_parts: move the pendants sitting on the large-part
  vertex of a doubly decorated core over to the small-part vertex.

Each contract is one expectation map from every index to either its exact
delta (a Fraction, where a closed form is known) or the sign the delta
must have ("<0", ">0" or ">=0"); holds() is the one check of a delta
against its entry. EDGE_ADDITION_SIGNS is the edge addition law (W, WW,
EDS fall, H and CEI rise), which contract_bridge also obeys and
monotonicity_probe checks on sampled absent edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .constructors import DecoratedCore
from .graphs import Graph, add_edge, bridges, graph6_encode, is_connected, layers, new_graph
from .indices import IndexKind, all_indices

EDGE_ADDITION_SIGNS: dict[IndexKind, Fraction | str] = {
    IndexKind.W: "<0",
    IndexKind.WW: "<0",
    IndexKind.H: ">0",
    IndexKind.CEI: ">0",
    IndexKind.EDS: "<0",
}


def holds(delta, want: Fraction | str) -> bool:
    """Whether delta meets want: an exact value, or a sign "<0", ">0" or ">=0"."""
    if isinstance(want, str):
        return {"<0": delta < 0, ">0": delta > 0, ">=0": delta >= 0}[want]
    return delta == want


def index_deltas(before: Graph, after: Graph) -> dict[IndexKind, int | Fraction]:
    """after minus before, per index."""
    a = all_indices(before)
    b = all_indices(after)
    return {kind: b[kind] - a[kind] for kind in IndexKind}


@dataclass(frozen=True, eq=False)
class CutEdgeContext:
    """A cut edge (u, w) of a connected graph, with its two shores."""

    graph: Graph
    u: int
    w: int
    side_u: frozenset[int]
    side_w: frozenset[int]


def cut_edge_context(g: Graph, u: int, w: int) -> CutEdgeContext:
    """Validate that (u, w) is a cut edge with at least 2 vertices per side."""
    if not is_connected(g):
        raise ValueError("cut edge context needs a connected graph")
    if (min(u, w), max(u, w)) not in bridges(g):
        raise ValueError(f"({u}, {w}) is not a cut edge")
    # every path from u that avoids w avoids the cut edge: that is u's side
    side = sum(layers(g.adj, u, within=~(1 << w)))
    side_u = frozenset(v for v in range(g.n) if side >> v & 1)
    side_w = frozenset(range(g.n)) - side_u
    if len(side_u) < 2 or len(side_w) < 2:
        raise ValueError("both sides of the cut edge must have at least 2 vertices")
    return CutEdgeContext(g, u, w, side_u, side_w)


def contract_bridge(ctx: CutEdgeContext) -> Graph:
    """Identify the ends of the cut edge and hang a new pendant on the merge.

    Vertex count and edge count are both preserved. W, WW and EDS strictly
    fall; H and CEI strictly rise. Labels: w disappears, the survivors keep
    their relative order, the new pendant becomes n-1.
    """
    g, u, w = ctx.graph, ctx.u, ctx.w
    relab = {}
    nxt = 0
    for v in range(g.n):
        if v == w:
            continue
        relab[v] = nxt
        nxt += 1
    edges = []
    for a, b in g.edges():
        if w in (a, b):
            continue
        edges.append((relab[a], relab[b]))
    for z in range(g.n):
        # reattach w's neighbors to u; a shared neighbor would mean a cycle
        # through the cut edge, so no duplicate can arise
        if z != u and g.has_edge(w, z):
            edges.append((relab[u], relab[z]))
    edges.append((relab[u], g.n - 1))
    return new_graph(g.n, edges)


@dataclass(frozen=True, eq=False)
class ShiftPrediction:
    """Contract of one pendant shift: per index, its exact delta or its sign."""

    core: DecoratedCore
    shifted: DecoratedCore
    expected: dict[IndexKind, Fraction | str]

    def check(self, deltas: dict[IndexKind, int | Fraction]) -> bool:
        return all(holds(deltas[kind], want) for kind, want in self.expected.items())


def _part_of(core: DecoratedCore, vertex: int) -> int:
    if not 0 <= vertex < core.s + core.t:
        raise ValueError(f"core vertex {vertex} out of range")
    return 0 if vertex < core.s else 1


def shift_pendants_within_part(
    core: DecoratedCore, donor: int, receiver: int
) -> ShiftPrediction:
    """Move all of donor's pendants onto receiver (same core part).

    With a = pendants(donor) and b = pendants(receiver), both >= 1, the
    exact deltas are W: -2ab, WW: -7ab, H: +ab/4. CEI stays exactly flat
    when a third vertex of that part is decorated and rises strictly
    otherwise (the receiver's eccentricity drops, so no simple product
    formula applies); EDS falls strictly, by exactly -16ab in the
    decorated-third case. Needs both core parts of size >= 2.
    """
    if core.s < 2 or core.t < 2:
        raise ValueError("within-part shift needs both core parts of size >= 2")
    if donor == receiver:
        raise ValueError("donor and receiver must differ")
    if _part_of(core, donor) != _part_of(core, receiver):
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
    shifted = DecoratedCore(core.s, core.t, tuple(pendants))
    expected = {
        IndexKind.W: Fraction(-2 * a * b),
        IndexKind.WW: Fraction(-7 * a * b),
        IndexKind.H: Fraction(a * b, 4),
        IndexKind.CEI: Fraction(0) if third_decorated else ">0",
        IndexKind.EDS: Fraction(-16 * a * b) if third_decorated else "<0",
    }
    return ShiftPrediction(core, shifted, expected)


def shift_pendants_across_parts(core: DecoratedCore) -> ShiftPrediction:
    """Move the large-part pendants onto the decorated small-part vertex.

    The core must be K_{s,t} with 2 <= s <= t and pendants on exactly two
    vertices: a >= 1 on small-part vertex 0 and b >= 1 on large-part vertex
    s. Exact deltas: W by -ab + b(s-t), CEI by +s(t-1)/6; WW and EDS fall
    strictly, H rises strictly.
    """
    s, t = core.s, core.t
    if not 2 <= s <= t:
        raise ValueError("across-part shift needs part sizes 2 <= s <= t")
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
    shifted = DecoratedCore(s, t, tuple(pendants))
    expected = {
        **EDGE_ADDITION_SIGNS,
        IndexKind.W: Fraction(-a * b + b * (s - t)),
        IndexKind.CEI: Fraction(s * (t - 1), 6),
    }
    return ShiftPrediction(core, shifted, expected)


@dataclass(frozen=True, eq=False)
class EdgeProbe:
    u: int
    v: int
    deltas: dict[IndexKind, int | Fraction]
    consistent: bool


@dataclass(frozen=True, eq=False)
class ProbeReport:
    graph6: str
    probes: tuple[EdgeProbe, ...]
    consistent: bool


def monotonicity_probe(g: Graph, samples: int | None = None, seed: int = 0) -> ProbeReport:
    """Add absent edges and check every index moves the right way.

    samples=None probes every absent pair; otherwise a seeded sample of
    that size, at least 1. The graph must be connected and not complete.
    """
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not is_connected(g):
        raise ValueError("monotonicity probe needs a connected graph")
    absent = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    if not absent:
        raise ValueError("graph is complete: no edge can be added")
    if samples is not None and samples < len(absent):
        absent = sorted(random.Random(seed).sample(absent, samples))
    base = all_indices(g)
    probes = []
    for u, v in absent:
        after = all_indices(add_edge(g, u, v))
        deltas = {kind: after[kind] - base[kind] for kind in IndexKind}
        ok = all(holds(deltas[k], want) for k, want in EDGE_ADDITION_SIGNS.items())
        probes.append(EdgeProbe(u, v, deltas, ok))
    return ProbeReport(graph6_encode(g), tuple(probes), all(p.consistent for p in probes))
