"""Plain reference paths that the library's fast paths are checked against.

A graph is the tuple of its vertices' neighbour masks. degree, neighbors,
edges and has_edge read it as a degree, a neighbour tuple, the edge list of
(u, v) pairs with u < v and one pair's adjacency. The library works on the
masks directly, so only the tests call them.

complete_bipartite_blocks tests the shape of the extremal graphs with no
search: once the cut edges go, every block is K_1 or complete bipartite iff
the ends of each 2-path see the same. It takes its cut edges from this
module's bridges. The networkx tests check it against networkx's own blocks.

canonical_columns is the vertex-by-vertex branch and bound that bindex's
certificate used before its search by ordered cells. Both minimize the same
column-major adjacency string, so their graph6 bytes must agree on every
graph; the reference is slower because it branches over every order of an
independent set that the cell search places as one cell.

classes_with_parts is the orderly search that bindex's enumeration ran
before it packed every permutation's sums into one integer: each prefix
carries a list of per-permutation sums and compares their maximum with the
identity's. Both searches visit the same prefixes in the same order, so
they must yield the same graphs in the same order.

labeled_connected_bipartite_masks and labeled_class_certificates are the
labeled path that bindex ran before its vertex-by-vertex scan and its orbit
walk by adjacent transpositions: a search that decides the vertex pairs
edge by edge, then a collapse that applies all n! vertex permutations to
each survivor bit by bit. The scans must return the same list, and the
collapses the same certificate set.

graph6_decode is the decoder bindex ran before its regex scan and its
table-driven body: it checks each byte in a Python loop, formats each body
byte into six bits, and sets both ends of every edge bit by bit. Its front
end is the library's (text is encoded as UTF-8, surrogate escapes back to
their bytes), so both must return the same graph, or raise ValueError with
the same text, on any input.

bridges is the iterative low-link depth-first search that bindex ran before
it read cut edges off BFS trees: explicit stack frames over neighbor tuples,
with discovery times and low links, and (parent, v) a cut edge iff no back
edge from v's subtree reaches parent or above. Both must return the same
frozenset of (min, max) pairs on every graph, connected or not.

bipartition two-colors a graph by BFS level parity, component by component,
and returns None on an odd cycle. It builds the random bipartite graphs the
tests draw, and the networkx tests check it against networkx's own.

relabel applies a vertex permutation through the edge list. The tests use
it to scramble graphs whose certificates and indices must not change.

eds_by_pairs and cei_by_edges are the pair form of EDS and the edge form of
CEI, computed from a plain BFS distance row of every vertex (_distance_rows).
They share no code with the twin-class profile of all_indices, so both
identities must hold on every connected graph.

per_source_profile and indices_from_rows are the plain index path: a full
BFS distance row from every vertex, tallied into (degree, eccentricity,
transmission, count per distance), then the five indices summed vertex by
vertex, H and CEI one Fraction per term. They share no code with the
twin-class profile of all_indices or with its tallies over one common
denominator, so both must give the same values and types on every
connected graph.

index_deltas takes after minus before of every index with all_indices, and
contract_holds checks such a delta map against a surgery's expectation map
with transforms.holds: the exact value, or the sign, of every entry.

decorated_core_graph builds a decorated core from its edge list under the
fixed labeling (part X, then part Y, then each owner's pendants in owner
order), which realize writes as masks directly; both must give equal graphs.

contract_bridge is the cut-edge contraction bindex ran before it wrote the
merged neighbor masks directly: it relabels through a dict, rebuilds the
edge list without w, reattaches w's other neighbors to u, hangs the new
pendant n-1 on u and passes it all through new_graph. Both must return the
same graph on every (g, u, w) that bindex's contract_bridge accepts; the
reference checks nothing, so it is called only on accepted cut edges.

parity_bounds is the oracle's bound on each index, summed vertex by
vertex from the parity of every distance, with the parts from bipartition:
the oracle sums each part in closed form from its count of full vertices.
Both must give the same five values on every connected bipartite graph.

best_multi is the ranking the oracle ran before its branch and bound: it
computes every index of every candidate and keeps, per kind, the optimum
and every graph attaining it. The pruned ranking must give the same value
and the same extremal graphs on every group of candidates.

reconcile_findings derives the three findings reconcile once stored beside
its notes: whether the table's value equals the optimum, whether its family
is realizable and equals the optimal family, and whether its printed
relation contradicts the index's bound side. Each failed finding must have
exactly one note.

case_table_family is how bindex's case table decided a row's family before
it asked admissible_x: each printed x must have denominator 1 and survive
BkSpec, whose Infeasible marks the row invalid, and an x-free row with
k = n-1 gets S_n. case_table must give the same family and validity on
every bound row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import add
from typing import Iterator

from bindex.constructors import BkSpec, DecoratedCore, Infeasible
from bindex.graphs import (
    UNREACHABLE,
    Graph,
    _bits,
    _g6_head,
    _graph6,
    certificate,
    distances_from,
    is_connected,
    layers,
    new_graph,
)
from bindex.indices import IndexKind, all_indices
from bindex.transforms import holds


def degree(g: Graph, u: int) -> int:
    return g[u].bit_count()


def neighbors(g: Graph, u: int) -> tuple[int, ...]:
    return tuple(_bits(g[u]))


def edges(g: Graph) -> tuple[tuple[int, int], ...]:
    out = []
    for u in range(len(g)):
        mask = g[u] >> (u + 1) << (u + 1)  # neighbors above u
        out.extend((u, v) for v in _bits(mask))
    return tuple(out)


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g[u] >> v & 1)


def complete_bipartite_blocks(g: Graph) -> bool:
    """True iff every component left after deleting the cut edges is a
    single vertex or a complete bipartite graph.

    The test: the ends of every 2-path have equal neighbor masks. Then, by
    induction along shortest paths, each vertex shares its mask with every
    vertex at even distance and sees every one at odd distance: a K_1 or
    complete bipartite component. Each 2-path of K_{a,b} joins one part."""
    adj = list(g)
    for u, v in bridges(g):
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return all(adj[w] == adj[v] for v in range(len(g)) for u in _bits(adj[v]) for w in _bits(adj[u]))


def canonical_columns(g: Graph) -> list[int]:
    """Branch and bound for the minimal column-major adjacency bit string.

    Returns its columns: column j is the j-th placed vertex's adjacency to
    the j placed before it, the first in the top bit, which is graph6's bit
    order. At depth j every candidate contributes a j-bit column; only
    minimum-column candidates can extend a minimal string, because the
    string is compared column block by column block. Candidates that are
    twins (same neighborhood apart from each other) lead to automorphic
    placements, so one representative per twin class suffices.
    """
    n = len(g)
    best_cols: list[int] | None = None

    def extend(order: list[int], used: int, cols: list[int]) -> None:
        nonlocal best_cols
        j = len(order)
        if best_cols is not None and cols > best_cols[: len(cols)]:
            return
        if j == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
            return
        groups: dict[int, list[int]] = {}
        for v in range(n):
            if used >> v & 1:
                continue
            a = g[v]
            c = 0
            for p in order:
                c = c << 1 | (a >> p & 1)
            groups.setdefault(c, []).append(v)
        cmin = min(groups)
        reps: list[int] = []
        for v in groups[cmin]:
            for r in reps:
                if g[v] & ~(1 << r) == g[r] & ~(1 << v):
                    break  # twin of an explored representative
            else:
                reps.append(v)
        for v in reps:
            order.append(v)
            cols.append(cmin)
            extend(order, used | 1 << v, cols)
            order.pop()
            cols.pop()

    extend([], 0, [])
    assert best_cols is not None
    return best_cols


def reference_certificate(g: Graph) -> str:
    """graph6 text of the reference columns, packed as certificate() packs its own."""
    cols = canonical_columns(g)
    bits = "".join(format(c, f"0{j}b") for j, c in enumerate(cols[1:], 1))
    return _graph6(_g6_head(len(g)), bits)


def classes_with_parts(s: int, t: int) -> Iterator[Graph]:
    """Canonical representatives of connected bipartite graphs with parts (s, t).

    A graph is its sorted columns c_1 <= ... <= c_t, the Y-side
    neighborhoods as nonempty s-bit masks. It represents its class iff no
    row permutation p gives sorted(p(cols)) < cols and, when s = t, none
    gives a smaller tuple from the rows (the transposed graph) either.

    The search is depth-first over nondecreasing columns and extends a
    prefix P only if no p gives sorted(p(P)) < P (Read's orderly
    generation). That is safe: appended columns, all >= c_j, can only lower
    the order statistics of p's image, so if p sorts P lower it sorts every
    extension lower too. The transpose test and connectivity run at leaves.

    Nothing is sorted. For multisets of one size, sorted(A) < sorted(B) iff
    A has more copies of the smallest value whose counts differ. So a
    multiset packs into an integer with one count digit per value, smaller
    values more significant, the smaller tuple giving the larger integer;
    p's image is then a sum of per-mask weights. Each prefix carries that
    sum for every p, and is kept iff none exceeds the identity's.
    """
    top = 1 << s
    digit = t.bit_length()  # 2**digit > t: a count never carries
    weights = []
    for p in permutations(range(s)):  # the identity first
        image = [0] * top  # image[c]: p applied to the rows of mask c
        for c in range(1, top):
            low = c & -c
            image[c] = image[c ^ low] | 1 << p[low.bit_length() - 1]
        weights.append([1 << (top - 1 - m) * digit for m in image])
    weight = list(zip(*weights))  # weight[c][i]: mask c under the i-th permutation

    def grow(prefix, sums, lo):
        for c in range(lo, top):
            packed = list(map(add, sums, weight[c]))
            if max(packed) > packed[0]:  # some permutation sorts lower
                continue
            cols = prefix + (c,)
            if len(cols) < t:
                yield from grow(cols, packed, c)
                continue
            rows = [sum(1 << j for j, col in enumerate(cols) if col >> i & 1) for i in range(s)]
            if s == t:
                flipped = weight[rows[0]]
                for row in rows[1:]:
                    flipped = map(add, flipped, weight[row])
                if max(flipped) > packed[0]:
                    continue
            g = tuple(row << s for row in rows) + cols
            if is_connected(g):
                yield g

    yield from grow((), [0] * len(weight[0]), 1)


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def labeled_connected_bipartite_masks(n: int) -> list[int]:
    """The connected bipartite edge masks on n labeled vertices, ascending.

    Bit i of a mask is the i-th vertex pair in lexicographic order. A
    depth-first search decides the pairs from the highest bit down, leaving
    each pair out before putting it in, so masks come out in ascending
    order. Each branch carries its components as pairs of color masks. An
    edge inside one color class closes an odd cycle, and adding edges never
    removes one, so that branch ends; an edge across two components merges
    them with their colors aligned. Each edge joins at most two components,
    so a branch with c components and fewer than c - 1 pairs left is
    dropped, and every leaf reached is connected.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"labeled scan supports 2 <= n <= 7, got n={n}")
    pairs = _pairs(n)
    out = []

    def side(comps, w):
        # w's component, as (w's color class, the other class)
        for a, b in comps:
            if a >> w & 1:
                return a, b
            if b >> w & 1:
                return b, a

    def grow(i, mask, comps):
        # pairs 0..i-1 are undecided
        if len(comps) - 1 > i:
            return
        if i == 0:
            out.append(mask)  # one component: the check above let no other through
            return
        i -= 1
        grow(i, mask, comps)
        u, v = pairs[i]
        (cu, ou), (cv, ov) = side(comps, u), side(comps, v)
        if cu == cv:  # u and v share a color: an odd cycle
            return
        if cu == ov:  # already one component
            grow(i, mask | 1 << i, comps)
            return
        both = 1 << u | 1 << v
        rest = tuple(c for c in comps if not (c[0] | c[1]) & both)
        grow(i, mask | 1 << i, rest + ((cu | ov, ou | cv),))

    grow(len(pairs), 0, tuple((1 << v, 0) for v in range(n)))
    return out


def labeled_class_certificates(n: int) -> frozenset[str]:
    """Certificates of all connected bipartite classes, the labeled way.

    Scans the edge masks, then collapses isomorphism orbits by discarding
    each survivor's images under all n! vertex permutations; one
    certificate per orbit. Independent of the structured enumeration.
    """
    if n == 1:
        return frozenset({certificate(new_graph(1))})
    pairs = _pairs(n)
    nbits = len(pairs)
    survivors = set(labeled_connected_bipartite_masks(n))
    index_of = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for p in permutations(range(n)):
        perm_maps.append(
            tuple(
                index_of[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
                for u, v in pairs
            )
        )
    certs = set()
    while survivors:
        mask = survivors.pop()
        edges = [pairs[i] for i in range(nbits) if mask >> i & 1]
        certs.add(certificate(new_graph(n, edges)))
        for pm in perm_maps:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << pm[low.bit_length() - 1]
                m ^= low
            survivors.discard(image)
    return frozenset(certs)


def graph6_decode(text: str | bytes) -> Graph:
    """Decode one graph6 line; errors report the offending byte offset.

    Text is encoded as UTF-8, surrogate escapes back to their bytes; bytes
    are read one character per byte, so an error names the raw byte. Only
    ASCII whitespace is stripped, and offsets count after it.
    """
    raw = text.encode("utf-8", "surrogateescape") if isinstance(text, str) else text
    s = raw.decode("latin-1").strip(" \t\n\r\v\f")  # what bytes.strip() removes
    if not s:
        raise ValueError("empty graph6 string")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 byte {ord(ch):#04x} at offset {off}")
    if s.startswith("~~"):
        raise ValueError("invalid graph6 byte 0x7e at offset 1: 8-byte sizes unsupported")
    start = 4 if s[0] == "~" else 1  # offset of the first body byte
    if len(s) < start:
        raise ValueError(f"truncated graph6 size block at offset {len(s)}")
    n = 0
    for ch in s[1:4] if start == 4 else s[0]:
        n = n << 6 | (ord(ch) - 63)
    if n < 1:
        raise ValueError("invalid graph6 byte 0x3f at offset 0: empty graph")
    body = s[start:]
    size = n * (n - 1) // 2
    need = (size + 5) // 6
    if len(body) != need:
        off = start + min(len(body), need)
        raise ValueError(
            f"graph6 body length {len(body)} != {need} for n={n} (offset {off})"
        )
    bits = "".join(format(ord(ch) - 63, "06b") for ch in body)
    if "1" in bits[size:]:
        raise ValueError(f"nonzero graph6 padding at offset {start + need - 1}")
    adj = [0] * n
    i = 0
    for v in range(1, n):
        col = int(bits[i : i + v][::-1], 2)  # bit u: edge (u, v)
        i += v
        adj[v] |= col
        for u in _bits(col):
            adj[u] |= 1 << v
    return tuple(adj)


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Cut edges as normalized (min, max) pairs, via iterative low-link DFS."""
    n = len(g)
    disc = [0] * n  # 0 = unvisited, else discovery time + 1
    low = [0] * n
    timer = 1
    out = []
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # frame: [vertex, parent, neighbor tuple, next index]
        stack = [[root, -1, neighbors(g, root), 0]]
        while stack:
            frame = stack[-1]
            v, parent, nbrs, i = frame
            if i < len(nbrs):
                frame[3] += 1
                w = nbrs[i]
                if w == parent:
                    continue  # simple graph: the one tree edge back up
                if disc[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, v, neighbors(g, w), 0])
            else:
                stack.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.append((min(parent, v), max(parent, v)))
    return frozenset(out)


@dataclass(frozen=True)
class Bipartition:
    """The two color classes of a bipartite graph."""

    part_x: frozenset[int]
    part_y: frozenset[int]


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color g by BFS level parity per component; None if an odd cycle exists.

    Each component's smallest vertex goes to part_x, so the split is
    deterministic. For connected graphs it is the unique bipartition.
    """
    parts = [0, 0]
    for root in range(len(g)):
        if (parts[0] | parts[1]) >> root & 1:
            continue
        for d, layer in enumerate(layers(g, root)):
            parts[d & 1] |= layer
    # an edge inside one parity class closes an odd cycle
    if any(g[v] & part for part in parts for v in _bits(part)):
        return None
    part_x, part_y = (frozenset(_bits(part)) for part in parts)
    return Bipartition(part_x, part_y)


def relabel(g: Graph, mapping) -> Graph:
    """Apply a vertex permutation given as mapping[old] = new."""
    if sorted(mapping) != list(range(len(g))):
        raise ValueError("mapping is not a permutation of the vertex set")
    return new_graph(len(g), ((mapping[u], mapping[v]) for u, v in edges(g)))


def _distance_rows(g: Graph) -> list[tuple[int, ...]]:
    """A plain BFS distance row from every vertex, for the index paths below."""
    rows = [distances_from(g, u) for u in range(len(g))]
    if any(UNREACHABLE in row for row in rows):
        raise ValueError("index undefined: graph is disconnected")
    return rows


def per_source_profile(g: Graph) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """(degree, eccentricity, transmission, count per distance) of every vertex."""
    rows = []
    for u, dist in enumerate(_distance_rows(g)):
        ecc = max(dist)
        counts = [0] * (ecc + 1)
        for d in dist:
            counts[d] += 1
        rows.append((degree(g, u), ecc, sum(dist), tuple(counts)))
    return tuple(rows)


def indices_from_rows(rows) -> dict[IndexKind, int | Fraction]:
    """The five indices summed vertex by vertex from per_source_profile rows."""
    pairs = [(d, c) for _, _, _, counts in rows for d, c in enumerate(counts) if d]
    return {
        IndexKind.W: sum(d * c for d, c in pairs) // 2,
        IndexKind.WW: sum((d + d * d) * c for d, c in pairs) // 4,
        IndexKind.H: sum((Fraction(c, 2 * d) for d, c in pairs), Fraction(0)),
        IndexKind.CEI: sum((Fraction(degree, ecc) for degree, ecc, _, _ in rows), Fraction(0)),
        IndexKind.EDS: sum(ecc * trans for _, ecc, trans, _ in rows),
    }


def eds_by_pairs(g: Graph) -> int:
    """EDS through its pair form: sum of (ecc(u) + ecc(v)) * d(u, v)."""
    rows = _distance_rows(g)
    ecc = [max(row) for row in rows]
    return sum(
        (ecc[u] + ecc[v]) * rows[u][v] for u in range(len(g)) for v in range(u + 1, len(g))
    )


def cei_by_edges(g: Graph) -> Fraction:
    """CEI through its edge form: sum over edges of 1/ecc(u) + 1/ecc(v)."""
    ecc = [max(row) for row in _distance_rows(g)]
    total = Fraction(0)
    for u, v in edges(g):
        total += Fraction(1, ecc[u]) + Fraction(1, ecc[v])
    return total


def index_deltas(before: Graph, after: Graph) -> dict[IndexKind, int | Fraction]:
    """after minus before, per index."""
    a = all_indices(before)
    b = all_indices(after)
    return {kind: b[kind] - a[kind] for kind in IndexKind}


def contract_holds(
    expected: dict[IndexKind, Fraction | str], deltas: dict[IndexKind, int | Fraction]
) -> bool:
    """Whether every delta meets its entry of a surgery's expectation map."""
    return all(holds(deltas[kind], want) for kind, want in expected.items())


def decorated_core_graph(core: DecoratedCore) -> Graph:
    """K_{s,t} plus each core vertex's pendants, labeled in owner order after the core."""
    s, t = core.s, core.t
    edges = [(u, s + v) for u in range(s) for v in range(t)]
    label = s + t
    for owner, count in enumerate(core.pendants):
        edges.extend((owner, p) for p in range(label, label + count))
        label += count
    return new_graph(label, edges)


def contract_bridge(g: Graph, u: int, w: int) -> Graph:
    """Identify the ends of the cut edge and hang a new pendant on the merge,
    through an edge list: w disappears, the survivors keep their order, the
    new pendant becomes n-1."""
    relab = {}
    nxt = 0
    for v in range(len(g)):
        if v == w:
            continue
        relab[v] = nxt
        nxt += 1
    out = []
    for a, b in edges(g):
        if w in (a, b):
            continue
        out.append((relab[a], relab[b]))
    for z in range(len(g)):
        # reattach w's neighbors to u; a shared neighbor would mean a cycle
        # through the cut edge, so no duplicate can arise
        if z != u and has_edge(g, w, z):
            out.append((relab[u], relab[z]))
    out.append((relab[u], len(g) - 1))
    return new_graph(len(g), out)


def parity_bounds(g: Graph) -> dict[IndexKind, int | Fraction]:
    """Lower bounds on W, WW and EDS, upper bounds on H and CEI, per vertex pair
    and per vertex: distance 1 on an edge, else at least 2 within a part and
    3 across; eccentricity 1, 2 or 3 by whether the vertex sees the far part."""
    part = bipartition(g)
    side = [v in part.part_x for v in range(len(g))]
    own = [len(part.part_x) if x else len(part.part_y) for x in side]
    w = ww = eds = 0
    h = cei = Fraction(0)
    for u in range(len(g)):
        deg, other = degree(g, u), len(g) - own[u]
        ecc = 3 if deg < other else 2 if own[u] > 1 else 1
        cei += Fraction(deg, ecc)
        eds += ecc * (deg + 2 * (own[u] - 1) + 3 * (other - deg))
        for v in range(u + 1, len(g)):
            d = 1 if has_edge(g, u, v) else 2 if side[u] == side[v] else 3
            w += d
            ww += (d + d * d) // 2
            h += Fraction(1, d)
    return {IndexKind.W: w, IndexKind.WW: ww, IndexKind.H: h, IndexKind.CEI: cei, IndexKind.EDS: eds}


def best_multi(candidates, kinds) -> dict[IndexKind, tuple[int | Fraction, list[Graph]]]:
    """Each kind's optimum over candidates, with every graph attaining it,
    from every index of every candidate."""
    values = [(g, all_indices(g)) for g in candidates]
    out = {}
    for kind in kinds:
        pick = min if kind.bound_direction == "lower" else max
        opt = pick(vals[kind] for _, vals in values)
        out[kind] = (opt, [g for g, vals in values if vals[kind] == opt])
    return out


def case_table_family(
    n: int, k: int, xs: tuple[Fraction, ...]
) -> tuple[tuple[BkSpec, ...], bool]:
    """The realizable family of a table row printing optimizers xs, and
    whether every printed x is realizable."""
    family = []
    valid = True
    if not xs and k == n - 1:
        family.append(BkSpec(n, k, 1))
    for x in xs:
        if x.denominator == 1:
            try:
                family.append(BkSpec(n, k, int(x)))
                continue
            except Infeasible:
                pass
        valid = False
    return tuple(family), valid


def reconcile_findings(kind: IndexKind, rec) -> tuple[bool, bool, bool]:
    """(value_match, family_match, direction_conflict) of a Reconciliation,
    from its two answers alone."""
    table, computed = rec.table, rec.computed
    derived = ">=" if kind.bound_direction == "lower" else "<="
    return (
        table.value == computed.value,
        table.family_valid and set(table.family) == set(computed.family),
        table.relation != derived,
    )
