"""Immutable graphs with exact combinatorial primitives.

Vertices are dense integers 0..n-1. A graph is the tuple of its vertices'
neighbour masks, one Python int each, so n is len(g) and bit v of g[u] is
the edge (u, v). Functions that only read a graph take any mask sequence
(contract_bridge passes layers() an edited list); those that build one
return a tuple. There is no hard size cap,
and masks stay fast at the sizes this package works with (n up to a few
hundred). Everything here is deterministic and side-effect free: distance
rows, cut edges, canonical certificates and the graph6 interchange format.
A certificate is the minimal adjacency string as graph6 text, found by a
cell search that recurses once per placed cell: all 730 at n = 9 take about
0.1 s of CPU, and graphs that need more cells than Python's recursion limit
(K_1100) raise RecursionError.

Breadth-first search is one primitive, layers(), which yields the BFS
layers from one root as vertex masks. Distances, connectivity, cut edges
and the shores of a cut edge are all built on it. The one inline fork is
indices._profile, which expands one vertex per twin class and in a
bipartite graph tests only the side the next layer lies on.
"""

from __future__ import annotations

import re

UNREACHABLE = -1

# graph6 sizes: one byte up to 62 vertices, '~' + 3 bytes up to 258047.
_G6_SMALL_MAX = 62
_G6_LONG_MAX = 258047
_G6_BAD = re.compile("[^?-~]")  # a byte outside graph6's range 63..126
_G6_SIX = {c: format(c - 63, "06b") for c in range(63, 127)}  # byte -> its six bits


def _bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


Graph = tuple[int, ...]  # a simple undirected graph: g[u] is u's neighbour mask


def edge_count(g: Graph) -> int:
    return sum(a.bit_count() for a in g) // 2


def _check_vertex(n: int, u: int) -> None:
    if not 0 <= u < n:
        raise ValueError(f"vertex {u} out of range for n={n}")


def new_graph(n: int, edges=()) -> Graph:
    """Build a graph on n >= 1 vertices from an iterable of (u, v) pairs.

    Duplicate edges collapse; self-loops and out-of-range endpoints raise
    ValueError.
    """
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    adj = [0] * n
    for u, v in edges:
        _check_vertex(n, u)
        _check_vertex(n, v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus edge (u, v), built by new_graph; it must not already exist."""
    edge = new_graph(len(g), [(u, v)])
    if g[u] >> v & 1:
        raise ValueError(f"edge ({u}, {v}) already present")
    return tuple(a | b for a, b in zip(g, edge))


def layers(adj, root: int):
    """Yield the BFS layers from root as vertex masks; layer d is at distance d.

    adj is a graph or any sequence of neighbor masks: contract_bridge
    passes an edited list. The layers are disjoint, so their sum is the
    root's component.
    """
    seen = frontier = 1 << root
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier


def distances_from(g: Graph, source: int) -> tuple[int, ...]:
    """Single-source BFS distances; UNREACHABLE marks other components."""
    _check_vertex(len(g), source)
    dist = [UNREACHABLE] * len(g)
    for d, layer in enumerate(layers(g, source)):
        for v in _bits(layer):
            dist[v] = d
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    return sum(layers(g, 0)) == (1 << len(g)) - 1


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Cut edges as normalized (min, max) pairs, read off BFS trees.

    Each non-root vertex v takes a parent p in the layer above. Folded from
    the deepest layer up, sub[v] is v and its tree descendants and nb[v] the
    union of their neighbor masks. Only a tree edge can be a cut edge, and
    (p, v) is one iff no other edge leaves sub[v] (Tarjan, Inf. Process.
    Lett. 2 (1974) 160-161; any spanning tree will do). v's descendants lie
    two layers or more below p, so the test is nb[v] & ~sub[v] == 1 << p.
    """
    sub = [1 << v for v in range(len(g))]
    nb = list(g)
    out = []
    rest = (1 << len(g)) - 1  # vertices of components not yet searched
    while rest:
        levels = list(layers(g, (rest & -rest).bit_length() - 1))
        rest &= ~sum(levels)
        for d in range(len(levels) - 1, 0, -1):
            for v in _bits(levels[d]):
                p = (g[v] & levels[d - 1]).bit_length() - 1
                if nb[v] & ~sub[v] == 1 << p:
                    out.append((min(p, v), max(p, v)))
                sub[p] |= sub[v]
                nb[p] |= nb[v]
    return frozenset(out)


def _canonical_columns(g: Graph) -> list[int]:
    """Search by ordered cells for the minimal column-major adjacency string.

    Returns its columns: column j is the j-th placed vertex's adjacency to
    the j placed before it, the first in the top bit (graph6's bit order).
    Placed vertices form ordered cells, masks of pairwise non-adjacent
    vertices whose inner order is free: every later vertex sees all or none
    of a cell. A vertex's least column puts its neighbors last in each cell.
    Each node places, as one new cell with columns cmin << i, a maximum
    independent set of one group of minimum-column candidates with equal
    placed neighbors sig, after splitting every cell into its non-neighbors
    then its neighbors of sig; true twins are tried once. Individualization
    and refinement with the min-string order kept exact (McKay 1981).
    """
    full = (1 << len(g)) - 1
    best_cols: list[int] | None = None

    def extend(cells: list[int], placed: int, cols: list[int]) -> None:
        nonlocal best_cols
        if best_cols is not None and cols > best_cols[: len(cols)]:
            return
        if placed == full:
            if best_cols is None or cols < best_cols:
                best_cols = cols
            return
        groups: dict[int, dict[int, int]] = {}  # column -> placed neighbors -> mask
        for w in _bits(full & ~placed):
            c = 0
            for cell in cells:
                c = c << cell.bit_count() | (1 << (g[w] & cell).bit_count()) - 1
            by_sig = groups.setdefault(c, {})
            by_sig[g[w] & placed] = by_sig.get(g[w] & placed, 0) | 1 << w
        cmin = min(groups)
        for sig, group in groups[cmin].items():
            twins: dict[int, int] = {}  # closed neighbourhood -> the lowest vertex of its class
            for w in _bits(group):
                twins.setdefault(g[w] | 1 << w, w)
            split = [part for cell in cells for part in (cell & ~sig, cell & sig) if part]
            for ind in _maximum_independent_sets(g, sum(1 << w for w in twins.values())):
                run = [cmin << i for i in range(ind.bit_count())]
                extend(split + [ind], placed | ind, cols + run)

    extend([], 0, [])
    assert best_cols is not None
    return best_cols


def _maximum_independent_sets(adj, cands: int) -> list[int]:
    """All largest sets of pairwise non-adjacent vertices in the cands mask, found
    depth first on a stack, not the call stack: rest's lowest vertex in, then out.
    A branch is cut when chosen plus |rest| less a greedy matching in rest is below
    the best size: an independent set holds at most one end of each matched edge."""
    found: list[int] = []
    size = 0
    stack = [(0, cands)]
    while stack:
        chosen, rest = stack.pop()
        k = chosen.bit_count()
        bound, free = k + rest.bit_count(), rest
        while size <= bound < size + free.bit_count() // 2:  # a cut is still possible
            low = free & -free
            mate = adj[low.bit_length() - 1] & free
            free &= ~low & ~(mate & -mate)
            bound -= bool(mate)
        if bound < size:
            continue
        if not rest:
            if k > size:
                size = k
                found.clear()
            found.append(chosen)
            continue
        low = rest & -rest
        others = rest & ~low & ~adj[low.bit_length() - 1]
        if others != rest & ~low:  # else low fits every set, so one without it is short
            stack.append((chosen, rest & ~low))
        stack.append((chosen | low, others))  # popped first
    return found


def certificate(g: Graph) -> str:
    """Canonical form: the minimal adjacency string the search found, as graph6 text.

    Two graphs are isomorphic iff their certificates are equal. graph6's
    258047 vertices are checked before the search. The search takes about
    0.1 s for all 730 classes at n = 9, 0.05 s for S_1200, 0.5 s for
    K_{600,600}, 0.12 s at P_60 and 0.5 s at P_100; but the cell search can
    still take seconds or far longer on random trees of 30 to 60 vertices.
    It recurses once per placed cell, so a graph that needs more cells than
    Python's recursion limit raises RecursionError: K_1100 does after about
    40 s of CPU, while K_200 takes 0.2 s.
    """
    head = _g6_head(len(g))
    cols = _canonical_columns(g)
    return _graph6(head, "".join(format(c, f"0{j}b") for j, c in enumerate(cols[1:], 1)))


def _g6_head(n: int) -> str:
    """graph6's size bytes for n vertices: the one check of its size limit."""
    if n > _G6_LONG_MAX:
        raise ValueError(f"graph6 encoder supports n<={_G6_LONG_MAX}, got {n}")
    if n <= _G6_SMALL_MAX:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


def _graph6(head: str, bits: str) -> str:
    """graph6 text: the size bytes, then bits packed six to a byte, zero-padded.

    bits is the upper triangle column by column as a '0'/'1' string.
    """
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def graph6_encode(g: Graph) -> str:
    """Encode in graph6: size bytes, then the upper triangle column-major."""
    head = _g6_head(len(g))  # before the O(n^2) bit string
    # format() writes row v-1 first; graph6 wants row 0 first
    bits = "".join(format(g[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, len(g)))
    return _graph6(head, bits)


def graph6_decode(text: str | bytes) -> Graph:
    """Decode one graph6 line; errors report the offending byte offset.

    Text is encoded as UTF-8, each surrogate escape (an undecodable byte of
    sys.argv) turned back into its byte, so an error names the raw byte and
    offsets count bytes. Only ASCII whitespace is stripped, and offsets
    count after it. One regex scan checks every byte, str.translate expands
    the body six bits a byte, and the adjacency rows come from an n x n
    square of those bits: row v holds v's pairs with u < v, and its column
    v holds those with u > v.
    """
    raw = text.encode("utf-8", "surrogateescape") if isinstance(text, str) else text
    s = raw.decode("latin-1").strip(" \t\n\r\v\f")  # what bytes.strip() removes
    if not s:
        raise ValueError("empty graph6 string")
    bad = _G6_BAD.search(s)
    if bad:
        raise ValueError(f"invalid graph6 byte {ord(bad.group()):#04x} at offset {bad.start()}")
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
    bits = body.translate(_G6_SIX)
    if "1" in bits[size:]:
        raise ValueError(f"nonzero graph6 padding at offset {start + need - 1}")
    # column v of the upper triangle, bit u at index u, is row v of the square
    rows = [bits[v * (v - 1) // 2 : v * (v + 1) // 2].ljust(n, "0") for v in range(n)]
    square = "".join(rows)
    return tuple(int(rows[u][::-1], 2) | int(square[u::n][::-1], 2) for u in range(n))
