"""Immutable graphs with exact combinatorial primitives.

Vertices are dense integers 0..n-1. Adjacency is one Python int bitmask per
vertex, so there is no hard size cap; masks stay fast at the sizes this
package works with (n up to a few hundred). Everything here is deterministic
and side-effect free: distance rows, eccentricities, transmissions, cut
edges, bipartitions, canonical certificates and the graph6 interchange
format.
"""

from __future__ import annotations

from dataclasses import dataclass

UNREACHABLE = -1

# graph6 sizes: one byte up to 62 vertices, '~' + 3 bytes up to 258047.
_G6_SMALL_MAX = 62
_G6_LONG_MAX = 258047


def _bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor masks."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[u]))

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1) << (u + 1)  # neighbors above u
            out.extend((u, v) for v in _bits(mask))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


@dataclass(frozen=True)
class DistanceRow:
    """BFS distances from one source; UNREACHABLE marks other components."""

    source: int
    dist: tuple[int, ...]


@dataclass(frozen=True)
class Bipartition:
    """The two color classes of a bipartite graph."""

    part_x: frozenset[int]
    part_y: frozenset[int]


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
    return Graph(n, tuple(adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus edge (u, v); the edge must not already exist."""
    _check_vertex(g.n, u)
    _check_vertex(g.n, v)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def distances_from(g: Graph, source: int) -> DistanceRow:
    """Single-source BFS over level masks; unreached vertices get -1."""
    _check_vertex(g.n, source)
    adj = g.adj
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    d = 0
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
        d += 1
        for v in _bits(frontier):
            dist[v] = d
    return DistanceRow(source, tuple(dist))


def is_connected(g: Graph) -> bool:
    adj = g.adj
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def eccentricity(g: Graph, u: int) -> int:
    """Max distance from u; raises on disconnected graphs."""
    row = distances_from(g, u)
    if UNREACHABLE in row.dist:
        raise ValueError("eccentricity undefined: graph is disconnected")
    return max(row.dist)


def transmission(g: Graph, u: int) -> int:
    """Sum of distances from u to every vertex; raises on disconnected graphs."""
    row = distances_from(g, u)
    if UNREACHABLE in row.dist:
        raise ValueError("transmission undefined: graph is disconnected")
    return sum(row.dist)


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    """Cut edges as normalized (min, max) pairs, via iterative low-link DFS."""
    n = g.n
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
        stack = [[root, -1, g.neighbors(root), 0]]
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
                    stack.append([w, v, g.neighbors(w), 0])
            else:
                stack.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.append((min(parent, v), max(parent, v)))
    return frozenset(out)


def bipartition(g: Graph) -> Bipartition | None:
    """Two-color g by BFS per component; None if an odd cycle exists.

    Each component's smallest vertex goes to part_x, so the split is
    deterministic. For connected graphs it is the unique bipartition.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                cv = color[v]
                for w in _bits(g.adj[v]):
                    if color[w] == -1:
                        color[w] = 1 - cv
                        nxt.append(w)
                    elif color[w] == cv:
                        return None
            queue = nxt
    part_x = frozenset(v for v in range(g.n) if color[v] == 0)
    part_y = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(part_x, part_y)


def relabel(g: Graph, mapping) -> Graph:
    """Apply a vertex permutation given as mapping[old] = new."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    return new_graph(g.n, ((mapping[u], mapping[v]) for u, v in g.edges()))


def _columns_key(g: Graph, order: list[int]) -> tuple[int, ...]:
    """Column values of the partial placement, one int per position >= 1."""
    cols = []
    for j in range(1, len(order)):
        a = g.adj[order[j]]
        c = 0
        for i in range(j):
            c = c << 1 | (a >> order[i] & 1)
        cols.append(c)
    return tuple(cols)


def _canonical_order(g: Graph) -> list[int]:
    """Vertex placement minimizing the column-major adjacency bit string.

    Branch and bound: at depth j every candidate contributes a j-bit column;
    only minimum-column candidates can extend a minimal string, because the
    string is compared column block by column block. Candidates that are
    twins (same neighborhood apart from each other) lead to automorphic
    placements, so one representative per twin class suffices.
    """
    n = g.n
    adj = g.adj
    best: list[int] | None = None
    best_cols: list[int] | None = None

    def extend(order: list[int], used: int, cols: list[int]) -> None:
        nonlocal best, best_cols
        j = len(order)
        if best_cols is not None and cols > best_cols[: len(cols)]:
            return
        if j == n:
            if best_cols is None or cols < best_cols:
                best = order.copy()
                best_cols = cols.copy()
            return
        groups: dict[int, list[int]] = {}
        for v in range(n):
            if used >> v & 1:
                continue
            a = adj[v]
            c = 0
            for p in order:
                c = c << 1 | (a >> p & 1)
            groups.setdefault(c, []).append(v)
        cmin = min(groups)
        reps: list[int] = []
        for v in groups[cmin]:
            for r in reps:
                if adj[v] & ~(1 << r) == adj[r] & ~(1 << v):
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
    assert best is not None
    return best


def certificate(g: Graph, limit: int = 10) -> bytes:
    """Canonical form: graph6 bytes of the lex-minimal adjacency string.

    Two graphs are isomorphic iff their certificates are equal. The search
    is exponential in the worst case, hence the small default size guard.
    """
    if g.n > limit:
        raise ValueError(f"certificate limited to n<={limit}, got n={g.n}")
    order = _canonical_order(g)
    mapping = [0] * g.n
    for pos, v in enumerate(order):
        mapping[v] = pos
    return graph6_encode(relabel(g, mapping)).encode("ascii")


def graph6_encode(g: Graph) -> str:
    """Encode in graph6: size bytes, then the upper triangle column-major."""
    n = g.n
    if n > _G6_LONG_MAX:
        raise ValueError(f"graph6 encoder supports n<={_G6_LONG_MAX}, got {n}")
    if n <= _G6_SMALL_MAX:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    chunk = 0
    filled = 0
    body = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            chunk = chunk << 1 | (col >> u & 1)
            filled += 1
            if filled == 6:
                body.append(chr(chunk + 63))
                chunk = 0
                filled = 0
    if filled:
        body.append(chr((chunk << (6 - filled)) + 63))
    return head + "".join(body)


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line; errors report the offending byte offset."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 byte {ord(ch):#04x} at offset {off}")
    if s.startswith("~~"):
        raise ValueError("invalid graph6 byte 0x7e at offset 1: 8-byte sizes unsupported")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError(f"truncated graph6 size block at offset {len(s)}")
        n = 0
        for off in range(1, 4):
            n = n << 6 | (ord(s[off]) - 63)
        body = s[4:]
        start = 4
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        start = 1
    if n < 1:
        raise ValueError("invalid graph6 byte 0x3f at offset 0: empty graph")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        off = start + min(len(body), need)
        raise ValueError(
            f"graph6 body length {len(body)} != {need} for n={n} (offset {off})"
        )
    bits = []
    for ch in body:
        bits.extend((ord(ch) - 63) >> s6 & 1 for s6 in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    tail = bits[i:]
    if any(tail):
        raise ValueError(f"nonzero graph6 padding at offset {start + need - 1}")
    return new_graph(n, edges)
