"""Immutable graphs with exact combinatorial primitives.

Vertices are dense integers 0..n-1. Adjacency is one Python int bitmask per
vertex, so there is no hard size cap; masks stay fast at the sizes this
package works with (n up to a few hundred). Everything here is deterministic
and side-effect free: distance rows, cut edges, bipartitions, canonical
certificates (the minimized adjacency string itself, written as graph6) and
the graph6 interchange format.

Breadth-first search is one primitive, layers(), which yields the BFS
layers from one root as vertex masks. Distances, connectivity, bipartitions
by level parity and the shores of a cut edge are all built on it; only two
hot loops elsewhere stay inline, each with a comment saying why.
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


def layers(adj, root: int, within: int = -1):
    """Yield the BFS layers from root as vertex masks; layer d is at distance d.

    adj is a sequence of neighbor masks. The search enters only vertices in
    the within mask (all by default); root itself is always layer 0. The
    layers are disjoint, so their sum is the root's component.
    """
    seen = frontier = 1 << root
    while frontier:
        yield frontier
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & within & ~seen
        seen |= frontier


def distances_from(g: Graph, source: int) -> tuple[int, ...]:
    """Single-source BFS distances; UNREACHABLE marks other components."""
    _check_vertex(g.n, source)
    dist = [UNREACHABLE] * g.n
    for d, layer in enumerate(layers(g.adj, source)):
        for v in _bits(layer):
            dist[v] = d
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    return sum(layers(g.adj, 0)) == (1 << g.n) - 1


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
    """Two-color g by BFS level parity per component; None if an odd cycle exists.

    Each component's smallest vertex goes to part_x, so the split is
    deterministic. For connected graphs it is the unique bipartition.
    """
    parts = [0, 0]
    for root in range(g.n):
        if (parts[0] | parts[1]) >> root & 1:
            continue
        for d, layer in enumerate(layers(g.adj, root)):
            parts[d & 1] |= layer
    # an edge inside one parity class closes an odd cycle
    if any(g.adj[v] & part for part in parts for v in _bits(part)):
        return None
    part_x, part_y = (frozenset(_bits(part)) for part in parts)
    return Bipartition(part_x, part_y)


def relabel(g: Graph, mapping) -> Graph:
    """Apply a vertex permutation given as mapping[old] = new."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("mapping is not a permutation of the vertex set")
    return new_graph(g.n, ((mapping[u], mapping[v]) for u, v in g.edges()))


def _canonical_columns(g: Graph) -> list[int]:
    """Branch and bound for the minimal column-major adjacency bit string.

    Returns its columns: column j is the j-th placed vertex's adjacency to
    the j placed before it, the first in the top bit, which is graph6's bit
    order. At depth j every candidate contributes a j-bit column; only
    minimum-column candidates can extend a minimal string, because the
    string is compared column block by column block. Candidates that are
    twins (same neighborhood apart from each other) lead to automorphic
    placements, so one representative per twin class suffices.
    """
    n = g.n
    adj = g.adj
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
    assert best_cols is not None
    return best_cols


def certificate(g: Graph, limit: int = 10) -> bytes:
    """Canonical form: the minimal adjacency string the search found, as graph6.

    Two graphs are isomorphic iff their certificates are equal. The search
    is exponential in the worst case, hence the small default size guard.
    """
    if g.n > limit:
        raise ValueError(f"certificate limited to n<={limit}, got n={g.n}")
    cols = _canonical_columns(g)
    bits = "".join(format(c, f"0{j}b") for j, c in enumerate(cols[1:], 1))
    return _graph6(g.n, bits).encode("ascii")


def _graph6(n: int, bits: str) -> str:
    """graph6 text: size bytes, then bits packed six to a byte, zero-padded.

    bits is the upper triangle column by column as a '0'/'1' string.
    """
    if n > _G6_LONG_MAX:
        raise ValueError(f"graph6 encoder supports n<={_G6_LONG_MAX}, got {n}")
    if n <= _G6_SMALL_MAX:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def graph6_encode(g: Graph) -> str:
    """Encode in graph6: size bytes, then the upper triangle column-major."""
    # format() writes row v-1 first; graph6 wants row 0 first
    bits = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    return _graph6(g.n, bits)


def graph6_decode(text: str | bytes) -> Graph:
    """Decode one graph6 line; errors report the offending byte offset.

    Bytes are read one character per byte, so an error names the raw byte;
    only ASCII whitespace is stripped, and offsets count after it.
    """
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    s = text.strip(" \t\n\r\v\f")  # what bytes.strip() removes
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
    return Graph(n, tuple(adj))
