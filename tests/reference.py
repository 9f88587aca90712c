"""Plain reference paths that the library's fast paths are checked against.

canonical_columns is the vertex-by-vertex branch and bound that bindex's
certificate used before its search by ordered cells. Both minimize the same
column-major adjacency string, so their graph6 bytes must agree on every
graph; the reference is slower because it branches over every order of an
independent set that the cell search places as one cell.
"""

from __future__ import annotations

from bindex.graphs import Graph, _graph6


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


def reference_certificate(g: Graph) -> bytes:
    """graph6 of the reference columns, packed as certificate() packs its own."""
    cols = canonical_columns(g)
    bits = "".join(format(c, f"0{j}b") for j, c in enumerate(cols[1:], 1))
    return _graph6(g.n, bits).encode("ascii")
