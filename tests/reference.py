"""Plain reference paths that the library's fast paths are checked against.

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
"""

from __future__ import annotations

from itertools import permutations
from operator import add
from typing import Iterator

from bindex.graphs import Graph, _graph6, is_connected


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
            g = Graph(s + t, tuple(row << s for row in rows) + cols)
            if is_connected(g):
                yield g

    yield from grow((), [0] * len(weight[0]), 1)
