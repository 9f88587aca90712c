"""Seeded random connected bipartite graphs, written as graph6 lines.

Independent of bindex: the program under test only ever sees the graph6
text. The shape follows the usual test recipe: a random recursive tree fixes
the two colour classes, then a random share of the missing cross-colour
edges is added on top, so densities range from trees to near-complete.
"""

from __future__ import annotations

import random


def random_connected_bipartite(rng: random.Random, lo: int, hi: int) -> list[set[int]]:
    """Adjacency sets of a connected bipartite graph on lo..hi vertices."""
    n = rng.randint(lo, hi)
    adj = [set() for _ in range(n)]
    colour = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
        colour[v] = 1 - colour[u]
    extra = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if colour[u] != colour[v] and v not in adj[u]
    ]
    rng.shuffle(extra)
    for u, v in extra[: rng.randint(0, len(extra))]:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def graph6(adj: list[set[int]]) -> str:
    """graph6 text of a graph on at most 62 vertices."""
    n = len(adj)
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 short form needs 1 <= n <= 62, got {n}")
    bits = [u in adj[v] for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    body = []
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i : i + 6]:
            value = value << 1 | bit
        body.append(chr(63 + value))
    return chr(63 + n) + "".join(body)


def graph6_lines(seed: int, count: int, lo: int, hi: int) -> list[str]:
    """count graph6 lines, the same list for the same seed."""
    rng = random.Random(seed)
    return [graph6(random_connected_bipartite(rng, lo, hi)) for _ in range(count)]
