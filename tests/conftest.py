"""Shared helpers: seeded random graph generators and an outcome wrapper used
across test modules."""

from __future__ import annotations

import random

from bindex.graphs import Graph, add_edge, new_graph
from reference import bipartition, edges, has_edge, relabel


def random_connected_bipartite(rng: random.Random, lo: int = 4, hi: int = 10) -> Graph:
    """A random connected bipartite graph on lo..hi vertices.

    A random recursive tree fixes the two color classes; a random number of
    extra cross-color edges is then layered on top. Deterministic given rng.
    """
    n = rng.randint(lo, hi)
    g = new_graph(n, [(rng.randrange(i), i) for i in range(1, n)])
    part = bipartition(g)
    assert part is not None
    in_x = set(part.part_x)
    extra = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if ((u in in_x) != (v in in_x)) and not has_edge(g, u, v)
    ]
    rng.shuffle(extra)
    for u, v in extra[: rng.randint(0, len(extra))]:
        g = add_edge(g, u, v)
    return g


def outcome(fn, arg):
    """fn(arg), or the text of the ValueError it raised."""
    try:
        return fn(arg)
    except ValueError as e:
        return ("ValueError", str(e))


def random_bridge_context(rng: random.Random) -> tuple[Graph, int, int]:
    """(g, u, w): two random connected bipartite sides of 2..6 vertices
    joined by the bridge (u, w)."""
    left = random_connected_bipartite(rng, lo=2, hi=6)
    right = random_connected_bipartite(rng, lo=2, hi=6)
    n = len(left) + len(right)
    pairs = list(edges(left))
    pairs += [(u + len(left), v + len(left)) for u, v in edges(right)]
    u = rng.randrange(len(left))
    w = len(left) + rng.randrange(len(right))
    pairs.append((u, w))
    return new_graph(n, pairs), u, w


def scrambled(rng: random.Random, g: Graph) -> Graph:
    """A random relabeling of g."""
    perm = list(range(len(g)))
    rng.shuffle(perm)
    return relabel(g, {old: new for old, new in enumerate(perm)})
