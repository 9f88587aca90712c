"""A fixed pure-Python reference pass that tracks the machine's speed.

The measuring machine is a virtual machine whose speed drifts by tens of
percent within minutes as other tenants come and go, and CPU time drifts
with it. Timing this pass before and after every repetition and scaling the
repetition by it removes that drift: a normalized time is the CPU time the
work would take where one reference pass takes NOMINAL_S. The pass does the
same kind of work as bindex (bitmask BFS, small dicts, exact fractions) but
shares no code with it, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

NOMINAL_S = 0.1


def _graphs(count: int = 200, n: int = 24, extra: int = 30) -> list[list[int]]:
    """Fixed random connected graphs as adjacency bitmasks."""
    rng = random.Random(1704)
    out = []
    for _ in range(count):
        adj = [0] * n
        for v in range(1, n):
            u = rng.randrange(v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for _ in range(extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        out.append(adj)
    return out


_GRAPHS = _graphs()


def reference_pass() -> Fraction:
    """Sum over all graphs and sources of (vertices at distance d) / d."""
    total = Fraction(0)
    for adj in _GRAPHS:
        for source in range(len(adj)):
            seen = frontier = 1 << source
            d = 0
            counts: dict[int, int] = {}
            while frontier:
                reach = 0
                f = frontier
                while f:
                    low = f & -f
                    reach |= adj[low.bit_length() - 1]
                    f ^= low
                frontier = reach & ~seen
                seen |= frontier
                d += 1
                if frontier:
                    counts[d] = frontier.bit_count()
            total += sum(Fraction(c, k) for k, c in counts.items())
    return total


def reference_cpu() -> float:
    """CPU seconds of one reference pass."""
    start = time.process_time()
    reference_pass()
    return time.process_time() - start
