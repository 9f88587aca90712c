"""Reference families: stars, complete bipartite graphs, decorated cores.

The central family B_k(x, y) with y = n - k - x hangs k pendant vertices on
one vertex of the part of size x <= y of K_{x,y}, a vertex of core degree y.
Within graphs on n vertices that are connected, bipartite and have exactly
k cut edges, these are the candidates that optimize all five indices.

Labeling is fixed everywhere: part X first (0..s-1), part Y next
(s..s+t-1), then pendants in owner order. That makes every constructor
deterministic, so equal parameters give byte-equal graph6 strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .graphs import Graph, new_graph


class Infeasible(ValueError):
    """Raised when no graph with the requested parameters exists."""


def star(n: int) -> Graph:
    """K_{1,n-1} with the center labeled 0."""
    if n < 2:
        raise Infeasible(f"star needs n>=2, got n={n}")
    return new_graph(n, ((0, v) for v in range(1, n)))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with part X = 0..s-1 and part Y = s..s+t-1."""
    if s < 1 or t < 1:
        raise Infeasible(f"complete bipartite parts must be >=1, got ({s}, {t})")
    return new_graph(s + t, ((u, s + v) for u in range(s) for v in range(t)))


@dataclass(frozen=True)
class DecoratedCore:
    """K_{s,t} with a pendant count per core vertex.

    pendants[i] is the number of pendant vertices hanging on core vertex i,
    where 0..s-1 is part X and s..s+t-1 is part Y.
    """

    s: int
    t: int
    pendants: tuple[int, ...]

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise Infeasible(f"core parts must be >=1, got ({self.s}, {self.t})")
        if len(self.pendants) != self.s + self.t:
            raise Infeasible(
                f"need {self.s + self.t} pendant counts, got {len(self.pendants)}"
            )
        if any(p < 0 for p in self.pendants):
            raise Infeasible("pendant counts must be >=0")

    @classmethod
    def make(cls, s: int, t: int, counts: dict[int, int] | None = None) -> DecoratedCore:
        pendants = [0] * (s + t)
        for vertex, count in (counts or {}).items():
            if not 0 <= vertex < s + t:
                raise Infeasible(f"core vertex {vertex} out of range for K_({s},{t})")
            pendants[vertex] = count
        return cls(s, t, tuple(pendants))

    @property
    def order(self) -> int:
        return self.s + self.t + sum(self.pendants)

    def pendant_labels(self, vertex: int) -> tuple[int, ...]:
        """Labels of the pendants hanging on a core vertex."""
        base = self.s + self.t + sum(self.pendants[:vertex])
        return tuple(range(base, base + self.pendants[vertex]))


def realize(core: DecoratedCore) -> Graph:
    """Build the graph of a decorated core under the fixed labeling.

    The masks are written directly: each X vertex sees all of Y, each Y
    vertex all of X, and each owner's pendants form one block of labels.
    """
    s, t = core.s, core.t
    adj = [((1 << t) - 1) << s] * s + [(1 << s) - 1] * t
    label = s + t
    for owner, count in enumerate(core.pendants):
        adj[owner] |= ((1 << count) - 1) << label
        adj.extend([1 << owner] * count)
        label += count
    return Graph(label, tuple(adj))


@dataclass(frozen=True)
class BkSpec:
    """Parameters (n, k, x) of B_k(x, n-k-x); y is derived.

    Validity: (n, k) is a row of the bounds (check_bound_row), and parts
    2 <= x <= y except the degenerate star row k = n - 1 where the graph
    collapses to S_n (x = 1, y = 0).
    """

    n: int
    k: int
    x: int
    y: int = field(init=False)

    def __post_init__(self):
        n, k, x = self.n, self.k, self.x
        check_bound_row(n, k)
        if k == n - 1:
            if x != 1:
                raise Infeasible(f"k=n-1 is the star row and requires x=1, got x={x}")
        elif not 2 <= x <= n - k - x:
            raise Infeasible(
                f"x={x} violates 2 <= x <= n-k-x = {n - k - x} for n={n}, k={k}"
            )
        object.__setattr__(self, "y", n - k - x)

    @property
    def is_star(self) -> bool:
        return self.k == self.n - 1

    def label(self) -> str:
        if self.is_star:
            return f"S_{self.n}"
        return f"B_{self.k}({self.x},{self.y})"


def b_graph(spec: BkSpec) -> Graph:
    """Realize B_k(x, y): k pendants on one vertex of core degree y.

    Vertices of degree y = n - k - x sit in the part of size x, so the
    decorated vertex is X-side vertex 0; pendants take labels n-k..n-1.
    """
    if spec.is_star:
        return star(spec.n)
    core = DecoratedCore.make(spec.x, spec.y, {0: spec.k})
    return realize(core)


def feasible_cut_edge_counts(n: int) -> tuple[int, ...]:
    """All k for which a connected bipartite graph on n vertices with
    exactly k cut edges exists (k = n-2 and n-3 never occur)."""
    if n < 1:
        raise Infeasible(f"need n>=1, got n={n}")
    if n == 1:
        return (0,)
    full = [k for k in range(0, n) if k not in (n - 2, n - 3)]
    if n <= 3:
        return tuple(k for k in full if k == n - 1)  # trees only below C_4
    return tuple(full)


def bound_cut_edge_counts(n: int) -> tuple[int, ...]:
    """The k the sharp bounds cover on n >= 5 vertices: every feasible k
    but 0, that is 1..n-4 and the tree row k = n-1."""
    if n < 5:
        raise Infeasible(f"bounds defined for n>=5, got n={n}")
    return feasible_cut_edge_counts(n)[1:]


@cache  # every closed-form call checks its row; a failing row raises and is not cached
def check_bound_row(n: int, k: int) -> None:
    """Raise Infeasible unless the bounds cover k cut edges on n vertices."""
    if k not in bound_cut_edge_counts(n):
        raise Infeasible(
            f"k={k} out of range: need 1 <= k <= n-4 = {n - 4} or the tree row k = n-1"
        )
