"""Reference families: stars, complete bipartite graphs, decorated cores.

The central family B_k(x, y) with y = n - k - x hangs k pendant vertices on
one vertex of the part of size x <= y of K_{x,y}, a vertex of core degree y.
Within graphs on n vertices that are connected, bipartite and have exactly
k cut edges, these are the candidates that optimize all five indices.

Labeling is fixed everywhere: part X first (0..s-1), part Y next
(s..s+t-1), then pendants in owner order. That makes every constructor
deterministic, so equal parameters give byte-equal graph6 strings. Under
it each constructor writes its neighbour masks directly, with no edge
list: an X vertex's mask is all of Y, a Y vertex's all of X, and a
pendant's its one owner. new_graph is the validated path for edge lists.

The parameter rules of the bounds live here too, each stated once:
check_bound_row decides which (n, k) the bounds cover (n >= 5, then
1 <= k <= n-4 or the tree row k = n-1), bound_cut_edge_counts lists those
k, and admissible_x gives the integer x with 2 <= x <= n-k-x, empty on the
tree row. BkSpec and the closed forms in extremal test x against that range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .graphs import new_graph  # noqa: F401  benchmarks/spans.py wraps bindex.constructors.new_graph


class Infeasible(ValueError):
    """Raised when no graph with the requested parameters exists."""


def star(n: int) -> Graph:
    """K_{1,n-1} with the center labeled 0."""
    if n < 2:
        raise Infeasible(f"star needs n>=2, got n={n}")
    return complete_bipartite(1, n - 1)


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with part X = 0..s-1 and part Y = s..s+t-1.

    Its s + t masks are written directly: s copies of Y's mask, then t of X's.
    """
    if s < 1 or t < 1:
        raise Infeasible(f"complete bipartite parts must be >=1, got ({s}, {t})")
    return (((1 << t) - 1) << s,) * s + ((1 << s) - 1,) * t


@dataclass(frozen=True)
class DecoratedCore:
    """K_{s,t} with a pendant count per core vertex.

    pendants[i] is the number of pendant vertices hanging on core vertex i,
    where 0..s-1 is part X and s..s+t-1 is part Y. There is one count per
    core vertex, so t is derived: len(pendants) - s.
    """

    s: int
    pendants: tuple[int, ...]

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise Infeasible(f"core parts must be >=1, got ({self.s}, {self.t})")
        if any(p < 0 for p in self.pendants):
            raise Infeasible("pendant counts must be >=0")

    @property
    def t(self) -> int:
        return len(self.pendants) - self.s

    @classmethod
    def make(cls, s: int, t: int, counts: dict[int, int] | None = None) -> DecoratedCore:
        pendants = [0] * (s + t)
        for vertex, count in (counts or {}).items():
            if not 0 <= vertex < s + t:
                raise Infeasible(f"core vertex {vertex} out of range for K_({s},{t})")
            pendants[vertex] = count
        return cls(s, tuple(pendants))


def realize(core: DecoratedCore) -> Graph:
    """Build the graph of a decorated core under the fixed labeling.

    The masks are written directly: K_{s,t}'s, then each owner's pendants
    as one block of labels.
    """
    adj = list(complete_bipartite(core.s, core.t))
    label = len(adj)
    for owner, count in enumerate(core.pendants):
        adj[owner] |= ((1 << count) - 1) << label
        adj.extend([1 << owner] * count)
        label += count
    return tuple(adj)


def check_bound_row(n: int, k: int) -> None:
    """Raise Infeasible unless the bounds cover k cut edges on n vertices:
    n >= 5, and k is 1..n-4 or the tree row n-1 (bound_cut_edge_counts)."""
    if n < 5:
        raise Infeasible(f"bounds defined for n>=5, got n={n}")
    if not (1 <= k <= n - 4 or k == n - 1):
        raise Infeasible(
            f"k={k} out of range: need 1 <= k <= n-4 = {n - 4} or the tree row k = n-1"
        )


def admissible_x(n: int, k: int) -> range:
    """Integer x with 2 <= x <= n-k-x on a bound row: the one x rule.

    Empty exactly on the tree row k = n-1, where no x >= 2 has x <= n-k-x = 1-x.
    """
    check_bound_row(n, k)
    return range(2, (n - k) // 2 + 1)


def _within(x, xs: range) -> bool:
    """x in the step-1 range xs, in O(1) for any real x: range's own test walks xs for a non-int x."""
    return xs.start <= x < xs.stop and x == int(x)


@dataclass(frozen=True)
class BkSpec:
    """Parameters (n, k, x) of B_k(x, n-k-x); y = n - k - x is a property.

    Validity: x is in admissible_x(n, k), except on the tree row k = n - 1,
    where that range is empty and the graph collapses to S_n (x = 1, y = 0).
    """

    n: int
    k: int
    x: int

    def __post_init__(self):
        n, k, x = self.n, self.k, self.x
        xs = admissible_x(n, k)
        if not xs:
            if x != 1:
                raise Infeasible(f"k=n-1 is the star row and requires x=1, got x={x}")
        elif not _within(x, xs):
            raise Infeasible(f"x={x} violates 2 <= x <= n-k-x = {n - k - x} for n={n}, k={k}")
        object.__setattr__(self, "x", int(x))  # an equal Fraction or float is stored as its int

    @property
    def y(self) -> int:
        return self.n - self.k - self.x

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
    The masks are K_{x,y}'s with the k pendant bits OR'd into vertex 0,
    then k pendant masks 1: realize's graph for that core, written directly.
    """
    n, k = spec.n, spec.k
    if spec.is_star:
        return star(n)
    core = complete_bipartite(spec.x, n - k - spec.x)
    return (core[0] | ((1 << k) - 1) << (n - k),) + core[1:] + (1,) * k


def feasible_cut_edge_counts(n: int) -> tuple[int, ...]:
    """All k for which a connected bipartite graph on n vertices with
    exactly k cut edges exists: k < n but never n-2 or n-3. A non-tree has
    an even cycle, whose 4+ vertices stay together once the cut edges go, so
    k <= n-4; for n <= 3 the rule leaves only the tree row k = n-1."""
    if n < 1:
        raise Infeasible(f"need n>=1, got n={n}")
    return tuple(k for k in range(n) if k not in (n - 2, n - 3))


def bound_cut_edge_counts(n: int) -> tuple[int, ...]:
    """The k the sharp bounds cover on n >= 5 vertices: every feasible k
    but 0, that is 1..n-4 and the tree row k = n-1."""
    check_bound_row(n, n - 1)  # the tree row: only n < 5 fails
    return feasible_cut_edge_counts(n)[1:]
