"""Ground truth by exhaustion, independent of every closed form.

Connected bipartite graphs are enumerated one per isomorphism class, for
each part split (s, t), by a depth-first search over sorted tuples of
nonempty column masks. A class's representative is the sorted tuple that
no row permutation lowers (nor, when s = t, transposition). The search
extends only prefixes that no row permutation lowers either; that prunes
nothing it needs, because more columns can only lower a permutation's
image, so a prefix beaten once stays beaten (Read's orderly generation).
Connectivity makes the bipartition unique, so no class can appear under
two splits.

A second, fully labeled path rebuilds the same classes from raw edge
subsets (list the connected bipartite edge masks, then collapse orbits
under all vertex permutations). The masks come from one depth-first
search that decides the vertex pairs edge by edge, carrying each
component's two color classes: it drops a branch at its first odd cycle,
or when too few pairs are left to join its components. The enumeration
tests connectivity with graphs.layers. The two paths share no code, which
is the point: their agreement is checked, not assumed, and a branch
dropped in error would show as a count mismatch against the enumeration
and OEIS A001832.

verification_sweep is the one verification path: it enumerates each n
once, groups the classes by cut edge count, finds each index's optimum and
certifies it next to the predicted family. verify_bound returns one of its
rows. One size guard, cap, bounds both enumeration and certificates, and
the sweep checks every n and k before any work starts. Everything runs in
one process; the n = 10 sweep takes about a second.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from itertools import combinations_with_replacement  # noqa: F401  benchmarks/spans.py counts through it
from operator import add
from typing import Iterable, Iterator

from .constructors import Infeasible, b_graph, bound_cut_edge_counts
from .extremal import optimize
from .graphs import (
    Graph,
    _bits,
    bridges,
    certificate,
    is_connected,
    layers,
    new_graph,
)
from .indices import IndexKind, all_indices

DEFAULT_CAP = 9


def _check_cap(n: int, cap: int) -> None:
    """The one size guard: enumeration and certificates both stop at cap."""
    if n > cap:
        raise ValueError(f"n={n} above cap={cap}: raise cap explicitly for big sweeps")


def _classes_with_parts(s: int, t: int) -> Iterator[Graph]:
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


def enumerate_connected_bipartite(n: int, cap: int = DEFAULT_CAP) -> Iterator[Graph]:
    """All connected bipartite graphs on n vertices, one per class.

    The cap is a budget guard, not a correctness limit; raise it on
    purpose for bigger sweeps.
    """
    if n < 1:
        raise Infeasible(f"need n>=1, got n={n}")
    _check_cap(n, cap)
    if n == 1:
        yield new_graph(1)
        return
    for s in range(1, n // 2 + 1):
        yield from _classes_with_parts(s, n - s)


def filter_by_cut_edges(graphs: Iterable[Graph], k: int) -> list[Graph]:
    return [g for g in graphs if len(bridges(g)) == k]


def _best_multi(
    candidates: Iterable[Graph], kinds: Iterable[IndexKind]
) -> dict[IndexKind, tuple[int | Fraction, list[Graph]]]:
    """Each kind's optimum over candidates, with every graph attaining it.

    Only the requested kinds are computed; ints and Fractions compare
    exactly, so values are kept as all_indices returns them.
    """
    kinds = list(kinds)
    best: dict[IndexKind, tuple[int | Fraction, list[Graph]]] = {}
    for g in candidates:
        # kinds by keyword: benchmarks/spans.py takes the last positional argument for the graph
        for kind, v in all_indices(g, kinds=kinds).items():
            cur = best.get(kind)
            if cur is None:
                best[kind] = (v, [g])
            elif v == cur[0]:
                cur[1].append(g)
            elif (v < cur[0]) == (kind.bound_direction == "lower"):
                best[kind] = (v, [g])
    return best


def _certs(graphs: Iterable[Graph], cap: int) -> tuple[str, ...]:
    return tuple(sorted(certificate(g, limit=cap).decode("ascii") for g in graphs))


@dataclass(frozen=True)
class VerificationReport:
    """Oracle search vs predicted bound for one (index, n, k) row."""

    index: IndexKind
    n: int
    k: int
    oracle_value: Fraction
    oracle_certificates: tuple[str, ...]
    predicted_value: Fraction
    predicted_certificates: tuple[str, ...]
    verdict: str  # match | value-mismatch | family-mismatch

    @property
    def matched(self) -> bool:
        return self.verdict == "match"

    def to_dict(self) -> dict:
        return {
            "index": self.index.value,
            "n": self.n,
            "k": self.k,
            "oracle_value": str(self.oracle_value),
            "oracle_certificates": list(self.oracle_certificates),
            "predicted_value": str(self.predicted_value),
            "predicted_certificates": list(self.predicted_certificates),
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        """Inverse of to_dict; other keys (the elapsed_ms of older rows) are ignored."""
        return cls(
            IndexKind(d["index"]),
            d["n"],
            d["k"],
            Fraction(d["oracle_value"]),
            tuple(d["oracle_certificates"]),
            Fraction(d["predicted_value"]),
            tuple(d["predicted_certificates"]),
            d["verdict"],
        )


def bound_rows(n: int, ks: Iterable[int] | None = None) -> list[int]:
    """Cut edge counts the bounds cover at this n, kept to ks if given."""
    rows = list(bound_cut_edge_counts(n))
    if ks is not None:
        wanted = set(ks)
        rows = [k for k in rows if k in wanted]
    return rows


def verification_sweep(
    ns: Iterable[int],
    kinds: Iterable[IndexKind] | None = None,
    ks: Iterable[int] | None = None,
    cap: int = DEFAULT_CAP,
    skip: Iterable[tuple[str, int, int]] = (),
) -> Iterator[VerificationReport]:
    """Verify every requested row, enumerating each n only once.

    Every n is checked against cap and the bounds' range when this is
    called, before any enumeration, so a bad request fails before the
    first row; so does a requested k that is a bound row for none of the
    requested n (Infeasible). A k that fits only some n keeps just their
    rows. Reports stream out ordered by n, then k, then index. skip holds
    (index value, n, k) keys of rows already done (resume support); an n
    whose rows are all skipped is never enumerated.
    """
    ns = sorted(set(ns))  # ns and ks may be iterators: read each once
    ks = None if ks is None else set(ks)
    plan = []
    for n in ns:
        _check_cap(n, cap)
        plan.append((n, bound_rows(n, ks)))
    if ks is not None:
        missing = ks.difference(*(rows for _, rows in plan))
        if missing:
            raise Infeasible(
                f"no bound row for k={', '.join(map(str, sorted(missing)))} at "
                f"n={', '.join(map(str, ns))}: each n has rows 1 <= k <= n-4 "
                "and the tree row k = n-1"
            )
    return _sweep(plan, list(kinds or IndexKind), cap, set(skip))


def verify_bound(
    kind: IndexKind, n: int, k: int, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """The one verification_sweep row for (kind, n, k): value and extremal set."""
    (report,) = verification_sweep([n], [kind], [k], cap)
    return report


def _sweep(
    plan: list[tuple[int, list[int]]],
    kinds: list[IndexKind],
    cap: int,
    done: set[tuple[str, int, int]],
) -> Iterator[VerificationReport]:
    """The rows of verification_sweep, once its plan has been checked."""
    for n, rows in plan:
        todo = {
            k: [kind for kind in kinds if (kind.value, n, k) not in done]
            for k in rows
        }
        if not any(todo.values()):
            continue
        groups: dict[int, list[Graph]] = {}
        for g in enumerate_connected_bipartite(n, cap):
            groups.setdefault(len(bridges(g)), []).append(g)
        for k in rows:
            if not todo[k]:
                continue
            candidates = groups.get(k, [])
            if not candidates:
                raise Infeasible(
                    f"enumeration produced no graph with n={n}, k={k} cut edges"
                )
            best = _best_multi(candidates, todo[k])
            for kind in todo[k]:
                bound = optimize(kind, n, k)
                value, graphs = best[kind]
                found = _certs(graphs, cap)
                family = _certs((b_graph(spec) for spec in bound.family), cap)
                if value != bound.value:
                    verdict = "value-mismatch"
                elif found != family:
                    verdict = "family-mismatch"
                else:
                    verdict = "match"
                yield VerificationReport(
                    kind, n, k, Fraction(value), found, bound.value, family, verdict
                )


def load_reports(path) -> dict[tuple[str, int, int], VerificationReport]:
    """Read a JSONL report file into a dict keyed by (index, n, k).

    A row that does not parse raises ValueError naming the file and its
    1-based line, e.g. the cut last line of an interrupted run.
    """
    out: dict[tuple[str, int, int], VerificationReport] = {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                report = VerificationReport.from_dict(json.loads(line.decode("ascii")))
            except json.JSONDecodeError as e:
                raise ValueError(
                    f"{path}, line {lineno}: {e.msg} at column {e.colno}"
                ) from e
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(
                    f"{path}, line {lineno}: not a report row ({e!r})"
                ) from e
            out[(report.index.value, report.n, report.k)] = report
    return out


def complete_bipartite_blocks(g: Graph) -> bool:
    """True iff every component left after deleting the cut edges is a
    single vertex or a complete bipartite graph."""
    adj = list(g.adj)
    for u, v in bridges(g):
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        parts = [0, 0]
        for d, layer in enumerate(layers(adj, root)):
            parts[d & 1] |= layer
        even, odd = parts
        seen |= even | odd
        # complete bipartite: each level class sees exactly the other class
        if any(adj[v] != odd for v in _bits(even)) or any(
            adj[v] != even for v in _bits(odd)
        ):
            return False
    return True


# ----- labeled rebuild: raw edge masks, then orbit collapse -----


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def labeled_connected_bipartite_masks(n: int) -> list[int]:
    """The connected bipartite edge masks on n labeled vertices, ascending.

    Bit i of a mask is the i-th vertex pair in lexicographic order. A
    depth-first search decides the pairs from the highest bit down, leaving
    each pair out before putting it in, so masks come out in ascending
    order. Each branch carries its components as pairs of color masks. An
    edge inside one color class closes an odd cycle, and adding edges never
    removes one, so that branch ends; an edge across two components merges
    them with their colors aligned. Each edge joins at most two components,
    so a branch with c components and fewer than c - 1 pairs left is
    dropped, and every leaf reached is connected.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"labeled scan supports 2 <= n <= 7, got n={n}")
    pairs = _pairs(n)
    out = []

    def side(comps, w):
        # w's component, as (w's color class, the other class)
        for a, b in comps:
            if a >> w & 1:
                return a, b
            if b >> w & 1:
                return b, a

    def grow(i, mask, comps):
        # pairs 0..i-1 are undecided
        if len(comps) - 1 > i:
            return
        if i == 0:
            out.append(mask)  # one component: the check above let no other through
            return
        i -= 1
        grow(i, mask, comps)
        u, v = pairs[i]
        (cu, ou), (cv, ov) = side(comps, u), side(comps, v)
        if cu == cv:  # u and v share a color: an odd cycle
            return
        if cu == ov:  # already one component
            grow(i, mask | 1 << i, comps)
            return
        both = 1 << u | 1 << v
        rest = tuple(c for c in comps if not (c[0] | c[1]) & both)
        grow(i, mask | 1 << i, rest + ((cu | ov, ou | cv),))

    grow(len(pairs), 0, tuple((1 << v, 0) for v in range(n)))
    return out


def labeled_class_certificates(n: int) -> frozenset[bytes]:
    """Certificates of all connected bipartite classes, the labeled way.

    Scans the edge masks, then collapses isomorphism orbits by discarding
    each survivor's images under all n! vertex permutations; one
    certificate per orbit. Independent of the structured enumeration.
    """
    if n == 1:
        return frozenset({certificate(new_graph(1))})
    pairs = _pairs(n)
    nbits = len(pairs)
    survivors = set(labeled_connected_bipartite_masks(n))
    index_of = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for p in permutations(range(n)):
        perm_maps.append(
            tuple(
                index_of[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])]
                for u, v in pairs
            )
        )
    certs = set()
    while survivors:
        mask = survivors.pop()
        edges = [pairs[i] for i in range(nbits) if mask >> i & 1]
        certs.add(certificate(new_graph(n, edges)))
        for pm in perm_maps:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << pm[low.bit_length() - 1]
                m ^= low
            survivors.discard(image)
    return frozenset(certs)
