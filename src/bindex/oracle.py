"""Ground truth by exhaustion, independent of every closed form.

Connected bipartite graphs are enumerated one per isomorphism class by
generating, for each part split (s, t), all multisets of nonempty column
masks and keeping only the representative that is minimal under row
permutations (plus transposition when s = t). Connectivity makes the
bipartition unique, so no class can appear under two splits.

A second, fully labeled path rebuilds the same classes from raw edge
subsets (scan the masks, keep connected bipartite ones, collapse orbits
under all vertex permutations). The scan skips whole blocks of masks whose
fixed edges already hold an odd cycle or too many edges, found with
graphs.bipartition; it keeps a mask only on its own inline BFS, its hot
loop. The enumeration tests connectivity with graphs.layers. Beyond that
the two paths share no code, which is the point: their agreement is
checked, not assumed, and a block skipped in error would show as a count
mismatch against the enumeration and OEIS A001832.

verification_sweep is the one verification path: it enumerates each n
once, groups the classes by cut edge count, finds each index's optimum and
certifies it next to the predicted family. verify_bound returns one of its
rows. One size guard, cap, bounds both enumeration and certificates, and
the sweep checks every n and k before any work starts. Everything runs in
one process; the largest sweep (n = 10) takes seconds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from typing import Iterable, Iterator

from .constructors import Infeasible, b_graph, feasible_cut_edge_counts
from .extremal import optimize
from .graphs import (
    Graph,
    _bits,
    bipartition,
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


def _remap_tables(s: int) -> list[list[int]]:
    """For every permutation of s rows, the induced map on s-bit masks."""
    tables = []
    for p in permutations(range(s)):
        tbl = [0] * (1 << s)
        for c in range(1, 1 << s):
            low = c & -c
            tbl[c] = tbl[c ^ low] | 1 << p[low.bit_length() - 1]
        tables.append(tbl)
    return tables


def _classes_with_parts(s: int, t: int) -> Iterator[Graph]:
    """Canonical representatives of bipartite graphs with part sizes (s, t).

    Columns are the Y-side neighborhoods, as s-bit masks, all nonempty;
    combinations_with_replacement keeps them sorted, so a combo is the
    class representative iff no row permutation (or transposition, when
    s = t) produces a smaller sorted tuple.
    """
    tables = _remap_tables(s)
    cols = range(1, 1 << s)
    for combo in combinations_with_replacement(cols, t):
        canonical = True
        for tbl in tables[1:]:  # identity reproduces combo
            if tuple(sorted(map(tbl.__getitem__, combo))) < combo:
                canonical = False
                break
        if canonical and s == t:
            rows = tuple(
                sum(1 << j for j in range(t) if combo[j] >> i & 1) for i in range(s)
            )
            for tbl in tables:
                if tuple(sorted(map(tbl.__getitem__, rows))) < combo:
                    canonical = False
                    break
        if not canonical:
            continue
        edges = [
            (i, s + j) for j in range(t) for i in range(s) if combo[j] >> i & 1
        ]
        g = new_graph(s + t, edges)
        if is_connected(g):
            yield g


def enumerate_connected_bipartite(n: int, cap: int = DEFAULT_CAP) -> Iterator[Graph]:
    """All connected bipartite graphs on n vertices, one per class.

    The cap is a budget guard, not a correctness limit; raise it on
    purpose for bigger sweeps.
    """
    if n < 1:
        raise ValueError(f"need n>=1, got n={n}")
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
) -> dict[IndexKind, tuple[Fraction, list[Graph]]]:
    kinds = list(kinds)
    best: dict[IndexKind, tuple[Fraction, list[Graph]]] = {}
    for g in candidates:
        values = all_indices(g)
        for kind in kinds:
            v = Fraction(values[kind])
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
    elapsed_ms: float | None = None

    @property
    def matched(self) -> bool:
        return self.verdict == "match"

    def to_dict(self) -> dict:
        out = {
            "index": self.index.value,
            "n": self.n,
            "k": self.k,
            "oracle_value": str(self.oracle_value),
            "oracle_certificates": list(self.oracle_certificates),
            "predicted_value": str(self.predicted_value),
            "predicted_certificates": list(self.predicted_certificates),
            "verdict": self.verdict,
        }
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            IndexKind(d["index"]),
            d["n"],
            d["k"],
            Fraction(d["oracle_value"]),
            tuple(d["oracle_certificates"]),
            Fraction(d["predicted_value"]),
            tuple(d["predicted_certificates"]),
            d["verdict"],
            d.get("elapsed_ms"),
        )


def _verdict(report: VerificationReport) -> str:
    if report.oracle_value != report.predicted_value:
        return "value-mismatch"
    if report.oracle_certificates != report.predicted_certificates:
        return "family-mismatch"
    return "match"


def bound_rows(n: int, ks: Iterable[int] | None = None) -> list[int]:
    """Cut edge counts the bounds cover at this n: 1..n-4 plus the tree row."""
    if n < 5:
        raise Infeasible(f"bounds defined for n>=5, got n={n}")
    rows = [k for k in feasible_cut_edge_counts(n) if k >= 1]
    if ks is not None:
        wanted = set(ks)
        rows = [k for k in rows if k in wanted]
    return rows


def verification_sweep(
    ns: Iterable[int],
    kinds: Iterable[IndexKind] | None = None,
    ks: Iterable[int] | None = None,
    cap: int = DEFAULT_CAP,
    timing: bool = False,
    skip: Iterable[tuple[str, int, int]] = (),
) -> Iterator[VerificationReport]:
    """Verify every requested row, enumerating each n only once.

    Every n is checked against cap and the bounds' range when this is
    called, before any enumeration, so a bad request fails before the
    first row; so does a requested k that is a bound row for none of the
    requested n (Infeasible). A k that fits only some n keeps just their
    rows. Reports stream out ordered by n, then k, then index. skip holds
    (index value, n, k) keys of rows already done (resume support); an n
    whose rows are all skipped is never enumerated. elapsed_ms (only with
    timing=True) covers the shared (n, k) candidate scan.
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
    return _sweep(plan, list(kinds or IndexKind), cap, timing, set(skip))


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
    timing: bool,
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
            start = time.perf_counter()
            best = _best_multi(candidates, todo[k])
            elapsed = (time.perf_counter() - start) * 1000.0
            for kind in todo[k]:
                bound = optimize(kind, n, k)
                value, graphs = best[kind]
                report = VerificationReport(
                    kind,
                    n,
                    k,
                    value,
                    _certs(graphs, cap),
                    bound.value,
                    _certs((b_graph(spec) for spec in bound.family), cap),
                    "",
                    elapsed if timing else None,
                )
                yield replace(report, verdict=_verdict(report))


def load_reports(path) -> dict[tuple[str, int, int], VerificationReport]:
    """Read a JSONL report file into a dict keyed by (index, n, k).

    A row that does not parse raises ValueError naming the file and its
    1-based line, e.g. the cut last line of an interrupted run.
    """
    out: dict[tuple[str, int, int], VerificationReport] = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                report = VerificationReport.from_dict(json.loads(line))
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
    """Scan raw edge-subset masks and keep the connected bipartite ones.

    Brute force over 2^(n choose 2) masks (n <= 7), in ascending order,
    written for speed. The mask is split into three 7-bit chunks walked as
    nested loops, high chunk outermost; chunk tables give adjacency and
    vertex coverage by lookup. The two outer levels skip the whole block of
    inner masks when the edges fixed so far already hold an odd cycle or
    number more than n^2/4: adding edges never removes an odd cycle or
    lowers the count, so no mask in that block can be kept. Every mask that
    reaches the inner loop gets the edge count window [n-1, n^2/4], the
    coverage test and the full connected-bipartite check. Fewer than three
    chunks (n <= 5) are padded with an empty one, so every n takes the same
    loops.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"labeled scan supports 2 <= n <= 7, got n={n}")
    pairs = _pairs(n)
    nbits = len(pairs)
    chunk_meta = []
    for ofs in range(0, nbits, 7):
        width = min(7, nbits - ofs)
        adj_table = []
        cov_table = []
        for val in range(1 << width):
            adj = [0] * n
            cov = 0
            for b in range(width):
                if val >> b & 1:
                    u, v = pairs[ofs + b]
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    cov |= 1 << u | 1 << v
            adj_table.append(tuple(adj))
            cov_table.append(cov)
        chunk_meta.append((ofs, (1 << width) - 1, adj_table, cov_table))
    full = (1 << n) - 1
    emin = n - 1
    emax = n * n // 4
    out = []
    while len(chunk_meta) < 3:
        chunk_meta.append((nbits, 0, [(0,) * n], [0]))  # one index, 0: no edges
    (o0, m0, a0, c0), (o1, m1, a1, c1), (o2, m2, a2, c2) = chunk_meta

    def hopeless(edges: int, adj: tuple[int, ...]) -> bool:
        return edges > emax or bipartition(Graph(n, adj)) is None

    for i2 in range(m2 + 1):
        e2 = i2.bit_count()
        adj2 = a2[i2]
        if hopeless(e2, adj2):
            continue
        for i1 in range(m1 + 1):
            e1 = e2 + i1.bit_count()
            adj1 = tuple(x | y for x, y in zip(adj2, a1[i1]))
            if hopeless(e1, adj1):
                continue
            high = i2 << o2 | i1 << o1
            cov1 = c2[i2] | c1[i1]
            for i0 in range(m0 + 1):
                e = e1 + i0.bit_count()
                if e < emin or e > emax:
                    continue
                if cov1 | c0[i0] != full:
                    continue
                adj = [x | y for x, y in zip(adj1, a0[i0])]
                if _connected_bipartite_mask(adj, full):
                    out.append(high | i0)
    return out


def _connected_bipartite_mask(adj: list[int], full: int) -> bool:
    # inline, not graphs.layers: the n = 7 scan makes 350,601 calls; layers() doubled their time
    seen = 1
    frontier = 1
    even = 1
    odd = 0
    level = 0
    while frontier:
        reach = 0
        f = frontier
        while f:
            low = f & -f
            reach |= adj[low.bit_length() - 1]
            f ^= low
        frontier = reach & ~seen
        seen |= frontier
        level ^= 1
        if level:
            odd |= frontier
        else:
            even |= frontier
    if seen != full:
        return False
    f = even
    while f:
        low = f & -f
        if adj[low.bit_length() - 1] & even:
            return False
        f ^= low
    f = odd
    while f:
        low = f & -f
        if adj[low.bit_length() - 1] & odd:
            return False
        f ^= low
    return True


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
