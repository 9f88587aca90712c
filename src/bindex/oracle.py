"""Ground truth by exhaustion, independent of every closed form.

Connected bipartite graphs are enumerated one per isomorphism class by
generating, for each part split (s, t), all multisets of nonempty column
masks and keeping only the representative that is minimal under row
permutations (plus transposition when s = t). Connectivity makes the
bipartition unique, so no class can appear under two splits.

A second, fully labeled path rebuilds the same classes from raw edge
subsets (scan every mask, keep connected bipartite ones, collapse orbits
under all vertex permutations). The two paths share no code beyond the
Graph type, which is the point: their agreement is checked, not assumed.
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
from .graphs import Graph, bridges, certificate, is_connected, new_graph
from .indices import IndexKind, all_indices

DEFAULT_CAP = 9


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
    if n > cap:
        raise ValueError(f"n={n} above cap={cap}: raise cap explicitly for big sweeps")
    if n == 1:
        yield new_graph(1)
        return
    for s in range(1, n // 2 + 1):
        yield from _classes_with_parts(s, n - s)


def filter_by_cut_edges(graphs: Iterable[Graph], k: int) -> list[Graph]:
    return [g for g in graphs if len(bridges(g)) == k]


@dataclass(frozen=True)
class ExtremalResult:
    """Best value over an exhaustively enumerated candidate set."""

    index: IndexKind
    n: int
    k: int
    value: Fraction
    graphs: tuple[Graph, ...]
    certificates: tuple[str, ...]


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


def _certs(graphs: Iterable[Graph]) -> tuple[str, ...]:
    return tuple(sorted(certificate(g).decode("ascii") for g in graphs))


def extremal_search(
    kind: IndexKind, n: int, k: int, cap: int = DEFAULT_CAP
) -> ExtremalResult:
    """Exhaustive optimum of one index over {connected, bipartite, k cut edges}."""
    candidates = filter_by_cut_edges(enumerate_connected_bipartite(n, cap), k)
    if not candidates:
        raise Infeasible(
            f"no connected bipartite graph on n={n} vertices has exactly k={k} cut edges"
        )
    value, graphs = _best_multi(candidates, [kind])[kind]
    return ExtremalResult(kind, n, k, value, tuple(graphs), _certs(graphs))


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


def _predicted(kind: IndexKind, n: int, k: int) -> tuple[Fraction, tuple[str, ...]]:
    bound = optimize(kind, n, k)
    return bound.value, _certs(b_graph(spec) for spec in bound.family)


def verify_bound(
    kind: IndexKind, n: int, k: int, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Exhaustively check one predicted bound row: value and extremal set."""
    predicted_value, predicted_certs = _predicted(kind, n, k)
    found = extremal_search(kind, n, k, cap)
    report = VerificationReport(
        kind,
        n,
        k,
        found.value,
        found.certificates,
        predicted_value,
        predicted_certs,
        "",
    )
    return replace(report, verdict=_verdict(report))


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

    Reports stream out ordered by n, then k, then index. skip holds
    (index value, n, k) keys of rows already done (resume support); an n
    whose rows are all skipped is never enumerated. elapsed_ms (only with
    timing=True) covers the shared (n, k) candidate scan.
    """
    kinds = list(kinds or IndexKind)
    done = set(skip)
    for n in sorted(set(ns)):
        rows = bound_rows(n, ks)
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
                predicted_value, predicted_certs = _predicted(kind, n, k)
                value, graphs = best[kind]
                report = VerificationReport(
                    kind,
                    n,
                    k,
                    value,
                    _certs(graphs),
                    predicted_value,
                    predicted_certs,
                    "",
                    elapsed if timing else None,
                )
                yield replace(report, verdict=_verdict(report))


def _sweep_task(args) -> list[dict]:
    n, kind_values, ks, cap, timing = args
    kinds = [IndexKind(v) for v in kind_values]
    return [r.to_dict() for r in verification_sweep([n], kinds, ks, cap, timing)]


def verification_sweep_parallel(
    ns: Iterable[int],
    kinds: Iterable[IndexKind] | None = None,
    ks: Iterable[int] | None = None,
    cap: int = DEFAULT_CAP,
    timing: bool = False,
    workers: int = 1,
) -> list[VerificationReport]:
    """verification_sweep with the per-n work fanned out to processes."""
    kinds = list(kinds or IndexKind)
    if workers <= 1:
        return list(verification_sweep(ns, kinds, ks, cap, timing))
    from multiprocessing import Pool

    tasks = [
        (n, [kind.value for kind in kinds], list(ks) if ks is not None else None, cap, timing)
        for n in sorted(set(ns))
    ]
    with Pool(min(workers, len(tasks))) as pool:
        chunks = pool.map(_sweep_task, tasks)
    return [VerificationReport.from_dict(d) for chunk in chunks for d in chunk]


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
    h = Graph(g.n, tuple(adj))
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        comp = 1 << root
        frontier = comp
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= h.adj[low.bit_length() - 1]
                f ^= low
            frontier = reach & ~comp
            comp |= frontier
        seen |= comp
        if comp.bit_count() == 1:
            continue
        # 2-color the component and count the cross edges it actually has
        color = {root: 0}
        queue = [root]
        sizes = [1, 0]
        ok = True
        while queue and ok:
            nxt = []
            for v in queue:
                cv = color[v]
                m = h.adj[v]
                while m:
                    low = m & -m
                    w = low.bit_length() - 1
                    m ^= low
                    if w not in color:
                        color[w] = 1 - cv
                        sizes[1 - cv] += 1
                        nxt.append(w)
                    elif color[w] == cv:
                        ok = False
            queue = nxt
        inner_edges = sum(h.adj[v].bit_count() for v in color) // 2
        if not ok or inner_edges != sizes[0] * sizes[1]:
            return False
    return True


# ----- labeled rebuild: raw edge masks, then orbit collapse -----


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def labeled_connected_bipartite_masks(
    n: int, lo: int = 0, hi: int | None = None
) -> list[int]:
    """Scan raw edge-subset masks and keep the connected bipartite ones.

    Pure brute force over 2^(n choose 2) masks (n <= 7), written for speed:
    7-bit chunk tables give adjacency and vertex coverage by lookup, the
    edge count window [n-1, n^2/4] and the coverage test reject most masks
    before any BFS runs.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"labeled scan supports 2 <= n <= 7, got n={n}")
    pairs = _pairs(n)
    nbits = len(pairs)
    if hi is None:
        hi = 1 << nbits
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
    if len(chunk_meta) == 3:
        (o0, m0, a0, c0), (o1, m1, a1, c1), (o2, m2, a2, c2) = chunk_meta
        for mask in range(lo, hi):
            e = mask.bit_count()
            if e < emin or e > emax:
                continue
            i0 = mask & m0
            i1 = mask >> o1 & m1
            i2 = mask >> o2
            if c0[i0] | c1[i1] | c2[i2] != full:
                continue
            adj = [x | y | z for x, y, z in zip(a0[i0], a1[i1], a2[i2])]
            if _connected_bipartite_mask(adj, full):
                out.append(mask)
    else:
        for mask in range(lo, hi):
            e = mask.bit_count()
            if e < emin or e > emax:
                continue
            cov = 0
            adj = [0] * n
            for ofs, m, adj_table, cov_table in chunk_meta:
                idx = mask >> ofs & m
                cov |= cov_table[idx]
                row = adj_table[idx]
                adj = [x | y for x, y in zip(adj, row)]
            if cov != full:
                continue
            if _connected_bipartite_mask(adj, full):
                out.append(mask)
    return out


def _connected_bipartite_mask(adj: list[int], full: int) -> bool:
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


def _scan_task(args: tuple[int, int, int]) -> list[int]:
    n, lo, hi = args
    return labeled_connected_bipartite_masks(n, lo, hi)


def labeled_class_certificates(n: int, workers: int = 1) -> frozenset[bytes]:
    """Certificates of all connected bipartite classes, the labeled way.

    Scans every edge mask, then collapses isomorphism orbits by discarding
    each survivor's images under all n! vertex permutations; one
    certificate per orbit. Independent of the structured enumeration.
    """
    if n == 1:
        return frozenset({certificate(new_graph(1))})
    pairs = _pairs(n)
    nbits = len(pairs)
    total = 1 << nbits
    if workers > 1:
        from multiprocessing import Pool

        step = (total + workers - 1) // workers
        ranges = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
        with Pool(workers) as pool:
            parts = pool.map(_scan_task, ranges)
        survivors = set()
        for part in parts:
            survivors.update(part)
    else:
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
