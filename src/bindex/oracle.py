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
subsets. A depth-first search adds the vertices one by one, each joining
each component so far from at most one color class, so no odd cycle is
built, and the last vertex joining every component left; then each
survivor's orbit is walked by Johnson-Trotter's adjacent transpositions,
at most two delta swaps on the mask a step. The enumeration tests
connectivity with graphs.is_connected. The two paths share no code, which is
the point: their agreement is checked, not assumed, and a branch dropped
in error would show as a count mismatch against the enumeration and OEIS
A001832.

verification_sweep is the one verification path, and one row is
verification_sweep([n], [kind], [k]): it enumerates each n once, keeps the
classes of each cut edge count with rows to do (enumerate --k groups by the
same _by_cut_edges), finds each index's optimum and certifies it next to
the predicted family. One size guard, cap, bounds the enumeration, and the
library certifies only graphs under it, so certificate has no guard of its
own. The sweep checks every n and k before any work starts.

The optimum is found by branch and bound, yet stays exhaustive. In a
connected bipartite graph every distance has the parity of its ends' parts,
so part sizes and degrees bound all five indices (_parity_bounds), exactly
when the diameter is at most 3, as on every B_k(x, y) and S_n. A candidate
whose bounds are strictly worse than the best values so far for every
requested index cannot attain any optimum and is never profiled. Walked
densest first, the n = 5..10 sweep profiles 73 of its 3790 candidates.
Everything runs in one process; the n = 5..10 sweep takes about 0.2 s of CPU
(median of 7 fresh processes on a shared 2-core x86-64 VM, CPython 3.11.7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, permutations
from itertools import combinations_with_replacement  # noqa: F401  benchmarks/spans.py counts through it
from typing import Iterable, Iterator

from .constructors import Infeasible, b_graph, bound_cut_edge_counts
from .extremal import optimize
from .graphs import (
    Graph,
    _bits,
    bridges,
    certificate,
    edge_count,
    is_connected,
    layers,
    new_graph,
)
from .indices import IndexKind, all_indices

DEFAULT_CAP = 9


def _check_cap(n: int, cap: int) -> None:
    """The one size guard: the enumeration, and so every graph the library certifies, stays within cap."""
    if n > cap:
        raise ValueError(
            f"n={n} above cap={cap}: raise the cap argument (--cap on the command line)"
            " explicitly for big sweeps"
        )


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
    p's image is then a sum of per-mask weights. One int holds the sum for
    every p, one field each, with a guard bit above each field.

    Each prefix carries its slack, floor - packed: the identity's field 0
    copied into every field, plus the guard bits, less every p's field. A
    child's slack is its parent's plus step[c], precomputed per mask, so
    each test is one addition and one mask: the child is kept iff every
    guard bit stays set, iff no field exceeds the identity's. No field ever
    borrows from its neighbour: a count never carries, so every field of
    packed is below 2**width, and field i of the slack, 2**width plus
    field 0 less field i, stays in [1, 2**(width+1)). The leaf's transpose
    test needs floor itself, here + packed, so packed is carried too,
    added only once the test has passed.

    The rows are carried packed as well: spread[c] moves bit i of c to bit
    i*t, so appending c at position j ORs in spread[c] << j, and a leaf
    reads row i as t bits at i*t.
    """
    top = 1 << s
    digit = t.bit_length()  # 2**digit > t: a count never carries
    width = top * digit  # one field's count digits, below its guard bit
    field = (1 << width) - 1
    weight = [0] * top  # weight[c]: mask c under every permutation
    for i, p in enumerate(permutations(range(s))):  # the identity first
        image = [0]  # image[c]: p applied to the rows of mask c
        for r in range(s):
            image += [m | 1 << p[r] for m in image]
        for c, m in enumerate(image):
            weight[c] |= 1 << i * (width + 1) + (top - 1 - m) * digit
    ones = weight[0] >> (top - 1) * digit  # the empty mask: bit 0 of every field
    guard = ones << width
    step = [(w & field) * ones - w for w in weight]  # what appending c adds to the slack
    spread = [sum(1 << i * t for i in range(s) if c >> i & 1) for c in range(top)]
    t_bits = (1 << t) - 1

    def grow(cols, slack, sums, grid, lo):
        j = len(cols)  # the position of the next column
        for c in range(lo, top):
            here = slack + step[c]
            if here & guard != guard:  # some permutation sorts lower
                continue
            packed = sums + weight[c]
            bits = grid | spread[c] << j
            if j + 1 < t:
                yield from grow(cols + (c,), here, packed, bits, c)
                continue
            rows = [bits >> i * t & t_bits for i in range(s)]
            if s == t and (here + packed - sum(weight[row] for row in rows)) & guard != guard:
                continue
            g = tuple(row << s for row in rows) + cols + (c,)
            if is_connected(g):
                yield g

    yield from grow((), guard, 0, 0, 1)


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


def _by_cut_edges(graphs: Iterable[Graph], ks: list[int]) -> dict[int, list[Graph]]:
    """Each k in ks, in order, with the graphs that have k cut edges; no other graph is kept."""
    groups: dict[int, list[Graph]] = {k: [] for k in ks}
    for g in graphs:
        groups.get(len(bridges(g)), []).append(g)
    return groups


def _parity_bounds(g: Graph) -> dict[IndexKind, int | Fraction]:
    """Each index's bound on its own side, from part sizes and degrees only.

    g is connected, bipartite and has n >= 2. The parts are the even and odd
    BFS layers from vertex 0. Two vertices of one part lie at an even
    distance >= 2, and two of opposite parts at 1 if adjacent, else at an
    odd distance >= 3. With part sizes s and t, m edges and
    P = C(s, 2) + C(t, 2) same-part pairs, that gives W >= m + 2P + 3(st - m),
    WW >= m + 3P + 6(st - m) and H <= m + P/2 + (st - m)/3.

    Per vertex, with own vertices in its part (itself included) and other
    in the far one: a full vertex, one with deg = other, has eccentricity
    2 (1 if own = 1) and transmission other + 2(own - 1). Any other vertex
    has eccentricity e >= 3 and transmission
    D >= deg + 2(own - 1) + 3(other - deg). CEI <= sum deg/e and
    EDS >= sum e * D follow, summed per part: the part's degrees add up to
    m, so only its count of full vertices is needed. All five bounds are
    exact iff the diameter is at most 3.
    """
    n = len(g)
    x = sum(islice(layers(g, 0), 0, None, 2))  # the even layers: vertex 0's part
    y = ((1 << n) - 1) ^ x
    s = x.bit_count()
    t = n - s
    m = edge_count(g)
    pairs = (s * (s - 1) + t * (t - 1)) // 2
    far = s * t - m  # opposite-part pairs with no edge
    cei6 = eds = 0  # cei6: six times the CEI bound
    for own, other, full in ((s, t, g.count(y)), (t, s, g.count(x))):
        ecc = 2 if own > 1 else 1  # a full vertex's
        cei6 += 2 * (m - full * other) + full * other * (6 // ecc)
        eds += 3 * ((own - full) * (2 * own - 2 + 3 * other) - 2 * (m - full * other))
        eds += full * ecc * (other + 2 * own - 2)
    return {
        IndexKind.W: m + 2 * pairs + 3 * far,
        IndexKind.WW: m + 3 * pairs + 6 * far,
        IndexKind.H: Fraction(6 * m + 3 * pairs + 2 * far, 6),
        IndexKind.CEI: Fraction(cei6, 6),
        IndexKind.EDS: eds,
    }


def _best_multi(
    candidates: Iterable[Graph], kinds: Iterable[IndexKind]
) -> dict[IndexKind, tuple[int | Fraction, list[Graph]]]:
    """Each kind's optimum over candidates, with every graph attaining it.

    A branch and bound over connected bipartite candidates. They are
    walked densest first (a stable sort by edge count), since adding edges
    moves every index toward its optimum, so the best values found early
    are good ones. A graph is ranked only if, for some requested kind, its
    parity bound could equal or beat that kind's best so far: no graph
    that ties is skipped, so the values and extremal sets are those of
    ranking every candidate. The bounds are exact on graphs of diameter at
    most 3, which every B_k(x, y) and S_n has.

    all_indices computes all five indices and returns the requested kinds;
    ints and Fractions compare exactly, so values are kept as it returns them.
    """
    kinds = list(kinds)
    lower = {kind: kind.bound_direction == "lower" for kind in kinds}

    def worse(kind, v, cur):
        return v > cur if lower[kind] else v < cur

    best: dict[IndexKind, tuple[int | Fraction, list[Graph]]] = {}
    for g in sorted(candidates, key=edge_count, reverse=True):
        if best:
            bound = _parity_bounds(g)
            if all(worse(kind, bound[kind], best[kind][0]) for kind in kinds):
                continue
        # kinds by keyword: benchmarks/spans.py takes the last positional argument for the graph
        for kind, v in all_indices(g, kinds=kinds).items():
            cur = best.get(kind)
            if cur is None or worse(kind, cur[0], v):
                best[kind] = (v, [g])
            elif v == cur[0]:
                cur[1].append(g)
    return best


def _certs(graphs: Iterable[Graph]) -> tuple[str, ...]:
    return tuple(sorted(certificate(g) for g in graphs))


@dataclass(frozen=True)
class VerificationReport:
    """Oracle search vs predicted bound for one (index, n, k) row. The verdict is
    derived: value-mismatch if the values differ, else family-mismatch if the
    certificates differ, else match."""

    index: IndexKind
    n: int
    k: int
    oracle_value: Fraction
    oracle_certificates: tuple[str, ...]
    predicted_value: Fraction
    predicted_certificates: tuple[str, ...]

    @property
    def verdict(self) -> str:
        if self.oracle_value != self.predicted_value:
            return "value-mismatch"
        if self.oracle_certificates != self.predicted_certificates:
            return "family-mismatch"
        return "match"

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
        """Inverse of to_dict: d must hold, as JSON, what to_dict writes for the
        report it parses to, verdict included, else ValueError. Other keys
        (the elapsed_ms of older rows) are ignored."""
        report = cls(
            IndexKind(d["index"]), int(d["n"]), int(d["k"]),
            Fraction(d["oracle_value"]), tuple(map(str, d["oracle_certificates"])),
            Fraction(d["predicted_value"]), tuple(map(str, d["predicted_certificates"])),
        )
        for key, want in report.to_dict().items():
            got = json.dumps(d.get(key))
            if got != json.dumps(want):
                raise ValueError(f"{key} is {got}, its report writes {json.dumps(want)}")
        return report


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
        plan.append((n, [k for k in bound_cut_edge_counts(n) if ks is None or k in ks]))
    if ks is not None:
        missing = ks.difference(*(rows for _, rows in plan))
        if missing:
            raise Infeasible(
                f"no bound row for k={', '.join(map(str, sorted(missing)))} at "
                f"n={', '.join(map(str, ns))}: each n has rows 1 <= k <= n-4 "
                "and the tree row k = n-1"
            )
    return _sweep(plan, list(IndexKind if kinds is None else kinds), cap, set(skip))


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
        ks = [k for k in rows if todo[k]]
        if not ks:
            continue
        groups = _by_cut_edges(enumerate_connected_bipartite(n, cap), ks)
        for k in ks:
            best = _best_multi(groups.pop(k), todo[k])
            if not best:
                raise Infeasible(f"enumeration produced no graph with n={n}, k={k} cut edges")
            for kind in todo[k]:
                bound = optimize(kind, n, k)
                value, graphs = best[kind]
                found = _certs(graphs)
                family = _certs(b_graph(spec) for spec in bound.family)
                yield VerificationReport(kind, n, k, Fraction(value), found, bound.value, family)
            del best, graphs  # this frame waits across yields: no class may outlive its k


def load_reports(path) -> dict[tuple[str, int, int], VerificationReport]:
    """Read a JSONL report file into a dict keyed by (index, n, k).

    A row that does not parse, or that to_dict would not write back as it
    stands, raises ValueError naming the file and its 1-based line, e.g.
    the cut last line of an interrupted run or a verdict its values deny.
    So does a row whose (index, n, k) an earlier line holds.
    """
    out: dict[tuple[str, int, int], VerificationReport] = {}
    seen: dict[tuple[str, int, int], int] = {}  # the line of each key read
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
            except (ArithmeticError, KeyError, TypeError, ValueError) as e:
                raise ValueError(
                    f"{path}, line {lineno}: not a report row ({e!r})"
                ) from e
            key = (report.index.value, report.n, report.k)
            if key in seen:
                row = f"the {key[0]} row for n={key[1]}, k={key[2]}"
                raise ValueError(f"{path}, line {lineno}: {row} repeats line {seen[key]}")
            seen[key] = lineno
            out[key] = report
    return out


# ----- labeled rebuild: raw edge masks, then orbit collapse -----


def labeled_connected_bipartite_masks(n: int) -> list[int]:
    """The connected bipartite edge masks on n labeled vertices, ascending.

    Bit i of a mask is the i-th vertex pair in lexicographic order, so pair
    (u, v) is bit base[u] + v - u - 1. A depth-first search adds the
    vertices from n - 1 down to 0, carrying the components so far as pairs
    of color masks. Each vertex picks its neighbors above it, from each
    component none, a nonempty submask of one color class, or one of the
    other (an edge to both would close an odd cycle), and merges with the
    components it picked. Vertex 0 must pick from every component, so every
    leaf is connected and none is wasted. The leaves are sorted at the end.
    At n = 1 vertex 0 has no component to join: the one leaf is mask 0.
    """
    if not 1 <= n <= 7:
        raise ValueError(f"labeled scan supports 1 <= n <= 7, got n={n}")
    base = [u * (2 * n - u - 1) // 2 for u in range(n)]
    out = []

    def grow(u, mask, comps):
        # (neighbors, u's color class, the other class, components left apart)
        picks = [(0, 1 << u, 0, ())]
        for comp in comps:
            nxt = [] if u == 0 else [(nb, mine, other, rest + (comp,)) for nb, mine, other, rest in picks]
            for side, far in (comp, comp[::-1]):
                sub = side
                while sub:
                    nxt += [(nb | sub, mine | far, other | side, rest) for nb, mine, other, rest in picks]
                    sub = (sub - 1) & side
            picks = nxt
        if u == 0:  # the leaves: vertex 0 joined every component
            out.extend(mask | nb >> 1 for nb, _, _, _ in picks)
            return
        for nb, mine, other, rest in picks:
            grow(u - 1, mask | nb >> (u + 1) << base[u], rest + ((mine, other),))

    grow(n - 1, 0, ())
    return sorted(out)


def _transposition_swaps(n: int) -> list[tuple[tuple[int, int], ...]]:
    """For each i < n - 1, the delta swaps that relabel a pair mask by (i i+1).

    A (shift, low) step swaps each bit in low with the bit shift above it:
    (u, i) with (u, i + 1) for u < i, one bit apart, then (i, v) with
    (i + 1, v) for v > i + 1, n - i - 2 bits apart.
    """
    base = [u * (2 * n - u - 1) // 2 for u in range(n)]
    swaps = []
    for i in range(n - 1):
        cols = sum(1 << base[u] + i - u - 1 for u in range(i))
        rows = sum(1 << base[i] + v - i - 1 for v in range(i + 2, n))
        swaps.append(tuple((d, low) for d, low in ((1, cols), (n - i - 2, rows)) if low))
    return swaps


def _plain_changes(n: int) -> list[int]:
    """Johnson-Trotter: n! - 1 swaps of places (i, i+1) visiting every order once.

    Item m - 1 sweeps left and right in turn across the orders of items
    0..m-2, whose own swaps run between sweeps, one place right after a left sweep.
    """
    walk: list[int] = []
    for m in range(2, n + 1):
        sweep = list(range(m - 2, -1, -1))  # item m - 1 from the last place to the first
        nxt = sweep[:]
        for j, i in enumerate(walk):
            nxt += [i + 1 - j % 2] + (sweep[::-1] if j % 2 == 0 else sweep)
        walk = nxt
    return walk


def labeled_class_certificates(n: int) -> frozenset[str]:
    """Certificates of all connected bipartite classes, the labeled way.

    Scans the edge masks, then certifies one survivor per orbit and walks
    the orbit, discarding each image: the plain-changes swaps, applied as
    vertex transpositions, reach all n! relabelings of the survivor.
    Independent of the structured enumeration.
    """
    pairs = list(combinations(range(n), 2))
    survivors = set(labeled_connected_bipartite_masks(n))
    swaps = _transposition_swaps(n)
    walk = [swaps[i] for i in _plain_changes(n)]
    certs = set()
    while survivors:
        mask = survivors.pop()
        certs.add(certificate(new_graph(n, [pairs[i] for i in _bits(mask)])))
        for steps in walk:
            for d, low in steps:
                t = (mask ^ mask >> d) & low
                mask ^= t | t << d
            survivors.discard(mask)
    return frozenset(certs)
