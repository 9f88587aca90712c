"""Closed-form bounds over the B_k(x, n-k-x) family and their case table.

Two independent layers:

* optimize() reads the true optimum, with all optimal parameters, off the
  vertex of each index's polynomial in x (closed_form, one coefficient row
  each), clamped into constructors.admissible_x (re-exported here), or, on
  the tree row, computes the index of S_n from the graph itself;
* case_table() reproduces a fixed residue-indexed table of closed-form
  answers, kept verbatim, quirks included. Which printed optimizers give
  a realizable family is decided by admissible_x as well: the table's x
  values that lie in its range, or S_n on the tree row.

reconcile() compares the two and reports every disagreement instead of
patching the table: the star rows of W, CEI and EDS carry wrong values,
the WW table points the inequality the wrong way and uses a residue
variable that makes its optimizer x non-integral unless n is divisible by
4, and the EDS boundary clause overlaps the residue optimum by one when
11k = 3n-23. Tests pin all of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructors import BkSpec, Infeasible, _within, admissible_x, check_bound_row, star
from .indices import IndexKind, compute

_ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii")

# the table prints WW as an upper bound although the family minimizes it
TABLE_RELATION = {
    IndexKind.W: ">=",
    IndexKind.WW: "<=",
    IndexKind.H: "<=",
    IndexKind.CEI: "<=",
    IndexKind.EDS: ">=",
}

# each index over B_k(x, n-k-x) as (a, b, c, den): it is (a*x*x + b*x + c) / den
_POLYNOMIAL = {
    IndexKind.W: lambda n, k: (1, 2 * k - n, n * n - n - 2 * k, 1),
    IndexKind.WW: lambda n, k: (2, 5 * k - 2 * n, 3 * n * (n - 1) // 2 - 5 * k, 1),
    IndexKind.H: lambda n, k: (-6, 6 * n - 8 * k, 3 * n * n - 3 * n + 8 * k, 12),
    IndexKind.CEI: lambda n, k: (-5, 5 * n - 5 * k - 1, n + 4 * k, 6),
    IndexKind.EDS: lambda n, k: (5, 11 * k - 3 * n - 3, 4 * n * n + 2 * k * n - 5 * n - 14 * k + 2, 1),
}


def closed_form(kind: IndexKind, n: int, k: int, x) -> Fraction:
    """Index value of B_k(x, n-k-x), read off its row of the polynomial table.

    Defined for 1 <= k <= n-4 and integer 2 <= x <= n-k-x; the tree row
    k = n-1 has no x freedom; optimize computes S_n's index there instead.
    """
    xs = admissible_x(n, k)
    if not xs:
        raise Infeasible("the tree row k = n-1 has no x freedom")
    if not _within(x, xs):
        raise Infeasible(f"x={x} not admissible for n={n}, k={k}: need integer 2 <= x <= n-k-x")
    a, b, c, den = _POLYNOMIAL[kind](n, k)
    x = int(x)
    return Fraction((a * x + b) * x + c, den)


@dataclass(frozen=True)
class BoundResult:
    """Sharp bound over graphs with n vertices and k cut edges, on its IndexKind.bound_direction side.

    family is every optimal B_k(x, n-k-x) in ascending x: read the optimal x from it."""

    value: Fraction
    family: tuple[BkSpec, ...]


def optimize(kind: IndexKind, n: int, k: int) -> BoundResult:
    """Optimize the closed form over all admissible x (direct, no table).

    Its x*x coefficient a is > 0 on lower bounds, < 0 on upper ones, so the
    optimum is the floor or the ceiling of the vertex -b/2a clamped into
    range, or both on a tie. The tree row k = n-1 gives S_n's index, from the graph.
    """
    xs = admissible_x(n, k)
    if not xs:
        return BoundResult(Fraction(compute(kind, star(n))), (BkSpec(n, k, 1),))
    a, b, _, _ = _POLYNOMIAL[kind](n, k)
    floor = -b // (2 * a)
    candidates = sorted({min(max(x, xs[0]), xs[-1]) for x in (floor, floor + 1)})
    values = {x: closed_form(kind, n, k, x) for x in candidates}
    best = min(values.values()) if kind.bound_direction == "lower" else max(values.values())
    return BoundResult(best, tuple(BkSpec(n, k, x) for x in candidates if values[x] == best))


@dataclass(frozen=True)
class CaseRow:
    """One table answer: printed value, printed optimizers, realizable family."""

    label: str  # index and roman clause of its table, e.g. "w.iii"
    relation: str
    value: Fraction
    x_values: tuple[Fraction, ...]
    family: tuple[BkSpec, ...]
    family_valid: bool


def _row(
    kind: IndexKind, n: int, k: int, clause: int, value, xs: tuple[Fraction, ...]
) -> CaseRow:
    admissible = admissible_x(n, k)
    realizable = [int(x) for x in xs if _within(x, admissible)]
    # the tree row's extremal graph is S_n
    family = tuple(BkSpec(n, k, x) for x in realizable) if admissible else (BkSpec(n, k, 1),)
    return CaseRow(
        f"{kind.value}.{_ROMAN[clause - 1]}",
        TABLE_RELATION[kind],
        Fraction(value),
        xs,
        family,
        len(realizable) == len(xs),
    )


def case_table(kind: IndexKind, n: int, k: int) -> CaseRow:
    """The fixed table answer for (index, n, k), reproduced verbatim.

    Known quirks are preserved on purpose; reconcile() reports them.
    """
    check_bound_row(n, k)
    F = Fraction
    if kind is IndexKind.W:
        if k == n - 1:
            return _row(kind, n, k, 1, F(n * (n - 1), 2), ())
        if 2 * k >= n - 4:
            return _row(kind, n, k, 2, n * n - 3 * n + 2 * k + 4, (F(2),))
        flat = k * n - k * k - 2 * k - n
        if n % 2:
            xs = (F(n - 2 * k - 1, 2), F(n - 2 * k + 1, 2))
            return _row(kind, n, k, 3, F(3 * n * n + 1, 4) + flat, xs)
        return _row(kind, n, k, 4, F(3 * n * n, 4) + flat, (F(n - 2 * k, 2),))
    if kind is IndexKind.WW:
        if k == n - 1:
            return _row(kind, n, k, 1, F((n - 1) * (3 * n - 4), 2), ())
        if 5 * k >= 2 * n - 8:
            return _row(kind, n, k, 2, F(3 * n * n - 11 * n, 2) + 5 * k + 8, (F(2),))
        base = n * n + F(5 * k * n, 2) - F(3 * n, 2) - 5 * k
        # residue taken on n - 5k exactly as tabulated (not 2n - 5k), which
        # is why the optimizer below can come out fractional
        r = (n - 5 * k) % 4
        if r == 0:
            return _row(kind, n, k, 3, base - F(25 * k * k, 8), (F(2 * n - 5 * k, 4),))
        if r == 1:
            return _row(
                kind, n, k, 4, base - F(25 * k * k - 1, 8), (F(2 * n - 5 * k - 1, 4),)
            )
        if r == 2:
            xs = (F(2 * n - 5 * k - 2, 4), F(2 * n - 5 * k + 2, 4))
            return _row(kind, n, k, 5, base - F(25 * k * k - 4, 8), xs)
        return _row(
            kind, n, k, 6, base - F(25 * k * k - 1, 8), (F(2 * n - 5 * k + 1, 4),)
        )
    if kind is IndexKind.H:
        if k == n - 1:
            return _row(kind, n, k, 1, F(n * n + n - 2, 4), ())
        if 4 * k >= 3 * n - 12:
            return _row(
                kind, n, k, 2, F(3 * n * n + 9 * n - 8 * k - 24, 12), (F(2),)
            )
        base = F(3 * n * n - 2 * n, 8) + F(2 * k * k - 3 * k * n + 6 * k, 9)
        m = 3 * n - 4 * k
        r = m % 6
        off = (F(0), F(1, 72), F(1, 18), F(1, 8), F(1, 18), F(1, 72))[r]
        if r == 3:
            xs = (F(m - 3, 6), F(m + 3, 6))
        elif r <= 2:
            xs = (F(m - r, 6),)
        else:
            xs = (F(m + 6 - r, 6),)
        return _row(kind, n, k, 3 + r, base - off, xs)
    if kind is IndexKind.CEI:
        if k == n - 1:
            return _row(kind, n, k, 1, F(n * n + n - 2, 4), ())
        base = F(5 * n * n + 5 * k * k, 24) + F(n - 5 * k * n, 12) + F(3 * k, 4)
        if (n - k) % 2 == 0:
            return _row(kind, n, k, 2, base, (F(n - k, 2),))
        return _row(kind, n, k, 3, base - F(1, 8), (F(n - k - 1, 2),))
    if kind is IndexKind.EDS:
        if k == n - 1:
            return _row(kind, n, k, 1, F(n * n + n - 2, 4), ())
        if 11 * k >= 3 * n - 23:
            return _row(
                kind,
                n,
                k,
                2,
                4 * n * n + 2 * k * n - 11 * n + 8 * k + 16,
                (F(2),),
            )
        m = 3 * n - 11 * k
        r = (m + 3) % 10
        base = F(71 * n * n - 121 * k * k, 20) + F(53 * k * n - 59 * n - 107 * k, 10)
        bump = (31, 32, 35, 40, 47, 56, 47, 40, 35, 32)[r]
        offsets = ((3,), (2,), (1,), (0,), (-1,), (-2, 8), (7,), (6,), (5,), (4,))[r]
        xs = tuple(F(m + o, 10) for o in offsets)
        return _row(kind, n, k, 3 + r, base + F(bump, 20), xs)
    raise ValueError(f"unknown index kind {kind!r}")


@dataclass(frozen=True)
class Reconciliation:
    """Direct optimization vs the fixed table. notes lists every disagreement,
    one each; the two answers agree iff it is empty."""

    computed: BoundResult
    table: CaseRow
    notes: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.notes


def reconcile(kind: IndexKind, n: int, k: int) -> Reconciliation:
    computed = optimize(kind, n, k)
    row = case_table(kind, n, k)
    derived = ">=" if kind.bound_direction == "lower" else "<="
    notes = []
    if row.relation != derived:
        notes.append(
            f"table prints {row.relation} but the family sits on the"
            f" {kind.bound_direction} side ({derived})"
        )
    if row.value != computed.value:
        notes.append(f"table value {row.value} != optimized value {computed.value}")
    if not row.family_valid:  # only a fractional x is ever out of range
        bad = ", ".join(str(x) for x in row.x_values if x.denominator != 1)
        notes.append(f"table optimizer x = {bad} is not an integer")
    elif set(row.family) != set(computed.family):
        table, optimal = (", ".join(sorted(s.label() for s in f)) for f in (row.family, computed.family))
        notes.append(f"table family {{{table}}} != optimized family {{{optimal}}}")
    return Reconciliation(computed, row, tuple(notes))
