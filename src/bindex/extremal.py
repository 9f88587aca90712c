"""Closed-form bounds over the B_k(x, n-k-x) family and their case table.

Two independent layers:

* optimize() evaluates the per-index polynomial at every admissible x and
  returns the true optimum with all optimal parameters;
* case_table() reproduces a fixed residue-indexed table of closed-form
  answers, kept verbatim, quirks included.

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

from .constructors import BkSpec, Infeasible, check_bound_row, star
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


def closed_form(kind: IndexKind, n: int, k: int, x) -> Fraction:
    """Index value of B_k(x, n-k-x) as a polynomial in x.

    Defined for 1 <= k <= n-4 and integer 2 <= x <= n-k-x; the tree row
    k = n-1 has no x freedom and is served by star_value instead.
    """
    check_bound_row(n, k)
    if k == n - 1:
        raise Infeasible("the tree row k = n-1 has no x freedom")
    if x != int(x) or int(x) not in admissible_x(n, k):
        raise Infeasible(f"x={x} not admissible for n={n}, k={k}: need integer 2 <= x <= n-k-x")
    x = int(x)
    if kind is IndexKind.W:
        return Fraction(x * x + (2 * k - n) * x + n * n - n - 2 * k)
    if kind is IndexKind.WW:
        return Fraction(2 * x * x + (5 * k - 2 * n) * x + 3 * n * (n - 1) // 2 - 5 * k)
    if kind is IndexKind.H:
        return Fraction(-6 * x * x + (6 * n - 8 * k) * x + 3 * n * n - 3 * n + 8 * k, 12)
    if kind is IndexKind.CEI:
        return Fraction(-5 * x * x + (5 * n - 5 * k - 1) * x + n + 4 * k, 6)
    if kind is IndexKind.EDS:
        return Fraction(
            5 * x * x
            + (11 * k - 3 * n - 3) * x
            + 4 * n * n
            + 2 * k * n
            - 5 * n
            - 14 * k
            + 2
        )
    raise ValueError(f"unknown index kind {kind!r}")


def admissible_x(n: int, k: int) -> range:
    """Integer x with 2 <= x <= n-k-x; empty for the tree row k = n-1."""
    check_bound_row(n, k)
    if k == n - 1:
        return range(2, 2)
    return range(2, (n - k) // 2 + 1)


@dataclass(frozen=True)
class BoundResult:
    """Sharp bound over connected bipartite graphs with n vertices and k cut edges."""

    index: IndexKind
    n: int
    k: int
    direction: str  # "lower": the family minimizes; "upper": it maximizes
    value: Fraction
    optimal_x: tuple[int, ...]
    family: tuple[BkSpec, ...]


def optimize(kind: IndexKind, n: int, k: int) -> BoundResult:
    """Optimize the closed form over all admissible x (direct, no table).

    The tree row k = n-1 returns the star value computed straight from the
    graph itself.
    """
    check_bound_row(n, k)
    direction = kind.bound_direction
    if k == n - 1:
        value = star_value(kind, n)
        return BoundResult(kind, n, k, direction, value, (1,), (BkSpec(n, n - 1, 1),))
    xs = admissible_x(n, k)
    values = {x: closed_form(kind, n, k, x) for x in xs}
    best = min(values.values()) if direction == "lower" else max(values.values())
    optimal = tuple(x for x in xs if values[x] == best)
    family = tuple(BkSpec(n, k, x) for x in optimal)
    return BoundResult(kind, n, k, direction, best, optimal, family)


@dataclass(frozen=True)
class CaseLabel:
    index: IndexKind
    clause: str  # roman numeral within that index's table

    def __str__(self) -> str:
        return f"{self.index.value}.{self.clause}"


@dataclass(frozen=True)
class CaseRow:
    """One table answer: printed value, printed optimizers, realizable family."""

    label: CaseLabel
    n: int
    k: int
    relation: str
    value: Fraction
    x_values: tuple[Fraction, ...]
    family: tuple[BkSpec, ...]
    family_valid: bool


def _row(
    kind: IndexKind, n: int, k: int, clause: int, value, xs: tuple[Fraction, ...]
) -> CaseRow:
    family = []
    valid = True
    if not xs and k == n - 1:
        family.append(BkSpec(n, k, 1))  # the tree row's extremal graph is S_n
    for x in xs:
        if x.denominator == 1:
            try:
                family.append(BkSpec(n, k, int(x)))
                continue
            except Infeasible:
                pass
        valid = False
    return CaseRow(
        CaseLabel(kind, _ROMAN[clause - 1]),
        n,
        k,
        TABLE_RELATION[kind],
        Fraction(value),
        xs,
        tuple(family),
        valid,
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
    """Direct optimization vs the fixed table, with every disagreement listed."""

    index: IndexKind
    n: int
    k: int
    computed: BoundResult
    table: CaseRow
    value_match: bool
    family_match: bool
    direction_conflict: bool
    notes: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return self.value_match and self.family_match and not self.direction_conflict


def reconcile(kind: IndexKind, n: int, k: int) -> Reconciliation:
    computed = optimize(kind, n, k)
    row = case_table(kind, n, k)
    value_match = row.value == computed.value
    fam_table = {(s.n, s.k, s.x) for s in row.family}
    fam_opt = {(s.n, s.k, s.x) for s in computed.family}
    family_match = row.family_valid and fam_table == fam_opt
    derived = ">=" if computed.direction == "lower" else "<="
    direction_conflict = row.relation != derived
    notes = []
    if direction_conflict:
        notes.append(
            f"table prints {row.relation} but the family sits on the"
            f" {computed.direction} side ({derived})"
        )
    if not value_match:
        notes.append(f"table value {row.value} != optimized value {computed.value}")
    if not row.family_valid:
        bad = ", ".join(str(x) for x in row.x_values if x.denominator != 1)
        if bad:
            notes.append(f"table optimizer x = {bad} is not an integer")
        else:
            notes.append("table optimizer x is not realizable")
    elif fam_table != fam_opt:
        notes.append(
            "table family {"
            + ", ".join(sorted(s.label() for s in row.family))
            + "} != optimized family {"
            + ", ".join(sorted(s.label() for s in computed.family))
            + "}"
        )
    return Reconciliation(
        kind, n, k, computed, row, value_match, family_match, direction_conflict, tuple(notes)
    )


def star_value(kind: IndexKind, n: int) -> Fraction:
    """Directly computed index of S_n: the tree row of optimize."""
    return Fraction(compute(kind, star(n)))
