"""Batch command line around the library.

Every command writes deterministic output: fixed column orders, exact
rationals ("22/3"), newline-terminated CSV, no timestamps and no timings,
so reruns are byte-identical.

probe and construct are groups with one subcommand per kind (probe
add-edge, construct bk, ...). Each kind declares only the options it
reads, so click itself rejects an option of another kind, and
`bindex probe KIND --help` lists exactly that kind's options.

Exit codes: 0 success, 1 usage or input error, 2 infeasible parameters,
3 verification or contract mismatch under --strict. A reader that closes
standard output early gives exit 1 and no message (click's own handling).
"""

from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import nullcontext
from typing import Iterable

import click

from .constructors import BkSpec, DecoratedCore, Infeasible, b_graph, complete_bipartite, feasible_cut_edge_counts, realize, star
from .extremal import closed_form, optimize, reconcile
from .graphs import bridges, certificate, edge_count, graph6_decode, graph6_encode
from .indices import IndexKind, all_indices
from .indices import compute  # noqa: F401  benchmarks/spans.py wraps bindex.cli.compute
from .oracle import (
    DEFAULT_CAP,
    _by_cut_edges,
    enumerate_connected_bipartite,
    load_reports,
    verification_sweep,
)
from .transforms import (
    EDGE_ADDITION_SIGNS,
    contract_bridge,
    holds,
    monotonicity_probe,
    shift_pendants_across_parts,
    shift_pendants_within_part,
)

_INDEX_CHOICES = [kind.value for kind in IndexKind] + ["all"]


def _kinds(selection: str) -> list[IndexKind]:
    if selection == "all":
        return list(IndexKind)
    return [IndexKind(selection)]


def _fmt_option(default: str = "human", extra: tuple[str, ...] = ()):
    choices = list(extra) + ["csv", "json", "human"]
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default=default,
        show_default=True,
        help="output format",
    )


_index_option = click.option(
    "--index",
    "index_sel",
    type=click.Choice(_INDEX_CHOICES),
    default="all",
    show_default=True,
    help="which index (or all five)",
)


def _emit(rows: Iterable[dict], columns: list[str], fmt: str) -> None:
    """Print rows; csv writes and flushes each row as soon as rows yields it."""
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
            sys.stdout.flush()
    elif fmt == "json":
        click.echo(json.dumps(list(rows), indent=2))
    else:
        rows = list(rows)  # the table sizes its columns from every row
        widths = {c: len(c) for c in columns}
        for row in rows:
            for c in columns:
                widths[c] = max(widths[c], len(str(row.get(c, ""))))
        click.echo("  ".join(c.ljust(widths[c]) for c in columns).rstrip())
        for row in rows:
            click.echo(
                "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns).rstrip()
            )


@click.group()
def cli() -> None:
    """Exact distance-based indices and sharp bounds for bipartite graphs
    with a given number of cut edges."""


@cli.command("indices")
@click.option(
    "--input",
    "-i",
    "source",
    default="-",
    show_default=True,
    help="file of graph6 lines, or - for stdin",
)
@_index_option
@_fmt_option()
def cmd_indices(source: str, index_sel: str, fmt: str) -> None:
    """Compute indices of graph6-encoded graphs, one row per line.

    Unreadable or disconnected inputs, and graphs on which any index is
    undefined (K_1), keep their row, with the message in the error column
    and every index column empty. Lines are read as bytes; the graph6
    column echoes each in ASCII, escaping other bytes (\\xff). csv rows
    are written as their lines arrive.
    """
    kinds = _kinds(index_sel)
    if source == "-":
        source_fh = nullcontext(sys.stdin.buffer)
    else:
        try:
            source_fh = open(source, "rb")
        except OSError as e:
            raise click.UsageError(f"cannot read {source}: {e}")
    columns = ["graph6", "n", "m"] + [k.value for k in kinds] + ["error"]
    with source_fh as lines:
        _emit(_index_rows(lines, kinds, columns), columns, fmt)


def _index_rows(lines: Iterable[bytes], kinds: list[IndexKind], columns: list[str]):
    """One row per nonblank line, read as bytes; a failure keeps its row."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        row: dict = {c: "" for c in columns}
        row["graph6"] = line.decode("ascii", "backslashreplace")
        try:
            g = graph6_decode(line)
            row["n"] = len(g)
            row["m"] = edge_count(g)
            # all or nothing: assign only after every index succeeded
            row.update({kind.value: str(v) for kind, v in all_indices(g, kinds).items()})
        except ValueError as e:
            row["error"] = str(e)
        yield row


@cli.group("construct")
def cmd_construct() -> None:
    """Emit one reference graph as a graph6 line."""


@cmd_construct.command("star")
@click.option("--n", type=int, required=True, help="vertex count")
def construct_star(n: int) -> None:
    """The star K_(1,n-1), center 0."""
    click.echo(graph6_encode(star(n)))


@cmd_construct.command("kst")
@click.option("--s", type=int, required=True, help="small part size")
@click.option("--t", type=int, required=True, help="large part size")
def construct_kst(s: int, t: int) -> None:
    """The complete bipartite graph K_(s,t)."""
    click.echo(graph6_encode(complete_bipartite(s, t)))


@cmd_construct.command("bk")
@click.option("--n", type=int, required=True, help="vertex count")
@click.option("--k", type=int, required=True, help="cut edge count")
@click.option("--x", type=int, help="small part size; defaults to 1 when k = n-1")
def construct_bk(n: int, k: int, x) -> None:
    """B_k(x, n-k-x): k pendants on one small-part vertex of K_(x,n-k-x)."""
    if x is None:
        if k != n - 1:
            raise click.UsageError("bk needs --x unless k = n-1")
        x = 1
    click.echo(graph6_encode(b_graph(BkSpec(n, k, x))))


@cli.command("bound")
@_index_option
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--x", type=int, default=None, help="evaluate the closed form at this x only")
@click.option(
    "--reconcile",
    "do_reconcile",
    is_flag=True,
    help="also compare against the fixed case table (not with --x)",
)
@_fmt_option()
def cmd_bound(index_sel: str, n: int, k: int, x, do_reconcile: bool, fmt: str) -> None:
    """Sharp bound per index over graphs with n vertices and k cut edges.

    Default: optimize the closed form over admissible x. With --x, just
    evaluate the polynomial there. With --reconcile, put the fixed table
    answer and all its disagreements alongside.
    """
    if x is not None and do_reconcile:
        raise click.UsageError("--reconcile cannot be combined with --x")
    if x is not None:
        columns = ["index", "n", "k", "x", "value"]
    else:
        columns = ["index", "n", "k", "direction", "value", "optimal_x", "family"]
    if do_reconcile:
        columns += ["clause", "relation", "table_value", "table_x", "consistent", "notes"]
    rows = []
    for kind in _kinds(index_sel):
        if x is not None:
            rows.append(
                {"index": kind.value, "n": n, "k": k, "x": x, "value": str(closed_form(kind, n, k, x))}
            )
            continue
        rec = reconcile(kind, n, k) if do_reconcile else None
        bound = rec.computed if rec else optimize(kind, n, k)
        row = {
            "index": kind.value,
            "n": n,
            "k": k,
            "direction": kind.bound_direction,
            "value": str(bound.value),
            "optimal_x": ";".join(str(spec.x) for spec in bound.family),
            "family": ";".join(spec.label() for spec in bound.family),
        }
        if rec:
            row["clause"] = rec.table.label
            row["relation"] = rec.table.relation
            row["table_value"] = str(rec.table.value)
            row["table_x"] = ";".join(str(v) for v in rec.table.x_values)
            row["consistent"] = "yes" if rec.consistent else "no"
            row["notes"] = " | ".join(rec.notes)
        rows.append(row)
    _emit(rows, columns, fmt)


@cli.command("verify")
@click.option("--n", "ns", type=int, multiple=True, required=True, help="repeatable")
@click.option("--k", "ks", type=int, multiple=True, help="restrict to these k (repeatable); exit 2 if a k is a bound row for no --n")
@_index_option
@click.option("--cap", type=int, default=DEFAULT_CAP, show_default=True, help="enumeration budget guard")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="write JSONL here instead of stdout")
@click.option("--resume", is_flag=True, help="skip rows already present in --out")
@click.option("--strict", is_flag=True, help="exit 3 when any row mismatches")
def cmd_verify(ns, ks, index_sel, cap, out, resume, strict) -> None:
    """Exhaustively verify the predicted bounds, one JSONL row per check.

    Each row states the oracle's optimum and extremal certificates next to
    the predicted value and family, with a verdict: match, value-mismatch
    or family-mismatch. Rows are written and flushed as they are found, so
    an interrupted run keeps its finished rows for --resume.
    """
    if resume and not out:
        raise click.UsageError("--resume needs --out")
    kinds = _kinds(index_sel)
    known: dict = {}
    glued = False  # the kept last row lost its newline, so the first new row would join it
    if resume and os.path.exists(out):
        known = load_reports(out)
        with open(out, "rb") as fh:
            glued = bool(known) and not fh.read().endswith(b"\n")
    reports = verification_sweep(ns, kinds, ks or None, cap, skip=set(known))
    written = 0
    mismatched = []
    sink = open(out, "a" if known else "w", encoding="ascii") if out else nullcontext()
    try:
        with sink as fh:
            if glued:
                fh.write("\n")
            for report in reports:
                click.echo(json.dumps(report.to_dict()), file=fh)  # echo flushes
                written += 1
                if not report.matched:
                    mismatched.append(report)
    except OSError as e:
        if not out:
            raise  # stdout: main handles it
        click.echo(f"error: cannot write {out}: {e}", err=True)
        sys.exit(1)
    if out:
        click.echo(f"wrote {written} rows to {out}", err=True)
    mismatched += [r for r in known.values() if not r.matched]
    if mismatched:
        for r in mismatched:
            click.echo(
                f"mismatch: {r.index.value} n={r.n} k={r.k} {r.verdict}", err=True
            )
        if strict:
            sys.exit(3)


@cli.command("enumerate")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None, help="keep only graphs with exactly k cut edges; exit 2 if no graph has k")
@click.option("--cap", type=int, default=DEFAULT_CAP, show_default=True)
@_fmt_option(default="graph6", extra=("graph6",))
def cmd_enumerate(n: int, k, cap: int, fmt: str) -> None:
    """List connected bipartite classes as sorted canonical graph6 lines."""
    graphs = enumerate_connected_bipartite(n, cap)  # lazy: nothing runs before the k check
    if k is not None:
        feasible = feasible_cut_edge_counts(n)
        if k not in feasible:
            ks = ", ".join(map(str, feasible))
            raise Infeasible(f"no connected bipartite graph on n={n} vertices has k={k} cut edges (feasible k: {ks})")
        graphs = _by_cut_edges(graphs, [k])[k]
    pairs = sorted(((certificate(g), g) for g in graphs), key=lambda p: p[0])
    if fmt == "graph6":
        for cert, _ in pairs:
            click.echo(cert)
        return
    rows = [
        # with --k, every kept graph has exactly k cut edges
        {"graph6": cert, "n": len(g), "m": edge_count(g), "cut_edges": len(bridges(g)) if k is None else k}
        for cert, g in pairs
    ]
    _emit(rows, ["graph6", "n", "m", "cut_edges"], fmt)


def _parse_counts(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for item in text.split(",") if text else []:
        vertex, _, count = item.partition(":")
        try:
            vertex, count = int(vertex), int(count)
        except ValueError:
            raise click.UsageError(f"bad pendant spec {item!r}, want vertex:count")
        if vertex in out:
            raise click.UsageError(f"--others names vertex {vertex} twice")
        out[vertex] = count
    return out


def _emit_contract(before, after, expected, fmt: str, strict: bool) -> None:
    """One row per index: its delta against the contract's entry; exit 3 under strict if any fails."""
    old, new = all_indices(before), all_indices(after)
    rows = []
    for kind in IndexKind:
        delta = new[kind] - old[kind]
        rows.append(
            {
                "index": kind.value,
                "before": str(old[kind]),
                "after": str(new[kind]),
                "delta": str(delta),
                "expected": str(expected[kind]),
                "ok": "yes" if holds(delta, expected[kind]) else "NO",
            }
        )
    _emit(rows, ["index", "before", "after", "delta", "expected", "ok"], fmt)
    if strict and any(row["ok"] == "NO" for row in rows):
        sys.exit(3)


def _contract_output(fn):
    """--strict and --format, which every probe kind takes."""
    fn = _fmt_option()(fn)
    return click.option("--strict", is_flag=True, help="exit 3 when any contract fails")(fn)


def _shift_options(fn):
    """--s, --t, --a and --b: the core K_(s,t) and the two pendant counts a shift moves between."""
    fn = click.option("--b", "b_count", type=int, default=1, show_default=True, help="pendant count b (see above)")(fn)
    fn = click.option("--a", "a_count", type=int, default=1, show_default=True, help="pendant count a (see above)")(fn)
    fn = click.option("--t", type=int, required=True, help="large core part size")(fn)
    return click.option("--s", type=int, required=True, help="small core part size")(fn)


@cli.group("probe")
def cmd_probe() -> None:
    """Run one surgery or the edge-addition law and check its contract.

    Each kind prints one row per index (add-edge: one per added edge) with
    its delta and whether the contract holds; bindex probe KIND --help
    lists the options of that kind.
    """


@cmd_probe.command("add-edge")
@click.option("--g6", required=True, help="input graph")
@click.option("--samples", type=int, default=None, help="absent edges to sample; default all")
@click.option("--seed", type=int, default=0, show_default=True, help="sampling seed; needs --samples")
@_contract_output
def probe_add_edge(g6: str, samples, seed: int, strict: bool, fmt: str) -> None:
    """Every index must move strictly the right way on each added edge."""
    seed_from = click.get_current_context().get_parameter_source("seed")
    if samples is None and seed_from == click.core.ParameterSource.COMMANDLINE:
        raise click.UsageError("--seed needs --samples")  # the seed only picks the sample
    probes = monotonicity_probe(graph6_decode(g6), samples, seed)
    columns = ["u", "v"] + [f"d_{x.value}" for x in IndexKind] + ["ok"]
    rows = []
    for probe in probes:
        row = {"u": probe.u, "v": probe.v, "ok": "yes" if probe.consistent else "NO"}
        for x in IndexKind:
            row[f"d_{x.value}"] = str(probe.deltas[x])
        rows.append(row)
    _emit(rows, columns, fmt)
    if strict and not all(p.consistent for p in probes):
        sys.exit(3)


@cmd_probe.command("contract")
@click.option("--g6", required=True, help="input graph")
@click.option("--u", type=int, required=True, help="cut edge endpoint that stays")
@click.option("--w", type=int, required=True, help="cut edge endpoint merged into --u")
@_contract_output
def probe_contract(g6: str, u: int, w: int, strict: bool, fmt: str) -> None:
    """Slide a cut edge together and hang a new pendant on the merge."""
    g = graph6_decode(g6)
    _emit_contract(g, contract_bridge(g, u, w), EDGE_ADDITION_SIGNS, fmt, strict)


@cmd_probe.command("shift-within")
@_shift_options
@click.option("--donor", type=int, default=0, show_default=True, help="core vertex losing pendants")
@click.option("--receiver", type=int, default=1, show_default=True, help="core vertex gaining pendants")
@click.option("--others", default="", help="extra decorations vertex:count,...; not the donor or receiver, which take --a and --b")
@_contract_output
def probe_shift_within(s, t, a_count, b_count, donor, receiver, others, strict, fmt) -> None:
    """Move the donor's a pendants onto the receiver's b, in the same part."""
    counts = _parse_counts(others)
    for vertex, role, flag in ((donor, "donor", "--a"), (receiver, "receiver", "--b")):
        if vertex in counts:
            raise click.UsageError(f"--others names vertex {vertex}, the {role}: give its pendants with {flag}")
    counts[donor] = a_count
    counts[receiver] = b_count
    core = DecoratedCore.make(s, t, counts)
    shifted, expected = shift_pendants_within_part(core, donor, receiver)
    _emit_contract(realize(core), realize(shifted), expected, fmt, strict)


@cmd_probe.command("shift-across")
@_shift_options
@_contract_output
def probe_shift_across(s, t, a_count, b_count, strict, fmt) -> None:
    """Move the b pendants on large-part vertex s to the a on small-part vertex 0."""
    core = DecoratedCore.make(s, t, {0: a_count, s: b_count})
    shifted, expected = shift_pendants_across_parts(core)
    _emit_contract(realize(core), realize(shifted), expected, fmt, strict)


def main() -> None:
    try:
        # a fixed name keeps `python -m bindex` output identical to `bindex`
        cli.main(prog_name="bindex", standalone_mode=False)
    except click.ClickException as e:
        e.show()
        sys.exit(1)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        sys.exit(1)
    except Infeasible as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except OSError as e:
        # open() names its file; a bare error is a failed write, and cmd_verify names --out itself
        where = "cannot write standard output: " if e.filename is None else ""
        click.echo(f"error: {where}{e}", err=True)
        sys.exit(1)
