"""Batch command line around the library.

Every command writes deterministic output: fixed column orders, exact
rationals ("22/3"), newline-terminated CSV, no timestamps and no timings,
so reruns are byte-identical.

Exit codes: 0 success, 1 usage or input error, 2 infeasible parameters,
3 verification or contract mismatch under --strict.
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
from .graphs import bridges, certificate, graph6_decode, graph6_encode
from .indices import IndexKind, all_indices
from .indices import compute  # noqa: F401  benchmarks/spans.py wraps bindex.cli.compute
from .oracle import (
    DEFAULT_CAP,
    enumerate_connected_bipartite,
    filter_by_cut_edges,
    load_reports,
    verification_sweep,
)
from .transforms import (
    EDGE_ADDITION_SIGNS,
    contract_bridge,
    cut_edge_context,
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
            row["n"] = g.n
            row["m"] = g.edge_count
            # all or nothing: assign only after every index succeeded
            row.update({kind.value: str(v) for kind, v in all_indices(g, kinds).items()})
        except ValueError as e:
            row["error"] = str(e)
        yield row


@cli.command("construct")
@click.argument("family", type=click.Choice(["star", "kst", "bk"]))
@click.option("--n", type=int, help="vertex count (star, bk)")
@click.option("--s", type=int, help="small part size (kst)")
@click.option("--t", type=int, help="large part size (kst)")
@click.option("--k", type=int, help="cut edge count (bk)")
@click.option("--x", type=int, help="small part size (bk); defaults to 1 when k = n-1")
def cmd_construct(family: str, n, s, t, k, x) -> None:
    """Emit one reference graph as a graph6 line."""
    if family == "star":
        if n is None:
            raise click.UsageError("star needs --n")
        g = star(n)
    elif family == "kst":
        if s is None or t is None:
            raise click.UsageError("kst needs --s and --t")
        g = complete_bipartite(s, t)
    else:
        if n is None or k is None:
            raise click.UsageError("bk needs --n and --k")
        if x is None:
            if k != n - 1:
                raise click.UsageError("bk needs --x unless k = n-1")
            x = 1
        g = b_graph(BkSpec(n, k, x))
    click.echo(graph6_encode(g))


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
    kinds = _kinds(index_sel)
    rows = []
    if x is not None:
        if do_reconcile:
            raise click.UsageError("--reconcile cannot be combined with --x")
        columns = ["index", "n", "k", "x", "value"]
        for kind in kinds:
            rows.append(
                {
                    "index": kind.value,
                    "n": n,
                    "k": k,
                    "x": x,
                    "value": str(closed_form(kind, n, k, x)),
                }
            )
        _emit(rows, columns, fmt)
        return
    columns = ["index", "n", "k", "direction", "value", "optimal_x", "family"]
    if do_reconcile:
        columns += ["clause", "relation", "table_value", "table_x", "consistent", "notes"]
    for kind in kinds:
        bound = optimize(kind, n, k)
        row = {
            "index": kind.value,
            "n": n,
            "k": k,
            "direction": bound.direction,
            "value": str(bound.value),
            "optimal_x": ";".join(str(v) for v in bound.optimal_x),
            "family": ";".join(spec.label() for spec in bound.family),
        }
        if do_reconcile:
            rec = reconcile(kind, n, k)
            row["clause"] = str(rec.table.label)
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
    if resume and os.path.exists(out):
        known = load_reports(out)
    reports = verification_sweep(ns, kinds, ks or None, cap, skip=set(known))
    written = 0
    mismatched = []
    sink = open(out, "a" if known else "w", encoding="ascii") if out else nullcontext()
    with sink as fh:
        for report in reports:
            click.echo(json.dumps(report.to_dict()), file=fh)  # echo flushes
            written += 1
            if not report.matched:
                mismatched.append(report)
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
    if k is not None and k not in feasible_cut_edge_counts(n):
        ks = ", ".join(map(str, feasible_cut_edge_counts(n)))
        raise Infeasible(f"no connected bipartite graph on n={n} vertices has k={k} cut edges (feasible k: {ks})")
    graphs = list(enumerate_connected_bipartite(n, cap))
    if k is not None:
        graphs = filter_by_cut_edges(graphs, k)
    pairs = sorted(
        ((certificate(g, limit=cap).decode("ascii"), g) for g in graphs), key=lambda p: p[0]
    )
    if fmt == "graph6":
        for cert, _ in pairs:
            click.echo(cert)
        return
    rows = [
        {"graph6": cert, "n": g.n, "m": g.edge_count, "cut_edges": len(bridges(g))}
        for cert, g in pairs
    ]
    _emit(rows, ["graph6", "n", "m", "cut_edges"], fmt)


def _parse_counts(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    if not text:
        return out
    for item in text.split(","):
        vertex, _, count = item.partition(":")
        try:
            out[int(vertex)] = int(count)
        except ValueError:
            raise click.UsageError(f"bad pendant spec {item!r}, want vertex:count")
    return out


def _delta_rows(before, after, expected=EDGE_ADDITION_SIGNS) -> tuple[list[dict], bool]:
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
    return rows, all(row["ok"] == "yes" for row in rows)


@cli.command("probe")
@click.argument(
    "kind", type=click.Choice(["add-edge", "contract", "shift-within", "shift-across"])
)
@click.option("--g6", help="input graph (add-edge, contract)")
@click.option("--u", type=int, help="cut edge endpoint (contract)")
@click.option("--w", type=int, help="cut edge endpoint (contract)")
@click.option("--samples", type=int, default=None, help="absent edges to sample (add-edge); default all")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--s", type=int, help="core part sizes (shifts)")
@click.option("--t", type=int)
@click.option("--a", "a_count", type=int, default=1, show_default=True, help="pendants on the donor / small-part vertex")
@click.option("--b", "b_count", type=int, default=1, show_default=True, help="pendants on the receiver / large-part vertex")
@click.option("--donor", type=int, default=0, show_default=True, help="core vertex losing pendants (shift-within)")
@click.option("--receiver", type=int, default=1, show_default=True, help="core vertex gaining pendants (shift-within)")
@click.option("--others", default="", help="extra decorations vertex:count,... (shift-within)")
@click.option("--strict", is_flag=True, help="exit 3 when any contract fails")
@_fmt_option()
def cmd_probe(
    kind, g6, u, w, samples, seed, s, t, a_count, b_count, donor, receiver, others, strict, fmt
) -> None:
    """Run one surgery or the edge-addition law and check its contract.

    add-edge: every index must move strictly the right way on each added
    edge. contract: slide a cut edge together plus a new pendant.
    shift-within / shift-across: pendant moves on a decorated complete
    bipartite core, each index checked against an exact delta or a sign.
    """
    if kind == "add-edge":
        if not g6:
            raise click.UsageError("add-edge needs --g6")
        report = monotonicity_probe(graph6_decode(g6), samples, seed)
        columns = ["u", "v"] + [f"d_{x.value}" for x in IndexKind] + ["ok"]
        rows = []
        for probe in report.probes:
            row = {"u": probe.u, "v": probe.v, "ok": "yes" if probe.consistent else "NO"}
            for x in IndexKind:
                row[f"d_{x.value}"] = str(probe.deltas[x])
            rows.append(row)
        _emit(rows, columns, fmt)
        if strict and not report.consistent:
            sys.exit(3)
        return
    if kind == "contract":
        if not g6 or u is None or w is None:
            raise click.UsageError("contract needs --g6, --u and --w")
        g = graph6_decode(g6)
        after = contract_bridge(cut_edge_context(g, u, w))
        rows, ok = _delta_rows(g, after)
    elif kind == "shift-within":
        if s is None or t is None:
            raise click.UsageError("shift-within needs --s and --t")
        counts = _parse_counts(others)
        counts[donor] = a_count
        counts[receiver] = b_count
        core = DecoratedCore.make(s, t, counts)
        prediction = shift_pendants_within_part(core, donor, receiver)
        rows, ok = _delta_rows(realize(core), realize(prediction.shifted), prediction.expected)
    else:
        if s is None or t is None:
            raise click.UsageError("shift-across needs --s and --t")
        core = DecoratedCore.make(s, t, {0: a_count, s: b_count})
        prediction = shift_pendants_across_parts(core)
        rows, ok = _delta_rows(realize(core), realize(prediction.shifted), prediction.expected)
    _emit(rows, ["index", "before", "after", "delta", "expected", "ok"], fmt)
    if strict and not ok:
        sys.exit(3)


def main() -> None:
    try:
        # a fixed name keeps `python -m bindex` output identical to `bindex`
        cli.main(prog_name="bindex", standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
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
    except BrokenPipeError:
        sys.exit(0)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
