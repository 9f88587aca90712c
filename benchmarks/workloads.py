"""The four workloads: a timed body each, plus its correctness gate.

Bodies call bindex through module attributes (`oracle.bridges`, not a
name imported into this file), so the span wrappers in spans.py see every
call. Checks run after timing and compare against reference.py.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gengraphs
import reference
from bindex import constructors, extremal, graphs, indices, oracle
from bindex.indices import IndexKind

FAMILY_TOP_N = 36
VERIFY_NS = range(5, 11)
VERIFY_CAP = 10
LABELED_NS = range(1, 8)
CLI_ENUMERATE_N = 9
CLI_RANDOM_GRAPHS = 1000
CLI_RANDOM_ORDERS = (20, 60)


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def child_cpu_seconds(pid: int) -> float:
    """CPU seconds a running child has used so far."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        return int(fh.read().split()[0]) / 1e9


class Clock:
    """CPU time of one timed body and, where a body streams, of its first row.

    CPU time, not wall time: the measuring machine is a virtual machine that
    loses a varying share of its time to other tenants, and wall time would
    count that loss as ours.
    """

    def __init__(self):
        self.start = cpu_seconds()
        self.first_row: float | None = None

    def elapsed(self) -> float:
        return cpu_seconds() - self.start


def count_items(module, attr: str, counts: dict) -> None:
    """Replace module.attr(n, ...), a generator, by one that stores in
    counts[n] how many items it yielded; a pass-through for the gate."""
    generate = getattr(module, attr)

    def counted(n, *args, **kwargs):
        items = 0
        for item in generate(n, *args, **kwargs):
            items += 1
            yield item
        counts[n] = items

    setattr(module, attr, counted)


def _family_members(top_n: int):
    for n in range(5, top_n + 1):
        for k in range(1, n - 3):
            for x in range(2, (n - k) // 2 + 1):
                yield n, k, x


class FamilySweep:
    """Criterion 1: every B_k(x, n-k-x), direct indices against closed forms."""

    def prepare(self, seed: int, workdir: Path, src: Path) -> None:
        pass

    def body(self, clock: Clock, tracer) -> list:
        out = []
        for n in range(5, FAMILY_TOP_N + 1):
            for k in range(1, n - 3):
                for x in extremal.admissible_x(n, k):
                    g = constructors.b_graph(constructors.BkSpec(n, k, x))
                    direct = indices.all_indices(g)
                    closed = [extremal.closed_form(kind, n, k, x) for kind in IndexKind]
                    out.append(((n, k, x), [direct[kind] for kind in IndexKind], closed))
        return out

    def check(self, out: list) -> tuple[int, int]:
        members = list(_family_members(FAMILY_TOP_N))
        got = {key: (direct, closed) for key, direct, closed in out}
        failed = sum(key not in got or got[key][0] != got[key][1] for key in members)
        return len(members), failed


class OracleVerify:
    """verify for n = 5..10: exhaustive enumeration against every bound row."""

    def __init__(self):
        self.classes: dict[int, int] = {}

    def prepare(self, seed: int, workdir: Path, src: Path) -> None:
        count_items(oracle, "enumerate_connected_bipartite", self.classes)

    def body(self, clock: Clock, tracer) -> list:
        out = []
        for report in oracle.verification_sweep(VERIFY_NS, cap=VERIFY_CAP):
            out.append(report.to_dict())
        return out

    def first_row(self) -> float:
        """CPU seconds from starting the sweep to its first report."""
        clock = Clock()
        sweep = oracle.verification_sweep(VERIFY_NS, cap=VERIFY_CAP)
        next(sweep)
        elapsed = clock.elapsed()
        sweep.close()
        return elapsed

    def check(self, out: list) -> tuple[int, int]:
        expected = {
            (kind, n, k)
            for n in VERIFY_NS
            for k in list(range(1, n - 3)) + [n - 1]
            for kind in reference.INDEX_KEYS
        }
        failed = 0
        seen = set()
        for row in out:
            key = (row["index"], row["n"], row["k"])
            ok = (
                key in expected
                and key not in seen
                and row["verdict"] == "match"
                and Fraction(row["oracle_value"]) == Fraction(row["predicted_value"])
                and row["oracle_certificates"] == row["predicted_certificates"]
            )
            seen.add(key)
            failed += not ok
        failed += len(expected - seen)
        failed += sum(self.classes.get(n) != reference.CLASSES[n] for n in VERIFY_NS)
        return len(expected) + len(VERIFY_NS), failed


class LabeledScan:
    """Criterion 7: labeled mask scan plus orbit collapse against enumeration."""

    def __init__(self):
        self.masks_kept: dict[int, int] = {}

    def prepare(self, seed: int, workdir: Path, src: Path) -> None:
        # The mask counts are checked against OEIS A001832; keep the length
        # of each scan's result, nothing else, so untraced timing is unchanged.
        scan = oracle.labeled_connected_bipartite_masks

        def kept(n, *args):
            masks = scan(n, *args)
            self.masks_kept[n] = len(masks)
            return masks

        oracle.labeled_connected_bipartite_masks = kept

    def body(self, clock: Clock, tracer) -> list:
        out = []
        for n in LABELED_NS:
            labeled = oracle.labeled_class_certificates(n)
            generated = {graphs.certificate(g) for g in oracle.enumerate_connected_bipartite(n)}
            out.append((n, sorted(labeled), sorted(generated)))
        return out

    def check(self, out: list) -> tuple[int, int]:
        by_n = {n: (labeled, generated) for n, labeled, generated in out}
        failed = 0
        for n in LABELED_NS:
            labeled, generated = by_n.get(n, (None, None))
            failed += labeled is None or labeled != generated
            failed += labeled is None or len(labeled) != reference.CLASSES[n]
        scanned = [n for n in LABELED_NS if n >= 2]
        failed += sum(self.masks_kept.get(n) != reference.LABELED[n] for n in scanned)
        return 2 * len(LABELED_NS) + len(scanned), failed


class CliPipeline:
    """`bindex enumerate --n 9`, then `bindex indices --format csv` over its
    output plus seeded random graphs, each a fresh CLI process."""

    def prepare(self, seed: int, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        lo, hi = CLI_RANDOM_ORDERS
        self.random_lines = gengraphs.graph6_lines(seed, CLI_RANDOM_GRAPHS, lo, hi)
        self.random_text = "".join(line + "\n" for line in self.random_lines).encode("ascii")
        self.runs = 0

    def _command(self, tracer, args: list[str]) -> list[str]:
        if tracer is None:
            return [sys.executable, "-c", "from bindex.cli import main; main()", *args]
        self.runs += 1
        run_id = f"cli-{self.runs}-{args[0]}"
        spans_out = self.workdir / f"{run_id}.jsonl.gz"
        self.child_spans.append(spans_out)
        child = Path(__file__).resolve().parent / "cli_child.py"
        return [sys.executable, str(child), str(spans_out), run_id, *args]

    def body(self, clock: Clock, tracer) -> tuple[str, str]:
        self.child_spans: list[Path] = []
        classes = self.workdir / "classes.g6"
        with open(classes, "wb") as fh:
            subprocess.run(
                self._command(tracer, ["enumerate", "--n", str(CLI_ENUMERATE_N)]),
                stdout=fh,
                env=self.env,
                check=True,
            )
        classes_text = classes.read_bytes()
        stream = self.workdir / "input.g6"
        stream.write_bytes(classes_text + self.random_text)
        with open(stream, "rb") as stdin:
            with subprocess.Popen(
                self._command(tracer, ["indices", "--format", "csv"]),
                stdin=stdin,
                stdout=subprocess.PIPE,
                env=self.env,
            ) as child:
                header = child.stdout.readline()
                first = child.stdout.readline()
                if first:
                    # measured from the launch of `indices`, not of the body
                    clock.first_row = child_cpu_seconds(child.pid)
                csv_text = header + first + child.stdout.read()
            if child.returncode != 0:
                raise subprocess.CalledProcessError(child.returncode, child.args)
        return classes_text.decode("ascii"), csv_text.decode("ascii")

    def cli_rows(self, out: tuple[str, str]) -> int:
        return max(len(out[1].splitlines()) - 1, 0)

    def check(self, out: tuple[str, str]) -> tuple[int, int]:
        classes_text, csv_text = out
        class_lines = classes_text.split()
        nx_classes = [reference.from_graph6(line) for line in class_lines]
        failed = int(
            len(class_lines) != reference.CLASSES[CLI_ENUMERATE_N]
            or len(set(class_lines)) != len(class_lines)
            or not reference.pairwise_non_isomorphic(nx_classes)
        )
        failed += sum(
            g.number_of_nodes() != CLI_ENUMERATE_N or not reference.connected_bipartite(g)
            for g in nx_classes
        )
        inputs = class_lines + self.random_lines
        rows = csv_text.splitlines()
        columns = ["graph6", "n", "m", *reference.INDEX_KEYS, "error"]
        failed += not rows or rows[0] != ",".join(columns)
        data = [row.split(",") for row in rows[1:]]
        failed += abs(len(data) - len(inputs))
        for line, fields in zip(inputs, data):
            failed += fields != _expected_row(line, columns)
        return 1 + len(class_lines) + 1 + len(inputs), failed


def _expected_row(line: str, columns: list[str]) -> list[str]:
    g = reference.from_graph6(line)
    values = reference.indices_of(g)
    row = {"graph6": line, "n": str(g.number_of_nodes()), "m": str(g.number_of_edges()), "error": ""}
    row.update((key, str(value)) for key, value in values.items())
    return [row[c] for c in columns]


WORKLOADS = {
    "family_sweep": FamilySweep,
    "oracle_verify": OracleVerify,
    "labeled_scan": LabeledScan,
    "cli_pipeline": CliPipeline,
}
