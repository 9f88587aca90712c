"""End-to-end CLI checks in a separate process, through `python -m bindex`.

`python -m bindex` calls the same `bindex.cli:main` as the installed
`bindex` console script, so these tests need no install: the child uses
the test process's interpreter and PYTHONPATH. Two checks at the end tie
the console script to that same entry point.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from bindex import cli, indices, oracle, transforms
from bindex.constructors import BkSpec, b_graph, star
from bindex.graphs import bridges, graph6_decode, graph6_encode, new_graph
from bindex.indices import IndexKind
from bindex.oracle import load_reports

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "bindex", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def no_such_option(name, *possibilities):
    """The installed click's message for an unknown option name."""
    return click.exceptions.NoSuchOption(name, possibilities=list(possibilities)).format_message()


def test_help_lists_commands():
    res = run("--help")
    assert res.returncode == 0
    for cmd in ("indices", "construct", "bound", "verify", "enumerate", "probe"):
        assert cmd in res.stdout


def test_indices_from_stdin():
    g6 = graph6_encode(b_graph(BkSpec(5, 1, 2)))
    res = run("indices", "--format", "csv", stdin=g6 + "\n")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 1
    row = rows[0]
    assert row["graph6"] == g6
    assert row["n"] == "5" and row["m"] == "5"
    assert row["w"] == "16" and row["ww"] == "23"
    assert row["h"] == "22/3" and row["cei"] == "9/2" and row["eds"] == "79"
    assert row["error"] == ""


def test_indices_keeps_bad_rows():
    res = run("indices", "--format", "csv", stdin="DhC\n!!bad!!\n")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 2
    assert rows[0]["error"] == "" and rows[0]["w"] == "20"
    assert rows[1]["error"] != "" and rows[1]["w"] == ""


def test_indices_reads_bytes_the_same_from_file_and_stdin(tmp_path):
    # 0xff, a UTF-8 e-acute (0xc3 0xa9) and 0xa0 are bytes, not text: each row
    # names its own first bad byte and echoes the line in ASCII
    data = b"DhC\n\xff\nF\xc3\xa9\n\xa0\r\n!!bad!!\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    for fmt in ("csv", "json", "human"):
        cmd = [sys.executable, "-m", "bindex", "indices", "--format", fmt]
        by_file = subprocess.run(cmd + ["-i", str(path)], capture_output=True, timeout=120)
        by_stdin = subprocess.run(cmd, input=data, capture_output=True, timeout=120)
        assert by_file.returncode == by_stdin.returncode == 0, by_file.stderr
        assert by_file.stdout == by_stdin.stdout, fmt
        assert by_file.stderr == by_stdin.stderr == b""
    rows = parse_csv(run("indices", "-i", str(path), "--format", "csv").stdout)
    assert [(r["graph6"], r["w"], r["error"]) for r in rows] == [
        ("DhC", "20", ""),
        ("\\xff", "", "invalid graph6 byte 0xff at offset 0"),
        ("F\\xc3\\xa9", "", "invalid graph6 byte 0xc3 at offset 1"),
        ("\\xa0", "", "invalid graph6 byte 0xa0 at offset 0"),
        ("!!bad!!", "", "invalid graph6 byte 0x21 at offset 0"),
    ]


def test_indices_csv_streams_rows_before_stdin_closes():
    # a buffered child stdout, so a row shows up only if the command flushes it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bindex", "indices", "--format", "csv"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        proc.stdin.write(b"DhC\n")
        proc.stdin.flush()
        got = b""
        deadline = time.monotonic() + 60  # a hang fails here instead of blocking
        while got.count(b"\n") < 2:
            ready, _, _ = select.select([proc.stdout], [], [], max(0, deadline - time.monotonic()))
            assert ready, f"no first row while stdin is open, got {got!r}"
            chunk = os.read(proc.stdout.fileno(), 4096)
            assert chunk, f"output ended early: {got!r}"
            got += chunk
        assert proc.poll() is None  # still reading stdin
        assert got == b"graph6,n,m,w,ww,h,cei,eds,error\nDhC,5,4,20,35,77/12,17/6,134,\n"
        proc.stdin.write(b"Dhc\n")
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stdout.read().startswith(b"Dhc,5,5,")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def test_indices_names_an_input_it_cannot_read(tmp_path):
    missing = tmp_path / "missing.g6"
    res = run("indices", "--input", str(missing))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex indices [OPTIONS]\n"
        "Try 'bindex indices --help' for help.\n"
        "\n"
        f"Error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_indices_skips_blank_and_whitespace_lines():
    res = run("indices", "--format", "csv", "--index", "w", stdin="Ch\n\n   \nCh\n")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "graph6,n,m,w,error\nCh,4,3,10,\nCh,4,3,10,\n"


def test_indices_from_file(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text(graph6_encode(star(5)) + "\n")
    res = run("indices", "-i", str(p), "--format", "json", "--index", "w")
    assert res.returncode == 0
    rows = json.loads(res.stdout)
    assert rows[0]["w"] == "16"


def test_construct_families():
    assert run("construct", "star", "--n", "6").stdout.strip() == graph6_encode(star(6))
    assert (
        run("construct", "bk", "--n", "8", "--k", "2", "--x", "3").stdout.strip()
        == graph6_encode(b_graph(BkSpec(8, 2, 3)))
    )
    # the tree row needs no --x
    assert (
        run("construct", "bk", "--n", "6", "--k", "5").stdout.strip()
        == graph6_encode(b_graph(BkSpec(6, 5, 1)))
    )
    res = run("construct", "kst", "--s", "2", "--t", "3")
    assert res.returncode == 0 and res.stdout.strip()


def test_construct_usage_errors():
    assert run("construct", "star").returncode == 1
    assert run("construct", "bk", "--n", "8", "--k", "2").returncode == 1
    # an option of another family is an error, not ignored
    for args, message in [
        (["star", "--n", "5", "--k", "2"], no_such_option("--k", "--n")),
        (["kst", "--s", "2", "--t", "3", "--n", "9", "--x", "4"],
         no_such_option("--n", "--s", "--t")),
    ]:
        res = run("construct", *args)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == (
            f"Usage: bindex construct {args[0]} [OPTIONS]\n"
            f"Try 'bindex construct {args[0]} --help' for help.\n"
            "\n"
            f"Error: {message}\n"
        )


def test_construct_infeasible_exit_code():
    res = run("construct", "bk", "--n", "9", "--k", "7", "--x", "1")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_bound_optimize():
    res = run("bound", "--n", "8", "--k", "2", "--index", "w", "--format", "json")
    assert res.returncode == 0
    row = json.loads(res.stdout)[0]
    assert row["value"] == "48"
    assert row["optimal_x"] == "2"
    assert row["family"] == "B_2(2,4)"
    assert row["direction"] == "lower"


def test_bound_evaluate_at_x():
    res = run(
        "bound", "--n", "8", "--k", "2", "--x", "3", "--index", "w", "--format", "csv"
    )
    assert res.returncode == 0
    assert parse_csv(res.stdout)[0]["value"] == "49"
    # closed_form owns the x rule: its message names n and k, stdout stays empty
    res = run("bound", "--n", "8", "--k", "2", "--x", "5")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: x=5 not admissible for n=8, k=2: need integer 2 <= x <= n-k-x\n"
    res = run("bound", "--n", "8", "--k", "7", "--x", "1")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: the tree row k = n-1 has no x freedom\n"


def test_bound_infeasible_k():
    assert run("bound", "--n", "9", "--k", "7").returncode == 2


def test_bound_rejects_reconcile_with_x():
    res = run("bound", "--n", "10", "--k", "2", "--x", "3", "--reconcile")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex bound [OPTIONS]\n"
        "Try 'bindex bound --help' for help.\n"
        "\n"
        "Error: --reconcile cannot be combined with --x\n"
    )


def test_bound_reconcile_flags_table_quirk():
    res = run(
        "bound", "--n", "10", "--k", "2", "--index", "ww", "--reconcile",
        "--format", "json",
    )
    assert res.returncode == 0
    row = json.loads(res.stdout)[0]
    assert row["clause"] == "ww.iii"
    assert row["table_value"] == "225/2"
    assert row["value"] == "113"
    assert row["consistent"] == "no"
    assert row["notes"]


def test_bound_reconcile_consistent_row():
    res = run(
        "bound", "--n", "8", "--k", "2", "--index", "w", "--reconcile",
        "--format", "json",
    )
    row = json.loads(res.stdout)[0]
    assert row["consistent"] == "yes"


def test_verify_round_trip(tmp_path):
    res = run("verify", "--n", "5", "--strict")
    assert res.returncode == 0
    lines = [json.loads(s) for s in res.stdout.splitlines()]
    assert len(lines) == 10  # two feasible k, five indices
    assert all(d["verdict"] == "match" for d in lines)
    out = tmp_path / "rows.jsonl"
    first = run("verify", "--n", "5", "--out", str(out))
    assert first.returncode == 0
    assert len(out.read_text().splitlines()) == 10
    again = run("verify", "--n", "5", "--out", str(out), "--resume")
    assert again.returncode == 0
    assert "wrote 0 rows" in again.stderr
    assert len(out.read_text().splitlines()) == 10


def test_verify_resume_names_file_and_line_of_a_cut_row(tmp_path):
    out = tmp_path / "rows.jsonl"
    assert run("verify", "--n", "5", "--out", str(out)).returncode == 0
    text = out.read_text()
    first_row = text.index("\n") + 1
    out.write_text(text[: first_row + 100])  # second row cut mid-object
    res = run("verify", "--n", "5", "--out", str(out), "--resume")
    assert res.returncode == 1
    assert f"{out}, line 2:" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_resume_starts_a_new_line_after_a_kept_row_without_one(tmp_path):
    # a hand edit, or a kill just before the row's newline, can leave it off
    out = tmp_path / "rows.jsonl"
    assert run("verify", "--n", "5", "--index", "w", "--out", str(out)).returncode == 0
    first, second = out.read_text().splitlines()
    out.write_text(first)
    res = run("verify", "--n", "5", "--index", "w", "--out", str(out), "--resume")
    assert (res.returncode, res.stderr) == (0, f"wrote 1 rows to {out}\n")
    assert out.read_text() == f"{first}\n{second}\n"
    assert len(load_reports(out)) == 2
    again = run("verify", "--n", "5", "--index", "w", "--out", str(out), "--resume")
    assert (again.returncode, again.stderr) == (0, f"wrote 0 rows to {out}\n")
    assert out.read_text() == f"{first}\n{second}\n"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"oracle_value": "1/0"}, "ZeroDivisionError('Fraction(1, 0)')"),
        ({"n": "5"}, """ValueError('n is "5", its report writes 5')"""),
        ({"verdict": "banana"}, """ValueError('verdict is "banana", its report writes "match"')"""),
        (
            {"oracle_certificates": "DFw"},
            """ValueError('oracle_certificates is "DFw", its report writes ["D", "F", "w"]')""",
        ),
    ],
    ids=["zero-denominator", "n-as-text", "unknown-verdict", "certificates-as-text"],
)
def test_verify_resume_rejects_a_row_it_would_not_write(tmp_path, change, message):
    out = tmp_path / "rows.jsonl"
    assert run("verify", "--n", "5", "--index", "w", "--out", str(out)).returncode == 0
    first, rest = out.read_text().split("\n", 1)
    out.write_text(json.dumps({**json.loads(first), **change}) + "\n" + rest)
    res = run("verify", "--n", "5", "--index", "w", "--out", str(out), "--resume", "--strict")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == f"error: {out}, line 1: not a report row ({message})\n"


@pytest.mark.parametrize("mismatch_first", [True, False], ids=["mismatch-first", "match-first"])
def test_verify_resume_rejects_a_repeated_row(tmp_path, mismatch_first):
    # a second row for (w, 5, 1) would silently replace the first, so either
    # order is an error, not a verdict
    row = json.loads(run("verify", "--n", "5", "--index", "w", "--k", "1").stdout)
    rows = [{**row, "oracle_value": "0", "verdict": "value-mismatch"}, row]
    if not mismatch_first:
        rows.reverse()
    out = tmp_path / "rows.jsonl"
    out.write_text("".join(json.dumps(r) + "\n" for r in rows))
    res = run("verify", "--n", "5", "--index", "w", "--k", "1", "--out", str(out), "--resume", "--strict")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == f"error: {out}, line 2: the w row for n=5, k=1 repeats line 1\n"


def test_verify_reports_a_computed_mismatch(monkeypatch):
    # the oracle and the closed forms agree on every row, so break the prediction:
    # one row's predicted value off by one
    real = oracle.optimize

    def wrong(kind, n, k):
        bound = real(kind, n, k)
        return replace(bound, value=bound.value + 1)

    monkeypatch.setattr(oracle, "optimize", wrong)
    args = ["verify", "--n", "5", "--index", "w", "--k", "1"]
    res = CliRunner().invoke(cli.cli, args)
    assert res.exit_code == 0, res.output
    (row,) = [json.loads(line) for line in res.stdout.splitlines()]
    assert (row["predicted_value"], row["verdict"]) == ("17", "value-mismatch")
    assert res.stderr == "mismatch: w n=5 k=1 value-mismatch\n"
    assert CliRunner().invoke(cli.cli, args + ["--strict"]).exit_code == 3


def test_verify_resume_without_out_is_a_usage_error():
    res = run("verify", "--n", "5", "--resume")
    assert res.returncode == 1
    assert "Error: --resume needs --out" in res.stderr
    assert res.stdout == ""  # refused before any row was computed


@pytest.mark.parametrize("k", ["5", "0", "9"])
def test_verify_k_that_is_no_bound_row_exits_2(tmp_path, k):
    # n = 8 has bound rows k = 1..4 and 7
    res = run("verify", "--n", "8", "--k", k)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"error: no bound row for k={k} at n=8:" in res.stderr
    out = tmp_path / "rows.jsonl"
    out.write_text("earlier rows\n")
    res = run("verify", "--n", "8", "--k", k, "--out", str(out))
    assert res.returncode == 2
    assert res.stdout == ""
    assert out.read_text() == "earlier rows\n"  # refused before --out was opened


def test_verify_k_keeps_the_n_it_fits():
    # k = 2 is a bound row at n = 8 only (n = 5 has rows 1 and 4)
    res = run("verify", "--n", "5", "--n", "8", "--k", "2", "--index", "w")
    assert res.returncode == 0
    rows = [json.loads(s) for s in res.stdout.splitlines()]
    assert [(d["n"], d["k"]) for d in rows] == [(8, 2)]


def test_verify_streams_rows_so_an_interrupted_run_can_resume(tmp_path, monkeypatch):
    real = cli.verification_sweep

    def dies_after_first_row(*args, **kwargs):
        sweep = real(*args, **kwargs)
        yield next(sweep)
        raise RuntimeError("killed")

    out = tmp_path / "rows.jsonl"
    monkeypatch.setattr(cli, "verification_sweep", dies_after_first_row)
    res = CliRunner().invoke(cli.cli, ["verify", "--n", "5", "--out", str(out)])
    assert isinstance(res.exception, RuntimeError)
    (first,) = [json.loads(s) for s in out.read_text().splitlines()]
    monkeypatch.setattr(cli, "verification_sweep", real)
    res = CliRunner().invoke(cli.cli, ["verify", "--n", "5", "--out", str(out), "--resume"])
    assert res.exit_code == 0
    assert f"wrote 9 rows to {out}" in res.stderr
    rows = [json.loads(s) for s in out.read_text().splitlines()]
    assert rows[0] == first
    assert len({(r["index"], r["n"], r["k"]) for r in rows}) == len(rows) == 10


def test_interrupted_verify_keeps_its_finished_rows_for_resume(tmp_path):
    # n = 12 takes about 20 s of CPU, far longer than n = 11, so SIGINT lands
    # while the sweep is still running
    out = tmp_path / "rows.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "bindex", "verify", "--n", "11", "--n", "12", "--cap", "12", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not (out.exists() and "\n" in out.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline, "no row written"
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert (proc.returncode, stdout, stderr) == (1, "", "\naborted\n")
    rows = load_reports(out)
    assert rows and {n for _, n, _ in rows} == {11}
    assert len(rows) == out.read_text().count("\n")  # whole rows only


def test_a_reader_that_closes_early_ends_the_command_with_exit_1(tmp_path):
    # about 1 MB of CSV, far more than a pipe holds, so the child is still writing
    src = tmp_path / "many.g6"
    src.write_text("Ch\n" * 20000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bindex", "indices", "--input", str(src), "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"graph6,n,m,w,ww,h,cei,eds,error\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (1, b"")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_verify_names_the_out_file_it_cannot_write():
    res = run("verify", "--n", "5", "--out", "/dev/full")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", "--n", "5"],
        ["indices", "--input", os.devnull, "--format", "json"],
        ["verify", "--n", "5"],
    ],
    ids=["enumerate", "indices", "verify"],
)
def test_a_full_stdout_is_named(args):
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "bindex", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert (res.returncode, res.stderr) == (
        1,
        "error: cannot write standard output: [Errno 28] No space left on device\n",
    )


def test_verify_resume_strict_exits_3_on_a_mismatch_kept_in_out(tmp_path):
    # the one kept row is a value mismatch; the two rows written match
    row = json.loads(run("verify", "--n", "6", "--index", "w", "--k", "1").stdout)
    out = tmp_path / "rows.jsonl"
    out.write_text(json.dumps({**row, "oracle_value": "0", "verdict": "value-mismatch"}) + "\n")
    res = run("verify", "--n", "6", "--index", "w", "--resume", "--strict", "--out", str(out))
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == f"wrote 2 rows to {out}\nmismatch: w n=6 k=1 value-mismatch\n"
    assert len(out.read_text().splitlines()) == 3


def test_enumerate_above_cap_names_the_option():
    res = run("enumerate", "--n", "10")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "error: n=10 above cap=9: raise the cap argument (--cap on the command line)"
        " explicitly for big sweeps\n"
    )


@pytest.mark.parametrize(
    "golden, args, stdin",
    [
        ("enumerate_n7.g6", ["enumerate", "--n", "7"], None),
        ("indices_n7.csv", ["indices", "--format", "csv"], "enumerate_n7.g6"),
        ("verify_n5_n6.jsonl", ["verify", "--n", "5", "--n", "6"], None),
        (
            "bound_n10_k2_reconcile.csv",
            ["bound", "--n", "10", "--k", "2", "--reconcile", "--format", "csv"],
            None,
        ),
        (
            "probe_shift_within_s3_t3_exact.csv",  # exact CEI and EDS
            ["probe", "shift-within", "--s", "3", "--t", "3", "--a", "2", "--b", "3",
             "--others", "2:1", "--format", "csv"],
            None,
        ),
        (
            "probe_shift_within_s3_t4_signs.csv",  # CEI >0 and EDS <0
            ["probe", "shift-within", "--s", "3", "--t", "4", "--a", "2", "--b", "3",
             "--format", "csv"],
            None,
        ),
        (
            "probe_shift_across_s2_t3.csv",
            ["probe", "shift-across", "--s", "2", "--t", "3", "--format", "csv"],
            None,
        ),
        (
            "probe_contract_p4.csv",
            ["probe", "contract", "--g6", "Ch", "--u", "1", "--w", "2", "--format", "csv"],
            None,
        ),
        (
            "bound_n9_k8_reconcile.json",  # the tree row, S_9 for every kind
            ["bound", "--n", "9", "--k", "8", "--reconcile", "--format", "json"],
            None,
        ),
        (
            "bound_n11_k1_reconcile.txt",  # human table; EDS's two-x family
            ["bound", "--n", "11", "--k", "1", "--reconcile"],
            None,
        ),
        (
            "bound_n10_k2_x3.json",
            ["bound", "--n", "10", "--k", "2", "--x", "3", "--format", "json"],
            None,
        ),
    ],
)
def test_golden_outputs_are_byte_identical(golden, args, stdin):
    res = subprocess.run(
        [sys.executable, "-m", "bindex", *args],
        input=(GOLDEN / stdin).read_bytes() if stdin else None,
        capture_output=True,
        timeout=120,
    )
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / golden).read_bytes()


def test_enumerate_counts_and_fields():
    res = run("enumerate", "--n", "5")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 5
    assert lines == sorted(lines)
    res = run("enumerate", "--n", "6", "--k", "2", "--format", "json")
    rows = json.loads(res.stdout)
    assert len(rows) == 4
    assert all(r["cut_edges"] == 2 for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_k_writes_k_without_running_bridges_again(monkeypatch, fmt):
    # the filter already kept only graphs with k cut edges; the cut_edges
    # column is k, and each row still agrees with a fresh bridges count
    def rows(*args):
        res = CliRunner().invoke(cli.cli, ["enumerate", "--n", "7", *args, "--format", fmt])
        assert res.exit_code == 0, res.output
        return parse_csv(res.stdout) if fmt == "csv" else json.loads(res.stdout)

    everyone = rows()
    calls = []
    monkeypatch.setattr(cli, "bridges", lambda g: calls.append(g) or bridges(g))
    kept = rows("--k", "1")
    assert calls == []
    assert kept == [row for row in everyone if str(row["cut_edges"]) == "1"]
    assert len(kept) == 8
    assert all(len(bridges(graph6_decode(row["graph6"]))) == 1 for row in kept)


@pytest.mark.parametrize("args", [["--n", "0"], ["--n", "0", "--k", "0"]])
def test_enumerate_rejects_n_below_one(args):
    res = run("enumerate", *args)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: need n>=1, got n=0\n"


@pytest.mark.parametrize("k", [4, -1, 6])  # k = n-2, below 0, and past n-1
def test_enumerate_rejects_infeasible_k(k):
    res = run("enumerate", "--n", "6", "--k", str(k))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: no connected bipartite graph on n=6 vertices has k={k} cut edges"
        " (feasible k: 0, 1, 2, 5)\n"
    )


def test_probe_add_edge():
    g6 = graph6_encode(star(6))
    res = run("probe", "add-edge", "--g6", g6, "--strict", "--format", "csv")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert len(rows) == 10
    assert all(r["ok"] == "yes" for r in rows)


def test_probe_add_edge_sampled():
    g6 = graph6_encode(new_graph(8, [(i, (i + 1) % 8) for i in range(8)]))
    a = run("probe", "add-edge", "--g6", g6, "--samples", "4", "--seed", "9",
            "--format", "csv")
    b = run("probe", "add-edge", "--g6", g6, "--samples", "4", "--seed", "9",
            "--format", "csv")
    assert a.stdout == b.stdout
    assert len(parse_csv(a.stdout)) == 4


@pytest.mark.parametrize("seed", ["5", "0"])  # 0 is the default value, given on purpose
def test_probe_add_edge_seed_without_samples_is_a_usage_error(seed):
    res = run("probe", "add-edge", "--g6", "Ch", "--seed", seed)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex probe add-edge [OPTIONS]\n"
        "Try 'bindex probe add-edge --help' for help.\n"
        "\n"
        "Error: --seed needs --samples\n"
    )


def test_probe_g6_names_the_raw_argv_byte():
    # a non-UTF-8 argv byte reaches Python as a surrogate escape; the error
    # names the byte itself
    res = run("probe", "add-edge", "--g6", b"F\xe9")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: invalid graph6 byte 0xe9 at offset 1\n"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_probe_add_edge_rejects_samples_below_one(samples):
    g6 = graph6_encode(star(6))
    res = run("probe", "add-edge", "--g6", g6, "--samples", samples, "--strict")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"error: samples must be >= 1, got {samples}\n"


def test_probe_contract():
    g6 = graph6_encode(new_graph(4, [(0, 1), (1, 2), (2, 3)]))
    res = run("probe", "contract", "--g6", g6, "--u", "1", "--w", "2",
              "--strict", "--format", "csv")
    assert res.returncode == 0
    rows = parse_csv(res.stdout)
    assert [r["index"] for r in rows] == ["w", "ww", "h", "cei", "eds"]
    assert all(r["ok"] == "yes" for r in rows)
    deltas = {r["index"]: r["delta"] for r in rows}
    assert deltas["w"] == "-1" and deltas["eds"] == "-19"


def test_probe_contract_computes_each_graph_once(monkeypatch):
    # before, after and delta come from one all_indices call per graph
    real = indices._profile
    calls = []
    monkeypatch.setattr(indices, "_profile", lambda g: calls.append(g) or real(g))
    g6 = graph6_encode(new_graph(4, [(0, 1), (1, 2), (2, 3)]))
    args = ["probe", "contract", "--g6", g6, "--u", "1", "--w", "2", "--format", "csv"]
    res = CliRunner().invoke(cli.cli, args)
    assert res.exit_code == 0, res.output
    assert len(calls) == 2


def test_probe_contract_rejects_non_bridge():
    g6 = graph6_encode(new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    res = run("probe", "contract", "--g6", g6, "--u", "0", "--w", "1")
    assert (res.returncode, res.stdout, res.stderr) == (1, "", "error: (0, 1) is not a cut edge\n")


def test_probe_contract_names_an_endpoint_out_of_range():
    res = run("probe", "contract", "--g6", "Ch", "--u", "9", "--w", "1")  # Ch: P_4
    assert (res.returncode, res.stdout, res.stderr) == (1, "", "error: vertex 9 out of range for n=4\n")


def test_probe_contract_names_a_disconnected_graph():
    res = run("probe", "contract", "--g6", "CA", "--u", "1", "--w", "3")  # CA: one edge, (1, 3)
    assert (res.returncode, res.stdout, res.stderr) == (
        1, "", "error: contract_bridge needs a connected graph\n"
    )


def test_probe_shifts():
    res = run("probe", "shift-within", "--s", "3", "--t", "3", "--a", "2",
              "--b", "3", "--others", "2:1", "--strict", "--format", "csv")
    assert res.returncode == 0
    rows = {r["index"]: r for r in parse_csv(res.stdout)}
    assert rows["w"]["delta"] == "-12" and rows["w"]["expected"] == "-12"
    assert rows["cei"]["delta"] == "0" and rows["cei"]["expected"] == "0"
    assert rows["eds"]["delta"] == "-96"

    res = run("probe", "shift-across", "--s", "2", "--t", "3", "--strict",
              "--format", "csv")
    assert res.returncode == 0
    rows = {r["index"]: r for r in parse_csv(res.stdout)}
    assert rows["cei"]["delta"] == "2/3"
    assert all(r["ok"] == "yes" for r in rows.values())


@pytest.mark.parametrize(
    "others, message",
    [
        ("0:5", "vertex 0, the donor: give its pendants with --a"),
        ("2:1,1:4", "vertex 1, the receiver: give its pendants with --b"),
    ],
)
def test_probe_shift_within_rejects_others_on_donor_or_receiver(others, message):
    res = run("probe", "shift-within", "--s", "3", "--t", "3", "--a", "2", "--b", "3",
              "--others", others)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex probe shift-within [OPTIONS]\n"
        "Try 'bindex probe shift-within --help' for help.\n"
        "\n"
        f"Error: --others names {message}\n"
    )


def test_probe_shift_within_rejects_a_bad_pendant_spec():
    res = run("probe", "shift-within", "--s", "3", "--t", "3", "--others", "2x")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex probe shift-within [OPTIONS]\n"
        "Try 'bindex probe shift-within --help' for help.\n"
        "\n"
        "Error: bad pendant spec '2x', want vertex:count\n"
    )


def test_probe_shift_within_rejects_a_vertex_named_twice():
    res = run("probe", "shift-within", "--s", "3", "--t", "3", "--others", "2:1,2:4")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex probe shift-within [OPTIONS]\n"
        "Try 'bindex probe shift-within --help' for help.\n"
        "\n"
        "Error: --others names vertex 2 twice\n"
    )


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--donor", "4", "--others", "2:1"], "--donor"),  # click names the first only
        (["--receiver", "1"], "--receiver"),  # the default value, given on purpose
        (["--others", ""], "--others"),
    ],
)
def test_probe_shift_across_rejects_shift_within_options(extra, named):
    res = run("probe", "shift-across", "--s", "2", "--t", "3", *extra)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        "Usage: bindex probe shift-across [OPTIONS]\n"
        "Try 'bindex probe shift-across --help' for help.\n"
        "\n"
        f"Error: {no_such_option(named)}\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["add-edge", "--g6", "Ch", "--s", "3", "--a", "5"], no_such_option("--s", "--seed")),
        (["contract", "--g6", "Ch", "--u", "1", "--w", "2", "--samples", "3"],
         no_such_option("--samples")),
        (["shift-across", "--s", "2", "--t", "3", "--g6", "Ch"], no_such_option("--g6")),
        (["shift-within", "--s", "3", "--t", "3", "--seed", "0"],  # the default value
         no_such_option("--seed", "--s")),
    ],
    ids=["add-edge", "contract", "shift-across", "shift-within"],
)
def test_probe_rejects_options_of_another_kind(args, message):
    res = run("probe", *args)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == (
        f"Usage: bindex probe {args[0]} [OPTIONS]\n"
        f"Try 'bindex probe {args[0]} --help' for help.\n"
        "\n"
        f"Error: {message}\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["shift-within", "--s", "1", "--t", "3"],
         "within-part shift needs both core parts of size >= 2"),
        (["shift-across", "--s", "3", "--t", "2"],
         "across-part shift needs part sizes 2 <= s <= t"),
        (["shift-within", "--s", "2", "--t", "2", "--others", "9:1"],
         "core vertex 9 out of range for K_(2,2)"),
    ],
)
def test_probe_infeasible_shift_exits_2(args, message):
    res = run("probe", *args)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("broken", ["exact", "sign"])
def test_probe_reports_a_broken_contract(monkeypatch, broken):
    # the realized graphs cannot break a true contract, so break the prediction:
    # one exact delta off by one, or one index given a sign that points wrong
    real = cli.shift_pendants_within_part

    def wrong(core, donor, receiver):
        shifted, expected = real(core, donor, receiver)
        if broken == "exact":
            bad = {IndexKind.WW: expected[IndexKind.WW] + 1}
        else:
            bad = {IndexKind.H: "<0"}  # H rises here, so "<0" must fail
        return shifted, {**expected, **bad}

    monkeypatch.setattr(cli, "shift_pendants_within_part", wrong)
    args = ["probe", "shift-within", "--s", "3", "--t", "3", "--a", "2", "--b", "3",
            "--others", "2:1", "--format", "csv"]
    res = CliRunner().invoke(cli.cli, args)
    assert res.exit_code == 0, res.output
    rows = {r["index"]: r for r in parse_csv(res.output)}
    bad = "ww" if broken == "exact" else "h"
    assert {k for k, r in rows.items() if r["ok"] == "NO"} == {bad}
    assert rows[bad]["expected"] == ("-41" if broken == "exact" else "<0")
    assert CliRunner().invoke(cli.cli, args + ["--strict"]).exit_code == 3


def test_probe_add_edge_reports_a_broken_law(monkeypatch):
    # every added edge obeys the law, so break the law instead: H rises, so "<0" fails
    monkeypatch.setattr(transforms, "EDGE_ADDITION_SIGNS",
                        {**transforms.EDGE_ADDITION_SIGNS, IndexKind.H: "<0"})
    args = ["probe", "add-edge", "--g6", "Ch", "--format", "csv"]
    res = CliRunner().invoke(cli.cli, args)
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert [r["ok"] for r in rows] == ["NO"] * 3  # Ch has three absent edges
    assert CliRunner().invoke(cli.cli, args + ["--strict"]).exit_code == 3


@pytest.mark.parametrize(
    "command, options",
    [
        ("probe add-edge", "--g6 --samples --seed --strict --format"),
        ("probe contract", "--g6 --u --w --strict --format"),
        ("probe shift-within", "--s --t --a --b --donor --receiver --others --strict --format"),
        ("probe shift-across", "--s --t --a --b --strict --format"),
        ("construct star", "--n"),
        ("construct kst", "--s --t"),
        ("construct bk", "--n --k --x"),
    ],
)
def test_each_kind_lists_only_its_own_options(command, options):
    res = CliRunner().invoke(cli.cli, [*command.split(), "--help"])
    assert res.exit_code == 0, res.output
    listed = re.findall(r"^  (--[a-z0-9-]+)", res.output, re.M)
    assert listed == options.split() + ["--help"]


def test_output_is_deterministic():
    args = ("bound", "--n", "12", "--k", "3", "--reconcile", "--format", "csv")
    assert run(*args).stdout == run(*args).stdout


def test_indices_k1_error_empties_every_index():
    res = run("indices", "--format", "csv", stdin="@\n")
    assert res.returncode == 0
    (row,) = parse_csv(res.stdout)
    assert row["n"] == "1" and row["m"] == "0"
    assert "cei undefined" in row["error"]
    assert all(row[k] == "" for k in ("w", "ww", "h", "cei", "eds"))


@pytest.mark.parametrize(
    "index, value", [("w", "0"), ("ww", "0"), ("h", "0"), ("eds", "0"), ("cei", None)]
)
def test_indices_k1_single_index(index, value):
    # only CEI is undefined on K_1, so only --index cei gives the error
    res = run("indices", "--index", index, "--format", "csv", stdin="@\n")
    assert res.returncode == 0
    (row,) = parse_csv(res.stdout)
    assert list(row) == ["graph6", "n", "m", index, "error"]
    if value is None:
        assert row[index] == "" and "cei undefined" in row["error"]
    else:
        assert res.stdout == f"graph6,n,m,{index},error\n@,1,0,{value},\n"


def test_console_script_names_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    import bindex.__main__
    import bindex.cli

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["bindex"] == "bindex.cli:main"
    assert bindex.__main__.main is bindex.cli.main


@pytest.mark.skipif(shutil.which("bindex") is None, reason="bindex console script not installed")
def test_console_script_matches_module_run():
    script = subprocess.run(
        ["bindex", "--help"], capture_output=True, text=True, timeout=120
    )
    assert script.returncode == 0
    assert script.stdout == run("--help").stdout


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    res = subprocess.run(
        [sys.executable, "-c", block],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "8 11" in lines and "48 [2]" in lines and "match" in lines  # the values its comments state


def test_readme_shell_examples_run(tmp_path):
    # each `bindex ...` line of README's "Command line" block, run by bash in an
    # empty directory; pipefail makes the construct | indices pipe fail if either side does
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S)
    lines = [line for line in block.splitlines() if line.startswith("bindex ")]
    assert len(lines) == 6
    bindex = f'"{sys.executable}" -m bindex'
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    for line in lines:
        res = subprocess.run(
            ["bash", "-o", "pipefail", "-c", re.sub(r"\bbindex\b", lambda _: bindex, line)],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert res.returncode == 0, (line, res.stderr)
    assert len((tmp_path / "rows.jsonl").read_text().splitlines()) == 25  # verify --n 8 --out
