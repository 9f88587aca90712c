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
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from bindex import cli, indices
from bindex.constructors import BkSpec, b_graph, star
from bindex.graphs import graph6_encode, new_graph
from bindex.indices import IndexKind

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
    assert res.returncode == 1
    assert "error" in res.stderr


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


@pytest.mark.parametrize("broken", ["exact", "sign"])
def test_probe_reports_a_broken_contract(monkeypatch, broken):
    # the realized graphs cannot break a true contract, so break the prediction:
    # one exact delta off by one, or one index given a sign that points wrong
    real = cli.shift_pendants_within_part

    def wrong(core, donor, receiver):
        pred = real(core, donor, receiver)
        if broken == "exact":
            bad = {IndexKind.WW: pred.expected[IndexKind.WW] + 1}
        else:
            bad = {IndexKind.H: "<0"}  # H rises here, so "<0" must fail
        return replace(pred, expected={**pred.expected, **bad})

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
    assert "48 (2,)" in lines and "match" in lines  # the values its comments state
