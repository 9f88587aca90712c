"""Benchmark for bindex, driven from outside with PYTHONPATH=src.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the workload's body is
repeated for about S seconds, untraced, and the last line of standard
output is a JSON object with the end-to-end metrics: medians over the
repetitions of CPU seconds normalized for the machine's speed (see
workloads.Clock and speed.py). With --trace 1 the body runs untraced,
traced (span wrappers installed) and untraced again, and the JSON carries
the per-layer metrics instead.
Either way every output is checked against independent references after
timing; `failed` counts the wrong ones. Workloads and predictions are
described in benchmarks/predictions.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_SAMPLES = 9
FIRST_ROW_SAMPLES = 50  # per repetition, where the workload times its first row apart
IMPORT_PROBE = (
    "import time; t = time.process_time(); import bindex, bindex.cli; "
    "print(time.process_time() - t)"
)


def setup_seconds() -> float:
    """Median CPU time to import bindex and bindex.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def timed(workload, tracer=None):
    """One run of the body: (CPU seconds, first-row CPU seconds, output)."""
    from workloads import Clock  # imports bindex, so only once SRC is on the path

    spans.clear_profile_cache()
    if tracer is not None:
        tracer.install(spans.LIBRARY_HOOKS)
    try:
        clock = Clock()
        out = workload.body(clock, tracer)
        cpu = clock.elapsed()
    finally:
        if tracer is not None:
            tracer.restore()
            spans.count_profile_cache(tracer.counts)
    return cpu, clock.first_row, out


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Gauge:
    """Reference passes taken between timed stretches of a run.

    scale() takes a new pass and returns the factor that normalizes the
    stretch since the previous one (see speed.py).
    """

    def __init__(self):
        self.passes = [speed.reference_cpu()]

    def scale(self) -> float:
        self.passes.append(speed.reference_cpu())
        return speed.NOMINAL_S / ((self.passes[-2] + self.passes[-1]) / 2)


def end_to_end(workload, name: str, seconds: float):
    """Repeat the body for about `seconds`; medians of its normalized times.

    Returns the metrics, the first repetition's output, the number of
    repetitions and how many of them differed from the first in output.
    """
    cpus, first_rows, differing = [], [], 0
    gauge = Gauge()
    started = time.perf_counter()
    while not cpus or (time.perf_counter() - started) * (len(cpus) + 1) / len(cpus) <= seconds:
        cpu, first_row, out = timed(workload)
        if cpus:
            differing += out != first_out
        else:
            # high-water mark of one repetition, however many follow
            rss = peak_rss_mib(children=name == "cli_pipeline")
            first_out = out
        del out
        if hasattr(workload, "first_row"):
            rows = []
            for _ in range(FIRST_ROW_SAMPLES):
                spans.clear_profile_cache()
                rows.append(workload.first_row())
        else:
            # a body that does not stream hands over its one result at the end
            rows = [cpu if first_row is None else first_row]
        scale = gauge.scale()
        cpus.append(cpu * scale)
        first_rows += [row * scale for row in rows]
    setup = setup_seconds() * gauge.scale()
    metrics = {
        "norm_cpu_s": (statistics.median(cpus), "s"),
        "norm_first_row_s": (statistics.median(first_rows), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return metrics, first_out, len(cpus), differing


def per_layer(workload, name: str, seed: int):
    """The body untraced, traced, then untraced again; per-layer metrics.

    The first run only warms the process up, so that the overhead ratio
    compares two runs that both start warm. Span times are normalized like
    the end-to-end times.
    """
    _, _, first_out = timed(workload)
    gauge = Gauge()
    tracer = spans.Tracer(f"{name}-{seed}")
    traced_cpu, _, traced_out = timed(workload, tracer)
    traced_scale = gauge.scale()
    child_paths = list(getattr(workload, "child_spans", []))
    plain_cpu, _, plain_out = timed(workload)
    plain_scale = gauge.scale()
    all_spans = list(tracer.spans)
    counts = tracer.counts
    for path in child_paths:
        child_spans, child_counts = spans.load(path)
        all_spans += child_spans
        counts.update(child_counts)
    values = spans.layer_metrics(all_spans, counts)
    for key in values:
        if key.endswith("_s"):
            values[key] *= traced_scale
    values["cli.rows"] = workload.cli_rows(traced_out) if name == "cli_pipeline" else 0
    values["trace.overhead_ratio"] = traced_cpu * traced_scale / (plain_cpu * plain_scale)
    spans.dump(OUT / f"spans-{name}.jsonl.gz", all_spans, counts)
    metrics = {key: (value, _unit(key)) for key, value in values.items()}
    return metrics, first_out, 3, (traced_out != first_out) + (plain_out != first_out)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "bindex" / "__init__.py").is_file():
        print(f"error: no bindex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the children it starts, so that the
    # reference passes in speed.py time the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload.prepare(args.seed, workdir, SRC)
        if args.trace:
            metrics, out, reps, differing = per_layer(workload, args.workload, args.seed)
        else:
            metrics, out, reps, differing = end_to_end(workload, args.workload, args.seconds)
        checked, failed = workload.check(out)
        # later repetitions must repeat the checked output exactly
        attempted = checked * reps
        failed += checked * differing
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
