"""In-memory spans around the public calls of each bindex layer.

A wrapper replaces the module attribute the caller looks up: `from .graphs
import certificate` binds the name inside the calling module, so the
wrapper goes on `bindex.oracle.certificate`, not on `bindex.graphs`.
Each span is (name, start, end, parent, run id), timed on the process CPU
clock; a generator gets one span per resumption. Self time is a span's
duration minus that of its children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from importlib import import_module

# (module, attribute, span name, how): how is "call", "gen" (one span per
# resumption, counting the items yielded) or "split" (like gen, named by the
# part size s of _classes_with_parts(s, t)).
LIBRARY_HOOKS = [
    ("bindex.constructors", "b_graph", "constructors", "call"),
    ("bindex.constructors", "new_graph", "graphs.new_graph", "call"),
    ("bindex.indices", "all_indices", "indices", "call"),
    ("bindex.indices", "distances_from", "graphs.bfs", "call"),
    ("bindex.extremal", "closed_form", "extremal.closed_form", "call"),
    ("bindex.extremal", "compute", "indices", "call"),
    ("bindex.graphs", "certificate", "graphs.certificate", "call"),
    ("bindex.oracle", "all_indices", "indices", "call"),
    ("bindex.oracle", "optimize", "extremal.optimize", "call"),
    ("bindex.oracle", "bridges", "graphs.bridges", "call"),
    ("bindex.oracle", "certificate", "graphs.certificate", "call"),
    ("bindex.oracle", "b_graph", "constructors", "call"),
    ("bindex.oracle", "enumerate_connected_bipartite", "oracle.enumerate", "gen"),
    ("bindex.oracle", "_classes_with_parts", "oracle.enumerate", "split"),
    ("bindex.oracle", "labeled_connected_bipartite_masks", "oracle.labeled_scan", "call"),
    ("bindex.oracle", "labeled_class_certificates", "oracle.orbit_collapse", "call"),
]
CLI_HOOKS = [
    ("bindex.cli", "compute", "indices", "call"),
    ("bindex.cli", "graph6_decode", "graphs.graph6", "call"),
    ("bindex.cli", "graph6_encode", "graphs.graph6", "call"),
    ("bindex.cli", "certificate", "graphs.certificate", "call"),
    ("bindex.cli", "bridges", "graphs.bridges", "call"),
    ("bindex.cli", "enumerate_connected_bipartite", "oracle.enumerate", "gen"),
    ("bindex.cli", "main", "cli", "call"),
]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._last_graph = None

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.process_time()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.run_id)
        self.counts[name + ".calls"] += 1

    def _call(self, fn, name):
        def wrapper(*args, **kwargs):
            sid = self._open()
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            self._observe(name, args, result)
            return result

        return wrapper

    def _gen(self, fn, name_of):
        def wrapper(*args, **kwargs):
            name = name_of(args)
            it = fn(*args, **kwargs)
            while True:
                sid = self._open()
                start = time.process_time()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, name, start)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def _observe(self, name, args, result) -> None:
        if name == "oracle.labeled_scan":
            n = args[0]
            lo = args[1] if len(args) > 1 else 0
            hi = args[2] if len(args) > 2 and args[2] is not None else 1 << (n * (n - 1) // 2)
            self.counts["oracle.masks_scanned"] += hi - lo
            self.counts["oracle.masks_kept"] += len(result)
        elif name == "indices":
            graph = args[-1]  # all_indices(g) and compute(kind, g)
            if graph is not self._last_graph:
                self.counts["indices.graphs"] += 1
            self._last_graph = graph

    def _count_multisets(self, fn):
        counts = self.counts

        def wrapper(*args):
            for item in fn(*args):
                counts["oracle.multisets"] += 1
                yield item

        return wrapper

    def install(self, hooks) -> None:
        for module_name, attr, name, how in hooks:
            module = import_module(module_name)
            original = getattr(module, attr)
            if how == "call":
                wrapped = self._call(original, name)
            elif how == "gen":
                wrapped = self._gen(original, lambda args, name=name: name)
            else:
                wrapped = self._gen(original, lambda args, name=name: f"{name}.s{args[0]}")
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapped)
        oracle = import_module("bindex.oracle")
        original = oracle.combinations_with_replacement
        self._installed.append((oracle, "combinations_with_replacement", original))
        oracle.combinations_with_replacement = self._count_multisets(original)

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def dump(path, spans: list[tuple], counts: Counter) -> None:
    """Write spans as gzipped JSON lines, then one line of counters."""
    with gzip.open(path, "wt", encoding="ascii") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"counts": dict(counts)}) + "\n")


def load(path) -> tuple[list[tuple], Counter]:
    spans = []
    counts: Counter = Counter()
    with gzip.open(path, "rt", encoding="ascii") as fh:
        for line in fh:
            record = json.loads(line)
            if isinstance(record, dict):
                counts.update(record["counts"])
            else:
                spans.append(tuple(record))
    return spans, counts


def self_times(spans: list[tuple]) -> Counter:
    """Seconds of self time per span name; parents index into their own run."""
    out: Counter = Counter()
    child_time: Counter = Counter()
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            child_time[run_id, parent] += end - start
    runs: Counter = Counter()
    for name, start, end, parent, run_id in spans:
        sid = runs[run_id]
        runs[run_id] += 1
        out[name] += end - start - child_time[run_id, sid]
    return out


def _profile_cache():
    return getattr(import_module("bindex.indices"), "_profile", None)


def clear_profile_cache() -> None:
    """Empty the distance-profile cache, as a fresh process would find it."""
    cache = _profile_cache()
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def count_profile_cache(counts: Counter) -> None:
    cache = _profile_cache()
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        counts["indices.profile_hits"] += info.hits
        counts["indices.profile_misses"] += info.misses


SPLITS = range(1, 6)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer busy seconds and exact counts, keyed by metric name."""
    busy = self_times(spans)
    split_items = sum(counts[f"oracle.enumerate.s{s}.items"] for s in SPLITS)
    metrics = {
        "indices.self_s": busy["indices"],
        "indices.graphs": counts["indices.graphs"],
        "indices.profile_hit_ratio": _ratio(
            counts["indices.profile_hits"],
            counts["indices.profile_hits"] + counts["indices.profile_misses"],
        ),
        "graphs.bfs_s": busy["graphs.bfs"],
        "graphs.bfs_calls": counts["graphs.bfs.calls"],
        "constructors.self_s": busy["constructors"],
        "graphs.new_graph_s": busy["graphs.new_graph"],
        "extremal.closed_form_s": busy["extremal.closed_form"],
        "extremal.optimize_s": busy["extremal.optimize"],
        "oracle.enumerate_s": busy["oracle.enumerate"]
        + sum(busy[f"oracle.enumerate.s{s}"] for s in SPLITS),
        "oracle.classes": counts["oracle.enumerate.items"],
        "oracle.multiset_yield_ratio": _ratio(split_items, counts["oracle.multisets"]),
    }
    for s in SPLITS:
        metrics[f"oracle.enumerate.s{s}_s"] = busy[f"oracle.enumerate.s{s}"]
        metrics[f"oracle.classes.s{s}"] = counts[f"oracle.enumerate.s{s}.items"]
    metrics.update(
        {
            "graphs.bridges_s": busy["graphs.bridges"],
            "graphs.bridges_calls": counts["graphs.bridges.calls"],
            "graphs.certificate_s": busy["graphs.certificate"],
            "graphs.certificate_calls": counts["graphs.certificate.calls"],
            "oracle.labeled_scan_s": busy["oracle.labeled_scan"],
            "oracle.masks_kept_ratio": _ratio(
                counts["oracle.masks_kept"], counts["oracle.masks_scanned"]
            ),
            "oracle.orbit_collapse_s": busy["oracle.orbit_collapse"],
            "graphs.graph6_s": busy["graphs.graph6"],
            "cli.self_s": busy["cli"],
        }
    )
    return metrics
