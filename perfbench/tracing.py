"""Per-layer tracing of one benchmark operation.

Run as a child process, `python3 perfbench/tracing.py SPEC_JSON`. The spec
names hrgen CLI argument lists and the file each call's stdout goes to. The
child wraps the public functions of each hrgen layer, drives the same CLI
path in-process (`hrgen.cli.main`), and writes its spans to the spec's
`spans` path when it ends. hrgen itself carries no tracing code.

A span is (name, start, end, parent, rss_kb): rss_kb is how far the
process's peak RSS rose while the span was the innermost one open on the
thread that saw the rise. Spans opened on a worker thread with nothing open
there take the main thread's innermost span as parent. `layer_metrics` turns
the spans into the per-layer metrics; a target that a later change removes or
renames is skipped and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._rss = _maxrss_kb()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge_rss(self, index):
        now = _maxrss_kb()
        if index is not None:
            self.spans[index][4] += now - self._rss
        self._rss = now

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                self._charge_rss(parent)
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                with self._lock:
                    self.spans[index][2] = time.perf_counter()
                    self._charge_rss(index)
            if on_result is not None:
                try:
                    on_result(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass  # a changed signature leaves this count empty
            return result

        return traced


def _on_build(counts, args, kwargs, tree):
    counts["quadtree.leaves"] = len(tree.leaves())
    counts["quadtree.height"] = tree.height()


def _on_query(counts, args, kwargs, result):
    counts["quadtree.hits"] += len(result[1])


def _on_generate(counts, args, kwargs, result):
    counts["generator.edge_phase_ns"] += result[1].t_edges_ns


def _on_long_range(counts, args, kwargs, result):
    counts["generator.long_range_edges"] += result.m - args[0].m


def _on_write(counts, args, kwargs, result):
    counts["graphio.bytes_written"] += os.path.getsize(
        kwargs["path"] if "path" in kwargs else args[1])


def _on_read(counts, args, kwargs, result):
    counts["graphio.bytes_read"] += os.path.getsize(
        kwargs["path"] if "path" in kwargs else args[0])


# (span name, module, attribute path, hook reading a count off the call)
TARGETS = (
    ("generator.generate_with_stats", "hrgen.generator", "generate_with_stats",
     _on_generate),
    ("generator.sample_points", "hrgen.generator", "sample_points", None),
    ("generator.add_long_range_edges", "hrgen.generator", "add_long_range_edges",
     _on_long_range),
    ("quadtree.build", "hrgen.quadtree", "PolarQuadtree.build", _on_build),
    ("quadtree.pack", "hrgen.quadtree", "PolarQuadtree.pack", None),
    ("quadtree.query_many", "hrgen.quadtree", "PolarQuadtree.query_many", _on_query),
    ("graph.from_edge_arrays", "hrgen.graph", "Graph.from_edge_arrays", None),
    ("graph.edge_array", "hrgen.graph", "Graph.edge_array", None),
    ("graphio.write_edgelist", "hrgen.graphio", "write_edgelist", _on_write),
    ("graphio.read_edgelist", "hrgen.graphio", "read_edgelist", _on_read),
    ("analysis.triangle_count", "hrgen.analysis", "triangle_count", None),
    ("analysis.local_clustering", "hrgen.analysis", "local_clustering", None),
    ("analysis.connected_component_sizes", "hrgen.analysis",
     "connected_component_sizes", None),
    ("analysis.core_numbers", "hrgen.analysis", "core_numbers", None),
    ("analysis.degree_assortativity", "hrgen.analysis", "degree_assortativity", None),
    ("analysis.diameter_bounds", "hrgen.analysis", "diameter_bounds", None),
    ("analysis.bfs_distances", "hrgen.analysis", "bfs_distances", None),
)


def install(tracer):
    """Wrap every target that exists. Module-level functions are replaced in
    each hrgen module that imported them by name; methods on their class."""
    hrgen_modules = [module for key, module in list(sys.modules.items())
                     if key == "hrgen" or key.startswith("hrgen.")]
    for name, module_name, path, hook in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        raw = vars(owner).get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
        elif outer:
            setattr(owner, attr, tracer.wrap(name, raw, hook))
        else:
            wrapped = tracer.wrap(name, raw, hook)
            for module in hrgen_modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import hrgen.cli

    tracer = Tracer()
    install(tracer)
    codes = []
    for argv, stdout_path in spec["calls"]:
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
            codes.append(hrgen.cli.main(argv))
    with open(spec["spans"], "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "codes": codes}, fh)
    return 0 if all(code == 0 for code in codes) else 1


# -- metrics from spans ------------------------------------------------------

LAYER_UNITS = {
    "cli.import_s": "s",
    "generator.sample_s": "s",
    "generator.edge_phase_s": "s",
    "generator.long_range_s": "s",
    "generator.long_range_edges": "count",
    "quadtree.build_s": "s",
    "quadtree.query_s": "s",
    "quadtree.hits": "count",
    "quadtree.hits_per_s": "1/s",
    "quadtree.query_parallelism": "ratio",
    "quadtree.leaves": "count",
    "quadtree.height": "count",
    "quadtree.peak_rise_mb": "MB",
    "graph.from_edge_arrays_s": "s",
    "graph.from_edge_arrays_calls": "count",
    "graph.edge_array_s": "s",
    "graph.peak_rise_mb": "MB",
    "graphio.write_s": "s",
    "graphio.read_s": "s",
    "graphio.write_mb_per_s": "MB/s",
    "graphio.read_mb_per_s": "MB/s",
    "graphio.bytes_written": "count",
    "graphio.peak_rise_mb": "MB",
    "analysis.triangle_count_s": "s",
    "analysis.local_clustering_s": "s",
    "analysis.components_s": "s",
    "analysis.core_numbers_s": "s",
    "analysis.assortativity_s": "s",
    "analysis.diameter_s": "s",
    "analysis.bfs_calls": "count",
}


def _union_length(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(trace, import_s):
    """Per-layer metrics of one traced operation (see LAYER_UNITS)."""
    spans = [s for s in trace["spans"] if s[2] is not None]
    counts = defaultdict(float, trace["counts"])
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(trace["spans"]):
        if parent is not None and end is not None:
            children[parent].append((start, end))

    def spans_of(name):
        return [(i, s) for i, s in enumerate(trace["spans"])
                if s[0] == name and s[2] is not None]

    def total(name):
        return sum(s[2] - s[1] for _, s in spans_of(name))

    def self_time(name):
        out = 0.0
        for i, (_, start, end, _, _) in spans_of(name):
            inner = [(max(a, start), min(b, end)) for a, b in children[i] if b > start]
            out += (end - start) - _union_length([c for c in inner if c[1] > c[0]])
        return out

    def rise_mb(layer):
        return sum(s[4] for s in spans if s[0].startswith(layer + ".")) / 1024.0

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    packs = sorted(spans_of("quadtree.pack"), key=lambda item: item[1][1])
    first_pack = packs[0][1][2] - packs[0][1][1] if packs else 0.0
    edge_phase = counts["generator.edge_phase_ns"] / 1e9
    query = total("quadtree.query_many")
    write, read = self_time("graphio.write_edgelist"), self_time("graphio.read_edgelist")
    metrics = {
        "cli.import_s": import_s,
        "generator.sample_s": total("generator.sample_points"),
        "generator.edge_phase_s": edge_phase,
        "generator.long_range_s": total("generator.add_long_range_edges"),
        "generator.long_range_edges": counts["generator.long_range_edges"],
        "quadtree.build_s": total("quadtree.build") + first_pack,
        "quadtree.query_s": query,
        "quadtree.hits": counts["quadtree.hits"],
        "quadtree.hits_per_s": ratio(counts["quadtree.hits"], query),
        "quadtree.query_parallelism": ratio(query, edge_phase),
        "quadtree.leaves": counts["quadtree.leaves"],
        "quadtree.height": counts["quadtree.height"],
        "quadtree.peak_rise_mb": rise_mb("quadtree"),
        "graph.from_edge_arrays_s": total("graph.from_edge_arrays"),
        "graph.from_edge_arrays_calls": len(spans_of("graph.from_edge_arrays")),
        "graph.edge_array_s": total("graph.edge_array"),
        "graph.peak_rise_mb": rise_mb("graph"),
        "graphio.write_s": write,
        "graphio.read_s": read,
        "graphio.write_mb_per_s": ratio(counts["graphio.bytes_written"] / 1e6, write),
        "graphio.read_mb_per_s": ratio(counts["graphio.bytes_read"] / 1e6, read),
        "graphio.bytes_written": counts["graphio.bytes_written"],
        "graphio.peak_rise_mb": rise_mb("graphio"),
        "analysis.triangle_count_s": total("analysis.triangle_count"),
        "analysis.local_clustering_s": total("analysis.local_clustering"),
        "analysis.components_s": total("analysis.connected_component_sizes"),
        "analysis.core_numbers_s": total("analysis.core_numbers"),
        "analysis.assortativity_s": total("analysis.degree_assortativity"),
        "analysis.diameter_s": total("analysis.diameter_bounds"),
        "analysis.bfs_calls": len(spans_of("analysis.bfs_distances")),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
