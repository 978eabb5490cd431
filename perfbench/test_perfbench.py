"""Tests for the benchmark itself: each output check rejects a corrupted
output, and a run at tiny sizes goes through every workload's path, traced
and untraced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

ANY = run.Typical(1.0, 1.0, 0.0, math.inf)
TINY = {
    "gen-sparse-3e5": run.Generate(run.GraphArgs(3_000, 16, 3), ANY),
    "gen-dense-t2": run.Generate(
        run.GraphArgs(2_000, 32, 2.2, threads=2, long_range=0.05), ANY),
    "analyze-pair": run.AnalyzePair(
        (run.GraphArgs(12_000, 8, 3), run.GraphArgs(400, 16, 3)), ANY),
}
SEED = 5


def _runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic() + 120.0)


def _generate(tmp_path, graph, name="g.edges"):
    path = tmp_path / name
    _runner(tmp_path).setup([graph.argv(SEED, path)])
    return path


def _check_graph(path, graph):
    return checks.check_generated(
        path, n=graph.nodes, avg_degree=graph.avg_degree, gamma=graph.gamma, seed=SEED,
        long_range_fraction=graph.long_range, sample_seed=SEED)


def _rewrite(path, edges, m=None):
    """Write `edges` back under the original header, with m replaced."""
    with open(path) as fh:
        head = fh.readline().split()
    head[2] = str(len(edges) if m is None else m)
    with open(path, "w") as fh:
        fh.write(" ".join(head) + "\n")
        fh.write("".join(f"{u} {v}\n" for u, v in edges))


def _edges(path):
    _, u, v = checks.read_edge_file(path)
    return list(zip(u.tolist(), v.tolist()))


def _non_edge(path, graph):
    """A pair the predicate rejects: a rim vertex and its antipode region."""
    (n, _, _, radius, alpha), _, _ = checks.read_edge_file(path)
    phi, r = checks.sample_coordinates(n, alpha, radius, SEED)
    a = int(np.argmax(r))
    dist = checks.half_sinh_sq(phi[a], r[a], phi, r)
    b = int(np.argmax(dist))
    return (min(a, b), max(a, b))


def _sampled_edge(path, graph):
    """An edge incident to the lowest-radius vertex, which every sample holds."""
    (n, _, _, radius, alpha), u, v = checks.read_edge_file(path)
    _, r = checks.sample_coordinates(n, alpha, radius, SEED)
    hub = int(np.argmin(r))
    for e in zip(u.tolist(), v.tolist()):
        if hub in e:
            return e
    raise AssertionError("hub has no edge")


@pytest.fixture(scope="module")
def sparse_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sparse")
    return tmp, _generate(tmp, TINY["gen-sparse-3e5"].graph)


@pytest.fixture(scope="module")
def dense_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dense")
    return tmp, _generate(tmp, TINY["gen-dense-t2"].graph)


def test_generated_file_passes(sparse_file, dense_file):
    for (_, path), name in ((sparse_file, "gen-sparse-3e5"), (dense_file, "gen-dense-t2")):
        graph = TINY[name].graph
        found = _check_graph(path, graph)
        assert found["m"] == len(_edges(path))
        if graph.long_range:
            assert found["m"] - found["m_geo"] == math.ceil(graph.long_range * found["m_geo"])


@pytest.mark.parametrize("name", ["gen-sparse-3e5", "gen-dense-t2"])
@pytest.mark.parametrize("corruption", [
    "drop_line", "drop_sampled_edge", "add_non_edge", "swap_lines", "flip_pair",
    "duplicate_edge",
])
def test_generated_check_rejects_corruption(tmp_path, sparse_file, dense_file, name,
                                            corruption):
    source = (sparse_file if name == "gen-sparse-3e5" else dense_file)[1]
    graph = TINY[name].graph
    path = tmp_path / "g.edges"
    shutil.copy(source, path)
    edges = _edges(path)
    if corruption == "drop_line":
        _rewrite(path, edges[:-1], m=len(edges))
    elif corruption == "drop_sampled_edge":
        edges.remove(_sampled_edge(path, graph))
        _rewrite(path, edges)
    elif corruption == "add_non_edge":
        extra = _non_edge(path, graph)
        assert extra not in edges
        _rewrite(path, sorted(edges + [extra]))
    elif corruption == "swap_lines":
        edges[0], edges[1] = edges[1], edges[0]
        _rewrite(path, edges)
    elif corruption == "flip_pair":
        edges[0] = edges[0][::-1]
        _rewrite(path, edges)
    else:
        _rewrite(path, sorted(edges + [edges[0]]))
    with pytest.raises(checks.CheckError):
        _check_graph(path, graph)


def test_dense_check_rejects_dropped_shortcut(tmp_path, dense_file):
    graph = TINY["gen-dense-t2"].graph
    path = tmp_path / "g.edges"
    shutil.copy(dense_file[1], path)
    (n, _, _, radius, alpha), u, v = checks.read_edge_file(path)
    phi, r = checks.sample_coordinates(n, alpha, radius, SEED)
    outside = np.flatnonzero(checks.half_sinh_sq(phi[u], r[u], phi[v], r[v])
                             > checks.Predicate(radius).hi)
    edges = _edges(path)
    del edges[int(outside[0])]
    _rewrite(path, edges)
    with pytest.raises(checks.CheckError):
        _check_graph(path, graph)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(report dict, file) for a graph on each side of the exact-diameter limit."""
    tmp = tmp_path_factory.mktemp("reports")
    workload = TINY["analyze-pair"]
    runner = _runner(tmp)
    runner.setup(workload.setup_calls(SEED, tmp))
    out = []
    for i, argv in enumerate(workload.op_calls(SEED, tmp)):
        _, code, _ = runner.spawn(["-m", "hrgen", *argv], tmp / f"r{i}.txt")
        assert code == 0
        out.append((checks.parse_report((tmp / f"r{i}.txt").read_text()),
                    workload._path(tmp, i)))
    (n, *_), _, _ = checks.read_edge_file(out[0][1])
    assert out[0][0]["largest_component_fraction"] * n > checks.EXACT_DIAMETER_LIMIT
    return out


@pytest.mark.parametrize("graph", [
    nx.gnp_random_graph(60, 0.2, seed=1), nx.gnp_random_graph(300, 0.05, seed=2),
    nx.barabasi_albert_graph(400, 6, seed=3), nx.complete_graph(7), nx.empty_graph(5),
])
def test_vertex_triangles_match_networkx(graph):
    adj = sparse.csr_matrix(nx.to_scipy_sparse_array(graph, format="csr"))
    want = nx.triangles(graph)
    assert checks.vertex_triangles(adj).tolist() == [want[v] for v in graph]


def test_reports_pass(reports):
    for report, path in reports:
        checks.check_report(report, path)


@pytest.mark.parametrize("field", checks.REPORT_FIELDS)
def test_report_check_rejects_perturbed_value(reports, field):
    report, path = reports[1]
    bad = dict(report)
    value = bad[field]
    bad[field] = value * 1.001 if value != int(value) else value + 1
    with pytest.raises(checks.CheckError):
        checks.check_report(bad, path)


@pytest.mark.parametrize("field", ["diameter_lower", "diameter_upper"])
def test_report_check_rejects_bounds_below_the_double_sweep(reports, field):
    report, path = reports[0]
    top = report["diameter_upper"] - 1
    bad = dict(report, diameter_upper=top, diameter_lower=min(report["diameter_lower"], top))
    if field == "diameter_lower":
        bad = dict(report, diameter_lower=2 * report["diameter_upper"] + 1,
                   diameter_upper=2 * report["diameter_upper"] + 1)
    with pytest.raises(checks.CheckError):
        checks.check_report(bad, path)


def test_layer_self_time_excludes_nested_spans():
    spans = [
        ["graphio.write_edgelist", 0.0, 10.0, None, 100],
        ["graph.edge_array", 1.0, 4.0, 0, 2048],
        ["quadtree.query_many", 0.0, 6.0, None, 0],
        ["quadtree.query_many", 2.0, 8.0, None, 0],
    ]
    counts = {"graphio.bytes_written": 14e6, "generator.edge_phase_ns": 8e9,
              "quadtree.hits": 24.0}
    m = tracing.layer_metrics({"spans": spans, "counts": counts}, 0.5)
    assert m["graphio.write_s"] == pytest.approx(7.0)
    assert m["graphio.write_mb_per_s"] == pytest.approx(2.0)
    assert m["graph.peak_rise_mb"] == pytest.approx(2.0)
    assert m["quadtree.query_s"] == pytest.approx(12.0)
    assert m["quadtree.query_parallelism"] == pytest.approx(1.5)
    assert m["quadtree.hits_per_s"] == pytest.approx(2.0)
    assert m["analysis.bfs_calls"] == 0


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# Layers that do timed work in each workload; their metrics must not read 0.
RUNS_LAYER = {
    "gen-sparse-3e5": ["generator.sample_s", "quadtree.query_s", "graphio.write_s",
                       "graph.from_edge_arrays_s", "quadtree.leaves"],
    "gen-dense-t2": ["generator.long_range_s", "generator.long_range_edges",
                     "quadtree.query_parallelism", "graph.edge_array_s"],
    "analyze-pair": ["graphio.read_s", "analysis.triangle_count_s", "analysis.diameter_s",
                     "analysis.bfs_calls", "analysis.components_s"],
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run(tmp_path, name, traced):
    result = run.run(TINY[name], SEED, 0.01, traced, tmp_path, log=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if traced else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if traced:
        for metric in RUNS_LAYER[name]:
            assert result["metrics"][metric]["value"] > 0, metric
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_typical_seed_is_deterministic_and_in_band(name):
    workload = run.WORKLOADS[name]
    graph = getattr(workload, "graph", None) or workload.inputs[0]
    typical = workload.typical
    picks = [workload.hrgen_seed(seed) for seed in (0, 1, 0)]
    assert picks[0] == picks[2] != picks[1]
    for seed, pick in zip((0, 1), picks):
        assert seed * run.CANDIDATES <= pick < (seed + 1) * run.CANDIDATES
        _, r = checks.sample_coordinates(graph.nodes, (graph.gamma - 1) / 2,
                                         typical.radius, pick)
        assert typical.lo <= np.exp(-typical.beta * r).sum() <= typical.hi


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-sparse-3e5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
