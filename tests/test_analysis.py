import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from hrgen import (
    AnalysisReport,
    GeneratorParams,
    Graph,
    InsufficientDataError,
    ParameterDomainError,
    analyze,
    bfs_distances,
    connected_component_sizes,
    core_numbers,
    degree_assortativity,
    diameter_bounds,
    generate,
    global_clustering,
    local_clustering,
    mean_local_clustering,
    power_law_exponent,
    triangle_count,
)
from hrgen import analysis
from hrgen.analysis import component_labels

from helpers import (
    assortativity_brute,
    bfs_brute,
    components_brute,
    cores_brute,
    diameter_brute,
    from_edges,
    gnp_graph,
    local_clustering_brute,
    transitivity_brute,
    triangles_brute,
)

TRIANGLE = from_edges(3, [(0, 1), (1, 2), (0, 2)])
# K4 minus the (2,3) edge: two triangles sharing the (0,1) edge
DIAMOND = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PATH4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR = from_edges(4, [(0, 1), (0, 2), (0, 3)])
K4_PENDANT = from_edges(
    5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
)


# -- clustering ---------------------------------------------------------------


def test_clustering_small_graphs():
    assert triangle_count(TRIANGLE) == 1
    assert global_clustering(TRIANGLE) == pytest.approx(1.0)
    assert mean_local_clustering(TRIANGLE) == pytest.approx(1.0)

    assert triangle_count(DIAMOND) == 2
    deg = DIAMOND.degrees()
    per_vertex = local_clustering(DIAMOND) * (deg * (deg - 1) / 2)
    assert per_vertex.tolist() == [2.0, 2.0, 1.0, 1.0]
    assert global_clustering(DIAMOND) == pytest.approx(0.75)
    assert mean_local_clustering(DIAMOND) == pytest.approx(5.0 / 6.0)
    assert local_clustering(DIAMOND) == pytest.approx([2 / 3, 2 / 3, 1.0, 1.0])

    assert global_clustering(PATH4) == 0.0
    assert global_clustering(from_edges(2, [(0, 1)])) == 0.0


def test_clustering_matches_brute_force():
    rng = np.random.default_rng(0)
    for n, p in ((30, 0.2), (60, 0.1), (45, 0.35)):
        g = gnp_graph(n, p, rng)
        assert triangle_count(g) == triangles_brute(g)
        assert global_clustering(g) == pytest.approx(
            transitivity_brute(g), abs=1e-12
        )
        assert local_clustering(g) == pytest.approx(
            local_clustering_brute(g), abs=1e-12
        )


def vertex_triangles_brute(g):
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    return [sum(len(adj[v] & adj[w]) for w in adj[v]) // 2 for v in range(g.n)]


@pytest.mark.parametrize("block, shift", [(None, None), (3, None), (None, 3), (1, 40)])
def test_vertex_triangles_in_blocks_and_coarse_heads(monkeypatch, block, shift):
    # blocks of a few wedges cut rows and edges; a coarse head order (as for
    # n * m >= 2**62) changes only the order of the searches
    if block is not None:
        monkeypatch.setattr(analysis, "_WEDGE_BLOCK", block)
    if shift is not None:
        monkeypatch.setattr(analysis, "_head_shift", lambda n, m: shift)
    rng = np.random.default_rng(5)
    graphs = [
        gnp_graph(60, 0.2, rng),
        generate(GeneratorParams(n=600, avg_degree=12.0, gamma=2.2, seed=3)),
        DIAMOND,
        K4_PENDANT,
    ]
    for g in graphs:
        got = analysis._vertex_triangles(g)
        assert got.dtype == np.float64
        assert got.tolist() == vertex_triangles_brute(g)


def test_analyze_counts_triangles_once(monkeypatch):
    calls = []
    kernel = analysis._vertex_triangles

    def counted(graph):
        calls.append(graph)
        return kernel(graph)

    monkeypatch.setattr(analysis, "_vertex_triangles", counted)
    g = generate(GeneratorParams(n=500, avg_degree=6.0, gamma=3.0, seed=1))
    report = analyze(g)
    assert len(calls) == 1
    assert report.global_clustering == global_clustering(g)
    assert report.mean_local_clustering == mean_local_clustering(g)


CLUSTERING = (triangle_count, global_clustering, local_clustering, mean_local_clustering)


def test_clustering_routines_share_one_kernel_run(monkeypatch):
    # on one graph the routines run the kernel once, in any order, and give
    # what each gives on a graph of its own
    calls = []
    kernel = analysis._vertex_triangles

    def counted(graph):
        calls.append(graph)
        return kernel(graph)

    g = generate(GeneratorParams(n=500, avg_degree=6.0, gamma=3.0, seed=1))
    want = [f(Graph(n=g.n, keys=g.keys)) for f in CLUSTERING]
    monkeypatch.setattr(analysis, "_vertex_triangles", counted)
    for order in itertools.permutations(range(len(CLUSTERING))):
        calls.clear()
        shared = Graph(n=g.n, keys=g.keys)
        got = {i: CLUSTERING[i](shared) for i in order}
        assert len(calls) == 1 and calls[0] is shared
        for i, value in got.items():
            assert np.array_equal(value, want[i]) and type(value) is type(want[i])


def test_analyze_labels_components_once(monkeypatch):
    calls = []
    labelling = analysis.component_labels

    def counted(graph):
        calls.append(graph)
        return labelling(graph)

    monkeypatch.setattr(analysis, "component_labels", counted)
    g = generate(GeneratorParams(n=20_000, avg_degree=4.0, gamma=2.5, seed=1))
    report = analyze(g)
    assert len(calls) == 1
    fresh = Graph(n=g.n, keys=g.keys)  # labelled once more, for both calls
    sizes = connected_component_sizes(fresh)
    # several components, the largest past the exact-diameter limit
    assert sizes.size > 1 and sizes[0] > analysis.EXACT_DIAMETER_LIMIT
    assert report.component_count == sizes.size
    assert report.largest_component_fraction == sizes[0] / g.n
    assert (report.diameter_lower, report.diameter_upper) == diameter_bounds(fresh)
    assert len(calls) == 2


# -- assortativity ------------------------------------------------------------


def test_assortativity_small_graphs():
    assert degree_assortativity(PATH4) == pytest.approx(-0.5)
    assert degree_assortativity(STAR) == pytest.approx(-1.0)
    # regular graphs have zero degree variance at the endpoints
    assert degree_assortativity(TRIANGLE) is None
    assert degree_assortativity(from_edges(3, [])) is None


def test_assortativity_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(4):
        g = gnp_graph(40, 0.15, rng)
        expect = assortativity_brute(g)
        got = degree_assortativity(g)
        if expect is None:
            assert got is None
        else:
            assert got == pytest.approx(expect, abs=1e-12)


# -- components and cores -----------------------------------------------------


def test_components_against_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(4):
        g = gnp_graph(50, 0.03, rng)
        comps = components_brute(g)
        labels, sizes = component_labels(g)
        assert sizes.sum() == g.n
        assert sorted(sizes.tolist()) == sorted(len(c) for c in comps)
        # same partition: vertices share a label iff they share a component
        for comp in comps:
            assert len({labels[v] for v in comp}) == 1
        assert connected_component_sizes(g).tolist() == sorted(
            (len(c) for c in comps), reverse=True
        )


def scipy_components(g):
    upper = csr_matrix((np.ones(g.m), (g.keys // g.n, g.keys % g.n)), shape=(g.n, g.n))
    count, labels = csgraph.connected_components(upper, directed=False)
    return labels, np.bincount(labels, minlength=count)


@pytest.mark.parametrize(
    "params, least",
    [
        # isolated vertices next to a giant component
        (GeneratorParams(n=3000, avg_degree=8.0, gamma=3.0, seed=2), 40),
        # thousands of small components
        (GeneratorParams(n=20_000, avg_degree=4.0, gamma=5.0, seed=1), 2000),
    ],
)
def test_component_labels_match_scipy(params, least):
    g = generate(params)
    want_labels, want_sizes = scipy_components(g)
    labels, sizes = component_labels(g)
    assert (g.degrees() == 0).any() and sizes.size >= least
    assert labels.dtype == sizes.dtype == np.int64
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(sizes, want_sizes)


def test_component_labels_of_graphs_without_edges():
    labels, sizes = component_labels(from_edges(0, []))
    assert labels.size == sizes.size == 0
    labels, sizes = component_labels(from_edges(5, []))
    assert labels.tolist() == [0, 1, 2, 3, 4] and sizes.tolist() == [1] * 5


def test_component_labels_in_blocks_with_the_hub_last(monkeypatch):
    # a star on the last vertex and a path: blocks of 4 neighbour ids cut the
    # hub's row, which outlasts every block start
    edges = [(v, 39) for v in range(0, 30, 2)] + [(v, v + 2) for v in range(1, 35, 2)]
    g = from_edges(40, edges)
    monkeypatch.setattr(analysis, "_KEY_BLOCK", 4)
    labels, sizes = component_labels(g)
    want_labels, want_sizes = scipy_components(g)
    assert np.array_equal(labels, want_labels) and np.array_equal(sizes, want_sizes)


def test_diameter_takes_the_lowest_of_two_largest_components():
    # a path 4-6-7 (diameter 2) and a triangle 2-3-5 (diameter 1) tie at three
    # vertices; the triangle holds the lower vertex, so its label comes first
    g = from_edges(8, [(4, 6), (6, 7), (2, 3), (3, 5), (2, 5)])
    labels, sizes = component_labels(g)
    want_labels, want_sizes = scipy_components(g)
    assert np.array_equal(labels, want_labels) and np.array_equal(sizes, want_sizes)
    assert sizes.tolist() == [1, 1, 3, 3]
    assert diameter_bounds(g) == (1, 1)


def test_core_numbers_small_graphs():
    assert core_numbers(K4_PENDANT).tolist() == [3, 3, 3, 3, 1]
    assert core_numbers(PATH4).tolist() == [1, 1, 1, 1]
    cycle = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert core_numbers(cycle).tolist() == [2, 2, 2, 2, 2]
    assert core_numbers(from_edges(3, [])).tolist() == [0, 0, 0]


def test_core_numbers_match_brute_force():
    rng = np.random.default_rng(3)
    for n, p in ((40, 0.1), (60, 0.05), (30, 0.3)):
        g = gnp_graph(n, p, rng)
        assert core_numbers(g).tolist() == cores_brute(g)


# -- distances ----------------------------------------------------------------


def test_bfs_matches_brute_force():
    rng = np.random.default_rng(4)
    g = gnp_graph(80, 0.04, rng)
    for source in (0, 17, 79):
        assert bfs_distances(g, source).tolist() == bfs_brute(g, source)


@pytest.mark.parametrize("source", [-1, 4, 1.5, math.nan])
def test_bfs_rejects_source_outside_the_graph(source):
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ParameterDomainError, match="source"):
        bfs_distances(path, source)


def test_diameter_exact_small():
    p5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert diameter_bounds(p5) == (4, 4)
    assert diameter_bounds(TRIANGLE) == (1, 1)
    assert diameter_bounds(from_edges(1, [])) == (0, 0)
    assert diameter_bounds(from_edges(0, [])) == (0, 0)
    # disconnected: diameter of the largest component only
    two = from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert diameter_bounds(two) == (2, 2)


def test_diameter_exact_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = gnp_graph(50, 0.05, rng)
        d = diameter_brute(g)
        assert diameter_bounds(g) == (d, d)


def test_diameter_sweep_bounds_sandwich_truth(monkeypatch):
    # force the sweep path even though the graph is small
    monkeypatch.setattr(analysis, "EXACT_DIAMETER_LIMIT", 10)
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = gnp_graph(150, 0.02, rng)
        exact = diameter_brute(g)
        lower, upper = diameter_bounds(g)
        assert lower <= exact <= upper


@pytest.mark.parametrize("seed, bounds", [(0, (13, 14)), (1, (11, 12)), (2, (13, 14))])
def test_diameter_sweep_bounds_are_pinned(seed, bounds):
    # giant components of 19,974-19,992 vertices, above the exact limit, so
    # these pin the sweeps' start, farthest-point and midpoint rules
    g = generate(GeneratorParams(n=20_000, avg_degree=16, gamma=3, seed=seed))
    assert connected_component_sizes(g)[0] > analysis.EXACT_DIAMETER_LIMIT
    assert diameter_bounds(g) == bounds


# -- power-law fit ------------------------------------------------------------


def test_power_law_exponent_recovers_synthetic_tail():
    rng = np.random.default_rng(8)
    for gamma in (2.2, 3.0, 4.0):
        # integer Pareto sample: P(K >= k) ~ k^(1-gamma); a scale of 50
        # keeps the flooring bias well below the asserted tolerance
        u = rng.random(200_000)
        degrees = np.floor(50.0 * u ** (-1.0 / (gamma - 1.0))).astype(np.int64)
        fitted = power_law_exponent(degrees, k_min=50)
        assert fitted == pytest.approx(gamma, abs=0.1)


def test_power_law_exponent_rejects_thin_or_flat_tails():
    with pytest.raises(InsufficientDataError):
        power_law_exponent([1, 2, 3], k_min=2)
    with pytest.raises(InsufficientDataError):
        power_law_exponent([7] * 50, k_min=5)
    with pytest.raises(InsufficientDataError):
        power_law_exponent([1, 2, 3], k_min=0)


# -- the aggregate report -----------------------------------------------------


def test_analyze_collects_consistent_fields():
    g = generate(GeneratorParams(n=3000, avg_degree=10.0, gamma=2.7, seed=0))
    report = analyze(g)
    assert report.n == 3000
    assert report.m == g.m
    assert report.avg_degree == pytest.approx(2.0 * g.m / g.n)
    assert report.max_degree == int(g.degrees().max())
    assert report.global_clustering == pytest.approx(global_clustering(g))
    assert report.mean_local_clustering == pytest.approx(mean_local_clustering(g))
    assert 0.0 < report.largest_component_fraction <= 1.0
    assert report.component_count == connected_component_sizes(g).size
    assert report.diameter_lower <= report.diameter_upper
    assert report.max_core == int(core_numbers(g).max())
    assert report.power_law_k_min is not None


def test_analyze_handles_degenerate_graphs():
    empty = analyze(from_edges(0, []))
    assert empty.n == 0 and empty.m == 0 and empty.avg_degree == 0.0
    assert empty.power_law_exponent is None
    lone = analyze(from_edges(4, []))
    assert lone.max_degree == 0
    assert lone.component_count == 4
    assert lone.degree_assortativity is None


def test_report_serialization():
    g = generate(GeneratorParams(n=500, avg_degree=6.0, gamma=3.0, seed=1))
    report = analyze(g)
    text = report.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == len(AnalysisReport.field_names())
    assert lines[0] == "n 500"
    parsed = dict(line.split() for line in lines)
    assert set(parsed) == set(AnalysisReport.field_names())
    assert report.to_dict()["m"] == g.m


def test_analyze_peak_memory_per_edge():
    # the CSR view is built inside the traced call; each edge then costs its
    # 8-byte int32 neighbour pair and the transients of the worst routine.
    graph = generate(GeneratorParams(n=20_000, avg_degree=16.0, gamma=3.0, seed=2))
    tracemalloc.start()
    try:
        report = analyze(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.m == graph.m > 150_000
    bound = 56 * graph.m + 64 * graph.n
    assert peak <= bound, f"{peak / graph.m:.1f} bytes per edge"
