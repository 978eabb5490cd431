import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph  # noqa: F401  loaded before any traced call

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
    gnp_graph,
    local_clustering_brute,
    transitivity_brute,
    triangles_brute,
)

TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
# K4 minus the (2,3) edge: two triangles sharing the (0,1) edge
DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
K4_PENDANT = Graph.from_edges(
    5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
)


# -- clustering ---------------------------------------------------------------


def test_clustering_small_graphs():
    assert triangle_count(TRIANGLE) == 1
    assert global_clustering(TRIANGLE) == pytest.approx(1.0)
    assert mean_local_clustering(TRIANGLE) == pytest.approx(1.0)

    assert triangle_count(DIAMOND) == 2
    assert global_clustering(DIAMOND) == pytest.approx(0.75)
    assert mean_local_clustering(DIAMOND) == pytest.approx(5.0 / 6.0)
    assert local_clustering(DIAMOND) == pytest.approx([2 / 3, 2 / 3, 1.0, 1.0])

    assert global_clustering(PATH4) == 0.0
    assert global_clustering(Graph.from_edges(2, [(0, 1)])) == 0.0


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


# -- assortativity ------------------------------------------------------------


def test_assortativity_small_graphs():
    assert degree_assortativity(PATH4) == pytest.approx(-0.5)
    assert degree_assortativity(STAR) == pytest.approx(-1.0)
    # regular graphs have zero degree variance at the endpoints
    assert degree_assortativity(TRIANGLE) is None
    assert degree_assortativity(Graph.from_edges(3, [])) is None


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


def test_core_numbers_small_graphs():
    assert core_numbers(K4_PENDANT).tolist() == [3, 3, 3, 3, 1]
    assert core_numbers(PATH4).tolist() == [1, 1, 1, 1]
    cycle = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert core_numbers(cycle).tolist() == [2, 2, 2, 2, 2]
    assert core_numbers(Graph.from_edges(3, [])).tolist() == [0, 0, 0]


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


@pytest.mark.parametrize("source", [-1, 4])
def test_bfs_rejects_source_outside_the_graph(source):
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ParameterDomainError, match="source"):
        bfs_distances(path, source)


def test_diameter_exact_small():
    p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert diameter_bounds(p5) == (4, 4)
    assert diameter_bounds(TRIANGLE) == (1, 1)
    assert diameter_bounds(Graph.from_edges(1, [])) == (0, 0)
    assert diameter_bounds(Graph.from_edges(0, [])) == (0, 0)
    # disconnected: diameter of the largest component only
    two = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
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
    empty = analyze(Graph.from_edges(0, []))
    assert empty.n == 0 and empty.m == 0 and empty.avg_degree == 0.0
    assert empty.power_law_exponent is None
    lone = analyze(Graph.from_edges(4, []))
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
    # scipy is imported above, as its modules are no memory per edge.
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
