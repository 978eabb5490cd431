import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hrgen import (
    GeneratorParams,
    Graph,
    InfeasibleParametersError,
    OutOfBoundsError,
    ParameterDomainError,
    PolarQuadtree,
    VertexCoordinates,
    add_long_range_edges,
    generate,
    generate_brute_force,
    generate_with_stats,
    radial_inverse_cdf,
    sample_points,
    to_poincare_radius,
    write_edgelist,
)
from hrgen import generator
from hrgen.geometry import TWO_PI, within_distance
from hrgen.graph import MAX_N

from helpers import from_edges, gnp_graph, has_edge, long_range_scalar


def radial_cdf(r, alpha, radius):
    return (np.cosh(alpha * r) - 1.0) / (math.cosh(alpha * radius) - 1.0)


# -- parameter handling -------------------------------------------------------


def test_params_require_exactly_one_of_each_pair():
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, gamma=3.0)  # no degree spec
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, radius=10.0, gamma=3.0)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0)  # no shape spec
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, gamma=3.0, alpha=1.0)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=0, avg_degree=4.0, gamma=3.0)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, gamma=2.0)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, alpha=0.5)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, gamma=3.0, seed=-1)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, gamma=3.0, seed=2**64)
    with pytest.raises(ParameterDomainError):
        GeneratorParams(n=10, avg_degree=4.0, gamma=3.0, long_range_fraction=1.0)


@pytest.mark.parametrize(
    "field, good, bad",
    [("n", np.int64(100), 100.5), ("seed", np.uint64(7), 1.5), ("threads", np.int32(2), 1.5)],
)
def test_integer_fields_reject_other_numbers(field, good, bad):
    # numpy integers pass; a float or a string fails in the constructor, not
    # later inside sampling or the pool
    base = dict(n=100, avg_degree=8.0, gamma=3.0)
    assert generate(GeneratorParams(**{**base, field: good})).n == 100
    for value in (bad, float(good), str(good)):
        with pytest.raises(ParameterDomainError, match=f"{field} must be an integer"):
            GeneratorParams(**{**base, field: value})


@pytest.mark.parametrize(
    "size", [{"radius": 10.0}, {"avg_degree": 8.0}], ids=["radius", "avg_degree"]
)
@pytest.mark.parametrize(
    "shape",
    [{"alpha": math.inf}, {"gamma": math.inf}, {"alpha": math.nan}],
    ids=["alpha-inf", "gamma-inf", "alpha-nan"],
)
def test_infinite_alpha_or_gamma_rejected(size, shape):
    # a RuntimeWarning on the way would fail the test under the warning filters
    with pytest.raises(ParameterDomainError, match="finite"):
        generate(GeneratorParams(n=100, **size, **shape))


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(n=100, radius=38.0, alpha=1.0),
        # the degree target solves to R = 38.7
        GeneratorParams(n=100, avg_degree=1e-6, alpha=1.0),
    ],
)
def test_radius_beyond_the_poincare_disk_rejected(params):
    # tanh(R/2) rounds to 1 from R = 37.98 on
    with pytest.raises(ParameterDomainError, match="too large"):
        params.resolve()
    with pytest.raises(ParameterDomainError, match="too large"):
        generate(params)


def test_n_beyond_int64_keys_rejected_before_sampling():
    # checked in the constructor, before 16 n bytes of coordinates exist
    assert GeneratorParams(n=MAX_N, avg_degree=16.0, gamma=3.0).n == MAX_N
    with pytest.raises(ParameterDomainError, match="n must be in"):
        GeneratorParams(n=MAX_N + 1, avg_degree=16.0, gamma=3.0)


def test_radius_just_inside_the_poincare_disk_accepted():
    assert to_poincare_radius(37.9) < 1.0
    assert generate(GeneratorParams(n=100, radius=37.9, alpha=1.0)).n == 100


def test_resolve_translates_gamma_and_degree():
    alpha, radius = GeneratorParams(n=1000, avg_degree=8.0, gamma=3.0).resolve()
    assert alpha == pytest.approx(1.0)
    assert radius > 0
    assert GeneratorParams(n=1000, radius=12.0, alpha=0.75).resolve() == (0.75, 12.0)


# -- sampling -----------------------------------------------------------------


@given(
    st.floats(0.0, 1.0),
    st.floats(0.55, 3.0),
    st.floats(2.0, 25.0),
)
@example(u=1.0, alpha=2.3424380972459797, radius=23.5)  # rounds past R uncapped
def test_radial_inverse_cdf_inverts_the_cdf(u, alpha, radius):
    r = radial_inverse_cdf(u, alpha, radius)
    assert 0.0 <= r <= radius
    assert radial_cdf(r, alpha, radius) == pytest.approx(u, abs=1e-9)


def test_radial_inverse_cdf_domain():
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(-0.1, 1.0, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(1.1, 1.0, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(math.nan, 1.0, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(np.array([0.5, math.nan]), 1.0, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(0.5, 0.0, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(0.5, math.inf, 10.0)
    with pytest.raises(ParameterDomainError):
        radial_inverse_cdf(0.5, 1.0, 0.0)


def test_sinh_overflow_is_a_domain_error():
    # sinh(alpha*R/2) overflows a float from alpha*R/2 of about 710 on
    with pytest.raises(ParameterDomainError, match=r"alpha\*R/2 = 1000 is too large"):
        radial_inverse_cdf(0.5, 200.0, 10.0)
    with pytest.raises(ParameterDomainError, match=r"alpha\*R/2"):
        generate(GeneratorParams(n=100, radius=10.0, alpha=200.0))
    assert radial_inverse_cdf(1.0, 140.0, 10.0) == pytest.approx(10.0)


def test_sample_points_deterministic_and_in_range():
    a = sample_points(5000, 0.8, 14.0, seed=42)
    b = sample_points(5000, 0.8, 14.0, seed=42)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.r_native, b.r_native)
    assert len(a) == 5000
    assert a.phi.min() >= 0.0 and a.phi.max() < TWO_PI
    assert a.r_native.min() >= 0.0 and a.r_native.max() < 14.0
    c = sample_points(5000, 0.8, 14.0, seed=43)
    assert not np.array_equal(a.phi, c.phi)


def test_sampled_distributions_fit():
    # fixed seed, so these are deterministic regression checks, not flaky
    coords = sample_points(40_000, 0.7, 16.0, seed=123)
    p_angle = stats.kstest(coords.phi / TWO_PI, "uniform").pvalue
    p_radius = stats.kstest(
        coords.r_native, lambda r: radial_cdf(r, 0.7, 16.0)
    ).pvalue
    assert p_angle > 0.01
    assert p_radius > 0.01


# -- generation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,kbar,gamma,seed",
    [
        (300, 6.0, 2.4, 0),
        (700, 10.0, 3.0, 1),
        (1200, 4.0, 5.0, 2),
    ],
)
def test_generate_matches_brute_force(n, kbar, gamma, seed):
    params = GeneratorParams(n=n, avg_degree=kbar, gamma=gamma, seed=seed)
    alpha, radius = params.resolve()
    g, stats_ = generate_with_stats(params)
    coords = sample_points(n, alpha, radius, seed)
    brute = generate_brute_force(coords, radius)
    assert np.array_equal(g.indptr, brute.indptr)
    assert np.array_equal(g.indices, brute.indices)
    assert stats_.n == n
    assert stats_.m == g.m
    assert (stats_.alpha, stats_.radius) == (alpha, radius)
    assert stats_.t_total_ns >= stats_.t_edges_ns


def test_explicit_radius_skips_degree_solving():
    g = generate(GeneratorParams(n=500, radius=9.0, alpha=1.0, seed=0))
    coords = sample_points(500, 1.0, 9.0, 0)
    brute = generate_brute_force(coords, 9.0)
    assert np.array_equal(g.indices, brute.indices)


def test_same_seed_same_graph_different_seed_different_graph():
    p0 = GeneratorParams(n=2000, avg_degree=8.0, gamma=3.0, seed=9)
    assert np.array_equal(generate(p0).indices, generate(p0).indices)
    p1 = GeneratorParams(n=2000, avg_degree=8.0, gamma=3.0, seed=10)
    assert not np.array_equal(generate(p0).indices, generate(p1).indices)


def test_thread_count_does_not_change_output():
    # the second case is hub-heavy and spans more than one block per band
    for base in (
        dict(n=25_000, avg_degree=12.0, gamma=2.8, seed=4),
        dict(n=40_000, avg_degree=32.0, gamma=2.2, seed=5),
    ):
        assert base["n"] > generator._EDGE_CHUNK
        g1 = generate(GeneratorParams(**base, threads=1))
        g3 = generate(GeneratorParams(**base, threads=3))
        assert np.array_equal(g1.indptr, g3.indptr)
        assert np.array_equal(g1.indices, g3.indices)


def test_edge_blocks_are_band_aligned_storage_slices(monkeypatch):
    seen, query_many = {}, PolarQuadtree.query_many

    def recorded(tree, lo, hi, radius):
        seen.setdefault(id(tree), (tree, []))[1].append((lo, hi))
        return query_many(tree, lo, hi, radius)

    monkeypatch.setattr(PolarQuadtree, "query_many", recorded)
    monkeypatch.setattr(generator, "_EDGE_CHUNK", 1000)
    n = 20_000
    for threads in (1, 3):
        generate(GeneratorParams(n=n, avg_degree=8.0, gamma=2.5, seed=2, threads=threads))
    (tree, grid1), (_, grid3) = seen.values()
    # the grid is the same for any thread count
    slices = sorted(grid1)
    assert slices == sorted(grid3)
    # the slices cover [0, n) once, each non-empty and at most one chunk long
    assert slices[0][0] == 0 and slices[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    assert all(0 < hi - lo <= 1000 for lo, hi in slices)
    # no slice crosses a band boundary, and bands fill their slices
    ptr = tree.band_ptr
    assert not any(np.any((lo < ptr) & (ptr < hi)) for lo, hi in slices)
    assert sum(hi - lo == 1000 for lo, hi in slices) >= 10
    assert len(slices) == sum(-(-int(size) // 1000) for size in np.diff(ptr))


def test_coordinates_are_freed_before_the_query(monkeypatch):
    refs, alive, query_many = [], [], PolarQuadtree.query_many

    def sampled(*args):
        coords = sample_points(*args)
        refs.extend(weakref.ref(a) for a in (coords.phi, coords.r_native))
        return coords

    def checked(tree, lo, hi, radius):
        alive.append(sum(ref() is not None for ref in refs))
        return query_many(tree, lo, hi, radius)

    monkeypatch.setattr(generator, "sample_points", sampled)
    monkeypatch.setattr(PolarQuadtree, "query_many", checked)
    generate(GeneratorParams(n=3000, avg_degree=8.0, gamma=3.0, seed=1))
    assert len(refs) == 2 and alive and not any(alive)


def test_leaf_capacity_does_not_change_output():
    n = 8000
    alpha, radius = GeneratorParams(n=n, avg_degree=10.0, gamma=3.0).resolve()
    coords = sample_points(n, alpha, radius, 6)
    trees, edge_sets = [], []
    for capacity in (1, 128, n):
        tree = PolarQuadtree.build(
            coords.phi, coords.r_native, alpha=alpha, radius=radius, capacity=capacity
        )
        v, w = tree.query_many(0, n, radius)
        # each edge is found once, from the endpoint stored first
        position = np.argsort(tree.p_id)
        assert np.all(position[v] < position[w])
        keys = np.sort(np.minimum(v, w) * n + np.maximum(v, w))
        assert np.all(np.diff(keys) > 0) and keys.size > n
        trees.append(tree)
        edge_sets.append(keys)
    # the capacity sizes only the leaf grid; the bands and their storage
    # order are the same for every capacity
    assert [tree.height() for tree in trees] == [7, 3, 0]
    for tree in trees[1:]:
        for name in ("p_id", "band_ptr", "band_r", "band_rmin", "band_rmax"):
            assert np.array_equal(getattr(tree, name), getattr(trees[0], name)), name
    assert np.array_equal(edge_sets[0], edge_sets[1])
    assert np.array_equal(edge_sets[0], edge_sets[2])


def test_realized_degree_tracks_target():
    # single fixed-seed runs at alpha >= 1 where the edge count concentrates;
    # below alpha = 1 the degree variance diverges and a single seed can be
    # off by several percent, which the acceptance suite absorbs by averaging
    for alpha, kbar in ((1.0, 16.0), (1.5, 8.0)):
        g = generate(GeneratorParams(n=50_000, avg_degree=kbar, alpha=alpha, seed=1))
        realized = 2.0 * g.m / 50_000
        assert realized == pytest.approx(kbar, rel=0.05)


def test_single_vertex_graph():
    g = generate(GeneratorParams(n=1, radius=5.0, alpha=1.0, seed=0))
    assert g.n == 1 and g.m == 0


# -- long-range augmentation ---------------------------------------------------


def test_long_range_edges_added_deterministically():
    g = generate(GeneratorParams(n=3000, avg_degree=6.0, gamma=3.0, seed=2))
    aug1 = add_long_range_edges(g, 0.01, seed=2)
    aug2 = add_long_range_edges(g, 0.01, seed=2)
    assert aug1.m == g.m + math.ceil(0.01 * g.m)
    assert np.array_equal(aug1.indices, aug2.indices)
    # the original edges all survive
    old = set(map(tuple, g.edge_array().tolist()))
    new = set(map(tuple, aug1.edge_array().tolist()))
    assert old < new


def test_long_range_fraction_wired_into_generate():
    base = dict(n=3000, avg_degree=6.0, gamma=3.0, seed=2)
    plain, plain_stats = generate_with_stats(GeneratorParams(**base))
    aug, stats_ = generate_with_stats(GeneratorParams(**base, long_range_fraction=0.01))
    assert aug.m == plain.m + math.ceil(0.01 * plain.m)
    assert plain_stats.t_long_range_ns == 0
    assert stats_.t_long_range_ns > 0
    assert stats_.t_total_ns == (
        stats_.t_sample_ns + stats_.t_build_ns + stats_.t_edges_ns + stats_.t_long_range_ns
    )


def test_brute_force_rejects_points_off_the_disk():
    # the disk radius of the reference is its edge threshold R: a point at
    # native radius R or beyond lies off the disk, and is not moved onto it
    coords = sample_points(50, 1.0, 6.0, 0)
    assert generate_brute_force(coords, 6.0).m > 0
    for outside in (6.0, 6.5, math.nan, -0.1):
        r_native = coords.r_native.copy()
        r_native[7] = outside
        with pytest.raises(OutOfBoundsError):
            generate_brute_force(VertexCoordinates(phi=coords.phi, r_native=r_native), 6.0)
    with pytest.raises(OutOfBoundsError):
        generate_brute_force(coords, 0.9 * coords.r_native.max())
    for radius in (0.0, -1.0, 38.0):
        with pytest.raises(ParameterDomainError):
            generate_brute_force(coords, radius)


def test_long_range_rejects_full_graph():
    # four points within 0.5 of the origin lie less than R = 1 apart
    full = generate_brute_force(sample_points(4, 1.0, 0.5, 0), 1.0)
    assert full.m == 6
    with pytest.raises(InfeasibleParametersError):
        add_long_range_edges(full, 0.5, seed=0)


def _near_complete_graph():
    # 30 vertices, all but 20 of the 435 pairs present: most draws are
    # rejected, and the last picks often repeat earlier ones
    rng = np.random.default_rng(4)
    u, v = np.nonzero(np.triu(np.ones((30, 30), dtype=bool), k=1))
    keep = np.sort(rng.permutation(u.size)[20:])
    return Graph.from_edge_arrays(30, u[keep], v[keep])


@pytest.mark.parametrize(
    "make, fraction, seed",
    [
        (lambda: generate(GeneratorParams(n=2000, avg_degree=8.0, gamma=3.0, seed=5)), 0.05, 5),
        (lambda: generate(GeneratorParams(n=3000, avg_degree=6.0, gamma=2.2, seed=1)), 0.3, 9),
        (lambda: gnp_graph(60, 0.3, np.random.default_rng(1)), 0.5, 3),
        (lambda: from_edges(5, [(0, 1)]), 0.99, 0),
        (_near_complete_graph, 0.045, 0),
        (_near_complete_graph, 0.045, 11),
    ],
)
def test_long_range_edges_match_scalar_oracle(make, fraction, seed):
    # batched draws must pick exactly the pairs of one draw per pair
    graph = make()
    got = add_long_range_edges(graph, fraction, seed)
    want = long_range_scalar(graph, fraction, seed)
    assert got.m == graph.m + math.ceil(fraction * graph.m)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def test_generation_with_shortcuts_builds_the_csr_once(monkeypatch):
    calls = []
    build = Graph.from_edge_arrays.__func__

    def counted(cls, *args):
        calls.append(args[0])
        return build(cls, *args)

    monkeypatch.setattr(Graph, "from_edge_arrays", classmethod(counted))
    params = GeneratorParams(
        n=3000, avg_degree=8.0, gamma=3.0, seed=1, threads=2, long_range_fraction=0.05
    )
    graph, _ = generate_with_stats(params)
    assert calls == [3000]
    assert graph.m > 0


@pytest.mark.parametrize("threads", [1, 2])
def test_generation_and_write_stay_below_32_bytes_per_edge(tmp_path, threads):
    # each edge is held once, as its key, from the query to the file, and
    # the writer's blocks in flight cost memory per worker, not per edge
    params = GeneratorParams(
        n=100_000,
        avg_degree=64.0,
        gamma=2.2,
        seed=0,
        threads=threads,
        long_range_fraction=0.05,
    )
    tracemalloc.start()
    try:
        graph, _ = generate_with_stats(params)
        write_edgelist(graph, tmp_path / "g.edges", threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.m > 3_000_000
    assert peak <= 32 * graph.m, f"{peak / graph.m:.1f} bytes per edge"


# -- the edge predicate at the edges of the domain ------------------------------


def coords_from_native(phi, r_native, radius):
    """Vertex coordinates at the given native radii, kept inside the disk as
    `sample_points` keeps its samples."""
    return VertexCoordinates(
        phi=np.mod(np.asarray(phi, dtype=np.float64), TWO_PI),
        r_native=np.minimum(np.asarray(r_native, dtype=np.float64), np.nextafter(radius, 0.0)),
    )


def generate_from(coords, radius, threads=1):
    """The generator's graph on given coordinates."""
    params = GeneratorParams(n=len(coords), radius=radius, alpha=1.0, threads=threads)
    with mock.patch.object(generator, "sample_points", lambda *args: coords):
        return generate(params)


def assert_matches_brute_force(coords, radius):
    graph = generate_from(coords, radius)
    brute = generate_brute_force(coords, radius)
    assert np.array_equal(graph.indptr, brute.indptr)
    assert np.array_equal(graph.indices, brute.indices)
    return graph


def tie_pairs(count, radius, eps, seed):
    """`count` vertex pairs (2i, 2i + 1) at hyperbolic distance radius * (1 +-
    eps), the sign drawn per pair: radii from the radial law with alpha = 1,
    angle gaps from the hyperbolic law of cosines."""
    rng = np.random.default_rng(seed)
    dist = radius * (1.0 + eps * rng.choice([-1.0, 1.0], size=4 * count))
    r1 = radial_inverse_cdf(rng.random(4 * count), 1.0, radius)
    r2 = radial_inverse_cdf(rng.random(4 * count), 1.0, radius)
    # a pair at distance D needs |r1 - r2| < D < r1 + r2
    ok = (r1 + r2 > dist) & (np.abs(r1 - r2) < dist)
    dist, r1, r2 = dist[ok][:count], r1[ok][:count], r2[ok][:count]
    assert dist.size == count
    # cosh D - cosh(r1 - r2) = 2 sinh r1 sinh r2 sin^2(gap / 2)
    half = np.sinh((dist + r1 - r2) / 2.0) * np.sinh((dist - r1 + r2) / 2.0)
    gap = 2.0 * np.arcsin(np.sqrt(half / (np.sinh(r1) * np.sinh(r2))))
    phi1 = rng.random(count) * TWO_PI
    phi2 = phi1 + rng.choice([-1.0, 1.0], size=count) * gap
    phi = np.column_stack((phi1, phi2)).ravel()
    return coords_from_native(phi, np.column_stack((r1, r2)).ravel(), radius)


def test_ties_are_decided_once_and_by_one_predicate():
    # 3,000 pairs at distance R(1 +- 1e-12); before the predicate was
    # symmetric, 1,134 of them depended on which endpoint asked, and on 755
    # the generator and the brute-force reference disagreed
    radius, count = 20.0, 3000
    coords = tie_pairs(count, radius, 1e-12, 0)
    graph = assert_matches_brute_force(coords, radius)
    # the predicate, on the tree's stored arrays, is the same from both ends
    tree = PolarQuadtree.build(coords.phi, coords.r_native, alpha=1.0, radius=radius)
    at = np.argsort(tree.p_id)
    v, w = at[0::2], at[1::2]
    x, y, b = tree.p_x, tree.p_y, tree.p_b
    from_v = within_distance(x[w] - x[v], y[w] - y[v], b[w], b[v], radius)
    from_w = within_distance(x[v] - x[w], y[v] - y[w], b[v], b[w], radius)
    assert np.array_equal(from_v, from_w)
    pairs = np.arange(0, 2 * count, 2)
    assert np.array_equal(
        [has_edge(graph, u, u + 1) for u in pairs.tolist()], from_v
    )
    # the ties fall on both sides
    assert 0 < from_v.sum() < count


@given(
    st.integers(2, 120),
    st.floats(4.0, 30.0),
    st.integers(0, 13),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
# 60 points within 1e-13 of the rim: all share one stored Poincare radius,
# and 1,332 of their 1,770 pairs are edges
@example(n=60, radius=30.0, depth=13, spread=0.0, seed=1)
def test_rim_points_match_brute_force(n, radius, depth, spread, seed):
    # near the rim, 1 - |p|^2 from the stored Poincare radius keeps few
    # digits; the weights come from the native radii instead
    rng = np.random.default_rng(seed)
    r = radius - 10.0**-depth * rng.random(n)
    # rim points at radius R are adjacent within an angle of about 4 e^(-R/2)
    phi = 1.0 + rng.random(n) * 4.0 * math.exp(-radius / 2.0) * 10.0**spread
    assert_matches_brute_force(coords_from_native(phi, r, radius), radius)


@given(
    st.integers(2, 150),
    st.floats(2.0, 25.0),
    st.floats(1e-9, 0.5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
# 100 points within 0.01 of the seam: 1,417 of the 2,464 pairs across it
# are edges
@example(n=100, radius=12.0, width=0.01, seed=0)
def test_pairs_across_the_seam_match_brute_force(n, radius, width, seed):
    # angles within `width` of 0 on both sides, so many pairs straddle 2pi
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-width, width, n)
    r = radial_inverse_cdf(rng.random(n), 1.0, radius)
    assert_matches_brute_force(coords_from_native(phi, r, radius), radius)


@given(
    st.integers(1, 30),
    st.integers(2, 6),
    st.floats(2.0, 25.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_duplicate_points_give_each_pair_once(distinct, copies, radius, seed):
    # points at distance 0 are adjacent; the CSR build rejects any pair
    # found twice, so each pair must come from one query only
    rng = np.random.default_rng(seed)
    phi = np.repeat(rng.random(distinct) * TWO_PI, copies)
    r = np.repeat(radial_inverse_cdf(rng.random(distinct), 1.0, radius), copies)
    order = rng.permutation(phi.size)
    graph = assert_matches_brute_force(coords_from_native(phi[order], r[order], radius), radius)
    group = order // copies
    for v in range(phi.size):
        twins = np.flatnonzero(group == group[v])
        assert np.isin(twins[twins != v], graph.neighbors(v)).all()
