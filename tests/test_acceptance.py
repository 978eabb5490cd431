"""Acceptance suite: end-to-end checks of the generator's contract.

Each test covers one numbered criterion and prints a single PASS/FAIL line
directly to the terminal (bypassing capture), so running this file gives a
twelve-line verdict. Tolerances are stated inline; several checks are
statistical but every one is deterministic because all seeds are pinned.

Runs the full n = 10^6 scaling measurement; expect a few minutes total.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import nnls

from hrgen import (
    EdgeListHeader,
    GeneratorParams,
    Graph,
    InsufficientDataError,
    alpha_from_gamma,
    connected_component_sizes,
    core_numbers,
    bfs_distances,
    degree_assortativity,
    diameter_bounds,
    generate,
    generate_brute_force,
    generate_with_stats,
    global_clustering,
    local_clustering,
    mean_local_clustering,
    power_law_exponent,
    sample_points,
    target_radius,
    to_poincare_radius,
    triangle_count,
    write_edgelist,
)
from hrgen.analysis import component_labels
from hrgen.geometry import circle_params
from hrgen.quadtree import PolarQuadtree

import helpers


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_01_quadtree_matches_brute_force(capsys):
    """Exact edge-set equality between the quadtree generator and the
    all-pairs reference over a grid of sizes, densities and exponents."""
    t0 = time.perf_counter()
    runs = 0
    for n in (100, 500, 2000):
        for kbar in (4.0, 16.0, 64.0):
            for gamma in (2.2, 3.0, 7.0):
                for seed in range(5):
                    try:
                        params = GeneratorParams(
                            n=n, avg_degree=kbar, gamma=gamma, seed=seed
                        )
                        alpha, radius = params.resolve()
                    except ValueError:
                        # kbar = 64 at n = 100 exceeds what the model can
                        # realize at any radius (the dense limit caps the
                        # adjacency probability near 0.59); cover the dense
                        # regime with an explicit small radius instead
                        params = GeneratorParams(
                            n=n, radius=1.0, gamma=gamma, seed=seed
                        )
                        alpha, radius = params.resolve()
                    fast = generate(params)
                    coords = sample_points(n, alpha, radius, seed)
                    slow = generate_brute_force(coords, radius)
                    assert np.array_equal(fast.indptr, slow.indptr)
                    assert np.array_equal(fast.indices, slow.indices)
                    runs += 1
    elapsed = time.perf_counter() - t0
    report(
        capsys, 1, "quadtree equals brute force", elapsed < 120.0,
        f"{runs} runs, all edge sets identical, {elapsed:.0f}s",
    )


def test_02_circle_transform_isometry(capsys):
    """Boundary points of the transformed Euclidean circle sit at the
    requested hyperbolic distance from the circle's hyperbolic center."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c_native = rng.uniform(0.0, 8.0)
        radius = rng.uniform(0.05, 8.0)
        r_center = to_poincare_radius(c_native)
        c, rad = circle_params(r_center, radius)
        px, py = r_center * math.cos(phi), r_center * math.sin(phi)
        cx, cy = c * math.cos(phi), c * math.sin(phi)
        for j in range(32):
            t = 2.0 * math.pi * j / 32.0
            bx = cx + rad * math.cos(t)
            by = cy + rad * math.sin(t)
            d = helpers.poincare_distance(px, py, bx, by)
            worst = max(worst, abs(d - radius))
    report(
        capsys, 2, "circle transform isometry", worst < 1e-7,
        f"32000 boundary points, worst |d - R| = {worst:.2e}",
    )


def test_03_cell_occupancy_balance(capsys):
    """Every depth-2 and depth-3 cell holds a Binomial(n, 4^-depth) count:
    each split halves the angle and halves the radial mass."""
    n = 1_000_000
    worst = 0.0
    for alpha in (0.6, 1.0, 3.0):
        radius = target_radius(n, 16.0, alpha)
        coords = sample_points(n, alpha, radius, 0)
        tree = PolarQuadtree.build(coords.phi, coords.r_native, alpha=alpha, radius=radius)
        for depth in (2, 3):
            nodes = tree.nodes_at_depth(depth)
            assert len(nodes) == 4**depth
            p = 0.25**depth
            sigma = math.sqrt(n * p * (1.0 - p))
            worst = max(
                worst, max(abs(node.size - n * p) / sigma for node in nodes)
            )
    report(
        capsys, 3, "cell occupancy balance", worst <= 5.0,
        f"240 cells over 3 alphas, worst deviation {worst:.2f} sigma (limit 5)",
    )


def test_04_tree_height_logarithmic(capsys):
    """Tree height stays within 2*log4(n) + 10 for n up to a million,
    including single-point leaves where the bound is actually exercised."""
    worst_slack = math.inf
    runs = 0
    for n in (1_000, 10_000, 100_000, 1_000_000):
        bound = 2.0 * math.log(n, 4.0) + 10.0
        for gamma in (2.2, 3.0):
            for seed in (0, 1):
                alpha, radius = GeneratorParams(
                    n=n, avg_degree=16.0, gamma=gamma, seed=seed
                ).resolve()
                coords = sample_points(n, alpha, radius, seed)
                tree = PolarQuadtree.build(
                    coords.phi, coords.r_native, alpha=alpha, radius=radius
                )
                assert tree.height() <= bound
                worst_slack = min(worst_slack, bound - tree.height())
                runs += 1
    for n in (1_000, 10_000):
        bound = 2.0 * math.log(n, 4.0) + 10.0
        alpha, radius = GeneratorParams(n=n, avg_degree=16.0, gamma=3.0).resolve()
        coords = sample_points(n, alpha, radius, 0)
        tree = PolarQuadtree.build(
            coords.phi, coords.r_native, alpha=alpha, radius=radius, capacity=1
        )
        assert tree.height() <= bound
        worst_slack = min(worst_slack, bound - tree.height())
        runs += 1
    report(
        capsys, 4, "tree height logarithmic", worst_slack >= 0.0,
        f"{runs} trees, min slack below bound {worst_slack:.1f} levels",
    )


def test_05_realized_average_degree(capsys):
    """The radius solved from a degree target actually delivers that degree,
    within 10% of target when averaged over 5 seeds."""
    n = 100_000
    details = []
    ok = True
    for kbar in (8.0, 32.0):
        realized = []
        for seed in range(5):
            g = generate(GeneratorParams(n=n, avg_degree=kbar, gamma=3.0, seed=seed))
            realized.append(2.0 * g.m / n)
        mean = sum(realized) / len(realized)
        ok = ok and abs(mean - kbar) <= 0.10 * kbar
        details.append(f"target {kbar:g} -> {mean:.2f}")
    report(capsys, 5, "realized average degree", ok, "; ".join(details))


def test_06_clustering_in_expected_band(capsys):
    """Vertex-averaged clustering lands in the band the model is known for."""
    g = generate(GeneratorParams(n=100_000, avg_degree=16.0, gamma=3.0, seed=0))
    value = mean_local_clustering(g)
    report(
        capsys, 6, "clustering coefficient", 0.6 <= value <= 0.95,
        f"mean local clustering {value:.3f}, band [0.6, 0.95]",
    )


def test_07_power_law_exponent_recovery(capsys):
    """MLE on the generated degree sequences recovers the requested exponent
    within 0.3, averaged over 5 seeds per gamma."""
    n = 100_000
    details = []
    ok = True
    for gamma in (2.5, 3.0, 4.0):
        estimates = []
        for seed in range(5):
            g = generate(GeneratorParams(n=n, avg_degree=16.0, gamma=gamma, seed=seed))
            deg = g.degrees()
            k_min = max(5, 2 * int(np.median(deg)))
            estimates.append(power_law_exponent(deg, k_min))
        mean = sum(estimates) / len(estimates)
        ok = ok and abs(mean - gamma) <= 0.3
        details.append(f"{gamma:g} -> {mean:.2f}")
    report(capsys, 7, "power-law exponent recovery", ok, "; ".join(details))


def test_08_giant_component_connectivity(capsys):
    """At average degree 64 the graph is essentially one component."""
    g = generate(GeneratorParams(n=100_000, avg_degree=64.0, gamma=3.0, seed=0))
    fraction = connected_component_sizes(g)[0] / g.n
    report(
        capsys, 8, "giant component connectivity", fraction >= 0.99,
        f"largest component holds {fraction:.4%} of vertices",
    )


def test_09_subquadratic_scaling(capsys):
    """Doubling m at fixed n roughly doubles edge-phase time, and total time
    across three decades of n fits a + b*n^1.5*log(n) + c*m*log(n)."""
    def timed(n, kbar, reps):
        best = None
        for _ in range(reps):
            g, s = generate_with_stats(
                GeneratorParams(n=n, avg_degree=kbar, gamma=3.0, seed=0)
            )
            del g
            best = s if best is None or s.t_total_ns < best.t_total_ns else best
        return best

    s64 = timed(100_000, 64.0, 2)
    s128 = timed(100_000, 128.0, 2)
    ratio = s128.t_edges_ns / s64.t_edges_ns

    sizes = (10_000, 30_000, 100_000, 300_000, 1_000_000)
    stats = [timed(n, 16.0, 2 if n <= 100_000 else 1) for n in sizes]
    ns = np.array(sizes, dtype=np.float64)
    ms = np.array([s.m for s in stats], dtype=np.float64)
    ts = np.array([s.t_total_ns / 1e9 for s in stats])
    design = np.column_stack(
        [np.ones_like(ns), ns**1.5 * np.log(ns), ms * np.log(ns)]
    )
    # the bound is on relative error, so fit in relative terms: rows scaled
    # by 1/t, columns scaled to O(1) so nnls is well conditioned
    weighted = design / ts[:, None]
    scale = weighted.max(axis=0)
    coef, _ = nnls(weighted / scale, np.ones_like(ts))
    residuals = np.abs((design / scale) @ coef - ts) / ts

    throughput = stats[-1].m / (stats[-1].t_total_ns / 1e9)
    ok = ratio <= 2.5 and float(residuals.max()) < 0.30
    report(
        capsys, 9, "subquadratic scaling", ok,
        f"edge-time ratio m x2 = {ratio:.2f} (limit 2.5), "
        f"fit residuals max {residuals.max():.1%} (limit 30%), "
        f"n=10^6: {ts[-1]:.0f}s, {throughput:,.0f} edges/s",
    )


def test_10_long_range_shortcuts(capsys):
    """A 0.5% admixture of uniform edges slashes the diameter while leaving
    local clustering nearly untouched."""
    base = dict(n=100_000, avg_degree=10.0, gamma=3.0, seed=0)
    plain = generate(GeneratorParams(**base))
    mixed = generate(GeneratorParams(**base, long_range_fraction=0.005))
    d_plain = diameter_bounds(plain)[1]
    d_mixed = diameter_bounds(mixed)[1]
    drop = (d_plain - d_mixed) / d_plain
    delta = abs(mean_local_clustering(mixed) - mean_local_clustering(plain))
    ok = drop >= 0.30 and delta < 0.05
    report(
        capsys, 10, "long-range shortcuts", ok,
        f"diameter bound {d_plain} -> {d_mixed} ({drop:.0%} drop, need 30%), "
        f"clustering shift {delta:.3f} (limit 0.05)",
    )


def test_11_thread_count_determinism(capsys, tmp_path):
    """The written edge-list file is byte-identical for 1 and 4 threads,
    each generating and writing with that many workers."""
    blobs = []
    for threads in (1, 4):
        g, s = generate_with_stats(
            GeneratorParams(
                n=100_000, avg_degree=16.0, gamma=3.0, seed=0, threads=threads
            )
        )
        path = tmp_path / f"threads{threads}.edges"
        write_edgelist(
            g, path,
            EdgeListHeader(n=g.n, m=g.m, seed=0, radius=s.radius, alpha=s.alpha),
            threads=threads,
        )
        blobs.append(path.read_bytes())
    report(
        capsys, 11, "thread-count determinism", blobs[0] == blobs[1],
        f"two files of {len(blobs[0]):,} bytes, byte-identical",
    )


def test_12_analysis_matches_brute_force(capsys):
    """Every analysis routine agrees with its textbook reference on 50
    random graphs: integers exactly, reals to 1e-12."""
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        p = float(rng.uniform(0.005, 0.2))
        g = helpers.gnp_graph(n, p, rng)

        assert triangle_count(g) == helpers.triangles_brute(g)
        assert abs(global_clustering(g) - helpers.transitivity_brute(g)) <= 1e-12
        got_local = local_clustering(g)
        for a, b in zip(got_local, helpers.local_clustering_brute(g)):
            assert abs(a - b) <= 1e-12
        assert abs(mean_local_clustering(g) - float(np.mean(got_local))) <= 1e-12

        want_r = helpers.assortativity_brute(g)
        got_r = degree_assortativity(g)
        if want_r is None:
            assert got_r is None
        else:
            assert abs(got_r - want_r) <= 1e-12

        comps = helpers.components_brute(g)
        labels, sizes = component_labels(g)
        assert sorted(sizes.tolist()) == sorted(len(c) for c in comps)
        for comp in comps:
            assert len({labels[v] for v in comp}) == 1
        assert connected_component_sizes(g).tolist() == sorted(
            (len(c) for c in comps), reverse=True
        )

        assert core_numbers(g).tolist() == helpers.cores_brute(g)

        for source in {0, n // 2, n - 1}:
            assert bfs_distances(g, source).tolist() == helpers.bfs_brute(g, source)

        d = helpers.diameter_brute(g)
        assert diameter_bounds(g) == (d, d)

        deg = g.degrees()
        k_min = max(2, int(np.median(deg)))
        want_mle = helpers.mle_brute(deg.tolist(), k_min)
        try:
            got_mle = power_law_exponent(deg, k_min)
        except InsufficientDataError:
            got_mle = None
        if want_mle is None:
            assert got_mle is None
        else:
            assert abs(got_mle - want_mle) <= 1e-12
        checked += 1
    report(
        capsys, 12, "analysis matches brute force", checked == 50,
        f"{checked} random graphs, every measure agreed",
    )
