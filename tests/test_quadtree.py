import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrgen import (
    EuclideanCircle,
    OutOfBoundsError,
    PoincarePoint,
    PolarQuadtree,
)
from hrgen.geometry import TWO_PI
from hrgen.quadtree import band_boundaries


def brute_circle_ids(phi, r, circle):
    cx = circle.center.r * math.cos(circle.center.phi)
    cy = circle.center.r * math.sin(circle.center.phi)
    dx = r * np.cos(phi) - cx
    dy = r * np.sin(phi) - cy
    return np.flatnonzero(dx * dx + dy * dy < circle.radius**2)


def random_points(rng, n, max_r=0.98):
    phi = rng.random(n) * TWO_PI
    r = np.sqrt(rng.random(n)) * max_r
    return phi, r


# -- splitting radii: the band boundaries ------------------------------------


def test_splitting_radius_frozen_oracle():
    # cosh(b) - 1 at the boundaries is (2/4) * (1/4, 1/2, 1, 2, 3, 4)
    want = [0.0] + [math.acosh(1.0 + m / 2.0) for m in (0.25, 0.5, 1, 2, 3, 4)]
    got = band_boundaries(4, 2, 1.0, math.acosh(3.0))
    assert got == pytest.approx(want, abs=1e-14)
    assert got[0] == 0.0


def test_splitting_radius_domain():
    with pytest.raises(ValueError):
        band_boundaries(0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        band_boundaries(4, -1, 1.0, 1.0)
    with pytest.raises(ValueError):
        band_boundaries(4, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        band_boundaries(4, 0, 1.0, 0.0)


@given(
    st.integers(0, 10),
    st.integers(0, 20),
    st.floats(0.01, 35.0),
    st.floats(0.55, 4.0),
)
def test_splitting_radius_halves_mass(h, core, radius, alpha):
    rows = 2**h
    b = band_boundaries(rows, core, alpha, radius)
    assert b.shape == (rows + core + 1,) and b[0] == 0.0
    assert b[-1] == pytest.approx(radius, rel=1e-12)
    assert np.all(np.diff(b) > 0.0)
    # 1 / 2**h of the mass per row is every split halving its shell's mass,
    # and each core band above the innermost holds as much as all below it;
    # mass below b is proportional to cosh(alpha*b) - 1 = 2 sinh^2(alpha*b/2)
    below = np.sinh(alpha * b / 2.0) ** 2
    mass = np.diff(below) / math.sinh(alpha * radius / 2.0) ** 2
    inner = 0.5 ** np.array([core] + list(range(core, 0, -1)))
    want = np.concatenate((inner, np.ones(rows - 1))) / rows
    assert mass == pytest.approx(want, rel=1e-9)


# -- construction ------------------------------------------------------------


def test_build_rejects_out_of_range():
    outside = (
        (0.0, 0.99), (0.0, 0.98), (-0.1, 0.5), (TWO_PI, 0.5), (math.nan, 0.5), (0.5, math.nan)
    )
    for phi, r in outside:
        with pytest.raises(OutOfBoundsError):
            PolarQuadtree.build(np.array([phi]), np.array([r]), alpha=1.0, max_r=0.98)


def test_constructor_domain():
    point = (np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError):
        PolarQuadtree.build(*point, alpha=0.0, max_r=0.9)
    with pytest.raises(ValueError):
        PolarQuadtree.build(*point, alpha=1.0, max_r=1.0)
    with pytest.raises(ValueError):
        PolarQuadtree.build(*point, alpha=1.0, max_r=0.9, capacity=0)
    with pytest.raises(ValueError):
        PolarQuadtree.build(np.zeros((2, 2)), np.zeros((2, 2)), alpha=1.0, max_r=0.9)
    with pytest.raises(ValueError):
        PolarQuadtree.build(*point, ids=np.arange(2), alpha=1.0, max_r=0.9)


@given(
    st.integers(0, 600),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.floats(0.55, 3.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_build_invariants(n, capacity, seed, alpha, coarse):
    rng = np.random.default_rng(seed)
    phi, r = random_points(rng, n)
    if coarse:
        # few distinct coordinates: angle ties inside bands, piled-up cells
        phi = np.round(phi, 1) % TWO_PI
        r = np.round(r, 1) % 0.98
    ids = rng.permutation(n)
    tree = PolarQuadtree.build(phi, r, ids, alpha=alpha, max_r=0.98, capacity=capacity)
    assert len(tree) == n
    h = tree.height()
    assert n <= capacity * 4**h and (h == 0 or n > capacity * 4 ** (h - 1))
    n_rows, core = 2**h, tree.core
    assert n <= n_rows * 2**core and (core == 0 or n > n_rows * 2 ** (core - 1))
    assert tree.band_ptr[0] == 0 and tree.band_ptr[-1] == n
    assert np.all(np.diff(tree.band_ptr) >= 0)
    # every point lies in its band, and in its leaf's row and sector
    band = np.repeat(np.arange(n_rows + core), np.diff(tree.band_ptr))
    assert np.all(tree.band_r[band] <= tree.p_r)
    assert np.all(tree.p_r < tree.band_r[band + 1])
    row_r = np.concatenate(([0.0], tree.band_r[core + 1 :]))
    width = TWO_PI / n_rows
    phi_of, r_of = np.empty(n), np.empty(n)
    phi_of[ids], r_of[ids] = phi, r
    leaves = tree.leaves()
    assert len(leaves) == 4**h
    for leaf in leaves:
        got = tree.leaf_point_ids(leaf)
        assert got.size == leaf.size
        assert np.all(row_r[leaf.row] <= r_of[got])
        assert np.all(r_of[got] < row_r[leaf.row + 1])
        assert np.all(leaf.sector * width <= phi_of[got])
        assert np.all(phi_of[got] < (leaf.sector + 1) * width)
    assert sum(leaf.size for leaf in leaves) == n
    # bands are sorted by (angle, id) and p_key ascends
    same = band[1:] == band[:-1]
    step = np.diff(tree.p_phi)
    assert np.all(step[same] >= 0.0)
    assert np.all(np.diff(tree.p_id)[same & (step == 0.0)] > 0)
    assert np.all(np.diff(tree.p_key) >= 0.0)
    # each occupied band keeps the radius range of its points
    assert np.array_equal(tree.bands, np.unique(band))
    for k, lo, hi in zip(tree.bands, tree.band_rmin, tree.band_rmax):
        stored = tree.p_r[band == k]
        assert (lo, hi) == (stored.min(), stored.max())
    # the stored points are the input points
    by_id = np.argsort(tree.p_id)
    assert np.array_equal(tree.p_id[by_id], np.arange(n))
    assert np.array_equal(tree.p_phi[by_id], phi[np.argsort(ids)])
    assert np.array_equal(tree.p_r[by_id], r[np.argsort(ids)])


def test_duplicate_points_share_one_cell():
    tree = PolarQuadtree.build(
        np.full(40, 1.0), np.full(40, 0.5), alpha=1.0, max_r=0.9, capacity=1
    )
    assert len(tree) == 40 and tree.height() == 3
    [leaf] = [lf for lf in tree.leaves() if lf.size]
    assert leaf.size == 40
    assert np.array_equal(tree.leaf_point_ids(leaf), np.arange(40))
    got = tree.query_circle(EuclideanCircle(PoincarePoint(1.0, 0.5), 1e-6))
    assert np.array_equal(got, np.arange(40))


# -- queries -----------------------------------------------------------------


@given(
    st.integers(0, 300),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, 0.95),
    st.floats(1e-4, 2.2),
)
@settings(max_examples=60, deadline=None)
# a hub-like circle on a many-row grid: centre near the origin, every point inside
@example(n=300, capacity=1, seed=3, c_phi=2.0, c_r=0.01, rad=1.0)
# a subnormal centre radius, where the window's quotient would overflow
@example(n=0, capacity=1, seed=0, c_phi=0.0, c_r=2.225073858507e-311, rad=1.0)
@example(n=300, capacity=1, seed=0, c_phi=0.0, c_r=2.225073858507e-311, rad=0.3)
# small circles straddling phi = 0 from each side, with hits on both sides
@example(n=300, capacity=1, seed=0, c_phi=0.02, c_r=0.8, rad=0.15)
@example(n=300, capacity=1, seed=0, c_phi=TWO_PI - 0.02, c_r=0.8, rad=0.15)
def test_query_equals_linear_scan(n, capacity, seed, c_phi, c_r, rad):
    rng = np.random.default_rng(seed)
    phi, r = random_points(rng, n)
    tree = PolarQuadtree.build(phi, r, alpha=0.9, max_r=0.98, capacity=capacity)
    circle = EuclideanCircle(PoincarePoint(c_phi, c_r), rad)
    got = tree.query_circle(circle)
    want = brute_circle_ids(phi, r, circle)
    assert np.array_equal(got, want)


def test_query_on_boundary_is_excluded():
    # point exactly on the circle boundary: strict predicate keeps it out
    tree = PolarQuadtree.build(
        np.array([0.0]), np.array([0.5]), alpha=1.0, max_r=0.9
    )
    on_rim = EuclideanCircle(PoincarePoint(0.0, 0.25), 0.25)
    assert tree.query_circle(on_rim).size == 0
    just_over = EuclideanCircle(PoincarePoint(0.0, 0.25), 0.2500001)
    assert tree.query_circle(just_over).size == 1


def test_query_many_matches_single_queries():
    rng = np.random.default_rng(11)
    phi, r = random_points(rng, 800)
    tree = PolarQuadtree.build(phi, r, alpha=1.2, max_r=0.98, capacity=32)
    c_phi = rng.random(50) * TWO_PI
    c_r = rng.random(50) * 0.9
    radii = 10 ** rng.uniform(-2, 0, 50)
    qidx, ids = tree.query_many(c_phi, c_r, radii)
    for i in range(50):
        circle = EuclideanCircle(PoincarePoint(c_phi[i], c_r[i]), radii[i])
        assert np.array_equal(np.sort(ids[qidx == i]), tree.query_circle(circle))


def test_query_many_shape_validation():
    tree = PolarQuadtree.build(np.empty(0), np.empty(0), alpha=1.0, max_r=0.9)
    with pytest.raises(ValueError):
        tree.query_many(np.zeros((2, 2)), np.zeros((2, 2)), 0.1)


def test_query_empty_tree_and_zero_radius():
    tree = PolarQuadtree.build(np.empty(0), np.empty(0), alpha=1.0, max_r=0.9)
    assert len(tree) == 0 and tree.height() == 0
    assert tree.query_circle(EuclideanCircle(PoincarePoint(0, 0), 5.0)).size == 0
    tree = PolarQuadtree.build(
        np.array([0.3]), np.array([0.3]), np.array([7]), alpha=1.0, max_r=0.9
    )
    assert tree.query_circle(EuclideanCircle(PoincarePoint(0.3, 0.3), 0.0)).size == 0
    assert np.array_equal(
        tree.query_circle(EuclideanCircle(PoincarePoint(0.3, 0.3), 0.1)), [7]
    )


# -- introspection -----------------------------------------------------------


def test_tree_shape_accounting():
    rng = np.random.default_rng(2)
    phi, r = random_points(rng, 2000)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, max_r=0.98, capacity=32)
    assert tree.height() == 3  # 32 * 4**3 = 2048 >= 2000 > 32 * 4**2
    [root] = tree.nodes_at_depth(0)
    assert (root.depth, root.row, root.sector, root.size) == (0, 0, 0, 2000)
    # a depth-1 node is half the radial mass times a half turn
    d1 = tree.nodes_at_depth(1)
    assert [(nd.row, nd.sector) for nd in d1] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    outer = r >= tree.band_r[tree.core + 4]
    upper = phi >= math.pi
    assert [nd.size for nd in d1] == [
        int(np.sum((outer == i) & (upper == j))) for i in (0, 1) for j in (0, 1)
    ]
    leaves = tree.leaves()
    assert len(leaves) == 64
    assert sum(leaf.size for leaf in leaves) == 2000
    assert tree.nodes_at_depth(4) == []
    ids = np.concatenate([tree.leaf_point_ids(leaf) for leaf in leaves])
    assert np.array_equal(np.sort(ids), np.arange(2000))


def test_leaf_point_ids_in_angle_order():
    rng = np.random.default_rng(9)
    phi, r = random_points(rng, 300)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, max_r=0.98, capacity=16)
    for leaf in tree.leaves():
        got = tree.leaf_point_ids(leaf)
        assert np.all(np.diff(phi[got]) >= 0)
