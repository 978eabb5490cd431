import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrgen import (
    CellBounds,
    EuclideanCircle,
    OutOfBoundsError,
    PoincarePoint,
    PolarQuadtree,
    cell_circle_relation,
    splitting_radius,
    to_poincare_radius,
)
from hrgen.geometry import TWO_PI
from hrgen.quadtree import MAX_DEPTH


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


# -- splitting ---------------------------------------------------------------


def test_splitting_radius_frozen_oracle():
    # cosh(acosh(3) * 1) = 3; (3 + 1) / 2 = 2, so the split sits at acosh(2)
    assert splitting_radius(0.0, math.acosh(3.0), 1.0) == pytest.approx(
        math.acosh(2.0), abs=1e-14
    )


def test_splitting_radius_domain():
    with pytest.raises(ValueError):
        splitting_radius(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        splitting_radius(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        splitting_radius(0.0, 1.0, 0.0)


@given(
    st.floats(0.0, 20.0),
    st.floats(0.01, 15.0),
    st.floats(0.55, 4.0),
)
def test_splitting_radius_halves_mass(lo, width, alpha):
    hi = lo + width
    s = splitting_radius(lo, hi, alpha)
    assert lo < s < hi
    below = math.cosh(alpha * s) - math.cosh(alpha * lo)
    above = math.cosh(alpha * hi) - math.cosh(alpha * s)
    assert below == pytest.approx(above, rel=1e-9)


# -- cell vs circle classification -------------------------------------------


def test_cell_relation_basic_cases():
    cell = CellBounds(0.0, math.pi / 2, 0.2, 0.5)
    inside_all = EuclideanCircle(PoincarePoint(0.0, 0.0), 2.0)
    assert cell_circle_relation(cell, inside_all) == "contained"
    tiny_far = EuclideanCircle(PoincarePoint(math.pi, 0.9), 0.05)
    assert cell_circle_relation(cell, tiny_far) == "disjoint"
    crossing = EuclideanCircle(PoincarePoint(0.3, 0.35), 0.1)
    assert cell_circle_relation(cell, crossing) == "intersects"


def test_cell_relation_wide_cell_antipode():
    # cell wider than pi: the far side of the annulus belongs to the cell,
    # so a circle smaller than the far reach cannot contain it
    cell = CellBounds(0.0, 1.9 * math.pi, 0.3, 0.6)
    c = EuclideanCircle(PoincarePoint(0.0, 0.45), 0.8)
    assert cell_circle_relation(cell, c) == "intersects"
    assert cell_circle_relation(cell, EuclideanCircle(PoincarePoint(0.0, 0.45), 1.2)) == "contained"


def test_cell_relation_agrees_with_dense_sampling():
    rng = np.random.default_rng(7)
    for _ in range(300):
        lo_phi = rng.random() * TWO_PI
        width = rng.random() * (TWO_PI - lo_phi)
        lo_r = rng.random() * 0.8
        hi_r = lo_r + rng.random() * (0.95 - lo_r) + 1e-6
        cell = CellBounds(lo_phi, lo_phi + width + 1e-6, lo_r, hi_r)
        circle = EuclideanCircle(
            PoincarePoint(rng.random() * TWO_PI, rng.random() * 0.9),
            10 ** rng.uniform(-2, 0.3),
        )
        rel = cell_circle_relation(cell, circle)
        gp, gr = np.meshgrid(
            np.linspace(cell.min_phi, cell.max_phi, 24, endpoint=False),
            np.linspace(cell.min_r, hi_r - 1e-9, 24),
        )
        hits = brute_circle_ids(gp.ravel(), gr.ravel(), circle).size
        if rel == "disjoint":
            assert hits == 0
        elif rel == "contained":
            assert hits == gp.size


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
        # few distinct coordinates: angle ties inside leaves, piled-up cells
        phi = np.round(phi, 1) % TWO_PI
        r = np.round(r, 1) % 0.98
    ids = rng.permutation(n)
    tree = PolarQuadtree.build(phi, r, ids, alpha=alpha, max_r=0.98, capacity=capacity)
    assert len(tree) == n
    size = tree.stop - tree.start
    inner = tree.child0 >= 0
    leaf = ~inner
    assert np.all((size[leaf] <= capacity) | (tree.depth[leaf] == MAX_DEPTH))
    assert np.all(size[inner] > capacity)
    assert np.all(tree.depth[inner] < MAX_DEPTH)
    # children are consecutive, one level down, and tile their parent's slice
    for node in np.flatnonzero(inner):
        kids = tree.child0[node] + np.arange(4)
        assert np.all(tree.depth[kids] == tree.depth[node] + 1)
        assert tree.start[kids[0]] == tree.start[node]
        assert np.array_equal(tree.stop[kids[:3]], tree.start[kids[1:]])
        assert tree.stop[kids[3]] == tree.stop[node]
    assert tree.start[0] == 0 and tree.stop[0] == n
    assert np.array_equal(np.sort(tree.child0[inner]), 1 + 4 * np.arange(inner.sum()))
    # every point lies in its leaf's cell; leaf slices are sorted by (angle, id)
    owner = np.repeat(np.flatnonzero(leaf), size[leaf])
    owner = owner[np.argsort(np.repeat(tree.start[leaf], size[leaf]), kind="stable")]
    assert np.all(tree.min_phi[owner] <= tree.p_phi)
    assert np.all(tree.p_phi < tree.max_phi[owner])
    assert np.all(tree.min_r[owner] <= tree.p_r)
    assert np.all(tree.p_r < tree.max_r[owner])
    same = owner[1:] == owner[:-1]
    step = np.diff(tree.p_phi)
    assert np.all(step[same] >= 0.0)
    assert np.all(np.diff(tree.p_id)[same & (step == 0.0)] > 0)
    assert np.all(np.diff(tree.p_key) >= 0.0)
    # the stored points are the input points
    by_id = np.argsort(tree.p_id)
    assert np.array_equal(tree.p_id[by_id], np.arange(n))
    assert np.array_equal(tree.p_phi[by_id], phi[np.argsort(ids)])
    assert np.array_equal(tree.p_r[by_id], r[np.argsort(ids)])


def test_duplicate_points_stop_splitting_at_depth_cap():
    tree = PolarQuadtree.build(
        np.full(40, 1.0), np.full(40, 0.5), alpha=1.0, max_r=0.9, capacity=1
    )
    assert len(tree) == 40
    assert tree.height() == MAX_DEPTH
    [leaf] = [lf for lf in tree.leaves() if lf.size]
    assert leaf.size == 40 and leaf.depth == MAX_DEPTH
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
    leaves = tree.leaves()
    assert sum(leaf.size for leaf in leaves) == 2000
    assert all(leaf.size <= 32 for leaf in leaves)
    [root] = tree.nodes_at_depth(0)
    assert (root.index, root.depth, root.size) == (0, 0, 2000)
    d1 = tree.nodes_at_depth(1)
    assert [nd.index for nd in d1] == [1, 2, 3, 4]
    assert sum(nd.size for nd in d1) == 2000
    assert tree.height() == max(leaf.depth for leaf in leaves) >= 1
    assert tree.nodes_at_depth(tree.height() + 1) == []
    ids = np.concatenate([tree.leaf_point_ids(leaf) for leaf in leaves])
    assert np.array_equal(np.sort(ids), np.arange(2000))


def test_leaf_point_ids_in_angle_order():
    rng = np.random.default_rng(9)
    phi, r = random_points(rng, 300)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, max_r=0.98, capacity=16)
    for leaf in tree.leaves():
        got = tree.leaf_point_ids(leaf)
        assert np.all(np.diff(phi[got]) >= 0)
