import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrgen import (
    GeneratorParams,
    OutOfBoundsError,
    ParameterDomainError,
    PolarQuadtree,
    poincare_image,
    sample_points,
    to_poincare_radius,
)
from hrgen.geometry import TWO_PI, within_distance
from hrgen.quadtree import band_boundaries

# Native disk radius of the trees below unless a test says otherwise; the
# rim tanh(DISK/2) lies at 0.987.
DISK = 5.0


def query(tree, qid, radius):
    """Ids the tree reports for its stored point `qid`, ascending."""
    at = int(np.flatnonzero(tree.p_id == qid)[0])
    v, w = tree.query_many(at, at + 1, radius)
    assert np.all(v == qid)
    return np.sort(w)


def band_of(tree, r):
    """Band of each native radius, from the tree's Poincare band radii."""
    return np.searchsorted(tree.band_r[1:-1], to_poincare_radius(r), side="right")


def storage_rank(tree, phi, r):
    """Position of every point in the storage order (band, angle, id), from
    the tree's band radii alone."""
    rank = np.empty(phi.size, dtype=np.int64)
    rank[np.lexsort((phi, band_of(tree, r)))] = np.arange(phi.size)
    return rank


def leaf_members(tree, phi, r):
    """Ids of the points in each leaf, by row then sector: a point's row by
    `searchsorted` on `row_r`, its sector on the sector edges."""
    cells = 2 ** tree.height()
    row = np.searchsorted(tree.row_r[1:-1], to_poincare_radius(r), side="right")
    sector = np.searchsorted(np.arange(1, cells) * (TWO_PI / cells), phi, side="right")
    leaf = row * cells + sector
    order = np.argsort(leaf, kind="stable")
    return np.split(order, np.searchsorted(leaf[order], np.arange(1, cells * cells)))


def brute_after_ids(tree, phi, r, qid, radius, disk=DISK):
    """Points stored after point `qid` that the predicate accepts, by a
    linear scan of the Poincare images on the disk of radius `disk`."""
    rank = storage_rank(tree, phi, r)
    after = rank > rank[qid]
    p, b = poincare_image(r, disk)
    x, y = p * np.cos(phi), p * np.sin(phi)
    close = within_distance(x - x[qid], y - y[qid], b, b[qid], radius)
    return np.flatnonzero(after & close)


def brute_pairs(tree, phi, r, radius, disk=DISK):
    """Sorted keys v * n + w of every pair v, w with w stored after v that
    the predicate accepts."""
    n = phi.size
    rank = storage_rank(tree, phi, r)
    v, w = np.nonzero(np.ones((n, n), dtype=bool))
    after = rank[w] > rank[v]
    p, b = poincare_image(r, disk)
    x, y = p * np.cos(phi), p * np.sin(phi)
    close = within_distance(x[w] - x[v], y[w] - y[v], b[w], b[v], radius)
    keep = after & close
    return np.sort(v[keep] * n + w[keep])


def tree_pairs(tree, radius, cuts=()):
    """Sorted keys v * n + w of the pairs the tree reports when it is
    queried from each of its points, in the slices that `cuts` (sorted
    positions in the storage order) divide it into. Checks that no pair
    comes twice and that v is stored before w."""
    n = len(tree)
    bounds = [0, *cuts, n]
    slices = [tree.query_many(a, b, radius) for a, b in zip(bounds, bounds[1:])]
    v, w = (np.concatenate(ends) for ends in zip(*slices))
    position = np.argsort(tree.p_id)
    assert np.all(position[v] < position[w])
    keys = np.sort(v * n + w)
    assert np.all(np.diff(keys) > 0)
    return keys


def random_points(rng, n):
    """Native coordinates of points uniform by Euclidean area in the
    Poincare disk of radius 0.98, inside the disk of radius DISK."""
    phi = rng.random(n) * TWO_PI
    r = 2.0 * np.arctanh(np.sqrt(rng.random(n)) * 0.98)
    return phi, r


# -- splitting radii: the band boundaries ------------------------------------


def test_splitting_radius_frozen_oracle():
    # cosh(b) - 1 at the boundaries is (2/4) * (1/4, 1/2, 1, 2, 3, 4)
    want = [0.0] + [math.acosh(1.0 + m / 2.0) for m in (0.25, 0.5, 1, 2, 3, 4)]
    got = band_boundaries(4, 2, 1.0, math.acosh(3.0))
    assert got == pytest.approx(want, abs=1e-14)
    assert got[0] == 0.0


def test_splitting_radius_domain():
    with pytest.raises(ParameterDomainError):
        band_boundaries(0, 0, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        band_boundaries(4, -1, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        band_boundaries(4, 0, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        band_boundaries(4, 0, math.inf, 1.0)
    with pytest.raises(ParameterDomainError):
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
        (0.0, DISK + 0.1), (0.0, DISK), (0.0, -0.1), (-0.1, 1.0), (TWO_PI, 1.0),
        (math.nan, 1.0), (0.5, math.nan),
    )
    for phi, r in outside:
        with pytest.raises(OutOfBoundsError):
            PolarQuadtree.build(np.array([phi]), np.array([r]), alpha=1.0, radius=DISK)


def test_constructor_domain():
    point = (np.array([0.5]), np.array([0.5]))
    with pytest.raises(ParameterDomainError):
        PolarQuadtree.build(*point, alpha=0.0, radius=DISK)
    with pytest.raises(ParameterDomainError):
        PolarQuadtree.build(*point, alpha=math.inf, radius=DISK)
    # no rim inside the unit disk: R not positive, or tanh(R/2) rounds to 1
    for radius in (0.0, -1.0, math.nan, 38.0):
        with pytest.raises(ParameterDomainError):
            PolarQuadtree.build(*point, alpha=1.0, radius=radius)
    with pytest.raises(ParameterDomainError):
        PolarQuadtree.build(*point, alpha=1.0, radius=DISK, capacity=0)
    # shape mismatches stay plain ValueErrors
    with pytest.raises(ValueError):
        PolarQuadtree.build(np.zeros((2, 2)), np.zeros((2, 2)), alpha=1.0, radius=DISK)
    with pytest.raises(ValueError):
        PolarQuadtree.build(*point[:1], np.ones(2), alpha=1.0, radius=DISK)


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
        r = np.round(r, 1)
    tree = PolarQuadtree.build(phi, r, alpha=alpha, radius=DISK, capacity=capacity)
    p, b = poincare_image(r, DISK)
    assert len(tree) == n
    h = tree.height()
    assert n <= capacity * 4**h and (h == 0 or n > capacity * 4 ** (h - 1))
    # core + 1 halving-mass bands, whatever the capacity, and 2**h rows
    n_rows, core = 2**h, tree.band_r.size - 2
    assert n <= 2**core and (core == 0 or n > 2 ** (core - 1))
    rim = to_poincare_radius(DISK)
    for got, rows, c in ((tree.band_r, 1, core), (tree.row_r, n_rows, 0)):
        want = to_poincare_radius(band_boundaries(rows, c, alpha, DISK))
        want[0], want[-1] = 0.0, rim
        assert np.array_equal(got, want)
    row_r = tree.row_r
    assert tree.band_ptr[0] == 0 and tree.band_ptr[-1] == n
    assert np.all(np.diff(tree.band_ptr) >= 0)
    # every point lies in its band, and in its leaf's row and sector
    band = np.repeat(np.arange(core + 1), np.diff(tree.band_ptr))
    assert np.all(tree.band_r[band] <= tree.p_r)
    assert np.all(tree.p_r < tree.band_r[band + 1])
    width = TWO_PI / n_rows
    leaves = tree.leaves()
    assert len(leaves) == 4**h
    for leaf, got in zip(leaves, leaf_members(tree, phi, r)):
        assert got.size == leaf.size
        assert np.all(row_r[leaf.row] <= p[got])
        assert np.all(p[got] < row_r[leaf.row + 1])
        assert np.all(leaf.sector * width <= phi[got])
        assert np.all(phi[got] < (leaf.sector + 1) * width)
    assert sum(leaf.size for leaf in leaves) == n
    # bands are sorted by (angle, id) and p_key ascends
    same = band[1:] == band[:-1]
    step = np.diff(tree.p_phi)
    assert np.all(step[same] >= 0.0)
    assert np.all(np.diff(tree.p_id)[same & (step == 0.0)] > 0)
    assert np.all(np.diff(tree.p_key) >= 0.0)
    # each band keeps the radius range of its points, an empty one +-inf
    assert tree.band_rmin.size == tree.band_rmax.size == core + 1
    for k, (lo, hi) in enumerate(zip(tree.band_rmin, tree.band_rmax)):
        stored = tree.p_r[band == k]
        want = (stored.min(), stored.max()) if stored.size else (np.inf, -np.inf)
        assert (lo, hi) == want
    # the stored points are the input points, and a point's id is its index
    assert np.array_equal(np.sort(tree.p_id), np.arange(n))
    assert np.array_equal(tree.p_phi, phi[tree.p_id])
    assert np.array_equal(tree.p_r, p[tree.p_id])
    assert np.array_equal(tree.p_b, b[tree.p_id])


@pytest.mark.parametrize("radius", [35.0, 37.0])
def test_band_and_row_radii_come_from_the_model_radius(radius):
    # the rim tanh(R/2) keeps too few digits to give R back: 2 artanh(tanh(R/2))
    # is R + 0.032 at R = 35 and R - 0.26 at R = 37. So the boundaries are the
    # images of the native bounds for R itself.
    alpha, n = 1.0, 4000
    coords = sample_points(n, alpha, radius, 0)
    tree = PolarQuadtree.build(
        coords.phi, coords.r_native, alpha=alpha, radius=radius, capacity=16
    )
    core = tree.band_r.size - 2
    for got, rows, c in ((tree.band_r, 1, core), (tree.row_r, 2 ** tree.height(), 0)):
        want = to_poincare_radius(band_boundaries(rows, c, alpha, radius))
        want[0], want[-1] = 0.0, to_poincare_radius(radius)
        assert np.array_equal(got, want)


def _coarse_points(rng, n):
    """Few distinct coordinates: angle ties inside bands and across them."""
    return rng.integers(0, 12, n) * (TWO_PI / 12), rng.integers(0, 9, n) * 0.5


@pytest.mark.parametrize(
    "case, ties",
    [
        ("random", False),
        ("coarse", True),
        ("duplicates", True),
        ("signed zeros", True),
        ("empty", False),
        ("single", False),
    ],
)
@pytest.mark.parametrize("capacity", [1, 8, 128])
def test_build_order_equals_lexsort_oracle(case, ties, capacity):
    rng = np.random.default_rng(capacity)
    phi, r = {
        "random": lambda: random_points(rng, 3000),
        "coarse": lambda: _coarse_points(rng, 3000),
        "duplicates": lambda: (np.full(40, 1.0), np.full(40, 0.5)),
        # -0.0 compares equal to 0.0, so it is a tie that keeps id order
        "signed zeros": lambda: (
            np.tile([0.0, -0.0, 1.5, -0.0, 0.0], 30),
            np.repeat(np.linspace(0.0, 0.9, 30), 5),
        ),
        "empty": lambda: (np.zeros(0), np.zeros(0)),
        "single": lambda: (np.array([2.0]), np.array([0.3])),
    }[case]()
    sorted_phi = np.sort(phi)
    assert bool((sorted_phi[1:] == sorted_phi[:-1]).any()) == ties
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=capacity)
    assert np.array_equal(tree.p_id, np.lexsort((phi, band_of(tree, r))))
    assert np.array_equal(tree.p_phi, phi[tree.p_id])


def test_duplicate_points_share_one_cell():
    phi, r = np.full(40, 1.0), np.full(40, 0.5)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=1)
    assert len(tree) == 40 and tree.height() == 3
    members = leaf_members(tree, phi, r)
    assert [leaf.size for leaf in tree.leaves()] == [ids.size for ids in members]
    [ids] = [ids for ids in members if ids.size]
    assert np.array_equal(ids, np.arange(40))
    # the first of the copies sees the 39 others
    assert np.array_equal(query(tree, 0, 1e-6), np.arange(1, 40))
    # queried from its own points, the tree reports each pair once
    got = tree_pairs(tree, 1e-6)
    v, w = np.divmod(got, 40)
    assert got.size == 40 * 39 // 2 and np.all(v < w)


# -- queries -----------------------------------------------------------------


@given(
    st.integers(0, 300),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, 3.6),
    st.floats(1e-3, 12.0),
)
@settings(max_examples=60, deadline=None)
# a hub-like query near the origin: every point inside
@example(n=300, capacity=1, seed=3, q_phi=2.0, q_r=0.02, radius=5.0)
# a subnormal query radius, where the window's quotient would overflow
@example(n=0, capacity=1, seed=0, q_phi=0.0, q_r=2.225073858507e-311, radius=1.0)
@example(n=300, capacity=1, seed=0, q_phi=0.0, q_r=2.225073858507e-311, radius=0.6)
# small balls straddling phi = 0 from each side, with hits on both sides
@example(n=300, capacity=1, seed=0, q_phi=0.02, q_r=2.2, radius=1.2)
@example(n=300, capacity=1, seed=0, q_phi=TWO_PI - 0.02, q_r=2.2, radius=1.2)
def test_query_equals_linear_scan(n, capacity, seed, q_phi, q_r, radius):
    # the query point is stored as point n // 2 among n random points
    rng = np.random.default_rng(seed)
    phi, r = random_points(rng, n)
    phi, r = np.insert(phi, n // 2, q_phi), np.insert(r, n // 2, q_r)
    tree = PolarQuadtree.build(phi, r, alpha=0.9, radius=DISK, capacity=capacity)
    got = query(tree, n // 2, radius)
    assert np.array_equal(got, brute_after_ids(tree, phi, r, n // 2, radius))
    # the same tree queried from all of its points finds each pair once
    assert np.array_equal(tree_pairs(tree, radius), brute_pairs(tree, phi, r, radius))


@given(
    st.integers(0, 300),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 12.0),
    st.lists(st.integers(0, 300), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_any_partition_into_slices_finds_each_pair_once(n, capacity, seed, radius, cuts):
    # cuts fall anywhere in the storage order, across band boundaries too
    rng = np.random.default_rng(seed)
    phi, r = random_points(rng, n)
    tree = PolarQuadtree.build(phi, r, alpha=0.9, radius=DISK, capacity=capacity)
    cuts = sorted(min(c, n) for c in cuts)
    assert np.array_equal(
        tree_pairs(tree, radius, cuts), brute_pairs(tree, phi, r, radius)
    )


def test_query_on_boundary_is_excluded():
    # both points lie in the innermost band at angle 0, and in the single
    # row, so point 0 is stored first and queries point 1, at the origin
    tree = PolarQuadtree.build(
        np.array([0.0, 0.0]), np.array([1.1, 0.0]), alpha=1.0, radius=DISK
    )
    assert np.array_equal(tree.band_ptr, [0, 2, 2])
    assert np.array_equal(tree.row_r, [0.0, to_poincare_radius(DISK)])
    # the largest radius at which the predicate rejects point 1 on the
    # stored coordinates, and the next float above it, at which it accepts it
    (x0, x1), (b0, b1) = tree.p_x, tree.p_b
    rim, inside = 0.0, 3.0
    while (mid := 0.5 * (rim + inside)) not in (rim, inside):
        rim, inside = (rim, mid) if within_distance(x0 - x1, 0.0, b0, b1, mid) else (mid, inside)
    assert inside == np.nextafter(rim, math.inf) and 1.0 < rim < 1.2
    assert query(tree, 0, rim).size == 0
    assert np.array_equal(query(tree, 0, inside), [1])
    assert query(tree, 1, inside).size == 0


def test_query_many_matches_single_queries():
    rng = np.random.default_rng(11)
    phi, r = random_points(rng, 800)
    tree = PolarQuadtree.build(phi, r, alpha=1.2, radius=DISK, capacity=32)
    radii = rng.uniform(0.1, 8.0, 50)
    for i, qid in enumerate(rng.choice(800, 50, replace=False)):
        v, w = tree.query_many(0, len(tree), radii[i])
        got = np.sort(w[v == qid])
        assert np.array_equal(got, query(tree, qid, radii[i]))
        assert np.array_equal(got, brute_after_ids(tree, phi, r, qid, radii[i]))


def test_query_many_slice_validation():
    tree = PolarQuadtree.build(
        np.array([0.1, 0.2]), np.array([0.3, 0.4]), alpha=1.0, radius=DISK
    )
    for lo, hi in ((-1, 1), (1, 0), (0, 3), (3, 3), (2, 1)):
        with pytest.raises(ValueError):
            tree.query_many(lo, hi, 0.1)
    for lo, hi in ((0, 0), (1, 1), (2, 2)):
        v, w = tree.query_many(lo, hi, 5.0)
        assert v.size == w.size == 0


def test_query_empty_tree_and_zero_radius():
    tree = PolarQuadtree.build(np.empty(0), np.empty(0), alpha=1.0, radius=DISK)
    assert len(tree) == 0 and tree.height() == 0
    v, w = tree.query_many(0, 0, 5.0)
    assert v.size == w.size == 0
    # three points at one angle in one band are stored by id: point 0 at
    # radius 0.31 comes first, then point 1 and its copy 2 at 0.3
    tree = PolarQuadtree.build(
        np.full(3, 0.3), np.array([0.31, 0.3, 0.3]), alpha=1.0, radius=DISK
    )
    assert np.array_equal(tree.p_id, [0, 1, 2])
    with pytest.raises(ParameterDomainError):
        query(tree, 1, 0.0)
    assert np.array_equal(query(tree, 0, 0.1), [1, 2])
    # a point does not see itself, nor anything stored before it
    assert np.array_equal(query(tree, 1, 0.1), [2])
    assert query(tree, 2, 0.1).size == 0


# -- the own band: every point stored after v, nearer the origin too --------


@pytest.mark.parametrize("gamma, dr", [(3.0, 0.3), (2.2, 0.6), (3.0, 0.05)])
def test_same_band_neighbour_nearer_the_origin(gamma, dr):
    # the generator's points and bands, plus v near the rim and w further in,
    # in the same band: w is stored after v at hyperbolic distance just
    # below R, at an angle beyond what v's own radius would allow
    n = 1000
    alpha, radius = GeneratorParams(n=n, avg_degree=16.0, gamma=gamma).resolve()
    coords = sample_points(n, alpha, radius, 3)
    r_vw = np.array([radius - 0.05, radius - 0.05 - dr])
    (p_v, p_w), (b_v, b_w) = poincare_image(r_vw, radius)

    def close(theta):
        dx = p_w * np.cos(1.0 + theta) - p_v * np.cos(1.0)
        dy = p_w * np.sin(1.0 + theta) - p_v * np.sin(1.0)
        return within_distance(dx, dy, b_w, b_v, radius)

    inside, outside = 0.0, 1.0
    while (mid := 0.5 * (inside + outside)) not in (inside, outside):
        inside, outside = (mid, outside) if close(mid) else (inside, mid)
    assert close(inside) and not close(outside)
    phi = np.concatenate((coords.phi, [1.0, 1.0 + inside, 1.0 + outside]))
    r = np.concatenate((coords.r_native, r_vw[[0, 1, 1]]))
    tree = PolarQuadtree.build(phi, r, alpha=alpha, radius=radius)
    assert np.unique(band_of(tree, r[n:])).size == 1
    got = query(tree, n, radius)
    assert n + 1 in got and n + 2 not in got
    assert np.array_equal(got, brute_after_ids(tree, phi, r, n, radius, disk=radius))
    assert n not in query(tree, n + 1, radius)
    assert np.array_equal(
        tree_pairs(tree, radius), brute_pairs(tree, phi, r, radius, disk=radius)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_own_band_windows_across_the_seam(seed):
    # points within 0.3 of phi = 0 on either side, at radii that share few
    # bands: pairs across the seam inside one band are found from the point
    # just above 0, in the band's tail, and from nowhere else
    rng = np.random.default_rng(seed)
    # a tiny negative angle mod 2pi rounds to 2pi; the second mod makes it 0
    phi = (rng.uniform(-0.3, 0.3, 300) % TWO_PI) % TWO_PI
    r = rng.uniform(1.4, 2.9, 300)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=1000)
    radius = 2.5
    got = tree_pairs(tree, radius)
    assert np.array_equal(got, brute_pairs(tree, phi, r, radius))
    v, w = np.divmod(got, 300)
    same_band = band_of(tree, r[v]) == band_of(tree, r[w])
    assert np.sum(same_band & (phi[v] < 0.3) & (phi[w] > TWO_PI - 0.3)) > 10


def test_equal_angles_inside_one_band():
    # rays of points at one angle, radii in no particular id order, one of
    # them on the seam; -0.0 and 0.0 are one angle
    rng = np.random.default_rng(4)
    phi = np.repeat([0.0, -0.0, 1.0, 1.0 + 1e-9, TWO_PI - 1e-9], 40)
    r = rng.uniform(1.1, 2.9, phi.size)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=4096)
    for radius in (0.5, 2.0, 4.0):
        want = brute_pairs(tree, phi, r, radius)
        assert np.array_equal(tree_pairs(tree, radius), want)
    for qid in np.flatnonzero(phi == 1.0)[::7]:
        want = brute_after_ids(tree, phi, r, qid, 2.0)
        assert np.array_equal(query(tree, qid, 2.0), want)


def test_whole_windows_from_a_hub_at_the_origin():
    # the hub's circle holds the whole disk, so its windows are whole bands;
    # in its own band it sees only the points stored after it
    rng = np.random.default_rng(8)
    phi, r = random_points(rng, 400)
    phi = np.concatenate((phi, rng.uniform(0.0, TWO_PI, 6), [3.0]))
    r = np.concatenate((r, np.full(6, 2e-4), [0.0]))
    hub = phi.size - 1
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=1)
    own = band_of(tree, r) == band_of(tree, r[hub])
    assert (phi[own] < 3.0).any() and (phi[own] > 3.0).any()
    rank = storage_rank(tree, phi, r)
    got = query(tree, hub, 30.0)
    assert np.array_equal(got, np.flatnonzero(rank > rank[hub]))
    for radius in (30.0, 3.0):
        want = brute_pairs(tree, phi, r, radius)
        assert np.array_equal(tree_pairs(tree, radius), want)


# -- introspection -----------------------------------------------------------


def test_tree_shape_accounting():
    rng = np.random.default_rng(2)
    phi, r = random_points(rng, 2000)
    tree = PolarQuadtree.build(phi, r, alpha=1.0, radius=DISK, capacity=32)
    assert tree.height() == 3  # 32 * 4**3 = 2048 >= 2000 > 32 * 4**2
    [root] = tree.nodes_at_depth(0)
    assert (root.depth, root.row, root.sector, root.size) == (0, 0, 0, 2000)
    # a depth-1 node is half the radial mass times a half turn
    d1 = tree.nodes_at_depth(1)
    assert [(nd.row, nd.sector) for nd in d1] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    outer = to_poincare_radius(r) >= tree.row_r[4]
    upper = phi >= math.pi
    assert [nd.size for nd in d1] == [
        int(np.sum((outer == i) & (upper == j))) for i in (0, 1) for j in (0, 1)
    ]
    leaves = tree.leaves()
    assert len(leaves) == 64
    assert sum(leaf.size for leaf in leaves) == 2000
    assert tree.nodes_at_depth(4) == []
    assert [leaf.size for leaf in leaves] == [ids.size for ids in leaf_members(tree, phi, r)]
