"""Polar quadtree over the unit disk, stored as radial bands of its leaf grid.

Cells are annulus sectors in polar coordinates of the Poincare disk. Every
level of the tree halves a cell's angle range and splits its radial range so
that both shells carry equal probability mass under the sinh radial density
with growth parameter alpha. With points drawn from that density every child
of a cell is equally likely, so the tree fills up evenly, level by level,
and its leaves at depth h form a fixed grid: 2^h radial rows times 2^h
angular sectors of width 2pi / 2^h. Row boundaries are dyadic in the radial
mass u = (cosh(alpha*r) - 1) / (cosh(alpha*R) - 1) of native radius r, which
is the recursive equal-mass split in closed form. A node at depth d is a
block of 2^(h-d) rows times one sector of width 2pi / 2^d.

Points are stored by radial band, sorted by angle within each band. The
bands are the grid's rows, except that the innermost row, which spans the
whole core of the disk, is split further into bands of halving mass. Equal
mass makes rows narrow toward the rim but leaves the core row wide, and a
hub deep in it lies inside nearly every circle at every angle.

Range queries take a Euclidean circle and return the stored points strictly
inside it. Each (circle, band) pair is looked at once: the band is dropped
when its stored radii miss the circle's radial extent, and otherwise the
angular window that can hold hits is cut out of the band's angle-sorted
points by binary search. Every candidate then goes through the one per-point
test, squared Euclidean distance below squared radius, so that single
comparison decides every reported point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfBoundsError
from .geometry import (
    TWO_PI,
    EuclideanCircle,
    radial_inverse_cdf,
    to_native_radius,
    to_poincare_radius,
)
from .nputil import multi_arange

DEFAULT_LEAF_CAPACITY = 128

# A band is dropped for a circle only when its stored radii miss the
# circle's radial extent by more than this. Coordinates live in [-1, 1]; the
# pad sits orders above their rounding, so rounding can only keep a band.
_RADIAL_PAD = 1e-9

# Angular candidate windows are widened by this much (radians) so that the
# window can never round away a true hit; arccos amplifies input rounding to
# ~1e-8 near +-1, so this pad dominates it comfortably.
_WINDOW_PAD = 1e-6

# Bands are searched through one sorted key per point, the band index times
# this stride plus the angle. Windows are clipped to [0, 2pi], and the stride
# leaves a gap of 2pi between bands, so no window reaches into another band.
_BAND_STRIDE = 2.0 * TWO_PI

# Below this product of a point radius and a center radius the window's
# quotient could overflow; such a pair is treated like a center at the
# origin, which sees every angle.
_TINY = np.finfo(np.float64).tiny

# Band scans materialize one candidate row per (query, point) pair; pairs are
# consumed in blocks of at most this many candidates to bound peak memory.
_SCAN_BLOCK = 2_000_000


def band_boundaries(rows, core, alpha, max_r_native):
    """Native radii 0 = b_0 < b_1 < ... = max_r of the bands: `rows` shells
    of equal probability mass under the sinh radial density, the innermost
    of them split again into `core` + 1 bands of masses 2^-core, 2^-core,
    2^(1-core), ..., 2^-1 times 1 / rows. A shell [b, b'] has mass
    (cosh(alpha*b') - cosh(alpha*b)) / (cosh(alpha*max_r) - 1).

    For rows = 2**h the row boundaries are the radii of h levels of
    equal-mass splits.
    """
    if rows < 1 or core < 0:
        raise ValueError("need rows >= 1 and core >= 0")
    inner = 0.5 ** np.arange(core, 0, -1)
    mass = np.concatenate(([0.0], inner, np.arange(1, rows + 1))) / rows
    return radial_inverse_cdf(mass, alpha, max_r_native)


def _cos_bound(p, c, diff):
    """(p^2 + diff) / (2 p c), the cosine of the angular offset that a point
    at origin distance p must exceed to lie in a circle with center distance
    c and c^2 - rad^2 = diff; -inf (every angle) where p * c is below the
    smallest normal float."""
    pc = p * c
    out = np.full(p.shape, -np.inf)
    np.divide(p * p + diff, 2.0 * pc, out=out, where=pc >= _TINY)
    return out


class NodeView(NamedTuple):
    """Read-only view of one tree node: its depth, its radial row and angular
    sector at that depth, and the number of points it holds."""

    depth: int
    row: int
    sector: int
    size: int


class PolarQuadtree:
    """Point index over polar cells of the Poincare disk, created by `build`.

    The tree has `height()` levels below the root, and its leaves form a
    grid of 2**height radial rows times 2**height angular sectors. Bands
    0..`core` make up row 0, and band `core` + k is row k. `band_r` holds
    the bands' Poincare boundary radii; `band_ptr[b]:band_ptr[b + 1]` is
    band b's slice of the per-point arrays. `bands` lists the occupied
    bands, and `band_rmin`/`band_rmax` the radius range of the points each
    of them actually stores.

    Per-point arrays, each band's slice sorted by (angle, id): `p_phi`,
    `p_r`, `p_id`, Cartesian `p_x`/`p_y`, and `p_key`, which is the point's
    band times a fixed stride plus its angle and ascends over the whole
    array.
    """

    @classmethod
    def build(cls, phi, r, ids=None, *, alpha, max_r, capacity=DEFAULT_LEAF_CAPACITY):
        """Build the tree for coordinate arrays (phi, r), all points inside
        [0, 2pi) x [0, max_r). `ids` defaults to 0..n-1.

        The height is the smallest h with n <= capacity * 4**h, so `capacity`
        bounds the expected number of points per leaf on model input, not the
        maximum: the leaf grid is fixed, and a leaf holds whatever falls in it.
        The innermost row is split into bands of halving mass until the
        innermost band expects at most one point.
        """
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 < max_r < 1.0:
            raise ValueError("max_r must be in (0, 1)")
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        r = np.ascontiguousarray(r, dtype=np.float64)
        if phi.shape != r.shape or phi.ndim != 1:
            raise ValueError("phi and r must be 1-d arrays of equal length")
        if ids is None:
            ids = np.arange(phi.size, dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if ids.shape != phi.shape:
                raise ValueError("ids must match the coordinate arrays")
        if phi.size and not (
            phi.min() >= 0.0
            and phi.max() < TWO_PI
            and r.min() >= 0.0
            and r.max() < max_r
        ):
            raise OutOfBoundsError("point outside the tree region")

        height = 0
        while capacity * 4**height < phi.size:
            height += 1
        n_rows = 2**height
        core = 0
        while n_rows * 2**core < phi.size:
            core += 1
        bounds = to_poincare_radius(
            band_boundaries(n_rows, core, alpha, to_native_radius(max_r))
        )
        bounds[0], bounds[-1] = 0.0, max_r
        band = np.searchsorted(bounds[1:-1], r, side="right")
        # Bands sorted by (angle, id), so that queries cut an angular window
        # out of a band by binary search; ids make the layout deterministic.
        order = np.lexsort((ids, phi, band))
        band = band[order]

        tree = cls.__new__(cls)
        tree._height = height
        tree.core = core
        tree.band_r = bounds
        tree.band_ptr = np.searchsorted(band, np.arange(bounds.size))
        tree.p_phi = phi[order]
        tree.p_r = r[order]
        tree.p_id = ids[order]
        tree.p_x = tree.p_r * np.cos(tree.p_phi)
        tree.p_y = tree.p_r * np.sin(tree.p_phi)
        tree.p_key = band * _BAND_STRIDE + tree.p_phi

        # Actual point radius range per occupied band. Much tighter than the
        # band's bounds where its lower bound lies far below its sparsest
        # point, and that tightness is what makes the angular query windows
        # narrow.
        tree.bands = np.flatnonzero(np.diff(tree.band_ptr))
        starts = tree.band_ptr[tree.bands]
        tree.band_rmin = np.minimum.reduceat(tree.p_r, starts)
        tree.band_rmax = np.maximum.reduceat(tree.p_r, starts)
        return tree

    def __len__(self):
        return self.p_id.size

    # -- queries -----------------------------------------------------------

    def query_many(self, center_phi, center_r, radii):
        """Stored point ids strictly inside each query circle.

        Circles are given in polar form (center angle, center Poincare radius,
        Euclidean radius). Returns (query_index, point_id) pair arrays; the
        pairs are not sorted. Each (circle, band) pair is looked at once: the
        band is dropped when its stored radii miss the circle's radial
        extent, and otherwise every point in the circle's angular window over
        the band is tested against it. Only that test decides which points are
        reported.
        """
        c_phi = np.atleast_1d(np.asarray(center_phi, dtype=np.float64))
        c_r = np.atleast_1d(np.asarray(center_r, dtype=np.float64))
        radii = np.broadcast_to(
            np.asarray(radii, dtype=np.float64), c_phi.shape
        ).copy()
        if c_phi.shape != c_r.shape or c_phi.ndim != 1:
            raise ValueError("query arrays must be 1-d and of equal length")
        c_x = c_r * np.cos(c_phi)
        c_y = c_r * np.sin(c_phi)
        rad_sq = radii * radii

        # Keep the (circle, band) pairs whose radial extents [c - rad, c + rad]
        # and [band_rmin, band_rmax] meet. Pairs run band by band, and within
        # a band by center angle, so that consecutive windows search and scan
        # nearby keys.
        phase = np.mod(c_phi, TWO_PI)
        by_angle = np.argsort(phase)
        inner = (c_r - radii - _RADIAL_PAD)[by_angle]
        outer = (c_r + radii + _RADIAL_PAD)[by_angle]
        near = (self.band_rmax[:, None] >= inner) & (self.band_rmin[:, None] <= outer)
        k, lq = np.nonzero(near)
        lq = by_angle[lq]

        # A stored point at origin distance p and angular offset d from the
        # circle center lies inside iff
        #   cos d > (p^2 + c^2 - rad^2) / (2 p c).
        # Minimizing the right side over the band's point radius range [r1,r2]
        # (endpoints plus the stationary point sqrt(c^2-rad^2)) bounds the
        # offset of any candidate.
        r1 = self.band_rmin[k]
        r2 = self.band_rmax[k]
        c = c_r[lq]
        diff = c * c - rad_sq[lq]
        cos_lim = np.minimum(_cos_bound(r1, c, diff), _cos_bound(r2, c, diff))
        interior = (diff > 0.0) & (r1 * r1 <= diff) & (diff <= r2 * r2)
        if interior.any():
            idx = np.flatnonzero(interior)
            cos_lim[idx] = np.minimum(cos_lim[idx], np.sqrt(diff[idx]) / c[idx])
        delta = np.arccos(np.clip(cos_lim, -1.0, 1.0)) + _WINDOW_PAD

        # Within a pad of a half turn the window is the whole band; below it a
        # window crossing 0/2pi splits into two pieces that stay apart by far
        # more than key rounding, so no point is found twice.
        whole = delta >= math.pi - _WINDOW_PAD
        mid = phase[lq]
        lo = np.where(whole, 0.0, mid - delta)
        hi = np.where(whole, TWO_PI, mid + delta)
        wrap = np.flatnonzero((lo < 0.0) | (hi > TWO_PI))
        below = lo[wrap] < 0.0
        lo = np.concatenate(
            (np.maximum(lo, 0.0), np.where(below, lo[wrap] + TWO_PI, 0.0))
        )
        hi = np.concatenate(
            (np.minimum(hi, TWO_PI), np.where(below, TWO_PI, hi[wrap] - TWO_PI))
        )
        base = self.bands[np.concatenate((k, k[wrap]))] * _BAND_STRIDE
        lq = np.concatenate((lq, lq[wrap]))
        # Keys round by far less than the window pad.
        ws = np.searchsorted(self.p_key, base + lo)
        we = np.searchsorted(self.p_key, base + hi, side="right")

        out_q, out_p = [], []
        cum = np.cumsum(we - ws)
        if cum.size and cum[-1]:
            cuts = np.searchsorted(
                cum, np.arange(_SCAN_BLOCK, int(cum[-1]), _SCAN_BLOCK), side="left"
            )
            for ls, le, lqb in zip(
                np.split(ws, cuts), np.split(we, cuts), np.split(lq, cuts)
            ):
                pidx = multi_arange(ls, le)
                prep = np.repeat(lqb, le - ls)
                dx = self.p_x[pidx] - c_x[prep]
                dy = self.p_y[pidx] - c_y[prep]
                hit = dx * dx + dy * dy < rad_sq[prep]
                out_p.append(pidx[hit])
                out_q.append(prep[hit])

        if out_q:
            qidx = np.concatenate(out_q)
            ids = self.p_id[np.concatenate(out_p)]
        else:
            qidx = np.empty(0, dtype=np.int64)
            ids = np.empty(0, dtype=np.int64)
        return qidx, ids

    def query_circle(self, circle: EuclideanCircle):
        """Ids of stored points strictly inside the circle, ascending."""
        _, ids = self.query_many(
            [circle.center.phi], [circle.center.r], [circle.radius]
        )
        return np.sort(ids)

    # -- introspection ------------------------------------------------------

    def _cells(self):
        """Leaf of every stored point, numbered row * 2**height + sector."""
        n = 2**self._height
        band = np.repeat(np.arange(self.band_ptr.size - 1), np.diff(self.band_ptr))
        row = np.maximum(band - self.core, 0)
        edges = np.arange(1, n) * (TWO_PI / n)
        return row * n + np.searchsorted(edges, self.p_phi, side="right")

    def height(self):
        """Depth of the leaves (root alone has height 0)."""
        return self._height

    def nodes_at_depth(self, depth):
        """Views of the 4**depth nodes at `depth`, by row then sector; empty
        below the leaves."""
        if not 0 <= depth <= self._height:
            return []
        n, step = 2**depth, 2 ** (self._height - depth)
        sizes = np.bincount(self._cells(), minlength=4**self._height)
        sizes = sizes.reshape(n, step, n, step).sum(axis=(1, 3))
        return [
            NodeView(depth, row, sector, int(size))
            for (row, sector), size in np.ndenumerate(sizes)
        ]

    def leaves(self):
        """Views of all leaves, by row then sector."""
        return self.nodes_at_depth(self._height)

    def leaf_point_ids(self, leaf):
        """Vertex ids stored in a leaf, in angle order."""
        mine = np.flatnonzero(self._cells() == leaf.row * 2**self._height + leaf.sector)
        return self.p_id[mine[np.lexsort((self.p_id[mine], self.p_phi[mine]))]]
