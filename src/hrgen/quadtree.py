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
whole core of the disk, is split further into bands of halving mass: radii
in geometric progression, as in von Looz et al.'s band generator. A coarse
grid (few rows, many core bands) suits the query below.

A query asks, for each stored point v of a slice of the storage order,
which stored points w come after v in (Poincare radius, id) order and lie
within hyperbolic distance R of it. Both ends are read from the same stored
arrays. Over slices that cover the tree, that finds each edge once, from its
endpoint nearer the origin, and only bands at or outside v's radius need a
look. Each such band is dropped when its stored radii miss the Euclidean
circle that holds v's hyperbolic ball, and otherwise the angular window
that can hold hits is cut out of the band's angle-sorted points by binary
search. The circle, the window and their pads only bound the candidates:
one predicate, symmetric bit for bit in v and w (`within_distance`),
decides every edge.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfBoundsError
from .geometry import (
    TWO_PI,
    circle_params,
    radial_inverse_cdf,
    to_native_radius,
    to_poincare_radius,
    within_distance,
)
from .nputil import multi_arange

DEFAULT_LEAF_CAPACITY = 128

# A band is dropped for a circle only when its stored radii miss the
# circle's radial extent by more than this. Coordinates live in [-1, 1]; the
# pad sits orders above their rounding, so rounding can only keep a band.
# The circle takes the query's weight as 1 - r^2 of its Poincare radius,
# which near the rim differs from the predicate's weight by up to 1e-16 /
# (1 - r) relatively. At points no nearer the origin than the query, the
# only ones it is asked about, that moves the circle's boundary by at most
# about 1e-16 over the circle's radius; both pads cover it.
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
# consumed in blocks of at most this many candidates (plus one window). About
# ten arrays of 8 bytes per candidate are alive in a block, about 5 MB per
# querying thread; the hits kept from it add 16 bytes each. Larger blocks
# leave arrays that glibc maps and unmaps, or trims, per block: at 2^18 the
# query of n = 10^5, k = 64, gamma = 2.2 took 71 k minor page faults, at
# 2^16 20 k, and 0.54-0.66 s against 0.38-0.43 s (one thread, 2-core box).
_SCAN_BLOCK = 1 << 16


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
    `p_r`, `p_id`, Cartesian `p_x`/`p_y`, the weight `p_b` = 1 - `p_r`^2
    that the edge predicate reads, and `p_key`, which is the point's band
    times a fixed stride plus its angle and ascends over the whole array.
    """

    @classmethod
    def build(cls, phi, r, *, alpha, max_r, capacity=DEFAULT_LEAF_CAPACITY, b=None):
        """Build the tree for coordinate arrays (phi, r), all points inside
        [0, 2pi) x [0, max_r). Point i gets id i. The weights `b` default to
        1 - r^2; points sampled by native radius pass `disk_weight` of it,
        which keeps its digits at the rim.

        The height is the smallest h with n <= capacity * 4**h, so `capacity`
        bounds the expected number of points per leaf on model input, not the
        maximum: the leaf grid is fixed, and a leaf holds whatever falls in it.
        The innermost row is split into bands of halving mass until the
        innermost band expects at most one point.

        Each band's points are stored in (angle, id) order, the order of
        `np.lexsort((phi, band))`, from two cheaper sorts: an unstable
        argsort of the angles, redone stably only if two angles compare equal
        (-0.0 and 0.0 do), then a stable radix argsort of the small band
        index. A single float key band * stride + angle would round angles.
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
        if b is None:
            b = (1.0 - r) * (1.0 + r)
        else:
            b = np.ascontiguousarray(b, dtype=np.float64)
            if b.shape != phi.shape:
                raise ValueError("b must match the coordinate arrays")
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
        # Bands sorted by (angle, id) for the queries' binary searches.
        order = np.argsort(phi)
        p_phi = phi[order]
        if (p_phi[1:] == p_phi[:-1]).any():
            order = np.argsort(phi, kind="stable")
            p_phi = phi[order]
        band_dtype = np.min_scalar_type(bounds.size)
        by_band = np.argsort(band[order].astype(band_dtype), kind="stable")
        order = order[by_band]
        band = band[order]

        tree = cls.__new__(cls)
        tree._height = height
        tree.core = core
        tree.band_r = bounds
        tree.band_ptr = np.searchsorted(band, np.arange(bounds.size))
        tree.p_phi = p_phi[by_band]
        tree.p_r = r[order]
        tree.p_id = order
        tree.p_x = tree.p_r * np.cos(tree.p_phi)
        tree.p_y = tree.p_r * np.sin(tree.p_phi)
        tree.p_b = b[order]
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

    def query_many(self, lo, hi, radius):
        """The neighbours of stored points `lo`..`hi`-1 among the points
        stored after them.

        Returns (v_ids, w_ids) pair arrays, not sorted: for each stored point
        v of the slice, the ids of the stored points w that come after v in
        (Poincare radius, id) order and that `within_distance` puts at
        hyperbolic distance below `radius` from v. Both ends of a pair are
        read from the same stored arrays, so the predicate sees the same bits
        from either end. Queried over slices that cover the whole tree, it
        reports every edge once, from its endpoint that comes first.

        Bands whose stored radii all lie below v's are skipped, and so are
        bands whose radii miss the circle that holds v's ball. In every other
        band the points of the circle's angular window are candidates, and
        the predicate alone decides which of them are reported.
        """
        if not 0 <= lo <= hi <= len(self):
            raise ValueError("need 0 <= lo <= hi <= len(tree)")
        q_phi, q_r, q_b = self.p_phi[lo:hi], self.p_r[lo:hi], self.p_b[lo:hi]
        q_x, q_y, q_id = self.p_x[lo:hi], self.p_y[lo:hi], self.p_id[lo:hi]
        c_r, rad = circle_params(q_r, radius)
        rad_sq = rad * rad

        # Keep the (query, band) pairs whose band reaches out to v's radius
        # and in to the circle's outer edge. Queries come in storage order,
        # band by band and within a band by angle, so pairs run band by band
        # and consecutive windows search and scan nearby keys.
        outer = c_r + rad + _RADIAL_PAD
        near = (self.band_rmax[:, None] >= q_r) & (self.band_rmin[:, None] <= outer)
        k, lq = np.nonzero(near)

        # A stored point at origin distance p and angular offset d from the
        # circle center lies inside iff
        #   cos d > (p^2 + c^2 - rad^2) / (2 p c).
        # Minimizing the right side over the radii [r1, r2] a candidate can
        # have (endpoints plus the stationary point sqrt(c^2-rad^2)) bounds
        # the offset of any candidate. No candidate lies below v's radius.
        r1 = np.maximum(self.band_rmin[k], q_r[lq])
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
        mid = q_phi[lq]
        left = np.where(whole, 0.0, mid - delta)
        right = np.where(whole, TWO_PI, mid + delta)
        wrap = np.flatnonzero((left < 0.0) | (right > TWO_PI))
        below = left[wrap] < 0.0
        left = np.concatenate(
            (np.maximum(left, 0.0), np.where(below, left[wrap] + TWO_PI, 0.0))
        )
        right = np.concatenate(
            (np.minimum(right, TWO_PI), np.where(below, TWO_PI, right[wrap] - TWO_PI))
        )
        base = self.bands[np.concatenate((k, k[wrap]))] * _BAND_STRIDE
        lq = np.concatenate((lq, lq[wrap]))
        # Keys round by far less than the window pad.
        ws = np.searchsorted(self.p_key, base + left)
        we = np.searchsorted(self.p_key, base + right, side="right")

        out_v, out_w = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
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
                p_r, v_r = self.p_r[pidx], q_r[prep]
                p_id, v_id = self.p_id[pidx], q_id[prep]
                after = (p_r > v_r) | ((p_r == v_r) & (p_id > v_id))
                hit = after & within_distance(
                    self.p_x[pidx] - q_x[prep],
                    self.p_y[pidx] - q_y[prep],
                    self.p_b[pidx],
                    q_b[prep],
                    radius,
                )
                out_v.append(v_id[hit])
                out_w.append(p_id[hit])
        return np.concatenate(out_v), np.concatenate(out_w)

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
