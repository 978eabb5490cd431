"""Polar quadtree over the unit disk, stored as radial bands of halving mass.

The tree takes points in native coordinates and makes their Poincare images
(`geometry.poincare_image`) once, as it is built. Cells are annulus sectors
in polar coordinates of the Poincare disk. Every level of the tree halves a
cell's angle range and splits its radial range so that both shells carry
equal probability mass under the sinh radial density with growth parameter
alpha. With points drawn from that density every child of a cell is equally
likely, so the tree fills up evenly, level by level, and its leaves at
depth h form a fixed grid: 2^h radial rows times 2^h angular sectors of
width 2pi / 2^h. Row boundaries are dyadic in the radial mass
u = (cosh(alpha*r) - 1) / (cosh(alpha*R) - 1) of native radius r, which is
the recursive equal-mass split in closed form. A node at depth d is a block
of 2^(h-d) rows times one sector of width 2pi / 2^d. The grid is a view,
computed from the stored points on demand.

Points are stored by radial band, sorted by angle within each band. The
outermost band holds half the probability mass, the next one a quarter, and
so on until the innermost band expects at most one point: radii in geometric
progression, as in von Looz et al.'s band generator. The storage does not
depend on the grid's height.

A query asks, for each stored point v of a slice of the storage order, which
points stored after v lie within hyperbolic distance R of it, reading both
ends from the same stored arrays. Over slices that cover the tree, that
finds each edge once, from its endpoint stored first, in v's own band and
the bands outside it. In the own band the candidates start right after v,
plus the band's tail where v's angular window crosses 0; the window spans
all the band's radii, as a neighbour there can lie nearer the origin. An
outer band is skipped when its radii miss the Euclidean circle that holds
v's ball, and otherwise gives the points of the circle's angular window. The
circle, the window and their pads only bound the candidates: one predicate,
symmetric bit for bit in v and w (`within_distance`), decides every edge.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfBoundsError, ParameterDomainError
from .geometry import (
    TWO_PI,
    circle_params,
    poincare_image,
    radial_inverse_cdf,
    to_poincare_radius,
    within_distance,
)

DEFAULT_LEAF_CAPACITY = 128

# A band is dropped for a circle only when its stored radii miss the circle's
# radial extent by more than this. Coordinates live in [-1, 1]; the pad sits
# orders above their rounding, so rounding can only keep a band. The circle
# takes the query's weight as 1 - r^2 of its Poincare radius, which near the
# rim differs from the predicate's weight by up to 1e-16 / (1 - r) relatively.
# At points no nearer the origin than the query that moves the circle's
# boundary by at most about 1e-16 over the circle's radius; at own-band points
# nearer the origin, by the root of the band's weight ratio more, which is at
# most about 2^(1/alpha) < 4 outside the innermost band (one point expected).
# Both pads cover it.
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
# ten arrays of 8 bytes per candidate (a complex one counts twice), about 5 MB
# per querying thread, are alive in a block; hits add 16 bytes each. Larger
# blocks leave arrays that glibc maps and unmaps, or trims, per block: at 2^18
# the query of n = 10^5, k = 64, gamma = 2.2 took 71 k minor page faults, at
# 2^16 20 k, and 0.54-0.66 s against 0.38-0.43 s (one thread, 2-core box).
_SCAN_BLOCK = 1 << 16


def band_boundaries(rows, core, alpha, radius):
    """Native radii 0 = b_0 < b_1 < ... = R = `radius` of the bands: `rows`
    shells of equal probability mass under the sinh radial density, the
    innermost of them split again into `core` + 1 bands of masses 2^-core,
    2^-core, 2^(1-core), ..., 2^-1 times 1 / rows. A shell [b, b'] has mass
    (cosh(alpha*b') - cosh(alpha*b)) / (cosh(alpha*R) - 1).

    For rows = 2**h the row boundaries are the radii of h levels of
    equal-mass splits.
    """
    if rows < 1 or core < 0:
        raise ParameterDomainError("need rows >= 1 and core >= 0")
    inner = 0.5 ** np.arange(core, 0, -1)
    mass = np.concatenate(([0.0], inner, np.arange(1, rows + 1))) / rows
    return radial_inverse_cdf(mass, alpha, radius)


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

    `band_r` holds the bands' Poincare boundary radii, and
    `band_ptr[b]:band_ptr[b + 1]` is band b's slice of the per-point arrays;
    `band_rmin`/`band_rmax` give the radius range of the points each band
    stores, +inf/-inf for an empty band. The leaves form a grid of
    2**height() radial rows, with Poincare boundary radii `row_r`, times
    2**height() angular sectors.

    Per-point arrays, each band's slice sorted by (angle, id): `p_phi`, the
    Poincare radius `p_r`, `p_id`, Cartesian `p_z` = `p_x` + i`p_y` (views),
    the weight `p_b` = 1 - `p_r`^2 that the edge predicate reads, taken from
    the native radius, and `p_key`, the band times a fixed stride plus the
    angle, which ascends throughout.
    """

    @classmethod
    def build(cls, phi, r, *, alpha, radius, capacity=DEFAULT_LEAF_CAPACITY):
        """Build the tree for native coordinate arrays (phi, r) of points in
        [0, 2pi) x [0, radius), the disk of the model with growth `alpha`
        and radius R = `radius`. Point i gets id i. The tree stores each
        point's Poincare radius and weight from `poincare_image`.

        The points are stored in bands of halving mass whatever `capacity`
        is: it sets only the leaf grid's height, the smallest h with
        n <= capacity * 4**h. So it bounds the expected number of points per
        leaf on model input, not the maximum: the grid is fixed, and a leaf
        holds whatever falls in it.

        Each band's points are stored in (angle, id) order, the order of
        `np.lexsort((phi, band))`, from two cheaper sorts: an unstable
        argsort of the angles, redone stably only if two angles compare equal
        (-0.0 and 0.0 do), then a stable radix argsort of the small band
        index. A single float key band * stride + angle would round angles.
        """
        if not 0.0 < alpha < math.inf:
            raise ParameterDomainError("alpha must be positive and finite")
        capacity = int(capacity)
        if capacity < 1:
            raise ParameterDomainError("capacity must be at least 1")
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        if phi.shape != np.shape(r) or phi.ndim != 1:
            raise ValueError("phi and r must be 1-d arrays of equal length")
        r, b = poincare_image(r, radius)
        if phi.size and not (phi.min() >= 0.0 and phi.max() < TWO_PI):
            raise OutOfBoundsError("point outside the tree region")

        height = 0
        while capacity * 4**height < phi.size:
            height += 1
        core = max(phi.size - 1, 0).bit_length()  # smallest with n <= 2**core
        bounds, row_r = (
            to_poincare_radius(band_boundaries(rows, c, alpha, radius))
            for rows, c in ((1, core), (2**height, 0))
        )
        for radii in (bounds, row_r):
            radii[0], radii[-1] = 0.0, to_poincare_radius(radius)  # the rim
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
        tree.row_r = row_r
        tree.band_r = bounds
        tree.band_ptr = np.searchsorted(band, np.arange(bounds.size))
        tree.p_phi = p_phi[by_band]
        tree.p_r = r[order]
        tree.p_id = order
        tree.p_z = np.empty(phi.size, dtype=np.complex128)  # one gather for x, y
        tree.p_x, tree.p_y = tree.p_z.real, tree.p_z.imag
        np.multiply(tree.p_r, np.cos(tree.p_phi), out=tree.p_x)
        np.multiply(tree.p_r, np.sin(tree.p_phi), out=tree.p_y)
        tree.p_b = b[order]
        tree.p_key = band * _BAND_STRIDE + tree.p_phi

        # Actual point radius range per band. Much tighter than the band's
        # bounds where its lower bound lies far below its sparsest point, and
        # that tightness is what makes the angular query windows narrow. An
        # empty band's range is empty, so no circle reaches it.
        full = np.diff(tree.band_ptr) > 0
        starts = tree.band_ptr[:-1][full]
        tree.band_rmin = np.full(full.size, np.inf)
        tree.band_rmax = np.full(full.size, -np.inf)
        tree.band_rmin[full] = np.minimum.reduceat(tree.p_r, starts)
        tree.band_rmax[full] = np.maximum.reduceat(tree.p_r, starts)
        return tree

    def __len__(self):
        return self.p_id.size

    # -- queries -----------------------------------------------------------

    def query_many(self, lo, hi, radius):
        """The neighbours of stored points `lo`..`hi`-1 among the points
        stored after them.

        Returns (v_ids, w_ids) pair arrays, not sorted: for each stored point
        v of the slice, the ids of the stored points w that come after v in
        the storage order (band, angle, id) and that `within_distance` puts
        at hyperbolic distance below `radius` from v. Both ends of a pair are
        read from the same stored arrays, so the predicate sees the same bits
        from either end. Queried over slices that cover the whole tree, it
        reports every edge once, from its endpoint stored first.
        """
        if not 0 <= lo <= hi <= len(self):
            raise ValueError("need 0 <= lo <= hi <= len(tree)")
        pairs = [(np.empty(0, dtype=np.int64),) * 2]
        ends = self.band_ptr[1:]
        while lo < hi:
            j = int(np.searchsorted(ends, lo, side="right"))
            end = min(hi, int(ends[j]))
            pairs += self._band_pairs(j, lo, end, radius)
            lo = end
        v, w = zip(*pairs)
        return np.concatenate(v), np.concatenate(w)

    def _band_pairs(self, j, lo, hi, radius):
        """`query_many`'s pairs for stored points lo..hi-1 of band j, by block."""
        m = hi - lo
        q_b, q_z, q_id = self.p_b[lo:hi], self.p_z[lo:hi], self.p_id[lo:hi]
        c_r, rad = circle_params(self.p_r[lo:hi], radius)

        # (query, band) pairs: the own band, then each outer band that reaches
        # in to the circle's outer edge. Queries come by angle, so pairs run
        # band by band and consecutive windows search and scan nearby keys.
        outer = c_r + rad + _RADIAL_PAD
        k, lq = np.nonzero(self.band_rmin[j + 1 :, None] <= outer)
        k = np.concatenate((np.full(m, j), k + (j + 1)))
        lq = np.concatenate((np.arange(m), lq))

        # A stored point at origin distance p and angular offset d from the
        # circle center lies inside iff
        #   cos d > (p^2 + c^2 - rad^2) / (2 p c).
        # Minimizing the right side over the band's stored radii [r1, r2],
        # endpoints plus the stationary point sqrt(c^2-rad^2), bounds the
        # offset of any candidate, nearer the origin than v too.
        r1, r2 = self.band_rmin[k], self.band_rmax[k]
        c = c_r[lq]
        diff = c * c - (rad * rad)[lq]
        cos_lim = np.minimum(_cos_bound(r1, c, diff), _cos_bound(r2, c, diff))
        interior = (diff > 0.0) & (r1 * r1 <= diff) & (diff <= r2 * r2)
        if interior.any():
            idx = np.flatnonzero(interior)
            cos_lim[idx] = np.minimum(cos_lim[idx], np.sqrt(diff[idx]) / c[idx])
        delta = np.arccos(np.clip(cos_lim, -1.0, 1.0)) + _WINDOW_PAD

        # Within a pad of a half turn the window is the whole band; below it a
        # window crossing 0/2pi splits into two pieces that stay apart by far
        # more than key rounding, so no point is found twice. In the own band
        # it starts right after v, and its piece past 2pi is stored before v.
        whole = delta >= math.pi - _WINDOW_PAD
        mid = self.p_phi[lo:hi][lq]
        left = np.where(whole, 0.0, mid - delta)
        right = np.where(whole, TWO_PI, mid + delta)
        right[:m] = np.minimum(right[:m], TWO_PI)
        wrap = np.flatnonzero((left < 0.0) | (right > TWO_PI))
        below = left[wrap] < 0.0
        left = np.concatenate(
            (np.maximum(left, 0.0), np.where(below, left[wrap] + TWO_PI, 0.0))
        )
        right = np.concatenate(
            (np.minimum(right, TWO_PI), np.where(below, TWO_PI, right[wrap] - TWO_PI))
        )
        base = np.concatenate((k, k[wrap])) * _BAND_STRIDE
        lq = np.concatenate((lq, lq[wrap]))
        # Keys round by far less than the window pad.
        ws = np.searchsorted(self.p_key, base[m:] + left[m:])
        ws = np.concatenate((np.arange(lo + 1, hi + 1), ws))
        we = np.searchsorted(self.p_key, base + right, side="right")

        # Candidate positions: each window's start, repeated, plus a count.
        size = we - ws
        cum = np.cumsum(size)
        cuts = np.searchsorted(cum, np.arange(_SCAN_BLOCK, int(cum[-1]), _SCAN_BLOCK))
        first = 0
        for off, sz, lqb in zip(
            np.split(ws - (cum - size), cuts), np.split(size, cuts), np.split(lq, cuts)
        ):
            pidx = np.repeat(off, sz)
            pidx += np.arange(first, first + pidx.size)
            first += pidx.size
            prep = np.repeat(lqb, sz)
            d = self.p_z[pidx] - q_z[prep]
            hit = np.flatnonzero(
                within_distance(d.real, d.imag, self.p_b[pidx], q_b[prep], radius)
            )
            yield q_id[prep[hit]], self.p_id[pidx[hit]]

    # -- introspection ------------------------------------------------------

    def height(self):
        """Depth of the leaves (root alone has height 0)."""
        return self._height

    def nodes_at_depth(self, depth):
        """Views of the 4**depth nodes at `depth`, by row then sector; empty
        below the leaves."""
        if not 0 <= depth <= self._height:
            return []
        n = 2**depth
        rows = self.row_r[:: 2 ** (self._height - depth)]
        cell = n * np.searchsorted(rows[1:-1], self.p_r, side="right")
        cell += np.searchsorted(np.arange(1, n) * (TWO_PI / n), self.p_phi, side="right")
        sizes = np.bincount(cell, minlength=n * n).reshape(n, n)
        return [
            NodeView(depth, row, sector, int(size))
            for (row, sector), size in np.ndenumerate(sizes)
        ]

    def leaves(self):
        """Views of all leaves, by row then sector."""
        return self.nodes_at_depth(self._height)
