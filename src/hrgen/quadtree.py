"""Polar quadtree over the unit disk.

Cells are annulus sectors [min_phi, max_phi) x [min_r, max_r) in polar
coordinates of the Poincare disk. An angular split halves the angle range;
a radial split is placed so that both shells carry equal probability mass
under the sinh radial density with growth parameter alpha (the split radius
is computed in native hyperbolic coordinates and mapped back to the disk).
With points drawn from that density every child of a cell is equally likely,
which keeps the tree balanced and query cost subquadratic.

The tree is built once for a whole point set, directly as flat arrays: nodes
are numbered breadth-first with the four children of an inner node
consecutive, and every node owns the contiguous slice [start, stop) of the
point arrays, which are sorted by angle within each leaf.

Range queries take a Euclidean circle and return the stored points strictly
inside it. Many queries are processed level-synchronously with vectorized
pruning: cells entirely outside a query circle are dropped, the others
descend, and at a leaf an angular window cut from the angle-sorted slice
selects the candidates. Every candidate then goes through the one per-point
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
    to_native_radius,
    to_poincare_radius,
)
from .nputil import multi_arange

DEFAULT_LEAF_CAPACITY = 128

# Hard stop for the split cascade; with equal-mass splits a tree this deep
# would need ~4^64 points, so only degenerate inputs (many identical points)
# ever reach it.
MAX_DEPTH = 64

# The squared distance from a query center to a cell is lowered by this much
# so float rounding can only keep a borderline cell, where the exact
# per-point test runs anyway. Coordinates live in [-1, 1]; the slack sits
# several orders above accumulated rounding error yet is invisible to queries.
_BOUNDS_SLACK_SQ = 5e-12

# Angular candidate windows are widened by this much (radians) so that the
# window can never round away a true hit; arccos amplifies input rounding to
# ~1e-8 near +-1, so this pad dominates it comfortably.
_WINDOW_PAD = 1e-6

# Leaf slices are searched through one sorted key per point, the leaf's rank
# in point order times this stride plus the angle. The stride exceeds the
# angle range [0, 2pi) by more than the widest window overhang (1 radian for
# a whole-slice scan), so no window reaches into a neighbouring leaf's keys.
_LEAF_STRIDE = 2.0 * TWO_PI

# Leaf scans materialize one candidate row per (query, point) pair; pairs are
# consumed in blocks of at most this many candidates to bound peak memory.
_SCAN_BLOCK = 2_000_000


def splitting_radius(min_r_native, max_r_native, alpha):
    """Radius cutting the shell [min_r, max_r] (native coordinates) into two
    shells of equal probability mass under the sinh radial density.

    Solves cosh(a*r) = (cosh(a*min) + cosh(a*max)) / 2 for r.
    """
    if not 0.0 <= min_r_native < max_r_native:
        raise ValueError("need 0 <= min_r < max_r")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    mean = (math.cosh(alpha * max_r_native) + math.cosh(alpha * min_r_native)) / 2.0
    return math.acosh(mean) / alpha


def _min_dist_sq(min_phi, max_phi, min_r, max_r, c_phi, c_r):
    """Conservative squared Euclidean distance from point (c_phi, c_r) to the
    annulus sector [min_phi, max_phi) x [min_r, max_r), lowered by a slack so
    rounding errs toward keeping the cell; vectorized over broadcastable
    arrays.

    Works on cosines of angular offsets throughout: cos(a - b) equals the
    cosine of the wrapped angular distance, so no reduction mod 2*pi is
    needed, and staying in squared distances avoids sqrt entirely.
    """
    cos1 = np.cos(c_phi - min_phi)
    cos2 = np.cos(c_phi - max_phi)
    inside = (min_phi <= c_phi) & (c_phi < max_phi)

    # Nearest point: radially aligned when the query angle lies in the sector,
    # else on the closer radial edge segment (law of cosines, clamped).
    cos_near = np.maximum(cos1, cos2)
    t = np.clip(c_r * cos_near, min_r, max_r)
    edge_sq = c_r * c_r + t * t - 2.0 * c_r * t * cos_near
    radial = np.maximum(np.maximum(min_r - c_r, c_r - max_r), 0.0)
    dmin_sq = np.where(inside, radial * radial, edge_sq)
    return dmin_sq - _BOUNDS_SLACK_SQ


class NodeView(NamedTuple):
    """Read-only view of one tree node: its breadth-first index, its depth and
    the slice [start, stop) of the point arrays it owns."""

    index: int
    depth: int
    start: int
    stop: int

    @property
    def size(self):
        return self.stop - self.start


class PolarQuadtree:
    """Point index over polar cells of the Poincare disk, created by `build`.

    Per-node arrays, indexed breadth-first (node 0 is the root and covers
    the whole region): cell bounds `min_phi`, `max_phi`, `min_r`, `max_r`;
    `child0`, the first of four consecutive children (-1 for leaves);
    `start`/`stop`, the node's slice of the point arrays; `depth`; and, for
    leaves, `l_rmin`/`l_rmax`, the radius range of the points actually
    stored, and `l_off`, the leaf's offset in `p_key`.

    Per-point arrays, each leaf's slice sorted by (angle, id): `p_phi`,
    `p_r`, `p_id`, Cartesian `p_x`/`p_y`, and `p_key`, which is `l_off` of
    the point's leaf plus its angle and ascends over the whole array.
    """

    @classmethod
    def build(cls, phi, r, ids=None, *, alpha, max_r, capacity=DEFAULT_LEAF_CAPACITY):
        """Build the tree for coordinate arrays (phi, r), all points inside
        [0, 2pi) x [0, max_r). `ids` defaults to 0..n-1.

        Level by level, every cell that holds more than `capacity` points and
        lies above MAX_DEPTH is split, and its slice of points is stably
        regrouped into its four children.
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

        # order[start:stop] holds the input indices of a node's points. Each
        # level holds (k, 4) cell bounds and (k, 2) slices for its k nodes.
        order = np.arange(phi.size, dtype=np.int64)
        cells = [np.array([[0.0, TWO_PI, 0.0, float(max_r)]])]
        spans = [np.array([[0, phi.size]], dtype=np.int64)]
        splits = []
        for _ in range(MAX_DEPTH):
            split = spans[-1][:, 1] - spans[-1][:, 0] > capacity
            if not split.any():
                break
            splits.append(split)
            lo_phi, hi_phi, lo_r, hi_r = cells[-1][split].T
            s, e = spans[-1][split].T
            k = s.size
            mid_phi = 0.5 * (lo_phi + hi_phi)
            # Scalar math per cell, so the split radii match the reference
            # `splitting_radius` bit for bit.
            mid_r = np.array([
                to_poincare_radius(
                    splitting_radius(to_native_radius(a), to_native_radius(b), alpha)
                )
                for a, b in zip(lo_r.tolist(), hi_r.tolist())
            ])
            pos = multi_arange(s, e)
            pts = order[pos]
            seg = np.repeat(np.arange(k), e - s)
            key = 4 * seg + (phi[pts] >= mid_phi[seg]) + 2 * (r[pts] >= mid_r[seg])
            order[pos] = pts[np.argsort(key, kind="stable")]
            ends = s[:, None] + np.cumsum(
                np.bincount(key, minlength=4 * k).reshape(k, 4), axis=1
            )
            starts = np.concatenate((s[:, None], ends[:, :3]), axis=1)
            spans.append(np.stack((starts.ravel(), ends.ravel()), axis=1))
            # Children in order (low phi, low r), (high phi, low r),
            # (low phi, high r), (high phi, high r).
            cells.append(np.stack([
                np.stack((lo_phi, mid_phi, lo_r, mid_r), axis=1),
                np.stack((mid_phi, hi_phi, lo_r, mid_r), axis=1),
                np.stack((lo_phi, mid_phi, mid_r, hi_r), axis=1),
                np.stack((mid_phi, hi_phi, mid_r, hi_r), axis=1),
            ], axis=1).reshape(4 * k, 4))

        tree = cls.__new__(cls)
        tree.alpha = float(alpha)
        tree.capacity = capacity
        sizes = [c.shape[0] for c in cells]
        offsets = np.cumsum([0] + sizes)
        bounds = np.concatenate(cells)
        tree.min_phi, tree.max_phi, tree.min_r, tree.max_r = (
            np.ascontiguousarray(col) for col in bounds.T
        )
        tree.start, tree.stop = (
            np.ascontiguousarray(col) for col in np.concatenate(spans).T
        )
        tree.depth = np.repeat(np.arange(len(cells), dtype=np.int64), sizes)
        tree.child0 = np.full(offsets[-1], -1, dtype=np.int64)
        for d, split in enumerate(splits):
            parents = offsets[d] + np.flatnonzero(split)
            tree.child0[parents] = offsets[d + 1] + 4 * np.arange(parents.size)

        # Sort every leaf slice by (angle, id) so that queries cut an angular
        # window out of a leaf by binary search; ids make the layout
        # deterministic. Leaves in point order get consecutive ranks.
        leaf = np.flatnonzero(tree.child0 < 0)
        leaf = leaf[np.argsort(tree.start[leaf], kind="stable")]
        rank = np.repeat(
            np.arange(leaf.size, dtype=np.int64), tree.stop[leaf] - tree.start[leaf]
        )
        order = order[np.lexsort((ids[order], phi[order], rank))]
        tree.p_phi = phi[order]
        tree.p_r = r[order]
        tree.p_id = ids[order]
        tree.p_x = tree.p_r * np.cos(tree.p_phi)
        tree.p_y = tree.p_r * np.sin(tree.p_phi)
        tree.l_off = np.zeros(tree.child0.size)
        tree.l_off[leaf] = np.arange(leaf.size) * _LEAF_STRIDE
        tree.p_key = tree.l_off[leaf][rank] + tree.p_phi

        # Actual point radius range per leaf. Much tighter than the cell band
        # for cells whose inner radius is far below their sparsest point, and
        # that tightness is what makes the angular query windows narrow.
        tree.l_rmin = np.full(tree.child0.size, 2.0)
        tree.l_rmax = np.zeros(tree.child0.size)
        occupied = leaf[tree.stop[leaf] > tree.start[leaf]]
        if occupied.size:
            # Occupied leaf slices, in point order, tile the point array, so
            # reduceat's folds are exactly the slices.
            starts = tree.start[occupied]
            tree.l_rmin[occupied] = np.minimum.reduceat(tree.p_r, starts)
            tree.l_rmax[occupied] = np.maximum.reduceat(tree.p_r, starts)
        return tree

    def __len__(self):
        return self.p_id.size

    # -- queries -----------------------------------------------------------

    def query_many(self, center_phi, center_r, radii):
        """Stored point ids strictly inside each query circle.

        Circles are given in polar form (center angle, center Poincare radius,
        Euclidean radius). Returns (query_index, point_id) pair arrays; the
        pairs are not sorted. All circles advance through the tree together, one
        level per pass: a (circle, node) pair is dropped when the node's cell
        lies outside the circle and otherwise descends. At a leaf, every
        point in the circle's angular window is tested against it, and only
        that test decides which points are reported.
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

        n_q = c_phi.size
        q = np.arange(n_q, dtype=np.int64)
        node = np.zeros(n_q, dtype=np.int64)
        out_q, out_p = [], []

        while q.size:
            dmin_sq = _min_dist_sq(
                self.min_phi[node],
                self.max_phi[node],
                self.min_r[node],
                self.max_r[node],
                c_phi[q],
                c_r[q],
            )
            alive = dmin_sq < rad_sq[q]
            q, node = q[alive], node[alive]

            child = self.child0[node]
            at_leaf = child < 0
            if at_leaf.any():
                ln, lq = node[at_leaf], q[at_leaf]
                s, e = self.start[ln], self.stop[ln]

                # A stored point at origin distance p and angular offset d from
                # the circle center lies inside iff
                #   cos d > (p^2 + c^2 - rad^2) / (2 p c).
                # Minimizing the right side over the leaf's point radius range
                # [r1,r2] (endpoints plus the stationary point sqrt(c^2-rad^2))
                # bounds the offset of any candidate, and the window it defines
                # is cut out of the angle-sorted slice with binary search.
                r1 = self.l_rmin[ln]
                r2 = self.l_rmax[ln]
                c = c_r[lq]
                diff = c * c - rad_sq[lq]
                g1 = np.full(lq.shape, np.inf)
                np.divide(r1 * r1 + diff, 2.0 * r1 * c, out=g1, where=r1 * c > 0.0)
                g1[(r1 * c <= 0.0) & (diff < 0.0)] = -np.inf
                g2 = np.full(lq.shape, np.inf)
                np.divide(r2 * r2 + diff, 2.0 * r2 * c, out=g2, where=r2 * c > 0.0)
                g2[(r2 * c <= 0.0) & (diff < 0.0)] = -np.inf
                cos_lim = np.minimum(g1, g2)
                interior = (diff > 0.0) & (r1 * r1 <= diff) & (diff <= r2 * r2)
                if interior.any():
                    idx = np.flatnonzero(interior)
                    cos_lim[idx] = np.minimum(
                        cos_lim[idx], np.sqrt(diff[idx]) / c[idx]
                    )
                delta = np.arccos(np.clip(cos_lim, -1.0, 1.0)) + _WINDOW_PAD
                lo_val = c_phi[lq] - delta
                hi_val = c_phi[lq] + delta
                # A window crossing 0/2pi would split in two; scan the whole
                # slice instead (rare: only queries hugging the cut).
                whole = (cos_lim <= -1.0) | (lo_val < 0.0) | (hi_val >= TWO_PI)
                lo_val = np.where(whole, -1.0, lo_val)
                hi_val = np.where(whole, TWO_PI + 1.0, hi_val)
                # Keys round by far less than the window pad, and clipping to
                # the leaf's slice also covers empty leaves.
                off = self.l_off[ln]
                ws = np.clip(np.searchsorted(self.p_key, off + lo_val), s, e)
                we = np.clip(
                    np.searchsorted(self.p_key, off + hi_val, side="right"), s, e
                )

                cum = np.cumsum(we - ws)
                if cum.size and cum[-1]:
                    cuts = np.searchsorted(
                        cum,
                        np.arange(_SCAN_BLOCK, int(cum[-1]), _SCAN_BLOCK),
                        side="left",
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

            q, child = q[~at_leaf], child[~at_leaf]
            node = (child[:, None] + np.arange(4, dtype=np.int64)).ravel()
            q = np.repeat(q, 4)

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

    def _views(self, nodes):
        return [
            NodeView(int(i), int(self.depth[i]), int(self.start[i]), int(self.stop[i]))
            for i in nodes
        ]

    def height(self):
        """Length of the longest root-to-leaf path (root alone has height 0)."""
        return int(self.depth.max())

    def nodes_at_depth(self, depth):
        """Views of all nodes at exactly `depth` (fewer than 4**depth if the
        tree is shallower there)."""
        return self._views(np.flatnonzero(self.depth == depth))

    def leaves(self):
        """Views of all leaves, in breadth-first order."""
        return self._views(np.flatnonzero(self.child0 < 0))

    def leaf_point_ids(self, leaf):
        """Vertex ids stored in a leaf, in angle order."""
        return self.p_id[leaf.start : leaf.stop].copy()
