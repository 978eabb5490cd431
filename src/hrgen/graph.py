"""Compact undirected simple graph.

The stored form is one array, `keys`: u*n + v for each edge u < v, strictly
ascending, so it lists the edges in lexicographic order and holds no repeat.
Construction rejects self-loops and parallel edges. The CSR view, in which
`indices[indptr[v]:indptr[v+1]]` is the sorted neighbor list of v, is derived
from the keys on first use and then kept; writing an edge list never needs it.

Memory: 8 bytes per edge for the keys, sorted in place unless they ascend and
checked with one byte per edge plus one block of `_CHECK_BLOCK` keys; endpoint
pairs add their 16 bytes per edge. The CSR view adds 8 bytes per edge (int32
ids below n = 2**31) and 8 per vertex. It is placed by counting, with the
transposed keys (8 bytes per edge while it is built) sorted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_N = 3_037_000_499  # largest n whose keys, up to n*n - 1, fit in int64

# Keys are decoded, for checks and for the CSR view, in blocks of this many.
_CHECK_BLOCK = 1 << 20

# The CSR view is placed in blocks of this many keys, 0.5 MB per temporary.
_PLACE_BLOCK = 1 << 16


def index_dtype(n):
    """Dtype of vertex ids in CSR arrays: int32 while it holds n, as 1-based ids need."""
    return np.int32 if n < 2**31 else np.int64


def _checked_n(n):
    n = int(n)
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n must be in [0, {MAX_N}]")
    return n


def _int64(a):
    """`a` as an int64 array; ValueError if it has entries of a non-integer dtype."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"vertex ids and edge keys must be integers, got {a.dtype}")
    return a.astype(np.int64, copy=False)


def pair_keys(n, u, v):
    """Unsorted keys min * n + max of endpoint arrays u, v (either way round);
    ValueError on n > MAX_N, unequal shapes, ids not integers in [0, n) or self-loops."""
    n = _checked_n(n)
    u, v = _int64(u), _int64(v)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("endpoint arrays must be 1-d and of equal length")
    if u.size:
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("vertex id outside [0, n)")
        if (u == v).any():
            raise ValueError("self-loops are not allowed")
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    return keys


@dataclass(frozen=True, eq=False)
class Graph:
    """Equal graphs have the same n and keys. A Graph holds a mutable array,
    so it is not hashable."""

    n: int
    keys: np.ndarray

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.keys, other.keys)

    @property
    def m(self):
        return self.keys.size

    def _upper_ptr(self):
        """Start of each row of the upper triangle in the keys, n + 1 of them."""
        return np.searchsorted(self.keys, np.arange(self.n + 1, dtype=np.int64) * self.n)

    @cached_property
    def indptr(self):
        """CSR row starts, from the degree of each vertex: its keys as u, then
        as v, counted a block of at least n keys at a time."""
        deg = np.diff(self._upper_ptr())
        step = max(_CHECK_BLOCK, self.n)
        for lo in range(0, self.m, step):
            deg += np.bincount(self.keys[lo : lo + step] % self.n, minlength=self.n)
        return np.concatenate(([0], np.cumsum(deg)))

    @cached_property
    def indices(self):
        """CSR neighbor lists, as `index_dtype(n)`, placed by counting: row v
        holds its lower neighbours u < v, then its upper ones, both ascending.
        The upper halves are the keys in order; the lower halves are the
        transposed keys v*n + u in order, after one sort."""
        n, m = self.n, self.m
        up_ptr = self._upper_ptr()
        low_ptr = self.indptr - up_ptr  # lower neighbours in the rows before each row
        out = np.empty(2 * m, dtype=index_dtype(n))
        flipped = np.empty(m, dtype=np.int64)
        for lo in range(0, m, _PLACE_BLOCK):
            part = self.keys[lo : lo + _PLACE_BLOCK]
            u = part // n
            v = part - u * n
            # key i of row u goes after the lower halves of rows 0..u
            at = low_ptr[u + 1]
            at += np.arange(lo, lo + part.size)
            out[at] = v
            v *= n
            v += u
            flipped[lo : lo + part.size] = v
        flipped.sort()
        for lo in range(0, m, _PLACE_BLOCK):
            part = flipped[lo : lo + _PLACE_BLOCK]
            v = part // n
            # transposed key j of row v goes after the upper halves of rows 0..v-1
            at = up_ptr[v]
            at += np.arange(lo, lo + part.size)
            v *= n
            out[at] = part - v
        return out

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_array(self, start=0, stop=None):
        """Edges start..stop - 1 (all by default) as a 2-column array with
        u < v, sorted lexicographically."""
        keys = self.keys[start:stop]
        u = keys // max(self.n, 1)  # `//` and a multiply-subtract beat `np.divmod`
        return np.column_stack((u, keys - u * self.n))

    @classmethod
    def from_edge_arrays(cls, n, u, v=None):
        """Build from parallel endpoint arrays u and v, one entry per
        undirected edge in either orientation, or, with v omitted, from the
        edge keys min * n + max in u. An int64 key array is sorted in place
        and kept, so the edges are held once. Keys that already ascend skip
        the sort. Raises ValueError on a non-integer dtype, self-loops,
        duplicate edges, ids outside [0, n) or n > MAX_N."""
        n = _checked_n(n)
        keys = _int64(u) if v is None else pair_keys(n, u, v)
        if keys.ndim != 1:
            raise ValueError("edge keys must be 1-d")
        ascending = bool((keys[1:] > keys[:-1]).all())
        if not ascending:
            keys.sort()
        if v is None and keys.size:
            if keys[0] < 0 or keys[-1] >= n * n:
                raise ValueError("vertex id outside [0, n)")
            # u < v  <=>  key = u*n + v > u*(n + 1)
            for lo in range(0, keys.size, _CHECK_BLOCK):
                part = keys[lo : lo + _CHECK_BLOCK]
                if (part <= part // n * (n + 1)).any():
                    raise ValueError("edge key u * n + v with u >= v")
        if not ascending and (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edge")
        return cls(n=n, keys=keys)
