"""Compact undirected simple graph.

The stored form is one array, `keys`: u*n + v for each edge u < v, strictly
ascending, so it lists the edges in lexicographic order and holds no repeat.
Construction rejects self-loops and parallel edges. The CSR view, in which
`indices[indptr[v]:indptr[v+1]]` is the sorted neighbor list of v, is derived
from the keys on first use and then kept; writing an edge list never needs it.

Memory: 8 bytes per edge for the keys. Building from keys sorts them in place
and checks them with temporaries of one byte per edge plus one block of
`_CHECK_BLOCK` keys; building from endpoint pairs adds the 16 bytes per edge
of the pairs. The CSR view, when built, adds 16 bytes per edge and 8 per
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_N = 3_037_000_499  # largest n whose keys, up to n*n - 1, fit in int64

# Keys given directly are decoded for checking in blocks of this many.
_CHECK_BLOCK = 1 << 20


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

    def _split(self, keys):
        """(u, v) of keys u*n + v: `//` and a multiply-subtract beat `np.divmod`."""
        u = keys // max(self.n, 1)
        return u, keys - u * self.n

    @cached_property
    def indptr(self):
        """CSR row starts, from the degree of each vertex."""
        ends = np.concatenate(self._split(self.keys))
        return np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=self.n))))

    @cached_property
    def indices(self):
        """CSR neighbor lists: the keys of both orientations, sorted once."""
        lo, hi = self._split(self.keys)
        both = np.concatenate((self.keys, hi * self.n + lo))
        both.sort()
        return np.remainder(both, max(self.n, 1), out=both)

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u, v):
        lo, hi = min(u, v), max(u, v)
        key = lo * self.n + hi if 0 <= lo < hi < self.n else -1
        i = np.searchsorted(self.keys, key)
        return i < self.m and self.keys[i] == key

    def edge_array(self, start=0, stop=None):
        """Edges start..stop - 1 (all by default) as a 2-column array with
        u < v, sorted lexicographically."""
        return np.column_stack(self._split(self.keys[start:stop]))

    @classmethod
    def from_edge_arrays(cls, n, u, v=None):
        """Build from parallel endpoint arrays u and v, one entry per
        undirected edge in either orientation, or, with v omitted, from the
        edge keys min * n + max in u. An int64 key array is sorted in place
        and kept, so the edges are held once. Keys that already ascend skip
        the sort. Raises ValueError on self-loops, duplicate edges, ids
        outside [0, n) or n > MAX_N."""
        n = int(n)
        if not 0 <= n <= MAX_N:
            raise ValueError(f"n must be in [0, {MAX_N}]")
        u = np.asarray(u, dtype=np.int64)
        if v is None:
            keys = u
            if keys.ndim != 1:
                raise ValueError("edge keys must be 1-d")
            if keys.size:
                if keys.min() < 0 or keys.max() >= n * n:
                    raise ValueError("vertex id outside [0, n)")
                # u < v  <=>  key = u*n + v > u*(n + 1)
                for lo in range(0, keys.size, _CHECK_BLOCK):
                    part = keys[lo : lo + _CHECK_BLOCK]
                    if (part <= part // n * (n + 1)).any():
                        raise ValueError("edge key u * n + v with u >= v")
        else:
            v = np.asarray(v, dtype=np.int64)
            if u.shape != v.shape or u.ndim != 1:
                raise ValueError("endpoint arrays must be 1-d and of equal length")
            if u.size:
                if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                    raise ValueError("vertex id outside [0, n)")
                if (u == v).any():
                    raise ValueError("self-loops are not allowed")
            keys = np.minimum(u, v) * n
            keys += np.maximum(u, v)
        if not (keys[1:] > keys[:-1]).all():
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("duplicate edge")
        return cls(n=n, keys=keys)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of (u, v) pairs; convenience for tests."""
        u, v = np.asarray(list(edges) or np.empty((0, 2)), dtype=np.int64).T
        return cls.from_edge_arrays(n, u, v)
