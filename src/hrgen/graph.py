"""Compact undirected simple graph.

Adjacency is stored CSR-style: `indices[indptr[v]:indptr[v+1]]` is the sorted
neighbor list of v. Construction rejects self-loops and parallel edges, so
every instance is simple and structurally symmetric by construction. The
entries, read in order, follow the row-major keys v*n + w in ascending
order: construction sorts those int64 keys once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_N = 3_037_000_499  # largest n whose keys, up to n*n - 1, fit in int64


@dataclass(frozen=True)
class Graph:
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self):
        return self.indptr.size - 1

    @property
    def m(self):
        return self.indices.size // 2

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, v):
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u, v):
        nbr = self.neighbors(u)
        i = np.searchsorted(nbr, v)
        return i < nbr.size and nbr[i] == v

    def edge_array(self):
        """All edges as an (m, 2) array with u < v, sorted lexicographically."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        fwd = self.indices > rows
        return np.column_stack((rows[fwd], self.indices[fwd]))

    @classmethod
    def from_edge_arrays(cls, n, u, v):
        """Build from parallel endpoint arrays, one entry per undirected edge
        (either orientation). Raises ValueError on self-loops, duplicate
        edges (equal neighbouring keys), endpoints outside [0, n), or n above
        MAX_N."""
        n = int(n)
        if not 0 <= n <= MAX_N:
            raise ValueError(f"n must be in [0, {MAX_N}]")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("endpoint arrays must be 1-d and of equal length")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("vertex id outside [0, n)")
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edge")
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        return cls(indptr=indptr, indices=keys % max(n, 1))

    @classmethod
    def from_edges(cls, n, edges):
        """Build from an iterable of (u, v) pairs; convenience for tests."""
        u, v = np.asarray(list(edges) or np.empty((0, 2)), dtype=np.int64).T
        return cls.from_edge_arrays(n, u, v)
