"""Reading and writing graphs as plain-text files.

The native format is an edge list: one optional header line
`# n m seed R alpha`, then one `u v` line per edge with 0-based ids, u < v,
sorted lexicographically. Identical graphs and headers produce byte-identical
files. A METIS adjacency writer is included for interoperability.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph

_WRITE_BLOCK = 262_144


@dataclass(frozen=True)
class EdgeListHeader:
    n: int
    m: int
    seed: int
    radius: float
    alpha: float

    def line(self) -> str:
        return f"# {self.n} {self.m} {self.seed} {self.radius!r} {self.alpha!r}\n"


def write_edgelist(graph: Graph, path, header: EdgeListHeader | None = None):
    edges = graph.edge_array()
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header.line())
        for lo in range(0, edges.shape[0], _WRITE_BLOCK):
            block = edges[lo : lo + _WRITE_BLOCK].tolist()
            fh.write("".join(f"{u} {v}\n" for u, v in block))


def read_edgelist(path):
    """Returns (graph, header-or-None). Files without a header get n from
    the largest vertex id. Every non-blank line after the header must hold
    exactly two integers; any other line raises ValueError."""
    header = None
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("#"):
            parts = first[1:].split()
            if len(parts) != 5:
                raise ValueError(f"malformed header line in {path}: {first!r}")
            header = EdgeListHeader(
                n=int(parts[0]),
                m=int(parts[1]),
                seed=int(parts[2]),
                radius=float(parts[3]),
                alpha=float(parts[4]),
            )
        else:
            fh.seek(0)
        with warnings.catch_warnings():
            # A file without edges is valid; loadtxt would warn about it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                edges = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    elif edges.shape[1] != 2:
        raise ValueError(f"{path}: every edge line must hold two vertex ids")
    n = header.n if header is not None else (int(edges.max()) + 1 if edges.size else 0)
    graph = Graph.from_edge_arrays(n, edges[:, 0], edges[:, 1])
    if header is not None and graph.m != header.m:
        raise ValueError(
            f"{path}: header announces {header.m} edges, file holds {graph.m}"
        )
    return graph, header


def write_metis(graph: Graph, path):
    """METIS adjacency format: header `n m`, then per-vertex neighbor lists
    with 1-based ids."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        indptr, indices = graph.indptr, graph.indices
        for v in range(graph.n):
            row = indices[indptr[v] : indptr[v + 1]] + 1
            fh.write(" ".join(map(str, row.tolist())) + "\n")
