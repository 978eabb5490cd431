"""Structural measures of undirected simple graphs.

The routines are vectorized over the CSR view of `Graph`. scipy is imported
only where it is called, so generation alone never loads it. Diameter is a
[lower, upper] interval from eccentricity sweeps unless the component is
small enough for the exact all-pairs computation.

Memory: besides the keys and the CSR view (8 bytes per edge each), the
triangle kernel holds its oriented matrix and its transpose (16 bytes per
edge, int32) plus one row block's products, and the component labelling the
upper triangle and scipy's transpose of it (24). `analyze` at n = 10^5
(k = 16, gamma = 3) peaks at 47 bytes per edge in all under tracemalloc.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError, ParameterDomainError
from .graph import Graph

# Row-block size for the sparse triangle products, at most 1/16 of the rows:
# at n = 2*10^4 (k = 16, gamma = 3) 8192 rows peaked at 55 bytes/edge, 1/16 at 28.
_TRIANGLE_BLOCK = 8192

_KEY_BLOCK = 1 << 16  # edge keys read per block, 0.5 MB

# Components at most this large get the exact all-pairs diameter.
EXACT_DIAMETER_LIMIT = 10_000


@dataclass(frozen=True)
class AnalysisReport:
    """Flat bundle of graph measures; field order is the serialization order."""

    n: int
    m: int
    avg_degree: float
    max_degree: int
    global_clustering: float
    mean_local_clustering: float
    degree_assortativity: float | None
    component_count: int
    largest_component_fraction: float
    max_core: int
    diameter_lower: int
    diameter_upper: int
    power_law_exponent: float | None
    power_law_k_min: int | None

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = "nan"
            elif isinstance(value, float):
                value = f"{value:.6g}"
            lines.append(f"{f.name} {value}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def field_names() -> list[str]:
        return [f.name for f in fields(AnalysisReport)]


def multi_arange(starts, stops):
    """Concatenation of arange(s, e) for every (s, e) pair; empty ranges allowed."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(stops, dtype=np.int64) - starts
    starts, counts = starts[counts > 0], counts[counts > 0]
    out = np.ones(int(counts.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(counts[:-1])] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out, out=out)


def _vertex_triangles(graph: Graph):
    """Triangles through each vertex, as a float array.

    Edges are oriented from lower to higher (degree, id) rank, which caps
    out-degrees near sqrt(m) and keeps the sparse products cheap even with
    heavy-tailed degrees. With B the oriented adjacency, a triangle a < b < c
    (by rank) is the path a->b->c closed by a->c: B @ B masked by B finds it
    at (a, c), which credits a and c, and B.T @ B masked by B finds it at
    (b, c), which credits b.
    """
    from scipy import sparse
    n = graph.n
    tri = np.zeros(n)
    if graph.m == 0:
        return tri
    deg = graph.degrees()
    ptr, nbrs = graph.indptr, graph.indices
    rank = np.empty(n, dtype=nbrs.dtype)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n, dtype=nbrs.dtype)
    step = min(_TRIANGLE_BLOCK, -(-n // 16))
    # B's rows are the CSR rows cut to their higher-ranked neighbours
    cols = np.empty(graph.m, dtype=nbrs.dtype)
    b_ptr = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        row = nbrs[ptr[lo] : ptr[hi]]
        up = rank[row] > np.repeat(rank[lo:hi], deg[lo:hi])
        ups = np.concatenate(([0], np.cumsum(up)))
        b_ptr[lo + 1 : hi + 1] = b_ptr[lo] + ups[ptr[lo + 1 : hi + 1] - ptr[lo]]
        cols[b_ptr[lo] : b_ptr[hi]] = row[up]
    b = sparse.csr_matrix((np.ones(graph.m, dtype=np.int32), cols, b_ptr), shape=(n, n))
    bt = b.T.tocsr()
    for lo in range(0, n, step):
        rows = b[lo : lo + step]
        ends = (rows @ b).multiply(rows)
        tri[lo : lo + step] += np.asarray(ends.sum(axis=1)).ravel()
        tri += np.asarray(ends.sum(axis=0)).ravel()
        middle = (bt[lo : lo + step] @ b).multiply(rows)
        tri[lo : lo + step] += np.asarray(middle.sum(axis=1)).ravel()
    return tri


def triangle_count(graph: Graph) -> int:
    """Number of triangles, each counted once."""
    return int(round(_vertex_triangles(graph).sum() / 3.0))


def global_clustering(graph: Graph) -> float:
    """Transitivity: 3 * triangles / connected triples. Zero when the graph
    has no triple at all."""
    deg = graph.degrees().astype(np.int64)
    triples = int(np.sum(deg * (deg - 1) // 2))
    if triples == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / triples


def local_clustering(graph: Graph):
    """Per-vertex clustering: triangles through v over pairs of neighbors
    of v; zero for degree < 2. Returned as a float array."""
    deg = graph.degrees().astype(np.int64)
    wedges = deg * (deg - 1) / 2.0
    return np.divide(
        _vertex_triangles(graph), wedges, out=np.zeros(graph.n), where=wedges > 0
    )


def mean_local_clustering(graph: Graph) -> float:
    """Average of the per-vertex clustering coefficients over all vertices.

    Unlike transitivity this weights every vertex equally, so it is not
    dominated by a few hubs; on heavy-tailed graphs the two can differ by
    several times.
    """
    if graph.n == 0:
        return 0.0
    return float(local_clustering(graph).mean())


def degree_assortativity(graph: Graph) -> float | None:
    """Pearson correlation of endpoint degrees over all edge incidences.
    None when undefined (no edges, or zero degree variance at the ends)."""
    if graph.m == 0:
        return None
    deg = graph.degrees().astype(np.float64)
    # both ends' degrees have the same mean and spread over the incidences
    dev = deg - float(deg @ deg) / (2 * graph.m)
    var = float(deg @ (dev * dev))
    if var == 0.0:
        return None
    cov = 0.0
    for lo in range(0, graph.m, _KEY_BLOCK):
        u, v = np.divmod(graph.keys[lo : lo + _KEY_BLOCK], graph.n)
        cov += float(dev[u] @ dev[v])
    return 2.0 * cov / var


def component_labels(graph: Graph):
    """(labels, sizes): per-vertex component label and per-label size."""
    from scipy.sparse import csgraph, csr_matrix
    n = graph.n
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # one float64 entry per edge, at (u, v) with u < v; the search goes both ways
    upper = csr_matrix((np.ones(graph.m), *graph.upper()), shape=(n, n))
    count, labels = csgraph.connected_components(upper, directed=False)
    return labels.astype(np.int64), np.bincount(labels, minlength=count).astype(np.int64)


def connected_component_sizes(graph: Graph):
    """Component sizes, largest first."""
    _, sizes = component_labels(graph)
    return np.sort(sizes)[::-1].copy()


def core_numbers(graph: Graph):
    """Largest k such that each vertex survives in the k-core; array per vertex.

    Peels whole batches of minimum-degree vertices per round instead of one
    vertex at a time, so the work is a handful of numpy passes per level.
    """
    n = graph.n
    deg = graph.degrees().astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        k = max(k, int(deg[alive].min()))
        frontier = alive & (deg <= k)
        while frontier.any():
            core[frontier] = k
            alive[frontier] = False
            remaining -= int(frontier.sum())
            idx = np.flatnonzero(frontier)
            nbr = graph.indices[multi_arange(graph.indptr[idx], graph.indptr[idx + 1])]
            nbr = nbr[alive[nbr]]
            if nbr.size:
                deg -= np.bincount(nbr, minlength=n)
            frontier = alive & (deg <= k)
        k += 1
    return core


def bfs_distances(graph: Graph, source):
    """Hop distances from `source` (-1 where unreachable), frontier by
    frontier with vectorized neighbor expansion. Raises ParameterDomainError
    for a source outside [0, n)."""
    n = graph.n
    if not 0 <= source < n:
        raise ParameterDomainError(f"source must be in [0, {n}), got {source}")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nbr = graph.indices[multi_arange(graph.indptr[frontier], graph.indptr[frontier + 1])]
        frontier = np.unique(nbr[dist[nbr] < 0])
        dist[frontier] = d
    return dist


def _eccentricity(dist):
    return int(dist[dist >= 0].max())


def diameter_bounds(graph: Graph):
    """[lower, upper] bounds on the diameter of the largest component.

    A component of at most `EXACT_DIAMETER_LIMIT` vertices gets the exact
    all-pairs answer. A larger one gets four eccentricity sweeps: from its
    max-degree vertex, from the farthest vertex u found, from the farthest
    vertex w from u, and from the midpoint of a shortest w-u path, reached by
    stepping from w to the lowest-id neighbour one hop nearer u. The largest
    eccentricity is the lower bound, twice the smallest the upper.
    """
    if graph.n == 0:
        return 0, 0
    labels, sizes = component_labels(graph)
    members = np.flatnonzero(labels == int(np.argmax(sizes)))
    if members.size <= 1:
        return 0, 0

    if members.size <= EXACT_DIAMETER_LIMIT:
        diameter = 0
        for v in members:
            diameter = max(diameter, _eccentricity(bfs_distances(graph, v)))
        return diameter, diameter

    deg = graph.degrees()
    start = members[int(np.argmax(deg[members]))]
    dist0 = bfs_distances(graph, start)
    eccs = [_eccentricity(dist0)]
    u = int(np.flatnonzero(dist0 == eccs[0])[0])

    dist_u = bfs_distances(graph, u)
    eccs.append(_eccentricity(dist_u))
    w = int(np.flatnonzero(dist_u == eccs[-1])[0])

    mid = w
    for _ in range((eccs[-1] + 1) // 2):
        nbrs = graph.neighbors(mid)  # ascending, so the first match has the lowest id
        mid = int(nbrs[dist_u[nbrs] == dist_u[mid] - 1][0])

    eccs.append(_eccentricity(bfs_distances(graph, w)))
    eccs.append(_eccentricity(bfs_distances(graph, mid)))
    return max(eccs), 2 * min(eccs)


def power_law_exponent(degrees, k_min) -> float:
    """Continuous maximum-likelihood exponent of the degree tail >= k_min,
    with the half-step shift that corrects for integer degrees:
    1 + N / sum(ln(k_i / (k_min - 0.5))).
    """
    k_min = int(k_min)
    if k_min < 1:
        raise InsufficientDataError("k_min must be at least 1")
    degrees = np.asarray(degrees, dtype=np.int64)
    tail = degrees[degrees >= k_min]
    if tail.size < 10:
        raise InsufficientDataError(
            f"need at least 10 degrees >= k_min={k_min}, found {tail.size}"
        )
    if tail.min() == tail.max():
        raise InsufficientDataError(
            "all tail degrees are equal; the likelihood has no finite optimum"
        )
    return 1.0 + tail.size / float(np.sum(np.log(tail / (k_min - 0.5))))


def analyze(graph: Graph) -> AnalysisReport:
    """Full measurement pass over one graph.

    The diameter is exact when the largest component holds at most
    `EXACT_DIAMETER_LIMIT` (10^4) vertices, else sweep bounds (see
    `diameter_bounds`). The power-law tail starts at k_min = max(5, twice
    the median degree), which keeps the fit clear of the curved low-degree
    bulk. A tail too thin to fit reports the exponent as None.
    """
    deg = graph.degrees()
    n, m = graph.n, graph.m
    sizes = connected_component_sizes(graph)
    lower, upper = diameter_bounds(graph)
    k_min = max(5, 2 * int(np.median(deg))) if n else 5
    try:
        exponent = power_law_exponent(deg, k_min)
        fitted_k_min = k_min
    except InsufficientDataError:
        exponent = None
        fitted_k_min = None
    return AnalysisReport(
        n=n,
        m=m,
        avg_degree=2.0 * m / n if n else 0.0,
        max_degree=int(deg.max()) if n else 0,
        global_clustering=global_clustering(graph),
        mean_local_clustering=mean_local_clustering(graph),
        degree_assortativity=degree_assortativity(graph),
        component_count=int(sizes.size),
        largest_component_fraction=float(sizes[0]) / n if n else 0.0,
        max_core=int(core_numbers(graph).max()) if n else 0,
        diameter_lower=lower,
        diameter_upper=upper,
        power_law_exponent=exponent,
        power_law_k_min=fitted_k_min,
    )
