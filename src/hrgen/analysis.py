"""Structural measures of undirected simple graphs.

The routines are vectorized over the keys and the CSR view of `Graph`, with
numpy alone. Diameter is a [lower, upper] interval from eccentricity sweeps
unless the component is small enough for the exact all-pairs computation.

Memory: besides the keys and the CSR view (8 bytes per edge each), the
triangle kernel holds its sorted oriented keys and their order by head (16
bytes per edge) plus one block of wedges, and the component labelling one
block of neighbour labels. Both results stay on the graph from their first
use (`_memo`), 8 bytes per vertex each, so `analyze` computes each once.
`analyze` at n = 10^5 (k = 16, gamma = 3) peaks at 43 bytes per edge in all
under tracemalloc, keys and view included.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientDataError, ParameterDomainError
from .graph import Graph

# Edges and wedges per block of the triangle kernel, at most m / 8 of them.
_WEDGE_BLOCK = 1 << 18

_KEY_BLOCK = 1 << 16  # edge keys, or neighbour ids, read per block

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


def _head_shift(n, m):
    """Bits dropped from a head rank so that (head >> shift) * m + position
    stays below 2**63: 0 while n * m < 2**62. Coarser heads only cost the
    search its locality."""
    return max(0, (n * m).bit_length() - 62)


def _vertex_triangles(graph: Graph):
    """Triangles through each vertex, as a float array.

    Edges are oriented from lower to higher (degree, id) rank, which caps
    out-degrees near sqrt(m) even with heavy-tailed degrees. The oriented
    keys rank(a) * n + rank(b) are sorted, so row a of them lists a's
    out-neighbours by rank. A triangle a < b < c (by rank) is the wedge
    a->b, a->c closed by the key of b->c; it is found once, by a binary
    search for that key, and credits a, b and c. The edges a->b are taken in
    the order of b, so each block searches only the rows of its heads.
    """
    n, m = graph.n, graph.m
    if m == 0:
        return np.zeros(n)
    block = min(_WEDGE_BLOCK, -(-m // 8))
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), graph.degrees()))] = np.arange(n)
    oriented = np.empty(m, dtype=np.int64)
    for lo in range(0, m, block):
        u, v = np.divmod(graph.keys[lo : lo + block], n)
        u, v = rank[u], rank[v]
        low = np.minimum(u, v)
        low *= n
        low += np.maximum(u, v)
        oriented[lo : lo + low.size] = low
    oriented.sort()
    ptr = np.searchsorted(oriented, np.arange(n + 1, dtype=np.int64) * n)
    # positions of the oriented edges, sorted by head: (head >> shift) * m + position
    shift = _head_shift(n, m)
    by_head = np.empty(m, dtype=np.int64)
    for lo in range(0, m, block):
        part = oriented[lo : lo + block]
        head = part % n
        head >>= shift
        head *= m
        head += np.arange(lo, lo + part.size)
        by_head[lo : lo + part.size] = head
    by_head.sort()
    tri = np.zeros(n, dtype=np.int64)
    for lo in range(0, m, block):
        pos = by_head[lo : lo + block] % m
        a, b = np.divmod(oriented[pos], n)
        # the wedges of a->b are a->c for the later positions of row a
        count = ptr[a + 1] - pos - 1
        busy = count > 0
        pos, a, b, count = pos[busy], a[busy], b[busy], count[busy]
        cut = np.searchsorted(np.cumsum(count), np.arange(block, count.sum(), block))
        bounds = np.unique(np.concatenate(([0], cut, [pos.size])))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            _close_wedges(oriented, ptr, tri, pos[start:stop], a[start:stop],
                          b[start:stop], count[start:stop])
    return tri[rank].astype(np.float64)


def _close_wedges(oriented, ptr, tri, pos, a, b, count):
    """Credits to `tri` the triangles closed on the wedges of the oriented
    edges a->b at `pos`, each with `count` > 0 later positions in its row."""
    n = tri.size
    offset = np.cumsum(count)
    offset -= count
    closing = np.repeat(pos + 1 - offset, count)
    closing += np.arange(closing.size)
    closing = oriented[closing]
    # a->c is a*n + c, so b->c is that plus (b - a)*n
    closing += np.repeat((b - a) * n, count)
    rows = oriented[ptr[b.min()] : ptr[b.max() + 1]]
    if not rows.size:
        return
    at = np.searchsorted(rows, closing)
    np.minimum(at, rows.size - 1, out=at)
    hit = rows[at] == closing
    per_edge = np.add.reduceat(hit, offset, dtype=np.int64)
    np.add.at(tri, a, per_edge)
    np.add.at(tri, b, per_edge)
    np.add.at(tri, closing[hit] % n, 1)


def _memo(graph, name, compute):
    """`compute(graph)`, computed on first use and kept on the graph, as its CSR view is."""
    cache = vars(graph)
    if name not in cache:
        cache[name] = compute(graph)
    return cache[name]


def triangle_count(graph: Graph) -> int:
    """Number of triangles, each counted once."""
    return int(round(_memo(graph, "_triangles", _vertex_triangles).sum() / 3.0))


def global_clustering(graph: Graph) -> float:
    """Transitivity: 3 * triangles / connected triples. Zero when the graph
    has no triple at all."""
    triangles = triangle_count(graph)
    deg = graph.degrees().astype(np.int64)
    triples = int(np.sum(deg * (deg - 1) // 2))
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


def local_clustering(graph: Graph):
    """Per-vertex clustering: triangles through v over pairs of neighbors
    of v; zero for degree < 2. Returned as a float array."""
    deg = graph.degrees().astype(np.int64)
    wedges = deg * (deg - 1) / 2.0
    tri = _memo(graph, "_triangles", _vertex_triangles)
    return np.divide(tri, wedges, out=np.zeros(graph.n), where=wedges > 0)


def mean_local_clustering(graph: Graph) -> float:
    """Average of the per-vertex clustering coefficients over all vertices.

    Unlike transitivity this weights every vertex equally, so it is not
    dominated by a few hubs; on heavy-tailed graphs the two can differ by
    several times.
    """
    return float(local_clustering(graph).mean()) if graph.n else 0.0


def degree_assortativity(graph: Graph) -> float | None:
    """Pearson correlation of endpoint degrees over all edge incidences.
    None when undefined (no edges, or zero degree variance at the ends).

    The products are summed by numpy's own reductions, not BLAS dot
    products, so the result does not depend on BLAS or its thread count."""
    if graph.m == 0:
        return None
    deg = graph.degrees().astype(np.float64)
    # both ends' degrees have the same mean and spread over the incidences
    dev = deg - float(np.sum(deg * deg)) / (2 * graph.m)
    var = float(np.sum(deg * (dev * dev)))
    if var == 0.0:
        return None
    cov = 0.0
    for lo in range(0, graph.m, _KEY_BLOCK):
        u, v = np.divmod(graph.keys[lo : lo + _KEY_BLOCK], graph.n)
        cov += float(np.sum(dev[u] * dev[v]))
    return 2.0 * cov / var


def component_labels(graph: Graph):
    """(labels, sizes): per-vertex component label and per-label size.

    Min-label hooking with pointer jumping over the CSR view. Each round,
    every vertex hooks the root of its tree to the smallest root among its
    neighbours, then every vertex jumps to its root. Within two rounds every
    tree of an unfinished component merges with another, so there are at
    most about 2 log2(n) rounds. A component's root is its lowest vertex,
    and labels number the components in the order of their roots.
    """
    n = graph.n
    ptr, nbrs = graph.indptr, graph.indices
    parent = np.arange(n, dtype=nbrs.dtype)
    busy = np.flatnonzero(np.diff(ptr))  # vertices with a neighbour
    starts = ptr[busy]
    # blocks of busy vertices holding about _KEY_BLOCK neighbour ids each
    cuts = np.searchsorted(starts, np.arange(0, graph.m * 2, _KEY_BLOCK))
    cuts = np.unique(np.append(cuts, busy.size))
    low = np.empty(busy.size, dtype=parent.dtype)
    while True:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            seen = parent[nbrs[starts[lo] : ptr[busy[hi - 1] + 1]]]
            low[lo:hi] = np.minimum.reduceat(seen, starts[lo:hi] - starts[lo])
        root = parent[busy]
        hook = low < root
        if not hook.any():
            break
        np.minimum.at(parent, root[hook], low[hook])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(n)
    labels = (np.cumsum(is_root) - 1)[parent]
    return labels, np.bincount(labels, minlength=int(is_root.sum()))


def connected_component_sizes(graph: Graph):
    """Component sizes, largest first."""
    _, sizes = _memo(graph, "_components", component_labels)
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
    for a source that is not an integer in [0, n)."""
    n = graph.n
    if not (isinstance(source, (int, np.integer)) and 0 <= source < n):
        raise ParameterDomainError(f"source must be an integer in [0, {n}), got {source}")
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
    labels, sizes = _memo(graph, "_components", component_labels)
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
    clustering = global_clustering(graph)  # first: the kernel runs in triangle_count
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
        global_clustering=clustering,
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
