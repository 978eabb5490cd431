"""Brute-force reference implementations used as test oracles.

Everything here follows the textbook definition directly, in plain Python,
so that agreement with the vectorized library code is meaningful.
"""

import math
from collections import deque

import numpy as np

from hrgen import Graph
from hrgen.generator import _LONG_RANGE_STREAM


def poincare_distance(px, py, qx, qy):
    """Hyperbolic distance between two Cartesian points of the unit disk.

    This is acosh(1 + 2*d2/((1-|p|^2)(1-|q|^2))) with d2 the squared Euclidean
    distance, evaluated in the equivalent form 2*asinh(d/sqrt(...)) which is
    exact at p = q and keeps full precision near the disk boundary.
    """
    d = math.hypot(px - qx, py - qy)
    # (1 - r^2) as (1 - r)(1 + r): avoids cancellation for r close to 1
    rp = math.hypot(px, py)
    rq = math.hypot(qx, qy)
    bp = (1.0 - rp) * (1.0 + rp)
    bq = (1.0 - rq) * (1.0 + rq)
    return 2.0 * math.asinh(d / math.sqrt(bp * bq))


def from_edges(n, edges) -> Graph:
    """Graph on n vertices from a list of (u, v) pairs."""
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return Graph.from_edge_arrays(n, u, v)


def has_edge(graph: Graph, u, v) -> bool:
    """Whether the graph holds the edge {u, v}, by a search of its keys."""
    key = min(u, v) * graph.n + max(u, v)
    i = np.searchsorted(graph.keys, key)
    return u != v and i < graph.m and graph.keys[i] == key


def adjacency_sets(graph: Graph):
    return [set(graph.neighbors(v).tolist()) for v in range(graph.n)]


def triangles_brute(graph: Graph) -> int:
    adj = adjacency_sets(graph)
    count = 0
    for u in range(graph.n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    count += 1
    return count


def transitivity_brute(graph: Graph) -> float:
    triples = sum(d * (d - 1) // 2 for d in graph.degrees().tolist())
    if triples == 0:
        return 0.0
    return 3.0 * triangles_brute(graph) / triples


def local_clustering_brute(graph: Graph):
    adj = adjacency_sets(graph)
    out = []
    for v in range(graph.n):
        nbrs = sorted(adj[v])
        k = len(nbrs)
        if k < 2:
            out.append(0.0)
            continue
        links = sum(
            1 for i in range(k) for j in range(i + 1, k) if nbrs[j] in adj[nbrs[i]]
        )
        out.append(links / (k * (k - 1) / 2))
    return out


def assortativity_brute(graph: Graph):
    deg = graph.degrees()
    xs, ys = [], []
    for u, v in graph.edge_array().tolist():
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    if not xs:
        return None
    x = np.array(xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    x -= x.mean()
    y -= y.mean()
    sx = math.sqrt(float(x @ x))
    sy = math.sqrt(float(y @ y))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(x @ y) / (sx * sy)


def components_brute(graph: Graph):
    """List of vertex sets, one per connected component."""
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = set()
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in graph.neighbors(v).tolist():
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def cores_brute(graph: Graph):
    """Core numbers by literal repeated peeling."""
    adj = adjacency_sets(graph)
    alive = set(range(graph.n))
    core = [0] * graph.n
    k = 0
    while alive:
        k = max(k, min(len(adj[v] & alive) for v in alive))
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                if len(adj[v] & alive) <= k:
                    core[v] = k
                    alive.discard(v)
                    changed = True
        k += 1
    return core


def bfs_brute(graph: Graph, source):
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v).tolist():
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def diameter_brute(graph: Graph):
    """Exact diameter of the largest component (0 for empty graphs)."""
    if graph.n == 0:
        return 0
    comp = max(components_brute(graph), key=len)
    best = 0
    for v in comp:
        best = max(best, max(d for d in bfs_brute(graph, v) if d >= 0))
    return best


def mle_brute(degrees, k_min):
    tail = [d for d in degrees if d >= k_min]
    if len(tail) < 10 or min(tail) == max(tail):
        return None
    return 1.0 + len(tail) / sum(math.log(d / (k_min - 0.5)) for d in tail)


def gnp_graph(n, p, rng) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def csr_lexsort(n, u, v):
    """CSR arrays (indptr, indices) of an edge list by a lexsort of both
    directions of every edge; input is assumed valid."""
    src = np.concatenate((u, v)).astype(np.int64)
    dst = np.concatenate((v, u)).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


def long_range_scalar(graph: Graph, fraction, seed) -> Graph:
    """Shortcut sampler with one draw per candidate pair: a pair becomes an
    edge unless it is a self-loop, an edge already, or an earlier pick."""
    k = math.ceil(fraction * graph.m)
    n = graph.n
    rng = np.random.default_rng([seed, _LONG_RANGE_STREAM])
    added = {}  # a set that keeps the order of insertion
    while len(added) < k:
        a, c = rng.integers(0, n, size=2).tolist()
        lo, hi = min(a, c), max(a, c)
        if lo == hi or (lo, hi) in added or has_edge(graph, lo, hi):
            continue
        added[lo, hi] = None
    new = np.array(list(added), dtype=np.int64).reshape(-1, 2)
    edges = np.concatenate((graph.edge_array(), new))
    return Graph(n=n, keys=np.unique(edges[:, 0] * n + edges[:, 1]))


def write_edgelist_lines(graph: Graph, path, header=None):
    """Edge-list writer with one formatted line per edge."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header.line())
        fh.write("".join(f"{u} {v}\n" for u, v in graph.edge_array().tolist()))


def write_metis_lines(graph: Graph, path):
    """METIS writer with one joined line per vertex."""
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            fh.write(" ".join(map(str, (graph.neighbors(v) + 1).tolist())) + "\n")
