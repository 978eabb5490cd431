"""Random hyperbolic graph generation.

Vertices are random points on a hyperbolic disk of radius R: angles uniform
on [0, 2pi), radii from the density alpha*sinh(alpha*r)/(cosh(alpha*R)-1).
Two vertices are adjacent iff their hyperbolic distance is strictly below R,
which yields a power-law degree distribution with exponent 2*alpha + 1.

`generate` works in the Poincare disk: the hyperbolic neighborhood ball of
each vertex is an ordinary Euclidean circle there, so the edge set comes out
of range queries against a polar quadtree instead of all-pairs distance
tests. Each vertex asks only for the vertices stored after it in the
tree, so every edge is found once. `generate_brute_force` is the quadratic
reference implementation used to validate it. Both decide every pair with
`geometry.within_distance`, on the same coordinates and weights.

Memory: `generate` holds each edge once, as its 8-byte key, from the query
to the returned graph. The sampled coordinates are freed once the tree is
built, and the query reads the tree's own points: while it runs, the tree
takes about 56 bytes per vertex, and each querying thread one scan block of
about 5 MB (`quadtree._SCAN_BLOCK`). The tree is dropped before the
blocks' keys are joined into one array, which holds the keys twice, 16
bytes per edge, for a moment. Shortcuts hold a second copy while they are
merged in. `graphio.write_edgelist` then needs about 15 MB, whatever m is.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParametersError, ParameterDomainError
from .geometry import (
    TWO_PI,
    ModelParams,
    alpha_from_gamma,
    disk_weight,
    radial_inverse_cdf,
    target_radius,
    to_poincare_radius,
    within_distance,
)
from .graph import MAX_N, Graph
from .quadtree import PolarQuadtree

# The edge phase queries the tree's stored points in blocks: slices of the
# storage order of at most this many points that never cross a band
# boundary. The hubs sit in the few innermost bands, so band-aligned blocks
# keep them apart from the bulk; plain slices would put every hub in block 0
# and serialise the threads on it. The grid depends on the tree alone and
# results are merged in block order, so output is identical for any
# --threads value.
_EDGE_CHUNK = 16384

# Entropy tag separating the long-range edge stream from the coordinate
# stream when both derive from the same user seed.
_LONG_RANGE_STREAM = 1


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for one generation run.

    Exactly one of (avg_degree, radius) and exactly one of (gamma, alpha)
    must be given; gamma is the degree power-law exponent, alpha the radial
    growth parameter, related by gamma = 2*alpha + 1.
    """

    n: int
    avg_degree: float | None = None
    radius: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    seed: int = 0
    threads: int = 1
    long_range_fraction: float = 0.0

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ParameterDomainError(f"n must be in [1, {MAX_N}]")
        if (self.avg_degree is None) == (self.radius is None):
            raise ParameterDomainError(
                "exactly one of avg_degree and radius must be set"
            )
        if (self.gamma is None) == (self.alpha is None):
            raise ParameterDomainError("exactly one of gamma and alpha must be set")
        if self.avg_degree is not None and not self.avg_degree > 0.0:
            raise ParameterDomainError("avg_degree must be positive")
        if self.radius is not None and not self.radius > 0.0:
            raise ParameterDomainError("radius must be positive")
        if self.gamma is not None and not self.gamma > 2.0:
            raise ParameterDomainError("gamma must exceed 2")
        if self.alpha is not None and not self.alpha > 0.5:
            raise ParameterDomainError("alpha must exceed 0.5")
        if not 0 <= self.seed < 2**64:
            raise ParameterDomainError("seed must be a 64-bit unsigned integer")
        if self.threads < 1:
            raise ParameterDomainError("threads must be at least 1")
        if not 0.0 <= self.long_range_fraction < 1.0:
            raise ParameterDomainError("long_range_fraction must be in [0, 1)")

    def resolve(self) -> ModelParams:
        """Fill in the derived model parameters (alpha from gamma, disk
        radius from the average-degree target). Raises ParameterDomainError
        from R = 37.98 on, where tanh(R/2) rounds to 1 and the rim is lost."""
        alpha = self.alpha if self.alpha is not None else alpha_from_gamma(self.gamma)
        radius = self.radius
        if radius is None:
            radius = target_radius(self.n, self.avg_degree, alpha)
        if not to_poincare_radius(radius) < 1.0:
            raise ParameterDomainError(
                f"disk radius {radius:.10g} is too large: tanh(R/2) rounds to 1"
            )
        return ModelParams(
            n=self.n, alpha=alpha, R=radius, target_avg_degree=self.avg_degree
        )


@dataclass(frozen=True)
class VertexCoordinates:
    """Sampled positions, kept in both coordinate systems."""

    phi: np.ndarray
    r_native: np.ndarray
    r_poincare: np.ndarray

    def __len__(self):
        return self.phi.size


@dataclass(frozen=True)
class GenerationStats:
    """Phase timings (nanoseconds) and basic facts about one run.

    `t_long_range_ns` times the shortcut sampler; it is 0 when no shortcuts
    are requested.
    """

    n: int
    m: int
    radius: float
    alpha: float
    t_sample_ns: int
    t_build_ns: int
    t_edges_ns: int
    t_long_range_ns: int

    @property
    def t_total_ns(self):
        return (
            self.t_sample_ns + self.t_build_ns + self.t_edges_ns + self.t_long_range_ns
        )


def sample_points(n, alpha, radius, seed) -> VertexCoordinates:
    """Draw n vertex positions from one seeded stream.

    Each vertex consumes exactly two uniforms, angle first, so coordinates
    are reproducible bit for bit from (n, alpha, radius, seed).
    """
    if n < 1:
        raise ParameterDomainError("n must be at least 1")
    rng = np.random.default_rng(seed)
    draws = rng.random((n, 2))
    phi = TWO_PI * draws[:, 0]
    r_native = radial_inverse_cdf(draws[:, 1], alpha, radius)
    # Rounding in the quantile evaluation can land a sample exactly on the
    # rim; nudge such points inside so they stay in every half-open cell.
    np.minimum(r_native, np.nextafter(radius, 0.0), out=r_native)
    r_poincare = to_poincare_radius(r_native)
    np.minimum(
        r_poincare, np.nextafter(to_poincare_radius(radius), 0.0), out=r_poincare
    )
    return VertexCoordinates(phi=phi, r_native=r_native, r_poincare=r_poincare)


def _edge_keys(tree, n, radius, lo, hi):
    """Keys min(v, w) * n + max(v, w) of the edges (v, w) with v among the
    stored points lo..hi-1 and w stored after v (the max overwrites w)."""
    v, w = tree.query_many(lo, hi, radius)
    key = np.minimum(v, w)
    key *= n
    key += np.maximum(v, w, out=w)
    return key


def _query_edge_keys(tree, n, radius, threads):
    """Edge keys of every stored point's query, one array per block, in
    block order. Blocks are band-aligned slices of the storage order."""
    ptr = tree.band_ptr.tolist()
    blocks = [
        (lo, min(lo + _EDGE_CHUNK, end))
        for start, end in zip(ptr[:-1], ptr[1:])
        for lo in range(start, end, _EDGE_CHUNK)
    ]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda block: _edge_keys(tree, n, radius, *block), blocks))


def generate_with_stats(params: GeneratorParams):
    """Like `generate` but also returns phase timings."""
    model = params.resolve()
    n = model.n

    t0 = time.perf_counter_ns()
    coords = sample_points(n, model.alpha, model.R, params.seed)
    t1 = time.perf_counter_ns()

    tree = PolarQuadtree.build(
        coords.phi,
        coords.r_poincare,
        alpha=model.alpha,
        max_r=to_poincare_radius(model.R),
        capacity=n,  # height 0: every band is a halving-mass core band
        b=disk_weight(coords.r_native),
    )
    del coords
    t2 = time.perf_counter_ns()

    blocks = _query_edge_keys(tree, n, model.R, params.threads)
    del tree
    keys = np.concatenate(blocks)
    del blocks
    graph = Graph.from_edge_arrays(n, keys)
    t3 = time.perf_counter_ns()

    t_long_range_ns = 0
    if params.long_range_fraction > 0.0:
        graph = add_long_range_edges(graph, params.long_range_fraction, params.seed)
        t_long_range_ns = time.perf_counter_ns() - t3

    stats = GenerationStats(
        n=n,
        m=graph.m,
        radius=model.R,
        alpha=model.alpha,
        t_sample_ns=t1 - t0,
        t_build_ns=t2 - t1,
        t_edges_ns=t3 - t2,
        t_long_range_ns=t_long_range_ns,
    )
    return graph, stats


def generate(params: GeneratorParams) -> Graph:
    """Generate one random hyperbolic graph. Deterministic in `params`:
    the same parameters give the same graph for any thread count."""
    graph, _ = generate_with_stats(params)
    return graph


def generate_brute_force(coords: VertexCoordinates, radius) -> Graph:
    """Reference edge set: every pair tested with `within_distance`, edge
    iff the hyperbolic distance is strictly below `radius`. Quadratic;
    intended for validation."""
    if not radius > 0.0:
        raise ParameterDomainError("radius must be positive")
    n = len(coords)
    r = coords.r_poincare
    x = r * np.cos(coords.phi)
    y = r * np.sin(coords.phi)
    b = disk_weight(coords.r_native)
    cols = np.arange(n, dtype=np.int64)
    us, vs = [], []
    block = max(1, min(n, 8_000_000 // max(n, 1)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        hit = within_distance(
            x[lo:hi, None] - x[None, :],
            y[lo:hi, None] - y[None, :],
            b[lo:hi, None],
            b[None, :],
            radius,
        )
        hit &= cols[None, :] > cols[lo:hi, None]
        ui, vi = np.nonzero(hit)
        us.append(ui + lo)
        vs.append(cols[vi])
    return Graph.from_edge_arrays(
        n, np.concatenate(us) if us else [], np.concatenate(vs) if vs else []
    )


def add_long_range_edges(graph: Graph, fraction, seed) -> Graph:
    """Add ceil(fraction * m) uniformly random absent edges to the graph.

    The new edges are the first k pairs of a stream, independent of the
    coordinate stream for the same seed, that are no self-loop, edge or
    repeat. Batched draws leave that stream unchanged, as the bit generator
    buffers the spare half of each 64-bit output. The new keys are merged
    into the graph's sorted keys. Raises InfeasibleParametersError when the
    graph lacks room.
    """
    if not 0.0 <= fraction < 1.0:
        raise ParameterDomainError("fraction must be in [0, 1)")
    k = math.ceil(fraction * graph.m)
    if k == 0:
        return graph
    n = graph.n
    absent = n * (n - 1) // 2 - graph.m
    if k > absent:
        raise InfeasibleParametersError(
            f"cannot add {k} edges, only {absent} vertex pairs are free"
        )
    rng = np.random.default_rng([seed, _LONG_RANGE_STREAM])
    keys = graph.keys  # k > 0 implies m > 0
    found = np.empty(0, dtype=np.int64)  # new keys, in stream order
    while found.size < k:
        # Expected draws per new edge are n^2 / (2 absent), a bit more as repeats
        # accumulate: draw 1/8 more, in batches of at most 16 MB of pairs.
        size = min((k - found.size) * n * n * 9 // (16 * absent) + 64, 1 << 20)
        pairs = rng.integers(0, n, size=(size, 2))
        lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
        stream = np.concatenate((found, (lo * n + hi)[lo != hi]))
        # Distinct pairs at their first position; sorted lookups stay local.
        uniq, first = np.unique(stream, return_index=True)
        at = np.searchsorted(keys, uniq)
        pick = np.flatnonzero(keys[np.minimum(at, keys.size - 1)] != uniq)
        pick = pick[np.argsort(first[pick])[:k]]  # the first k absent pairs
        found = uniq[pick]
    pick.sort()  # the last lookup placed every new key
    return Graph(n=n, keys=np.insert(keys, at[pick], uniq[pick]))
