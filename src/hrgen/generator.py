"""Random hyperbolic graph generation.

Vertices are random points on a hyperbolic disk of radius R: angles uniform
on [0, 2pi), radii from the density alpha*sinh(alpha*r)/(cosh(alpha*R)-1).
Two vertices are adjacent iff their hyperbolic distance is strictly below R,
which yields a power-law degree distribution with exponent 2*alpha + 1.

`generate` works in the Poincare disk: the hyperbolic neighborhood ball of
each vertex is an ordinary Euclidean circle there, so the edge set comes out
of circle range queries against a polar quadtree instead of all-pairs
distance tests. `generate_brute_force` is the quadratic reference
implementation used to validate it.
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
    circle_params,
    radial_inverse_cdf,
    target_radius,
    to_poincare_radius,
)
from .graph import Graph
from .quadtree import PolarQuadtree

# Vertices are processed in fixed-size blocks during the edge phase. The
# block grid is independent of the thread count and results are merged in
# block order, so output is identical for any --threads value.
_EDGE_CHUNK = 16384

# Expected points per leaf of the generator's tree, which sets the height of
# its leaf grid: 512 gives the depth that splitting full leaves reached on
# model input. The edge set is the same for every capacity; larger leaves
# trade (circle, band) pairs for scan width.
_LEAF_CAPACITY = 512

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
        if self.n < 1:
            raise ParameterDomainError("n must be at least 1")
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
        radius from the average-degree target)."""
        alpha = self.alpha if self.alpha is not None else alpha_from_gamma(self.gamma)
        if self.radius is not None:
            radius = self.radius
        else:
            radius = target_radius(self.n, self.avg_degree, alpha)
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

    @property
    def n(self):
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


def _edge_block(tree, phi, center_r, radii, lo, hi):
    """Edges (v, w) with v in [lo, hi), w > v, found by circle queries."""
    qidx, ids = tree.query_many(phi[lo:hi], center_r[lo:hi], radii[lo:hi])
    src = qidx + lo
    keep = ids > src
    return src[keep], ids[keep]


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
        capacity=_LEAF_CAPACITY,
    )
    t2 = time.perf_counter_ns()

    center_r, radii = circle_params(coords.r_poincare, model.R)
    center_r = np.atleast_1d(center_r)
    radii = np.atleast_1d(radii)
    blocks = [(lo, min(lo + _EDGE_CHUNK, n)) for lo in range(0, n, _EDGE_CHUNK)]

    def run(block):
        return _edge_block(tree, coords.phi, center_r, radii, *block)

    if params.threads == 1 or len(blocks) == 1:
        results = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=params.threads) as pool:
            results = list(pool.map(run, blocks))
    us = np.concatenate([r[0] for r in results])
    vs = np.concatenate([r[1] for r in results])
    graph = Graph.from_edge_arrays(n, us, vs)
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
    """Reference edge set: all-pairs hyperbolic distance tests, edge iff
    strictly below `radius`. Quadratic; intended for validation."""
    if not radius > 0.0:
        raise ParameterDomainError("radius must be positive")
    n = len(coords)
    r = coords.r_poincare
    x = r * np.cos(coords.phi)
    y = r * np.sin(coords.phi)
    b = (1.0 - r) * (1.0 + r)
    cols = np.arange(n, dtype=np.int64)
    us, vs = [], []
    block = max(1, min(n, 8_000_000 // max(n, 1)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dx = x[lo:hi, None] - x[None, :]
        dy = y[lo:hi, None] - y[None, :]
        d2 = dx * dx + dy * dy
        dist = 2.0 * np.arcsinh(np.sqrt(d2 / (b[lo:hi, None] * b[None, :])))
        hit = (dist < radius) & (cols[None, :] > cols[lo:hi, None])
        ui, vi = np.nonzero(hit)
        us.append(ui + lo)
        vs.append(cols[vi])
    return Graph.from_edge_arrays(
        n, np.concatenate(us) if us else [], np.concatenate(vs) if vs else []
    )


def add_long_range_edges(graph: Graph, fraction, seed) -> Graph:
    """Add ceil(fraction * m) uniformly random absent edges to the graph.

    Pairs are drawn with rejection until enough new edges are found; the
    pair stream is independent of the coordinate stream for the same seed.
    Raises InfeasibleParametersError when the graph lacks room.
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
    added = set()
    new_u = np.empty(k, dtype=np.int64)
    new_v = np.empty(k, dtype=np.int64)
    got = 0
    while got < k:
        a, c = rng.integers(0, n, size=2)
        if a == c:
            continue
        lo, hi = (a, c) if a < c else (c, a)
        if (lo, hi) in added or graph.has_edge(lo, hi):
            continue
        added.add((lo, hi))
        new_u[got] = lo
        new_v[got] = hi
        got += 1
    old = graph.edge_array()
    return Graph.from_edge_arrays(
        n,
        np.concatenate((old[:, 0], new_u)),
        np.concatenate((old[:, 1], new_v)),
    )
