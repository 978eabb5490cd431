"""Output checks for the benchmark, computed apart from hrgen's own code.

Generated edge lists are judged against coordinates recomputed from the seed
(two uniforms per vertex, angle first, the stream `hrgen.sample_points`
documents) and a cancellation-free distance in native coordinates:

    sinh^2(d/2) = sinh^2((r1 - r2)/2) + sinh(r1) sinh(r2) sin^2(dphi/2)

Every term is non-negative, so nothing cancels, not at the rim and not at the
0/2pi seam. Pairs whose distance lies within TIE_BAND * R of R are counted and
reported, never judged: there the program's arithmetic decides.

`analyze` reports are judged with scipy (sparse products, csgraph), or a
property the measure must have.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, sparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

# Relative band around R inside which a pair's adjacency is reported, not judged.
TIE_BAND = 1e-6
# Vertices whose whole predicate neighbourhood is compared with the file.
SAMPLE_HUBS = 16
SAMPLE_RIM = 16
SAMPLE_RANDOM = 32
# Largest component size that `analyze` documents as getting the exact diameter.
EXACT_DIAMETER_LIMIT = 10_000
# Random sources of the eccentricities that check diameter bounds above that size.
ECC_SAMPLE = 8
# Rows per sparse product in vertex_triangles; bounds peak memory.
TRIANGLE_BLOCK = 16384
# Report floats are printed with 6 significant digits.
REPORT_REL_TOL = 1e-5


class CheckError(Exception):
    """An output failed a check; the message says which and why."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


# -- edge-list files ---------------------------------------------------------


def read_edge_file(path):
    """Parse a `# n m seed R alpha` edge list strictly.

    Returns (header, u, v) with header = (n, m, seed, R, alpha). Raises
    CheckError unless the body is exactly m lines of `u v` with u < v,
    lexicographically increasing (so no duplicates), all ids in [0, n).
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        body = fh.read()
    parts = first.split()
    _require(len(parts) == 6 and parts[0] == b"#", f"{path}: bad header {first!r}")
    n, m, seed = (int(x) for x in parts[1:4])
    radius, alpha = float(parts[4]), float(parts[5])
    _require(not body.translate(None, b"0123456789 \n"), f"{path}: stray bytes in body")
    lines = body.count(b"\n")
    _require(lines == m, f"{path}: header says m={m}, body has {lines} lines")
    _require(body.count(b" ") == m and (m == 0 or body.endswith(b"\n")),
             f"{path}: not one 'u v' pair per line")
    flat = np.fromstring(body.decode("ascii"), dtype=np.int64, sep=" ") if m else (
        np.empty(0, dtype=np.int64))
    _require(flat.size == 2 * m, f"{path}: {flat.size} ids for {m} edges")
    u, v = flat[0::2], flat[1::2]
    if m:
        _require(int(u.min()) >= 0 and int(v.max()) < n, f"{path}: id outside [0, n)")
        _require(bool((u < v).all()), f"{path}: an edge with u >= v")
        step_u = np.diff(u)
        ordered = (step_u > 0) | ((step_u == 0) & (np.diff(v) > 0))
        _require(bool(ordered.all()), f"{path}: edges not strictly increasing")
    return (n, m, seed, radius, alpha), u, v


def sample_coordinates(n, alpha, radius, seed):
    """Native (phi, r) from the documented stream: two uniforms per vertex,
    angle first, radius by inverting (cosh(alpha r) - 1)/(cosh(alpha R) - 1)."""
    draws = np.random.default_rng(seed).random((n, 2))
    phi = 2.0 * math.pi * draws[:, 0]
    r = (2.0 / alpha) * np.arcsinh(np.sqrt(draws[:, 1]) * math.sinh(alpha * radius / 2.0))
    return phi, np.minimum(r, np.nextafter(radius, 0.0))


def half_sinh_sq(phi1, r1, phi2, r2):
    """sinh^2(d/2) of the hyperbolic distance d, without cancellation."""
    dr = np.sinh((r1 - r2) / 2.0)
    dp = np.sin((phi1 - phi2) / 2.0)
    return dr * dr + np.sinh(r1) * np.sinh(r2) * dp * dp


class Predicate:
    """Adjacency d < R with a tie band: classify() gives -1 (clearly an edge),
    0 (within TIE_BAND * R of R), +1 (clearly not an edge)."""

    def __init__(self, radius):
        self.lo = math.sinh(radius * (1.0 - TIE_BAND) / 2.0) ** 2
        self.hi = math.sinh(radius * (1.0 + TIE_BAND) / 2.0) ** 2

    def classify(self, s):
        return np.where(s < self.lo, -1, np.where(s > self.hi, 1, 0))


def check_generated(path, *, n, avg_degree, gamma, seed, long_range_fraction,
                    sample_seed):
    """Judge one `hrgen generate` edge list; returns a dict of findings.

    With long_range_fraction = 0 every edge must pass the predicate. With
    f > 0 exactly ceil(f * m_geo) edges must fail it, m_geo being the number
    that pass. In both cases every predicate neighbour of a sample of vertices
    (lowest radii, highest radii, seeded random) must be in the file.
    """
    (hn, m, hseed, radius, alpha), u, v = read_edge_file(path)
    _require(hn == n, f"header n={hn}, asked for {n}")
    _require(hseed == seed, f"header seed={hseed}, asked for {seed}")
    _require(math.isclose(alpha, (gamma - 1.0) / 2.0, rel_tol=1e-12),
             f"header alpha={alpha} does not match gamma={gamma}")
    _require(radius > 0.0, f"header R={radius}")
    phi, r = sample_coordinates(n, alpha, radius, seed)
    pred = Predicate(radius)

    cls = np.empty(m, dtype=np.int8)
    for lo in range(0, m, 1 << 20):
        sl = slice(lo, lo + (1 << 20))
        cls[sl] = pred.classify(half_sinh_sq(phi[u[sl]], r[u[sl]], phi[v[sl]], r[v[sl]]))
    outside = int((cls > 0).sum())
    ties = int((cls == 0).sum())
    if long_range_fraction == 0.0:
        _require(outside == 0, f"{outside} edges fail the predicate")
        m_geo = m
    else:
        # m_geo + ceil(f * m_geo) grows strictly with m_geo: one solution at most.
        guess = int(m / (1.0 + long_range_fraction))
        solved = [x for x in range(max(0, guess - 2), guess + 3)
                  if x + math.ceil(long_range_fraction * x) == m]
        _require(solved, f"m={m} is not m_geo + ceil({long_range_fraction} m_geo)")
        m_geo = solved[0]
        extra = m - m_geo
        _require(outside <= extra <= outside + ties,
                 f"{outside} edges fail the predicate, expected {extra} "
                 f"(= ceil({long_range_fraction} * {m_geo}))")
    degree = 2.0 * m_geo / n
    _require(abs(degree - avg_degree) <= 0.5 * avg_degree,
             f"geometric average degree {degree:.3f} is far from {avg_degree}")

    missing, ties_sample = _sample_neighbourhoods(u, v, phi, r, pred, sample_seed)
    _require(missing == 0, f"{missing} predicate neighbours of sampled vertices "
             "are not in the file")
    return {"m": m, "m_geo": m_geo, "edge_ties": ties, "sample_ties": ties_sample}


def _sample_vertices(r, sample_seed):
    order = np.argsort(r, kind="stable")
    rng = np.random.default_rng(sample_seed)
    random = rng.choice(r.size, size=min(SAMPLE_RANDOM, r.size), replace=False)
    return np.unique(np.concatenate((order[:SAMPLE_HUBS], order[-SAMPLE_RIM:], random)))


def _sample_neighbourhoods(u, v, phi, r, pred, sample_seed):
    """(missing, ties): predicate neighbours of the sampled vertices that the
    file lacks, and pairs of the sample that fell in the tie band."""
    missing = ties = 0
    for s in _sample_vertices(r, sample_seed):
        cls = pred.classify(half_sinh_sq(phi[s], r[s], phi, r))
        cls[s] = 1
        want = np.flatnonzero(cls < 0)
        ties += int((cls == 0).sum())
        lo, hi = np.searchsorted(u, [s, s + 1])
        have = np.concatenate((v[lo:hi], u[v == s]))
        missing += int(np.setdiff1d(want, have, assume_unique=True).size)
    return missing, ties


# -- analyze reports ---------------------------------------------------------

REPORT_FIELDS = (
    "n", "m", "avg_degree", "max_degree", "global_clustering",
    "mean_local_clustering", "degree_assortativity", "component_count",
    "largest_component_fraction", "max_core", "diameter_lower",
    "diameter_upper", "power_law_exponent", "power_law_k_min",
)


def parse_report(text):
    """`name value` lines -> dict of floats (nan stays nan)."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = float(parts[1])
    return out


def _close(name, got, want):
    ok = math.isclose(got, want, rel_tol=REPORT_REL_TOL, abs_tol=1e-12)
    _require(ok, f"report {name}={got!r}, check computed {want!r}")


def vertex_triangles(adj):
    """Triangles through each vertex of a symmetric 0/1 CSR matrix.

    Edges point from lower to higher (degree, id) rank, so out-degrees stay
    small. A triangle a < b < c (by rank) is one path a->b->c closed by a->c:
    B @ B masked by B finds it at (a, c), credited to a and c; B.T @ B masked
    by B finds it at (b, c), credited to b. Tested against networkx.triangles.
    """
    n = adj.shape[0]
    deg = np.diff(adj.indptr)
    pos = np.empty(n, dtype=np.int64)
    pos[np.lexsort((np.arange(n), deg))] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    fwd = pos[src] < pos[adj.indices]
    b = sparse.csr_matrix((np.ones(int(fwd.sum())), (src[fwd], adj.indices[fwd])),
                          shape=(n, n))
    bt = b.T.tocsr()
    tri = np.zeros(n)
    for lo in range(0, n, TRIANGLE_BLOCK):
        rows = b[lo:lo + TRIANGLE_BLOCK]
        low_high = (rows @ b).multiply(rows)
        tri[lo:lo + TRIANGLE_BLOCK] += np.asarray(low_high.sum(axis=1)).ravel()
        tri += np.asarray(low_high.sum(axis=0)).ravel()
        middle = (bt[lo:lo + TRIANGLE_BLOCK] @ b).multiply(rows)
        tri[lo:lo + TRIANGLE_BLOCK] += np.asarray(middle.sum(axis=1)).ravel()
    return tri


def eccentricity(adj, source):
    """(hop eccentricity of `source`, a vertex that far away): the last vertex
    of scipy's breadth-first order, and its depth from walking predecessors."""
    order, pred = breadth_first_order(adj, source, directed=True,
                                      return_predecessors=True)
    v, depth = order[-1], 0
    while v != source:
        v = pred[v]
        depth += 1
    return depth, order[-1]


def _has_k_core(indptr, indices, k):
    """True iff the k-core is non-empty (repeatedly drop vertices of degree < k)."""
    n = indptr.size - 1
    deg = np.diff(indptr).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    drop = alive & (deg < k)
    src = np.repeat(np.arange(n), np.diff(indptr))
    while drop.any():
        alive &= ~drop
        hit = drop[src] & alive[indices]
        deg -= np.bincount(indices[hit], minlength=n)
        drop = alive & (deg < k)
    return bool(alive.any())


def _power_law_mle(degrees, k_min):
    """Exponent maximising the continuous power-law likelihood of the tail
    k >= k_min with x_min = k_min - 0.5, found numerically."""
    tail = degrees[degrees >= k_min].astype(np.float64)
    logs = float(np.log(tail / (k_min - 0.5)).sum())
    size = tail.size

    def neg_loglik(g):
        return -(size * math.log(g - 1.0) - g * logs)

    res = optimize.minimize_scalar(neg_loglik, bounds=(1.0 + 1e-9, 50.0),
                                   method="bounded", options={"xatol": 1e-10})
    return float(res.x)


def check_report(report, edge_path):
    """Judge every field of one `hrgen analyze` report against the file."""
    (n, m, _, _, _), u, v = read_edge_file(edge_path)
    for name in REPORT_FIELDS:
        _require(name in report, f"report lacks {name}")
    _require(report["n"] == n and report["m"] == m,
             f"report n={report['n']} m={report['m']}, file has n={n} m={m}")
    deg = np.bincount(np.concatenate((u, v)), minlength=n)
    _close("avg_degree", report["avg_degree"], 2.0 * m / n)
    _require(report["max_degree"] == deg.max(), "report max_degree "
             f"{report['max_degree']}, file has {deg.max()}")

    ends = np.concatenate((u, v)), np.concatenate((v, u))
    adj = sparse.csr_matrix((np.ones(2 * m), ends), shape=(n, n))
    tri = vertex_triangles(adj)
    wedges = deg * (deg - 1) / 2.0
    _close("global_clustering", report["global_clustering"],
           tri.sum() / wedges.sum() if wedges.sum() else 0.0)
    local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
    _close("mean_local_clustering", report["mean_local_clustering"], local.mean())

    assort = np.corrcoef(deg[ends[0]], deg[ends[1]])[0, 1]
    _close("degree_assortativity", report["degree_assortativity"], float(assort))

    # Strong components of the symmetric digraph: another algorithm than the
    # undirected labelling hrgen asks scipy for.
    count, labels = connected_components(adj, directed=True, connection="strong")
    _require(report["component_count"] == count,
             f"report component_count={report['component_count']}, check {count}")
    sizes = np.bincount(labels)
    giant = np.flatnonzero(labels == np.argmax(sizes))
    _close("largest_component_fraction", report["largest_component_fraction"],
           giant.size / n)

    k = int(report["max_core"])
    _require(_has_k_core(adj.indptr, adj.indices, k), f"report max_core={k}, "
             "but the k-core is empty")
    _require(not _has_k_core(adj.indptr, adj.indices, k + 1),
             f"report max_core={k}, but the {k + 1}-core is not empty")

    lower, upper = int(report["diameter_lower"]), int(report["diameter_upper"])
    _require(report["diameter_lower"] == lower and report["diameter_upper"] == upper
             and 0 <= lower <= upper, f"diameter bounds [{lower}, {upper}]")
    if giant.size <= EXACT_DIAMETER_LIMIT:
        diameter = max(eccentricity(adj, x)[0] for x in giant)
        _require(lower == upper == diameter,
                 f"diameter bounds [{lower}, {upper}], exact diameter {diameter}")
    else:
        # Seeded vertices, plus a double sweep from the largest hub, whose
        # far ends usually sit at the diameter.
        rng = np.random.default_rng(n)
        ecc = [eccentricity(adj, x)[0] for x in rng.choice(giant, size=ECC_SAMPLE)]
        far = giant[np.argmax(deg[giant])]
        for _ in range(3):
            depth, far = eccentricity(adj, far)
            ecc.append(depth)
        ecc = np.array(ecc)
        _require(upper >= ecc.max() and lower <= 2 * ecc.min(),
                 f"diameter bounds [{lower}, {upper}] do not bracket eccentricities "
                 f"{ecc.astype(int).tolist()}")

    k_min = max(5, 2 * int(np.median(deg)))
    tail = deg[deg >= k_min]
    if tail.size >= 10 and tail.min() < tail.max():
        _require(report["power_law_k_min"] == k_min,
                 f"report power_law_k_min={report['power_law_k_min']}, expected {k_min}")
        _close("power_law_exponent", report["power_law_exponent"],
               _power_law_mle(deg, k_min))
    else:
        _require(math.isnan(report["power_law_exponent"]), "exponent on a thin tail")
    return {"n": n, "m": m}
