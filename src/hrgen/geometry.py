"""Geometry of the hyperbolic plane in polar coordinates.

Two coordinate systems are used throughout. In the *native* representation a
point is (phi, r) with r the hyperbolic distance from the origin. In the
*Poincare* representation the same point lives inside the Euclidean unit disk,
where hyperbolic circles become Euclidean circles and range queries become
ordinary disk queries. Curvature is fixed at -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleParametersError, ParameterDomainError

TWO_PI = 2.0 * math.pi


def normalize_angle(phi: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi)."""
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    # adding 2*pi to a tiny negative rounds up to exactly 2*pi; keep the
    # range contract half-open
    return 0.0 if phi >= TWO_PI else phi


@dataclass(frozen=True)
class NativePoint:
    """Polar point whose radial coordinate is the hyperbolic distance from the origin."""

    phi: float
    r: float

    def __post_init__(self):
        if not self.r >= 0.0:
            raise ValueError(f"native radial coordinate must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", normalize_angle(self.phi))

    def to_poincare(self) -> "PoincarePoint":
        return PoincarePoint(self.phi, to_poincare_radius(self.r))


@dataclass(frozen=True)
class PoincarePoint:
    """Polar point inside the Euclidean unit disk."""

    phi: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"Poincare radial coordinate must be in [0, 1), got {self.r}")
        object.__setattr__(self, "phi", normalize_angle(self.phi))

    def to_cartesian(self) -> tuple[float, float]:
        return self.r * math.cos(self.phi), self.r * math.sin(self.phi)


@dataclass(frozen=True)
class EuclideanCircle:
    """Disk in the Poincare model, used as a range-query region."""

    center: PoincarePoint
    radius: float

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError(f"circle radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class ModelParams:
    """Resolved model parameters: n points on a disk of radius R, growth alpha.

    When target_avg_degree is set, R was derived from it via target_radius;
    otherwise R itself is authoritative.
    """

    n: int
    alpha: float
    R: float
    target_avg_degree: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParameterDomainError(f"n must be >= 1, got {self.n}")
        if not self.alpha > 0.0:
            raise ParameterDomainError(f"alpha must be > 0, got {self.alpha}")
        if not self.R > 0.0:
            raise ParameterDomainError(f"R must be > 0, got {self.R}")


def to_poincare_radius(r_native):
    """Map a native radial coordinate into the unit disk, preserving the
    hyperbolic distance to the origin.

    Equals sqrt((cosh r - 1)/(cosh r + 1)); the half-argument form tanh(r/2)
    is used because it stays accurate where cosh overwhelms the subtraction.
    Accepts scalars or arrays.
    """
    out = np.tanh(np.asarray(r_native, dtype=np.float64) / 2.0)
    return out if np.ndim(r_native) else float(out)


def to_native_radius(r_poincare):
    """Inverse of to_poincare_radius. Accepts scalars or arrays in [0, 1)."""
    r = np.asarray(r_poincare, dtype=np.float64)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("Poincare radial coordinate must be in [0, 1)")
    out = 2.0 * np.arctanh(r)
    return out if np.ndim(r_poincare) else float(out)


def disk_weight(r_native):
    """1 - |p|^2 for the Poincare image p of a point at native radius r.

    Evaluated as sech^2(r/2) from the native radius. The form 1 - tanh^2(r/2)
    cancels near the rim, where the stored Poincare radius keeps only about
    1e-16 / (1 - |p|) of relative accuracy in 1 - |p|^2. Accepts scalars or
    arrays.
    """
    out = np.cosh(np.asarray(r_native, dtype=np.float64) / 2.0) ** -2.0
    return out if np.ndim(r_native) else float(out)


def within_distance(dx, dy, b_p, b_q, radius):
    """The edge predicate: whether two points of the Poincare disk, (dx, dy)
    apart and with weights b = 1 - |p|^2 (see `disk_weight`), lie at
    hyperbolic distance strictly below `radius`.

    d(p, q) < R iff |p - q|^2 < sinh^2(R/2) * b_p * b_q. Swapping p and q
    negates dx and dy and swaps the weights, and neither changes a bit of
    either side, so both endpoints of a pair get the same answer.
    """
    return dx * dx + dy * dy < math.sinh(radius / 2.0) ** 2 * (b_p * b_q)


def poincare_distance(p: PoincarePoint, q: PoincarePoint) -> float:
    """Hyperbolic distance between two points of the unit disk.

    This is acosh(1 + 2*d2/((1-|p|^2)(1-|q|^2))) with d2 the squared Euclidean
    distance, evaluated in the equivalent form 2*asinh(d/sqrt(...)) which is
    exact at p = q and keeps full precision near the disk boundary.
    """
    px, py = p.to_cartesian()
    qx, qy = q.to_cartesian()
    d = math.hypot(px - qx, py - qy)
    # (1 - r^2) as (1 - r)(1 + r): avoids cancellation for r close to 1
    bp = (1.0 - p.r) * (1.0 + p.r)
    bq = (1.0 - q.r) * (1.0 + q.r)
    return 2.0 * math.asinh(d / math.sqrt(bp * bq))


def radial_inverse_cdf(u, alpha, radius):
    """Quantile function of the radial density: the r with
    (cosh(alpha*r) - 1) / (cosh(alpha*R) - 1) = u.

    Evaluated as (2/alpha)*asinh(sqrt(u)*sinh(alpha*R/2)), which stays
    accurate for u near 0 where the cosh form would cancel, and capped at R.
    """
    if not alpha > 0.0:
        raise ParameterDomainError("alpha must be positive")
    if not radius > 0.0:
        raise ParameterDomainError("radius must be positive")
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ParameterDomainError("u must lie in [0, 1]")
    out = (2.0 / alpha) * np.arcsinh(np.sqrt(u_arr) * math.sinh(alpha * radius / 2.0))
    return np.minimum(out, radius) if np.ndim(u) else min(float(out), radius)


def circle_params(r_poincare, hyperbolic_radius):
    """Center radius and Euclidean radius of the disk holding all points at
    hyperbolic distance < hyperbolic_radius from a center at Poincare radius
    r_poincare. The center keeps its angular coordinate.

    Vectorized over r_poincare; hyperbolic_radius is a shared scalar or an
    array of matching shape. Raises ParameterDomainError for a center
    outside [0, 1) or a radius that is not positive.
    """
    rh = np.asarray(r_poincare, dtype=np.float64)
    rad = np.asarray(hyperbolic_radius, dtype=np.float64)
    if not np.all((rh >= 0.0) & (rh < 1.0)):
        raise ParameterDomainError("Poincare radial coordinate must be in [0, 1)")
    if not np.all(rad > 0.0):
        raise ParameterDomainError("hyperbolic radius must be positive")
    a = 2.0 * np.sinh(rad / 2.0) ** 2  # cosh(rad) - 1
    b = (1.0 - rh) * (1.0 + rh)
    denom = a * b + 2.0
    center_r = 2.0 * rh / denom
    disc = center_r**2 - (2.0 * rh**2 - a * b) / denom
    if np.any(disc < 0.0):
        raise AssertionError("negative discriminant in circle transform; inputs out of domain")
    return center_r, np.sqrt(disc)


def hyperbolic_circle_to_euclidean(center: NativePoint, radius: float) -> EuclideanCircle:
    """Transform a hyperbolic circle (native center, hyperbolic radius) into
    the Euclidean circle that covers the same point set in the Poincare disk.
    """
    if not radius > 0.0:
        raise ValueError(f"circle radius must be > 0, got {radius}")
    center_r, rad_e = circle_params(to_poincare_radius(center.r), radius)
    return EuclideanCircle(PoincarePoint(center.phi, float(center_r)), float(rad_e))


def expected_avg_degree(n: int, alpha: float, radius: float) -> float:
    """Closed-form expected average degree for n points on a disk of radius
    `radius` with growth parameter alpha.

    Asymptotic approximation: accurate for the sparse regime (R well above the
    small-R peak), off by several percent for tiny dense disks.
    """
    if not alpha > 0.5:
        raise ParameterDomainError(f"alpha must be > 0.5, got {alpha}")
    if not radius > 0.0:
        raise ParameterDomainError(f"radius must be > 0, got {radius}")
    if n < 1:
        raise ParameterDomainError(f"n must be >= 1, got {n}")
    xi = alpha / (alpha - 0.5)
    inner = (
        alpha
        * (radius / 2.0)
        * ((math.pi / 4.0) / alpha**2 - (math.pi - 1.0) / alpha + (math.pi - 2.0))
        - 1.0
    )
    return (2.0 / math.pi) * xi * xi * n * (math.exp(-radius / 2.0) + math.exp(-alpha * radius) * inner)


_RADIUS_LO = 1e-6
_RADIUS_HI = 200.0
_RADIUS_REL_TOL = 1e-6  # relative error in the expected degree that ends the bisection


def target_radius(n: int, avg_degree: float, alpha: float) -> float:
    """Disk radius R whose expected average degree is avg_degree to within `_RADIUS_REL_TOL`.

    The closed form vanishes at R -> 0, rises to a single peak at small R and
    decays monotonically afterwards; the physically meaningful solution is on
    the decaying branch, found by bisection.
    """
    if not alpha > 0.5:
        raise ParameterDomainError(f"alpha must be > 0.5, got {alpha}")
    if not 0.0 < avg_degree < n - 1:
        raise ParameterDomainError(
            f"target average degree must be in (0, n-1), got {avg_degree} for n={n}"
        )

    grid = np.geomspace(_RADIUS_LO, _RADIUS_HI, 512)
    values = [expected_avg_degree(n, alpha, r) for r in grid]
    peak = int(np.argmax(values))
    lo, hi = float(grid[peak]), _RADIUS_HI
    if values[peak] < avg_degree or expected_avg_degree(n, alpha, hi) > avg_degree:
        raise InfeasibleParametersError(
            f"no radius in ({_RADIUS_LO}, {_RADIUS_HI}] yields average degree {avg_degree} "
            f"for n={n}, alpha={alpha}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        k = expected_avg_degree(n, alpha, mid)
        if abs(k - avg_degree) <= _RADIUS_REL_TOL * avg_degree:
            return mid
        if k > avg_degree:
            lo = mid
        else:
            hi = mid
    raise InfeasibleParametersError(
        f"bisection failed to reach tolerance {_RADIUS_REL_TOL} for n={n}, alpha={alpha}, "
        f"avg_degree={avg_degree}"
    )


def alpha_from_gamma(gamma: float) -> float:
    """Growth parameter producing a degree power law with the given exponent."""
    if not gamma > 2.0:
        raise ParameterDomainError(f"gamma must be > 2, got {gamma}")
    return (gamma - 1.0) / 2.0
