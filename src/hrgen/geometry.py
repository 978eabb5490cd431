"""Geometry of the hyperbolic plane in polar coordinates.

Points are given in *native* polar coordinates (phi, r), with r the
hyperbolic distance from the origin, and cross every module boundary in that
form. Only the polar quadtree and the brute-force reference move them into
the *Poincare* disk, through `poincare_image`: there a point lives inside the
Euclidean unit disk, hyperbolic circles become Euclidean circles and range
queries become ordinary disk queries. Curvature is fixed at -1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleParametersError, OutOfBoundsError, ParameterDomainError

TWO_PI = 2.0 * math.pi


def to_poincare_radius(r_native):
    """Map a native radial coordinate into the unit disk, preserving the
    hyperbolic distance to the origin.

    Equals sqrt((cosh r - 1)/(cosh r + 1)); the half-argument form tanh(r/2)
    is used because it stays accurate where cosh overwhelms the subtraction.
    Accepts scalars or arrays.
    """
    out = np.tanh(np.asarray(r_native, dtype=np.float64) / 2.0)
    return out if np.ndim(r_native) else float(out)


def poincare_image(r_native, radius):
    """The Poincare radius and the weight 1 - |p|^2 that `within_distance`
    reads, for points at native radii r in [0, radius). Raises
    OutOfBoundsError for a radius outside that range or NaN, and
    ParameterDomainError unless the rim tanh(R/2) lies in (0, 1), which
    rounding breaks from R = 37.98 on.

    The Poincare radius tanh(r/2) is kept below the rim, which rounding
    reaches near it, so every point stays inside each half-open cell. The
    weight is sech^2(r/2) from the native radius: the form 1 - tanh^2(r/2)
    cancels near the rim, where the Poincare radius keeps only about
    1e-16 / (1 - |p|) of relative accuracy in 1 - |p|^2.
    """
    rim = to_poincare_radius(radius)
    if not 0.0 < rim < 1.0:
        raise ParameterDomainError(
            f"disk radius {radius:.10g} is not positive or too large: tanh(R/2) = {rim!r}"
        )
    r_native = np.asarray(r_native, dtype=np.float64)
    if r_native.size and not (r_native.min() >= 0.0 and r_native.max() < radius):
        raise OutOfBoundsError(f"native radius outside [0, {radius:.10g})")
    r = np.minimum(to_poincare_radius(r_native), np.nextafter(rim, 0.0))
    return r, np.cosh(r_native / 2.0) ** -2.0


def within_distance(dx, dy, b_p, b_q, radius):
    """The edge predicate: whether two points of the Poincare disk, (dx, dy)
    apart and with weights b = 1 - |p|^2 (see `poincare_image`), lie at
    hyperbolic distance strictly below `radius`.

    d(p, q) < R iff |p - q|^2 < sinh^2(R/2) * b_p * b_q. Swapping p and q
    negates dx and dy and swaps the weights, and neither changes a bit of
    either side, so both endpoints of a pair get the same answer.
    """
    return dx * dx + dy * dy < math.sinh(radius / 2.0) ** 2 * (b_p * b_q)


def radial_inverse_cdf(u, alpha, radius):
    """Quantile function of the radial density: the r with
    (cosh(alpha*r) - 1) / (cosh(alpha*R) - 1) = u.

    Evaluated as (2/alpha)*asinh(sqrt(u)*sinh(alpha*R/2)), which stays
    accurate for u near 0 where the cosh form would cancel, and capped at R.
    Raises ParameterDomainError where sinh(alpha*R/2) overflows a float,
    from alpha*R/2 of about 710 on.
    """
    if not 0.0 < alpha < math.inf:
        raise ParameterDomainError("alpha must be positive and finite")
    if not radius > 0.0:
        raise ParameterDomainError("radius must be positive")
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all((u_arr >= 0.0) & (u_arr <= 1.0)):
        raise ParameterDomainError("u must lie in [0, 1]")
    try:
        scale = math.sinh(alpha * radius / 2.0)
    except OverflowError:
        raise ParameterDomainError(
            f"alpha*R/2 = {alpha * radius / 2.0:.10g} is too large: sinh(alpha*R/2) overflows"
        ) from None
    out = (2.0 / alpha) * np.arcsinh(np.sqrt(u_arr) * scale)
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
    return 2.0 * rh / denom, np.sinh(rad) * b / denom


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
