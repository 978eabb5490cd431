import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrgen import (
    EuclideanCircle,
    InfeasibleParametersError,
    ModelParams,
    NativePoint,
    ParameterDomainError,
    PoincarePoint,
    alpha_from_gamma,
    expected_avg_degree,
    hyperbolic_circle_to_euclidean,
    normalize_angle,
    poincare_distance,
    target_radius,
    to_native_radius,
    to_poincare_radius,
)
from hrgen.geometry import TWO_PI, circle_params

angles = st.floats(-50.0, 50.0, allow_nan=False)


@given(angles)
def test_normalize_angle_range(phi):
    out = normalize_angle(phi)
    assert 0.0 <= out < TWO_PI


@given(angles, st.integers(-5, 5))
def test_normalize_angle_periodic(phi, k):
    a = normalize_angle(phi)
    b = normalize_angle(phi + k * TWO_PI)
    assert math.isclose(a, b, abs_tol=1e-9) or math.isclose(
        abs(a - b), TWO_PI, abs_tol=1e-9
    )


def test_point_validation():
    with pytest.raises(ValueError):
        PoincarePoint(0.0, 1.0)
    with pytest.raises(ValueError):
        PoincarePoint(0.0, -0.1)
    with pytest.raises(ValueError):
        NativePoint(0.0, -1e-9)
    with pytest.raises(ValueError):
        EuclideanCircle(PoincarePoint(0.0, 0.0), -1.0)
    # angles wrap on construction
    assert PoincarePoint(TWO_PI + 0.25, 0.5).phi == pytest.approx(0.25)


def test_model_params_validation():
    with pytest.raises(ParameterDomainError):
        ModelParams(n=0, alpha=1.0, R=10.0)
    with pytest.raises(ParameterDomainError):
        ModelParams(n=10, alpha=0.0, R=10.0)
    with pytest.raises(ParameterDomainError):
        ModelParams(n=10, alpha=1.0, R=0.0)


# the distance of the mapped value from 1 is ~2e^-r, so the roundtrip error
# is bounded by the float64 spacing near 1 divided by that gap: ~e^r * eps.
# tanh(r/2) saturates to exactly 1.0 (unusable) near r = 37.5
@given(st.floats(0.0, 36.0))
def test_radius_maps_roundtrip(r):
    back = to_native_radius(to_poincare_radius(r))
    assert abs(back - r) <= 2e-16 * math.exp(r) + 1e-9


def test_radius_maps_scalar_vs_array():
    rs = np.array([0.0, 0.5, 3.0, 25.0])
    mapped = to_poincare_radius(rs)
    assert isinstance(mapped, np.ndarray)
    for r, p in zip(rs, mapped):
        scalar = to_poincare_radius(float(r))
        assert isinstance(scalar, float)
        assert scalar == p
    with pytest.raises(ValueError):
        to_native_radius(1.0)
    with pytest.raises(ValueError):
        to_native_radius(np.array([0.2, -0.1]))


def test_distance_frozen_oracle():
    # diametrically opposite points at Euclidean radius 1/2:
    # acosh(1 + 2 / (3/4)^2) = 2 ln 3, worked out by hand
    p = PoincarePoint(0.0, 0.5)
    q = PoincarePoint(math.pi, 0.5)
    assert poincare_distance(p, q) == pytest.approx(2.0 * math.log(3.0), abs=1e-12)


def test_distance_to_origin_is_native_radius():
    origin = PoincarePoint(0.0, 0.0)
    for r in (0.0, 0.1, 0.5, 0.9, 0.999999):
        p = PoincarePoint(1.3, r)
        assert poincare_distance(origin, p) == pytest.approx(
            to_native_radius(r), rel=1e-12
        )


points = st.builds(
    PoincarePoint,
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, 0.999),
)


@given(points, points)
def test_distance_symmetric_nonnegative(p, q):
    d = poincare_distance(p, q)
    assert d >= 0.0
    assert d == poincare_distance(q, p)
    assert poincare_distance(p, p) == 0.0


@given(points, points, points)
@settings(max_examples=200)
def test_distance_triangle_inequality(p, q, r):
    assert poincare_distance(p, r) <= (
        poincare_distance(p, q) + poincare_distance(q, r) + 1e-9
    )


def test_circle_frozen_oracle():
    # center at native radius ln 3 (Poincare 1/2), hyperbolic radius 1: the
    # circle meets the center's ray at tanh((ln3 +- 1)/2), so its Euclidean
    # center and radius are the midpoint and half-gap of those two values
    circ = hyperbolic_circle_to_euclidean(NativePoint(0.7, math.log(3.0)), 1.0)
    assert circ.center.phi == pytest.approx(0.7)
    assert circ.center.r == pytest.approx(0.4154013410082924, abs=1e-15)
    assert circ.radius == pytest.approx(0.3661351138456358, abs=1e-15)


def test_circle_covering_origin_frozen_oracle():
    # radius exceeds the center's distance to the origin, so the disk covers
    # the origin and the inward crossing lands on the opposite ray
    circ = hyperbolic_circle_to_euclidean(NativePoint(1.2, 0.3), 2.0)
    assert circ.center.r == pytest.approx(0.06334230406867858, abs=1e-15)
    assert circ.radius == pytest.approx(0.7544117739016091, abs=1e-15)
    assert circ.radius > circ.center.r


def test_circle_params_vectorized_matches_scalar():
    rs = np.array([0.0, 0.2, 0.7, 0.95])
    c, rad = circle_params(rs, 2.5)
    for i, r in enumerate(rs):
        ci, radi = circle_params(float(r), 2.5)
        assert float(ci) == c[i]
        assert float(radi) == rad[i]


@given(
    st.floats(0.0, 8.0),
    st.floats(0.05, 8.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
@settings(max_examples=300)
def test_circle_boundary_points_at_stated_distance(center_native, rad_h, theta):
    """Points on the transformed circle's rim are at hyperbolic distance
    rad_h from the hyperbolic center."""
    center = NativePoint(0.9, center_native)
    circ = hyperbolic_circle_to_euclidean(center, rad_h)
    cx, cy = circ.center.to_cartesian()
    x = cx + circ.radius * math.cos(theta)
    y = cy + circ.radius * math.sin(theta)
    rim = PoincarePoint(math.atan2(y, x), math.hypot(x, y))
    d = poincare_distance(center.to_poincare(), rim)
    assert d == pytest.approx(rad_h, abs=5e-8)


def test_circle_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        hyperbolic_circle_to_euclidean(NativePoint(0.0, 1.0), 0.0)


@pytest.mark.parametrize(
    "r_poincare, radius",
    [
        (1.5, 2.0),
        (1.0, 2.0),
        (-0.1, 2.0),
        (math.nan, 2.0),
        (np.array([0.2, 1.5]), 2.0),
        (0.5, 0.0),
        (0.5, -1.0),
        (0.5, math.nan),
        (np.array([0.2, 0.3]), np.array([1.0, -1.0])),
    ],
)
def test_circle_params_rejects_out_of_domain(r_poincare, radius):
    with pytest.raises(ParameterDomainError):
        circle_params(r_poincare, radius)


def test_expected_avg_degree_frozen_values():
    # regression pins; the generator-level tests check realized accuracy
    assert expected_avg_degree(10000, 1.0, 14.7417) == pytest.approx(16.0, rel=1e-4)
    assert expected_avg_degree(10000, 3.0, 12.7016) == pytest.approx(16.0, rel=1e-4)


def test_expected_avg_degree_linear_in_n():
    k1 = expected_avg_degree(10_000, 1.0, 15.0)
    k2 = expected_avg_degree(20_000, 1.0, 15.0)
    assert k2 == pytest.approx(2.0 * k1, rel=1e-9)


def test_expected_avg_degree_decreasing_right_of_peak():
    vals = [expected_avg_degree(10_000, 0.75, R) for R in (12.0, 14.0, 17.0, 20.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 2.0])
@pytest.mark.parametrize("kbar", [4.0, 16.0, 64.0])
def test_target_radius_roundtrip(alpha, kbar):
    R = target_radius(50_000, kbar, alpha)
    assert expected_avg_degree(50_000, alpha, R) == pytest.approx(kbar, rel=1e-4)


def test_target_radius_infeasible():
    # the expected-degree curve peaks near 25.6 for n=50, alpha=0.6
    with pytest.raises(InfeasibleParametersError):
        target_radius(50, 40.0, 0.6)


def test_target_radius_domain():
    with pytest.raises(ParameterDomainError):
        target_radius(0, 8.0, 1.0)
    with pytest.raises(ParameterDomainError):
        target_radius(100, -1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        target_radius(100, 8.0, 0.0)


def test_alpha_from_gamma():
    assert alpha_from_gamma(3.0) == pytest.approx(1.0)
    assert alpha_from_gamma(2.2) == pytest.approx(0.6)
    with pytest.raises(ParameterDomainError):
        alpha_from_gamma(2.0)


@given(st.floats(2.01, 10.0))
def test_alpha_gamma_roundtrip(gamma):
    assert 2.0 * alpha_from_gamma(gamma) + 1.0 == pytest.approx(gamma, rel=1e-12)
