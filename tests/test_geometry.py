import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrgen import (
    InfeasibleParametersError,
    OutOfBoundsError,
    ParameterDomainError,
    alpha_from_gamma,
    expected_avg_degree,
    poincare_image,
    target_radius,
    to_poincare_radius,
)
from hrgen.geometry import TWO_PI, circle_params

from helpers import poincare_distance


# the distance of the mapped value from 1 is ~2e^-r, so the roundtrip error
# is bounded by the float64 spacing near 1 divided by that gap: ~e^r * eps.
# tanh(r/2) saturates to exactly 1.0 (unusable) near r = 37.5
@given(st.floats(0.0, 36.0))
def test_radius_maps_roundtrip(r):
    back = 2.0 * math.atanh(to_poincare_radius(r))
    assert abs(back - r) <= 2e-16 * math.exp(r) + 1e-9


def test_radius_maps_scalar_vs_array():
    rs = np.array([0.0, 0.5, 3.0, 25.0])
    mapped = to_poincare_radius(rs)
    assert isinstance(mapped, np.ndarray)
    for r, p in zip(rs, mapped):
        scalar = to_poincare_radius(float(r))
        assert isinstance(scalar, float)
        assert scalar == p


@pytest.mark.parametrize("radius", [4.0, 21.5, 37.9])
def test_poincare_image_keeps_rim_points_inside_and_their_weights(radius):
    # tanh(r/2) of a point a few ulps inside the rim rounds to the rim
    # tanh(R/2); the image stays one float below it
    rim = to_poincare_radius(radius)
    at_rim = np.nextafter(radius, 0.0) - np.arange(4) * 1e-15 * radius
    r_native = np.concatenate(([0.0, 1.0, radius / 2.0], at_rim))
    r, b = poincare_image(r_native, radius)
    tanh = to_poincare_radius(r_native)
    on_rim = tanh == rim
    assert on_rim[3] and not on_rim[:3].any()
    assert np.all(r[on_rim] == np.nextafter(rim, 0.0))
    assert np.array_equal(r[~on_rim], tanh[~on_rim])
    # the weight sech^2(r/2) keeps its digits where 1 - |p|^2 has none left
    sech = 2.0 / (np.exp(r_native / 2.0) + np.exp(-r_native / 2.0))
    assert b == pytest.approx(sech**2, rel=1e-14)
    assert b[0] == 1.0 and np.all(b > 0.0)


def test_poincare_image_domain():
    for r_native in ([-0.1], [4.0], [5.0], [math.nan], [1.0, math.inf]):
        with pytest.raises(OutOfBoundsError):
            poincare_image(np.array(r_native), 4.0)
    for radius in (0.0, -1.0, math.nan, 38.0):
        with pytest.raises(ParameterDomainError):
            poincare_image(np.array([0.0]), radius)
    r, b = poincare_image(np.empty(0), 4.0)
    assert r.size == b.size == 0


def test_distance_frozen_oracle():
    # diametrically opposite points at Euclidean radius 1/2:
    # acosh(1 + 2 / (3/4)^2) = 2 ln 3, worked out by hand
    d = poincare_distance(0.5, 0.0, 0.5 * math.cos(math.pi), 0.5 * math.sin(math.pi))
    assert d == pytest.approx(2.0 * math.log(3.0), abs=1e-12)


def test_distance_to_origin_is_native_radius():
    for r in (0.0, 0.1, 0.5, 0.9, 0.999999):
        d = poincare_distance(0.0, 0.0, r * math.cos(1.3), r * math.sin(1.3))
        assert d == pytest.approx(2.0 * math.atanh(r), rel=1e-12)


def _cartesian(phi_r):
    phi, r = phi_r
    return r * math.cos(phi), r * math.sin(phi)


points = st.tuples(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, 0.999),
).map(_cartesian)


@given(points, points)
def test_distance_symmetric_nonnegative(p, q):
    d = poincare_distance(*p, *q)
    assert d >= 0.0
    assert d == poincare_distance(*q, *p)
    assert poincare_distance(*p, *p) == 0.0


@given(points, points, points)
@settings(max_examples=200)
def test_distance_triangle_inequality(p, q, r):
    assert poincare_distance(*p, *r) <= (
        poincare_distance(*p, *q) + poincare_distance(*q, *r) + 1e-9
    )


def test_circle_frozen_oracle():
    # center at native radius ln 3 (Poincare 1/2), hyperbolic radius 1: the
    # circle meets the center's ray at tanh((ln3 +- 1)/2), so its Euclidean
    # center and radius are the midpoint and half-gap of those two values
    c, rad = circle_params(to_poincare_radius(math.log(3.0)), 1.0)
    assert c == pytest.approx(0.4154013410082924, abs=1e-15)
    assert rad == pytest.approx(0.3661351138456358, abs=1e-15)


def test_circle_covering_origin_frozen_oracle():
    # radius exceeds the center's distance to the origin, so the disk covers
    # the origin and the inward crossing lands on the opposite ray
    c, rad = circle_params(to_poincare_radius(0.3), 2.0)
    assert c == pytest.approx(0.06334230406867858, abs=1e-15)
    assert rad == pytest.approx(0.7544117739016091, abs=1e-15)
    assert rad > c


def test_circle_params_vectorized_matches_scalar():
    rs = np.array([0.0, 0.2, 0.7, 0.95])
    c, rad = circle_params(rs, 2.5)
    for i, r in enumerate(rs):
        ci, radi = circle_params(float(r), 2.5)
        assert float(ci) == c[i]
        assert float(radi) == rad[i]


@pytest.mark.parametrize("radius", [1e-6, 0.01, 1.0, 10.0])
def test_circle_params_near_the_rim(radius):
    # at 0.99701... and radius 1e-6 a discriminant for the radius cancelled
    # to -1.1e-16
    rs = np.array([0.0, 0.5, 0.9970102930724918, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15])
    c, rad = circle_params(rs, radius)
    assert np.all(np.isfinite(rad) & (rad >= 0.0))
    assert np.all(np.isfinite(c) & (c >= 0.0))


@given(
    st.floats(0.0, 8.0),
    st.floats(0.05, 8.0),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
@settings(max_examples=300)
def test_circle_boundary_points_at_stated_distance(center_native, rad_h, theta):
    """Points on the transformed circle's rim are at hyperbolic distance
    rad_h from the hyperbolic center."""
    phi = 0.9
    r_center = to_poincare_radius(center_native)
    c, rad = circle_params(r_center, rad_h)
    # the Euclidean center keeps the hyperbolic center's angle
    x = c * math.cos(phi) + rad * math.cos(theta)
    y = c * math.sin(phi) + rad * math.sin(theta)
    d = poincare_distance(r_center * math.cos(phi), r_center * math.sin(phi), x, y)
    assert d == pytest.approx(rad_h, abs=5e-8)


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
