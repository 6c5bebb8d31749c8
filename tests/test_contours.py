import math

import numpy as np
import pytest

from tangentray.contours import (ContourError, ContourPath, DecayModel, Line,
                                 Ray, named_contour, path_point_distance, truncate)

from _oracles import bisect_airy_zero


def test_l3_is_single_outward_ray():
    p = named_contour("l3")
    assert len(p.segments) == 1
    seg = p.segments[0]
    assert isinstance(seg, Ray) and not seg.inward
    assert seg.origin == 0.0 and seg.angle == 0.0


def test_l1_l2_ray_angles():
    assert named_contour("l1").segments[0].angle == pytest.approx(-2 * math.pi / 3)
    assert named_contour("l2").segments[0].angle == pytest.approx(2 * math.pi / 3)


def test_gamma_passes_below_the_poles():
    # pole radii = |zeros of Ai| on the line arg sigma = pi/3 (bisection oracle)
    eta0 = bisect_airy_zero(-3.0, -2.0)
    eta1 = bisect_airy_zero(-4.5, -3.5)
    assert eta0 == pytest.approx(-2.3381074105, abs=1e-9)
    assert eta1 == pytest.approx(-4.0879494441, abs=1e-9)
    p = named_contour("gamma", 0.5)
    for r in (abs(eta0), abs(eta1)):
        pole = r * np.exp(1j * math.pi / 3)
        assert path_point_distance(p, pole) > 1.5


def test_gamma_j_angles():
    for j in range(3):
        p = named_contour(f"Gamma{j}")
        a_in = p.segments[0].angle
        a_out = p.segments[-1].angle
        want_in = math.remainder((4 * j + 5) * math.pi / 6, 2 * math.pi)
        want_out = math.remainder((4 * j + 1) * math.pi / 6, 2 * math.pi)
        assert a_in == pytest.approx(want_in)
        assert a_out == pytest.approx(want_out)


def test_named_contour_errors():
    with pytest.raises(ContourError):
        named_contour("nope")
    with pytest.raises(ContourError):
        named_contour("gamma", clearance=-1.0)


def test_path_validation():
    with pytest.raises(ContourError):
        ContourPath((Line(0, 1), Line(2, 3)))  # disconnected
    with pytest.raises(ContourError):
        ContourPath((Line(0, 1), Ray(1.0, 0.0, inward=True)))  # inward not first


def test_truncate_cubic_tail_bound():
    # R must satisfy scale * int_R^inf e^{-c w^3} dw <= tail_tol
    model = DecayModel("cubic_exp", 1.0 / 6.0, scale=1.0)
    path = truncate(named_contour("Gamma0"), model, 1e-12)
    R = path.truncation_radius
    w = np.linspace(R, R + 6.0, 20001)
    tail = np.trapezoid(np.exp(-w ** 3 / 6.0), w)
    assert tail <= 1e-12


def test_tail_bound_with_growth_rate():
    # scale e^{rate w - c w^{3/2}}: inf up to its peak at w = (rate/(c p))^2 = 9,
    # and past it at least the integral of the tail
    model = DecayModel("power_three_halves", 4.0 / 3.0, scale=2.0, rate=6.0)
    assert model.tail_bound(4.0) == math.inf and model.tail_bound(9.0) == math.inf
    for r in (9.5, 12.0, 20.0, 30.0):
        w = np.linspace(r, r + 40.0, 400001)
        tail = 2.0 * np.trapezoid(np.exp(6.0 * w - (4.0 / 3.0) * w ** 1.5), w)
        assert tail <= model.tail_bound(r) <= 4.0 * tail


def _assert_on_ladder(model, tol, radius):
    # the radius is a rung 2^(k/4), and the rung below it is under
    # min_radius, fails the tail bound or is below the first rung 1
    k = round(4.0 * math.log2(radius))
    assert radius == 2.0 ** (k / 4.0)
    below = 2.0 ** ((k - 1) / 4.0)
    assert k == 0 or below < model.min_radius or model.tail_bound(below) > tol


LADDER_MODELS = [DecayModel("power_three_halves", 4.0 / 3.0),
                 DecayModel("cubic_exp", 1.0 / 6.0, scale=3.0),
                 DecayModel("cubic_exp", 1.0 / 8.0, scale=0.2, min_radius=1.3),
                 DecayModel("power_three_halves", 1.0 / 3.0, scale=20.0, min_radius=2.9),
                 DecayModel("power_three_halves", 4.0 / 3.0, scale=50.0, rate=6.0)]


def test_truncate_monotone_in_tolerance():
    tols = (1e-6, 1e-8, 1e-10, 1e-12)
    for model in LADDER_MODELS:
        radii = [truncate(named_contour("L"), model, tol).truncation_radius for tol in tols]
        assert all(np.isfinite(radii))
        assert all(b >= a for a, b in zip(radii, radii[1:]))
        for tol, radius in zip(tols, radii):
            assert model.tail_bound(radius) <= tol
            _assert_on_ladder(model, tol, radius)


def test_truncate_respects_min_radius():
    cases = [(DecayModel("cubic_exp", 1.0, min_radius=17.0), 1e-6),
             (DecayModel("cubic_exp", 1.0 / 8.0, scale=5.0, min_radius=3.0), 1e-12),
             (DecayModel("power_three_halves", 0.5, scale=10.0, min_radius=40.0), 1e-12),
             (DecayModel("power_three_halves", 2.0 / 3.0, min_radius=0.5), 1e-3)]
    for model, tol in cases:
        path = truncate(named_contour("l3"), model, tol)
        assert path.truncation_radius >= model.min_radius
        _assert_on_ladder(model, tol, path.truncation_radius)


def test_decay_model_validation():
    with pytest.raises(ContourError):
        DecayModel("cubic_exp", -1.0)
    with pytest.raises(ContourError):
        DecayModel("weird", 1.0)
    # a non-finite parameter would give a NaN tail bound, or a radius from
    # an infinite scale, instead of a cut
    for field in ("c", "scale", "rate", "min_radius"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ContourError):
                DecayModel("power_three_halves", **{"c": 1.0, field: bad})
    for bad in (math.nan, math.inf):
        with pytest.raises(ContourError):
            DecayModel("power_three_halves", 1.0).radius_for(bad)
