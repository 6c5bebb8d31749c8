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


def test_truncate_monotone_in_tolerance():
    model = DecayModel("power_three_halves", 4.0 / 3.0)
    radii = [truncate(named_contour("L"), model, tol).truncation_radius
             for tol in (1e-6, 1e-8, 1e-10, 1e-12)]
    assert all(np.isfinite(radii))
    assert all(b >= a for a, b in zip(radii, radii[1:]))


def test_truncate_respects_min_radius():
    model = DecayModel("cubic_exp", 1.0, min_radius=17.0)
    path = truncate(named_contour("l3"), model, 1e-6)
    assert path.truncation_radius >= 17.0


def test_decay_model_validation():
    with pytest.raises(ContourError):
        DecayModel("cubic_exp", -1.0)
    with pytest.raises(ContourError):
        DecayModel("weird", 1.0)
