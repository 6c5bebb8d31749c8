import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentray.contours import Arc, ContourPath, DecayModel, Line, named_contour, truncate
from tangentray.quadrature import (_WG, _WK, _XK, QuadOptions, QuadratureError, _initial_panels,
                                   _nodes, _segment_table, integrate, integrate_batch)

from _oracles import AI0

TIGHT = QuadOptions(rel_tol=1e-12, abs_tol=1e-15)


def gamma0_truncated(tail=1e-14, clearance=1.0):
    return truncate(named_contour("Gamma0", clearance),
                    DecayModel("cubic_exp", 1.0 / 6.0), tail)


def test_airy_representation_integral():
    # (1/2pi) int_{Gamma_0} e^{i t^3/3} dt = Ai(0), gamma-constant oracle
    res = integrate(lambda t: np.exp(1j * t ** 3 / 3) / (2 * np.pi),
                    gamma0_truncated(), TIGHT)
    assert res.value == pytest.approx(AI0, abs=5e-13)
    assert abs(res.value - 0.3550280539) < 1e-9
    assert res.error_estimate < 1e-11
    assert res.evaluations > 0 and res.truncation_radius > 0


def test_zero_integrand():
    res = integrate(lambda t: np.zeros_like(t), gamma0_truncated(), TIGHT)
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_reversal_negates():
    path = gamma0_truncated()
    f = lambda t: np.exp(1j * t ** 3 / 3 - 0.1 * t)
    a = integrate(f, path, TIGHT).value
    b = integrate(f, path.reversed(), TIGHT).value
    assert abs(a + b) <= 1e-14 * max(1.0, abs(a))


def test_homotopic_truncations_agree():
    f = lambda t: np.exp(1j * t ** 3 / 3) * np.cos(t / 3.0)
    r1 = integrate(f, gamma0_truncated(clearance=1.0), TIGHT)
    r2 = integrate(f, truncate(
        ContourPath(named_contour("Gamma0", 2.5).segments),
        DecayModel("cubic_exp", 1.0 / 6.0), 1e-13), TIGHT)
    assert abs(r1.value - r2.value) <= r1.error_estimate + r2.error_estimate + 2e-13


@settings(max_examples=12, deadline=None)
@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_linearity(alpha, beta):
    path = ContourPath((Line(-1.0, 1.0 + 0.5j),))
    f = lambda t: np.exp(1j * t)
    g = lambda t: t * t
    lhs = integrate(lambda t: alpha * f(t) + beta * g(t), path, TIGHT).value
    rhs = alpha * integrate(f, path, TIGHT).value + beta * integrate(g, path, TIGHT).value
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_truncation_soundness():
    f = lambda t: np.exp(1j * t ** 3 / 3)
    base = gamma0_truncated(tail=1e-10)
    R = base.truncation_radius
    doubled = truncate(named_contour("Gamma0"),
                       DecayModel("cubic_exp", 1.0 / 6.0, min_radius=2 * R), 1e-10)
    a = integrate(f, base, TIGHT).value
    b = integrate(f, doubled, TIGHT).value
    assert abs(a - b) < 1e-10


def test_untruncated_path_rejected():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: t, named_contour("l3"), TIGHT)
    assert exc.value.reason == "untruncated"


def test_nonfinite_sample_rejected():
    path = ContourPath((Line(-1.0, 1.0),))
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: 1.0 / (t - 0.25), path, TIGHT)  # pole on the path
    assert exc.value.reason == "nonfinite"
    assert exc.value.result is None


def test_wrong_shape_rejected():
    path = ContourPath((Line(-1.0, 1.0),))
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: np.ones(3), path, TIGHT)
    assert exc.value.reason == "shape"
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: np.ones((2, t.size)), path, TIGHT)
    assert exc.value.reason == "shape"


def test_failure_carries_best_result():
    path = ContourPath((Line(0.0, 30.0),))
    opts = QuadOptions(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: np.exp(1j * 40 * t), path, opts)
    assert exc.value.result is not None
    assert np.isfinite(exc.value.result.error_estimate)


def test_stall_is_typed_with_finite_best_result():
    # 8 starting panels against a cap of 40: the oscillation needs far more
    path = ContourPath((Line(0.0, 16.0),))
    f = lambda t: np.exp(1j * 60 * t)
    cap = 40
    opts = QuadOptions(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=cap)
    with pytest.raises(QuadratureError) as exc:
        integrate(f, path, opts)
    best = exc.value.result
    assert exc.value.reason == "stalled"
    assert best.rounds >= 1
    assert np.isfinite(best.value) and np.isfinite(best.error_estimate)
    assert best.error_estimate > 0.0
    # no round starts at or above the cap, so the panel count ends in
    # [cap, 2 cap); every split adds one panel and evaluates two
    final_panels = (best.evaluations // 15 + 8) // 2
    assert cap <= final_panels < 2 * cap
    # strict=False hands back the same best values instead of raising
    vals, errs, evals = integrate_batch(f, path, opts, strict=False)
    assert vals[0] == best.value and errs[0] == best.error_estimate
    assert evals == best.evaluations


def test_integrate_is_member_zero_of_batch():
    f = lambda t: np.exp(1j * t ** 3 / 3) / (1.0 + t * t)
    path = gamma0_truncated()
    res = integrate(f, path, TIGHT)
    for fmat in (lambda t: f(t)[None, :], lambda t: np.stack((f(t), f(t)))):
        vals, errs, evals = integrate_batch(fmat, path, TIGHT)
        assert vals[0] == res.value
        assert errs[0] == res.error_estimate
        assert evals == res.evaluations


def test_one_integrand_call_per_round():
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(1j * t ** 3 / 3) / (1.0 + t * t)

    res = integrate(f, gamma0_truncated(), TIGHT)
    assert res.rounds >= 2
    assert len(calls) <= res.rounds + 1
    assert sum(calls) == res.evaluations
    assert max(calls) > 15  # rounds pool many panels into one call


def _panel_loop_reference(path, f):
    """K15 sum and defect sum over the starting panels, one panel at a time."""
    total, defect = 0.0, 0.0
    table = _segment_table(path)
    for j, u0, u1 in zip(*_initial_panels(path)):
        s = path.segments[j]
        um, uh = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
        u = um + uh * _XK
        if isinstance(s, Line):
            z = s.start + u * (s.end - s.start)
            jac = np.full(u.shape, (s.end - s.start) * uh)
        else:
            ang = s.angle_from + u * (s.angle_to - s.angle_from)
            z = s.center + s.radius * np.exp(1j * ang)
            jac = 1j * s.radius * np.exp(1j * ang) * (s.angle_to - s.angle_from) * uh
        zv, jv = _nodes(table, np.array([j]), np.array([u0]), np.array([u1]))
        assert np.array_equal(zv[0], z) and np.array_equal(jv[0], jac)
        g = f(z) * jac
        k15 = np.sum(_WK * g)
        total += k15
        defect += abs(k15 - np.sum(_WG * g[1::2]))
    return total, defect


def test_vectorised_panels_match_panel_loop():
    path = ContourPath((Line(-2.0 - 1.0j, 0.0), Arc(1.0, 1.0, math.pi, 0.0),
                        Line(2.0, 2.0 + 3.0j)))
    f = lambda t: np.exp(1j * t) / (3.0 + t * t)
    # a loose rule accepts the starting panels, so the driver's sums are
    # those of the reference loop up to summation order
    opts = QuadOptions(rel_tol=1.0, abs_tol=1.0)
    res = integrate(f, path, opts)
    assert res.rounds == 0
    total, defect = _panel_loop_reference(path, f)
    tol = 1e-15 * _initial_panels(path)[0].size
    assert abs(res.value - total) <= tol
    assert abs(res.error_estimate - defect) <= tol


def test_batch_matches_scalar():
    path = gamma0_truncated()
    coeffs = np.array([0.3, 1.0 + 0.2j, -0.7j])

    def fmat(t):
        return np.exp(1j * t[None, :] ** 3 / 3) * np.exp(coeffs[:, None] * t[None, :] / 5)

    vals, errs, _ = integrate_batch(fmat, path, TIGHT)
    for c, v in zip(coeffs, vals):
        ref = integrate(lambda t: np.exp(1j * t ** 3 / 3 + c * t / 5), path, TIGHT).value
        assert abs(v - ref) < 1e-11
