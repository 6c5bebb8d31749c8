import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentray import pekeris as pk
from tangentray import quadrature
from tangentray.contours import ContourPath, DecayModel, Line, Ray, named_contour, truncate
from tangentray.quadrature import (_WG, _WK, _XK, FLOOR_FACTOR, ROUNDOFF, QuadOptions,
                                   QuadratureError, _initial_panels, _nodes, _segment_table,
                                   integrate, integrate_batch, integrate_exp_batch,
                                   integrate_lockstep)

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
    # the error of a zero integral is the tails of the two rays truncate cut
    tail = TIGHT.truncation_tail_tol
    res = integrate(lambda t: np.zeros_like(t), gamma0_truncated(tail), TIGHT)
    assert res.value == 0.0
    assert res.error_estimate == 2 * tail


def test_cut_tails_move_no_value():
    # the driver adds the cut tails after acceptance: the value and the work
    # are those of the same lines without the record of the cut
    tail = TIGHT.truncation_tail_tol
    path = gamma0_truncated(tail)
    f = lambda t: np.exp(1j * t ** 3 / 3)
    cut = integrate(f, path, TIGHT)
    bare = integrate(f, ContourPath(path.segments), TIGHT)
    assert cut.value == bare.value and cut.evaluations == bare.evaluations
    assert cut.error_estimate == bare.error_estimate + 2 * tail


def test_reversal_negates():
    path = gamma0_truncated()
    f = lambda t: np.exp(1j * t ** 3 / 3 - 0.1 * t)
    a = integrate(f, path, TIGHT).value
    back = ContourPath(tuple(Line(s.end, s.start) for s in reversed(path.segments)))
    b = integrate(f, back, TIGHT).value
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


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf])
def test_nonfinite_tolerances_rejected(rel_tol):
    with pytest.raises(ValueError):
        QuadOptions(rel_tol=rel_tol)
    with pytest.raises(ValueError):
        QuadOptions(abs_tol=rel_tol)
    with pytest.raises(ValueError):
        QuadOptions(truncation_tail_tol=rel_tol)


def test_untruncated_path_rejected():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda t: t, named_contour("l3"), TIGHT)
    assert exc.value.reason == "untruncated"


def test_nonfinite_sample_rejected():
    path = ContourPath((Line(-1.0, 1.0),))
    with pytest.raises(QuadratureError) as exc, np.errstate(divide="ignore", invalid="ignore"):
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
    # the batch driver raises the same stall with the same best result
    with pytest.raises(QuadratureError) as batch:
        integrate_batch(f, path, opts)
    assert batch.value.reason == "stalled" and batch.value.result == best


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


def test_wide_rounds_are_evaluated_in_blocks(monkeypatch):
    # a batch's calls are bounded in nodes, whatever its member count, and
    # cut at panel ends; a node's value does not depend on its call, so the
    # sums, taken over each whole round, are those of one call per round
    path = gamma0_truncated()
    coeffs = np.linspace(-1.0, 1.0, 7) + 0.3j
    sizes = []

    def fmat(t):
        sizes.append(t.size)
        return np.exp(1j * t[None, :] ** 3 / 3 + coeffs[:, None] * t[None, :] / 5)

    ref, ref_errs, ref_evals = integrate_batch(fmat, path, TIGHT)
    budget = 15 * 4                    # four panels per call
    assert max(sizes) > budget
    sizes.clear()
    monkeypatch.setattr(quadrature, "CALL_ELEMENTS", budget)
    vals, errs, evals = integrate_batch(fmat, path, TIGHT)
    assert max(sizes) <= budget and all(n % 15 == 0 for n in sizes)
    assert sum(sizes) == evals == ref_evals
    assert np.array_equal(vals, ref) and np.array_equal(errs, ref_errs)
    # calls of one round that disagree on the member count are a shape error
    sizes.clear()

    def growing(t):
        sizes.append(t.size)
        return np.ones((len(sizes), t.size))

    with pytest.raises(QuadratureError) as exc:
        integrate_batch(growing, path, TIGHT)
    assert exc.value.reason == "shape" and "one round" in str(exc.value)


def _panel_loop_reference(path, f):
    """K15 sum and defect sum over the starting panels, one panel at a time."""
    total, defect = 0.0, 0.0
    table = _segment_table(path)
    for j, u0, u1 in zip(*_initial_panels(path)):
        s = path.segments[j]
        um, uh = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
        u = um + uh * _XK
        z = s.start + u * (s.end - s.start)
        jac = np.full(u.shape, (s.end - s.start) * uh)
        zv, jv = _nodes(table, np.array([j]), np.array([u0]), np.array([u1]))
        assert np.array_equal(zv, z) and np.array_equal(np.broadcast_to(jv[0], jac.shape), jac)
        g = f(z) * jac
        k15 = np.sum(_WK * g)
        total += k15
        defect += abs(k15 - np.sum(_WG * g[1::2]))
    return total, defect


def test_vectorised_panels_match_panel_loop():
    path = ContourPath((Line(-2.0 - 1.0j, 0.0), Line(0.0, 2.0 + 1.0j),
                        Line(2.0 + 1.0j, 2.0 + 3.0j)))
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


# member 0 converges; member 1 oscillates too fast for the 40-panel cap and
# ends with an error of about 1.2e-2.  Member 1's term c (t - 8) integrates
# to 0 but lifts the sum of its panels' |K15| to 64 c (8 stays a panel end,
# so no panel straddles the sign change): its roundoff floor is ROUNDOFF 64 c
_CAPPED_PATH = ContourPath((Line(0.0, 16.0),))
_CAPPED_OPTS = QuadOptions(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=40)


def _capped_pair(c):
    return lambda t: np.stack((np.exp(1j * t), np.exp(1j * 60 * t) + c * (t - 8.0)))


def test_capped_member_within_floor_factor_is_accepted():
    c = 1e9
    floor = ROUNDOFF * 64 * c
    # member 1 misses its target but ends within FLOOR_FACTOR x its floor,
    # so the batch returns instead of raising
    vals, errs, _ = integrate_batch(_capped_pair(c), _CAPPED_PATH, _CAPPED_OPTS)
    assert errs[1] > 100 * max(_CAPPED_OPTS.abs_tol, floor, _CAPPED_OPTS.rel_tol * abs(vals[1]))
    assert errs[1] <= 0.5 * FLOOR_FACTOR * floor


def test_capped_member_above_floor_factor_stalls():
    c = 1e7
    with pytest.raises(QuadratureError) as exc:
        integrate_batch(_capped_pair(c), _CAPPED_PATH, _CAPPED_OPTS)
    assert exc.value.reason == "stalled"
    # member 0 converges; member 1 ends above FLOOR_FACTOR x its floor
    assert "member 1" in str(exc.value)
    best = exc.value.result
    assert best.error_estimate > 2.0 * FLOOR_FACTOR * ROUNDOFF * 64 * c
    assert np.isfinite(best.value) and best.evaluations > 0


def test_cancelling_integral_is_accepted_at_its_roundoff_floor():
    # 1e6 sin t over four whole periods: the value is roundoff of the 1e6
    # terms, so no error sum reaches abs_tol=1e-300; the floor the driver
    # measures from its panel sums, at most ROUNDOFF x 1.6e7 (the integral of
    # |f|), accepts it, and the reported error is the defect plus the floor
    path = ContourPath((Line(0.0, 8.0 * math.pi),))
    opts = QuadOptions(rel_tol=1e-12, abs_tol=1e-300)
    res = integrate(lambda t: 1e6 * np.sin(t), path, opts)
    assert abs(res.value) <= res.error_estimate
    assert 0.0 < res.error_estimate <= 2.0 * ROUNDOFF * 1.6e7


# ---------------------------------------------------------------------------
# exponential families: integrate_exp_batch against the node integrand
# ---------------------------------------------------------------------------

def _caret_families(count: int):
    """(factor, a, b, path) of a reciprocal-Airy L batch and an l2 arm batch
    with ``count`` members each, on their ladder paths."""
    ts = 3.0 * np.exp(1j * np.linspace(2.3, 2.9, count))
    l_rates = pk._ray_rates(ts, pk.L_OFFSETS)
    l_contour, l_scale = pk._l_contour(pk.DIRICHLET)
    l_path, _ = pk._ray_path(l_contour, l_rates + pk.L_TAIL_RATE, l_scale, 1e-12)
    shifts = np.maximum(0.0, pk.caret_lit_log_asymptotic(ts, pk.NEUMANN).real)
    beta2, _, _ = pk._forked_angles(complex(ts[0]))
    arm_rates = pk._ray_rates(ts, beta2, pk.ARM_TURN)
    arm_path, _ = pk._ray_path(ContourPath((Ray(0.0, beta2, inward=False),)), arm_rates,
                               pk.ARM_TAIL_SCALE, 1e-12)
    return [
        (lambda z: pk._reciprocal_weight(z, pk.DIRICHLET), pk.EMIP6 * ts, 0.0, l_path),
        (lambda z: pk.ratio_l2_parts(z, pk.NEUMANN), 1j * ts, -shifts, arm_path),
    ]


def _node_integrand(factor, a, b):
    b = np.broadcast_to(b, a.shape)

    def fmat(z):
        w, expo = factor(z)
        return w[None, :] * np.exp(np.outer(a, z) + expo[None, :] + b[:, None])

    return fmat


@pytest.mark.parametrize("count", [1, 24])
def test_exp_batch_matches_node_integrand(count):
    for factor, a, b, path in _caret_families(count):
        vals, errs, evals = integrate_exp_batch(factor, a, b, path, QuadOptions())
        ref, ref_errs, ref_evals = integrate_batch(_node_integrand(factor, a, b), path,
                                                   QuadOptions())
        assert evals > 15 * _initial_panels(path)[0].size   # refined
        assert np.all(np.abs(vals - ref) <= errs + ref_errs)
        if count == 1:
            # one member takes the node integrand's own arithmetic
            assert vals[0] == ref[0] and errs[0] == ref_errs[0] and evals == ref_evals


def test_exp_kernel_width_groups_match_node_integrand():
    # panels of three widths on the first segment and two on the second (of
    # L; the arm has one), in mixed order: each width group takes its own
    # shared exponentials and its own matrix product, and every panel's K15
    # value and defect are those of the node integrand
    u0 = np.array([0.0, 0.0, 0.25, 0.5, 0.5, 0.625, 0.75])
    u1 = np.array([0.25, 0.5, 0.5, 0.625, 0.75, 0.6875, 1.0])
    for factor, a, b, path in _caret_families(24):
        seg = np.minimum([0, 1, 0, 0, 1, 0, 1], len(path.segments) - 1)
        table = _segment_table(path)
        k15, defect = quadrature._evaluate_exp(factor, a, np.reshape(b, (-1, 1)), table, seg,
                                               u0, u1)
        nodes, jac = _nodes(table, seg, u0, u1)
        ref, ref_defect = quadrature._sums(_node_integrand(factor, a, b)(nodes), nodes, jac,
                                           a.size, None)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(k15 - ref) <= 1e-13 * scale)
        assert np.all(np.abs(defect - ref_defect) <= 1e-13 * scale)


def test_exp_batch_one_factor_call_per_round():
    factor, a, b, path = _caret_families(24)[1]
    calls, node_calls = [], []

    def counted(z):
        calls.append(z.size)
        return factor(z)

    def node_counted(z):
        node_calls.append(z.size)
        return _node_integrand(factor, a, b)(z)

    _, _, evals = integrate_exp_batch(counted, a, b, path, QuadOptions())
    integrate_batch(node_counted, path, QuadOptions())
    assert sum(calls) == evals
    # one call per round, as the node driver
    assert len(calls) == len(node_calls) >= 3
    assert max(calls) > 15


def test_exp_batch_blocks(monkeypatch):
    factor, a, b, path = _caret_families(24)[1]
    sizes = []

    def counted(z):
        sizes.append(a.size * z.size)
        return factor(z)

    ref, ref_errs, ref_evals = integrate_exp_batch(counted, a, b, path, QuadOptions())
    budget = a.size * 15 * 3           # three panels per call
    assert max(sizes) > budget
    sizes.clear()
    monkeypatch.setattr(quadrature, "CALL_ELEMENTS", budget)
    vals, errs, evals = integrate_exp_batch(counted, a, b, path, QuadOptions())
    assert max(sizes) <= budget
    assert evals == ref_evals
    assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref))
    assert np.all(np.abs(errs - ref_errs) <= 1e-14 * np.abs(ref))


def test_exp_batch_splits_members_beyond_call_elements(monkeypatch):
    # a family wider than CALL_ELEMENTS / 15 members is split by members as
    # well as by panels, so no kernel call holds more members x nodes
    budget = 15 * 10                   # one panel of at most ten members per call
    kernel = quadrature._evaluate_exp
    sizes = []

    def counted(factor, a, b, table, seg, *rest):
        sizes.append(a.size * 15 * seg.size)
        return kernel(factor, a, b, table, seg, *rest)

    for factor, a, b, path in _caret_families(24):
        ref, ref_errs, ref_evals = integrate_exp_batch(factor, a, b, path, QuadOptions())
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(quadrature, "CALL_ELEMENTS", budget)
            m.setattr(quadrature, "_evaluate_exp", counted)
            vals, errs, evals = integrate_exp_batch(factor, a, b, path, QuadOptions())
        assert sizes and max(sizes) <= budget
        assert evals == ref_evals
        assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref))
        assert np.all(np.abs(errs - ref_errs) <= 1e-14 * np.abs(ref))


def test_exp_batch_rejects_nonfinite_factor():
    path = ContourPath((Line(-1.0, 1.0),))
    a = np.linspace(0.0, 1.0, 5) + 0.5j

    def pole(z):       # a pole on the path
        return 1.0 / (z - 0.25), np.zeros(z.shape)

    def overflow(z):   # finite w, exponent beyond the double range at the midpoints
        return np.ones(z.shape, dtype=complex), np.full(z.shape, 800.0)

    for factor in (pole, overflow):
        for members in (a[:1], a):
            with pytest.raises(QuadratureError) as exc, \
                    np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                integrate_exp_batch(factor, members, 0.0, path, TIGHT)
            assert exc.value.reason == "nonfinite"
            assert "t = " in str(exc.value)


def test_lockstep_legs_are_per_leg_runs():
    # legs of unequal depth, one on a two-line path: each result is that of
    # integrate on its own, and each joint call holds every unfinished leg
    paths = [ContourPath((Line(0.0, 3.0),)), ContourPath((Line(-1.0, 1j), Line(1j, 4.0))),
             ContourPath((Line(0.0, 30.0),))]
    fs = [lambda t: np.exp(-t * t), lambda t: np.cos(5.0 * t), lambda t: np.exp(1j * 40 * t)]
    calls = []

    def fjoint(legs, nodes):
        calls.append(list(legs))
        return [fs[k](z) for k, z in zip(legs, nodes)]

    got = integrate_lockstep(fjoint, paths, TIGHT)
    assert got == [integrate(f, p, TIGHT) for f, p in zip(fs, paths)]
    assert got[2].rounds > got[0].rounds
    assert calls == [[k for k, res in enumerate(got) if res.rounds >= r]
                     for r in range(max(res.rounds for res in got) + 1)]


def test_lockstep_raises_the_first_legs_failure():
    # leg 0 stalls after its rounds, leg 1 returns nan in round 0: the
    # per-leg loop raises leg 0's stall, and so does the lockstep, whichever
    # leg stops first; alone, leg 1 raises its own failure
    paths = [ContourPath((Line(0.0, 30.0),)), ContourPath((Line(-1.0, 1.0),))]
    opts = QuadOptions(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    fs = [lambda t: np.exp(1j * 40 * t), lambda t: np.full(t.shape, np.nan)]

    def fjoint(legs, nodes):
        return [fs[k](z) for k, z in zip(legs, nodes)]

    for legs in ([0, 1], [1, 0], [1]):
        with pytest.raises(QuadratureError) as ref:
            for k in legs:
                integrate(fs[k], paths[k], opts)
        with pytest.raises(QuadratureError) as got:
            integrate_lockstep(lambda ks, nodes: fjoint([legs[k] for k in ks], nodes),
                               [paths[k] for k in legs], opts)
        assert (got.value.reason, str(got.value), got.value.result) == \
            (ref.value.reason, str(ref.value), ref.value.result)
