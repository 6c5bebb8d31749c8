import dataclasses
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tangentray import airy, fock, quadrature
from tangentray import matching as mt
from tangentray import pekeris as pk
from tangentray.contours import ContourPath, DecayModel, Ray, truncate
from tangentray.quadrature import QuadOptions, QuadratureError, QuadResult, integrate

D = fock.ProblemConfig(pk.DIRICHLET)


def test_total_minus_scattered_is_one():
    pt = fock.FockPoint(0.7, 1.3)
    a_s = fock.scattered_new(pt, D)
    a_t = fock.total_new(pt, D)
    assert abs(a_t.amplitude - a_s.amplitude - 1.0) < 1e-8


def test_dirichlet_boundary_zero():
    pt = fock.FockPoint(1.0, -0.25)
    a = fock.total_new(pt, D)
    assert abs(a.amplitude) <= 1e-6


def test_new_equals_forked_all_boundary_kinds():
    pt = fock.FockPoint(-1.0, 0.5)
    for bc in (pk.DIRICHLET, pk.NEUMANN, pk.robin(1j)):
        cfg = fock.ProblemConfig(bc)
        a_new = fock.scattered_new(pt, cfg)
        a_fork = fock.scattered_forked(pt, cfg)
        assert abs(a_new.amplitude - a_fork.amplitude) < 1e-6


def test_gamma_total_oracle():
    pt = fock.FockPoint(0.3, 0.9)
    a_t = fock.total_new(pt, D)
    a_g = fock.total_gamma(pt, D)
    a_f = fock.scattered_forked(pt, D)
    assert abs(a_g.amplitude - a_t.amplitude) < 1e-6
    assert abs(a_g.amplitude - 1.0 - a_f.amplitude) < 1e-6


def test_gamma_neumann_robin_extension():
    pt = fock.FockPoint(0.5, 0.8)
    for bc in (pk.NEUMANN, pk.robin(1 + 0.5j)):
        cfg = fock.ProblemConfig(bc)
        a_g = fock.total_gamma(pt, cfg)
        a_s = fock.scattered_new(pt, cfg)
        assert abs(a_g.amplitude - 1.0 - a_s.amplitude) < 1e-6


def test_interior_point_rejected():
    with pytest.raises(fock.FockDomainError):
        fock.scattered_new(fock.FockPoint(1.0, -1.0), D)


def test_nonfinite_inputs_rejected_where_they_enter():
    for kappa in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="kappa"):
            fock.ProblemConfig(pk.DIRICHLET, kappa=kappa)
    for pt in (fock.FockPoint(math.nan, 1.0), fock.FockPoint(0.5, math.inf),
               fock.FockPoint(-math.inf, 1.0)):
        for field in (fock.scattered_new, fock.scattered_forked, fock.total_gamma):
            with pytest.raises(fock.FockDomainError):
                field(pt, D)


def test_overflowing_height_is_a_domain_error():
    # x_hat^2 overflows, so n_hat is infinite: every field function refuses
    # the point by name, before any path or decay model is built from it
    for x_hat in (1e200, -1e200):
        pt = fock.FockPoint(x_hat, 1.0)
        for field in (fock.scattered_new, fock.total_new, fock.scattered_forked,
                      fock.total_gamma):
            with pytest.raises(fock.FockDomainError, match=re.escape(f"point ({x_hat}, 1.0)")):
                field(pt, D)


def test_kappa_rescaling_covariance():
    pt = fock.FockPoint(0.6, 0.9)
    cfg1 = fock.ProblemConfig(pk.DIRICHLET, kappa=1.0)
    s = 2.0 ** (2.0 / 3.0)
    pt_scaled = fock.FockPoint(s * 0.6, 2.0 ** (1.0 / 3.0) * 0.9)
    a1 = fock.scattered_new(pt, cfg1)
    a2 = fock.scattered_new(pt_scaled, D)
    assert abs(a1.amplitude - a2.amplitude) <= 1e-10


def _airy_plane_wave_identity(sigma: complex, pt: fock.FockPoint, j: int = 1,
                              opts: QuadOptions = fock.DEFAULT_OPTS):
    """Both sides of the plane-wave representation of the shifted Airy factor.

    Left: e^{i x sigma/2} e^{-i(x y/2 + x^3/12)} A_j(sigma - n_hat).
    Right: (1/2pi) int_{Gamma_j} e^{i sigma t} e^{i(-y t - x t^2/2 + t^3/3)} dt.
    """
    x, y = pt.x_hat, pt.y_hat
    n = y + x * x / 4.0
    aj = airy.rotated(j, sigma - n)
    left = np.exp(1j * x * sigma / 2.0 - 1j * (x * y / 2.0 + x ** 3 / 12.0)) * aj.value

    a_in, a_out = (4 * j + 5) * math.pi / 6.0, (4 * j + 1) * math.pi / 6.0
    path = ContourPath((Ray(0.0, a_in, inward=True), Ray(0.0, a_out, inward=False)))
    w0 = max(8.0 * abs(x), 4.0 * math.sqrt(abs(y) + abs(sigma) + 1.0), 3.0)
    fin = truncate(path, DecayModel("cubic_exp", 1.0 / 9.0, scale=10.0, min_radius=w0),
                   opts.truncation_tail_tol)

    def f(ts):
        return np.exp(1j * sigma * ts + 1j * (-y * ts - x * ts * ts / 2 + ts ** 3 / 3))

    res = integrate(f, fin, opts)
    return complex(left), res.value / (2.0 * math.pi)


def test_airy_plane_wave_identity():
    sigma = 0.4 + 0.1j
    pt = fock.FockPoint(0.2, 0.6)
    left, right = _airy_plane_wave_identity(sigma, pt)
    assert abs(left - right) < 1e-9
    # x=y=0 with j=1 reduces to the contour representation of A_1
    left, right = _airy_plane_wave_identity(0.7, fock.FockPoint(0.0, 0.0), j=1)
    a1 = airy.rotated(1, 0.7).value
    assert abs(right - a1) < 1e-10
    # j = 0 reproduces Ai
    left, right = _airy_plane_wave_identity(0.3, fock.FockPoint(0.0, 0.0), j=0)
    assert abs(right - airy.airy(0.3).value) < 1e-10


def test_boundary_residuals():
    assert fock.boundary_residual(0.0, D) <= 1e-6
    assert fock.boundary_residual(0.8, fock.ProblemConfig(pk.NEUMANN)) <= 1e-5
    assert fock.boundary_residual(-0.5, fock.ProblemConfig(pk.robin(2j))) <= 1e-5
    # the boundary of curvature kappa is y_hat = -kappa x_hat^2/2
    assert fock.boundary_residual(0.8, fock.ProblemConfig(pk.DIRICHLET, kappa=1.0)) <= 1e-6
    assert fock.boundary_residual(-0.5, fock.ProblemConfig(pk.robin(2j), kappa=0.25)) <= 1e-5


def test_pwe_stencil_on_constant_field():
    # constants solve the PWE: the centred stencil must vanish identically
    h = 0.05
    lat = {k: 1.0 + 0j for k in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]}
    ddx = (lat[(1, 0)] - lat[(-1, 0)]) / (2 * h)
    ddy2 = (lat[(0, 1)] - 2 * lat[(0, 0)] + lat[(0, -1)]) / h ** 2
    assert abs(2j * ddx + ddy2) == 0.0


def test_pwe_residual_small():
    # the centred-stencil defect is O(h^2) with coefficient ~0.3 here
    res = fock.pwe_residual([fock.FockPoint(0.0, 1.0)], D, h=0.01)
    assert res <= 1e-4


def test_field_error_estimates_reported():
    a = fock.scattered_new(fock.FockPoint(0.7, 1.3), D)
    assert a.error_estimate > 0
    assert a.error_estimate < 1e-6


def test_field_value_does_not_depend_on_warm_node_tables():
    pt, other = fock.FockPoint(-1.0, 0.5), fock.FockPoint(0.7, 1.3)
    cfg = fock.ProblemConfig(pk.robin(1 + 1j))
    pk._NODE_TABLES.clear()
    cold = fock.scattered_new(pt, cfg)
    pk._NODE_TABLES.clear()
    fock.scattered_new(other, cfg)
    warm = fock.scattered_new(pt, cfg)
    assert warm.amplitude == cold.amplitude
    assert warm.error_estimate == cold.error_estimate


# a Robin(1+i) point and a neighbour whose saddle t_- lies in the same
# lattice cell (-1.75): the two share one truncated vee, so the neighbour's
# round-0 caret batch is the point's memo entry; OTHER_PATHS lie on other paths
MEMO_POINT, MEMO_NEIGHBOUR = fock.FockPoint(-1.0, 0.5), fock.FockPoint(-1.0, 0.52)
OTHER_PATHS = [fock.FockPoint(*p) for p in ((0.5, 1.0), (2.0, 1.0), (-0.5, 2.0), (1.0, 3.0))]
ROBIN = fock.ProblemConfig(pk.robin(1 + 1j))


def test_field_value_does_not_depend_on_the_field_memo(monkeypatch):
    # cold, after a neighbour on the same snapped path, after eviction past
    # the cap and from four threads: the same bytes
    fock._FIELD_MEMO.clear()
    cold = fock.scattered_new(MEMO_POINT, ROBIN)
    fock._FIELD_MEMO.clear()
    neighbour = fock.scattered_new(MEMO_NEIGHBOUR, ROBIN)
    assert len(fock._FIELD_MEMO) == 1 and neighbour.amplitude != cold.amplitude
    runs = [fock.scattered_new(MEMO_POINT, ROBIN)]
    assert len(fock._FIELD_MEMO) == 1                    # a hit
    monkeypatch.setattr(fock, "FIELD_MEMO_CAP", 2)
    for pt in OTHER_PATHS:
        fock.scattered_new(pt, ROBIN)
    assert len(fock._FIELD_MEMO) == 2                    # the last two others
    runs.append(fock.scattered_new(MEMO_POINT, ROBIN))
    # more threads than cores, switching often, on a memo that evicts as
    # they go: a lost or torn update would show as another value or size
    fock._FIELD_MEMO.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(fock.scattered_new, pt, ROBIN)
                       for pt in [MEMO_POINT, MEMO_NEIGHBOUR, *OTHER_PATHS] * 2]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(fock._FIELD_MEMO) <= 2
    assert threaded[1] == threaded[7] == neighbour
    for run in runs + [threaded[0], threaded[6]]:
        assert run.amplitude == cold.amplitude
        assert run.error_estimate == cold.error_estimate


def test_field_memo_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(fock, "FIELD_MEMO_CAP", 3)
    fock._FIELD_MEMO.clear()
    for pt in [MEMO_POINT, *OTHER_PATHS]:
        fock.scattered_new(pt, ROBIN)
        assert len(fock._FIELD_MEMO) <= 3
    assert len(fock._FIELD_MEMO) == 3


@pytest.mark.parametrize("x", [-0.2, 0.0, 1.0])
def test_pole_residue_either_side_of_the_vee_switch(x):
    # t_- just left of -0.3 takes the vee at the lattice vertex -0.3125 and the
    # total path's corner there; just right, the channels from t_- rounded up
    # to -0.25: criterion 4's shift across the pole holds to 1e-8 on both sides
    for tm in (-0.3 - 1e-3, -0.3 - 1e-9, -0.3 + 1e-9, -0.3 + 1e-3):
        r = x - 1.5 * tm
        pt = fock.FockPoint(x, (r * r - x * x) / 3.0)
        a_s, a_t = fock.scattered_new(pt, D), fock.total_new(pt, D)
        assert abs(a_t.amplitude - a_s.amplitude - 1.0) <= 1e-8, tm


# (x_hat, y_hat) -> most caret_log_many calls one Dirichlet or Neumann
# scattered_new may make: one per round of its field integral.  Its starting
# panels resolve (0, 0.25) and (2, 4) in round 0, where 2-unit panels take
# three rounds; the far-lit points (n_hat = 5 to 6) take three rounds on
# vee rays cut where their own cubic decay meets the tail tolerance
FIELD_ROUND_CAPS = {(-4.0, 1.0): 3, (-4.0, 1.5): 3, (-4.0, 2.0): 3, (0.0, 0.25): 1,
                    (2.0, 4.0): 1}


@pytest.mark.parametrize("point", sorted(FIELD_ROUND_CAPS), ids=lambda p: f"{p[0]:g},{p[1]:g}")
def test_field_caret_batches_capped(monkeypatch, point):
    many = pk.caret_log_many
    fock._FIELD_MEMO.clear()
    calls = []

    def counted(ts, bc, opts):
        calls.append(np.size(ts))
        return many(ts, bc, opts)

    monkeypatch.setattr(pk, "caret_log_many", counted)
    for bc in (pk.DIRICHLET, pk.NEUMANN):
        calls.clear()
        res = fock.scattered_new(fock.FockPoint(*point), fock.ProblemConfig(bc))
        assert np.isfinite(res.amplitude)
        assert 1 <= len(calls) <= FIELD_ROUND_CAPS[point], bc.kind


# (field, point): a far-lit vee, a shadow channel, a penumbra vee, a
# right-passing total_new path and a derivative field on the boundary
TAIL_CASES = [(fock.scattered_new, (-4.0, 2.0)), (fock.scattered_new, (4.0, -3.75)),
              (fock.scattered_new, (0.0, 0.25)), (fock.total_new, (-2.0, 1.0)),
              (fock.total_new_dy, (-0.5, -0.0625))]


@pytest.mark.parametrize("bc", [pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)],
                         ids=lambda bc: bc.label())
def test_field_truncation_tail_is_sound(monkeypatch, bc):
    # cutting the field rays at twice the radius of their tail model must
    # move the integral by at most the two quadrature errors, each of which
    # carries the tails of its two cut rays
    runs = []

    def recorded(f, path, opts, **kwargs):
        res = integrate(f, path, opts, **kwargs)
        runs.append(res)
        return res

    def doubled(path, model, tail_tol):
        radius = truncate(path, model, tail_tol).truncation_radius
        return truncate(path, dataclasses.replace(model, min_radius=2.0 * radius), tail_tol)

    monkeypatch.setattr(fock, "integrate", recorded)
    cfg = fock.ProblemConfig(bc)
    for field, point in TAIL_CASES:
        runs.clear()
        with monkeypatch.context() as m:
            field(fock.FockPoint(*point), cfg)
            m.setattr(fock, "truncate", doubled)
            field(fock.FockPoint(*point), cfg)
        cut, far = runs
        assert far.truncation_radius == 2.0 * cut.truncation_radius
        gap = abs(far.value - cut.value)
        assert gap <= cut.error_estimate + far.error_estimate, (field, point, gap)


@pytest.mark.parametrize("bc", [pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)],
                         ids=lambda bc: bc.label())
def test_saddle_route_inside_a_field_integral(monkeypatch, bc):
    # at these far-lit points the field's caret batches send 1 and 5 nodes to
    # the saddle path; the field agrees with the forked representation (to
    # 3e-9 to 1.7e-8).  Their err columns (0.3 to 74) are loose, so the fixed
    # bound is the comparison
    saddle = pk._caret_saddle
    calls = []
    fock._FIELD_MEMO.clear()

    def counted(t, bc, opts):
        calls.append(t)
        return saddle(t, bc, opts)

    monkeypatch.setattr(pk, "_caret_saddle", counted)
    cfg = fock.ProblemConfig(bc)
    for point, routed in (((-4.0, 2.0), 1), ((-4.0, 3.0), 5)):
        calls.clear()
        new = fock.scattered_new(fock.FockPoint(*point), cfg)
        assert len(calls) == routed
        forked = fock.scattered_forked(fock.FockPoint(*point), cfg)
        assert abs(new.amplitude - forked.amplitude) <= 1e-7, point


def test_leg_arguments_same_bits_at_every_call_size():
    # omega (s - n) of a 40,000-node call is the bytes of forty 1,000-node
    # calls, as the node arguments of the sigma-plane legs must be
    s = np.linspace(0.0, 9.0, 40_000) * np.exp(0.7j)
    whole = fock._omega_shift(s, 1.3)
    assert np.array_equal(whole, np.concatenate([fock._omega_shift(c, 1.3)
                                                 for c in s.reshape(40, 1000)]))


def test_caret_failure_is_not_a_field_stall(monkeypatch):
    # a stall inside the caret factor must not pass for the field integral's
    # own stall, whose best result would then be the inner caret integral
    def stalled(*args, **kwargs):
        raise QuadratureError("x", "stalled", QuadResult(123.0, 0.0, 15))

    fock._FIELD_MEMO.clear()
    monkeypatch.setattr(pk, "caret_log_many", stalled)
    with pytest.raises(QuadratureError) as info:
        fock.scattered_new(fock.FockPoint(-1.0, 0.5), D)
    assert info.value.reason == "integrand"


def test_noisy_caret_does_not_excuse_a_field_stall(monkeypatch):
    # caret values at their usual panel cap but reported with relative error
    # 1, and a field integral that cannot converge: a one-panel cap,
    # tolerances below double roundoff, and 2-unit starting panels, whose
    # error sum stays above FLOOR_FACTOR times the roundoff floor the driver
    # measures.  Caret noise must not let that stall pass
    many = pk.caret_log_many
    cap = fock.DEFAULT_OPTS.max_subdivisions

    def noisy(ts, bc, opts):
        lv, lr = many(ts, bc, dataclasses.replace(opts, max_subdivisions=cap))
        return lv, np.ones_like(lr)

    monkeypatch.setattr(pk, "caret_log_many", noisy)
    monkeypatch.setattr(fock, "FIELD_PANEL", 2.0)
    opts = dataclasses.replace(fock.DEFAULT_OPTS, max_subdivisions=1, rel_tol=1e-18,
                               abs_tol=1e-300)
    with pytest.raises(QuadratureError) as info:
        fock.scattered_new(fock.FockPoint(-1.0, 0.5), D, opts)
    assert info.value.reason == "stalled"


# ---------------------------------------------------------------------------
# sigma-plane legs: stepped in lockstep, one Airy call per round for all of
# them, their ratios read from the caret node tables, bit for bit per-leg
# runs of the formulas that evaluate each Airy argument on its own
# ---------------------------------------------------------------------------

W = pk.OMEGA
SIGMA_POINTS = [(-3.0, 1.0), (0.5, 0.2), (2.0, -0.5)]    # lit, penumbra, shadow
SIGMA_BCS = [pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)]
# per leg in order (l1, l2, l3; gamma in, out), its point-dependent Airy
# points per node (f_in's A1(s - n) serves both its A1 factor and the
# Dirichlet r2(s - n)), and whether it reads a ratio from the node tables,
# which costs 2 Airy points per node of a panel the table lacks
SIGMA_AIRY_POINTS = {"scattered_forked": (1, 1, 1), "total_gamma": (2, 2)}
SIGMA_RATIO_LEGS = {"scattered_forked": (False, True, True), "total_gamma": (True, True)}


def _a1_shift(s, n):
    a, _, e = airy.airy_scaled_vec(W * (np.asarray(s, dtype=complex) - n))
    return W * a, e


def _r2(s, bc):
    s = np.asarray(s, dtype=complex)
    alpha, beta = bc.impedance
    a1, ap1, e1 = airy.airy_scaled_vec(W * s)
    a2, ap2, e2 = airy.airy_scaled_vec(W ** 2 * s)
    num = W ** 2 * (alpha * a2 - beta * W ** 2 * ap2)
    den = W * (alpha * a1 - beta * W * ap1)
    return num / den, e2 - e1


def _r3(s, bc):
    s = np.asarray(s, dtype=complex)
    alpha, beta = bc.impedance
    a0, ap0, e0 = airy.airy_scaled_vec(s)
    a1, ap1, e1 = airy.airy_scaled_vec(W * s)
    num = alpha * a0 - beta * ap0
    den = W * (alpha * a1 - beta * W * ap1)
    return num / den, e0 - e1


def _reference_integrands(x, n, bc):
    """Per field function, its integrands in the order it integrates them,
    with one Airy call per argument."""
    def f1(s):
        w, e = _a1_shift(s, n)
        return w * np.exp(1j * x * s / 2.0 + e)

    def arm(ratio):
        def f(s):
            w, e = _a1_shift(s, n)
            wr, er = ratio(s, bc)
            return w * wr * np.exp(1j * x * s / 2.0 + e + er)
        return f

    def f_in(s):
        s = np.asarray(s, dtype=complex)
        w1, e1 = _a1_shift(s, n)
        wb, eb = _r2(s, bc)
        wd, ed = _r2(s - n, pk.DIRICHLET)
        big = np.maximum(eb, ed)
        diff = wb * np.exp(eb - big) - wd * np.exp(ed - big)
        return diff * w1 * np.exp(1j * x * s / 2.0 + big + e1)

    def f_out(s):
        s = np.asarray(s, dtype=complex)
        a0, _, e0 = airy.airy_scaled_vec(s - n)
        w1, e1 = _a1_shift(s, n)
        wr, er = _r3(s, bc)
        big = np.maximum(e0, er + e1)
        diff = a0 * np.exp(e0 - big) - wr * w1 * np.exp(er + e1 - big)
        return diff * np.exp(1j * x * s / 2.0 + big)

    return {"scattered_forked": [f1, arm(_r2), arm(_r3)], "total_gamma": [f_in, f_out]}


def _substituted(integrands):
    """An ``integrate`` that runs the next of ``integrands`` in place of the
    integrand it is handed, on the caller's path and starting width."""
    def run(f, path, opts, width):
        return integrate(integrands.pop(0), path, opts, width)
    return run


def _counted_airy(m):
    """The sizes of all Airy calls made from here on."""
    calls = []
    evaluate = airy.airy_scaled_vec

    def counted(z):
        calls.append(np.size(z))
        return evaluate(z)

    m.setattr(airy, "airy_scaled_vec", counted)
    return calls


def _airy_calls_per_evaluation(m, module):
    """Per integrand evaluation through ``module.integrate``, the integrand's
    name and the Airy points per node of each Airy call it made; and the
    sizes of all Airy calls."""
    per_eval, calls = [], _counted_airy(m)

    def run(f, path, opts=QuadOptions(), width=2.0):
        def g(s):
            before = len(calls)
            out = f(s)
            per_eval.append((f.__name__, tuple(c / np.size(s) for c in calls[before:])))
            return out
        return integrate(g, path, opts, width)

    m.setattr(module, "integrate", run)
    return per_eval, calls


def _per_leg(integrands, results):
    """An ``integrate_lockstep`` that runs ``integrate`` of each of
    ``integrands`` in place of the legs, one leg after another on the
    caller's paths and at its starting width, and appends the results to
    ``results``."""
    def run(fjoint, paths, opts, width):
        for f, path in zip(integrands, paths):
            results.append(integrate(f, path, opts, width))
        return results
    return run


def _lockstep_log(m):
    """Patches ``fock.integrate_lockstep`` to log each joint call as (legs,
    node counts, sizes of the Airy calls it made); returns the log and the
    list the results are appended to."""
    calls, log, results = _counted_airy(m), [], []
    run = fock.integrate_lockstep

    def logged(fjoint, paths, opts, width):
        def joint(legs, nodes):
            before = len(calls)
            out = fjoint(legs, nodes)
            log.append((list(legs), [z.size for z in nodes], calls[before:]))
            return out
        results.extend(run(joint, paths, opts, width))
        return results

    m.setattr(fock, "integrate_lockstep", logged)
    return log, results


@pytest.mark.parametrize("bc", SIGMA_BCS, ids=lambda bc: bc.label())
def test_sigma_integrands_one_airy_call_bit_identical(monkeypatch, bc):
    cfg = fock.ProblemConfig(bc)
    for x_hat, y_hat in SIGMA_POINTS:
        pt = fock.FockPoint(x_hat, y_hat)
        x, y = fock._scaled_coords(pt, cfg)
        refs = _reference_integrands(x, y + x * x / 4.0, bc)
        for field in (fock.scattered_forked, fock.total_gamma):
            ref_legs = []
            with monkeypatch.context() as m:
                m.setattr(fock, "integrate_lockstep", _per_leg(refs[field.__name__], ref_legs))
                ref = field(pt, cfg)
            # cold tables: every node of a ratio leg is a miss; warm (the
            # same point again): none is
            pk._NODE_TABLES.clear()
            for misses in (2, 0):
                with monkeypatch.context() as m:
                    log, legs = _lockstep_log(m)
                    got = field(pt, cfg)
                assert legs == ref_legs
                assert got.amplitude == ref.amplitude
                assert got.error_estimate == ref.error_estimate
                # round r makes one Airy call for every leg that reached
                # round r: its own points and its ratio's misses
                per_node = [own + misses * ratio for own, ratio in
                            zip(SIGMA_AIRY_POINTS[field.__name__],
                                SIGMA_RATIO_LEGS[field.__name__])]
                assert len(log) == max(res.rounds for res in legs) + 1
                for r, (ks, sizes, calls) in enumerate(log):
                    assert ks == [k for k, res in enumerate(legs) if res.rounds >= r]
                    assert calls == [sum(per_node[k] * n for k, n in zip(ks, sizes))]
    # the ratio parts, on nodes from the lattice and both far bands
    s = np.concatenate([np.linspace(-12.0, 12.0, 25), 9.0 * np.exp(1j * np.linspace(-3, 3, 13))])
    for parts, ref in ((pk.ratio_l2_parts, _r2), (pk.ratio_l3_parts, _r3)):
        want = ref(s, bc)
        with monkeypatch.context() as m:
            calls = _counted_airy(m)
            got = parts(s, bc)
        assert calls == [2 * s.size]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# Robin(2) at (x_hat, n_hat) = (-6, 5): the forked legs l1 and l2 converge in
# 1 round, l3 runs 14 rounds along the pole it passes
ROBIN2 = fock.ProblemConfig(pk.robin(2))
ROBIN2_POINT = fock.FockPoint(-6.0, 5.0 - 0.25 * 36.0)


def _forked_per_leg(monkeypatch, opts):
    """The forked field at ``ROBIN2_POINT`` by per-leg runs of the reference
    integrands: (field value or raised error, leg results)."""
    x, y = fock._scaled_coords(ROBIN2_POINT, ROBIN2)
    refs = _reference_integrands(x, y + x * x / 4.0, ROBIN2.bc)["scattered_forked"]
    results = []
    with monkeypatch.context() as m:
        m.setattr(fock, "integrate_lockstep", _per_leg(refs, results))
        try:
            return fock.scattered_forked(ROBIN2_POINT, ROBIN2, opts), results
        except QuadratureError as exc:
            return exc, results


def test_lockstep_legs_of_unequal_depth_equal_per_leg_runs(monkeypatch):
    ref, ref_legs = _forked_per_leg(monkeypatch, fock.DEFAULT_OPTS)
    with monkeypatch.context() as m:
        log, legs = _lockstep_log(m)
        got = fock.scattered_forked(ROBIN2_POINT, ROBIN2)
    assert [res.rounds for res in legs] == [1, 1, 14]
    assert legs == ref_legs      # values, estimates, evaluations, rounds
    assert got == ref
    assert len(log) == 15 and all(len(calls) == 1 for _, _, calls in log)
    # small joint calls: the same results, and no call passes the bound
    with monkeypatch.context() as m:
        m.setattr(quadrature, "CALL_ELEMENTS", 15 * 8)
        log, small = _lockstep_log(m)
        assert fock.scattered_forked(ROBIN2_POINT, ROBIN2) == ref
    assert small == legs
    assert len(log) > 15 and max(sum(sizes) for _, sizes, _ in log) <= 15 * 8
    assert all(len(calls) == 1 for _, _, calls in log)


# finished: the legs the per-leg loop completes before the stall it raises
@pytest.mark.parametrize("max_subdivisions, rel_tol, finished", [
    (35, 1e-9, 2),       # l1 and l2 converge; l3 stalls after 6 rounds
    (32, 1e-12, 0),      # l1 stalls after 1 round, l3 after 3; l2 converges
])
def test_lockstep_stall_is_the_per_leg_loops(monkeypatch, max_subdivisions, rel_tol, finished):
    opts = dataclasses.replace(fock.DEFAULT_OPTS, max_subdivisions=max_subdivisions,
                               rel_tol=rel_tol)
    ref, ref_legs = _forked_per_leg(monkeypatch, opts)
    assert isinstance(ref, QuadratureError) and len(ref_legs) == finished
    with pytest.raises(QuadratureError) as info:
        fock.scattered_forked(ROBIN2_POINT, ROBIN2, opts)
    assert (info.value.reason, str(info.value), info.value.result) == \
        (ref.reason, str(ref), ref.result)


def _field_bytes(values):
    return [np.array([v.amplitude]).tobytes() + np.array([v.error_estimate]).tobytes()
            for v in values]


def test_sigma_legs_do_not_depend_on_the_node_tables(monkeypatch):
    # a forked and a gamma point per boundary kind, the gamma legs on the
    # rays of the forked l2 and l3: cold, warm, after a clear, on tables
    # that a small cap clears as they fill, and from four threads switching
    # every microsecond: the same bytes
    cases = [(field, fock.FockPoint(-1.0, 0.5), fock.ProblemConfig(bc))
             for bc in SIGMA_BCS for field in (fock.scattered_forked, fock.total_gamma)]

    def run_all():
        return _field_bytes([field(pt, cfg) for field, pt, cfg in cases])

    pk._NODE_TABLES.clear()
    cold = run_all()
    stored = pk._NODE_TABLES.panels
    runs = [run_all()]                                  # warm
    assert pk._NODE_TABLES.panels == stored             # every panel a hit
    pk._NODE_TABLES.clear()
    runs.append(run_all())
    with monkeypatch.context() as m:
        m.setattr(pk, "NODE_TABLE_CAP", 64)
        pk._NODE_TABLES.clear()
        runs.append(run_all())
        assert 0 < pk._NODE_TABLES.panels <= 64 < stored
    pk._NODE_TABLES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(field, pt, cfg) for field, pt, cfg in cases * 2]
            threaded = _field_bytes([f.result(timeout=120) for f in futures])
    finally:
        sys.setswitchinterval(interval)
    runs += [threaded[:len(cases)], threaded[len(cases):]]
    for run in runs:
        assert run == cold


def test_i_sigma_one_airy_call_bit_identical(monkeypatch):
    t = 1.5

    def f(s):
        w, expo = _r3(s, pk.DIRICHLET)
        return w * np.exp(1j * t * s + expo)

    with monkeypatch.context() as m:
        m.setattr(mt, "integrate", _substituted([f]))
        ref = mt.i_sigma(t, 4.0)
    with monkeypatch.context() as m:
        per_eval, _ = _airy_calls_per_evaluation(m, mt)
        got = mt.i_sigma(t, 4.0)
    assert per_eval and {len(calls) for _, calls in per_eval} == {1}
    assert got == ref


def test_forked_on_the_boundary_of_any_kappa():
    # on the boundary y_hat = -kappa x_hat^2/2 the scaled height n rounds
    # below 0 for some kappa != 1/2; the forked form must still give the
    # Dirichlet total field A_s + 1 = 0 there
    for kappa, x_hat in ((1.0, -2.0), (1.0, -1.5), (0.25, -1.5), (0.25, 0.7)):
        cfg = fock.ProblemConfig(pk.DIRICHLET, kappa=kappa)
        a_s = fock.scattered_forked(fock.FockPoint(x_hat, -kappa * x_hat ** 2 / 2.0), cfg)
        assert abs(a_s.amplitude + 1.0) <= 1e-6
