import dataclasses
import math

import numpy as np
import pytest

from tangentray import airy, fock
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
    # move the integral by at most 4 tail tolerances (two rays, with margin)
    # plus the two quadrature errors
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
    tail = fock.DEFAULT_OPTS.truncation_tail_tol
    for field, point in TAIL_CASES:
        runs.clear()
        with monkeypatch.context() as m:
            field(fock.FockPoint(*point), cfg)
            m.setattr(fock, "truncate", doubled)
            field(fock.FockPoint(*point), cfg)
        cut, far = runs
        assert far.truncation_radius == 2.0 * cut.truncation_radius
        gap = abs(far.value - cut.value)
        assert gap <= 4.0 * tail + cut.error_estimate + far.error_estimate, (field, point, gap)


def test_caret_failure_is_not_a_field_stall(monkeypatch):
    # a stall inside the caret factor must not pass for the field integral's
    # own stall, whose best result would then be the inner caret integral
    def stalled(*args, **kwargs):
        raise QuadratureError("x", "stalled", QuadResult(123.0, 0.0, 15))

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
# sigma-plane integrands: one Airy call per evaluation, bit for bit the
# formulas that evaluate each Airy argument on its own
# ---------------------------------------------------------------------------

W = pk.OMEGA
SIGMA_POINTS = [(-3.0, 1.0), (0.5, 0.2), (2.0, -0.5)]    # lit, penumbra, shadow
SIGMA_BCS = [pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)]
# per integrand, the Airy points per node of its one call per evaluation;
# f_in's A1(s - n) serves both its A1 factor and the Dirichlet r2(s - n)
SIGMA_AIRY_POINTS = {"scattered_forked": {("f1", (1,)), ("f2", (3,)), ("f3", (3,))},
                     "total_gamma": {("f_in", (4,)), ("f_out", (4,))}}


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
    integrand it is handed, on the caller's path."""
    def run(f, path, opts):
        return integrate(integrands.pop(0), path, opts)
    return run


def _airy_calls_per_evaluation(m, module):
    """Per integrand evaluation through ``module.integrate``, the integrand's
    name and the Airy points per node of each Airy call it made; and the
    sizes of all Airy calls."""
    per_eval, calls = [], []
    evaluate = airy.airy_scaled_vec

    def counted(z):
        calls.append(np.size(z))
        return evaluate(z)

    def run(f, path, opts=QuadOptions()):
        def g(s):
            before = len(calls)
            out = f(s)
            per_eval.append((f.__name__, tuple(c / np.size(s) for c in calls[before:])))
            return out
        return integrate(g, path, opts)

    m.setattr(airy, "airy_scaled_vec", counted)
    m.setattr(module, "integrate", run)
    return per_eval, calls


@pytest.mark.parametrize("bc", SIGMA_BCS, ids=lambda bc: bc.label())
def test_sigma_integrands_one_airy_call_bit_identical(monkeypatch, bc):
    cfg = fock.ProblemConfig(bc)
    for x_hat, y_hat in SIGMA_POINTS:
        pt = fock.FockPoint(x_hat, y_hat)
        x, y = fock._scaled_coords(pt, cfg)
        refs = _reference_integrands(x, y + x * x / 4.0, bc)
        for field in (fock.scattered_forked, fock.total_gamma):
            todo = refs[field.__name__]
            with monkeypatch.context() as m:
                m.setattr(fock, "integrate", _substituted(todo))
                ref = field(pt, cfg)
            assert todo == []
            with monkeypatch.context() as m:
                per_eval, _ = _airy_calls_per_evaluation(m, fock)
                got = field(pt, cfg)
            assert set(per_eval) == SIGMA_AIRY_POINTS[field.__name__]
            assert got.amplitude == ref.amplitude
            assert got.error_estimate == ref.error_estimate
    # the ratio parts, on nodes from the lattice and both far bands
    s = np.concatenate([np.linspace(-12.0, 12.0, 25), 9.0 * np.exp(1j * np.linspace(-3, 3, 13))])
    for parts, ref in ((pk.ratio_l2_parts, _r2), (pk.ratio_l3_parts, _r3)):
        want = ref(s, bc)
        with monkeypatch.context() as m:
            _, calls = _airy_calls_per_evaluation(m, fock)
            got = parts(s, bc)
        assert calls == [2 * s.size]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
