import cmath
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentray import airy as _airy_mod
from tangentray import fock
from tangentray import pekeris as pk
from tangentray.contours import ContourPath, Ray
from tangentray.quadrature import QuadOptions, integrate_exp_batch

OPTS = QuadOptions(rel_tol=1e-11, abs_tol=1e-14)

# regression constants, frozen from two independent contour realisations
# agreeing to ~3e-17
P0 = 0.09987963860718058 + 0.17299660870925468j
Q0 = -0.08665100047256662 - 0.15008393534516015j


def test_entire_part_regression_and_realisation_independence():
    v1 = pk.pekeris_entire(0.0, pk.DIRICHLET, OPTS)
    v2 = pk.pekeris_entire(0.0, pk.DIRICHLET, OPTS,
                           beta2=0.55 * math.pi, beta3=-0.2)
    assert abs(v1 - v2) < 1e-9
    assert v1 == pytest.approx(P0, abs=1e-10)
    assert pk.pekeris_entire(0.0, pk.NEUMANN, OPTS) == pytest.approx(Q0, abs=1e-10)


def test_pole_split_identity():
    t = 0.3 - 0.1j
    caret = pk.pekeris_caret(t).value
    entire = pk.pekeris_entire(t)
    assert abs(caret - 1.0 / (2j * math.pi * t) - entire) < 1e-10


def test_pole_split_reports_its_arms_error():
    # near the pole the caret is 1/(2 pi i t) plus the entire part on the
    # default arms: its error estimate is at least those arms' error
    t = 0.03
    for bc in (pk.DIRICHLET, pk.robin(0.4 - 0.6j)):
        ev = pk.pekeris_caret(t, bc)
        assert ev.representation_used == "pole_split"
        _, err = pk._caret_forked(t, bc, QuadOptions(), 2 * math.pi / 3, 0.0)
        assert ev.error_estimate >= err


def test_robin_zero_impedance_is_neumann():
    t = 1.0
    assert abs(pk.pekeris_entire(t, pk.robin(0.0)) -
               pk.pekeris_entire(t, pk.NEUMANN)) < 1e-12


def test_pole_error():
    with pytest.raises(pk.PoleError):
        pk.pekeris_caret(0.0)


def test_pole_residue_limit():
    for phi in (0.2, 2.0, -1.4):
        t = 1e-3 * np.exp(1j * phi)
        v = pk.pekeris_caret(complex(t)).value
        assert abs(t * v - 1.0 / (2j * math.pi)) < 1e-3


def test_residue_vs_reciprocal_example():
    t = 2.0 * np.exp(1j * math.pi / 6)
    v_res, _, ok = pk.caret_residue_series(t, pk.DIRICHLET, rel_tol=1e-13)
    v_rec, _ = pk._caret_reciprocal(complex(t), pk.DIRICHLET, OPTS)
    assert ok[0]
    assert abs(complex(v_res[0]) - v_rec) < 1e-8
    assert complex(v_res[0]) == pytest.approx(
        -0.0015439866681629753 - 0.002674263355467262j, abs=1e-12)


@settings(max_examples=6, deadline=None)
@given(st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=-math.pi / 3 + 0.25, max_value=2 * math.pi / 3 - 0.25))
def test_residue_vs_reciprocal_property(r, th):
    t = r * np.exp(1j * th)
    v_res, _, ok = pk.caret_residue_series(t, pk.DIRICHLET, rel_tol=1e-13,
                                           max_terms=400)
    if not ok[0]:
        return
    v_rec, _ = pk._caret_reciprocal(complex(t), pk.DIRICHLET, OPTS)
    assert abs(complex(v_res[0]) - v_rec) < 1e-8


def test_forked_equals_reciprocal_in_lit_sector():
    for t in (-1.0 + 0j, -6.0 + 0j, 2.5 * np.exp(1j * 0.8 * math.pi),
              2.0 * np.exp(-1j * 0.75 * math.pi)):
        b2, b3, _ = pk._forked_angles(complex(t))
        v_f, _ = pk._caret_forked(complex(t), pk.DIRICHLET, OPTS, b2, b3)
        v_r, _ = pk._caret_reciprocal(complex(t), pk.DIRICHLET, OPTS)
        assert abs(v_f - v_r) < 1e-8


def test_fourier_form():
    t = 1.0 - 2.0j
    vf = pk.caret_fourier(t, pk.DIRICHLET, tol=1e-6)
    vc = pk.pekeris_caret(t).value
    assert abs(vf - vc) < 1e-4
    with pytest.raises(pk.SectorError):
        pk.caret_fourier(1.0 + 1.0j, pk.DIRICHLET)


def test_dispatch_tags():
    assert pk.pekeris_caret(0.01).representation_used == "pole_split"
    assert pk.pekeris_caret(1.0 + 0.5j).representation_used == "residue_series"
    assert pk.pekeris_caret(
        5 * np.exp(1j * 2.3)).representation_used == "reciprocal_airy_contour"
    assert pk.pekeris_caret(-12.0 + 0j).representation_used == "forked_contour"


def test_lit_asymptotic_order():
    rels = []
    for T in (6.0, 12.0):
        t = complex(-T)
        v = pk.pekeris_caret(t).value
        va = pk.caret_lit_asymptotic(t, pk.DIRICHLET)
        rels.append(abs(v - va) / abs(v))
    assert rels[0] / rels[1] >= 6.0


def test_lit_asymptotic_prefactors():
    t = -4.0 + 0j
    d = pk.caret_lit_asymptotic(t, pk.DIRICHLET)
    n = pk.caret_lit_asymptotic(t, pk.NEUMANN)
    assert n == pytest.approx(-d, rel=1e-12)
    assert pk.caret_lit_asymptotic(t, pk.robin(1e-9)) == pytest.approx(n, rel=1e-6)
    assert pk.caret_lit_asymptotic(t, pk.robin(1e9)) == pytest.approx(d, rel=1e-6)
    # principal branch of sqrt(-t) keeps the value finite off the axis
    assert np.isfinite(pk.caret_lit_asymptotic(8 * np.exp(3j * math.pi / 4),
                                               pk.DIRICHLET))


def test_sector_errors():
    with pytest.raises(pk.SectorError):
        pk.caret_lit_asymptotic(1.0 + 0j, pk.DIRICHLET)
    with pytest.raises(pk.SectorError):
        pk.caret_shadow_asymptotic(-1.0 + 0j, pk.DIRICHLET)


def test_arm_without_ratio_decay_is_a_sector_error():
    # at +-pi/3 the Airy ratios of the arms no longer decay along the ray
    for arms in ({"beta2": math.pi / 3}, {"beta3": math.pi / 3}, {"beta3": -math.pi / 3}):
        with pytest.raises(pk.SectorError):
            pk.pekeris_entire(0.5 + 0.2j, **arms)


def test_shadow_asymptotic_example():
    t = 6.0 * np.exp(1j * math.pi / 6)
    v = pk.pekeris_caret(complex(t)).value
    va = pk.caret_shadow_asymptotic(complex(t), pk.DIRICHLET)
    assert abs(v - va) / abs(v) < 1e-3
    # Neumann leading term carries the printed minus sign
    vn = pk.caret_shadow_asymptotic(complex(t), pk.NEUMANN)
    eta, coef = pk._residue_data(pk.NEUMANN, 1)
    assert (coef[0] * np.exp(pk.EMIP6 * t * eta[0])) == pytest.approx(vn)
    assert pk.caret_shadow_asymptotic(complex(t), pk.robin(0)) == pytest.approx(vn)


def test_shadow_monotone_decay():
    vals = [abs(pk.pekeris_caret(r * np.exp(1j * math.pi / 6)).value)
            for r in np.linspace(4.0, 10.0, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_robin_residue_vs_reciprocal():
    for mu in (1.0, 1j, 1 + 1j):
        bc = pk.robin(mu)
        for t in (0.8, 2 * np.exp(1j * math.pi / 4), 4 * np.exp(1j * 1.3)):
            v_res, _, ok = pk.caret_residue_series(t, bc, rel_tol=1e-13,
                                                   max_terms=400)
            v_rec, _ = pk._caret_reciprocal(complex(t), bc, OPTS)
            assert ok[0]
            assert abs(complex(v_res[0]) - v_rec) < 1e-8


def test_escaped_impedance_root_leaves_the_residue_series():
    # mu_hat = 1 - i continues a root into Re eta > 0 (eta_0 = 1.406+1.073i);
    # summed over those roots the series gives 228.5+192.7i, estimate ~1e-12
    t, tol = 1.0 - 0.3j, 1e-6
    bc = pk.robin(1.0 - 1.0j)
    _, errs, ok = pk.caret_residue_series(t, bc)
    assert not ok[0] and math.isinf(errs[0])
    c = pk.pekeris_caret(t, bc)
    assert c.representation_used != "residue_series"
    vf = pk.caret_fourier(t, bc, tol=tol)
    assert abs(c.value - vf) <= c.error_estimate + tol * abs(vf)


# one member per route, the last on a template path of the reciprocal-Airy route
ROUTE_TS = np.array([0.01, 1 + 0.5j, 5 * np.exp(2.3j), -12.0,
                     -7.174067330673176 - 3.5401635463588197j])
# 30 lit-sector points where the caret function is ~e^-10 to e^-27, and
# three where its lit model exceeds 1, so the rows are scaled by e^-shift
_R, _TH = np.meshgrid(np.linspace(6.0, 7.0, 5), np.linspace(-2.9, -2.3, 6))
FORKED_TS = np.concatenate((_R.ravel() * np.exp(1j * _TH.ravel()),
                            [-6.5 + 1j, -7.0 + 0.3j, -8.0 + 0.5j]))


def test_caret_many_matches_scalar():
    # one batch mixing the residue sector, L, the forked form and the pole split
    ts = np.array([0.4 * np.exp(0.3j), -1.5 + 0.2j, 3 * np.exp(-0.9j),
                   -7.0 + 0j, 0.02 + 0.01j])
    lv, lr = pk.caret_log_many(ts, pk.DIRICHLET)
    for t, v in zip(ts, np.exp(lv)):
        ref = pk.pekeris_caret(complex(t)).value
        assert abs(v - ref) <= 1e-9 * max(1.0, abs(ref))


def test_caret_log_many_matches_scalar():
    ts = np.array([-10.07 - 1.5j, -9.5 + 0.3j, 2.0 + 1.0j, -4.0 + 0j])
    lv, lr = pk.caret_log_many(ts, pk.DIRICHLET)
    for t, l in zip(ts, lv):
        ref = np.log(pk.pekeris_caret(complex(t)).value)
        assert abs(l - ref) < 1e-6


def test_one_batch_covers_every_route():
    ts = ROUTE_TS
    route, template = pk._plan(ts, pk.DIRICHLET)
    routes = [pk.ROUTES[r] for r in route]
    assert routes == ["pole_split", "residue_series", "reciprocal_airy_contour",
                      "forked_contour", "reciprocal_airy_contour"]
    assert template.tolist() == [False, False, False, False, True]
    lv, lr = pk.caret_log_many(ts, pk.DIRICHLET)
    for t, route, l, rel in zip(ts, routes, lv, lr):
        ev = pk.pekeris_caret(complex(t))
        assert ev.representation_used == route
        assert abs(l - np.log(ev.value)) < 1e-12
        assert rel == pytest.approx(ev.error_estimate / abs(ev.value), rel=1e-12)


def test_forked_error_estimate_covers_arm_quadrature():
    # a lit-sector point where the forked form's cancellation floor alone
    # under-states its deviation from the reciprocal-Airy integral
    t = -3.1715064951724337 - 5.0932844561323165j
    opts = QuadOptions()
    b2, b3, _ = pk._forked_angles(t)
    v_f, e_f = pk._caret_forked(t, pk.DIRICHLET, opts, b2, b3)
    v_r, e_r = pk._caret_reciprocal(t, pk.DIRICHLET, opts)
    assert abs(v_f - v_r) <= e_f + e_r


def test_planner_conditions_on_the_lit_formula():
    # the planner reads ln|caret| from caret_lit_log_asymptotic, its
    # 1/(2 sqrt(pi)) included: at t = -4-4i that puts L past COND_L, and the
    # forked form it takes instead agrees with L within the summed estimates
    t = -4 - 4j
    assert pk._plan(np.array([t]), pk.DIRICHLET)[0].tolist() == [pk._FORKED]
    ev = pk.pekeris_caret(t)
    v_l, e_l = pk._caret_reciprocal(t, pk.DIRICHLET, QuadOptions())
    assert ev.representation_used == "forked_contour"
    assert abs(ev.value - v_l) <= ev.error_estimate + e_l


def test_lit_formula_zero_is_silent():
    # the Robin(1+i) boundary factor vanishes at t = 2i alpha/beta = -2+2i,
    # a point of the default table grid: the log of the lit model is -inf
    # there, and no evaluation warns under numpy's default error handling
    # (set here, whatever error state the process runs with)
    bc = pk.robin(1 + 1j)
    with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        assert pk.caret_lit_log_asymptotic(np.array([-2 + 2j]), bc).real[0] == -np.inf
        ev = pk.pekeris_caret(-2 + 2j, bc)
    assert np.isfinite(ev.value) and np.isfinite(ev.error_estimate)


def _on_templates(ts, bc, opts=QuadOptions()):
    """The reciprocal-Airy executor's (values, estimates) with every member
    of ``ts`` on the template path of its lattice cell."""
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    vals, errs, _ = pk._run_reciprocal(ts, bc, opts, None, np.ones(ts.shape, dtype=bool))
    return vals, errs


def _on_own_path(t, bc, opts):
    """(value, estimate) of the reciprocal-Airy integral of t on its own
    saddle path, estimated as the executor estimates a template member."""
    a = pk.EMIP6 * t
    (v,), (err,), _ = integrate_exp_batch(lambda eta: pk._reciprocal_weight(eta, bc), a,
                                          -a ** 3 / 12, pk._saddle_path(a, opts.truncation_tail_tol),
                                          opts)
    scale = -np.exp(a ** 3 / 12) / (4 * math.pi ** 2 * t)
    return scale * v, abs(scale) * (err + 2.0 ** -53 * abs(a) ** 3 * abs(v))


def test_saddle_estimate_carries_its_cut_tails():
    # a template path cuts two branches, and its estimate |pref| (err +
    # 2^-53 |a|^3 |v|) takes the tail tolerance of each from the driver: a
    # loose tolerance moves the value by no more than the summed estimates
    t = complex(ROUTE_TS[4])
    a = pk.EMIP6 * t
    eta = (a / 2) ** 2
    pref = abs(np.exp(a * eta + 4 / 3 * eta ** 1.5) / (4 * math.pi ** 2 * t))
    (ref,), (ref_err,) = _on_templates(t, pk.DIRICHLET)
    for tol in (1e-12, 1e-6):
        (v,), (err,) = _on_templates(t, pk.DIRICHLET, QuadOptions(truncation_tail_tol=tol))
        assert err >= 2 * pref * tol
        assert abs(v - ref) <= err + ref_err


def test_saddle_route_refuses_the_residue_sector():
    # for -pi/3 < arg t < 2pi/3 a saddle path misses the residues of the
    # impedance roots between it and L: at Dirichlet t = 4 e^{-0.196i} it
    # returned -2.5e-10 with an estimate of 5e-21, where the residue series
    # and L agree on -1.719e-4-2.277e-4i.  Over the plane out to |t| = 14
    # the planner puts no member on a template inside that sector or with
    # its saddle near the pole line (Re eta* < 0.1|eta*|), where the cap
    # alone would put 5 and 439 of them
    r, th = np.meshgrid(np.linspace(0.5, 14.0, 28), np.linspace(-math.pi, math.pi, 145))
    grid = (r * np.exp(1j * th)).ravel()
    for bc in SADDLE_KINDS:
        _, template = pk._plan(grid, bc)
        on = grid[template]
        eta = (pk.EMIP6 * on / 2) ** 2
        assert on.size > 250
        assert not pk._in_residue_sector(on, 0.0).any()
        assert np.all(eta.real >= 0.1 * np.abs(eta))
    t = 4 * np.exp(-0.196j)
    assert not pk._plan(np.array([t]), pk.DIRICHLET)[1][0]
    v_rec, e_rec = pk._caret_reciprocal(complex(t), pk.DIRICHLET, OPTS)
    ev = pk.pekeris_caret(t, pk.DIRICHLET)
    assert abs(ev.value - v_rec) <= ev.error_estimate + e_rec
    assert abs(ev.value - (-1.719e-4 - 2.277e-4j)) < 1e-6


# lit points on both sides of arg t = 7pi/6, where the branches of a saddle
# path meet the arccos cut, and on it
SADDLE_TS = [r * np.exp(1j * math.radians(deg)) for r in (6.0, 9.0, 12.0)
             for deg in (175.0, 195.0, 245.0, 210.0)]
SADDLE_KINDS = (pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j))


def test_saddle_values_match_the_lit_asymptotics():
    # the lit formula is an independent form of the caret function, good to
    # O(|t|^-3) relative (1.9-2.2/|t|^3 here): the field's own asy_rel bound
    # of 4/|t|^3 holds for the values on the template paths
    for bc in SADDLE_KINDS:
        for t, v, err in zip(SADDLE_TS, *_on_templates(SADDLE_TS, bc)):
            asy = pk.caret_lit_asymptotic(t, bc)
            assert abs(v - asy) <= 4.0 / abs(t) ** 3 * abs(v), (bc.label(), t)
            assert err <= 1e-12 * abs(v)


def test_saddle_path_is_a_steepest_descent_path():
    # along the vertices of the closed-form path Im h is that of the saddle,
    # and Re h falls strictly away from it on each branch, to -drop at both
    # ends; the branch ending lower comes first
    k = pk.SADDLE_POINTS
    for t in SADDLE_TS:
        a = pk.EMIP6 * t
        for tol in (1e-12, 1e-3):
            path = pk._saddle_path(a, tol)
            z = np.array([seg.start for seg in path.segments] + [path.segments[-1].end])
            h = a * z + 4 / 3 * z ** 1.5 - a ** 3 / 12
            assert len(z) == 2 * k + 1 and z[k] == (a / 2) ** 2
            assert np.max(np.abs(h.imag)) <= 1e-14 * abs(a) ** 3
            assert np.all(np.diff(h.real[:k + 1]) > 0) and np.all(np.diff(h.real[k:]) < 0)
            drop = -math.log(tol) + 6.0
            assert h.real[[0, -1]] == pytest.approx([-drop, -drop], abs=1e-12 * drop)
            assert z[0].imag < z[-1].imag
            assert path.truncation_tail == 2 * tol


@pytest.mark.parametrize("bc", SADDLE_KINDS + (pk.robin(2.0),), ids=lambda bc: bc.label())
def test_saddle_path_cut_tail_is_sound(bc):
    # the path run 40 e-folds further moves the integral by less than the
    # tail tolerance it records per cut branch; at tolerance 1e-12 the
    # quadrature noise of |v| ~ 300-900 dominates, so the two quadrature
    # errors are allowed on top
    opts = QuadOptions(rel_tol=1e-14)
    f = lambda eta: pk._reciprocal_weight(eta, bc)
    for t in (SADDLE_TS[5], SADDLE_TS[11]):
        a = pk.EMIP6 * t
        for tol in (1e-12, 1e-9, 1e-6, 1e-3):
            cut, far = (pk._saddle_path(a, tol_) for tol_ in (tol, tol * math.exp(-40.0)))
            (v,), (err,), _ = integrate_exp_batch(f, a, -a ** 3 / 12, cut, opts)
            (v_far,), (err_far,), _ = integrate_exp_batch(f, a, -a ** 3 / 12, far, opts)
            noise = err - cut.truncation_tail + err_far - far.truncation_tail if tol == 1e-12 else 0.0
            assert abs(v_far - v) <= cut.truncation_tail + noise, (t, tol)


# lit points where both template guards pass, drawn from |t| in [4, 14] x
# arg t in [150, 270] degrees (41 x 49), 100 per boundary kind
_R, _TH = np.meshgrid(np.linspace(4.0, 14.0, 41), np.radians(np.linspace(150.0, 270.0, 49)))
_LIT = (_R * np.exp(1j * _TH)).ravel()
_ETA = (pk.EMIP6 * _LIT / 2) ** 2
_LIT = _LIT[~pk._in_residue_sector(_LIT, 0.0) & (_ETA.real >= 0.1 * np.abs(_ETA))]
TEMPLATE_KINDS = SADDLE_KINDS + (pk.robin(2.0),)


@pytest.mark.parametrize("bc", TEMPLATE_KINDS, ids=lambda bc: bc.label())
def test_template_values_match_each_members_own_path(bc):
    # a member on the template path of its lattice cell agrees with the
    # integral on its own saddle path within the summed estimates: off its
    # own path, a member's exponent moves at the path ends by about 8.6|a -
    # a_c| e-folds at tol 1e-12, inside the 6-e-fold margin the path adds
    # to its drop (at a 0.5 lattice 21-44 of the 1353 grid points per kind
    # lie outside)
    opts = QuadOptions(rel_tol=1e-10, abs_tol=3e-11, truncation_tail_tol=1e-6)
    ts = np.random.default_rng(26 + TEMPLATE_KINDS.index(bc)).choice(_LIT, 100, replace=False)
    vals, errs = _on_templates(ts, bc, opts)
    for t, v, err in zip(ts, vals, errs):
        ref, ref_err = _on_own_path(t, bc, opts)
        assert abs(v - ref) <= err + ref_err, t


def test_template_values_do_not_depend_on_the_node_tables(monkeypatch):
    # lit points the planner puts on template paths, in one batch per
    # boundary kind: cold, warm with no panel stored, after a clear, on
    # tables that a small cap clears as they fill, and from four threads
    # switching every microsecond: the same bytes
    ts = np.array([r * np.exp(1j * math.radians(d))
                   for r, d in ((9.0, 210.0), (11.0, 190.0), (11.0, 210.0), (11.0, 230.0))])
    for bc in TEMPLATE_KINDS:
        assert pk._plan(ts, bc)[1].all()

    def run_all():
        return [pk.caret_log_many(ts, bc) for bc in TEMPLATE_KINDS]

    def same(a, b):
        return all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
                   for x, y in zip(a, b))

    pk._NODE_TABLES.clear()
    cold = run_all()
    stored = pk._NODE_TABLES.panels
    assert stored > 0
    runs = [run_all()]                                  # warm
    assert pk._NODE_TABLES.panels == stored             # every panel a hit
    pk._NODE_TABLES.clear()
    runs.append(run_all())
    with monkeypatch.context() as m:
        m.setattr(pk, "NODE_TABLE_CAP", 300)
        pk._NODE_TABLES.clear()
        runs.append(run_all())
        assert 0 < pk._NODE_TABLES.panels <= 300 < stored
    pk._NODE_TABLES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(pk.caret_log_many, ts, bc) for bc in TEMPLATE_KINDS * 2]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    runs += [threaded[:len(TEMPLATE_KINDS)], threaded[len(TEMPLATE_KINDS):]]
    for run in runs:
        assert same(run, cold)


def test_residue_series_sums_at_most_max_terms():
    # a cap below the 20-term block sums that many terms (it summed 20), and
    # a cap below 1 is refused
    t = 0.5 + 0.2j
    eta, coef = pk._residue_data(pk.DIRICHLET, 3)
    for m in (1, 3):
        v, err, ok = pk.caret_residue_series(t, pk.DIRICHLET, rel_tol=0.0, max_terms=m)
        ref = np.sum(coef[:m] * np.exp(pk.EMIP6 * t * eta[:m]))
        assert v[0] == pytest.approx(ref, rel=1e-14) and not ok[0]
    for m in (0, -1):
        with pytest.raises(ValueError, match="max_terms"):
            pk.caret_residue_series(t, pk.DIRICHLET, max_terms=m)


@pytest.mark.parametrize("bc", SADDLE_KINDS, ids=lambda bc: bc.label())
def test_sigma_ratios_same_bits_at_every_call_size(bc):
    # past 16,384 elements numpy multiplies a temporary in place, which
    # rounds differently: one 40,000-node call must give the bytes of forty
    # 1,000-node calls, so a memo entry stored by a large call holds what a
    # fresh evaluation gives
    rng = np.random.default_rng(3)
    z = rng.uniform(-6.0, 6.0, 40_000) + 1j * rng.uniform(-6.0, 6.0, 40_000)
    for parts in (pk.ratio_l2_parts, pk.ratio_l3_parts, pk._reciprocal_weight):
        whole = parts(z, bc)
        chunks = [parts(c, bc) for c in z.reshape(40, 1000)]
        for j in range(2):
            assert np.array_equal(whole[j], np.concatenate([c[j] for c in chunks])), parts


def test_forked_batch_uses_each_members_arms(monkeypatch):
    # All 33 of FORKED_TS share one l3 angle across a wide range of arg t, so
    # that arm's path must be truncated for the group's growth rate, not its
    # largest |t|.
    ts = FORKED_TS
    assert np.all(pk._plan(ts, pk.DIRICHLET)[0] == pk._FORKED)
    # three rows whose lit model exceeds 1 are scaled by e^-shift
    assert np.sum(pk.caret_lit_log_asymptotic(ts, pk.DIRICHLET).real > 0) == 3
    beta2, beta3, _ = pk._fork_rays(ts)
    opts = QuadOptions()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate_exp_batch(*args, **kwargs)

    def refused(*args):
        raise AssertionError("the batch re-ran a member on its own")

    for bc in (pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(pk, "integrate_exp_batch", counted)
            m.setattr(pk, "_caret_forked", refused)
            lv, lr = pk.caret_log_many(ts, bc, opts)
        assert 0 < len(calls) <= np.unique(beta2).size + np.unique(beta3).size
        for t, v, rel in zip(ts, np.exp(lv), lr):
            ref, err = pk._caret_forked(complex(t), bc, opts, *pk._forked_angles(t)[:2])
            assert abs(v - ref) <= rel * abs(v) + err


def test_arm_ratio_decay_bound():
    # |A2-type/A1-type| <= C e^{-(4/3) s^{3/2}} along l2, and the l3 ratio
    # decays the same way along the positive reals
    s = np.linspace(2.0, 12.0, 21)
    w2, e2 = pk.ratio_l2_parts(s * np.exp(2j * math.pi / 3), pk.DIRICHLET)
    w3, e3 = pk.ratio_l3_parts(s + 0j, pk.DIRICHLET)
    r2 = np.abs(w2 * np.exp(e2))
    r3 = np.abs(w3 * np.exp(e3))
    bound = np.exp(-(4.0 / 3.0) * s ** 1.5)
    assert np.all(r2 <= 3.0 * bound)
    assert np.all(r3 <= 3.0 * bound)


def test_pole_split_continuity_on_shrinking_circles():
    # the entire part p(t) = caret(t) - 1/(2 pi i t) has vanishing oscillation
    # on circles |t| = eps as eps -> 0
    def oscillation(eps):
        vals = []
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            t = eps * np.exp(1j * phi)
            vals.append(pk.pekeris_caret(complex(t)).value - 1.0 / (2j * np.pi * t))
        vals = np.array(vals)
        return float(np.max(np.abs(vals - vals.mean())))

    o1, o2 = oscillation(2e-2), oscillation(2e-3)
    assert o2 < o1 < 1e-1
    assert o2 < 1e-2


def test_zero_table_concurrent_extension():
    import threading
    results = []

    def worker(n):
        results.append(_airy_mod.ai_zero(n))

    threads = [threading.Thread(target=worker, args=(55 + i,)) for i in range(6)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(results) == 6 and all(np.isfinite(r) for r in results)


TABLE_BATCHES = [(ROUTE_TS, pk.DIRICHLET), (FORKED_TS, pk.DIRICHLET),
                 (FORKED_TS[::2], pk.NEUMANN), (FORKED_TS[1::2], pk.robin(1 + 1j))]


def test_node_tables_repeat_bit_identical(monkeypatch):
    pk._NODE_TABLES.clear()
    cold = [pk.caret_log_many(ts, bc) for ts, bc in TABLE_BATCHES]
    assert pk._NODE_TABLES.panels > 0
    calls = []

    def counted(z):
        calls.append(np.size(z))
        return airy_scaled_vec(z)

    airy_scaled_vec = _airy_mod.airy_scaled_vec
    monkeypatch.setattr(_airy_mod, "airy_scaled_vec", counted)
    for (ts, bc), (lv, lr) in zip(TABLE_BATCHES, cold):
        warm = pk.caret_log_many(ts, bc)
        assert np.array_equal(warm[0], lv) and np.array_equal(warm[1], lr)
    # a warm batch evaluates no Airy function, on L, the arms or a template
    calls.clear()
    pk.caret_log_many(ROUTE_TS, pk.DIRICHLET)
    pk.caret_log_many(FORKED_TS, pk.DIRICHLET)
    assert calls == []
    # the scalar route evaluates its factors directly and stores nothing
    stored = pk._NODE_TABLES.panels
    pk.pekeris_caret(complex(FORKED_TS[0]), pk.NEUMANN)
    pk.pekeris_caret(5 * np.exp(2.3j), pk.robin(0.3 + 2j))
    assert pk._NODE_TABLES.panels == stored


def test_node_table_hit_needs_the_whole_panel(monkeypatch):
    # requests on one path key: two panels with one midpoint but different
    # widths (float collisions of deeply refined panels), and one whose inner
    # node is an ulp off (one panel reached from two starting widths): each
    # is its own entry, and none gets another's factors; a repeat returns the
    # stored factors, read-only
    tables = pk._NodeTables()
    evaluate = lambda z: (2.0 * z, z.real.copy())
    wide = np.linspace(0.0, 1.0, 15) + 0.5j
    narrow = wide[7] + (wide - wide[7]) / 2
    nudged = wide.copy()
    nudged[3] = complex(np.nextafter(wide[3].real, 1.0), wide[3].imag)
    assert narrow[7] == wide[7] and narrow[0] != wide[0]
    for z in (wide, narrow, nudged, wide, narrow, nudged):
        w, expo = tables.lookup("path", z, evaluate)
        assert np.array_equal(w, 2.0 * z) and np.array_equal(expo, z.real)
        assert not (w.flags.writeable or expo.flags.writeable)
    assert tables.panels == 3
    assert tables.get("path", wide) is not None and tables.get("other", wide) is None
    # a request of more panels than the cap is evaluated but not stored
    monkeypatch.setattr(pk, "NODE_TABLE_CAP", 2)
    tables.clear()
    big = np.concatenate((wide, narrow, nudged))
    w, expo = tables.lookup("path", big, evaluate)
    assert np.array_equal(w, 2.0 * big) and np.array_equal(expo, big.real)
    assert tables.get("path", big) is None and tables.panels == 0


def test_node_tables_threads_match_serial():
    serial = [pk.caret_log_many(ts, bc) for ts, bc in TABLE_BATCHES]
    pk._NODE_TABLES.clear()
    results = {}

    def worker(k, ts, bc):
        results[k] = [pk.caret_log_many(ts, bc) for _ in range(2)]

    # the batches share the Dirichlet L and arm paths, so the threads look
    # up and store panels of the same tables
    threads = [threading.Thread(target=worker, args=(k, ts, bc))
               for k, (ts, bc) in enumerate(TABLE_BATCHES)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k, (lv, lr) in enumerate(serial):
        for got in results[k]:
            assert np.array_equal(got[0], lv) and np.array_equal(got[1], lr)


def test_node_tables_stay_under_their_cap(monkeypatch):
    # caret batches and sigma-plane legs on a memo whose cap clears it as it
    # fills: the same bytes, and ``panels`` within the cap after every put
    pt, cfg = fock.FockPoint(1.0, 1.0), fock.ProblemConfig(pk.robin(1 + 1j))
    ref = [pk.caret_log_many(ts, bc) for ts, bc in TABLE_BATCHES]
    ref_leg = fock.scattered_forked(pt, cfg)
    cap, sizes = 64, []

    class Counted(pk._NodeTables):
        def put(self, *args):
            entry = super().put(*args)
            sizes.append(self.panels)
            return entry

    monkeypatch.setattr(pk, "NODE_TABLE_CAP", cap)
    monkeypatch.setattr(pk, "_NODE_TABLES", Counted())
    for _ in range(2):
        for (ts, bc), (lv, lr) in zip(TABLE_BATCHES, ref):
            got = pk.caret_log_many(ts, bc)
            assert np.array_equal(got[0], lv) and np.array_equal(got[1], lr)
        assert fock.scattered_forked(pt, cfg) == ref_leg
    assert sizes and max(sizes) <= cap


# seeded points |t| <= 8 over the whole plane, for each boundary kind; the
# Robin impedances include three whose escaping first root comes within 1 of
# the upper ray of L
TAIL_KINDS = (pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j), pk.robin(1.74 + 0.17j),
              pk.robin(1.92 + 0.52j), pk.robin(0.5 + 1.8j))
_TAIL_RNG = np.random.default_rng(14)
TAIL_TS = 8.0 * np.sqrt(_TAIL_RNG.uniform(0.0, 1.0, 12)) * np.exp(
    1j * _TAIL_RNG.uniform(-math.pi, math.pi, 12))


@pytest.mark.parametrize("bc", TAIL_KINDS, ids=lambda bc: bc.label())
def test_caret_tail_cut_is_sound(bc):
    # L and the forked arms cut at tail tolerances 1e-12 and 1e-8 agree with
    # the same route cut at 1e-22 within the summed estimates: each cut ray's
    # tail bound carries the members' factor at the ray origin, and each
    # estimate carries one tail tolerance per ray
    tight = QuadOptions(truncation_tail_tol=1e-22)
    for t in map(complex, TAIL_TS):
        beta2, beta3, _ = pk._forked_angles(t)
        for route in (lambda o: pk._caret_reciprocal(t, bc, o),
                      lambda o: pk._caret_forked(t, bc, o, beta2, beta3)):
            ref, ref_err = route(tight)
            for tol in (1e-12, 1e-8):
                v, err = route(QuadOptions(truncation_tail_tol=tol))
                assert abs(v - ref) <= err + ref_err, (t, tol)


CUT_KINDS = (pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j), pk.robin(2), pk.robin(3))
# near 0, in the residue sector and in the lit sector
CUT_TS = (-0.5j, cmath.exp(-1j * math.pi / 6), cmath.exp(-5j * math.pi / 6))


@pytest.mark.parametrize("bc", CUT_KINDS, ids=lambda bc: bc.label())
def test_every_caret_family_cut_tail_holds(bc):
    # each caret family (L, the default arms, the grid arms of the lit t), cut
    # at tail tolerance tol and 40 e-folds further, gives integrals within one
    # tol per cut ray of each other: each family's tail scale is measured from
    # its own factor on its own rays (under a declared arm scale of 10,
    # Robin(2) on the default arms at tol 1e-3 moved 2.2 times its two tails)
    beta2, beta3, _ = pk._forked_angles(CUT_TS[2])
    families = (  # each integral pair, from the route's value
        lambda t, o: pk._run_reciprocal(np.array([t]), bc, o)[0][0] * -4 * math.pi ** 2 * t,
        lambda t, o: pk._entire(np.array([t]), bc, o)[0][0] * 2 * math.pi,
        lambda t, o: pk._entire(np.array([t]), bc, o, beta2, beta3)[0][0] * 2 * math.pi)
    for tol in (1e-9, 1e-6, 1e-3):
        loose, deep = (QuadOptions(rel_tol=1e-12, truncation_tail_tol=x)
                       for x in (tol, tol * math.exp(-40)))
        for t in CUT_TS:
            for k, family in enumerate(families):
                assert abs(family(t, loose) - family(t, deep)) <= 2 * tol, (k, t, tol)


def test_a_pole_on_a_sampled_ray_is_refused():
    # a factor with a pole on the sampled ray (at s = 2 on the ray at angle
    # 0) has no finite tail scale: the family raises SectorError naming the
    # ray instead of cutting it
    def pole(z, bc):
        return np.where(z == 2.0, np.inf, 1.0).astype(complex), -4.0 / 3.0 * np.abs(z) ** 1.5

    def unused(z, bc):
        raise AssertionError("a ray without decay is measured")

    args = (np.zeros((1, 1)), np.array([1j]), 0.0, QuadOptions())
    with pytest.raises(pk.SectorError, match="angle 0.0 from 0"):
        pk._ray_family(pole, pk.DIRICHLET, None, (), ContourPath((Ray(0.0, 0.0),)), *args)
    # a ray without Airy decay is refused before it is measured
    with pytest.raises(pk.SectorError, match="no ratio decay"):
        pk._ray_family(unused, pk.DIRICHLET, None, (),
                       ContourPath((Ray(0.0, math.pi / 3),)), *args)


@pytest.mark.parametrize("call", [
    lambda: pk.pekeris_caret(complex(math.nan, 0.0)),
    lambda: pk.pekeris_caret(math.inf),
    lambda: pk.pekeris_caret(complex(1.0, -math.inf), pk.robin(1 + 1j)),
    lambda: pk.caret_log_many([math.nan, 1.0]),
    lambda: pk.pekeris_entire(math.nan),
], ids=["caret-nan", "caret-inf", "caret-robin-inf", "log-many-nan", "entire-nan"])
def test_caret_entries_refuse_a_non_finite_t(call):
    # the input is named before any planning, with no numpy warning on the
    # way (they gave a QuadratureError naming a node, or an OverflowError)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t = .* is not finite"):
            call()


# Robin points of the caret_sheet benchmark (seeds 7, 9, 10, 31, 34, 52),
# whose escaping first root comes within 1 of the upper ray of L: an L cut
# with a fixed tail scale of 50, without the members' factor at the vertex
# and without the tail tolerance in its estimate misses the residue series
# by 1.8-20 times the summed estimates
ROBIN_NEAR_L = [
    (1.7426032055346703 + 0.1651353848889161j, 1.9313507008533015 + 0.04341749562038999j),
    (1.7426032055346703 + 0.1651353848889161j, 1.1628353702515928 + 2.095624243614046j),
    (1.874578524818862 + 0.5299395941241382j, 3.2555674434353117 - 0.9115287797594562j),
    (1.9237494617153463 + 0.5196341230452494j, 2.8305033698775324 + 0.02661927589756886j),
    (1.5336692500978915 + 0.17672371096305545j, 1.8206053733157146 + 2.608036226677692j),
    (1.6277127424572821 + 0.22846051175554746j, 2.9962787222710467 - 0.018445722671776046j),
    (1.5258805562738174 + 1.166534828409185j, 2.6667091410853137 - 0.010905238578931543j),
    (1.8425459087616036 + 0.14797150245118199j, 1.6946978461924413 + 2.9591747644282025j),
]


@pytest.mark.parametrize("mu,t", ROBIN_NEAR_L)
def test_robin_residue_series_matches_l_near_an_escaping_root(mu, t):
    bc = pk.robin(mu)
    v_res, e_res, ok = pk.caret_residue_series(t, bc)
    v_l, e_l = pk._caret_reciprocal(t, bc, QuadOptions())
    assert ok[0]
    assert abs(complex(v_res[0]) - v_l) <= e_res[0] + e_l
