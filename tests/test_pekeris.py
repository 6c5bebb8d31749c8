import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentray import airy as _airy_mod
from tangentray import pekeris as pk
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


# one member per route, the last on the traced saddle path
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
    routes = [pk.ROUTES[r] for r in pk._plan(ts, pk.DIRICHLET)]
    assert routes == ["pole_split", "residue_series", "reciprocal_airy_contour",
                      "forked_contour", "traced_saddle"]
    lv, lr = pk.caret_log_many(ts, pk.DIRICHLET)
    for t, route, l, rel in zip(ts, routes, lv, lr):
        ev = pk.pekeris_caret(complex(t))
        # the traced saddle path reports itself as the reciprocal-Airy integral
        assert ev.representation_used == route.replace(
            "traced_saddle", "reciprocal_airy_contour")
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
    assert pk._plan(np.array([t]), pk.DIRICHLET)[0] == pk._FORKED
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


def test_saddle_estimate_carries_its_cut_tails():
    # the traced saddle path cuts two rays, and its estimate |pref| (err +
    # 1e-14 |v|) takes the tail tolerance of each from the driver: a loose
    # tolerance moves the value by no more than the summed estimates
    t = complex(ROUTE_TS[4])
    a = pk.EMIP6 * t
    eta = (a / 2) ** 2
    pref = abs(np.exp(a * eta + 4 / 3 * eta ** 1.5) / (4 * math.pi ** 2 * t))
    ref, ref_err = pk._caret_saddle(t, pk.DIRICHLET, QuadOptions())
    for tol in (1e-12, 1e-6):
        v, err = pk._caret_saddle(t, pk.DIRICHLET, QuadOptions(truncation_tail_tol=tol))
        assert err >= 2 * pref * tol
        assert abs(v - ref) <= err + ref_err


def test_saddle_route_refuses_the_residue_sector():
    # for -pi/3 < arg t < 2pi/3 the traced path misses the residues of the
    # impedance roots between it and L: at this Dirichlet point it returned
    # -2.5e-10 with an estimate of 5e-21, where the residue series and L
    # agree on -1.719e-4-2.277e-4i
    t = 4 * np.exp(-0.196j)
    with pytest.raises(pk.SectorError):
        pk._caret_saddle(t, pk.DIRICHLET, QuadOptions())
    v_rec, e_rec = pk._caret_reciprocal(complex(t), pk.DIRICHLET, OPTS)
    ev = pk.pekeris_caret(t, pk.DIRICHLET)
    assert abs(ev.value - v_rec) <= ev.error_estimate + e_rec
    assert abs(ev.value - (-1.719e-4 - 2.277e-4j)) < 1e-6


def test_forked_batch_uses_each_members_arms(monkeypatch):
    # All 33 of FORKED_TS share one l3 angle across a wide range of arg t, so
    # that arm's path must be truncated for the group's growth rate, not its
    # largest |t|.
    ts = FORKED_TS
    assert np.all(pk._plan(ts, pk.DIRICHLET) == pk._FORKED)
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
    # a warm batch with no traced-saddle member evaluates no Airy function
    calls.clear()
    pk.caret_log_many(ROUTE_TS[:-1], pk.DIRICHLET)
    pk.caret_log_many(FORKED_TS, pk.DIRICHLET)
    assert calls == []
    # the scalar route evaluates its factors directly and stores nothing
    stored = pk._NODE_TABLES.panels
    pk.pekeris_caret(complex(FORKED_TS[0]), pk.NEUMANN)
    pk.pekeris_caret(5 * np.exp(2.3j), pk.robin(0.3 + 2j))
    assert pk._NODE_TABLES.panels == stored


def test_node_table_hit_needs_the_whole_panel():
    # two panels with one midpoint but different widths (float collisions of
    # deeply refined panels), and one whose inner node is an ulp off (one
    # panel reached from two starting widths): neither may get the first
    # one's factors
    tables = pk._NodeTables()
    evaluate = lambda z: (2.0 * z, z.real)
    wide = np.linspace(0.0, 1.0, 15) + 0.5j
    narrow = wide[7] + (wide - wide[7]) / 2
    nudged = wide.copy()
    nudged[3] = complex(np.nextafter(wide[3].real, 1.0), wide[3].imag)
    assert narrow[7] == wide[7] and narrow[0] != wide[0]
    for z in (wide, narrow, nudged, wide, narrow, nudged):
        w, expo = tables.lookup("path", z, evaluate)
        assert np.array_equal(w, 2.0 * z) and np.array_equal(expo, z.real)
    assert tables.panels == 1


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
    ref = [pk.caret_log_many(ts, bc) for ts, bc in TABLE_BATCHES]
    cap = 64
    monkeypatch.setattr(pk, "NODE_TABLE_CAP", cap)
    pk._NODE_TABLES.clear()
    store = pk._NodeTables._store
    sizes = []

    def checked(self, *args):
        store(self, *args)
        sizes.append(self.panels)

    monkeypatch.setattr(pk._NodeTables, "_store", checked)
    for _ in range(2):
        for (ts, bc), (lv, lr) in zip(TABLE_BATCHES, ref):
            got = pk.caret_log_many(ts, bc)
            assert np.array_equal(got[0], lv) and np.array_equal(got[1], lr)
    assert sizes and max(sizes) <= cap
    pk._NODE_TABLES.clear()


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
