import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from tangentray import airy as ta

from _oracles import AI0, AIP0, airy_series, asym_scaled_reference, bisect_airy_zero

ETA0 = -2.3381074104597670   # bisection on the series oracle
ETA1 = -4.0879494441309706
ETAP0 = -1.0187929716474771


def test_value_at_origin():
    v = ta.airy_maclaurin(0.0)
    assert v.value == pytest.approx(AI0, abs=1e-15)
    assert v.derivative == pytest.approx(AIP0, abs=1e-15)
    assert abs(v.value - 0.3550280539) < 1e-9
    assert abs(v.derivative - (-0.2588194038)) < 1e-9


def test_series_vanishes_at_first_zero():
    eta0 = bisect_airy_zero(-3.0, -2.0)
    assert eta0 == pytest.approx(ETA0, abs=1e-12)
    assert abs(ta.airy_maclaurin(eta0).value) <= 1e-12


def test_series_radius_enforced():
    with pytest.raises(ta.AiryDomainError):
        ta.airy_maclaurin(9.0)


def test_ode_residual_finite_difference():
    # centred second difference of Ai converges to z*Ai at O(h^2)
    z = 1.0 + 0.3j
    errs = []
    for h in (1e-2, 5e-3):
        d2 = (ta.airy(z + h).value - 2 * ta.airy(z).value + ta.airy(z - h).value) / h ** 2
        errs.append(abs(d2 - z * ta.airy(z).value))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_asymptotic_exponential_sector():
    z = 20.0
    v = ta.airy_asymptotic(z)
    lead = np.exp(-(2 / 3) * z ** 1.5) / (2 * math.sqrt(math.pi) * z ** 0.25)
    assert v.value == pytest.approx(lead, rel=1e-12)
    ref = special.airy(z)[0]
    assert abs(v.value - ref) / abs(ref) < 1.0 / z ** 1.5


def test_asymptotic_oscillatory_two_term():
    z = -20.0
    v = ta.airy_asymptotic(z)
    ref, refp = special.airy(z)[0], special.airy(z)[1]
    # two printed terms: relative accuracy O(|z|^-3)
    assert abs(v.value - ref) / abs(ref) < 5.0 / abs(z) ** 3
    assert abs(v.derivative - refp) / abs(refp) < 5.0 / abs(z) ** 3


def test_asymptotic_radius_and_sector_errors():
    with pytest.raises(ta.AiryDomainError):
        ta.airy_asymptotic(1.0)


def test_handover_agreement():
    for th in (math.pi / 3, math.pi / 2, 2.2, -1.9):
        z = 7.5 * np.exp(1j * th)
        a = ta.airy_maclaurin(z)
        b = ta.airy(z)
        assert abs(a.value - b.value) <= 1e-9 * abs(b.value)


def test_dispatch_against_amos():
    pts = []
    for r in (0.5, 2.0, 5.0, 7.0, 8.2, 9.0, 15.0, 30.0):
        for th in np.linspace(-math.pi * 0.999, math.pi * 0.999, 23):
            pts.append(r * np.exp(1j * th))
    pts = np.array(pts)
    ai, aip = ta.airy_vec(pts)
    ref, refp = special.airy(pts)[0], special.airy(pts)[1]
    assert np.max(np.abs(ai - ref) / np.abs(ref)) < 5e-10
    assert np.max(np.abs(aip - refp) / np.abs(refp)) < 5e-10


def test_rotated_family():
    z = 0.7 + 0.2j
    assert ta.rotated(0, z).value == ta.airy(z).value
    vals = [ta.rotated(j, z) for j in range(3)]
    # connection formula: exact cancellation
    s = sum(v.value for v in vals)
    assert abs(s) <= 1e-11 * max(abs(v.value) for v in vals)
    # Wronskian i/(2 pi) for each cyclic pair
    for j in range(3):
        a, b = vals[j], vals[(j + 1) % 3]
        w = b.derivative * a.value - b.value * a.derivative
        assert w == pytest.approx(1j / (2 * math.pi), abs=1e-10)


def test_connection_random_points():
    rng = np.random.default_rng(5)
    z = rng.uniform(-10, 10, 30) + 1j * rng.uniform(-10, 10, 30)
    z = z[np.abs(z) <= 10]
    # scaled A_j = w^j Ai(w^j z), w = e^{2 pi i/3}, as (value, expo)
    vals = []
    for j in range(3):
        w = np.exp(2j * math.pi * j / 3)
        a, _, e = ta.airy_scaled_vec(w * z)
        vals.append((w * a, e))
    big = np.max([v[1] for v in vals], axis=0)
    total = sum(v[0] * np.exp(v[1] - big) for v in vals)
    scale = np.max([np.abs(v[0] * np.exp(v[1] - big)) for v in vals], axis=0)
    assert np.max(np.abs(total) / scale) < 1e-10


def test_zero_tables():
    assert ta.ai_zero(0) == pytest.approx(ETA0, abs=1e-12)
    assert ta.ai_zero(1) == pytest.approx(ETA1, abs=1e-12)
    assert ta.ai_prime_zero(0) == pytest.approx(ETAP0, abs=1e-12)
    zs = ta.ai_zeros(30)
    assert np.all(np.diff(zs) < 0)
    residuals = np.abs(ta.airy_vec(zs.astype(complex))[0])
    assert np.max(residuals) <= 1e-11


def test_zero_interlacing():
    zs = ta.ai_zeros(10)
    zps = ta.ai_prime_zeros(10)
    # |eta'_0| < |eta_0| < |eta'_1| < |eta_1| < ...
    merged = np.empty(20)
    merged[0::2] = np.abs(zps)
    merged[1::2] = np.abs(zs)
    assert np.all(np.diff(merged) > 0)


def test_robin_root_neumann_reduction():
    r = ta.robin_root(2, 0.0)
    assert r.root == pytest.approx(ta.ai_prime_zero(2), abs=1e-12)


def test_robin_root_residual():
    mu = 1 + 1j
    r = ta.robin_root(0, mu)
    v = ta.airy(r.root)
    f = mu * np.exp(1j * math.pi / 3) * v.value + v.derivative
    scale = max(abs(mu * v.value), abs(v.derivative))
    assert abs(f) <= 1e-10 * max(1.0, scale)


def test_robin_root_dirichlet_limit():
    # along absorbing directions the leading root approaches the first Ai zero
    # at the rate |eta - eta_0| ~ 1/|mu|; for real mu the continuation instead
    # escapes along the reactive surface-wave branch eta ~ mu^2 e^{2i pi/3}
    r = ta.robin_root(0, 50j)
    assert abs(r.root - ETA0) < 0.05
    r2 = ta.robin_root(0, 20.0)
    assert abs(abs(r2.root) - 400.0) < 5.0
    assert np.angle(r2.root) == pytest.approx(2 * math.pi / 3, abs=0.01)


def test_series_oracle_consistency():
    for z in (0.9 - 0.4j, -2.0 + 1.0j, 3.0):
        mine = ta.airy_maclaurin(z)
        oa, oap = airy_series(z)
        assert mine.value == pytest.approx(oa, rel=2e-13, abs=1e-15)
        assert mine.derivative == pytest.approx(oap, rel=2e-13, abs=1e-15)


def test_scaled_vec_threads_match_serial():
    # every evaluation band, the far asymptotic band included
    rng = np.random.default_rng(11)
    chunks = [rng.uniform(-r, r, 200) + 1j * rng.uniform(-r, r, 200)
              for r in (3.0, 6.0, 9.0, 20.0) for _ in range(3)]
    serial = [ta.airy_scaled_vec(z) for z in chunks]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ta.airy_scaled_vec, z) for z in chunks * 2]
            threaded = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(old)
    for ref, got in zip(serial * 2, threaded):
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)


def _scale_normalised_error(z, ai, aip, expo):
    ref, refp = special.airy(z)[0], special.airy(z)[1]
    s = np.exp(expo)
    root = np.sqrt(np.maximum(np.abs(z), 1.0))
    num = np.maximum(np.abs(ai * s - ref), np.abs(aip * s - refp) / root)
    return num / np.maximum(np.abs(ref), np.abs(refp) / root)


def test_lattice_against_amos():
    # the Taylor lattice serves |z| <= 8.5: a seeded sweep of the disc, every
    # cell corner (the points farthest from their centres, where the nearest
    # centre is a rounding tie) and both sides of the far-band boundary
    rng = np.random.default_rng(20)
    sweep = 8.5 * np.sqrt(rng.random(20000)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 20000))
    axis = 0.25 + 0.5 * np.arange(-17, 17)
    corners = (axis[None, :] + 1j * axis[:, None]).ravel()
    corners = corners[np.abs(corners) <= 8.5]
    th = np.linspace(-math.pi, math.pi, 181)
    rim = np.concatenate([(8.5 - 1e-9) * np.exp(1j * th), (8.5 + 1e-9) * np.exp(1j * th)])
    z = np.concatenate([sweep, corners, rim])
    err = _scale_normalised_error(z, *ta.airy_scaled_vec(z))
    assert np.max(err) <= 1e-11


def test_lattice_value_independent_of_batch():
    rng = np.random.default_rng(21)
    z = rng.uniform(-9, 9, 1000) + 1j * rng.uniform(-9, 9, 1000)
    batch = ta.airy_scaled_vec(z)
    one = [ta.airy_scaled_vec(z[k:k + 1]) for k in range(z.size)]
    for j in range(3):
        assert np.array_equal(batch[j], np.concatenate([o[j] for o in one]))


def test_nonfinite_arguments_give_nan():
    z = np.array([math.nan, complex(math.nan, 1.0), complex(math.inf, 0.0),
                  complex(-math.inf, math.inf), 1.0 + 0.5j, 20.0])
    ai, aip, expo = ta.airy_scaled_vec(z)
    assert np.all(np.isnan(ai[:4])) and np.all(np.isnan(aip[:4]))
    assert np.all(np.isnan(expo[:4]))
    assert np.all(np.isfinite(ai[4:])) and np.all(np.isfinite(expo[4:]))
    assert np.isnan(ta.airy(math.nan).value)


def test_wedge_impedance_roots_converge():
    # impedances near arg mu_hat = -pi/3, whose leading root continues far
    # into Re eta > 0 (7.908-2.457i for 1.07-2.70i)
    for mu in (1.07 - 2.70j, 1.80 - 2.32j, 1.43 - 4.51j):
        for n in range(4):
            eta = ta.robin_root(n, mu).root
            a, ap = special.airy(eta)[0], special.airy(eta)[1]
            t1 = mu * np.exp(1j * math.pi / 3) * a
            assert abs(t1 + ap) <= 1e-12 * max(abs(t1), abs(ap))


def test_far_value_independent_of_batch():
    # the far band sums each point's own number of asymptotic terms, and one
    # batch mixes every kind of point: lattice, far series, connection
    # formula and non-finite, so callers may merge the arguments of several
    # Airy factors into one call
    rng = np.random.default_rng(1)
    r = np.concatenate([rng.uniform(0.0, 8.5, 1000), rng.uniform(8.6, 30.0, 3000)])
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
    bad = [complex(math.nan, 0.0), complex(math.inf, 1.0), complex(1.0, -math.inf),
           complex(-math.inf, math.nan)]
    z = rng.permutation(np.concatenate([z, bad]))
    finite = np.isfinite(z)
    near = np.abs(z) <= 8.5
    conn = finite & ~near & (np.abs(np.angle(z)) > 2.0 * math.pi / 3.0 - 0.1)
    assert near.sum() > 500 and conn.sum() > 500 and (finite & ~near & ~conn).sum() > 500
    batch = ta.airy_scaled_vec(z)
    one = [ta.airy_scaled_vec(z[k:k + 1]) for k in range(z.size)]
    for j in range(3):
        assert np.array_equal(batch[j], np.concatenate([o[j] for o in one]), equal_nan=True)
    assert np.isnan(batch[2][~finite]).all()


def test_far_series_matches_whole_batch_horner():
    # the far series sorts its points by term count and updates only those
    # still active: bit for bit the whole-batch loop, where every point takes
    # every step with the coefficients past its count set to 0
    rng = np.random.default_rng(7)
    r = 8.5 * np.exp(rng.uniform(0.0, math.log(1000.0), 40000))
    z = r * np.exp(1j * rng.uniform(-2.2, 2.2, r.size))
    ref = asym_scaled_reference(z, ta._UVK, ta._TERM_RADII)
    got = ta._asym_scaled_vec(z)
    for j in range(3):
        assert np.array_equal(got[j], ref[j])


def test_zeros_against_scipy():
    # scipy's own zero table is off by up to 1.0e-12 relative (Ai, n = 4;
    # 2.5e-13 for Ai'), so it only pins the indexing; accuracy is the
    # relative Newton step to the true zero, with scipy's Airy values
    zs, zps = ta.ai_zeros(300), ta.ai_prime_zeros(300)
    ref_ai, ref_aip, _, _ = special.ai_zeros(300)
    assert np.max(np.abs(zs / ref_ai - 1.0)) <= 1e-11
    assert np.max(np.abs(zps / ref_aip - 1.0)) <= 1e-11
    a, ap, _, _ = special.airy(zs)
    assert np.max(np.abs(a / (zs * ap))) <= 1e-13
    a, ap, _, _ = special.airy(zps)
    assert np.max(np.abs(ap / (zps * zps * a))) <= 1e-13


def test_root_independent_of_count(monkeypatch):
    for pair in ((1.0, 0.0), (1 + 1j, 1.0)):
        monkeypatch.setattr(ta, "_ROOTS", {})
        few = ta.impedance_roots(20, *pair).copy()
        monkeypatch.setattr(ta, "_ROOTS", {})
        many = ta.impedance_roots(300, *pair)
        assert np.array_equal(few, many[:20])


def test_negative_root_count_rejected():
    # the tables are sliced by count: after five zeros, a count of -2 would
    # hand back three of them
    ta.ai_zeros(5)
    for roots in (ta.ai_zeros, ta.ai_prime_zeros, lambda n: ta.robin_roots(n, 1 + 1j)):
        with pytest.raises(ValueError):
            roots(-2)
        assert roots(0).size == 0


def test_root_table_threads_match_serial(monkeypatch):
    mu = 0.83 + 0.61j
    monkeypatch.setattr(ta, "_ROOTS", {})
    serial = ta.robin_roots(300, mu)
    monkeypatch.setattr(ta, "_ROOTS", {})
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ta.robin_roots, 300, mu) for _ in range(4)]
            threaded = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(old)
    for got in threaded:
        assert np.array_equal(got, serial)


def test_robin_roots_satisfy_impedance_equation():
    # the residual relative to the larger term is ill-conditioned far out:
    # at n = 299 (|eta| = 126) rounding eta to float64 alone leaves about
    # |eta|/|mu_hat| ulp(eta)/2 ~ 1e-12, so the check is the relative Newton
    # step f/f' to the true root, with scipy's Airy values
    for mu in (1 + 1j, 0.4 - 0.6j):
        eta = ta.robin_roots(300, mu)
        a, ap = special.airy(eta)[0], special.airy(eta)[1]
        e = mu * np.exp(1j * math.pi / 3)
        step = (e * a + ap) / (e * ap + eta * a)
        assert np.max(np.abs(step / eta)) <= 1e-13
        assert np.max(np.abs(e * a + ap) / np.maximum(np.abs(e * a), np.abs(ap))) <= 1e-10
        assert np.unique(eta).size == eta.size
