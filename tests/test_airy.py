import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from tangentray import airy as ta

from _oracles import AI0, AIP0, airy_series, bisect_airy_zero

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
    vals = [ta.rotated_scaled_vec(j, z) for j in range(3)]
    big = np.max([v[2] for v in vals], axis=0)
    total = sum(v[0] * np.exp(v[2] - big) for v in vals)
    scale = np.max([np.abs(v[0] * np.exp(v[2] - big)) for v in vals], axis=0)
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
