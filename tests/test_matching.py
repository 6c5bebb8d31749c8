import cmath
import math

import numpy as np
import pytest
from scipy import special

from tangentray import fock
from tangentray import matching as mt
from tangentray import pekeris as pk
from tangentray.contours import named_contour

from _oracles import GAUSS_FRESNEL

P0 = 0.09987963860718058 + 0.17299660870925468j  # entire part at 0 (regression)


def test_fresnel_at_zero():
    # Fr(0) = (e^{-i pi/4}/sqrt(pi)) * int_0^inf e^{i z^2} dz = 1/2
    expect = cmath.exp(-1j * math.pi / 4) / math.sqrt(math.pi) * GAUSS_FRESNEL
    assert expect == pytest.approx(0.5, abs=1e-15)
    assert mt.fresnel(0.0) == pytest.approx(0.5, abs=1e-13)


def test_fresnel_against_erfc():
    for z in (3.0 - 1.0j, -10.0, 0.3 + 2.0j, 5.0):
        ref = 0.5 * special.erfc(cmath.exp(-1j * math.pi / 4) * z)
        assert mt.fresnel(z) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_fresnel_large_argument_forms():
    z = 10.0
    tail = np.exp(1j * z * z) * np.exp(1j * math.pi / 4) / (2 * math.sqrt(math.pi) * z)
    # printed-order forms carry a relative error 1/(2 z^2)
    assert abs(mt.fresnel(z) - tail) <= 1.2 / (2 * z * z) * abs(tail)
    z = -10.0
    assert abs(mt.fresnel(z) - (1.0 + np.exp(1j * z * z) * np.exp(1j * math.pi / 4)
                                / (2 * math.sqrt(math.pi) * z))) <= 1.2 / (2 * z * z) * abs(tail)


def test_reflected_outer_amplitude():
    pt = mt.OuterPoint(-1.0, 0.5, 100.0)
    v = mt.reflected_outer(pt, pk.DIRICHLET)
    s = math.sqrt(1 + 1.5)
    assert abs(v) == pytest.approx((1 / math.sqrt(3)) * (1 + 1 / s) ** 0.5, rel=1e-12)
    # Robin reflection factor interpolates the Dirichlet and Neumann signs
    d = mt.reflected_outer(pt, pk.DIRICHLET)
    n = mt.reflected_outer(pt, pk.NEUMANN)
    assert mt.reflected_outer(pt, pk.robin(1e9)) == pytest.approx(d, rel=1e-5)
    assert mt.reflected_outer(pt, pk.robin(1e-9)) == pytest.approx(n, rel=1e-5)
    with pytest.raises(mt.RegimeError):
        mt.reflected_outer(mt.OuterPoint(1.0, 0.0, 100.0), pk.DIRICHLET)


def test_transition_g_pole_behaviour():
    lim = math.sqrt(2 * math.pi) * cmath.exp(3j * math.pi / 4) * (-1 / (2j * math.pi))
    xi = 1e-3
    assert abs(xi * mt.transition_g(xi) - lim) <= 2e-3 * abs(lim)
    with pytest.raises(pk.PoleError):
        mt.transition_g(0.0)


def test_transition_g_tilde_value_and_identity():
    gt0 = mt.transition_g_tilde(0.0, pk.DIRICHLET)
    pref = math.sqrt(2 * math.pi) * cmath.exp(3j * math.pi / 4)
    assert gt0 == pytest.approx(pref * P0, abs=1e-9)
    xi = 1.5
    g = mt.transition_g(xi)
    gt = mt.transition_g_tilde(xi)
    corr = pref * np.exp(-1j * xi ** 3 / 3) * np.exp(1j * xi ** 3 / 3) / (2j * math.pi * xi)
    assert gt == pytest.approx(g + corr, abs=1e-10)
    # continuity: g~ is entire with |g~'(0)| ~ 0.2, so the increment is O(xi)
    assert abs(mt.transition_g_tilde(1e-4) - gt0) <= 5e-5


def test_penumbra_mode_algebra():
    pt = mt.PenumbraPoint(1.0, 0.4, 1e4)
    uni = mt.penumbra_field(pt, pk.DIRICHLET, "uniform")
    iv = mt.penumbra_field(pt, pk.DIRICHLET, "iv")
    T = np.exp(1j * 1e4 ** (1 / 3) * 0.4 ** 2 / 2.0) / (1e4 ** (1 / 6))
    gt = mt.transition_g_tilde(0.4)
    assert uni - iv == pytest.approx(T * gt, abs=1e-12)


def test_penumbra_overlap_consistency():
    # region V_upper and the uniform formula agree once Fr is in its tail
    k = 1e4
    pt = mt.PenumbraPoint(1.0, 1.2, k)
    vu = mt.penumbra_field(pt, pk.DIRICHLET, "vupper")
    uni = mt.penumbra_field(pt, pk.DIRICHLET, "uniform")
    z = -pt.y_check / math.sqrt(2.0)
    # matching holds to the printed order of the Fr expansion
    assert abs(vu - uni) <= 2.0 / z ** 2
    with pytest.raises(mt.RegimeError):
        mt.penumbra_field(pt, pk.DIRICHLET, "vlower")


def test_pole_gaussian_identity():
    for ts in (cmath.exp(-3j * math.pi / 4), 0.5 + 1.2j, -2.0 - 0.3j):
        left, right = mt.pole_gaussian_identity(ts)
        assert abs(left - right) < 1e-8
    # the Heaviside term is the only discontinuity between the half-planes:
    # crossing Im tau* = 0 adds 2 pi i e^{-tau*^2}
    up = mt.pole_gaussian_identity(1.0 + 1e-3j)
    dn = mt.pole_gaussian_identity(1.0 - 1e-3j)
    jump = (up[1] - dn[1]) - 2j * math.pi * np.exp(-(1.0 + 0j) ** 2)
    assert abs(jump) < 1e-2
    with pytest.raises(mt.RegimeError):
        mt.pole_gaussian_identity(1.0)


def test_pole_gaussian_large_argument():
    ts = 6.0 * cmath.exp(-3j * math.pi / 4)
    left, right = mt.pole_gaussian_identity(ts)
    assert abs(left - right) < 1e-8
    assert left == pytest.approx(-math.sqrt(math.pi) / ts, rel=0.05)


def test_creeping_boundary_values():
    # Dirichlet layer profile vanishes on the boundary (Ai(eta_0) = 0)
    v = mt.creeping_inner(0.2, 0.0, 1e4, pk.DIRICHLET)
    scale = abs(mt.creeping_inner(0.2, 1.0, 1e4, pk.DIRICHLET))
    assert abs(v) <= 1e-10 * scale
    # modulus decays along the boundary layer
    mags = [abs(mt.creeping_inner(x, 0.5, 1e4, pk.DIRICHLET))
            for x in (0.1, 0.2, 0.3)]
    assert mags[0] > mags[1] > mags[2]
    with pytest.raises(mt.RegimeError):
        mt.creeping_inner(-1.0, 0.5, 1e4, pk.DIRICHLET)


# each of these returned a value (complex from k^(1/6) of a negative k, or
# NaN) instead of refusing the point
OUT_OF_DOMAIN = [
    lambda: mt.penumbra_field(mt.PenumbraPoint(1.0, 0.5, k=-1.0)),
    lambda: mt.penumbra_field(mt.PenumbraPoint(1.0, 0.5, k=0.0)),
    lambda: mt.penumbra_field(mt.PenumbraPoint(1.0, math.nan, 1e4)),
    lambda: mt.penumbra_field(mt.PenumbraPoint(1.0, 0.5, math.inf)),
    lambda: mt.creeping_inner(1.0, 0.5, k=-1.0),
    lambda: mt.creeping_inner(1.0, 0.5, k=0.0),
    lambda: mt.creeping_inner(math.inf, 0.5, 1e4),
    lambda: mt.creeping_inner(1.0, math.nan, 1e4),
    lambda: mt.reflected_outer(mt.OuterPoint(math.nan, 0.5, 1e4)),
    lambda: mt.reflected_outer(mt.OuterPoint(-1.0, math.inf, 1e4)),
]


@pytest.mark.parametrize("call", OUT_OF_DOMAIN, ids=[
    "penumbra-k-neg", "penumbra-k-zero", "penumbra-y-nan", "penumbra-k-inf", "creeping-k-neg",
    "creeping-k-zero", "creeping-x-inf", "creeping-n-nan", "outer-x-nan", "outer-y-inf"])
def test_matching_refuses_points_outside_its_domain(call):
    with pytest.raises(ValueError, match="not finite|k must be positive"):
        call()


def test_creeping_matches_field():
    k = 1e4
    for bc in (pk.DIRICHLET, pk.NEUMANN):
        cfg = fock.ProblemConfig(bc)
        rels = []
        for xh in (4.0, 6.0):
            a = fock.total_new(fock.FockPoint(xh, 0.5 - xh * xh / 4), cfg).amplitude
            cr = mt.creeping_inner(xh * k ** (-1 / 3), 0.5, k, bc)
            rels.append(abs(a - cr) / abs(cr))
        assert rels[1] < rels[0] < 0.1


def test_i_sigma_identity_and_remainder():
    t = 1.0
    r25 = mt.i_sigma_remainder(t, 25.0)
    r100 = mt.i_sigma_remainder(t, 100.0)
    assert 1.3 <= r25 / r100 <= 2.9  # O(Sigma^{-1/2})
    # the explicit endpoint term carries the e^{-i t Sigma} phase
    v = mt.i_sigma(t, 25.0)
    caret = pk.pekeris_caret(complex(t)).value
    endpoint = np.exp(-1j * t * 25.0) / (2j * math.pi * t)
    assert abs(v - caret + endpoint) <= 3.0 / math.sqrt(25.0)
    with pytest.raises(mt.RegimeError):
        mt.i_sigma(-30.0, 25.0)


@pytest.mark.parametrize("t, Sigma, name", [
    (1.0, math.inf, "Sigma"), (1.0, math.nan, "Sigma"),
    (math.nan, 25.0, "t"), (math.inf, 25.0, "t"), (-math.inf, 25.0, "t")])
def test_i_sigma_rejects_non_finite_arguments(t, Sigma, name):
    for f in (mt.i_sigma, mt.i_sigma_remainder):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            f(t, Sigma)


@pytest.mark.parametrize("call, name", [
    (lambda: mt.fresnel(math.nan), "z"),
    (lambda: mt.fresnel(math.inf), "z"),
    (lambda: mt.pole_gaussian_identity(complex(math.nan, 1.0)), "tau_star"),
    (lambda: pk.caret_lit_asymptotic(-math.inf, pk.DIRICHLET), "t"),
    (lambda: pk.pekeris_entire(0.5, beta2=math.nan), "beta2"),
    (lambda: pk.pekeris_entire(0.5, beta3=math.inf), "beta3"),
    (lambda: named_contour("L", math.nan), "clearance"),
], ids=["fresnel-nan", "fresnel-inf", "pole-gaussian-nan", "lit-asymptotic-inf",
        "entire-beta2-nan", "entire-beta3-inf", "contour-clearance-nan"])
def test_entry_points_name_a_non_finite_argument(call, name):
    # a typed error naming the argument, before any quadrature, Airy call
    # or numpy warning (ContourError is a ValueError)
    with pytest.raises(ValueError, match=rf"\b{name}\b.*(not finite|must be finite)"):
        call()
