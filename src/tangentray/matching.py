"""Outer-region asymptotics and their matching to the Fock-region field.

Covers the illuminated-region reflected wave, the penumbra transition
functions g and g-tilde built on the caret function, the Fresnel-region
formula and its uniform penumbra combination, the creeping-wave (Airy
layer) limit, and the finite-lower-endpoint Fourier integral identity
I_Sigma(t) = caret(t) - e^{-i t Sigma}/(2 pi i t) + O(Sigma^{-1/2}).

Conventions established numerically against the Fock-region quadratures
(three independent contour representations agreeing to ~1e-12):

* the reflected-wave amplitude carries the opposite global sign to the
  illuminated-matching formula as printed in the source analysis;
* the creeping-wave phase factor is exp(-i e^{i pi/3} eta_0 k^{1/3} x / 2):
  the printed version (+i, no 1/2) grows along the boundary instead of
  decaying and does not match any of the field representations;
* the uniform penumbra formula approximates the total amplitude A (its
  lit/shadow limits reproduce the region-V forms of A, not of A - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import airy
from . import fock
from . import pekeris as pk
from .contours import ContourPath, Line, Ray, truncate
from .quadrature import QuadOptions, integrate

SQ_PI = math.sqrt(math.pi)
I_SIGMA_PANEL = 0.5      # starting panel width of the I_Sigma integral
EIP3 = pk.EIP3
EMIP3 = pk.EMIP3


class RegimeError(ValueError):
    """Point outside the asymptotic regime of the requested formula."""


def _require_domain(fields, k: float):
    """Raise ``ValueError`` unless every field of a point is finite and k > 0."""
    if not all(map(math.isfinite, fields)):
        raise ValueError(f"point {tuple(fields)} is not finite")
    if not k > 0:
        raise ValueError("wavenumber k must be positive")


@dataclass(frozen=True)
class OuterPoint:
    x: float
    y: float
    k: float

    def __post_init__(self):
        _require_domain((self.x, self.y, self.k), self.k)


@dataclass(frozen=True)
class PenumbraPoint:
    x: float
    y_tilde: float
    k: float

    def __post_init__(self):
        _require_domain((self.x, self.y_tilde, self.k), self.k)
        if self.x <= 0:
            raise ValueError("penumbra formulas require x > 0")

    @property
    def y_check(self) -> float:
        return self.k ** (1.0 / 6.0) * self.y_tilde


# ---------------------------------------------------------------------------
# Illuminated region
# ---------------------------------------------------------------------------

def reflected_outer(pt: OuterPoint, bc: pk.BoundaryKind = pk.DIRICHLET) -> complex:
    """Inner limit of the specularly reflected wave at an illuminated point.

    Amplitude (1/sqrt(3)) (1 - x/sqrt(x^2+3y))^{1/2} with the phase
    exp(i k (4/27)(-x^3 - (9/2) x y + (x^2+3y)^{3/2})) and the reflection
    prefactor ``reflection_factor(tau_-, alpha/k^{1/3}, beta)``, tau_- the
    real saddle (2/3)(x - sqrt(x^2 + 3y)), of the impedance pair (alpha,
    beta): -1 (Dirichlet), +1 (Neumann),
    (tau_-/2 - i mu/k)/(tau_-/2 + i mu/k) (Robin with mu = k^{2/3} mu_hat).
    """
    x, y, k = pt.x, pt.y, pt.k
    if y <= -x * x / 4.0:
        raise RegimeError("point inside the obstacle")
    # outside the obstacle x^2 + 3y > x^2/4 >= 0: the saddles are real
    tau_minus, _ = fock._saddles(x, y)
    if tau_minus > -1e-3:
        raise RegimeError("saddle too close to the shadow boundary for the "
                          "illuminated-regime formula")
    s = math.sqrt(x * x + 3.0 * y)
    amp = (1.0 / math.sqrt(3.0)) * (1.0 - x / s) ** 0.5
    phase = np.exp(1j * k * (4.0 / 27.0) * (-x ** 3 - 4.5 * x * y + s ** 3))
    alpha, beta = bc.impedance
    pref = pk.reflection_factor(tau_minus, alpha * k ** (-1.0 / 3.0), beta)
    return complex(pref * amp * phase)


# ---------------------------------------------------------------------------
# Fresnel integral
# ---------------------------------------------------------------------------

def fresnel(z: complex, opts: QuadOptions | None = None) -> complex:
    """Fr(z) = (e^{-i pi/4}/sqrt(pi)) int_z^inf e^{i zeta^2} d zeta.

    Quadrature along the steepest ray zeta = z + e^{i pi/4} s, where the
    integrand is a pure Gaussian times a bounded phase; the reflection
    Fr(z) = 1 - Fr(-z) keeps the Gaussian factor decaying when
    Re(e^{-i pi/4} z) < 0.
    """
    z = complex(z)
    if (z * complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))).real < 0.0:
        return 1.0 - fresnel(-z, opts)
    opts = opts or QuadOptions(rel_tol=1e-13, abs_tol=1e-15)
    rot = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    smax = math.sqrt(-math.log(1e-17)) + abs(z) * 1.5 + 2.0
    path = ContourPath((Line(0.0, smax),))

    def f(s):
        zeta = z + rot * s
        return np.exp(1j * zeta * zeta)

    res = integrate(f, path, opts)
    return complex(math.cos(-math.pi / 4), math.sin(-math.pi / 4)) / SQ_PI * rot * res.value


# ---------------------------------------------------------------------------
# Transition functions
# ---------------------------------------------------------------------------

_G_PREF = math.sqrt(2.0 * math.pi) * complex(math.cos(3 * math.pi / 4),
                                             math.sin(3 * math.pi / 4))


def transition_g(xi: float, bc: pk.BoundaryKind = pk.DIRICHLET) -> complex:
    """g(xi) = sqrt(2 pi) e^{3 i pi/4} e^{-i xi^3/3} caret(-xi); pole at 0."""
    if xi == 0:
        raise pk.PoleError("g has a pole at xi = 0; use transition_g_tilde")
    h = pk.pekeris_caret(complex(-xi), bc).value
    return complex(_G_PREF * np.exp(-1j * xi ** 3 / 3.0) * h)


XI_SMALL = 1e-2


def _cubic_pole_factor(xi: float) -> complex:
    """(e^{i xi^3/3} - 1)/(2 pi i xi), by its series below XI_SMALL where the
    direct form cancels."""
    if xi == 0.0:
        return 0j
    if abs(xi) < XI_SMALL:
        w = 1j * xi ** 3 / 3.0
        return complex(w * (1.0 + w / 2.0 + w * w / 6.0 + w ** 3 / 24.0)
                       / (2j * math.pi * xi))
    return complex((np.exp(1j * xi ** 3 / 3.0) - 1.0) / (2j * math.pi * xi))


def transition_g_tilde(xi: float, bc: pk.BoundaryKind = pk.DIRICHLET) -> complex:
    """Pole-free transition function
    g~(xi) = sqrt(2 pi) e^{3 i pi/4} e^{-i xi^3/3} [entire(-xi) + (e^{i xi^3/3}-1)/(2 pi i xi)]."""
    ent = pk.pekeris_entire(complex(-xi), bc)
    if xi == 0:
        corr = 0.0j
    else:
        corr = _cubic_pole_factor(xi)
    return complex(_G_PREF * np.exp(-1j * xi ** 3 / 3.0) * (ent + corr))


# ---------------------------------------------------------------------------
# Penumbra field
# ---------------------------------------------------------------------------

PENUMBRA_MODES = ("vupper", "iv", "vlower", "uniform")


def penumbra_field(pt: PenumbraPoint, bc: pk.BoundaryKind = pk.DIRICHLET,
                   mode: str = "uniform") -> complex:
    """Total amplitude A in the penumbra, by the requested approximation.

    vupper: 1 + T g(y~/x); iv: Fr(-y_check/sqrt(2x)); vlower: T g(y~/x);
    uniform: Fr(-y_check/sqrt(2x)) + T g~(y~/x), where
    T = e^{i k^{1/3} y~^2/(2x)} / (k^{1/6} sqrt(x)).
    """
    if mode not in PENUMBRA_MODES:
        raise ValueError(f"mode must be one of {PENUMBRA_MODES}")
    x, yt, k = pt.x, pt.y_tilde, pt.k
    fr_arg = -pt.y_check / math.sqrt(2.0 * x)
    if mode == "iv":
        return fresnel(fr_arg)
    T = np.exp(1j * k ** (1.0 / 3.0) * yt ** 2 / (2.0 * x)) / (k ** (1.0 / 6.0) * math.sqrt(x))
    if mode == "uniform":
        return complex(fresnel(fr_arg) + T * transition_g_tilde(yt / x, bc))
    g = transition_g(yt / x, bc)
    if mode == "vupper":
        if yt <= 0:
            raise RegimeError("region V_upper requires y~ > 0")
        return complex(1.0 + T * g)
    if yt >= 0:
        raise RegimeError("region V_lower requires y~ < 0")
    return complex(T * g)


def penumbra_direct(pt: PenumbraPoint, bc: pk.BoundaryKind = pk.DIRICHLET,
                    opts: QuadOptions = fock.DEFAULT_OPTS) -> complex:
    """Total amplitude by direct quadrature of the transition-scaled contour
    integral (the caret representation at x_hat = k^{1/3} x, y_hat = k^{1/3} y~)."""
    x_hat = pt.k ** (1.0 / 3.0) * pt.x
    y_hat = pt.k ** (1.0 / 3.0) * pt.y_tilde
    cfg = fock.ProblemConfig(bc)
    sc = fock.scattered_new(fock.FockPoint(x_hat, y_hat), cfg, opts)
    return complex(1.0 + sc.amplitude)


# ---------------------------------------------------------------------------
# Gaussian-pole identity
# ---------------------------------------------------------------------------

def pole_gaussian_identity(tau_star: complex):
    """Both sides of
    int_R e^{-tau^2}/(tau - tau*) d tau
        = 2 pi i e^{-tau*^2} (Fr(e^{-i pi/4} tau*) - H(-Im tau*)).
    """
    tau_star = complex(tau_star)
    if tau_star.imag == 0.0:
        raise RegimeError("identity requires Im tau* != 0")
    span = 7.5 + abs(tau_star)
    path = ContourPath((Line(-span, span),))

    def f(tau):
        return np.exp(-tau * tau) / (tau - tau_star)

    left = integrate(f, path, QuadOptions(rel_tol=1e-12, abs_tol=1e-14,
                                          max_subdivisions=6000)).value
    heav = 1.0 if -tau_star.imag > 0 else 0.0
    rot = complex(math.cos(-math.pi / 4), math.sin(-math.pi / 4))
    right = 2j * math.pi * np.exp(-tau_star ** 2) * (fresnel(rot * tau_star) - heav)
    return complex(left), complex(right)


# ---------------------------------------------------------------------------
# Creeping-wave (Airy layer) limit
# ---------------------------------------------------------------------------

def creeping_inner(x: float, n_hat: float, k: float,
                   bc: pk.BoundaryKind = pk.DIRICHLET) -> complex:
    """Inner limit of the creeping field at boundary coordinate x, scaled
    normal distance n_hat >= 0.

    In inner variables (x_hat = k^{1/3} x) the total amplitude is
        C0 * exp(-i(x_hat y_hat/2 + x_hat^3/12))
           * exp(-i e^{i pi/3} eta_0 x_hat / 2) * Ai(eta_0 + e^{-i pi/3} n_hat),
    with eta_0 the leading Airy-family root for the boundary kind and C0 its
    normalisation, both from the caret function's first residue term
    C0 e^{-2i pi/3}/(2 pi) e^{a eta_0}.  The decay factor
    exp(-i e^{i pi/3} eta_0 x_hat/2) is the numerically validated form (see
    module docstring).
    """
    _require_domain((x, n_hat, k), k)
    if x <= 0 or n_hat < 0:
        raise RegimeError("creeping limit requires x > 0 and n_hat >= 0")
    x_hat = k ** (1.0 / 3.0) * x
    y_hat = n_hat - x_hat ** 2 / 4.0
    eta, coef = pk._residue_data(bc, 1)
    eta0 = complex(eta[0])
    norm = complex(coef[0]) * pk.TWO_PI / pk.EM2PI3
    phase = np.exp(-1j * (x_hat * y_hat / 2.0 + x_hat ** 3 / 12.0))
    decay = np.exp(-1j * EIP3 * eta0 * x_hat / 2.0)
    layer = airy.airy(eta0 + EMIP3 * n_hat).value
    return complex(norm * phase * decay * layer)


# ---------------------------------------------------------------------------
# Finite-endpoint Fourier integral identity
# ---------------------------------------------------------------------------

def i_sigma(t: float, Sigma: float,
            opts: QuadOptions | None = None) -> complex:
    """I_Sigma(t) = -(1/2 pi) int_{-Sigma}^{inf} e^{i t sigma} r3(sigma) d sigma.

    The left endpoint stays exactly on the real axis; the right tail is
    rotated into the decay sector of the Airy ratio once it is exponentially
    small.  The integral starts on I_SIGMA_PANEL-unit panels (a measured
    constant; the quadrature caps a segment at 64 starting panels, so for
    Sigma beyond 31 the real segment starts on (Sigma + 1)/64-unit ones): r3
    turns at Sigma^{1/2} radians per unit at the left end, and each
    refinement round costs one Airy call.  For 150 seeded (t,
    Sigma) in [0.5, 2] x [25, 50], 2-unit starts refined 3-4 rounds and
    0.5-unit starts 1-2, with values within 3.2e-14 of each other.
    """
    if Sigma <= 0:
        raise ValueError("Sigma must be positive")
    if t == 0:
        raise pk.PoleError("t = 0 is the pole of the caret function")
    if t < -Sigma:
        raise RegimeError("identity holds for t >= -Sigma")
    opts = opts or QuadOptions(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=20000)
    pivot = 1.0
    ang = math.pi / 6.0 if t >= 0 else -math.pi / 6.0
    path = ContourPath((Line(-Sigma, pivot), Ray(pivot, ang, inward=False)))
    lin = abs(t) * max(0.0, math.cos(math.atan2(0.0, t) + ang + math.pi / 2)) + 0.5
    fin = truncate(path, fock._arm_model(0.9, lin), opts.truncation_tail_tol)

    def f(s):
        w, expo = pk.ratio_l3_parts(s, pk.DIRICHLET)
        return w * np.exp(1j * t * s + expo)

    res = integrate(f, fin, opts, width=I_SIGMA_PANEL)
    return complex(-res.value / (2.0 * math.pi))


def i_sigma_remainder(t: float, Sigma: float,
                      opts: QuadOptions | None = None) -> float:
    """R_Sigma(t) = I_Sigma(t) - caret(t) + e^{-i t Sigma}/(2 pi i t); O(Sigma^{-1/2})."""
    val = i_sigma(t, Sigma, opts)
    caret = pk.pekeris_caret(complex(t)).value
    endpoint = np.exp(-1j * t * Sigma) / (2j * math.pi * t)
    return float(abs(val - caret + endpoint))
