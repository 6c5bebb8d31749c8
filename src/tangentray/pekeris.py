"""The Pekeris caret function and its Neumann/Robin generalisations.

The caret function h(t) (p-hat for Dirichlet, q-hat for Neumann, V-hat for
Robin) is meromorphic with a single simple pole at t = 0 of residue
1/(2 pi i).  Four representations are implemented and cross-dispatched:

* residue series over the Airy-zero family (sector -pi/3 < arg t < 2pi/3),
* reciprocal-Airy contour integral over L (all t != 0),
* forked contour: 1/(2 pi i t) plus the entire part as integrals along
  rotatable l2/l3 rays (large-argument workhorse in 2pi/3 < arg t < 5pi/3),
* pole split 1/(2 pi i t) + entire(t) near the origin.

Contour realisations are chosen by an explicit conditioning estimate: the
peak of the integrand's exponent along each candidate ray is compared with
the magnitude of the result; representations whose quadrature would lose
the answer to cancellation are rejected.  Where every fixed-ray realisation
is ill-conditioned (mid lit sector, where the caret function is
exponentially small), the reciprocal-Airy integral is taken along a
numerically traced steepest-descent path through its saddle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import airy
from .contours import (ContourPath, DecayModel, Line, Ray,
                       path_point_distance, truncate)
from .quadrature import QuadOptions, QuadratureError, integrate, integrate_batch

TWO_PI = 2.0 * math.pi
EIP3 = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))      # e^{i pi/3}
EMIP3 = EIP3.conjugate()                                              # e^{-i pi/3}
EMIP6 = complex(math.cos(math.pi / 6.0), -math.sin(math.pi / 6.0))    # e^{-i pi/6}
EM2PI3 = complex(math.cos(2 * math.pi / 3.0), -math.sin(2 * math.pi / 3.0))
OMEGA = complex(math.cos(2 * math.pi / 3.0), math.sin(2 * math.pi / 3.0))

POLE_SPLIT_RADIUS = 0.05     # |t| below which the explicit pole term is split off
SECTOR_GUARD = math.pi / 36  # stay this far inside the residue-series sector
RESIDUE_CAP = 60             # dispatch-level cap on residue terms
L_CLEARANCE = 0.5            # vertex offset of the reciprocal-Airy contour
COND_SAFE = 33.0             # max tolerated cancellation exponent
EPS_CANCEL = 3e-16           # unit roundoff proxy for cancellation floors


class PoleError(ZeroDivisionError):
    """Evaluation exactly at the pole t = 0."""


class SectorError(ValueError):
    """Argument outside the representation's validity sector."""


@dataclass(frozen=True)
class BoundaryKind:
    """Dirichlet | Neumann | Robin(mu_hat) boundary selector."""

    kind: str
    mu_hat: complex = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and not np.isfinite(self.mu_hat):
            raise ValueError("Robin mu_hat must be finite")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind == "dirichlet"

    def label(self) -> str:
        if self.kind == "robin":
            return f"robin({self.mu_hat})"
        return self.kind


DIRICHLET = BoundaryKind("dirichlet")
NEUMANN = BoundaryKind("neumann")


def robin(mu_hat: complex) -> BoundaryKind:
    return BoundaryKind("robin", complex(mu_hat))


@dataclass(frozen=True)
class CaretEval:
    value: complex
    representation_used: str
    error_estimate: float


# ---------------------------------------------------------------------------
# sigma-plane ratio integrands (shared with the Fock-field module)
# ---------------------------------------------------------------------------

def _rotated_scaled(j: int, sigma: np.ndarray):
    """Scaled Ai(omega^j sigma), Ai'(omega^j sigma) without the A_j prefactors."""
    return airy.airy_scaled_vec(OMEGA ** j * sigma)


def ratio_l2_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A2-type over A1-type ratio on the l2 arm as (weight, real log-scale)."""
    sigma = np.asarray(sigma, dtype=complex)
    a1, ap1, e1 = _rotated_scaled(1, sigma)
    a2, ap2, e2 = _rotated_scaled(2, sigma)
    if bc.kind == "dirichlet":
        # A2/A1 = omega^2 a2 / (omega a1) * e^{e2-e1}
        return OMEGA * a2 / a1, e2 - e1
    if bc.kind == "neumann":
        # A2'/A1' = omega^4 ap2 / (omega^2 ap1) * e^{e2-e1}
        return OMEGA ** 2 * ap2 / ap1, e2 - e1
    mu = bc.mu_hat
    num = OMEGA ** 2 * (mu * a2 - OMEGA ** 2 * ap2)
    den = OMEGA * (mu * a1 - OMEGA * ap1)
    return num / den, e2 - e1


def ratio_l3_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A0-type over A1-type ratio on the l3 arm and on gamma, as parts."""
    sigma = np.asarray(sigma, dtype=complex)
    a0, ap0, e0 = airy.airy_scaled_vec(sigma)
    a1, ap1, e1 = _rotated_scaled(1, sigma)
    if bc.kind == "dirichlet":
        return OMEGA ** 2 * a0 / a1, e0 - e1
    if bc.kind == "neumann":
        return OMEGA * ap0 / ap1, e0 - e1
    mu = bc.mu_hat
    num = mu * a0 - ap0
    den = OMEGA * (mu * a1 - OMEGA * ap1)
    return num / den, e0 - e1


def ratio_l2(sigma: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    w, expo = ratio_l2_parts(sigma, bc)
    return w * np.exp(expo)


def ratio_l3(sigma: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    w, expo = ratio_l3_parts(sigma, bc)
    return w * np.exp(expo)


# ---------------------------------------------------------------------------
# Residue-series machinery
# ---------------------------------------------------------------------------

_RES_LOCK = threading.Lock()
_RES_CACHE: dict = {}


def _residue_data(bc: BoundaryKind, count: int):
    """(eta_n, coefficient_n) for the residue series of the caret function."""
    key = (bc.kind, bc.mu_hat)
    with _RES_LOCK:
        cached = _RES_CACHE.get(key)
        if cached is not None and len(cached[0]) >= count:
            return cached[0][:count], cached[1][:count]
    pref = EM2PI3 / TWO_PI
    if bc.kind == "dirichlet":
        eta = airy.ai_zeros(count).astype(complex)
        _, aip = airy.airy_vec(eta)
        coef = pref / aip ** 2
    elif bc.kind == "neumann":
        eta = airy.ai_prime_zeros(count).astype(complex)
        a, _ = airy.airy_vec(eta)
        coef = -pref / (eta * a ** 2)
    else:
        mu = bc.mu_hat
        eta = airy.robin_roots(count, mu)
        a, aip = airy.airy_vec(eta)
        den = mu * aip + EMIP3 * eta * a
        coef = pref * (mu ** 2 + EIP3 * eta) / den ** 2
    with _RES_LOCK:
        _RES_CACHE[key] = (eta, coef)
    return eta, coef


def _in_residue_sector(t: np.ndarray, guard: float = SECTOR_GUARD) -> np.ndarray:
    th = np.angle(np.asarray(t, dtype=complex))
    return (th > -math.pi / 3 + guard) & (th < 2 * math.pi / 3 - guard)


def caret_residue_series(t, bc: BoundaryKind, rel_tol: float = 1e-12,
                         max_terms: int = RESIDUE_CAP):
    """Residue series over the Airy-zero family; valid -pi/3 < arg t < 2pi/3.

    Vectorised over t; returns (values, error_estimates, converged_mask).
    """
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    a = EMIP6 * t
    block = 20
    n = block
    eta, coef = _residue_data(bc, n)
    total = (coef[None, :] * np.exp(np.outer(a, eta))).sum(axis=1)
    last = np.abs(coef[n - 1] * np.exp(a * eta[n - 1]))
    scale = np.maximum(np.abs(total), 1e-300)
    done = last <= rel_tol * scale
    while not np.all(done) and n < max_terms:
        m = min(block, max_terms - n)
        eta, coef = _residue_data(bc, n + m)
        tail = (coef[None, n:n + m] * np.exp(np.outer(a, eta[n:n + m])))
        total = total + np.where(done, 0.0, tail.sum(axis=1))
        last = np.where(done, last, np.abs(tail[:, -1]))
        n += m
        scale = np.maximum(np.abs(total), 1e-300)
        done = done | (last <= rel_tol * scale)
    err = np.where(done, 3.0 * last + 1e-14 * np.abs(total), np.inf)
    return total, err, done


def caret_shadow_asymptotic(t: complex, bc: BoundaryKind) -> complex:
    """First residue term: the leading large-|t| behaviour in the shadow
    sector -pi/3 < arg t < 2pi/3."""
    t = complex(t)
    th = math.atan2(t.imag, t.real)
    if not (-math.pi / 3 < th < 2 * math.pi / 3):
        raise SectorError("shadow asymptotics require arg t in (-pi/3, 2pi/3)")
    eta, coef = _residue_data(bc, 1)
    return complex(coef[0] * np.exp(EMIP6 * t * eta[0]))


def caret_lit_asymptotic(t: complex, bc: BoundaryKind) -> complex:
    """Steepest-descent approximation sqrt(-t)/(2 sqrt(pi)) e^{-i(t^3/12-pi/4)}
    with the boundary-kind prefactor, valid 2pi/3 < arg t < 5pi/3."""
    t = complex(t)
    th = math.atan2(t.imag, t.real) % (2 * math.pi)
    if not (2 * math.pi / 3 < th < 5 * math.pi / 3):
        raise SectorError("lit asymptotics require arg t in (2pi/3, 5pi/3)")
    return complex(np.exp(caret_lit_log_asymptotic(t, bc)))


def caret_lit_log_asymptotic(ts, bc: BoundaryKind) -> np.ndarray:
    """log of ``caret_lit_asymptotic``, vectorised and without the sector
    check: log(sqrt(-t)/(2 sqrt(pi))) - i(t^3/12 - pi/4) plus the log of the
    boundary-kind prefactor (1, -1 or -(t/2 - i mu)/(t/2 + i mu))."""
    ts = np.asarray(ts, dtype=complex)
    base = (0.5 * np.log(-ts) - math.log(2.0 * math.sqrt(math.pi))
            - 1j * (ts ** 3 / 12.0 - math.pi / 4.0))
    if bc.kind == "dirichlet":
        return base
    if bc.kind == "neumann":
        return base + 1j * math.pi
    mu = bc.mu_hat
    return base + np.log(-(ts / 2 - 1j * mu) / (ts / 2 + 1j * mu))


def _lit_log_magnitude(t: complex) -> float:
    """ln |caret(t)| from the lit-sector model (used only for conditioning)."""
    t = complex(t)
    return (-1j * t ** 3 / 12).real + 0.5 * math.log(max(abs(t), 1e-9))


# ---------------------------------------------------------------------------
# Entire part p(t), q(t), V(t, mu) via the l2/l3 arms
# ---------------------------------------------------------------------------

def _ray_peak(A: float, B: float) -> float:
    """Max of exp(A w - B w^{3/2}) along a ray: exponent 4A^3/(27B^2)."""
    if A <= 0.0:
        return 0.0
    return 4.0 * A ** 3 / (27.0 * B ** 2)


def _integrate_floored(f, path, opts: QuadOptions, floor_raw: float):
    """Quadrature to the roundoff floor, accepting a stall near it.

    Panel-defect sums bottom out around eps * integrand peak accumulated
    over the refined panels; a stall within a generous multiple of that
    floor is an acceptable converged result with an honest error estimate.
    """
    try:
        return integrate(f, path, opts, abs_floor=floor_raw)
    except QuadratureError as exc:
        res = exc.result
        if exc.reason == "stalled" and res.error_estimate <= max(
                1e4 * floor_raw, 1e-7 * abs(res.value), 100.0 * opts.abs_tol):
            return res
        raise


def _arm_path(beta: float, t: complex, tail_tol: float, scale: float = 10.0,
              origin: complex = 0.0) -> ContourPath:
    """Truncated ray from ``origin`` at angle beta for an e^{i t sigma} x
    Airy-ratio integrand (ratio decay ~ e^{-B s^{3/2}})."""
    B = 4.0 / 3.0 * abs(math.cos(1.5 * beta))
    if B < 1e-3:
        raise SectorError(f"ray angle {beta} has no ratio decay")
    A = abs(t) * math.cos(math.atan2(t.imag, t.real) + beta + math.pi / 2)
    model = DecayModel("power_three_halves", 0.5 * B, scale=scale,
                       min_radius=(2.0 * max(A, 0.0) / B) ** 2)
    path = ContourPath((Ray(origin, beta, inward=False),))
    return truncate(path, model, tail_tol)


def pekeris_entire(t: complex, bc: BoundaryKind = DIRICHLET,
                   opts: QuadOptions | None = None,
                   beta2: float = 2 * math.pi / 3, beta3: float = 0.0) -> complex:
    """The entire part: (1/2pi) [ int_{l2} e^{i t sigma} r2 - int_{l3} e^{i t sigma} r3 ].

    Smooth across t = 0.  The l2/l3 rays may be rotated within their decay
    bands (pi/3, pi) and (-pi/3, pi/3) without changing the value.
    """
    t = complex(t)
    opts = opts or QuadOptions()
    p2 = _arm_path(beta2, t, opts.truncation_tail_tol)
    p3 = _arm_path(beta3, t, opts.truncation_tail_tol)

    def f2(s):
        w, expo = ratio_l2_parts(s, bc)
        return w * np.exp(1j * t * s + expo)

    def f3(s):
        w, expo = ratio_l3_parts(s, bc)
        return w * np.exp(1j * t * s + expo)

    th = math.atan2(t.imag, t.real)

    def arm_floor(beta):
        B = 4.0 / 3.0 * abs(math.cos(1.5 * beta))
        A = abs(t) * math.cos(th + beta + math.pi / 2)
        return math.exp(min(_ray_peak(A, B), 700.0)) * EPS_CANCEL

    r2 = _integrate_floored(f2, p2, opts, arm_floor(beta2))
    r3 = _integrate_floored(f3, p3, opts, arm_floor(beta3))
    # l2 runs from infinity towards 0: negate the outward-ray quadrature
    return (-r2.value - r3.value) / TWO_PI


def _forked_angles(t: complex) -> tuple[float, float, float]:
    """Ray angles minimising the cancellation peaks of the forked form.

    Returns (beta2, beta3, peak_exponent).
    """
    th = math.atan2(t.imag, t.real)
    b2_grid = np.linspace(math.pi / 3 + 0.12, math.pi - 0.02, 41)
    b3_grid = np.linspace(-math.pi / 3 + 0.12, math.pi / 3 - 0.12, 41)

    def peak(beta):
        B = 4.0 / 3.0 * abs(math.cos(1.5 * beta))
        if B < 5e-2:
            return math.inf
        A = abs(t) * math.cos(th + beta + math.pi / 2)
        return _ray_peak(A, B)

    pk2 = [peak(b) for b in b2_grid]
    pk3 = [peak(b) for b in b3_grid]
    i2 = int(np.argmin(pk2))
    i3 = int(np.argmin(pk3))
    return float(b2_grid[i2]), float(b3_grid[i3]), max(pk2[i2], pk3[i3])


def _caret_forked(t: complex, bc: BoundaryKind, opts: QuadOptions,
                  beta2: float, beta3: float) -> tuple[complex, float]:
    # cancellation floor from the optimised ray peaks
    _, _, pk = _forked_angles(t)
    floor = math.exp(min(pk, 700.0)) * EPS_CANCEL
    eff = QuadOptions(rel_tol=opts.rel_tol,
                      abs_tol=max(opts.abs_tol, floor),
                      max_subdivisions=opts.max_subdivisions,
                      truncation_tail_tol=opts.truncation_tail_tol)
    value = pekeris_entire(t, bc, eff, beta2, beta3)
    pole = 1.0 / (TWO_PI * 1j * t)
    return value + pole, floor + 1e-13 * abs(value + pole)


# ---------------------------------------------------------------------------
# Reciprocal-Airy contour representation
# ---------------------------------------------------------------------------

def _reciprocal_weight(eta: np.ndarray, bc: BoundaryKind):
    """(w, expo) with integrand = w * exp(a*eta + expo): the non-exponential
    factor and the real log-scale of the reciprocal Airy denominator."""
    eta = np.asarray(eta, dtype=complex)
    a, ap, e = airy.airy_scaled_vec(eta)
    if bc.kind == "dirichlet":
        return 1.0 / a ** 2, -2.0 * e
    if bc.kind == "neumann":
        return eta / ap ** 2, -2.0 * e
    mu = bc.mu_hat
    den = mu * a + EMIP3 * ap
    return (mu ** 2 + EIP3 * eta) / den ** 2, -2.0 * e


def _reciprocal_prefactor(t, bc: BoundaryKind):
    if bc.kind == "neumann":
        return 1.0 / (4.0 * math.pi ** 2 * t)
    return -1.0 / (4.0 * math.pi ** 2 * t)


def _l_path(ts, bc: BoundaryKind, tail_tol: float) -> ContourPath:
    """Truncated L contour with pole clearance for the given boundary kind.

    The truncation radius covers the worst |e^{a eta}| growth rate over the
    batch ``ts`` along each ray (a = e^{-i pi/6} t)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    th = np.angle(ts)
    A_up = float(np.max(np.abs(ts) * np.cos(th + math.pi / 2)))
    A_dn = float(np.max(np.abs(ts) * np.cos(th - 5 * math.pi / 6)))
    A = max(A_up, A_dn, 0.0)
    vertex = L_CLEARANCE
    if bc.kind == "robin":
        roots = airy.robin_roots(3, bc.mu_hat)
        for _ in range(6):
            path = ContourPath((Ray(vertex, -2 * math.pi / 3, inward=True),
                                Ray(vertex, 2 * math.pi / 3, inward=False)), name="L")
            if min(path_point_distance(path, complex(r)) for r in roots) >= 0.35:
                break
            vertex += 0.5
    path = ContourPath((Ray(vertex, -2 * math.pi / 3, inward=True),
                        Ray(vertex, 2 * math.pi / 3, inward=False)), name="L")
    B = 4.0 / 3.0
    model = DecayModel("power_three_halves", 0.5 * B, scale=50.0,
                       min_radius=(2.0 * A / B) ** 2)
    return truncate(path, model, tail_tol)


def _plain_L_peaks(t: complex) -> float:
    """Peak exponent of e^{a eta}/denominator^2 along the standard L rays."""
    th = math.atan2(t.imag, t.real)
    A_up = abs(t) * math.cos(th + math.pi / 2)
    A_dn = abs(t) * math.cos(th - 5 * math.pi / 6)
    B = 4.0 / 3.0
    return max(_ray_peak(A_up, B), _ray_peak(A_dn, B))


def _caret_reciprocal(t: complex, bc: BoundaryKind, opts: QuadOptions) -> tuple[complex, float]:
    a = EMIP6 * t
    path = _l_path(t, bc, opts.truncation_tail_tol)

    def f(eta):
        w, expo = _reciprocal_weight(eta, bc)
        return w * np.exp(a * eta + expo)

    # quadrature cannot do better than the cancellation floor set by the
    # integrand's peak; stop there rather than erroring
    floor_raw = math.exp(min(_plain_L_peaks(t), 700.0)) * EPS_CANCEL
    res = _integrate_floored(f, path, opts, floor_raw)
    pref = _reciprocal_prefactor(t, bc)
    return pref * res.value, abs(pref) * (res.error_estimate + floor_raw)


# ---------------------------------------------------------------------------
# Steepest-descent route for the mid lit sector
# ---------------------------------------------------------------------------

def _trace_descent(h, hp, start: complex, direction: complex, drop: float,
                   max_steps: int = 4000) -> list[complex]:
    """Gradient-flow trace of Re h downhill from a saddle.

    ``h``/``hp`` are the exponent model and its derivative.  Returns the
    traced points (excluding the saddle itself).
    """
    h0 = h(start).real
    pts = []
    # leave the saddle along the descent axis until the gradient is alive
    step = 0.1
    z = start + step * direction
    for _ in range(60):
        if abs(hp(z)) > 1e-3:
            break
        step *= 1.6
        z = start + step * direction
    pts.append(z)
    for _ in range(max_steps):
        g = hp(z)
        ds = 0.6 / max(abs(g), 1e-6)
        ds = min(ds, 0.25 * max(1.0, abs(z)))
        z = z - ds * np.conj(g) / abs(g)
        pts.append(z)
        if (h(z).real - h0) < -drop:
            break
    return pts


def _caret_saddle(t: complex, bc: BoundaryKind, opts: QuadOptions) -> tuple[complex, float]:
    """Reciprocal-Airy integral along a steepest-descent path through the
    exponent saddle eta* = (e^{-i pi/6} t / 2)^2; used where the caret
    function is exponentially small and fixed rays are hopeless."""
    a = EMIP6 * t

    def h(eta):
        return a * eta + (4.0 / 3.0) * eta ** 1.5

    def hp(eta):
        return a + 2.0 * eta ** 0.5

    eta_star = (a / 2.0) ** 2
    if eta_star.real < 0.1 * abs(eta_star):
        raise SectorError("saddle too close to the pole line for the traced route")
    drop = -math.log(opts.truncation_tail_tol) + 6.0
    d = np.sqrt(a)
    d = d / abs(d)
    up = _trace_descent(h, hp, eta_star, d, drop)
    dn = _trace_descent(h, hp, eta_star, -d, drop)
    # orient: the branch heading into the lower half plane joins the incoming ray
    if up[-1].imag < dn[-1].imag:
        up, dn = dn, up
    points = list(reversed(dn)) + [eta_star] + up
    segs = [Ray(points[0], -2 * math.pi / 3, inward=True)]
    for p, q in zip(points[:-1], points[1:]):
        segs.append(Line(p, q))
    segs.append(Ray(points[-1], 2 * math.pi / 3, inward=False))
    # the closing rays start where the integrand is already ~e^{-drop}; a
    # short fixed extension suffices for the remaining tail
    path = truncate(ContourPath(tuple(segs)),
                    DecayModel("power_three_halves", 0.4, scale=1.0,
                               min_radius=abs(points[-1]) + 5.0),
                    opts.truncation_tail_tol)

    def f(eta):
        w, expo = _reciprocal_weight(eta, bc)
        return w * np.exp(a * eta + expo - h(eta_star))

    res = integrate(f, path, opts)
    pref = _reciprocal_prefactor(t, bc) * np.exp(h(eta_star))
    return complex(pref * res.value), abs(pref) * (res.error_estimate + 1e-14 * abs(res.value))


# ---------------------------------------------------------------------------
# Fourier representation check (Im t < 0)
# ---------------------------------------------------------------------------

def caret_fourier(t: complex, bc: BoundaryKind, tol: float = 1e-5) -> complex:
    """Fourier-type representation -(1/2pi) int_R e^{i t sigma} r3(sigma) d sigma,
    valid Im t < 0; truncated with an oscillatory-tail bound on the left."""
    t = complex(t)
    if t.imag >= 0:
        raise SectorError("Fourier representation requires Im t < 0")
    s_right = (1.5 * (-math.log(tol) + 3.0) / (4.0 / 3.0)) ** (2.0 / 3.0) + 2.0
    s_left = (-math.log(tol) + 3.0) / abs(t.imag) + 2.0
    path = ContourPath((Line(-s_left, s_right),))
    opts = QuadOptions(rel_tol=tol * 1e-2, abs_tol=tol * 1e-3, max_subdivisions=4000)
    def f3(s):
        w, expo = ratio_l3_parts(s, bc)
        return w * np.exp(1j * t * s + expo)

    res = integrate(f3, path, opts)
    return -res.value / TWO_PI


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def pekeris_caret(t: complex, bc: BoundaryKind = DIRICHLET,
                  opts: QuadOptions | None = None) -> CaretEval:
    """Caret function with representation chosen by sector and conditioning."""
    t = complex(t)
    if t == 0:
        raise PoleError("the caret function has a pole at t = 0")
    opts = opts or QuadOptions()

    if abs(t) < POLE_SPLIT_RADIUS:
        value = 1.0 / (TWO_PI * 1j * t) + pekeris_entire(t, bc, opts)
        return CaretEval(value, "pole_split", 1e-12 * abs(value) + 1e-14)

    if _in_residue_sector(np.array([t]))[0]:
        vals, errs, ok = caret_residue_series(t, bc, rel_tol=min(1e-11, opts.rel_tol))
        if ok[0]:
            return CaretEval(complex(vals[0]), "residue_series", float(errs[0]))

    ln_result = _lit_log_magnitude(t) if abs(t) > 3.0 else 0.0
    cond_plain = _plain_L_peaks(t) - min(ln_result, 0.0)
    if abs(t) <= 3.0 or cond_plain <= 12.0:
        value, err = _caret_reciprocal(t, bc, opts)
        return CaretEval(value, "reciprocal_airy_contour", err)

    beta2, beta3, pk = _forked_angles(t)
    cond_forked = max(pk, 0.0) - min(ln_result, 0.0)
    if min(cond_plain, cond_forked) <= COND_SAFE:
        if cond_plain <= cond_forked:
            value, err = _caret_reciprocal(t, bc, opts)
            return CaretEval(value, "reciprocal_airy_contour", err)
        value, err = _caret_forked(t, bc, opts, beta2, beta3)
        return CaretEval(value, "forked_contour", err)

    try:
        value, err = _caret_saddle(t, bc, opts)
        return CaretEval(value, "reciprocal_airy_contour", err)
    except (SectorError, QuadratureError):
        pass
    # fall back to the better-conditioned fixed route with an honest error
    if cond_plain <= cond_forked:
        value, err = _caret_reciprocal(t, bc, opts)
        return CaretEval(value, "reciprocal_airy_contour", err)
    value, err = _caret_forked(t, bc, opts, beta2, beta3)
    return CaretEval(value, "forked_contour", err)


def caret_many(ts, bc: BoundaryKind = DIRICHLET, opts: QuadOptions | None = None,
               rel_tol: float = 1e-10):
    """Vectorised caret evaluation for quadrature nodes.

    Residue-sector points are summed as one vectorised series; the remaining
    points share a single truncated L contour and are integrated as a batch
    (one integrand matrix per refined panel).  Points whose shared-contour
    conditioning is poor fall back to the scalar dispatcher.

    Returns (values, error_estimates).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    opts = opts or QuadOptions()
    out = np.zeros_like(ts)
    err = np.zeros(ts.shape, dtype=float)

    near = np.abs(ts) < POLE_SPLIT_RADIUS
    for i in np.nonzero(near)[0]:
        ev = pekeris_caret(complex(ts[i]), bc, opts)
        out[i], err[i] = ev.value, ev.error_estimate

    rest = ~near
    res_mask = rest & _in_residue_sector(ts)
    if np.any(res_mask):
        vals, errs, ok = caret_residue_series(ts[res_mask], bc, rel_tol=rel_tol)
        idx = np.nonzero(res_mask)[0]
        good = idx[ok]
        out[good] = vals[ok]
        err[good] = errs[ok]
        rest_idx = idx[~ok]
    else:
        rest_idx = np.array([], dtype=int)

    contour_idx = np.concatenate([np.nonzero(rest & ~res_mask)[0], rest_idx])
    if contour_idx.size == 0:
        return out, err
    tc = ts[contour_idx]
    ln_res = np.array([_lit_log_magnitude(t) if abs(t) > 3 else 0.0 for t in tc])
    peaks = np.array([_plain_L_peaks(t) for t in tc])
    cond = peaks - np.minimum(ln_res, 0.0)
    # deep refinement across a shared path is only worthwhile for mild peaks
    batch = (cond <= 14.0) & (peaks <= 14.0)
    if np.any(batch):
        tb = tc[batch]
        a = EMIP6 * tb
        path = _l_path(tb, bc, opts.truncation_tail_tol)

        def fmat(eta):
            w, expo = _reciprocal_weight(eta, bc)
            return w[None, :] * np.exp(np.outer(a, eta) + expo[None, :])

        floors = np.exp(np.minimum([_plain_L_peaks(t) for t in tb], 700.0)) * EPS_CANCEL
        vals, errs, _ = integrate_batch(fmat, path, opts, abs_floor=floors)
        pref = _reciprocal_prefactor(tb, bc)
        ii = contour_idx[batch]
        out[ii] = pref * vals
        err[ii] = np.abs(pref) * (errs + floors)
    for i in contour_idx[~batch]:
        ev = pekeris_caret(complex(ts[i]), bc, opts)
        out[i], err[i] = ev.value, ev.error_estimate
    return out, err


# ---------------------------------------------------------------------------
# Log-form evaluation for field integrands
# ---------------------------------------------------------------------------

def _forked_log_batch(ts: np.ndarray, bc: BoundaryKind, opts: QuadOptions):
    """log of the caret function for a batch of lit-sector points.

    Points are binned by direction; each bin shares optimised l2/l3 arm
    paths and one batched quadrature.  Each member is scaled by
    e^{-shift_m} with shift_m = max(0, ln|caret|_model) so that rows stay
    representable even where the caret function is exponentially large.

    Returns (log_values, rel_errors).
    """
    ts = np.asarray(ts, dtype=complex)
    out = np.empty(ts.shape, dtype=complex)
    rel = np.zeros(ts.shape, dtype=float)
    th = np.angle(ts) % (2.0 * math.pi)
    bins = np.round(th / 0.04).astype(int)
    for b in np.unique(bins):
        sel = bins == b
        tb = ts[sel]
        t_ref = complex(tb[np.argmax(np.abs(tb))])
        beta2, beta3, peak_ref = _forked_angles(t_ref)
        shifts = np.array([max(0.0, _lit_log_magnitude(t)) for t in tb])
        peaks = np.empty(tb.shape)
        for i, t in enumerate(tb):
            B2 = 4.0 / 3.0 * abs(math.cos(1.5 * beta2))
            B3 = 4.0 / 3.0 * abs(math.cos(1.5 * beta3))
            thi = math.atan2(t.imag, t.real)
            A2 = abs(t) * math.cos(thi + beta2 + math.pi / 2)
            A3 = abs(t) * math.cos(thi + beta3 + math.pi / 2)
            peaks[i] = max(_ray_peak(A2, B2), _ray_peak(A3, B3))
        floors = np.exp(np.minimum(peaks - shifts, 700.0)) * EPS_CANCEL
        p2 = _arm_path(beta2, t_ref, opts.truncation_tail_tol)
        p3 = _arm_path(beta3, t_ref, opts.truncation_tail_tol)

        def f2(s, tb=tb, shifts=shifts):
            w, expo = ratio_l2_parts(s, bc)
            return w[None, :] * np.exp(1j * np.outer(tb, s) + expo[None, :]
                                       - shifts[:, None])

        def f3(s, tb=tb, shifts=shifts):
            w, expo = ratio_l3_parts(s, bc)
            return w[None, :] * np.exp(1j * np.outer(tb, s) + expo[None, :]
                                       - shifts[:, None])

        v2, e2, _ = integrate_batch(f2, p2, opts, abs_floor=floors, strict=False)
        v3, e3, _ = integrate_batch(f3, p3, opts, abs_floor=floors, strict=False)
        entire_scaled = (-v2 - v3) / TWO_PI
        pole_scaled = np.exp(-shifts) / (TWO_PI * 1j * tb)
        vals_scaled = entire_scaled + pole_scaled
        with np.errstate(divide="ignore"):
            lv = np.log(vals_scaled) + shifts
        lr = (e2 + e3 + floors) / np.maximum(np.abs(vals_scaled), 1e-300)
        # the shared-bin angles can be far from a member's own optimum;
        # re-run noisy members through the scalar dispatcher
        for k in np.nonzero(lr > 1e-6)[0]:
            i = np.nonzero(sel)[0][k]
            ev = pekeris_caret(complex(ts[i]), bc, opts)
            with np.errstate(divide="ignore"):
                lv[k] = np.log(ev.value)
            lr[k] = ev.error_estimate / max(abs(ev.value), 1e-300)
        out[sel] = lv
        rel[sel] = lr
    return out, rel


def caret_log_many(ts, bc: BoundaryKind = DIRICHLET,
                   opts: QuadOptions | None = None):
    """log of the caret function, vectorised and overflow-safe.

    Dispatch: residue series in its sector; shared-L batch for mild
    integrand peaks; direction-binned forked batches for the lit sector;
    scalar traced-saddle route for members every fixed contour loses to
    cancellation.  Returns (log_values, rel_errors).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    opts = opts or QuadOptions()
    out = np.empty(ts.shape, dtype=complex)
    rel = np.zeros(ts.shape, dtype=float)

    near = np.abs(ts) < POLE_SPLIT_RADIUS
    for i in np.nonzero(near)[0]:
        ev = pekeris_caret(complex(ts[i]), bc, opts)
        out[i] = np.log(ev.value)
        rel[i] = ev.error_estimate / max(abs(ev.value), 1e-300)

    todo = ~near
    res_mask = todo & _in_residue_sector(ts)
    if np.any(res_mask):
        vals, errs, ok = caret_residue_series(ts[res_mask], bc, rel_tol=1e-12,
                                              max_terms=300)
        idx = np.nonzero(res_mask)[0]
        with np.errstate(divide="ignore"):
            out[idx[ok]] = np.log(vals[ok])
        rel[idx[ok]] = errs[ok] / np.maximum(np.abs(vals[ok]), 1e-300)
        todo[idx[ok]] = False
        res_mask = np.zeros_like(res_mask)

    idx = np.nonzero(todo)[0]
    if idx.size == 0:
        return out, rel
    tc = ts[idx]
    ln_res = np.array([_lit_log_magnitude(t) if abs(t) > 3 else 0.0 for t in tc])
    peaks = np.array([_plain_L_peaks(t) for t in tc])
    cond = peaks - np.minimum(ln_res, 0.0)
    lmask = (cond <= 16.0) & (peaks <= 16.0)
    if np.any(lmask):
        tb_all = tc[lmask]
        idx_all = idx[lmask]
        peaks_all = peaks[lmask]
        # group by |e^{a eta}| growth rate so slow-decay members do not force
        # a long truncated path (and deep refinement) onto the whole batch
        th = np.angle(tb_all)
        rate = np.maximum(np.abs(tb_all) * np.cos(th + math.pi / 2),
                          np.abs(tb_all) * np.cos(th - 5 * math.pi / 6))
        group = np.maximum(0, np.ceil(rate / 1.5)).astype(int)
        for gk in np.unique(group):
            sel = group == gk
            tb = tb_all[sel]
            a = EMIP6 * tb
            path = _l_path(tb, bc, opts.truncation_tail_tol)

            def fmat(eta, a=a):
                w, expo = _reciprocal_weight(eta, bc)
                return w[None, :] * np.exp(np.outer(a, eta) + expo[None, :])

            floors = np.exp(np.minimum(peaks_all[sel], 700.0)) * EPS_CANCEL
            vals, errs, _ = integrate_batch(fmat, path, opts, abs_floor=floors,
                                            strict=False)
            pref = _reciprocal_prefactor(tb, bc)
            with np.errstate(divide="ignore"):
                out[idx_all[sel]] = np.log(pref * vals)
            rel[idx_all[sel]] = (errs + floors) / np.maximum(np.abs(vals), 1e-300)

    rest = idx[~lmask]
    if rest.size:
        tf = ts[rest]
        fk_peaks = np.array([_forked_angles(t)[2] for t in tf])
        fk_cond = fk_peaks - np.minimum(ln_res[~lmask], 0.0)
        good = fk_cond <= COND_SAFE
        if np.any(good):
            lv, lr = _forked_log_batch(tf[good], bc, opts)
            out[rest[good]] = lv
            rel[rest[good]] = lr
        for i in rest[~good]:
            ev = pekeris_caret(complex(ts[i]), bc, opts)
            with np.errstate(divide="ignore"):
                out[i] = np.log(ev.value)
            rel[i] = ev.error_estimate / max(abs(ev.value), 1e-300)
    return out, rel
