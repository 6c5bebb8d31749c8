"""Complex Airy functions Ai, Ai', the rotated family A_j, and their zeros.

Evaluation strategy (vectorised over numpy arrays):

* For |z| <= 8.5, a Taylor expansion about the nearest centre z0 of a square
  lattice of spacing 0.5 (so |z - z0| <= 0.354), summed to a fixed 20 terms
  whose coefficients follow from the Airy equation Ai'' = z Ai:
      c_{k+2} = (z0 c_k + c_{k-1}) / ((k+1)(k+2)),  c_0 = Ai(z0), c_1 = Ai'(z0)
  (Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM 2007;
  DLMF 9.17).  A point's value depends only on the point, never on the rest
  of its batch.
* The centre values are built once at import, with zeta = (2/3) z^{3/2}: by
  the Maclaurin series in long double where Re zeta(z0) <= 2.5, and where
  the series would lose digits to cancellation by the Gaussian-weighted
  integral representation
      Ai(z) = e^{-zeta}/(2 pi) * int e^{-sqrt(z) u^2 + i u^3/3} du;
  the centres beyond |z| = 8.5 take the far expansions below.
* For |z| > 8.5 away from the negative real axis, the asymptotic series in
  u_k, v_k (DLMF 9.7.5) summed to one fixed degree 20 for every point: the
  smallest whose first omitted term, bounded as in DLMF 9.7(iv), is below
  5e-15 at the band's inner edge |zeta| = 16.52.
* Near the negative real axis, the connection formula A0 + A1 + A2 = 0
  applied to the two rotated sectors, which avoids cancellation control in
  the oscillatory two-term expansions.

The scaled evaluator returns (ai, aip, expo) with Ai = ai * exp(expo),
Ai' = aip * exp(expo) and expo real, so that ratios of Airy functions at
large arguments never overflow.  In every band a point gets the value of its
single-point call, so an integrand makes one merged call (``_scaled_each``).

The roots of the impedance equation alpha e^{i pi/3} Ai(eta) + beta Ai'(eta)
= 0 (the zeros of Ai for the pair (1, 0), of Ai' for (0, 1), the Robin roots
for (mu_hat, 1)) come from one vectorised Newton corrector: seeded by the
large-n t-expansions of the zeros of Ai and Ai' (DLMF 9.9), and for Robin
pairs driven along a predictor-corrector homotopy from the zeros of Ai'
(Allgower & Georg, Introduction to Numerical Continuation Methods), every
root with its own steps.  One lock-guarded table per pair caches them.
"""

from __future__ import annotations

import cmath
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

SERIES_RADIUS = 8.0        # precondition radius for airy_maclaurin
ASYMPTOTIC_RADIUS = 7.0    # precondition radius for airy_asymptotic

_LATTICE_RADIUS = 8.5      # internal: Taylor lattice inside, far expansions beyond
_LATTICE_STEP = 0.5        # internal: spacing of the lattice centres
_TAYLOR_TERMS = 20         # internal: terms of every lattice Taylor sum
_SERIES_TERMS = 40         # internal: terms k of every Maclaurin sum
_INTEGRAL_REZETA = 2.5     # internal: integral-built centres where Re zeta exceeds this
# beyond the Stokes line arg = 2pi/3 the recessive exponential re-enters Ai;
# routing through the connection formula keeps both rotated terms on complete
# (recessive-free) asymptotic series
_CONNECTION_ARG = 2.0 * math.pi / 3.0 - 0.1

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)    # Ai(0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)

# same constants to long-double precision for the extended-precision series band
_AI0_LD = np.longdouble("0.3550280538878172392600631860041831763980")
_AIP0_LD = np.longdouble("-0.2588194037928067984051835601892039634793")

_OMEGA = complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))


class AiryDomainError(ValueError):
    """Argument outside the validity domain of the requested branch."""


class RootContinuationError(RuntimeError):
    """Homotopy continuation of an impedance root failed."""


@dataclass(frozen=True)
class AiryValue:
    value: complex
    derivative: complex


@dataclass(frozen=True)
class RobinRoot:
    index: int
    mu_hat: complex
    root: complex


# ---------------------------------------------------------------------------
# Maclaurin series
# ---------------------------------------------------------------------------

def _series_vec(z: np.ndarray):
    """Ai, Ai' by the two Maclaurin solutions of the Airy ODE.

    f  = sum 3^k (1/3)_k z^{3k} / (3k)!,   g = sum 3^k (2/3)_k z^{3k+1} / (3k+1)!,
    combined with the exact constants Ai(0), Ai'(0); term recurrences for
    f, g, f', g' run jointly to k = _SERIES_TERMS; for |z| <= 8.5 every
    first omitted term is below 5e-23.
    Accepts complex128 or clongdouble input and computes in that precision.
    """
    z = np.asarray(z)
    if z.dtype != np.clongdouble:
        z = z.astype(complex)
    z3 = z * z * z
    # f series: t_{k+1} = t_k z^3 / ((3k+2)(3k+3)), t_0 = 1
    # g series: u_{k+1} = u_k z^3 / ((3k+3)(3k+4)), u_0 = z
    # f' series: v_{k+1} = v_k z^3 / (3k(3k+2)) with v_1 = z^2/2 (k starts at 1)
    # g' series: w_{k+1} = w_k z^3 / ((3k+1)(3k+3)), w_0 = 1
    t = np.ones_like(z)
    u = z.copy()
    w = np.ones_like(z)
    f, g, gp = t.copy(), u.copy(), w.copy()
    v = 0.5 * z * z
    fp = v.copy()
    for k in range(1, _SERIES_TERMS + 1):
        t = t * z3 / ((3 * k - 1) * (3 * k))
        u = u * z3 / ((3 * k) * (3 * k + 1))
        w = w * z3 / ((3 * k - 2) * (3 * k))
        f += t
        g += u
        gp += w
        v = v * z3 / ((3 * k) * (3 * k + 2))
        fp += v
    if z.dtype == np.clongdouble:
        c1, c2 = _AI0_LD, _AIP0_LD
    else:
        c1, c2 = AI0, AIP0
    ai = c1 * f + c2 * g
    aip = c1 * fp + c2 * gp
    return ai, aip


# ---------------------------------------------------------------------------
# Asymptotic series
# ---------------------------------------------------------------------------

# first omitted term u_21/zeta^21 at the band's inner edge |zeta| =
# (2/3) 8.5^{3/2} = 16.52 is 4.9e-15 (u_20/zeta^20 is 8.1e-15)
_ASYM_DEGREE = 20


def _uk_vk_table(n: int) -> np.ndarray:
    """Rows u_k and v_k for k = 0..n (DLMF 9.7.2), as one read-only array."""
    uk, vk = [1.0], [1.0]
    for k in range(1, n + 1):
        u = uk[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        uk.append(u)
        vk.append(u * (6 * k + 1) / (1.0 - 6 * k))
    table = np.array([uk, vk])
    table.flags.writeable = False
    return table


# built once at import, so concurrent callers only ever read it
_UVK = _uk_vk_table(_ASYM_DEGREE)


def _asym_scaled_vec(z: np.ndarray):
    """Scaled full asymptotic series, |arg z| <= pi - delta.

    Returns (ai, aip, expo) with Ai = ai e^{expo}, expo = -Re zeta.  Every
    point sums the terms k = 0.._ASYM_DEGREE, by one Horner sum over the
    batch: for |zeta| >= 16.52 (|z| >= 8.5) the first omitted term is below
    5e-15 (DLMF 9.7(iv)), and a point's value never depends on its batch.
    """
    z = np.asarray(z, dtype=complex)
    zeta = (2.0 / 3.0) * z ** 1.5
    inv = -1.0 / zeta
    sums = np.empty((2, z.size), dtype=complex)
    sums[:] = _UVK[:, -1:]
    for k in range(_ASYM_DEGREE - 1, -1, -1):
        sums *= inv
        sums += _UVK[:, k:k + 1]
    s_ai, s_aip = sums
    q = z ** 0.25
    ai = s_ai / (2.0 * math.sqrt(math.pi) * q)
    aip = -q * s_aip / (2.0 * math.sqrt(math.pi))
    phase = np.exp(-1j * zeta.imag)
    return ai * phase, aip * phase, -zeta.real


def _far_scaled_vec(z: np.ndarray):
    """Scaled Ai, Ai' for |z| > _LATTICE_RADIUS: the asymptotic series, and
    near the negative real axis the connection formula over the two rotated
    sectors.  One series call serves the direct points and both rotated
    images of the connection points."""
    conn = np.abs(np.angle(z)) > _CONNECTION_ARG
    w = z[conn]
    series = _asym_scaled_vec(np.concatenate([z[~conn], _OMEGA * w, np.conj(_OMEGA) * w]))
    n = z.size - w.size
    (a, a1, a2), (ap, ap1, ap2), (e, e1, e2) = (
        (v[:n], v[n:z.size], v[z.size:]) for v in series)
    ai = np.empty_like(z)
    aip = np.empty_like(z)
    expo = np.empty(z.shape, dtype=float)
    ai[~conn], aip[~conn], expo[~conn] = a, ap, e
    e = np.maximum(e1, e2)
    ai[conn] = -(_OMEGA * a1 * np.exp(e1 - e) + np.conj(_OMEGA) * a2 * np.exp(e2 - e))
    aip[conn] = -(_OMEGA ** 2 * ap1 * np.exp(e1 - e) + np.conj(_OMEGA) ** 2 * ap2 * np.exp(e2 - e))
    expo[conn] = e
    return ai, aip, expo


# ---------------------------------------------------------------------------
# Integral representation (builds the lattice centres where Re zeta is large)
# ---------------------------------------------------------------------------

# twice the nodes per panel at which the centre values start to lose digits
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _integral_scaled_vec(z: np.ndarray):
    """Scaled Ai, Ai' via the Gaussian-cubic integral, Re sqrt(z) > 0.

    Ai(z) e^{zeta} = (1/2pi) int_{-U}^{U} e^{-sqrt(z) u^2 + i u^3/3} du
    with the same nodes giving Ai' through the factor i(i sqrt(z) + u).
    Each z has its own U = sqrt(42 / Re sqrt(z)); all share one composite
    Gauss-Legendre rule on [-1, 1], scaled by U, whose panel count resolves
    the oscillation e^{i u^3/3} out to the largest U.
    """
    z = np.asarray(z, dtype=complex)
    sq = z ** 0.5
    if np.any(sq.real <= 0.0):
        raise AiryDomainError("integral branch requires Re sqrt(z) > 0")
    U = np.sqrt(42.0 / sq.real)
    n_panels = max(4, int(math.ceil(np.max(U) ** 3 / 12.0)))
    half = 1.0 / n_panels
    acc_ai = np.zeros_like(z)
    acc_aip = np.zeros_like(z)
    for k in range(n_panels):
        u = U[:, None] * (-1.0 + half * (2 * k + 1 + _GL_NODES))
        ex = np.exp(-sq[:, None] * u * u + 1j * u ** 3 / 3.0) * (half * _GL_WEIGHTS)
        acc_ai += U * ex.sum(axis=1)
        acc_aip += U * (ex * 1j * (1j * sq[:, None] + u)).sum(axis=1)
    zeta = (2.0 / 3.0) * z ** 1.5
    phase = np.exp(-1j * zeta.imag)
    return (acc_ai / (2.0 * math.pi) * phase,
            acc_aip / (2.0 * math.pi) * phase,
            -zeta.real)


# ---------------------------------------------------------------------------
# Taylor lattice for |z| <= _LATTICE_RADIUS
# ---------------------------------------------------------------------------

# centres at _LATTICE_STEP * (i + 1j j) for |i|, |j| <= _LATTICE_HALF: the
# square that holds the nearest centre of every point of the disc
_LATTICE_HALF = math.ceil(_LATTICE_RADIUS / _LATTICE_STEP)


def _lattice_tables():
    """Centres and Taylor coefficients (terms x centres) of the lattice, as
    read-only arrays: Ai(z0 + h) = sum_k c_k h^k about centre z0.

    The coefficients are unscaled: on the lattice square |Ai| and |Ai'| stay
    within about e^{+-28}, and a stored scale would cost every evaluation two
    more roundings (one in exp).
    """
    axis = _LATTICE_STEP * np.arange(-_LATTICE_HALF, _LATTICE_HALF + 1)
    z0 = (axis[None, :] + 1j * axis[:, None]).ravel()
    rezeta = ((2.0 / 3.0) * z0 ** 1.5).real
    a = np.empty_like(z0)
    ap = np.empty_like(z0)
    expo = np.zeros(z0.shape)
    far = np.abs(z0) > _LATTICE_RADIUS
    # the long-double series' rounding error relative to Ai grows like
    # e^{(2/3)|z|^{3/2} + Re zeta}; the integral's does not, but the integral
    # needs Re sqrt(z) > 0
    integral = ~far & (rezeta > _INTEGRAL_REZETA)
    series = ~far & ~integral
    sa, sap = _series_vec(z0[series].astype(np.clongdouble))
    a[series], ap[series] = sa.astype(complex), sap.astype(complex)
    a[integral], ap[integral], expo[integral] = _integral_scaled_vec(z0[integral])
    a[far], ap[far], expo[far] = _far_scaled_vec(z0[far])
    scale = np.exp(expo)    # exactly 1 at the series centres
    coef = np.empty((_TAYLOR_TERMS, z0.size), dtype=complex)
    coef[0], coef[1] = a * scale, ap * scale
    coef[2] = z0 * coef[0] / 2.0
    for k in range(1, _TAYLOR_TERMS - 2):
        coef[k + 2] = (z0 * coef[k] + coef[k - 1]) / ((k + 1) * (k + 2))
    z0.flags.writeable = False
    coef.flags.writeable = False
    return z0, coef


# built once at import, so concurrent callers only ever read them
_CENTRES, _TAYLOR = _lattice_tables()


def _lattice_vec(z: np.ndarray):
    """Ai, Ai' (unscaled) by the Taylor sum about the nearest lattice centre;
    requires |z| <= _LATTICE_RADIUS."""
    col = np.rint(z.real / _LATTICE_STEP).astype(np.intp) + _LATTICE_HALF
    row = np.rint(z.imag / _LATTICE_STEP).astype(np.intp) + _LATTICE_HALF
    idx = row * (2 * _LATTICE_HALF + 1) + col
    h = z - _CENTRES[idx]
    coef = _TAYLOR[:, idx]
    # Horner for the sum and its derivative together
    ai = coef[-1]
    aip = np.zeros_like(h)
    for c in coef[-2::-1]:
        aip = aip * h + ai
        ai = ai * h + c
    return ai, aip


# ---------------------------------------------------------------------------
# Scaled dispatch
# ---------------------------------------------------------------------------

def airy_scaled_vec(z):
    """Vectorised scaled evaluation: Ai = ai e^{expo}, Ai' = aip e^{expo}.

    expo is a real scale: 0 on the Taylor lattice |z| <= 8.5, where Ai and
    Ai' need none, and -Re zeta of the asymptotic term beyond.  Non-finite z
    gives NaN in all three.  Accuracy ~1e-12 of max(|Ai|, |Ai'|/sqrt|z|) on
    the lattice, ~1e-11 relative away from the zeros of Ai beyond it.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    az = np.abs(z)
    near = az <= _LATTICE_RADIUS
    if near.all():
        return (*_lattice_vec(z), np.zeros(z.shape))
    ai = np.full(z.shape, complex(math.nan, math.nan))
    aip = np.full(z.shape, complex(math.nan, math.nan))
    expo = np.full(z.shape, math.nan)
    # NaN fails both tests, and infinities are kept out of the far band
    far = (az > _LATTICE_RADIUS) & np.isfinite(az)
    if np.any(near):
        ai[near], aip[near] = _lattice_vec(z[near])
        expo[near] = 0.0
    if np.any(far):
        ai[far], aip[far], expo[far] = _far_scaled_vec(z[far])
    return ai, aip, expo


def _scaled_each(*zs):
    """``airy_scaled_vec`` of each array in one call: a list of one (ai, aip,
    expo) triple per array, exact because a point's value never sees its batch."""
    zs = [np.atleast_1d(np.asarray(z, dtype=complex)) for z in zs]
    ends = np.cumsum([z.size for z in zs])
    parts = airy_scaled_vec(np.concatenate([z.ravel() for z in zs]))
    return [tuple(p[end - z.size:end].reshape(z.shape) for p in parts)
            for z, end in zip(zs, ends)]


def airy_vec(z):
    """Vectorised unscaled Ai, Ai'."""
    a, ap, e = airy_scaled_vec(z)
    s = np.exp(e)
    return a * s, ap * s


# ---------------------------------------------------------------------------
# Public scalar operations
# ---------------------------------------------------------------------------

def airy_maclaurin(z: complex) -> AiryValue:
    """Ai, Ai' by the Maclaurin solutions; requires |z| <= SERIES_RADIUS.

    Relative accuracy is machine precision with respect to the magnitudes of
    the two Maclaurin solutions; on the positive real side this implies a
    loss of about exp(2 Re zeta) * eps where Ai itself is exponentially
    small (negligible for |z| <~ 5, about 1e-9 at z = +8).
    """
    z = complex(z)
    if abs(z) > SERIES_RADIUS:
        raise AiryDomainError(f"|z| = {abs(z):.3f} beyond series radius {SERIES_RADIUS}")
    a, ap = _series_vec(np.array([z]))
    return AiryValue(complex(a[0]), complex(ap[0]))


def airy_asymptotic(z: complex) -> AiryValue:
    """Large-|z| expansion with exactly the printed correction terms.

    Exponential sector |arg z| <= pi - delta: leading term, relative accuracy
    O(|z|^{-3/2}).  Oscillatory sector |arg(-z)| <= 2pi/3 - delta: the
    two-term sine/cosine forms, relative accuracy O(|z|^{-3}).
    """
    z = complex(z)
    if abs(z) < ASYMPTOTIC_RADIUS:
        raise AiryDomainError(f"|z| = {abs(z):.3f} below asymptotic radius {ASYMPTOTIC_RADIUS}")
    arg = math.atan2(z.imag, z.real)
    tiny = 1e-12
    in_exp = abs(arg) <= math.pi - tiny
    w = -z
    arg_w = math.atan2(w.imag, w.real)
    in_osc = abs(arg_w) <= 2.0 * math.pi / 3.0 - tiny
    sqpi = math.sqrt(math.pi)
    if in_osc and not (in_exp and abs(arg) <= 2.0 * math.pi / 3.0):
        zeta = (2.0 / 3.0) * w ** 1.5
        q = w ** 0.25
        s, c = np.sin(zeta + math.pi / 4.0), np.cos(zeta + math.pi / 4.0)
        val = s / (sqpi * q) - 5.0 * c / (48.0 * sqpi * w ** 1.75)
        # two-term derivative form: cosine leading (differentiating the value
        # form term by term; the sine-leading variant fails numerically)
        der = -q * c / sqpi + 7.0 * s / (48.0 * sqpi * w ** 1.25)
        return AiryValue(complex(val), complex(der))
    if in_exp:
        zeta = (2.0 / 3.0) * z ** 1.5
        q = z ** 0.25
        e = np.exp(-zeta)
        return AiryValue(complex(e / (2.0 * sqpi * q)),
                         complex(-q * e / (2.0 * sqpi)))
    raise AiryDomainError("argument outside both asymptotic sectors")


def airy(z: complex) -> AiryValue:
    """Ai(z), Ai'(z) for any finite z (full-accuracy dispatch)."""
    a, ap = airy_vec(np.array([complex(z)]))
    return AiryValue(complex(a[0]), complex(ap[0]))


def rotated(j: int, z: complex) -> AiryValue:
    """The rotated solution A_j(z) = e^{2pi i j/3} Ai(e^{2pi i j/3} z)."""
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    w = _OMEGA ** j
    base = airy(w * complex(z))
    return AiryValue(w * base.value, w * w * base.derivative)


# ---------------------------------------------------------------------------
# Roots of the impedance equation alpha e^{i pi/3} Ai(eta) + beta Ai'(eta) = 0
# ---------------------------------------------------------------------------

_EIP3 = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-13      # relative Newton step at which a root has converged
_RESIDUAL_TOL = 1e-10    # relative impedance residual every returned root meets


def _newton(eta, alpha, beta):
    """Newton's method on alpha e^{i pi/3} Ai(eta) + beta Ai'(eta) = 0,
    vectorised over eta (alpha and beta are scalars or arrays like it).

    The scaled Airy pair serves both f and f' = alpha e^{i pi/3} Ai' +
    beta eta Ai: their common factor exp(expo) cancels in the step, which
    keeps far escape branches free of overflow.  Each entry stops on its own
    step, so a root never depends on the rest of its batch.
    Returns (eta, converged).
    """
    eta = np.array(eta, dtype=complex)
    alpha = np.broadcast_to(alpha, eta.shape)
    beta = np.broadcast_to(beta, eta.shape)
    live = np.arange(eta.size)
    for _ in range(_NEWTON_STEPS):
        if live.size == 0:
            break
        e = eta[live]
        a, ap, _ = airy_scaled_vec(e)
        ae = alpha[live] * _EIP3
        step = (ae * a + beta[live] * ap) / (ae * ap + beta[live] * e * a)
        eta[live] = e - step
        # NaN steps stay live
        live = live[~(np.abs(step) < _NEWTON_TOL * np.maximum(1.0, np.abs(eta[live])))]
    converged = np.ones(eta.shape, dtype=bool)
    converged[live] = False
    return eta, converged


def _seeds(n: np.ndarray, prime: bool) -> np.ndarray:
    """Large-n t-expansions of the n-th zero of Ai (or of Ai')."""
    t = 3.0 * math.pi * (4 * n + (1 if prime else 3)) / 8.0
    ti = 1.0 / (t * t)
    if prime:
        return -t ** (2.0 / 3.0) * (1.0 - 7.0 / 48.0 * ti + 35.0 / 288.0 * ti * ti)
    return -t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 * ti - 5.0 / 36.0 * ti * ti)


def _continue(eta, spacing, mu: complex, first: int) -> np.ndarray:
    """Continue Neumann roots eta to the roots of mu e^{i pi/3} Ai + Ai' = 0.

    Predictor-corrector homotopy along mu_s = s mu, s from 0 to 1, vectorised
    over the roots; each root takes its own steps ds, with
    d eta/d mu = -e^{i pi/3} Ai / (mu e^{i pi/3} Ai' + eta Ai).  A corrector
    that does not converge halves that root's ds, up to 7 times.  ``spacing``
    (the gap to the next Neumann root) bounds a hop before it counts as a
    branch jump.  ``first`` is the index of eta[0], for error messages.
    """
    eta = np.array(eta, dtype=complex)
    s = np.zeros(eta.shape)
    hops = np.zeros(eta.shape, dtype=int)
    live = np.arange(eta.size)

    def fail(what, k):
        return RootContinuationError(
            f"impedance-root {what} for n={first + int(k)}, mu_hat={mu}")

    while live.size:
        e, s0 = eta[live], s[live]
        a, ap, _ = airy_scaled_vec(e)
        denom = s0 * mu * _EIP3 * ap + e * a
        if np.any(denom == 0.0):
            raise fail("homotopy collapsed", live[np.argmax(denom == 0.0)])
        deta_dmu = -_EIP3 * a / denom
        speed = np.abs(deta_dmu) * abs(mu)
        # allow longer hops far out on an escape branch (root ~ mu^2)
        hop_len = 0.15 * np.maximum(1.0, np.abs(e) / 8.0)
        ds = np.minimum(np.minimum(1.0 - s0, hop_len / np.maximum(speed, 1e-9)), 0.25)
        e_new = np.empty_like(e)
        s_new = np.empty_like(s0)
        todo = np.arange(live.size)
        for _ in range(7):
            s_try = s0[todo] + ds[todo]
            root, ok = _newton(e[todo] + deta_dmu[todo] * mu * ds[todo], s_try * mu, 1.0)
            e_new[todo[ok]] = root[ok]
            s_new[todo[ok]] = s_try[ok]
            todo = todo[~ok]
            ds[todo] *= 0.5
            if todo.size == 0:
                break
        else:
            raise fail("Newton stalled", live[todo[0]])
        jumped = np.abs(e_new - e) > 0.6 * np.maximum(spacing[live], np.abs(e) / 4.0)
        if np.any(jumped):
            raise fail("jumped branches", live[np.argmax(jumped)])
        eta[live], s[live] = e_new, s_new
        hops[live] += 1
        if np.any(hops > 4000):
            raise fail("continuation too slow", np.argmax(hops > 4000))
        live = live[s_new < 1.0]
    return eta


def _solve(first: int, count: int, alpha: complex, beta: complex) -> np.ndarray:
    """Roots first..count-1 of the pair: the zeros of Ai (beta = 0) and of
    Ai' (alpha = 0) by Newton from their t-expansions, every other pair by
    homotopy from the zeros of Ai'; each root is checked against its
    impedance residual."""
    if alpha == 0.0 or beta == 0.0:
        seeds = _seeds(np.arange(first, count), prime=alpha == 0.0)
        # the zeros of Ai and Ai' are real
        eta = _newton(seeds, alpha, beta)[0].real.astype(complex)
    else:
        neumann = impedance_roots(count + 1, 0.0, 1.0).real
        eta = _continue(neumann[first:count], np.abs(np.diff(neumann[first:])),
                        alpha / beta, first)
    a, ap, _ = airy_scaled_vec(eta)
    t1 = alpha * _EIP3 * a
    t2 = beta * ap
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.maximum(np.abs(a), np.abs(ap)))
    res = np.abs(t1 + t2) / np.maximum(scale, 1e-300)
    bad = ~(res <= _RESIDUAL_TOL)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise RootContinuationError(
            f"impedance root residual {res[k]:.2e} too large for n={first + k}, "
            f"(alpha, beta)=({alpha}, {beta})")
    return eta


_ROOTS: dict[tuple[complex, complex], np.ndarray] = {}
# reentrant: the homotopy of a pair fetches the zeros of Ai' under the lock
_ROOTS_LOCK = threading.RLock()


def impedance_roots(count: int, alpha: complex, beta: complex) -> np.ndarray:
    """The first ``count`` roots eta_n of alpha e^{i pi/3} Ai(eta) + beta Ai'(eta) = 0
    (a read-only array): the zeros of Ai for (1, 0), of Ai' for (0, 1), and the
    Robin roots of mu_hat for (mu_hat, 1), continued from the zeros of Ai'.

    One lock-guarded table per pair, extended on demand; a root's value does
    not depend on how many roots were asked for.  A ``count`` that is not a
    non-negative integer, or an alpha or beta that is not finite, raises
    ``ValueError`` before any Airy call.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise ValueError(f"root count must be an integer >= 0, got {count!r}")
    key = (complex(alpha), complex(beta))
    if not (cmath.isfinite(key[0]) and cmath.isfinite(key[1])):
        raise ValueError(f"impedance pair ({alpha}, {beta}) is not finite")
    if key == (0, 0):
        raise ValueError("alpha and beta must not both vanish")
    with _ROOTS_LOCK:
        roots = _ROOTS.get(key, np.empty(0, dtype=complex))
        if roots.size < count:
            roots = np.concatenate([roots, _solve(roots.size, count, *key)])
            roots.flags.writeable = False
            _ROOTS[key] = roots
    return roots[:count]


def ai_zero(n: int) -> float:
    """n-th zero of Ai (0-indexed, decreasing along the negative real axis)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(impedance_roots(n + 1, 1.0, 0.0)[n].real)


def ai_prime_zero(n: int) -> float:
    """n-th zero of Ai' (0-indexed, decreasing)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(impedance_roots(n + 1, 0.0, 1.0)[n].real)


def ai_zeros(count: int) -> np.ndarray:
    return impedance_roots(count, 1.0, 0.0).real.copy()


def ai_prime_zeros(count: int) -> np.ndarray:
    return impedance_roots(count, 0.0, 1.0).real.copy()


def robin_root(n: int, mu_hat: complex) -> RobinRoot:
    """Root eta_{n, mu_hat} of mu_hat e^{i pi/3} Ai(eta) + Ai'(eta) = 0,
    continued from the mu_hat = 0 root (the n-th zero of Ai') by homotopy."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mu_hat = complex(mu_hat)
    return RobinRoot(n, mu_hat, complex(impedance_roots(n + 1, mu_hat, 1.0)[n]))
