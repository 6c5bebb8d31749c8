"""Complex Airy functions Ai, Ai', the rotated family A_j, and their zeros.

Evaluation strategy (vectorised over numpy arrays):

* Maclaurin series for small |z| (two standard solutions combined with the
  exact constants Ai(0) = 3^{-2/3}/Gamma(2/3), Ai'(0) = -3^{-1/3}/Gamma(1/3)).
* A Gaussian-weighted integral representation on the band where the series
  loses digits to cancellation (Re zeta large but |z| too small for the
  asymptotic series), with zeta = (2/3) z^{3/2}:
      Ai(z) = e^{-zeta}/(2 pi) * int e^{-sqrt(z) u^2 + i u^3/3} du.
* The full asymptotic series in u_k, v_k for large |z| away from the
  negative real axis.
* Near the negative real axis, the connection formula A0 + A1 + A2 = 0
  applied to the two rotated sectors, which avoids cancellation control in
  the oscillatory two-term expansions.

The scaled evaluator returns (ai, aip, expo) with Ai = ai * exp(expo),
Ai' = aip * exp(expo) and expo real, so that ratios of Airy functions at
large arguments never overflow.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

SERIES_RADIUS = 8.0        # precondition radius for airy_maclaurin
ASYMPTOTIC_RADIUS = 7.0    # precondition radius for airy_asymptotic

_FULL_ASY_RADIUS = 8.5     # internal: full u_k series beyond this radius
_F64_SERIES_RADIUS = 3.5   # internal: float64 series is full-accuracy here
_INTEGRAL_REZETA = 2.5     # internal: integral branch when Re zeta exceeds this
_INTEGRAL_RADIUS = 6.0     # ... and |z| exceeds this
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

def _series_vec(z: np.ndarray, max_terms: int = 300):
    """Ai, Ai' by the two Maclaurin solutions of the Airy ODE.

    f  = sum 3^k (1/3)_k z^{3k} / (3k)!,   g = sum 3^k (2/3)_k z^{3k+1} / (3k+1)!,
    combined with the exact constants Ai(0), Ai'(0); term recurrences for
    f, g, f', g' run jointly until all drop below 1e-21 of the largest sum.
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
    # term count needed for |z| <= r is ~ (e/3) r^{3/2} + margin; checking the
    # tail bound only every 8 terms keeps reduction overhead off the hot path
    k = 1
    while k <= max_terms:
        t = t * z3 / ((3 * k - 1) * (3 * k))
        u = u * z3 / ((3 * k) * (3 * k + 1))
        w = w * z3 / ((3 * k - 2) * (3 * k))
        f += t
        g += u
        gp += w
        v = v * z3 / ((3 * k) * (3 * k + 2))
        fp += v
        if k % 8 == 0:
            bound = max(np.max(np.abs(t)), np.max(np.abs(u)),
                        np.max(np.abs(v)), np.max(np.abs(w)))
            scale = max(np.max(np.abs(f)), np.max(np.abs(g)), 1.0)
            if bound < 1e-21 * scale:
                break
        k += 1
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

_ASYM_TERMS = 60


def _uk_vk_tables(n: int):
    """u_k, v_k for k = 0..n (DLMF 9.7.2) as read-only arrays."""
    uk, vk = [1.0], [1.0]
    for k in range(1, n + 1):
        u = uk[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        uk.append(u)
        vk.append(u * (6 * k + 1) / (1.0 - 6 * k))
    uk, vk = np.array(uk), np.array(vk)
    uk.flags.writeable = False
    vk.flags.writeable = False
    return uk, vk


# built once at import, so concurrent callers only ever read them
_UK, _VK = _uk_vk_tables(_ASYM_TERMS)


def _asym_scaled_vec(z: np.ndarray):
    """Scaled full asymptotic series, |arg z| <= pi - delta.

    Returns (ai, aip, expo) with Ai = ai e^{expo}, expo = -Re zeta.
    Terms are summed to the smallest one (optimal truncation).
    """
    z = np.asarray(z, dtype=complex)
    zeta = (2.0 / 3.0) * z ** 1.5
    # the series is asymptotic: sum each entry to its own optimal truncation
    # (terms grow beyond k ~ |zeta|); uk[k]/|zeta|^k is monotone before that
    kstop = np.minimum(np.abs(zeta), float(_ASYM_TERMS)).astype(int)
    s_ai = np.ones_like(z)
    s_aip = np.ones_like(z)
    term = np.ones_like(z)
    inv = -1.0 / zeta
    kmax = int(np.max(kstop))
    for k in range(1, kmax + 1):
        term = term * inv
        live = k <= kstop
        s_ai += np.where(live, term * _UK[k], 0.0)
        s_aip += np.where(live, term * _VK[k], 0.0)
        if k % 8 == 0 and np.max(np.abs(term[live] if live.any() else term)) * _UK[k] < 1e-18:
            break
    q = z ** 0.25
    ai = s_ai / (2.0 * math.sqrt(math.pi) * q)
    aip = -q * s_aip / (2.0 * math.sqrt(math.pi))
    phase = np.exp(-1j * zeta.imag)
    return ai * phase, aip * phase, -zeta.real


# ---------------------------------------------------------------------------
# Integral representation on the cancellation band
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _integral_scaled_one(z: complex):
    """Scaled Ai, Ai' via the Gaussian-cubic integral, Re sqrt(z) > 0.

    Ai(z) e^{zeta} = (1/2pi) int_{-U}^{U} e^{-sqrt(z) u^2 + i u^3/3} du
    with the same nodes giving Ai' through the factor i(i sqrt(z) + u).
    """
    sq = complex(z) ** 0.5
    if sq.real <= 0.0:
        raise AiryDomainError("integral branch requires Re sqrt(z) > 0")
    U = math.sqrt(42.0 / sq.real)
    acc_ai = 0.0j
    acc_aip = 0.0j
    # a few fixed panels resolve the oscillation e^{i u^3/3} out to |u| = U
    n_panels = max(4, int(math.ceil(U ** 3 / 12.0)))
    edges = np.linspace(-U, U, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        um = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        w = 0.5 * (b - a) * _GL_WEIGHTS
        ex = np.exp(-sq * um * um + 1j * um ** 3 / 3.0)
        acc_ai += np.sum(w * ex)
        acc_aip += np.sum(w * ex * 1j * (1j * sq + um))
    zeta = (2.0 / 3.0) * complex(z) ** 1.5
    phase = complex(math.cos(-zeta.imag), math.sin(-zeta.imag))
    return (acc_ai / (2.0 * math.pi) * phase,
            acc_aip / (2.0 * math.pi) * phase,
            -zeta.real)


# ---------------------------------------------------------------------------
# Scaled dispatch
# ---------------------------------------------------------------------------

def airy_scaled_vec(z):
    """Vectorised scaled evaluation: Ai = ai e^{expo}, Ai' = aip e^{expo}.

    expo is real; on the series branch expo = 0, elsewhere expo = -Re zeta.
    Accuracy ~1e-11 relative away from the zeros of Ai.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    ai = np.zeros_like(z)
    aip = np.zeros_like(z)
    expo = np.zeros(z.shape, dtype=float)

    az = np.abs(z)
    rezeta = ((2.0 / 3.0) * z ** 1.5).real
    small = az <= _F64_SERIES_RADIUS
    mid = (~small) & (az <= _FULL_ASY_RADIUS)
    integral_band = mid & (rezeta > _INTEGRAL_REZETA) & (az > _INTEGRAL_RADIUS)
    # extended precision absorbs the exp((2/3)|z|^{3/2}) series cancellation
    series_band = mid & ~integral_band
    far = az > _FULL_ASY_RADIUS
    far_conn = far & (np.abs(np.angle(z)) > _CONNECTION_ARG)
    far_asym = far & ~far_conn

    if np.any(small):
        a, ap = _series_vec(z[small])
        ai[small], aip[small] = a, ap
    if np.any(series_band):
        a, ap = _series_vec(z[series_band].astype(np.clongdouble))
        ai[series_band] = a.astype(complex)
        aip[series_band] = ap.astype(complex)
    if np.any(integral_band):
        idx = np.nonzero(integral_band)
        for i in zip(*idx):
            a, ap, e = _integral_scaled_one(z[i])
            ai[i], aip[i], expo[i] = a, ap, e
    if np.any(far_asym):
        a, ap, e = _asym_scaled_vec(z[far_asym])
        ai[far_asym], aip[far_asym], expo[far_asym] = a, ap, e
    if np.any(far_conn):
        w = z[far_conn]
        w1 = _OMEGA * w
        w2 = np.conj(_OMEGA) * w
        a1, ap1, e1 = _asym_scaled_vec(w1)
        a2, ap2, e2 = _asym_scaled_vec(w2)
        e = np.maximum(e1, e2)
        a = -(_OMEGA * a1 * np.exp(e1 - e) + np.conj(_OMEGA) * a2 * np.exp(e2 - e))
        ap = -(_OMEGA ** 2 * ap1 * np.exp(e1 - e) + np.conj(_OMEGA) ** 2 * ap2 * np.exp(e2 - e))
        ai[far_conn], aip[far_conn], expo[far_conn] = a, ap, e
    return ai, aip, expo


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


def rotated_scaled_vec(j: int, z):
    """Vectorised scaled A_j, A_j': returns (value, derivative, expo)."""
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    w = _OMEGA ** j
    a, ap, e = airy_scaled_vec(w * np.asarray(z, dtype=complex))
    return w * a, w * w * ap, e


# ---------------------------------------------------------------------------
# Zeros of Ai and Ai', impedance roots
# ---------------------------------------------------------------------------

class _ZeroTable:
    """Lazily extended tables of the real zeros of Ai and Ai'."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ai: list[float] = []
        self._aip: list[float] = []

    @staticmethod
    def _t_expansion(t: float, prime: bool) -> float:
        x = t ** (2.0 / 3.0)
        ti = 1.0 / (t * t)
        if prime:
            return -x * (1.0 - 7.0 / 48.0 * ti + 35.0 / 288.0 * ti * ti)
        return -x * (1.0 + 5.0 / 48.0 * ti - 5.0 / 36.0 * ti * ti)

    def _newton_ai(self, x0: float) -> float:
        x = x0
        for _ in range(60):
            v = airy(x)
            step = v.value / v.derivative
            x -= step.real
            if abs(step) < 1e-14 * max(1.0, abs(x)):
                break
        v = airy(x)
        if abs(v.value) > 1e-11:
            raise RootContinuationError(f"Ai zero refinement failed near {x0}")
        return x

    def _newton_aip(self, x0: float) -> float:
        x = x0
        for _ in range(60):
            v = airy(x)
            step = v.derivative / (x * v.value)
            x -= step.real
            if abs(step) < 1e-14 * max(1.0, abs(x)):
                break
        v = airy(x)
        if abs(v.derivative) > 1e-11:
            raise RootContinuationError(f"Ai' zero refinement failed near {x0}")
        return x

    def ensure(self, count: int):
        with self._lock:
            while len(self._ai) < count:
                n = len(self._ai)
                t = 3.0 * math.pi * (4 * n + 3) / 8.0
                self._ai.append(self._newton_ai(self._t_expansion(t, prime=False)))
            while len(self._aip) < count:
                n = len(self._aip)
                t = 3.0 * math.pi * (4 * n + 1) / 8.0
                self._aip.append(self._newton_aip(self._t_expansion(t, prime=True)))

    def ai_zeros(self, count: int) -> np.ndarray:
        self.ensure(count)
        return np.array(self._ai[:count])

    def aip_zeros(self, count: int) -> np.ndarray:
        self.ensure(count)
        return np.array(self._aip[:count])


_TABLE = _ZeroTable()
DEFAULT_TABLE_SIZE = 50


def ai_zero(n: int) -> float:
    """n-th zero of Ai (0-indexed, decreasing along the negative real axis)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(_TABLE.ai_zeros(n + 1)[n])


def ai_prime_zero(n: int) -> float:
    """n-th zero of Ai' (0-indexed, decreasing)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(_TABLE.aip_zeros(n + 1)[n])


def ai_zeros(count: int) -> np.ndarray:
    return _TABLE.ai_zeros(count)


def ai_prime_zeros(count: int) -> np.ndarray:
    return _TABLE.aip_zeros(count)


_EIP3 = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))


def _impedance_f(eta: complex, mu_hat: complex):
    """Scaled impedance function and its eta-derivative.

    Returns (f, fp) up to a common positive factor exp(expo), which cancels
    in Newton steps and in relative residuals; this keeps the escape branch
    eta ~ mu_hat^2 e^{2i pi/3} (real mu_hat) computable without overflow.
    """
    a, ap, _ = airy_scaled_vec(np.array([eta]))
    f = mu_hat * _EIP3 * complex(a[0]) + complex(ap[0])
    fp = mu_hat * _EIP3 * complex(ap[0]) + eta * complex(a[0])
    return f, fp


def _impedance_residual(eta: complex, mu_hat: complex) -> float:
    """Residual of the impedance root equation, relative to the local scale
    of the Airy pair (so that the Neumann limit mu_hat = 0 is well posed)."""
    a, ap, _ = airy_scaled_vec(np.array([eta]))
    t1 = mu_hat * _EIP3 * complex(a[0])
    t2 = complex(ap[0])
    return abs(t1 + t2) / max(abs(t1), abs(t2), abs(complex(a[0])), 1e-300)


_ROBIN_CACHE: dict[tuple[complex, int], complex] = {}
_ROBIN_LOCK = threading.Lock()


def robin_root(n: int, mu_hat: complex) -> RobinRoot:
    """Root eta_{n, mu_hat} of mu_hat e^{i pi/3} Ai(eta) + Ai'(eta) = 0,
    continued from the mu_hat = 0 root (the n-th zero of Ai') by homotopy."""
    if n < 0:
        raise ValueError("n must be >= 0")
    mu_hat = complex(mu_hat)
    key = (mu_hat, n)
    with _ROBIN_LOCK:
        if key in _ROBIN_CACHE:
            return RobinRoot(n, mu_hat, _ROBIN_CACHE[key])
    eta = complex(ai_prime_zero(n))
    if mu_hat != 0.0:
        spacing = abs(ai_prime_zero(n + 1) - ai_prime_zero(n))
        # predictor-corrector continuation in s in [0, 1] along mu = s*mu_hat;
        # d eta/d mu = -e^{i pi/3} Ai(eta) / (mu e^{i pi/3} Ai'(eta) + eta Ai(eta))
        s = 0.0
        hops = 0
        while s < 1.0:
            a, ap, _ = airy_scaled_vec(np.array([eta]))
            denom = s * mu_hat * _EIP3 * complex(ap[0]) + eta * complex(a[0])
            if denom == 0.0:
                raise RootContinuationError(
                    f"impedance-root homotopy collapsed for n={n}, mu_hat={mu_hat}")
            deta_dmu = -_EIP3 * complex(a[0]) / denom
            speed = abs(deta_dmu) * abs(mu_hat)
            # allow longer hops far out on an escape branch (root ~ mu^2)
            hop_len = 0.15 * max(1.0, abs(eta) / 8.0)
            ds = min(1.0 - s, hop_len / max(speed, 1e-9), 0.25)
            for retry in range(7):
                s_new = s + ds
                eta_new = eta + deta_dmu * mu_hat * ds
                mu_s = s_new * mu_hat
                converged = False
                for _ in range(40):
                    f, fp = _impedance_f(eta_new, mu_s)
                    step = f / fp
                    eta_new -= step
                    if abs(step) < 1e-13 * max(1.0, abs(eta_new)):
                        converged = True
                        break
                if converged:
                    break
                ds *= 0.5
            else:
                raise RootContinuationError(
                    f"impedance-root Newton stalled for n={n}, mu_hat={mu_hat}")
            if abs(eta_new - eta) > 0.6 * max(spacing, abs(eta) / 4.0):
                raise RootContinuationError(
                    f"impedance-root jumped branches for n={n}, mu_hat={mu_hat}")
            eta, s = eta_new, s_new
            hops += 1
            if hops > 4000:
                raise RootContinuationError(
                    f"impedance-root continuation too slow for n={n}, mu_hat={mu_hat}")
    res = _impedance_residual(eta, mu_hat)
    if res > 1e-10:
        raise RootContinuationError(
            f"impedance root residual {res:.2e} too large for n={n}, mu_hat={mu_hat}")
    with _ROBIN_LOCK:
        _ROBIN_CACHE[key] = eta
    return RobinRoot(n, mu_hat, eta)


def robin_roots(count: int, mu_hat: complex) -> np.ndarray:
    return np.array([robin_root(n, mu_hat).root for n in range(count)])
