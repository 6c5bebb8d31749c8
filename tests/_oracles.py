"""Independent oracles for the test suite.

Everything here is deliberately decoupled from the package internals: plain
Python complex arithmetic, gamma-function constants, bisection, and
composite Simpson quadrature.  Expected values frozen into the tests were
computed with these.  The exception is a reference copy of a linear search
the package replaced, which tests compare with bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def airy_series(z: complex, max_terms: int = 260):
    """Ai, Ai' by the Maclaurin solutions, plain complex arithmetic."""
    z = complex(z)
    z3 = z * z * z
    t, u, w = 1.0 + 0j, z, 1.0 + 0j
    f, g, gp = t, u, w
    v = 0.5 * z * z
    fp = v
    for k in range(1, max_terms):
        t = t * z3 / ((3 * k - 1) * (3 * k))
        u = u * z3 / ((3 * k) * (3 * k + 1))
        w = w * z3 / ((3 * k - 2) * (3 * k))
        f += t
        g += u
        gp += w
        v = v * z3 / ((3 * k) * (3 * k + 2))
        fp += v
        if max(abs(t), abs(u), abs(w), abs(v)) < 1e-20 * max(abs(f), abs(g), 1.0):
            break
    return AI0 * f + AIP0 * g, AI0 * fp + AIP0 * gp


def bisect_airy_zero(lo: float, hi: float, prime: bool = False,
                     iters: int = 200) -> float:
    """Bisection for a zero of Ai (or Ai') on [lo, hi] using the series."""
    def f(x):
        a, ap = airy_series(x)
        return (ap if prime else a).real
    fa, fb = f(lo), f(hi)
    assert fa * fb < 0, "bracket does not straddle a zero"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fa * fm <= 0:
            hi, fb = mid, fm
        else:
            lo, fa = mid, fm
    return 0.5 * (lo + hi)


def simpson_line(f, a: complex, b: complex, n: int = 4000) -> complex:
    """Composite Simpson along a straight segment (n even)."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


GAUSS_FRESNEL = 0.5 * math.sqrt(math.pi) * cmath.exp(1j * math.pi / 4)
"""int_0^inf e^{i zeta^2} d zeta, exact."""


def asym_scaled_longdouble(z, terms: int):
    """Scaled Ai, Ai' (Ai = ai e^{-Re zeta}) by the asymptotic series of
    DLMF 9.7.5 summed to k = ``terms`` in long double, with its own u_k, v_k
    (DLMF 9.7.2)."""
    z = np.asarray(z, dtype=complex).astype(np.clongdouble)
    zeta = np.longdouble(2) / 3 * z ** np.longdouble(1.5)
    u = np.longdouble(1)
    s_ai = np.ones_like(z)
    s_aip = np.ones_like(z)
    power = np.ones_like(z)
    for k in range(1, terms + 1):
        u = u * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1))
        power = power * (-1 / zeta)
        s_ai = s_ai + u * power
        s_aip = s_aip + u * (6 * k + 1) / (1 - 6 * k) * power
    q = z ** np.longdouble(0.25)
    root_pi = np.sqrt(np.longdouble(np.pi))
    phase = np.exp(-1j * zeta.imag)
    return s_ai / (2 * root_pi * q) * phase, -q * s_aip / (2 * root_pi) * phase


def radius_for_linear(model, tail_tol: float) -> float:
    """``DecayModel.radius_for`` as a walk up the 2^(k/4) ladder one rung at
    a time: a reference copy of the search the package replaced."""
    k = math.ceil(4.0 * math.log2(max(model.min_radius, 1.0)))
    while 2.0 ** (k / 4.0) < model.min_radius or model.tail_bound(2.0 ** (k / 4.0)) > tail_tol:
        k += 1
    return 2.0 ** (k / 4.0)
