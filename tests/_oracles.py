"""Independent oracles for the test suite.

Everything here is deliberately decoupled from the package internals: plain
Python complex arithmetic, gamma-function constants, bisection, and
composite Simpson quadrature.  Expected values frozen into the tests were
computed with these.  One exception is a reference copy of a vectorised
loop the package replaced, which a test compares with bit for bit.
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


def asym_scaled_reference(z, uvk, term_radii):
    """The far-band asymptotic series as one whole-batch Horner loop: every
    point takes every step, with the coefficients past its term count set
    to 0.  A reference copy of the loop ``airy._asym_scaled_vec`` replaced,
    given that module's coefficient table ``uvk`` (rows u_k, v_k) and its
    term radii."""
    z = np.asarray(z, dtype=complex)
    zeta = (2.0 / 3.0) * z ** 1.5
    azeta = np.abs(zeta)
    first_tiny = np.searchsorted(-term_radii, -np.log(azeta), side="right") + 1
    terms = np.minimum(np.minimum(azeta, float(uvk.shape[1] - 1)).astype(int), first_tiny)
    inv = -1.0 / zeta
    sums = np.zeros((2,) + z.shape, dtype=complex)
    for k in range(int(np.max(terms, initial=0)), -1, -1):
        sums = sums * inv + uvk[:, k:k + 1] * (k <= terms)
    s_ai, s_aip = sums
    q = z ** 0.25
    ai = s_ai / (2.0 * math.sqrt(math.pi) * q)
    aip = -q * s_aip / (2.0 * math.sqrt(math.pi))
    phase = np.exp(-1j * zeta.imag)
    return ai * phase, aip * phase, -zeta.real
