"""The Pekeris caret function and its Neumann/Robin generalisations.

The caret function h(t) (p-hat for Dirichlet, q-hat for Neumann, V-hat for
Robin) is meromorphic with a single simple pole at t = 0 of residue
1/(2 pi i).  The three are one integral under three boundary conditions,
alpha A + beta dA = 0 with the impedance pair (alpha, beta) of
``BoundaryKind.impedance``: Dirichlet (1, 0), Neumann (0, 1), Robin
(mu_hat, 1).  Every per-kind quantity (Airy ratios, residue roots and
coefficients, reciprocal-Airy weight, lit-sector prefactor) is homogeneous of
degree 0 in the pair and has one formula for all three kinds.  Four
representations are implemented:

* residue series over the Airy-zero family (sector -pi/3 < arg t < 2pi/3),
* reciprocal-Airy contour integral over L (all t != 0),
* forked contour: 1/(2 pi i t) plus the entire part as integrals along
  rotatable l2/l3 rays (large-argument workhorse in 2pi/3 < arg t < 5pi/3),
* pole split 1/(2 pi i t) + entire(t) near the origin.

One planner (``_plan``) gives every t one route, and one executor per route
evaluates all of a batch's members on that route; ``pekeris_caret`` is the
batch of one and ``caret_log_many`` the log-form batch.  L and the arms are
one ray family on one radius ladder: one model gives each ray's growth rate
and integrand peak (``_ray_rates``, ``_ray_peaks``), and one family integral
(``_ray_family``) runs a batch on a ladder-truncated path.  Contour routes
are chosen by an explicit conditioning estimate: the peak of the integrand's
exponent along each candidate ray is compared with the magnitude of the
result; representations whose quadrature would lose the answer to
cancellation are rejected.  Where every fixed-ray realisation is
ill-conditioned (mid lit sector, where the caret function is exponentially
small), the reciprocal-Airy integral is taken along a numerically traced
steepest-descent path through its saddle.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import airy
from .contours import (ContourPath, DecayModel, Line, Ray, named_contour,
                       path_point_distance, truncate)
from .quadrature import QuadOptions, QuadratureError, integrate_exp_batch

TWO_PI = 2.0 * math.pi
EIP3 = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))      # e^{i pi/3}
EMIP3 = EIP3.conjugate()                                              # e^{-i pi/3}
EMIP6 = complex(math.cos(math.pi / 6.0), -math.sin(math.pi / 6.0))    # e^{-i pi/6}
EM2PI3 = complex(math.cos(2 * math.pi / 3.0), -math.sin(2 * math.pi / 3.0))
OMEGA = complex(math.cos(2 * math.pi / 3.0), math.sin(2 * math.pi / 3.0))

POLE_SPLIT_RADIUS = 0.05     # |t| below which the explicit pole term is split off
SECTOR_GUARD = math.pi / 36  # stay this far inside the residue-series sector
RESIDUE_CAP = 300            # residue terms before the series counts as unconverged
L_CLEARANCE = 0.5            # vertex offset of the reciprocal-Airy contour
COND_L = 16.0                # cancellation exponent up to which L is taken outright
COND_SAFE = 33.0             # max tolerated cancellation exponent of a fixed contour
NODE_TABLE_CAP = 1 << 14     # GK15 panels stored over all node tables (~6 MB)
FAMILY_PHASE = 2.0           # radians of e^{a z} per starting panel of a ray family


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
    def impedance(self) -> tuple[complex, complex]:
        """(alpha, beta) of the boundary operator alpha A + beta dA:
        Dirichlet (1, 0), Neumann (0, 1), Robin (mu_hat, 1).

        Every per-kind quantity is homogeneous of degree 0 in the pair, so
        each has one formula: the Robin one with (mu_hat, 1) -> (alpha, beta).
        """
        if self.kind == "dirichlet":
            return 1.0, 0.0
        if self.kind == "neumann":
            return 0.0, 1.0
        return complex(self.mu_hat), 1.0

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

def _ratio_l2(r1, r2, bc: BoundaryKind):
    """``ratio_l2_parts`` from the scaled Airy triples of omega sigma, omega^2 sigma."""
    (alpha, beta), (a1, ap1, e1), (a2, ap2, e2) = bc.impedance, r1, r2
    num = OMEGA ** 2 * (alpha * a2 - beta * OMEGA ** 2 * ap2)
    den = OMEGA * (alpha * a1 - beta * OMEGA * ap1)
    return num / den, e2 - e1


def _ratio_l3(r0, r1, bc: BoundaryKind):
    """``ratio_l3_parts`` from the scaled Airy triples of sigma, omega sigma."""
    (alpha, beta), (a0, ap0, e0), (a1, ap1, e1) = bc.impedance, r0, r1
    num = alpha * a0 - beta * ap0
    den = OMEGA * (alpha * a1 - beta * OMEGA * ap1)
    return num / den, e0 - e1


def ratio_l2_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A2-type over A1-type ratio on the l2 arm as (weight, real log-scale):
    (alpha A2 - beta A2') / (alpha A1 - beta A1'), A_j(sigma) = omega^j
    Ai(omega^j sigma) and ' = d/dsigma."""
    sigma = np.asarray(sigma, dtype=complex)
    return _ratio_l2(*airy._scaled_each(OMEGA * sigma, OMEGA ** 2 * sigma), bc)


def ratio_l3_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A0-type over A1-type ratio on the l3 arm and on gamma, as parts."""
    sigma = np.asarray(sigma, dtype=complex)
    return _ratio_l3(*airy._scaled_each(sigma, OMEGA * sigma), bc)


# ---------------------------------------------------------------------------
# Residue-series machinery
# ---------------------------------------------------------------------------

_RES_LOCK = threading.Lock()
_RES_CACHE: dict = {}


def _residue_data(bc: BoundaryKind, count: int):
    """(eta_n, coefficient_n) for the residue series of the caret function:
    the roots of the impedance pair and e^{-2i pi/3}/(2 pi) (alpha^2 +
    beta^2 e^{i pi/3} eta) / (alpha Ai'(eta) + beta e^{-i pi/3} eta Ai(eta))^2."""
    key = bc.impedance
    with _RES_LOCK:
        cached = _RES_CACHE.get(key)
        if cached is not None and len(cached[0]) >= count:
            return cached[0][:count], cached[1][:count]
    alpha, beta = key
    eta = airy.impedance_roots(count, alpha, beta)
    a, aip = airy.airy_vec(eta)
    den = alpha * aip + beta * EMIP3 * eta * a
    coef = EM2PI3 / TWO_PI * (alpha ** 2 + beta ** 2 * EIP3 * eta) / den ** 2
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
    A Robin impedance with a continued root in Re eta >= 0 (a root that has
    escaped the Airy-zero family the series sums over) leaves every t
    unconverged, with an infinite error estimate.
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
    escaped = np.any(eta.real >= 0.0)
    while not escaped and not np.all(done) and n < max_terms:
        m = min(block, max_terms - n)
        eta, coef = _residue_data(bc, n + m)
        tail = (coef[None, n:n + m] * np.exp(np.outer(a, eta[n:n + m])))
        total = total + np.where(done, 0.0, tail.sum(axis=1))
        last = np.where(done, last, np.abs(tail[:, -1]))
        n += m
        scale = np.maximum(np.abs(total), 1e-300)
        done = done | (last <= rel_tol * scale)
        escaped = np.any(eta.real >= 0.0)
    done = done & ~escaped
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
    boundary-kind prefactor -(beta t/2 - i alpha)/(beta t/2 + i alpha): 1 for
    Dirichlet, -1 for Neumann."""
    ts = np.asarray(ts, dtype=complex)
    alpha, beta = bc.impedance
    base = (0.5 * np.log(-ts) - math.log(2.0 * math.sqrt(math.pi))
            - 1j * (ts ** 3 / 12.0 - math.pi / 4.0))
    return base + np.log(-(beta * ts / 2 - 1j * alpha) / (beta * ts / 2 + 1j * alpha))


def _lit_log_magnitude(ts) -> np.ndarray:
    """ln |caret(t)| from the lit-sector model (used only for conditioning)."""
    ts = np.asarray(ts, dtype=complex)
    return (-1j * ts ** 3 / 12).real + 0.5 * np.log(np.maximum(np.abs(ts), 1e-9))


# ---------------------------------------------------------------------------
# Shared node tables of the canonical caret paths
# ---------------------------------------------------------------------------

def _find_panels(table, z: np.ndarray):
    """(found mask, table rows) of the midpoints of the panels with nodes
    ``z`` (P, 15) in a table."""
    rows = np.minimum(np.searchsorted(table[0], z[:, 7]), table[0].size - 1)
    return table[0][rows] == z[:, 7], rows


class _NodeTables:
    """Process-wide memo of the member-independent node factors (w, expo) of
    canonical caret paths, per GK15 panel.

    One table per path key holds its panels sorted by midpoint (node 7 of a
    panel's 15; the panels of one path have distinct midpoints, being dyadic
    sub-panels of disjoint segments), with node 0 to confirm a hit.  A hit
    returns the bytes a fresh evaluation gives, since every Airy value
    depends only on its own point: no result depends on what ran before or
    on how threads interleave.  Tables are replaced, never mutated, under
    the lock.  An insert that would pass ``NODE_TABLE_CAP`` stored panels
    clears every table first.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: dict = {}
        self.panels = 0

    def clear(self):
        with self._lock:
            self._tables.clear()
            self.panels = 0

    def lookup(self, key, nodes: np.ndarray, evaluate):
        """``evaluate(nodes)`` = (w, expo), from the table of ``key`` where
        it holds the panel and from one call on the other panels."""
        z = nodes.reshape(-1, 15)
        with self._lock:
            table = self._tables.get(key)
        hit = np.zeros(len(z), dtype=bool)
        if table is not None:
            found, rows = _find_panels(table, z)
            hit = found & (table[1][rows] == z[:, 0])
        w = np.empty(z.shape, dtype=complex)
        expo = np.empty(z.shape)
        if hit.any():
            w[hit], expo[hit] = table[2][rows[hit]], table[3][rows[hit]]
        miss = ~hit
        if miss.any():
            wm, em = evaluate(z[miss].ravel())
            w[miss], expo[miss] = wm.reshape(-1, 15), em.reshape(-1, 15)
            self._store(key, z[miss], w[miss], expo[miss])
        return w.ravel(), expo.ravel()

    def _store(self, key, z, w, expo):
        with self._lock:
            table = self._tables.get(key)
            if table is not None:   # another thread may have stored some
                new = ~_find_panels(table, z)[0]
                z, w, expo = z[new], w[new], expo[new]
            if not len(z) or len(z) > NODE_TABLE_CAP:
                return
            if self.panels + len(z) > NODE_TABLE_CAP:
                self._tables.clear()
                self.panels = 0
                table = None
            order = np.argsort(z[:, 7], kind="stable")
            rows = (z[order, 7], z[order, 0], w[order], expo[order])
            if table is not None:
                at = np.searchsorted(table[0], rows[0])
                rows = tuple(np.insert(old, at, add, axis=0) for old, add in zip(table, rows))
            self._tables[key] = rows
            self.panels += len(z)


# used by ``caret_log_many`` only; the scalar ``pekeris_caret`` evaluates its
# node factors directly
_NODE_TABLES = _NodeTables()


# ---------------------------------------------------------------------------
# Caret contour rays: one model for L and the l2/l3 arms
# ---------------------------------------------------------------------------

# Along a ray at angle phi, a caret integrand's Airy factor decays as
# e^{-B s^{3/2}}, B = (4/3)|cos(3 phi/2)|, and its member factor e^{c t z}
# grows as e^{A s}, A = |t| cos(arg t + offset).  L (c = e^{-i pi/6}) has rays
# at 2pi/3 and -2pi/3, offsets pi/2 and -5pi/6; the arm at angle beta (c = i)
# has offset beta + pi/2, formed as (arg t + beta) + ARM_TURN.
L_ANGLES = np.array([2 * math.pi / 3, -2 * math.pi / 3])
L_OFFSETS = np.array([math.pi / 2, -5 * math.pi / 6])
ARM_TURN = math.pi / 2
L_TAIL_SCALE, ARM_TAIL_SCALE = 50.0, 10.0   # tail-bound scales of the Airy factors


def _ray_rates(ts, offsets, turn=0.0) -> np.ndarray:
    """Growth rates A = |t| cos(arg t + offset + turn) along rays, shape
    (len(ts), k): ``offsets`` holds k offsets for every t, or one row per t."""
    ts = np.asarray(ts, dtype=complex)[:, None]
    return np.abs(ts) * np.cos(np.angle(ts) + offsets + turn)


def _ray_peaks(rates, angles) -> np.ndarray:
    """Peak exponents 4A^3/(27B^2) of e^{A s - B s^{3/2}} along the rays at
    ``angles`` with growth ``rates`` A (0 where A <= 0), shaped as ``rates``."""
    B = 4.0 / 3.0 * np.abs(np.cos(1.5 * np.asarray(angles)))
    return 4.0 * np.maximum(rates, 0.0) ** 3 / (27.0 * B ** 2)


def _ray_path(path: ContourPath, rates, scale: float, tail_tol: float):
    """The rays of ``path`` cut by ``truncate`` at a rung 2^(k/4): (path, k).
    The tail model of e^{A s - B s^{3/2}} takes the largest growth rate A in
    ``rates``, the slowest Airy decay B of the rays and the tail scale
    ``scale``; a ray without decay raises ``SectorError``.  A caret path is
    then a function of a small key (route, impedance pair, arm angle, rung
    k; the L vertex follows from the pair), so batches with similar growth
    rates share it."""
    B, angle = min((4.0 / 3.0 * abs(math.cos(1.5 * ray.angle)), ray.angle)
                   for ray in path.segments)
    if B < 1e-3:
        raise SectorError(f"ray angle {angle} has no ratio decay")
    A = max(float(np.max(rates)), 0.0)
    path = truncate(path, DecayModel("power_three_halves", 0.5 * B, scale=scale,
                                     min_radius=(2.0 * A / B) ** 2), tail_tol)
    return path, round(4.0 * math.log2(path.truncation_radius))


def _ray_family(parts, bc: BoundaryKind, tables: _NodeTables | None, key,
                path: ContourPath, rates, scale: float, a, b, opts: QuadOptions):
    """Each member's int w e^{expo + a z + b} along ``path`` truncated for
    the members' ``rates`` (``_ray_path``), in one ``integrate_exp_batch``:
    (values, errors).  The node factor (w, expo) = parts(z, bc) is memoised
    in ``tables`` (None: evaluated directly) under the key (parts, impedance
    pair) + ``key`` + (rung,).  A member the quadrature does not accept
    raises ``QuadratureError`` ("stalled").  The starting panels are sized
    from the members' largest |a| (``_family_width``)."""
    path, rung = _ray_path(path, rates, scale, opts.truncation_tail_tol)
    factor = functools.partial(parts, bc=bc)
    if tables is not None:
        key = (parts.__name__, bc.impedance) + key + (rung,)
        factor = functools.partial(tables.lookup, key, evaluate=factor)
    return integrate_exp_batch(factor, a, b, path, opts, width=_family_width(a))[:2]


def _family_width(a) -> float:
    """Starting panel width of a ray family: about FAMILY_PHASE radians of
    e^{a z} per panel at the members' largest |a|, rounded down to a power of
    2 and at most 1, so batches of similar |a| start on the same panels (and
    share their node-table entries).

    A family of one keeps the default 2-unit start: every member of the
    scalar ``pekeris_caret`` runs alone, so its values (oracles of the
    matching identities and of the caret tables) and its equality with a
    batch of one stay as they were."""
    a = np.atleast_1d(a)
    if a.size == 1:
        return 2.0
    amax = float(np.max(np.abs(a)))
    if amax <= FAMILY_PHASE:
        return 1.0
    return 2.0 ** math.floor(math.log2(FAMILY_PHASE / amax))


# ---------------------------------------------------------------------------
# Entire part p(t), q(t), V(t, mu) via the l2/l3 arms
# ---------------------------------------------------------------------------

def _entire(ts: np.ndarray, bc: BoundaryKind, opts: QuadOptions,
            beta2=2 * math.pi / 3, beta3=0.0, shifts=None, tables=None):
    """e^{-shift} times the entire part of each t, along l2/l3 rays at beta2
    and beta3: scalars shared by the batch, or one angle per member.

    On each arm, the members at one angle are one ray family
    (``_ray_family``).  Returns (values, errors).  A member's error is the
    sum of its two arms' quadrature errors before the 1/2pi (so with that
    much margin).
    """
    shifts = np.zeros(ts.shape) if shifts is None else shifts
    arms = np.empty((ts.size, 2))
    arms[:, 0], arms[:, 1] = beta2, beta3
    rates = _ray_rates(ts, arms, ARM_TURN)
    total = np.zeros(ts.shape, dtype=complex)
    errs = np.zeros(ts.shape)
    for j, parts in enumerate((ratio_l2_parts, ratio_l3_parts)):
        for beta in np.unique(arms[:, j]):
            sel = np.nonzero(arms[:, j] == beta)[0]
            ray = ContourPath((Ray(0.0, float(beta), inward=False),))
            v, e = _ray_family(parts, bc, tables, (float(beta),), ray, rates[sel, j],
                               ARM_TAIL_SCALE, 1j * ts[sel], -shifts[sel], opts)
            # l2 runs from infinity towards 0 (negated outward ray); l3 enters with -
            total[sel] -= v
            errs[sel] += e
    return total / TWO_PI, errs


def pekeris_entire(t: complex, bc: BoundaryKind = DIRICHLET,
                   opts: QuadOptions | None = None,
                   beta2: float = 2 * math.pi / 3, beta3: float = 0.0) -> complex:
    """The entire part: (1/2pi) [ int_{l2} e^{i t sigma} r2 - int_{l3} e^{i t sigma} r3 ].

    Smooth across t = 0.  For Dirichlet and Neumann the l2/l3 rays may be
    rotated within their decay bands (pi/3, pi) and (-pi/3, pi/3) without
    changing the value; the poles of a Robin ratio move with mu_hat into
    those bands, and a rotation across one changes it.
    """
    vals, _ = _entire(np.array([complex(t)]), bc, opts or QuadOptions(), beta2, beta3)
    return complex(vals[0])


# candidate l2/l3 ray angles of the forked form, without the rays whose
# ratio decay rate (4/3)|cos(3 beta/2)| is below 0.05
_FORK_GRIDS = tuple(g[4.0 / 3.0 * np.abs(np.cos(1.5 * g)) >= 5e-2] for g in (
    np.linspace(math.pi / 3 + 0.12, math.pi - 0.02, 41),
    np.linspace(-math.pi / 3 + 0.12, math.pi / 3 - 0.12, 41)))


def _fork_rays(ts):
    """Per t, the l2/l3 ray angles minimising the cancellation peaks of the
    forked form: arrays (beta2, beta3, peak_exponent).

    The peaks scale as |t|^3, so the angles depend on arg t alone."""
    best = []
    for grid in _FORK_GRIDS:
        peaks = _ray_peaks(_ray_rates(ts, grid, ARM_TURN), grid)
        i = np.argmin(peaks, axis=1)
        best.append((grid[i], peaks[np.arange(i.size), i]))
    (beta2, peak2), (beta3, peak3) = best
    return beta2, beta3, np.maximum(peak2, peak3)


def _forked_angles(t: complex) -> tuple[float, float, float]:
    """Ray angles minimising the cancellation peaks of the forked form.

    Returns (beta2, beta3, peak_exponent).
    """
    beta2, beta3, peak = _fork_rays(np.array([complex(t)]))
    return float(beta2[0]), float(beta3[0]), float(peak[0])


def _forked(ts, bc: BoundaryKind, opts: QuadOptions, beta2, beta3, shifts,
            tables=None):
    """Forked form e^{-shift} (1/(2 pi i t) + entire(t)) on the l2/l3 rays at
    beta2 and beta3 (scalars or one angle per member): (values, errors)."""
    vals, errs = _entire(ts, bc, opts, beta2, beta3, shifts, tables)
    vals = vals + np.exp(-shifts) / (TWO_PI * 1j * ts)
    return vals, errs + 1e-13 * np.abs(vals)


def _caret_forked(t: complex, bc: BoundaryKind, opts: QuadOptions,
                  beta2: float, beta3: float) -> tuple[complex, float]:
    vals, errs = _forked(np.array([complex(t)]), bc, opts, beta2, beta3, np.zeros(1))
    return complex(vals[0]), float(errs[0])


# ---------------------------------------------------------------------------
# Reciprocal-Airy contour representation
# ---------------------------------------------------------------------------

def _reciprocal_weight(eta: np.ndarray, bc: BoundaryKind):
    """(w, expo) with integrand = w * exp(a*eta + expo): the non-exponential
    factor and the real log-scale of the reciprocal Airy denominator."""
    eta = np.asarray(eta, dtype=complex)
    alpha, beta = bc.impedance
    a, ap, e = airy.airy_scaled_vec(eta)
    den = alpha * a + beta * EMIP3 * ap
    return (alpha ** 2 + beta ** 2 * EIP3 * eta) / den ** 2, -2.0 * e


@functools.lru_cache(maxsize=1024)
def _l_vertex(impedance: tuple[complex, complex]) -> float:
    """Vertex of L clearing the first roots of the impedance pair by 0.35."""
    vertex = L_CLEARANCE
    # the zeros of Ai and Ai' (real, negative) stay more than 1.3 from the
    # standard L, so only a Robin root can move its vertex
    roots = airy.impedance_roots(3, *impedance)
    for _ in range(6):
        path = named_contour("L", vertex)
        if min(path_point_distance(path, complex(r)) for r in roots) >= 0.35:
            break
        vertex += 0.5
    return vertex


def _run_reciprocal(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """Reciprocal-Airy contour L: (values, errors, 0.0).

    Members are grouped by the growth rate of |e^{a eta}| (a = e^{-i pi/6} t)
    on the faster L ray, so slow-decay members do not force a long truncated
    path (and deep refinement) onto the whole batch; each group is one ray
    family (``_ray_family``) on L with the vertex of the impedance pair."""
    rates = _ray_rates(ts, L_OFFSETS)
    group = np.maximum(0, np.ceil(rates.max(axis=1) / 1.5)).astype(int)
    contour = named_contour("L", _l_vertex(bc.impedance))
    vals = np.empty(ts.shape, dtype=complex)
    errs = np.empty(ts.shape)
    for g in np.unique(group):
        sel = np.nonzero(group == g)[0]
        v, e = _ray_family(_reciprocal_weight, bc, tables, (), contour, rates[sel],
                           L_TAIL_SCALE, EMIP6 * ts[sel], 0.0, opts)
        pref = -1.0 / (4.0 * math.pi ** 2 * ts[sel])
        vals[sel] = pref * v
        errs[sel] = np.abs(pref) * e
    return vals, errs, 0.0


def _caret_reciprocal(t: complex, bc: BoundaryKind, opts: QuadOptions) -> tuple[complex, float]:
    vals, errs, _ = _run_reciprocal(np.array([complex(t)]), bc, opts)
    return complex(vals[0]), float(errs[0])


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

    vals, errs, _, _ = integrate_exp_batch(lambda eta: _reciprocal_weight(eta, bc), a,
                                           -h(eta_star), path, opts)
    v = complex(vals[0])
    pref = -1.0 / (4.0 * math.pi ** 2 * t) * np.exp(h(eta_star))
    return complex(pref * v), abs(pref) * (float(errs[0]) + 1e-14 * abs(v))


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
    vals, _, _, _ = integrate_exp_batch(lambda s: ratio_l3_parts(s, bc), 1j * t, 0.0, path, opts)
    return -complex(vals[0]) / TWO_PI


# ---------------------------------------------------------------------------
# Route planner and batch executors
# ---------------------------------------------------------------------------

def _run_residue(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    vals, errs, _ = caret_residue_series(ts, bc)
    return vals, errs, 0.0


def _run_saddle(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """Traced steepest-descent path, one member at a time (each has its own)."""
    vals = np.zeros(ts.shape, dtype=complex)
    errs = np.full(ts.shape, np.inf)
    for k, t in enumerate(ts):
        try:
            vals[k], errs[k] = _caret_saddle(complex(t), bc, opts)
        except (SectorError, QuadratureError):
            pass
    return vals, errs, 0.0


def _run_pole_split(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """1/(2 pi i t) + entire(t) on the default arms, with the arms' errors."""
    if np.any(ts == 0):
        raise PoleError("the caret function has a pole at t = 0")
    vals, errs = _forked(ts, bc, opts, 2 * math.pi / 3, 0.0, np.zeros(ts.shape), tables)
    return vals, errs, 0.0


def _run_forked(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """Forked contour, each member on its own cancellation-minimising arms.

    The angles come from a fixed grid and depend only on arg t, so the
    members at one angle share that arm's batch quadrature (see ``_entire``).
    Each member is scaled by e^{-shift}, shift = max(0, ln|caret| model), so
    rows stay representable where the caret function is exponentially large.
    A member its group does not accept raises ``QuadratureError`` ("stalled").
    """
    shifts = np.maximum(0.0, _lit_log_magnitude(ts))
    beta2, beta3, _ = _fork_rays(ts)
    vals, errs = _forked(ts, bc, opts, beta2, beta3, shifts, tables)
    return vals, errs, shifts


# The routes in execution order: the two that can give up on a member (an
# infinite error estimate) run before the routes the planner falls back to.
ROUTES = ("residue_series", "traced_saddle", "pole_split",
          "reciprocal_airy_contour", "forked_contour")
_RESIDUE, _SADDLE, _POLE, _L, _FORKED = range(len(ROUTES))
_EXECUTORS = (_run_residue, _run_saddle, _run_pole_split, _run_reciprocal, _run_forked)


def _plan(ts, skip=frozenset()) -> np.ndarray:
    """The route of each t, as an index into ``ROUTES``.

    The pole split near the origin; the residue series in its sector;
    elsewhere the reciprocal-Airy contour L while its cancellation exponent
    (integrand peak over the lit-model |result|, in e-folds) is at most
    ``COND_L``; then the better conditioned of L and the forked contour when
    either is within ``COND_SAFE``; else the traced saddle path.  Routes in
    ``skip`` have given up on these points and are passed over.
    """
    ts = np.asarray(ts, dtype=complex)
    route = np.full(ts.shape, _L)
    route[np.abs(ts) < POLE_SPLIT_RADIUS] = _POLE
    if _RESIDUE not in skip:
        route[(route == _L) & _in_residue_sector(ts)] = _RESIDUE
    rest = np.nonzero(route == _L)[0]
    lit = np.where(np.abs(ts[rest]) > 3.0, _lit_log_magnitude(ts[rest]), 0.0)
    deficit = -np.minimum(lit, 0.0)
    cond_plain = _ray_peaks(_ray_rates(ts[rest], L_OFFSETS), L_ANGLES).max(axis=1) + deficit
    hard = np.nonzero(cond_plain > COND_L)[0]
    if hard.size:
        plain = cond_plain[hard]
        forked = _fork_rays(ts[rest[hard]])[2] + deficit[hard]
        fixed = np.where(plain <= forked, _L, _FORKED)
        safe = (np.minimum(plain, forked) <= COND_SAFE) | (_SADDLE in skip)
        route[rest[hard]] = np.where(safe, fixed, _SADDLE)
    return route


def _caret_batch(ts: np.ndarray, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """Plan every t, then run each route's executor once on all its members,
    the contour routes with their node factors from ``tables`` (None:
    evaluated directly).

    Returns (routes, values, errors, shifts); the caret function is
    value * e^{shift}.  A member the residue series or the saddle path gives
    up on is planned again without that route.
    """
    route = _plan(ts)
    vals = np.zeros(ts.shape, dtype=complex)
    errs = np.zeros(ts.shape)
    shifts = np.zeros(ts.shape)
    skip = set()
    for r, run in enumerate(_EXECUTORS):
        idx = np.nonzero(route == r)[0]
        if idx.size == 0:
            continue
        vals[idx], errs[idx], shifts[idx] = run(ts[idx], bc, opts, tables)
        lost = idx[np.isinf(errs[idx])]
        if lost.size and r in (_RESIDUE, _SADDLE):
            skip.add(r)
            route[lost] = _plan(ts[lost], skip)
    return route, vals, errs, shifts


def pekeris_caret(t: complex, bc: BoundaryKind = DIRICHLET,
                  opts: QuadOptions | None = None) -> CaretEval:
    """Caret function with representation chosen by sector and conditioning
    (the planner and executors of ``caret_log_many`` on a batch of one)."""
    route, vals, errs, shifts = _caret_batch(np.array([complex(t)]), bc,
                                             opts or QuadOptions())
    scale = math.exp(shifts[0])
    # the traced saddle path is a realisation of the reciprocal-Airy integral
    label = ROUTES[_L if route[0] == _SADDLE else route[0]]
    return CaretEval(complex(vals[0]) * scale, label, float(errs[0]) * scale)


def caret_log_many(ts, bc: BoundaryKind = DIRICHLET,
                   opts: QuadOptions | None = None):
    """log of the caret function, vectorised and overflow-safe.

    Runs the same planner and executors as ``pekeris_caret`` on the whole
    batch, with the node factors of the L and arm paths memoised in the
    process-wide node tables; a memoised factor is the bytes a fresh
    evaluation gives.  Returns (log_values, rel_errors).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    _, vals, errs, shifts = _caret_batch(ts, bc, opts or QuadOptions(), _NODE_TABLES)
    with np.errstate(divide="ignore"):
        return np.log(vals) + shifts, errs / np.maximum(np.abs(vals), 1e-300)
