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
(``_ray_family``) runs a batch on a ladder-truncated path.  One rule cuts
every Airy-ratio ray (``_tail_model``): the caret rays, the sigma-plane legs
of ``fock`` and the ray of ``matching.i_sigma``, each from its ratio's tail
scale measured on its own rays (``_tail_scale``).
Contour routes are chosen by an explicit conditioning estimate: the peak of
the integrand's exponent along each candidate ray is compared with the
magnitude of the result; representations whose quadrature would lose the
answer to cancellation are rejected.  Where every fixed-ray realisation is
ill-conditioned (mid lit sector, where the caret function is exponentially
small), one reciprocal-Airy route takes the integral on a template path
instead of L: the closed-form steepest-descent path (``_saddle_path``)
through the saddle of a_c, a = e^{-i pi/6} t rounded to a square lattice of
spacing SADDLE_LATTICE = 0.25.  The members of one cell share the path and
run as one exponential family, as the members of one L group do.  Off its
own path a member's exponent moves at the path ends by about 8.6|a - a_c|
e-folds (tail tolerance 1e-12), inside the 6-e-fold margin the path adds to
its drop.  Against each member's own path on 1353 lit points |t| in [4, 14]
for D, N, Robin(1+i) and Robin(2), every template value lies within the
summed estimates at tail tolerance 1e-6 (at most 0.38 of them); at 1e-12
the worst ratio is 1.72, at |t| <= 6, below where ``_plan`` uses templates.
"""

from __future__ import annotations

import cmath
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
NODE_TABLE_CAP = 1 << 14     # GK15 panels the node-factor memo stores (~10 MB)
FAMILY_PHASE = 4.0           # radians of e^{a z} per starting panel of a ray family
SADDLE_POINTS = 16           # tau points per branch of the closed-form saddle path
SADDLE_LATTICE = 0.25        # spacing of the a-lattice of the template saddle paths


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
    # named, so numpy multiplies them by OMEGA out of place (same bits) at any size
    num, den = alpha * a2 - beta * OMEGA ** 2 * ap2, alpha * a1 - beta * OMEGA * ap1
    return OMEGA ** 2 * num / (OMEGA * den), e2 - e1


def _ratio_l3(r0, r1, bc: BoundaryKind):
    """``ratio_l3_parts`` from the scaled Airy triples of sigma, omega sigma."""
    (alpha, beta), (a0, ap0, e0), (a1, ap1, e1) = bc.impedance, r0, r1
    den = alpha * a1 - beta * OMEGA * ap1   # named, as in ``_ratio_l2``
    return (alpha * a0 - beta * ap0) / (OMEGA * den), e0 - e1


def _l2_args(sigma):
    return OMEGA * sigma, OMEGA ** 2 * sigma


def _l3_args(sigma):
    return sigma, OMEGA * sigma


def ratio_l2_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A2-type over A1-type ratio on the l2 arm as (weight, real log-scale):
    (alpha A2 - beta A2') / (alpha A1 - beta A1'), A_j(sigma) = omega^j
    Ai(omega^j sigma) and ' = d/dsigma."""
    return _ratio_l2(*airy._scaled_each(*_l2_args(np.asarray(sigma, dtype=complex))), bc)


def ratio_l3_parts(sigma: np.ndarray, bc: BoundaryKind):
    """A0-type over A1-type ratio on the l3 arm and on gamma, as parts."""
    return _ratio_l3(*airy._scaled_each(*_l3_args(np.asarray(sigma, dtype=complex))), bc)


# per ratio factor, by name, its Airy arguments at sigma and its formula from
# their scaled triples: a caller that merges the factor's Airy call with its
# own (the sigma-plane legs of ``fock``) evaluates it from these, to the same bits
RATIO_AIRY = {"ratio_l2_parts": (_l2_args, _ratio_l2), "ratio_l3_parts": (_l3_args, _ratio_l3)}


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

    Vectorised over t; returns (values, error_estimates, converged_mask),
    from at most ``max_terms`` terms (at least 1), summed in blocks of 20.
    A Robin impedance with a continued root in Re eta >= 0 (a root that has
    escaped the Airy-zero family the series sums over) leaves every t
    unconverged, with an infinite error estimate.
    """
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    t = np.atleast_1d(np.asarray(t, dtype=complex))
    a = EMIP6 * t
    total = np.zeros(t.shape, dtype=complex)
    last = np.zeros(t.shape)
    done = np.zeros(t.shape, dtype=bool)
    n, escaped = 0, False
    while not escaped and not np.all(done) and n < max_terms:
        m = min(20, max_terms - n)
        eta, coef = _residue_data(bc, n + m)
        tail = coef[None, n:n + m] * np.exp(np.outer(a, eta[n:n + m]))
        total = total + np.where(done, 0.0, tail.sum(axis=1))
        last = np.where(done, last, np.abs(tail[:, -1]))
        n += m
        done = done | (last <= rel_tol * np.maximum(np.abs(total), 1e-300))
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
    t = complex(_finite(t)[0])
    th = math.atan2(t.imag, t.real) % (2 * math.pi)
    if not (2 * math.pi / 3 < th < 5 * math.pi / 3):
        raise SectorError("lit asymptotics require arg t in (2pi/3, 5pi/3)")
    return complex(np.exp(caret_lit_log_asymptotic(t, bc)))


def caret_lit_log_asymptotic(ts, bc: BoundaryKind) -> np.ndarray:
    """log of ``caret_lit_asymptotic``, vectorised and without the sector
    check: log(sqrt(-t)/(2 sqrt(pi))) - i(t^3/12 - pi/4) plus the log of the
    boundary-kind prefactor -``reflection_factor(t, alpha, beta)``: 1 for
    Dirichlet, -1 for Neumann.  Its real part is the planner's model of
    ln |caret|.  At the prefactor's zero t = 2i alpha/beta the model is 0 and
    its log -inf."""
    ts = np.asarray(ts, dtype=complex)
    base = (0.5 * np.log(-ts) - math.log(2.0 * math.sqrt(math.pi))
            - 1j * (ts ** 3 / 12.0 - math.pi / 4.0))
    with np.errstate(divide="ignore"):
        return base + np.log(-reflection_factor(ts, *bc.impedance))


def reflection_factor(t, alpha, beta):
    """(beta t/2 - i alpha)/(beta t/2 + i alpha), in the lit model and the reflected wave."""
    return (beta * t / 2 - 1j * alpha) / (beta * t / 2 + 1j * alpha)


# ---------------------------------------------------------------------------
# Shared node-factor memo of the canonical caret paths
# ---------------------------------------------------------------------------

class _NodeTables:
    """Process-wide memo of the member-independent node factors (w, expo) of
    canonical caret paths (the L weight, the arm ratios, and the ratios of
    the sigma-plane legs of ``fock``), keyed by request: (path key, node
    bytes) -> the read-only (w, expo) a fresh evaluation of those nodes gave.
    Every Airy value depends only on its own point, so no result depends on
    what ran before or on how threads interleave.  ``panels`` counts the
    GK15 panels stored: a request of more than ``NODE_TABLE_CAP`` is not
    stored, and one that would pass it clears every entry first.  ``lookup``
    evaluates a miss itself; the legs, which merge that evaluation with
    their own Airy call, use ``get`` and ``put``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}
        self.panels = 0

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.panels = 0

    def get(self, key, nodes: np.ndarray):
        with self._lock:    # the stored (w, expo) on ``nodes``, or None
            return self._entries.get((key, nodes.tobytes()))

    def put(self, key, nodes: np.ndarray, values):
        """Store ``values`` = (w, expo) on ``nodes``, read-only; return the entry."""
        for v in values:
            v.flags.writeable = False
        request, size = (key, nodes.tobytes()), nodes.size // 15
        with self._lock:
            if request not in self._entries and size <= NODE_TABLE_CAP:
                if self.panels + size > NODE_TABLE_CAP:
                    self._entries.clear()
                    self.panels = 0
                self._entries[request] = values
                self.panels += size
            return self._entries.get(request, values)

    def lookup(self, key, nodes: np.ndarray, evaluate):
        """``evaluate(nodes)`` = (w, expo), memoised under ``key``."""
        return self.get(key, nodes) or self.put(key, nodes, evaluate(nodes))


# used by ``caret_log_many`` and by the sigma-plane legs of ``fock``; the
# scalar ``pekeris_caret`` evaluates its node factors directly
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
TAIL_RATE = 0.25     # added to every ray's growth rate (see ``_tail_scale``)
# log of K/(2 sqrt(pi)) in |Ai(w)| <= K (1 + |w|)^{-1/4} e^{-Re zeta(w)}/(2 sqrt(pi)),
# zeta = (2/3) w^{3/2} principal: K = 2.28 bounds |Ai| over that envelope on a
# polar grid out to |w| = 200 (2.2786); DLMF 9.7(iv) bounds the remainder beyond
_LOG_AIRY_BOUND = math.log(2.28 / (2.0 * math.sqrt(math.pi)))
_LEG_S = np.arange(129) / 2.0     # s <= 64: where ``_tail_model`` samples a leg
_LEG_S32, _LEG_SR = _LEG_S ** 1.5, TAIL_RATE * _LEG_S


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


@functools.lru_cache(maxsize=4096)
def _tail_scale(parts, bc: BoundaryKind, rays) -> float:
    """The tail scale of the factor (w, expo) = parts(z, bc) on ``rays``:
    twice the largest |w e^{expo}| e^{B s^{3/2} - TAIL_RATE s} sampled for
    s <= 64 on each ray, B = (4/3)|cos(3 phi/2)| at its angle phi.  It bounds
    the factor's envelope, which grows like e^{O(s^{1/2})} (the L weight) and
    peaks near a Robin pole (553 on the default l3 arm for mu_hat = 2), for
    |mu_hat| <= 10.  A sample that is not finite (a pole on the ray) raises
    ``SectorError`` naming the ray: no cut is made from it."""
    s, phi = np.arange(513) / 8.0, np.array([[ray.angle] for ray in rays])
    z = np.array([[ray.origin] for ray in rays], dtype=complex) + s * np.exp(1j * phi)
    w, expo = (x.reshape(z.shape) for x in parts(z.ravel(), bc))
    B = 4.0 / 3.0 * np.abs(np.cos(1.5 * phi))
    peaks = np.max(np.abs(w) * np.exp(expo + B * s ** 1.5 - TAIL_RATE * s), axis=1)
    for ray, peak in zip(rays, peaks):
        if not math.isfinite(peak):
            raise SectorError(f"tail scale {peak} on the ray at angle {ray.angle} from "
                              f"{ray.origin}: a pole sits on it")
    return 2.0 * float(np.max(peaks))


def _tail_model(parts, bc: BoundaryKind, rays, rate: float, lift: float = 0.0,
                airy_args=None) -> DecayModel:
    """Where an Airy-ratio integrand on ``rays`` is cut: the model scale
    e^{max(rate + TAIL_RATE, 0) s - c s^{3/2}} of e^{lift} times a factor
    growing like e^{rate s} times the ratio (w, expo) = parts(z, bc) (None:
    no ratio), which is at most ``_tail_scale`` e^{TAIL_RATE s - B s^{3/2}},
    B = (4/3)|cos(3 phi/2)| on the slowest ray.  Without ``airy_args`` (the
    caret families, I_Sigma), c = B.  A sigma-plane leg (one ray) passes the
    arguments w_j = airy_args(z) of its point-dependent Airy factors, affine
    in z: the first multiplies the ratio, each other is a term alone.
    |Ai(w)| <= K (1 + |w|)^{-1/4} e^{-Re zeta(w)}/(2 sqrt(pi)) decays at a_j =
    (2/3) Re d_j^{3/2}, d_j the direction of w_j: c is the slowest term's
    decay, and the scale takes twice the term count times the largest term
    times e^{c s^{3/2} - TAIL_RATE s} on ``_LEG_S``, as a log: past the float
    range it raises ``QuadratureError`` ("untruncated").  No Airy function is
    called.  A ray without decay raises ``SectorError`` before any sample."""
    B, angle = min((4.0 / 3.0 * abs(math.cos(1.5 * ray.angle)), ray.angle) for ray in rays)
    c, origin, unit = B, rays[0].origin, complex(math.cos(angle), math.sin(angle))
    if airy_args is not None:
        decay = [(2.0 / 3.0) * (cmath.sqrt(b - a) * (b - a)).real    # w^{3/2} = w sqrt(w)
                 for a, b in zip(airy_args(origin), airy_args(origin + unit))]
        c = min([decay[0] + (0.0 if parts is None else B), *decay[1:]])
    if c < 1e-3:
        raise SectorError(f"ray angle {angle} has no ratio decay")
    scale = (1.0 if parts is None else _tail_scale(parts, bc, rays)) * math.exp(lift)
    if airy_args is not None:
        w = np.array(airy_args(origin + _LEG_S * unit))
        logs = -0.25 * np.log1p(np.abs(w)) - (2.0 / 3.0) * (np.sqrt(w) * w).real
        if parts is not None:
            logs[0] += _LEG_SR - B * _LEG_S32
        log_scale = (math.log(2.0 * len(w) * scale) + _LOG_AIRY_BOUND
                     + (logs + (c * _LEG_S32 - _LEG_SR)).max())
        if log_scale > np.log(np.finfo(float).max):
            raise QuadratureError(f"tail scale e^{log_scale:.1f} on the ray at angle {angle} "
                                  f"from {origin} is past the float range", "untruncated")
        scale = math.exp(log_scale)
    return DecayModel("power_three_halves", c, scale=scale, rate=max(rate + TAIL_RATE, 0.0))


def _ray_family(parts, bc: BoundaryKind, tables: _NodeTables | None, key,
                path: ContourPath, rates, a, b, opts: QuadOptions):
    """Each member's int w e^{expo + a z + b} along the rays of ``path`` cut
    by ``truncate`` at a rung 2^(k/4), in one ``integrate_exp_batch``:
    (values, errors), each error with one tail tolerance per ray.  The tail
    model is ``_tail_model`` of the largest growth rate in ``rates``, lifted
    by the members' largest |e^{a v + b}| (at least 1) at the rays' origin v.
    A caret path is thus fixed by a small key (route, impedance pair, arm
    angle, rung k): ``tables`` (None: evaluated directly) memoises the node
    factor (w, expo) = parts(z, bc) under the path key ``_node_key(parts,
    bc, key, path)`` (``_node_factor``).  A member the quadrature does not
    accept raises ``QuadratureError`` ("stalled").  ``_family_width`` sizes
    the panels."""
    lift = max(0.0, float(np.max(np.real(a * path.segments[0].origin + b))))
    model = _tail_model(parts, bc, path.segments, float(np.max(rates)), lift)
    path = truncate(path, model, opts.truncation_tail_tol)
    factor = _node_factor(parts, bc, tables, _node_key(parts, bc, key, path))
    return integrate_exp_batch(factor, a, b, path, opts, width=_family_width(a))[:2]


def _node_factor(parts, bc: BoundaryKind, tables: _NodeTables | None, key):
    """z -> parts(z, bc) = (w, expo), memoised per request in ``tables``
    under the path key ``key`` (``tables`` None: evaluated directly)."""
    factor = functools.partial(parts, bc=bc)
    return factor if tables is None else functools.partial(tables.lookup, key, evaluate=factor)


def _node_key(parts, bc: BoundaryKind, key: tuple, path: ContourPath) -> tuple:
    """The path key in ``_NodeTables`` of the factor ``parts`` on the cut
    ``path``: (parts name, impedance pair) + ``key`` (the arm angle; () on
    L) + (rung k of the cut radius 2^(k/4),).  A ray from 0 at one angle and
    rung is one path, a caret arm's or a sigma-plane leg's of ``fock``; a
    memo entry is one request on it, keyed by the path key and node bytes."""
    return (parts.__name__, bc.impedance) + key + (round(4 * math.log2(path.truncation_radius)),)


def _family_width(a) -> float:
    """Starting panel width of a ray family: about FAMILY_PHASE radians of
    e^{a z} per panel at the members' largest |a|, rounded down to a power of
    2 and at most 1, so batches of similar |a| start on the same panels (and
    repeat each other's node-factor requests).

    A family of one keeps the default 2-unit start: every member of the
    scalar ``pekeris_caret`` runs alone, so its values (oracles of the
    matching identities and of the caret tables) and its equality with a
    batch of one stay as they were.  On |a|-sized panels the forked
    estimate at Dirichlet t = -3.17-5.09i falls from 1.7e-10 to 2.8e-12,
    below the 4.9e-11 by which L there misses the forked value and the saddle
    path's (those two agree to 3e-15), and
    ``test_forked_error_estimate_covers_arm_quadrature`` fails."""
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
    and beta3: scalars shared by the batch, or one angle per member.  On each
    arm, the members at one angle are one ray family (``_ray_family``).
    Returns (values, errors).  A member's error is the sum of its two arms'
    quadrature errors before the 1/2pi (so with that much margin)."""
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
                               1j * ts[sel], -shifts[sel], opts)
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
    for name, beta in (("beta2", beta2), ("beta3", beta3)):
        _finite(beta, f"arm angle {name}")
    vals, _ = _entire(_finite(t), bc, opts or QuadOptions(), beta2, beta3)
    return complex(vals[0])


# candidate l2/l3 ray angles of the forked form, without the rays whose
# ratio decay rate (4/3)|cos(3 beta/2)| is below 0.05
_FORK_GRIDS = tuple(g[4.0 / 3.0 * np.abs(np.cos(1.5 * g)) >= 5e-2] for g in (
    np.linspace(math.pi / 3 + 0.12, math.pi - 0.02, 41),
    np.linspace(-math.pi / 3 + 0.12, math.pi / 3 - 0.12, 41)))


def _fork_rays(ts):
    """Per t, the l2/l3 ray angles minimising the cancellation peaks of the
    forked form: arrays (beta2, beta3, peak_exponent).  The peaks scale as
    |t|^3, so the angles depend on arg t alone."""
    best = []
    for grid in _FORK_GRIDS:
        peaks = _ray_peaks(_ray_rates(ts, grid, ARM_TURN), grid)
        i = np.argmin(peaks, axis=1)
        best.append((grid[i], peaks[np.arange(i.size), i]))
    (beta2, peak2), (beta3, peak3) = best
    return beta2, beta3, np.maximum(peak2, peak3)


def _forked_angles(t: complex) -> tuple[float, float, float]:
    """``_fork_rays`` of one t: (beta2, beta3, peak_exponent)."""
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
def _l_contour(bc: BoundaryKind) -> ContourPath:
    """L, its vertex clearing the first roots of the impedance pair by 0.35."""
    vertex = L_CLEARANCE
    # the zeros of Ai and Ai' (real, negative) stay more than 1.3 from the
    # standard L, so only a Robin root can move its vertex
    roots = airy.impedance_roots(3, *bc.impedance)
    for _ in range(6):
        path = named_contour("L", vertex)
        if min(path_point_distance(path, complex(r)) for r in roots) >= 0.35:
            break
        vertex += 0.5
    return path


def _saddle_path(a: complex, tail_tol: float) -> ContourPath:
    """The steepest-descent path of h(eta) = a eta + (4/3) eta^{3/2} through
    its saddle eta* = (a/2)^2, in closed form.

    With eta = (a v/2)^2 (eta^{1/2} = -a v/2), h - h* = -(a^3/6)(v - 1)^2(v +
    1/2), h* = a^3/12, so h - h* = -tau at v = 1/2 + cos(arccos(24 tau/a^3 -
    1)/3 - 2 pi j/3), and branches j = 0, 1 leave the saddle v = 1 (on the
    arccos cut, arg t = 7pi/6, they are conjugates: the pair is the same from
    either side).  Each is a polyline through SADDLE_POINTS values of tau,
    quadratic in tau (so evenly spaced in v near the saddle), out to drop =
    -ln(tail_tol) + 6; the branch ending lower comes first, as L's incoming
    ray.  The path ends on the curve, where the integrand is e^{-drop} of its
    saddle value, and records one ``tail_tol`` per cut branch."""
    drop = -math.log(tail_tol) + 6.0
    tau = drop * (np.arange(1, SADDLE_POINTS + 1) / SADDLE_POINTS) ** 2
    theta = np.arccos(24.0 * tau / a ** 3 - 1.0) / 3.0
    up, dn = ((a * (0.5 + np.cos(theta - 2 * math.pi * j / 3)) / 2) ** 2 for j in (0, 1))
    if up[-1].imag < dn[-1].imag:
        up, dn = dn, up
    points = np.concatenate((dn[::-1], [(a / 2) ** 2], up))
    return ContourPath(tuple(Line(p, q) for p, q in zip(points[:-1], points[1:])),
                       truncation_tail=2.0 * tail_tol)


def _run_reciprocal(ts, bc: BoundaryKind, opts: QuadOptions, tables=None, template=None):
    """The reciprocal-Airy integral w(eta) e^{a eta}, a = e^{-i pi/6} t, of
    each t: (values, errors, 0.0).  Members are grouped by path, and each
    group is one exponential family in one ``integrate_exp_batch``.

    On L (``template`` None or False) the groups are by growth rate of
    |e^{a eta}| on the faster L ray, so slow-decay members do not force a
    long truncated path (and deep refinement) onto the whole batch; each is
    one ray family (``_ray_family``).  A member's estimate is |pref| err.

    A member marked in ``template`` runs with b = -a^3/12 on the template
    ``_saddle_path(a_c, tail_tol)`` of its cell, a_c being a rounded to the
    SADDLE_LATTICE; ``tables`` keys it by (factor, impedance pair, a_c, tail
    tolerance).  Its exponent differs from the template's own by a_c^3 eps
    (v^2 - 1)/4 + O(eps^2), eps = a/a_c - 1: nothing at the saddle to first
    order, so the path's 2 tail tolerances remain a bound while the cell
    half-diagonal 0.18 keeps the ends inside the path's 6-e-fold margin.
    The estimate is |pref e^{a^3/12}| (err + 2^-53 |a|^3 |v|): the caret
    function magnifies the rounding of a about |a|^3/4 times (against
    30-digit values at 7 lit points, |t| in [9, 13], for each of D, N and
    Robin(1+i), members deviated by up to 0.36 2^-53 |a|^3 |v|)."""
    a = EMIP6 * ts
    pref = -1.0 / (4.0 * math.pi ** 2 * ts)
    vals = np.empty(ts.shape, dtype=complex)
    errs = np.empty(ts.shape)
    on_l = np.ones(ts.shape, dtype=bool) if template is None else ~template
    rates = _ray_rates(ts, L_OFFSETS)
    group = np.maximum(0, np.ceil(rates.max(axis=1) / 1.5)).astype(int)
    for g in np.unique(group[on_l]):
        sel = np.nonzero(on_l & (group == g))[0]
        v, e = _ray_family(_reciprocal_weight, bc, tables, (), _l_contour(bc), rates[sel],
                           a[sel], 0.0, opts)
        vals[sel] = pref[sel] * v
        errs[sel] = np.abs(pref[sel]) * e
    # + 0.0 turns a -0.0 part into 0.0: one cell, one path, whatever the batch
    cells = np.round(a / SADDLE_LATTICE) * SADDLE_LATTICE + 0.0
    tol = opts.truncation_tail_tol
    for c in np.unique(cells[~on_l]):
        sel = np.nonzero(~on_l & (cells == c))[0]
        key = (_reciprocal_weight.__name__, bc.impedance, complex(c), tol)
        factor = _node_factor(_reciprocal_weight, bc, tables, key)
        h = a[sel] ** 3 / 12.0
        v, e, _ = integrate_exp_batch(factor, a[sel], -h, _saddle_path(c, tol), opts)
        scale = pref[sel] * np.exp(h)
        vals[sel] = scale * v
        errs[sel] = np.abs(scale) * (e + 2.0 ** -53 * np.abs(a[sel]) ** 3 * np.abs(v))
    return vals, errs, 0.0


def _caret_reciprocal(t: complex, bc: BoundaryKind, opts: QuadOptions) -> tuple[complex, float]:
    vals, errs, _ = _run_reciprocal(np.array([complex(t)]), bc, opts)
    return complex(vals[0]), float(errs[0])


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
    vals, _, _ = integrate_exp_batch(lambda s: ratio_l3_parts(s, bc), 1j * t, 0.0, path, opts)
    return -complex(vals[0]) / TWO_PI


# ---------------------------------------------------------------------------
# Route planner and batch executors
# ---------------------------------------------------------------------------

def _run_residue(ts, bc: BoundaryKind, opts: QuadOptions, tables=None):
    vals, errs, _ = caret_residue_series(ts, bc)
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
    Each member is scaled by e^{-shift}, shift = max(0, Re
    ``caret_lit_log_asymptotic``), so rows stay representable where the
    caret function is exponentially large.  A member its group does not
    accept raises ``QuadratureError`` ("stalled").
    """
    shifts = np.maximum(0.0, caret_lit_log_asymptotic(ts, bc).real)
    beta2, beta3, _ = _fork_rays(ts)
    vals, errs = _forked(ts, bc, opts, beta2, beta3, shifts, tables)
    return vals, errs, shifts


# The routes in execution order: the residue series, which can give up on a
# member (an infinite error estimate), runs before the routes it falls back to.
ROUTES = ("residue_series", "pole_split", "reciprocal_airy_contour", "forked_contour")
_RESIDUE, _POLE, _L, _FORKED = range(len(ROUTES))
_EXECUTORS = (_run_residue, _run_pole_split, _run_reciprocal, _run_forked)


def _plan(ts, bc: BoundaryKind, residue: bool = True):
    """The route of each t, as an index into ``ROUTES``, and whether it runs
    on a template path of the reciprocal-Airy executor.

    The pole split near the origin; the residue series in its sector;
    elsewhere the reciprocal-Airy contour L while its cancellation exponent
    (integrand peak over |result|, in e-folds, with |result| from Re
    ``caret_lit_log_asymptotic`` beyond |t| = 3) is at most ``COND_L``; then
    the better conditioned of L and the forked contour when either is within
    ``COND_SAFE``; else a template path, where t lies outside the residue
    sector (inside it the path misses the residues of the impedance roots
    between it and L) and its saddle eta* = (e^{-i pi/6} t/2)^2 has Re eta*
    >= 0.1|eta*|; a member these guards refuse keeps the better of L and the
    forked contour.  ``residue`` False passes over the residue series."""
    ts = np.asarray(ts, dtype=complex)
    route = np.full(ts.shape, _L)
    template = np.zeros(ts.shape, dtype=bool)
    route[np.abs(ts) < POLE_SPLIT_RADIUS] = _POLE
    if residue:
        route[(route == _L) & _in_residue_sector(ts)] = _RESIDUE
    rest = np.nonzero(route == _L)[0]
    lit = np.where(np.abs(ts[rest]) > 3.0, caret_lit_log_asymptotic(ts[rest], bc).real, 0.0)
    deficit = -np.minimum(lit, 0.0)
    cond_plain = _ray_peaks(_ray_rates(ts[rest], L_OFFSETS), L_ANGLES).max(axis=1) + deficit
    hard = cond_plain > COND_L
    if hard.any():
        plain, th = cond_plain[hard], ts[rest[hard]]
        forked = _fork_rays(th)[2] + deficit[hard]
        eta = (EMIP6 * th / 2.0) ** 2
        saddle = ((np.minimum(plain, forked) > COND_SAFE) & ~_in_residue_sector(th, 0.0)
                  & (eta.real >= 0.1 * np.abs(eta)))
        route[rest[hard]] = np.where((plain <= forked) | saddle, _L, _FORKED)
        template[rest[hard]] = saddle
    return route, template


def _caret_batch(ts: np.ndarray, bc: BoundaryKind, opts: QuadOptions, tables=None):
    """Plan every t, then run each route's executor once on all its members,
    the contour routes with their node factors from ``tables`` (None:
    evaluated directly).

    Returns (routes, values, errors, shifts); the caret function is
    value * e^{shift}.  A member the residue series gives up on is planned
    again without that route.
    """
    route, template = _plan(ts, bc)
    vals = np.zeros(ts.shape, dtype=complex)
    errs = np.zeros(ts.shape)
    shifts = np.zeros(ts.shape)
    for r, run in enumerate(_EXECUTORS):
        idx = np.nonzero(route == r)[0]
        if idx.size == 0:
            continue
        extra = (template[idx],) if r == _L else ()
        vals[idx], errs[idx], shifts[idx] = run(ts[idx], bc, opts, tables, *extra)
        lost = idx[np.isinf(errs[idx])]
        if lost.size and r == _RESIDUE:
            route[lost], template[lost] = _plan(ts[lost], bc, residue=False)
    return route, vals, errs, shifts


def _finite(ts, name: str = "caret argument t") -> np.ndarray:
    """``ts`` as a complex array; a value that is not finite raises
    ``ValueError`` naming it ``name``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=complex))
    if not np.isfinite(ts).all():
        raise ValueError(f"{name} = {ts[~np.isfinite(ts)][0]} is not finite")
    return ts


def pekeris_caret(t: complex, bc: BoundaryKind = DIRICHLET,
                  opts: QuadOptions | None = None) -> CaretEval:
    """Caret function with representation chosen by sector and conditioning
    (the planner and executors of ``caret_log_many`` on a batch of one)."""
    route, vals, errs, shifts = _caret_batch(_finite(t), bc, opts or QuadOptions())
    scale = math.exp(shifts[0])
    return CaretEval(complex(vals[0]) * scale, ROUTES[route[0]], float(errs[0]) * scale)


def caret_log_many(ts, bc: BoundaryKind = DIRICHLET,
                   opts: QuadOptions | None = None):
    """log of the caret function, vectorised and overflow-safe.

    Runs the same planner and executors as ``pekeris_caret`` on the whole
    batch, with the node factors of the L, arm and template paths memoised
    per request (path key, node bytes) in the process-wide ``_NodeTables``;
    a memoised factor is the bytes a fresh evaluation gives.  Returns
    (log_values, rel_errors).
    """
    _, vals, errs, shifts = _caret_batch(_finite(ts), bc, opts or QuadOptions(), _NODE_TABLES)
    with np.errstate(divide="ignore"):
        return np.log(vals) + shifts, errs / np.maximum(np.abs(vals), 1e-300)
