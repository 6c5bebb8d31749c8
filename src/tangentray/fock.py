"""Leading-order scattered and total amplitudes in the inner Fock region.

Three independent representations of the same field are provided:

* ``scattered_new`` / ``total_new``: single contour integrals of the caret
  function against exp(i(-y t - x t^2/2 + t^3/3)) along Gamma_1-class paths
  passing left/right of the caret pole at t = 0,
* ``scattered_forked``: the classical three-armed (l1, l2, l3) contour form,
* ``total_gamma``: the single gamma-contour regularisation of the total
  field built from the difference of Airy ratios.

Contour realisations adapt to the field regime.  With saddle points
t_pm = (2/3)(x +- sqrt(x^2 + 3y)):

* scattered: for t_- <= -0.3 a vee at t_-, left of the pole; else the
  descent channel through t_- right of the pole plus the residue -1,
* total: for t_- > -0.3 the same channel; down to -T_HONEST a path right
  of the pole that crosses above it to t_-; beyond, scattered + 1.

The paths take t_- on a LATTICE of spacing 1/16: the vee vertex and the
corner of the total path at the nearest lattice point (a vee vertex is then
at most -0.3125), the channel at t_- rounded up, so that its vertical ray
only moves further right of the pole.  A path is then fixed by its class,
lattice cell and rung, and neighbouring points share it.

On every path the integrand is evaluated in combined log form
exp(i Phi(t) + log h(t)).  The caret factor is computed in the residue
sector, for |t| <= T_CARET and near the saddle t_- (``_run_field``);
elsewhere its lit-sector model serves.  It does not depend on the point, so
the caret part of a field integral's round-0 nodes is memoised across
points (``_FIELD_MEMO``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import airy
from . import pekeris as pk
from .contours import ContourPath, DecayModel, Line, Ray, truncate
from .quadrature import QuadOptions, integrate, integrate_lockstep

C0 = 0.5                 # pole clearance of the vee vertices
T_HONEST = 8.0           # |t_-| beyond which total_new uses the residue shift
T_CARET = 6.0            # |t| up to which the field integrand computes the caret
SADDLE_DISC = 3.5        # radius around the saddle t_- where it computes it too
SADDLE_ASY = 9.0         # |t_-| beyond which the lit-sector model serves the saddle
FIELD_PANEL = 0.5        # starting panel width of the field integrals
LEG_PANEL = 1.5          # starting panel width of the sigma-plane legs (``_leg_sum``)
LATTICE = 1.0 / 16.0     # spacing of the lattice the field paths take t_- on
FIELD_MEMO_CAP = 256     # round-0 caret batches the field memo holds (~13.5 KB each)

DEFAULT_OPTS = QuadOptions(rel_tol=1e-9, abs_tol=1e-13,
                           max_subdivisions=4000, truncation_tail_tol=1e-12)


class FockDomainError(ValueError):
    """Field evaluation requested inside the scatterer (n_hat < 0) or at a
    non-finite point."""


@dataclass(frozen=True)
class FockPoint:
    x_hat: float
    y_hat: float


@dataclass(frozen=True)
class ProblemConfig:
    bc: pk.BoundaryKind = pk.DIRICHLET
    kappa: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError(f"curvature kappa must be finite and positive, got {self.kappa}")

    def n_hat(self, pt: FockPoint) -> float:
        """Height y_hat + kappa x_hat^2/2 above the boundary y_hat = -kappa x_hat^2/2."""
        return pt.y_hat + self.kappa * pt.x_hat ** 2 / 2.0


@dataclass(frozen=True)
class FieldValue:
    amplitude: complex
    error_estimate: float


def _scaled_coords(pt: FockPoint, cfg: ProblemConfig) -> tuple[float, float]:
    """Rescale to the kappa = 1/2 frame: x -> (2k)^{2/3} x, y -> (2k)^{1/3} y.

    Raises FockDomainError for a non-finite point, one whose height n_hat
    is not finite (an x^2 that overflows) and one inside the obstacle."""
    if not (math.isfinite(pt.x_hat) and math.isfinite(pt.y_hat)):
        raise FockDomainError(f"point ({pt.x_hat}, {pt.y_hat}) is not finite")
    s = 2.0 * cfg.kappa
    x, y = s ** (2.0 / 3.0) * pt.x_hat, s ** (1.0 / 3.0) * pt.y_hat
    n = y + x * x / 4.0
    if not math.isfinite(n):
        raise FockDomainError(f"point ({pt.x_hat}, {pt.y_hat}): its height n_hat = {n} "
                              "is not finite")
    if n < -1e-12:
        raise FockDomainError(f"point ({pt.x_hat}, {pt.y_hat}) lies inside the obstacle")
    return x, y


def _saddles(x: float, y: float) -> tuple[float, float]:
    """Real saddles t_pm = (2/3)(x +- sqrt(x^2 + 3y)), the root clamped at 0."""
    r = math.sqrt(max(x * x + 3.0 * y, 0.0))
    return (2.0 / 3.0) * (x - r), (2.0 / 3.0) * (x + r)


def _on_lattice(t: float, up: bool = False) -> float:
    """``t`` rounded to the nearest multiple of LATTICE, or up to one; a t
    that is not finite (from an x^2 that overflows) as it is."""
    if not math.isfinite(t):
        return t
    k = t / LATTICE
    return (math.ceil(k) if up else round(k)) * LATTICE


# ---------------------------------------------------------------------------
# Caret representation: exp(i Phi) times the caret factor, in log space
# ---------------------------------------------------------------------------

def _truncation_model(x: float, y: float, path: ContourPath, bc: pk.BoundaryKind,
                      extra_it: bool) -> DecayModel:
    """Cubic tail model of the field integrand on the end rays of ``path``.

    A ray t = v + r e at -pi/2 or 5pi/6 leaves the residue sector
    Re(t e^{-i pi/6}) > 0 by r = 2 Re(v e^{-i pi/6}).  Beyond, the bound is
    the lit-sector model, with a margin 2 for the caret computed at |t| <=
    T_CARET: |t|^m |b| e^{E(r)}/sqrt(pi), m = 1/2 (3/2 with the factor -i t),
    b = (t - p)/(t + p) the boundary-kind factor, at most 1 + 2|p|/d at
    distance d from -p, E(r) = Re[i(t^3/4 - x t^2/2 - y t)] = a0 + a1 r +
    a2 r^2 - r^3/4.  Past R, the largest of that exit, 1 and the root of
    3r^2/8 - 2 a2+ r - a1+ - m, h(r) = r^3/8 - a2 r^2 - a1 r - m ln(|v| + r)
    increases: |f| <= e^{a0 - h(R)} |b| e^{-r^3/8}/sqrt(pi); the two rays' max serves."""
    m = 1.5 if extra_it else 0.5
    alpha, beta = bc.impedance
    p = 2j * alpha / beta if beta else 0.0
    radius, log_scale = 0.0, -math.inf
    for ray in (path.segments[0], path.segments[-1]):
        v, e = ray.origin, ray.point_at(1.0) - ray.origin
        a0 = (1j * (v ** 3 / 4.0 - x * v * v / 2.0 - y * v)).real
        a1 = (1j * e * (0.75 * v * v - x * v - y)).real
        a2 = (1j * e * e * (0.75 * v - x / 2.0)).real
        q2, q1 = max(a2, 0.0), max(a1, 0.0) + m
        r = max((2.0 * q2 + math.sqrt(4.0 * q2 * q2 + 1.5 * q1)) / 0.75, 1.0,
                2.0 * (v * complex(math.cos(math.pi / 6), -0.5)).real)
        d = abs(v + max(r, ((-p - v) * e.conjugate()).real) * e + p)   # the tail to -p
        b = 1.0 + 2.0 * abs(p) / max(d, 1e-300)
        h = r ** 3 / 8.0 - a2 * r * r - a1 * r - m * math.log(abs(v) + r)
        radius = max(radius, r)
        log_scale = max(log_scale, a0 - h + math.log(b / math.sqrt(math.pi)))
    return DecayModel("cubic_exp", 1.0 / 8.0, scale=math.exp(log_scale), min_radius=radius)


def _vee(vertex: complex) -> ContourPath:
    return ContourPath((Ray(vertex, -math.pi / 2.0, inward=True),
                        Ray(vertex, 5.0 * math.pi / 6.0, inward=False)))


def _channel_path(x: float, y: float, du: float, h: float) -> ContourPath:
    """Descent-channel realisation through the saddle t_-.

    The vertical ray sits between the real saddles (monotone descent of
    Re[i Phi]); the exit leaves up-left from just above t_-, the only
    direction without a ridge when the pole and saddle interact.  The path
    passes right of the pole (Gamma_1-right class).
    """
    tm = _on_lattice(_saddles(x, y)[0], up=True)
    u0 = tm + du
    segs = (Ray(complex(u0, 0.0), -math.pi / 2.0, inward=True),
            Line(complex(u0, 0.0), complex(tm, h)),
            Ray(complex(tm, h), 5.0 * math.pi / 6.0, inward=False))
    return ContourPath(segs)


def _scattered_path(x: float, y: float) -> tuple[ContourPath, float]:
    """Gamma_1-left class realisation: (path, residue shift to add).

    For saddles at or right of the pole every left-passing contour is
    blocked by an exponential ridge; there the integral is taken along the
    descent channel right of the pole and the crossing residue -1 is added
    (the deformation argument of the transition-region analysis)."""
    tm, _ = _saddles(x, y)
    if tm <= -0.3:
        return _vee(complex(_on_lattice(tm), 0.0)), 0.0
    return _channel_path(x, y, 0.5, 0.55), -1.0


def _total_path(x: float, y: float) -> ContourPath | None:
    """Gamma_1-right realisation, or None when the residue shift is used."""
    tm, tp = _saddles(x, y)
    if tm > -0.3:
        return _channel_path(x, y, 0.35, 0.35)
    if tm >= -T_HONEST:
        # pass right of the pole, then cross above it to the saddle vertical
        dmax = max(abs(y), abs((x / 2) ** 2 - x * (x / 2) - y), abs(tp * tp - x * tp - y))
        h = min(C0, 4.0 / max(1.0, dmax))
        corner = complex(_on_lattice(tm), h)
        segs = (Ray(complex(C0, 0.0), -math.pi / 2.0, inward=True),
                Line(complex(C0, 0.0), complex(0.0, h)),
                Line(complex(0.0, h), corner),
                Ray(corner, 5.0 * math.pi / 6.0, inward=False))
        return ContourPath(segs)
    return None


class _CaretMemo:
    """Process-wide memo of the caret part of a field integral's first
    integrand call: (log caret on the round-0 nodes, their largest caret
    relative error), keyed by (bc, caret options, saddle-disc centre, the
    node array's bytes).

    ``caret_log_many`` is a pure function of its arguments, so a hit holds
    the bytes a fresh call gives: no value depends on what ran before, on
    how threads interleave or on what was evicted.  Entries are added under
    the lock and never changed; past FIELD_MEMO_CAP entries the oldest go.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def lookup(self, key, evaluate):
        """The entry of ``key``, or ``evaluate()`` stored under it."""
        with self._lock:
            hit = self._entries.get(key)
        if hit is not None:
            return hit
        log_caret, rel = evaluate()
        log_caret.flags.writeable = False
        with self._lock:
            self._entries[key] = log_caret, rel
            while len(self._entries) > FIELD_MEMO_CAP:
                del self._entries[next(iter(self._entries))]
        return log_caret, rel


_FIELD_MEMO = _CaretMemo()


def _run_field(x: float, y: float, bc: pk.BoundaryKind, path: ContourPath,
               opts: QuadOptions, extra_it: bool = False) -> FieldValue:
    """Integrate exp(i(-y t - x t^2/2 + t^3/3)) caret(t), optionally times
    (-i t), along ``path``.

    The caret factor is computed in the residue sector, for |t| <= T_CARET
    and within SADDLE_DISC of the saddle t_-; elsewhere the lit-sector
    asymptotic log-model serves (its neighbourhood carries weight below the
    truncation tolerance by the contour construction).  Beyond a saddle
    radius of SADDLE_ASY that model serves the saddle too, and its
    O(|t|^-3) relative error enters the estimate instead of a (hopelessly
    slow) exact evaluation; so does the largest caret relative error.  The
    quadrature's own estimate carries the tails of the two cut rays.

    The integral starts on FIELD_PANEL-unit panels (a measured constant):
    each round evaluates the caret at its new nodes in one
    ``caret_log_many`` batch, whose planner and ray families carry a fixed
    overhead per batch, so a round saved is worth more than the extra nodes
    of a finer start.  Most points of the benchmark domain converge in
    round 0; far-lit points (n_hat about 5) refine twice.

    The round-0 nodes depend only on the truncated path, which points of
    one lattice cell and rung share, so the caret part of the first
    integrand call (the log caret on those nodes and their largest caret
    relative error) comes from ``_FIELD_MEMO``, keyed by (bc, caret
    options, disc centre, node bytes).  The disc centre is t_- at the
    nearest lattice point.  Refinement rounds, whose panels depend on the
    point, are computed fresh.
    """
    tm, _ = _saddles(x, y)
    asy_rel = 4.0 / abs(tm) ** 3 if abs(tm) > SADDLE_ASY else 0.0
    saddle = _on_lattice(tm) if C0 < abs(tm) <= SADDLE_ASY else None
    # the caret factor only needs relative accuracy: the field quadrature
    # carries the absolute budget
    caret_opts = replace(opts, rel_tol=max(opts.rel_tol, 1e-10), abs_tol=max(opts.abs_tol, 3e-11))
    caret_rel = 0.0
    memo_key = (bc, caret_opts, saddle)

    def caret(ts):
        """(log caret on the nodes ``ts``, their largest caret relative error)."""
        log_caret = np.empty(ts.shape, dtype=complex)
        rel = 0.0
        computed = pk._in_residue_sector(ts) | (np.abs(ts) <= T_CARET)
        if saddle is not None:
            computed |= np.abs(ts - saddle) <= SADDLE_DISC
        if np.any(computed):
            lv, lr = pk.caret_log_many(ts[computed], bc, caret_opts)
            log_caret[computed] = lv
            rel = float(np.max(lr))
        if not np.all(computed):
            log_caret[~computed] = pk.caret_lit_log_asymptotic(ts[~computed], bc)
        return log_caret, rel

    def f(ts):
        nonlocal caret_rel, memo_key
        ts = np.asarray(ts, dtype=complex)
        if memo_key is None:
            log_caret, rel = caret(ts)
        else:       # the first call: the round-0 nodes
            log_caret, rel = _FIELD_MEMO.lookup(memo_key + (ts.tobytes(),), lambda: caret(ts))
            memo_key = None
        caret_rel = max(caret_rel, rel)
        g = np.exp(1j * (-y * ts - x * ts * ts / 2.0 + ts ** 3 / 3.0) + log_caret)
        return g * (-1j * ts) if extra_it else g

    fin = truncate(path, _truncation_model(x, y, path, bc, extra_it), opts.truncation_tail_tol)
    res = integrate(f, fin, opts, width=FIELD_PANEL)
    return FieldValue(res.value, res.error_estimate + (caret_rel + asy_rel) * abs(res.value))


def scattered_new(pt: FockPoint, cfg: ProblemConfig,
                  opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Scattered amplitude via the single-contour caret representation."""
    x, y = _scaled_coords(pt, cfg)
    path, shift = _scattered_path(x, y)
    out = _run_field(x, y, cfg.bc, path, opts)
    if shift:
        return FieldValue(out.amplitude + shift, out.error_estimate)
    return out


def total_new(pt: FockPoint, cfg: ProblemConfig,
              opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Total amplitude via the caret representation right of the pole.

    Far into the illuminated regime (saddle left of -T_HONEST) every
    right-passing realisation is ill-conditioned; there the exact residue
    shift A = A_s + 1 across the simple pole is applied instead.
    """
    x, y = _scaled_coords(pt, cfg)
    path = _total_path(x, y)
    if path is None:
        sc = scattered_new(pt, cfg, opts)
        return FieldValue(sc.amplitude + 1.0, sc.error_estimate)
    return _run_field(x, y, cfg.bc, path, opts)


def total_new_dy(pt: FockPoint, cfg: ProblemConfig,
                 opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """dA/dy of the total field, via the factor (-i t) in the integrand."""
    x, y = _scaled_coords(pt, cfg)
    path = _total_path(x, y)
    if path is None:
        raise FockDomainError("derivative field is not provided in the far-illuminated regime")
    return _run_field(x, y, cfg.bc, path, opts, extra_it=True)


# ---------------------------------------------------------------------------
# Sigma-plane representations: the forked contour and the gamma contour
# ---------------------------------------------------------------------------

def _arm_model(rate_32: float, lin: float) -> DecayModel:
    return DecayModel("power_three_halves", rate_32, scale=20.0, rate=max(lin, 0.0))


def _omega_shift(s, n):
    """omega (s - n), with s - n named so numpy multiplies it out of place:
    the same bits at every call size."""
    sn = s - n
    return pk.OMEGA * sn


def _leg_sum(x: float, y: float, bc: pk.BoundaryKind, legs, opts: QuadOptions) -> FieldValue:
    """Plane-phase prefactor e^{-i(x y/2 + x^3/12)} times the sum over the
    legs (sign, angle, lin, parts, args, integrand) of sign x the integral
    along the outward ray from 0 at that angle, truncated by
    ``_arm_model(2/3, lin)``.  A leg's integrand at the nodes s is
    ``integrand(s, ratio, *airy)``: ``ratio`` the factor (w, expo) =
    ``parts(s, bc)``, the point-independent Airy ratio of the leg (None for
    a leg without one), and ``airy`` the (ai, aip, expo) triples of
    ``args(s)``, its point-dependent Airy arguments A_j(s - n).

    The ratio comes from the caret node tables (``pk._NODE_TABLES``), under
    the key of a caret arm on the same ray, (parts name, impedance pair,
    angle, rung): points whose leg is cut at the same rung, and a caret arm
    there, share one table.  The legs run in lockstep
    (``integrate_lockstep``): each round evaluates the Airy arguments of
    every unfinished leg, with those of its ratio on the panels the table
    lacks, in one ``airy._scaled_each`` call.  An Airy value does not depend
    on its batch, and a table hit is the bytes of a fresh ratio, so each
    leg's result is that of its own ``integrate`` run at the same width.

    The legs start on LEG_PANEL-unit panels, a measured constant: a round
    costs one Airy call, whose fixed cost outweighs the extra points of a
    finer start, and a start much finer than the legs' phase rate only adds
    points.  On the field points of four ``oracle_mix`` passes (warm
    tables) 2-unit starts took 88 Airy calls and 33,400 points a pass, 1.5
    took 68 and 36,000, 1.0 took 53 and 50,000; at 1.5 most legs converge in
    round 0, and the legs on the real axis (cut at 19-32 units) mostly in
    round 1.

    The estimate adds 3e-10 of |sum| to the legs' quadrature errors, each of
    which carries its cut tail (one tail tolerance per leg)."""
    paths = [truncate(ContourPath((Ray(0.0, angle, inward=False),)),
                      _arm_model(2.0 / 3.0, lin), opts.truncation_tail_tol)
             for _, angle, lin, _, _, _ in legs]
    keys = [parts and pk._node_key(parts, bc, (angle,), path)
            for (_, angle, _, parts, _, _), path in zip(legs, paths)]
    forms = [parts and pk.RATIO_AIRY[parts.__name__] for _, _, _, parts, _, _ in legs]

    def joint(ks, nodes):
        # per leg: its table rows, its own Airy arguments and those of its
        # ratio on the panels the table lacks
        asks = []
        for k, s in zip(ks, nodes):
            found = keys[k] and pk._NODE_TABLES.find(keys[k], s)
            missed = found and found[2]
            asks.append((found, legs[k][4](s), missed and forms[k][0](missed[1]) or ()))
        values = iter(airy._scaled_each(*(z for _, own, more in asks for z in own + more)))
        out = []
        for k, s, (found, own, more) in zip(ks, nodes, asks):
            own, more = [next(values) for _ in own], [next(values) for _ in more]
            ratio = found and pk._NODE_TABLES.fill(keys[k], found, more and forms[k][1](*more, bc))
            out.append(legs[k][5](s, ratio, *own))
        return out

    total = err = 0.0
    for (sign, *_), res in zip(legs, integrate_lockstep(joint, paths, opts, width=LEG_PANEL)):
        total, err = total + sign * res.value, err + res.error_estimate
    pref = np.exp(-1j * (x * y / 2.0 + x ** 3 / 12.0))
    return FieldValue(pref * total, err + 3e-10 * abs(total))


def scattered_forked(pt: FockPoint, cfg: ProblemConfig,
                     opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Three-armed (l1, l2, l3) representation with the plane-phase prefactor;
    l1 and l2 run from infinity towards 0."""
    x, y = _scaled_coords(pt, cfg)
    n = y + x * x / 4.0

    # A1(s - n) = omega Ai(omega (s - n)), times the arm's ratio (l2, l3)
    def f1(s, _, a1):
        a, _, e = a1
        return pk.OMEGA * a * np.exp(1j * x * s / 2.0 + e)

    def arm(s, ratio, a1):
        (a, _, e), (wr, er) = a1, ratio
        return pk.OMEGA * a * wr * np.exp(1j * x * s / 2.0 + e + er)

    def a1_args(s):
        return (_omega_shift(s, n),)

    rn = max(n, 0.0) ** 0.5      # n rounds below 0 on the boundary of some kappa
    lin = 0.866 * abs(x) / 2.0 + 0.5 * rn
    return _leg_sum(x, y, cfg.bc, [
        (-1, -2 * math.pi / 3, lin, None, a1_args, f1),
        (-1, 2 * math.pi / 3, lin, pk.ratio_l2_parts, a1_args, arm),
        (-1, 0.0, rn, pk.ratio_l3_parts, a1_args, arm)], opts)


def total_gamma(pt: FockPoint, cfg: ProblemConfig,
                opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Total amplitude by the single gamma-contour regularisation.

    On the incoming e^{2i pi/3} ray (traversed from infinity to 0) the plain
    difference A0(s-n) - r3(s) A1(s-n) cancels below roundoff while both
    terms grow; the connection formula turns it into the stable
    ratio-difference form [r2_bc(s) - r2_dirichlet(s-n)] A1(s-n) used there.
    On the outgoing real ray the plain difference decays and is used directly.
    """
    x, y = _scaled_coords(pt, cfg)
    bc = cfg.bc
    n = y + x * x / 4.0

    def f_out(s, ratio, d0, d1):
        (a0, _, e0), (a1, _, e1), (wr, er) = d0, d1, ratio
        w1 = pk.OMEGA * a1
        big = np.maximum(e0, er + e1)
        diff = a0 * np.exp(e0 - big) - wr * w1 * np.exp(er + e1 - big)
        return diff * np.exp(1j * x * s / 2.0 + big)

    # A1(s - n) = omega Ai(omega (s - n)) is also the Dirichlet r2(s - n) denominator
    def args_in(s):
        sn = s - n
        return pk.OMEGA * sn, pk.OMEGA ** 2 * sn

    def f_in(s, ratio, d1, d2):
        wb, eb = ratio
        wd, ed = pk._ratio_l2(d1, d2, pk.DIRICHLET)
        big = np.maximum(eb, ed)
        diff = wb * np.exp(eb - big) - wd * np.exp(ed - big)
        return diff * (pk.OMEGA * d1[0]) * np.exp(1j * x * s / 2.0 + big + d1[2])

    # keep clear of poles near the incoming leg; the zeros of Ai and Ai' map
    # to poles on the arg = pi/3 line, pi/3 away from it
    ang_in = 2 * math.pi / 3
    poles = np.conj(pk.OMEGA) * airy.impedance_roots(3, *bc.impedance)
    if np.min(np.abs(np.angle(poles) - ang_in)) < 0.08:
        ang_in -= 0.1
    lin = 0.6 * max(n, 0.0) ** 0.5
    return _leg_sum(x, y, bc, [
        (-1, ang_in, 0.866 * abs(x) / 2.0 + lin, pk.ratio_l2_parts, args_in, f_in),
        (1, 0.0, lin, pk.ratio_l3_parts, lambda s: (s - n, _omega_shift(s, n)), f_out)], opts)


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------

def boundary_residual(x_hat: float, cfg: ProblemConfig,
                      opts: QuadOptions = DEFAULT_OPTS) -> float:
    """Boundary-condition defect |beta (dA/dy + i x A/2) + alpha A| of the
    total field at the boundary point (x_hat, -kappa x_hat^2/2), for the
    impedance pair (alpha, beta) of the boundary kind: |A| for Dirichlet.

    The impedance parameter enters the boundary operator with a plus sign:
    a Wronskian identity shows the Robin Airy-ratio family satisfies
    dA/dy + (i x/2 + mu) A = 0 on the parabola identically, while the
    opposite-sign variant leaves an O(1) defect proportional to
    2 mu W(A0, A1).
    """
    pt = FockPoint(x_hat, -cfg.kappa * x_hat ** 2 / 2.0)
    alpha, beta = cfg.bc.impedance
    x, _ = _scaled_coords(pt, cfg)
    a = total_new(pt, cfg, opts).amplitude
    # beta = 0 needs no derivative field, which costs a second quadrature
    dy = total_new_dy(pt, cfg, opts).amplitude if beta else 0.0
    return abs(beta * (dy + 1j * x / 2.0 * a) + alpha * a)


def pwe_residual(points: list[FockPoint], cfg: ProblemConfig, h: float,
                 opts: QuadOptions = DEFAULT_OPTS) -> float:
    """Max centred-difference residual of 2i dA/dx + d2A/dy2 over the points;
    each distinct stencil point (to 1e-9) is evaluated once per call."""
    amps = {}
    worst = 0.0
    for p in points:
        if cfg.n_hat(p) < 2.0 * h:
            raise FockDomainError("grid point too close to the boundary for the stencil")
        a = []
        for dx, dy in [(0, 0), (h, 0), (-h, 0), (0, h), (0, -h)]:
            key = (round(p.x_hat + dx, 9), round(p.y_hat + dy, 9))
            if key not in amps:
                amps[key] = total_new(FockPoint(p.x_hat + dx, p.y_hat + dy), cfg, opts).amplitude
            a.append(amps[key])
        ddx = (a[1] - a[2]) / (2.0 * h)
        ddy2 = (a[3] - 2.0 * a[0] + a[4]) / h ** 2
        worst = max(worst, abs(2j * ddx + ddy2))
    return worst
