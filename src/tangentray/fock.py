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

* illuminated (t_- well left of the pole): a translated vee through t_-,
* penumbra (t_- near 0): a vee with a fixed clearance from the pole,
* shadow (t_- right of the pole): for the total field a vee at x/2; for
  the scattered field a path hugging the real axis past the pole on the
  left before rising through the creeping saddle zone.

On every path the integrand is evaluated in combined log form
exp(i Phi(t) + log h(t)); the caret factor switches to its lit-sector
asymptotic beyond a radius where the remaining contribution is below the
truncation tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import airy
from . import pekeris as pk
from .contours import ContourPath, DecayModel, Line, Ray, truncate
from .quadrature import QuadOptions, QuadratureError, integrate

C0 = 0.5                 # pole clearance of the vee vertices
T_HONEST = 8.0           # |t_-| beyond which total_new uses the residue shift

DEFAULT_OPTS = QuadOptions(rel_tol=1e-9, abs_tol=1e-13,
                           max_subdivisions=4000, truncation_tail_tol=1e-12)


class FockDomainError(ValueError):
    """Field evaluation requested inside the scatterer (n_hat < 0)."""


@dataclass(frozen=True)
class FockPoint:
    x_hat: float
    y_hat: float

    @property
    def n_hat(self) -> float:
        return self.y_hat + self.x_hat ** 2 / 4.0


@dataclass(frozen=True)
class ProblemConfig:
    bc: pk.BoundaryKind = pk.DIRICHLET
    kappa: float = 0.5

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("curvature kappa must be positive")


@dataclass(frozen=True)
class FieldValue:
    amplitude: complex
    error_estimate: float


def _scaled_coords(pt: FockPoint, cfg: ProblemConfig) -> tuple[float, float]:
    """Rescale to the kappa = 1/2 frame: x -> (2k)^{2/3} x, y -> (2k)^{1/3} y."""
    if cfg.kappa == 0.5:
        return pt.x_hat, pt.y_hat
    s = 2.0 * cfg.kappa
    return s ** (2.0 / 3.0) * pt.x_hat, s ** (1.0 / 3.0) * pt.y_hat


def _require_exterior(x: float, y: float):
    if y + x * x / 4.0 < -1e-12:
        raise FockDomainError(f"point (x_hat={x}, y_hat={y}) lies inside the obstacle")


def _saddle_minus(x: float, y: float) -> float:
    d = max(x * x + 3.0 * y, 0.0)
    return (2.0 / 3.0) * (x - math.sqrt(d))


# ---------------------------------------------------------------------------
# Integrand: exp(i Phi) times the caret factor, in log space
# ---------------------------------------------------------------------------

class _CaretFactor:
    """Cached caret-factor log-evaluator for one field computation.

    Computed caret values are used in the residue sector, for |t| <= t_asy,
    and inside a disc around the dominant saddle t_saddle; outside those the
    lit-sector asymptotic log-model takes over (its neighbourhood carries
    weight below the truncation tolerance by the contour construction).
    """

    def __init__(self, bc: pk.BoundaryKind, t_asy: float, opts: QuadOptions,
                 t_saddle: float | None = None, disc: float = 3.0):
        self.bc = bc
        self.t_asy = t_asy
        # the caret factor only needs relative accuracy: the field quadrature
        # carries the absolute budget
        self.opts = QuadOptions(rel_tol=max(opts.rel_tol, 1e-10),
                                abs_tol=max(opts.abs_tol, 3e-11),
                                max_subdivisions=opts.max_subdivisions,
                                truncation_tail_tol=opts.truncation_tail_tol)
        self.t_saddle = t_saddle
        self.disc = disc
        self.rel_err = 0.0

    def log_values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=complex)
        out = np.empty(ts.shape, dtype=complex)
        computed = pk._in_residue_sector(ts) | (np.abs(ts) <= self.t_asy)
        if self.t_saddle is not None:
            computed |= np.abs(ts - self.t_saddle) <= self.disc
        if np.any(computed):
            lv, lr = pk.caret_log_many(ts[computed], self.bc, self.opts)
            out[computed] = lv
            self.rel_err = max(self.rel_err, float(np.max(lr)))
        rest = ~computed
        if np.any(rest):
            out[rest] = pk.caret_lit_log_asymptotic(ts[rest], self.bc)
        return out


def _field_integrand(x: float, y: float, caret: _CaretFactor, extra_it: bool = False):
    """exp(i(-y t - x t^2/2 + t^3/3)) * caret(t), optionally times (-i t)."""

    def f(ts):
        ts = np.asarray(ts, dtype=complex)
        iphi = 1j * (-y * ts - x * ts * ts / 2.0 + ts ** 3 / 3.0)
        g = np.exp(iphi + caret.log_values(ts))
        if extra_it:
            g = g * (-1j * ts)
        return g

    return f


def _truncation_model(x: float, y: float, vertex_scale: float) -> DecayModel:
    """Cubic tail model for the caret-against-cubic-phase integrand.

    The integrand decays like e^{-w^3/4} along the -pi/2 and 5pi/6 rays;
    beyond min_radius the linear/quadratic phase terms are dominated and
    e^{-w^3/9} is a safe overestimate with unit scale.
    """
    w0 = max(8.0 * (abs(x) + vertex_scale), 4.0 * math.sqrt(abs(y) + 1.0), 3.0)
    return DecayModel("cubic_exp", 1.0 / 9.0, scale=10.0, min_radius=w0)


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
    tm = _saddle_minus(x, y)
    u0 = tm + du
    segs = (Ray(complex(u0, 0.0), -math.pi / 2.0, inward=True),
            Line(complex(u0, 0.0), complex(tm, h)),
            Ray(complex(tm, h), 5.0 * math.pi / 6.0, inward=False))
    return ContourPath(segs)


def _scattered_path(x: float, y: float) -> tuple[ContourPath, float, float]:
    """Gamma_1-left class realisation: (path, vertex scale, residue shift).

    For saddles at or right of the pole every left-passing contour is
    blocked by an exponential ridge; there the integral is taken along the
    descent channel right of the pole and the crossing residue -1 is added
    (the deformation argument of the transition-region analysis)."""
    tm = _saddle_minus(x, y)
    if tm <= -0.3:
        return _vee(complex(tm, 0.0)), abs(tm), 0.0
    return _channel_path(x, y, 0.5, 0.55), max(abs(tm), C0) + 1.0, -1.0


def _total_path(x: float, y: float) -> tuple[ContourPath | None, float]:
    """Gamma_1-right realisation, or None when the residue shift is used."""
    tm = _saddle_minus(x, y)
    if tm > -0.3:
        return _channel_path(x, y, 0.35, 0.35), max(abs(tm), C0) + 1.0
    if tm >= -T_HONEST:
        # pass right of the pole, then cross above it to the saddle vertical
        tp = (2.0 / 3.0) * (x + math.sqrt(max(x * x + 3 * y, 0.0)))
        dmax = max(abs(y), abs((x / 2) ** 2 - x * (x / 2) - y), abs(tp * tp - x * tp - y))
        h = min(C0, 4.0 / max(1.0, dmax))
        segs = (Ray(complex(C0, 0.0), -math.pi / 2.0, inward=True),
                Line(complex(C0, 0.0), complex(0.0, h)),
                Line(complex(0.0, h), complex(tm, h)),
                Ray(complex(tm, h), 5.0 * math.pi / 6.0, inward=False))
        return ContourPath(segs), abs(tm) + h
    return None, abs(tm)


def _run_field(x: float, y: float, bc: pk.BoundaryKind, path: ContourPath,
               vertex_scale: float, opts: QuadOptions,
               extra_it: bool = False, t_saddle: float | None = None) -> FieldValue:
    t_asy = 6.0
    # beyond a saddle radius of ~9 the dominant region is served by the
    # lit-sector asymptotic model; its O(|t|^-3) relative error enters the
    # reported estimate instead of a (hopelessly slow) exact evaluation
    asy_rel = 0.0
    if t_saddle is not None and abs(t_saddle) > 9.0:
        asy_rel = 4.0 / abs(t_saddle) ** 3
        t_saddle = None
    caret = _CaretFactor(bc, t_asy, opts, t_saddle=t_saddle, disc=3.5)
    model = _truncation_model(x, y, vertex_scale)
    fin = truncate(path, model, opts.truncation_tail_tol)
    try:
        res = integrate(_field_integrand(x, y, caret, extra_it), fin, opts)
    except QuadratureError as exc:
        # refinement bottoms out at the caret factor's own noise floor; only
        # a stall is acceptable, and only near that floor
        res = exc.result
        if exc.reason != "stalled" or res.error_estimate > max(
                20.0 * caret.rel_err * abs(res.value), 100.0 * opts.abs_tol):
            raise
    err = (res.error_estimate + (caret.rel_err + asy_rel) * abs(res.value)
           + 4.0 * opts.truncation_tail_tol)
    return FieldValue(res.value, err)


# ---------------------------------------------------------------------------
# Field operations
# ---------------------------------------------------------------------------

def scattered_new(pt: FockPoint, cfg: ProblemConfig,
                  opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Scattered amplitude via the single-contour caret representation."""
    x, y = _scaled_coords(pt, cfg)
    _require_exterior(x, y)
    path, vs, shift = _scattered_path(x, y)
    tm = _saddle_minus(x, y)
    sad = tm if abs(tm) > C0 else None
    out = _run_field(x, y, cfg.bc, path, vs, opts, t_saddle=sad)
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
    _require_exterior(x, y)
    path, vs = _total_path(x, y)
    tm = _saddle_minus(x, y)
    sad = tm if abs(tm) > C0 else None
    if path is None:
        sc = scattered_new(pt, cfg, opts)
        return FieldValue(sc.amplitude + 1.0, sc.error_estimate)
    return _run_field(x, y, cfg.bc, path, vs, opts, t_saddle=sad)


def total_new_dy(pt: FockPoint, cfg: ProblemConfig,
                 opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """dA/dy of the total field, via the factor (-i t) in the integrand."""
    x, y = _scaled_coords(pt, cfg)
    _require_exterior(x, y)
    path, vs = _total_path(x, y)
    if path is None:
        raise FockDomainError("derivative field is not provided in the far-illuminated regime")
    tm = _saddle_minus(x, y)
    sad = tm if abs(tm) > C0 else None
    return _run_field(x, y, cfg.bc, path, vs, opts, extra_it=True, t_saddle=sad)


# ---------------------------------------------------------------------------
# Forked-contour representation (independent oracle)
# ---------------------------------------------------------------------------

def _a1_shift_parts(sigma: np.ndarray, n_hat: float):
    """A1(sigma - n_hat) as (weight, real log-scale)."""
    a, ap, e = airy.airy_scaled_vec(pk.OMEGA * (np.asarray(sigma, dtype=complex) - n_hat))
    return pk.OMEGA * a, e


def _arm_model(rate_32: float, lin: float) -> DecayModel:
    return DecayModel("power_three_halves", rate_32 / 2.0, scale=20.0,
                      min_radius=(2.0 * max(lin, 0.0) / rate_32) ** 2 + 4.0)


def scattered_forked(pt: FockPoint, cfg: ProblemConfig,
                     opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Three-armed (l1, l2, l3) representation with the plane-phase prefactor."""
    x, y = _scaled_coords(pt, cfg)
    _require_exterior(x, y)
    bc = cfg.bc
    n = y + x * x / 4.0
    tail = opts.truncation_tail_tol

    def f1(s):
        w, e = _a1_shift_parts(s, n)
        return w * np.exp(1j * x * s / 2.0 + e)

    def f2(s):
        w, e = _a1_shift_parts(s, n)
        wr, er = pk.ratio_l2_parts(s, bc)
        return w * wr * np.exp(1j * x * s / 2.0 + e + er)

    def f3(s):
        w, e = _a1_shift_parts(s, n)
        wr, er = pk.ratio_l3_parts(s, bc)
        return w * wr * np.exp(1j * x * s / 2.0 + e + er)

    lin = 0.866 * abs(x) / 2.0
    p1 = truncate(ContourPath((Ray(0.0, -2 * math.pi / 3, inward=False),)),
                  _arm_model(2.0 / 3.0, lin + 0.5 * n ** 0.5), tail)
    p2 = truncate(ContourPath((Ray(0.0, 2 * math.pi / 3, inward=False),)),
                  _arm_model(2.0 / 3.0, lin + 0.5 * n ** 0.5), tail)
    p3 = truncate(ContourPath((Ray(0.0, 0.0, inward=False),)),
                  _arm_model(2.0 / 3.0, n ** 0.5), tail)
    r1 = integrate(f1, p1, opts)
    r2 = integrate(f2, p2, opts)
    r3 = integrate(f3, p3, opts)
    # l1 and l2 run from infinity towards 0
    total = -r1.value - r2.value - r3.value
    pref = np.exp(-1j * (x * y / 2.0 + x ** 3 / 12.0))
    err = (r1.error_estimate + r2.error_estimate + r3.error_estimate
           + 6.0 * tail + 3e-10 * abs(total))
    return FieldValue(pref * total, err)


# ---------------------------------------------------------------------------
# Gamma-contour total field (third oracle)
# ---------------------------------------------------------------------------

def total_gamma(pt: FockPoint, cfg: ProblemConfig,
                opts: QuadOptions = DEFAULT_OPTS) -> FieldValue:
    """Total amplitude by the single gamma-contour regularisation.

    On the incoming e^{2i pi/3} ray the plain difference
    A0(s-n) - r3(s) A1(s-n) cancels below roundoff while both terms grow;
    the connection formula turns it into the stable ratio-difference form
    [r2_bc(s) - r2_dirichlet(s-n)] A1(s-n) used there.  On the outgoing real
    ray the plain difference decays and is used directly.
    """
    x, y = _scaled_coords(pt, cfg)
    _require_exterior(x, y)
    bc = cfg.bc
    n = y + x * x / 4.0
    tail = opts.truncation_tail_tol

    def f_out(s):
        s = np.asarray(s, dtype=complex)
        a0, _, e0 = airy.airy_scaled_vec(s - n)
        w1, e1 = _a1_shift_parts(s, n)
        wr, er = pk.ratio_l3_parts(s, bc)
        big = np.maximum(e0, er + e1)
        diff = a0 * np.exp(e0 - big) - wr * w1 * np.exp(er + e1 - big)
        return diff * np.exp(1j * x * s / 2.0 + big)

    def f_in(s):
        s = np.asarray(s, dtype=complex)
        w1, e1 = _a1_shift_parts(s, n)
        wb, eb = pk.ratio_l2_parts(s, bc)
        wd, ed = pk.ratio_l2_parts(s - n, pk.DIRICHLET)
        big = np.maximum(eb, ed)
        diff = wb * np.exp(eb - big) - wd * np.exp(ed - big)
        return diff * w1 * np.exp(1j * x * s / 2.0 + big + e1)

    ang_in = 2 * math.pi / 3
    if bc.kind == "robin":
        # keep clear of poles just off the arg = pi/3 line
        roots = airy.robin_roots(3, bc.mu_hat)
        poles = np.conj(pk.OMEGA) * roots
        if np.min(np.abs(np.angle(poles) - ang_in)) < 0.08:
            ang_in -= 0.1
    lin = 0.866 * abs(x) / 2.0 + 0.6 * max(n, 0.0) ** 0.5
    leg_in = truncate(ContourPath((Ray(0.0, ang_in, inward=False),)),
                      _arm_model(2.0 / 3.0, lin), tail)
    leg_out = truncate(ContourPath((Ray(0.0, 0.0, inward=False),)),
                       _arm_model(2.0 / 3.0, 0.6 * max(n, 0.0) ** 0.5), tail)
    r_in = integrate(f_in, leg_in, opts)
    r_out = integrate(f_out, leg_out, opts)
    # the gamma contour traverses the incoming leg from infinity to 0
    total = -r_in.value + r_out.value
    pref = np.exp(-1j * (x * y / 2.0 + x ** 3 / 12.0))
    return FieldValue(pref * total,
                      r_in.error_estimate + r_out.error_estimate
                      + 4.0 * tail + 3e-10 * abs(total))


# ---------------------------------------------------------------------------
# Structural identities and residual diagnostics
# ---------------------------------------------------------------------------

def airy_plane_wave_identity(sigma: complex, pt: FockPoint, j: int = 1,
                             opts: QuadOptions = DEFAULT_OPTS):
    """Both sides of the plane-wave representation of the shifted Airy factor.

    Left: e^{i x sigma/2} e^{-i(x y/2 + x^3/12)} A_j(sigma - n_hat).
    Right: (1/2pi) int_{Gamma_j} e^{i sigma t} e^{i(-y t - x t^2/2 + t^3/3)} dt.
    """
    x, y = pt.x_hat, pt.y_hat
    n = y + x * x / 4.0
    aj = airy.rotated(j, sigma - n)
    left = np.exp(1j * x * sigma / 2.0 - 1j * (x * y / 2.0 + x ** 3 / 12.0)) * aj.value

    a_in, a_out = (4 * j + 5) * math.pi / 6.0, (4 * j + 1) * math.pi / 6.0
    path = ContourPath((Ray(0.0, a_in, inward=True), Ray(0.0, a_out, inward=False)))
    w0 = max(8.0 * abs(x), 4.0 * math.sqrt(abs(y) + abs(sigma) + 1.0), 3.0)
    fin = truncate(path, DecayModel("cubic_exp", 1.0 / 9.0, scale=10.0, min_radius=w0),
                   opts.truncation_tail_tol)

    def f(ts):
        return np.exp(1j * sigma * ts + 1j * (-y * ts - x * ts * ts / 2 + ts ** 3 / 3))

    res = integrate(f, fin, opts)
    return complex(left), res.value / (2.0 * math.pi)


def boundary_residual(x_hat: float, cfg: ProblemConfig,
                      opts: QuadOptions = DEFAULT_OPTS) -> float:
    """Boundary-condition defect of the total field at the boundary point
    (x_hat, -x_hat^2/4): |A| for Dirichlet, |dA/dy + (i x/2 + mu) A| otherwise.

    The impedance parameter enters the boundary operator with a plus sign:
    a Wronskian identity shows the Robin Airy-ratio family satisfies
    dA/dy + (i x/2 + mu) A = 0 on the parabola identically, while the
    opposite-sign variant leaves an O(1) defect proportional to
    2 mu W(A0, A1).
    """
    pt = FockPoint(x_hat, -x_hat ** 2 / 4.0)
    a = total_new(pt, cfg, opts)
    if cfg.bc.kind == "dirichlet":
        return abs(a.amplitude)
    x, _ = _scaled_coords(pt, cfg)
    mu = cfg.bc.mu_hat if cfg.bc.kind == "robin" else 0.0
    dy = total_new_dy(pt, cfg, opts)
    return abs(dy.amplitude + (1j * x / 2.0 + mu) * a.amplitude)


def pwe_residual(points: list[FockPoint], cfg: ProblemConfig, h: float,
                 opts: QuadOptions = DEFAULT_OPTS) -> float:
    """Max centred-difference residual of 2i dA/dx + d2A/dy2 over the points."""
    worst = 0.0
    for p in points:
        if p.n_hat < 2.0 * h:
            raise FockDomainError("grid point too close to the boundary for the stencil")
        amps = {}
        for dx, dy in [(0, 0), (h, 0), (-h, 0), (0, h), (0, -h)]:
            amps[(dx, dy)] = total_new(FockPoint(p.x_hat + dx, p.y_hat + dy), cfg, opts).amplitude
        ddx = (amps[(h, 0)] - amps[(-h, 0)]) / (2.0 * h)
        ddy2 = (amps[(0, h)] - 2.0 * amps[(0, 0)] + amps[(0, -h)]) / h ** 2
        worst = max(worst, abs(2j * ddx + ddy2))
    return worst
