"""Named verification checks: every library invariant as a pass/fail item.

Each check returns a VerificationCheck: the measured figure of merit, its
tolerance and their comparison.  ``run_suite`` wraps a selection in a
VerificationReport (the CLI serialises it as JSON).  The full suite covers:

 1. Airy connection/Wronskian identities
 2. caret-function representation agreement (all boundary kinds)
 3. Fock-field three-way contour-representation agreement
 4. pole-residue identity (total - scattered = 1)
 5. boundary conditions on the parabola
 6. parabolic-wave-equation residual convergence order
 7. caret asymptotic sector checks
 8. illuminated-region matching over increasing wavenumber
 9. penumbra uniform formula and the Gaussian-pole identity
10. creeping-wave matching in the deep shadow
11. finite-endpoint Fourier identity remainder scaling
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import airy
from . import fock
from . import matching as mt
from . import pekeris as pk
from .quadrature import QuadOptions


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    measured: float
    tolerance: float | tuple[float, float]
    runtime: float
    detail: str = ""
    compare: str = "<="     # how measured must relate to tolerance: a key of _COMPARE


_COMPARE = {"<=": lambda m, t: m <= t, "<": lambda m, t: m < t, ">=": lambda m, t: m >= t,
            "in": lambda m, t: t[0] <= m <= t[1]}


@dataclass
class VerificationReport:
    checks: list[VerificationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "passed": bool(self.passed),
            "checks": [{"name": c.name, "passed": bool(c.passed), "compare": c.compare,
                        "measured": float(c.measured), "tolerance": c.tolerance,
                        "runtime_s": round(c.runtime, 3), "detail": c.detail}
                       for c in self.checks],
        }, indent=2)


def _check(name: str, tolerance, detail: str = "", compare: str = "<="):
    """Decorator: run a check, time it and build its VerificationCheck.

    The check returns its measured value, which passes when it relates to
    ``tolerance`` as ``compare`` declares (``_COMPARE``) and is described by
    ``detail``, or a tuple ``(measured, passed, detail)``.
    """
    def wrap(fn):
        @functools.wraps(fn)
        def check(*args, **kwargs) -> VerificationCheck:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            runtime = time.perf_counter() - t0
            measured, passed, text = out if isinstance(out, tuple) else \
                (out, _COMPARE[compare](out, tolerance), detail)
            return VerificationCheck(name, passed, measured, tolerance, runtime, text, compare)
        return check
    return wrap


_OMEGA = np.exp(2j * np.pi / 3)


@_check("airy_identities", 1e-10, "connection rel + Wronskian (scale-normalised) residuals")
def check_airy_identities(n_points: int = 100, seed: int = 42) -> VerificationCheck:
    """Connection-formula and Wronskian residuals at random |z| <= 10.

    The Wronskian residual is normalised by the magnitude of its two
    products: at |z| = 10 the products reach e^{21}, so the absolute
    residual of any fixed-precision evaluation scales with them.  The
    absolute form is additionally asserted where the products are O(1).
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(-10, 10, 4 * n_points) + 1j * rng.uniform(-10, 10, 4 * n_points)
    z = z[np.abs(z) <= 10][:n_points]
    rotations = airy._scaled_each(*(_OMEGA ** j * z for j in range(3)))   # one Airy call
    vals = [(_OMEGA ** j * (a * np.exp(e)), _OMEGA ** (2 * j) * (ap * np.exp(e)))
            for j, (a, ap, e) in enumerate(rotations)]
    conn = np.abs(vals[0][0] + vals[1][0] + vals[2][0])
    conn_rel = conn / np.max(np.abs([v[0] for v in vals]), axis=0)
    worst = float(np.max(conn_rel))
    for j in range(3):
        jn = (j + 1) % 3
        w = vals[jn][1] * vals[j][0] - vals[jn][0] * vals[j][1]
        s = np.maximum(1.0, np.maximum(np.abs(vals[jn][1] * vals[j][0]),
                                       np.abs(vals[jn][0] * vals[j][1])))
        resid = np.abs(w - 1j / (2 * np.pi))
        worst = max(worst, float(np.max(resid / s)))
        mod = s <= 1e5
        if np.any(mod):
            worst = max(worst, float(np.max(resid[mod])) / 1.0)
    return worst


@_check("caret_representation_agreement", 1e-8,
        "max |residue - contour| and |forked - contour|")
def check_caret_representations(quick: bool = False) -> VerificationCheck:
    """Residue series vs reciprocal-Airy contour across the overlap sector,
    plus the forked form against the contour in the lit sector."""
    radii = [0.5, 2.0, 6.0] if quick else [0.5, 1.0, 2.0, 3.5, 5.0, 6.0]
    args = [0.0, np.pi / 4, np.pi / 2]
    bcs = [pk.DIRICHLET, pk.NEUMANN] if quick else \
        [pk.DIRICHLET, pk.NEUMANN, pk.robin(1.0), pk.robin(1j), pk.robin(1 + 1j)]
    opts = QuadOptions(rel_tol=1e-11, abs_tol=1e-14)
    worst = 0.0
    for bc in bcs:
        for r in radii:
            for th in args:
                t = r * np.exp(1j * th)
                v_res, _, ok = pk.caret_residue_series(t, bc, rel_tol=1e-13, max_terms=400)
                if not ok[0]:
                    return math.inf, False, f"unconverged residue: t = {t:.6g}, {bc.label()}"
                v_rec, _ = pk._caret_reciprocal(complex(t), bc, opts)
                worst = max(worst, abs(complex(v_res[0]) - v_rec))
    lit_pts = [-1.0 + 0j, -6.0 + 0j] if quick else \
        [-1.0 + 0j, -2.0 + 0.5j, 2.5 * np.exp(1j * 0.8 * np.pi),
         -6.0 + 0j, 3.0 * np.exp(-1j * 0.7 * np.pi), 2.0 * np.exp(1j * 1.9)]
    for t in lit_pts:
        b2, b3, _ = pk._forked_angles(complex(t))
        v_f, _ = pk._caret_forked(complex(t), pk.DIRICHLET, opts, b2, b3)
        v_r, _ = pk._caret_reciprocal(complex(t), pk.DIRICHLET, opts)
        worst = max(worst, abs(v_f - v_r))
    return worst


def _three_way_points(n: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.uniform(-3, 3)
        nh = rng.uniform(0, 4)
        pts.append(fock.FockPoint(x, nh - x * x / 4.0))
    return pts


@_check("fock_three_way_oracle", 1e-6, "independent contour representations of the field")
def check_fock_three_way(quick: bool = False) -> VerificationCheck:
    """|scattered_new - scattered_forked| and |total_gamma - 1 - scattered_new|
    at random Fock points (Dirichlet three-way; Neumann/Robin two-way)."""
    n = 4 if quick else 20
    worst = 0.0
    cfg = fock.ProblemConfig(pk.DIRICHLET)
    for pt in _three_way_points(n):
        a_new = fock.scattered_new(pt, cfg).amplitude
        a_fork = fock.scattered_forked(pt, cfg).amplitude
        a_gam = fock.total_gamma(pt, cfg).amplitude
        worst = max(worst, abs(a_new - a_fork), abs(a_gam - 1.0 - a_new))
    for bc in ([] if quick else [pk.NEUMANN, pk.robin(1j)]):
        cfgb = fock.ProblemConfig(bc)
        for pt in _three_way_points(6, seed=11):
            a_new = fock.scattered_new(pt, cfgb).amplitude
            a_fork = fock.scattered_forked(pt, cfgb).amplitude
            worst = max(worst, abs(a_new - a_fork))
    return worst


@_check("pole_residue_identity", 1e-8, "contour shift across the caret pole")
def check_pole_residue(quick: bool = False) -> VerificationCheck:
    """|total_new - scattered_new - 1| at the three-way test points."""
    n = 4 if quick else 20
    cfg = fock.ProblemConfig(pk.DIRICHLET)
    worst = 0.0
    for pt in _three_way_points(n):
        a_s = fock.scattered_new(pt, cfg).amplitude
        a_t = fock.total_new(pt, cfg).amplitude
        worst = max(worst, abs(a_t - a_s - 1.0))
    return worst


@_check("boundary_conditions", 1e-5, "|A| (Dirichlet) / impedance defect (Neumann, Robin)")
def check_boundary_conditions(quick: bool = False) -> VerificationCheck:
    xs = [0.0, 0.8] if quick else [0.0, 0.4, -0.5, 0.8, 1.2, -1.0, 1.6, -1.5, 2.0, 0.1]
    worst = 0.0
    for x in xs:
        worst = max(worst, fock.boundary_residual(x, fock.ProblemConfig(pk.DIRICHLET)))
    for x in ([0.8] if quick else [0.0, 0.8, -0.5]):
        worst = max(worst, fock.boundary_residual(x, fock.ProblemConfig(pk.NEUMANN)))
        worst = max(worst, fock.boundary_residual(x, fock.ProblemConfig(pk.robin(2j))))
        if not quick:
            worst = max(worst, fock.boundary_residual(x, fock.ProblemConfig(pk.robin(1.0))))
    return worst


@_check("pwe_residual_order", (3.5, 4.5), "residual(h=0.04)/residual(h=0.02), expect ~4",
        compare="in")
def check_pwe_residual() -> VerificationCheck:
    """O(h^2) decay of the centred-difference PWE residual near (0, 1)."""
    cfg = fock.ProblemConfig(pk.DIRICHLET)

    def max_resid(h):
        # 3x3 centres around (0, 1): 21 distinct stencil points
        centres = [fock.FockPoint(i * h, 1.0 + j * h) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        return fock.pwe_residual(centres, cfg, h)

    return max_resid(0.04) / max_resid(0.02)


@_check("asymptotic_sectors", 1.0, compare=">=")
def check_asymptotic_sectors() -> VerificationCheck:
    """Lit-sector error-order ratio and shadow-sector first-term accuracy."""
    rels = []
    for T in (6.0, 12.0):
        t = complex(-T)
        v = pk.pekeris_caret(t).value
        va = pk.caret_lit_asymptotic(t, pk.DIRICHLET)
        rels.append(abs(v - va) / abs(v))
    ratio = rels[0] / rels[1]
    t = 6.0 * np.exp(1j * np.pi / 6)
    v = pk.pekeris_caret(complex(t)).value
    va = pk.caret_shadow_asymptotic(complex(t), pk.DIRICHLET)
    shadow_rel = abs(v - va) / abs(v)
    return (min(ratio / 6.0, 1e-3 / max(shadow_rel, 1e-300)),
            ratio >= 6.0 and shadow_rel <= 1e-3,
            f"lit ratio {ratio:.2f} (need >= 6), shadow rel {shadow_rel:.2e} (need <= 1e-3)")


@_check("illuminated_matching", 1.0, "successive |field - reflected| ratios (must be < 1)",
        compare="<")
def check_illuminated_matching() -> VerificationCheck:
    """|scattered_new(inner coords) - reflected_outer| strictly decreasing
    over k in {200, 800, 3200} at (x, y) = (-1, 0.5) for all boundary kinds."""
    worst_ratio = 0.0
    for bc in [pk.DIRICHLET, pk.NEUMANN, pk.robin(1 + 1j)]:
        cfg = fock.ProblemConfig(bc)
        diffs = []
        for k in (200.0, 800.0, 3200.0):
            pt = fock.FockPoint(k ** (1 / 3) * -1.0, k ** (2 / 3) * 0.5)
            a = fock.scattered_new(pt, cfg).amplitude
            ref = mt.reflected_outer(mt.OuterPoint(-1.0, 0.5, k), bc)
            diffs.append(abs(a - ref))
        worst_ratio = max(worst_ratio, diffs[1] / diffs[0], diffs[2] / diffs[1])
    return worst_ratio


@_check("penumbra_matching", 2e-2)
def check_penumbra(quick: bool = False) -> VerificationCheck:
    """Uniform penumbra formula against direct quadrature at k = 1e4, and the
    Gaussian-pole identity.  Relative error is measured against the larger
    of the local amplitude and the incident amplitude."""
    worst = 0.0
    k = 1e4
    yts = [0.0] if quick else [-1.0, -0.3, 0.0, 0.3, 1.0]
    for yt in yts:
        pt = mt.PenumbraPoint(1.0, yt, k)
        uni = mt.penumbra_field(pt, pk.DIRICHLET, "uniform")
        direct = mt.penumbra_direct(pt, pk.DIRICHLET)
        worst = max(worst, abs(uni - direct) / max(1.0, abs(direct)))
    gauss = 0.0
    for ts in (np.exp(-3j * np.pi / 4), 0.5 + 1.2j, -2.0 - 0.3j):
        l, r = mt.pole_gaussian_identity(ts)
        gauss = max(gauss, abs(l - r))
    return (worst, worst <= 2e-2 and gauss <= 1e-8,
            f"uniform-vs-direct rel {worst:.2e}; pole-Gaussian identity {gauss:.2e}")


@_check("creeping_matching", 1.0, "rel-error ratio x=6 vs x=4 (must be < 1)", compare="<")
def check_creeping_matching() -> VerificationCheck:
    """total_new approaches the creeping formula with decreasing relative
    error between x_hat = 4 and x_hat = 6 (k = 1e4 scaling), all bc."""
    k = 1e4
    worst = 0.0
    for bc in [pk.DIRICHLET, pk.NEUMANN, pk.robin(1j)]:
        cfg = fock.ProblemConfig(bc)
        rels = []
        for xh in (4.0, 6.0):
            nh = 0.5
            a = fock.total_new(fock.FockPoint(xh, nh - xh * xh / 4.0), cfg).amplitude
            cr = mt.creeping_inner(xh * k ** (-1 / 3), nh, k, bc)
            rels.append(abs(a - cr) / abs(cr))
        worst = max(worst, rels[1] / rels[0])
    return worst


@_check("jro_endpoint_identity", 3.0, "variation of R_Sigma * sqrt(Sigma) (bounded within x3)")
def check_jro_identity(quick: bool = False) -> VerificationCheck:
    """Boundedness of R_Sigma(t) * sqrt(Sigma) over Sigma in {25,50,100,200}."""
    sigmas = [25.0, 100.0] if quick else [25.0, 50.0, 100.0, 200.0]
    ts = [1.0] if quick else [0.5, 1.0, 2.0]
    worst = 0.0
    for t in ts:
        scaled = [mt.i_sigma_remainder(t, S) * math.sqrt(S) for S in sigmas]
        worst = max(worst, max(scaled) / min(scaled))
    return worst


def run_suite(quick: bool = False) -> VerificationReport:
    report = VerificationReport()
    report.checks.append(check_airy_identities())
    report.checks.append(check_caret_representations(quick=quick))
    report.checks.append(check_fock_three_way(quick=quick))
    report.checks.append(check_pole_residue(quick=quick))
    report.checks.append(check_boundary_conditions(quick=quick))
    if not quick:
        report.checks.append(check_pwe_residual())
    report.checks.append(check_asymptotic_sectors())
    if not quick:
        report.checks.append(check_illuminated_matching())
    report.checks.append(check_penumbra(quick=quick))
    if not quick:
        report.checks.append(check_creeping_matching())
    report.checks.append(check_jro_identity(quick=quick))
    return report
