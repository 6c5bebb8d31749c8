"""Adaptive Gauss-Kronrod quadrature along complex contour paths.

Panels are parametrised sub-intervals of the path's segments.  Each panel
carries a 15-point Kronrod rule with the embedded 7-point Gauss rule; the
difference of the two estimates is the panel's error defect.

One adaptive driver serves every caller.  It refines in rounds: every panel
holding more than its share of the defect is bisected, and the nodes of all
new panels go to the integrand in a single call.  The cost is then dominated
by a few large vectorised special-function evaluations instead of one small
call per panel.  ``integrate`` is the one-member case of ``integrate_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contours import Arc, ContourPath, Line, Ray

# QUADPACK 15-point Kronrod nodes/weights with embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


class QuadratureError(RuntimeError):
    """Quadrature failure with a typed ``reason`` and the best available result.

    ``reason`` is one of ``REASONS``:

    * ``"stalled"``: refinement stopped (panel or round cap) above the
      tolerance target; ``result`` holds the best value and its error sum,
    * ``"nonfinite"``: the integrand returned inf or nan on a node,
    * ``"untruncated"``: the path still has infinite rays,
    * ``"shape"``: the integrand returned an array of the wrong shape.
    """

    REASONS = ("stalled", "nonfinite", "untruncated", "shape")

    def __init__(self, message: str, reason: str, result: "QuadResult | None" = None):
        if reason not in self.REASONS:
            raise ValueError(f"unknown quadrature failure reason {reason!r}")
        super().__init__(message)
        self.reason = reason
        self.result = result


@dataclass(frozen=True)
class QuadOptions:
    """Tolerances and the work cap of the adaptive driver.

    ``max_subdivisions`` caps the number of panels: no refinement round
    starts once the path holds that many (the last round may overshoot the
    cap by the panels it splits).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    truncation_tail_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.truncation_tail_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float
    evaluations: int
    truncation_radius: float = 0.0
    rounds: int = 0


# backstop only: 200 bisections shrink a panel far below double precision
_MAX_ROUNDS = 200


def _segment_table(path: ContourPath):
    """Per-segment arrays (base, step, radius, angle0, sweep, is_arc).

    A line maps u in [0, 1] to base + u step; an arc to
    base + radius e^{i (angle0 + u sweep)} about its centre ``base``.
    """
    rows = []
    for s in path.segments:
        if isinstance(s, Ray):
            raise QuadratureError("path has untruncated rays; call truncate() first",
                                  "untruncated")
        if isinstance(s, Arc):
            rows.append((s.center, 0.0, s.radius, s.angle_from, s.angle_to - s.angle_from, True))
        else:
            rows.append((s.start, s.end - s.start, 0.0, 0.0, 0.0, False))
    base, step, radius, angle0, sweep, is_arc = zip(*rows)
    return (np.array(base, dtype=complex), np.array(step, dtype=complex), np.array(radius),
            np.array(angle0), np.array(sweep), np.array(is_arc))


def _initial_panels(path: ContourPath):
    """(segment index, u0, u1) arrays of the starting panels.

    Panels start no longer than ~2 units (pi/6 of arc) so the embedded error
    estimate is meaningful before any refinement (guards against aliasing
    acceptance).
    """
    seg, u0, u1 = [], [], []
    for j, s in enumerate(path.segments):
        if isinstance(s, Line):
            n = max(2, int(math.ceil(abs(s.end - s.start) / 2.0)))
        else:
            n = max(2, int(math.ceil(abs(s.angle_to - s.angle_from) / (math.pi / 6.0))))
        n = min(n, 64)
        seg += [j] * n
        u0 += [k / n for k in range(n)]
        u1 += [(k + 1) / n for k in range(n)]
    return np.array(seg, dtype=int), np.array(u0), np.array(u1)


def _nodes(table, seg: np.ndarray, u0: np.ndarray, u1: np.ndarray):
    """GK15 nodes z and Jacobian weights dz/du * du/dx, both (P, 15)."""
    base, step, radius, angle0, sweep, is_arc = table
    um = 0.5 * (u0 + u1)
    uh = (0.5 * (u1 - u0))[:, None]
    u = um[:, None] + uh * _XK
    z = base[seg, None] + u * step[seg, None]
    jac = np.repeat(step[seg, None] * uh, 15, axis=1)
    arc = is_arc[seg]
    if arc.any():
        k = seg[arc]
        e = np.exp(1j * (angle0[k, None] + u[arc] * sweep[k, None]))
        z[arc] = base[k, None] + radius[k, None] * e
        jac[arc] = 1j * radius[k, None] * e * sweep[k, None] * uh[arc]
    return z, jac


def _evaluate(fmat, table, seg, u0, u1, members: int | None):
    """K15 values and |K15 - G7| defects, both (members, P), from one call."""
    z, jac = _nodes(table, seg, u0, u1)
    nodes = z.ravel()
    fz = np.asarray(fmat(nodes), dtype=complex)
    if fz.ndim == 1:
        fz = fz[None, :]
    if fz.ndim != 2 or fz.shape[1] != nodes.size or members not in (None, fz.shape[0]):
        raise QuadratureError(
            f"integrand returned shape {fz.shape} for {nodes.size} nodes", "shape")
    finite = np.isfinite(fz)
    if not finite.all():
        bad = nodes[~finite.all(axis=0)][0]
        raise QuadratureError(f"non-finite integrand sample at t = {bad}", "nonfinite")
    g = fz.reshape(fz.shape[0], -1, 15) * jac
    k15 = g @ _WK
    g7 = g[:, :, 1::2] @ _WG
    return k15, np.abs(k15 - g7)


def _adapt(fmat, path: ContourPath, opts: QuadOptions, abs_floor, members: int | None):
    """The adaptive core: (values, errors, evaluations, rounds, converged).

    Each member is measured against its own target
    ``max(abs_tol, abs_floor_i, rel_tol |value_i|)``; a panel is bisected when
    its defect exceeds 1/(4P) of that target for some member (the worst panel
    when none does).
    """
    table = _segment_table(path)
    seg, u0, u1 = _initial_panels(path)
    vals, errs = _evaluate(fmat, table, seg, u0, u1, members)
    members = vals.shape[0]
    evals = 15 * seg.size
    rounds = 0
    while True:
        total = vals.sum(axis=1)
        err_total = errs.sum(axis=1)
        target = np.maximum(np.maximum(opts.abs_tol, abs_floor),
                            opts.rel_tol * np.abs(total))
        if np.all(err_total <= target):
            return total, err_total, evals, rounds, True
        if seg.size >= opts.max_subdivisions or rounds == _MAX_ROUNDS:
            return total, err_total, evals, rounds, False
        ratio = np.max(errs / target[:, None], axis=0)
        refine = ratio > 1.0 / (4.0 * seg.size)
        if not refine.any():
            refine[np.argmax(ratio)] = True
        keep = ~refine
        lo, hi = u0[refine], u1[refine]
        mid = 0.5 * (lo + hi)
        new_seg = np.repeat(seg[refine], 2)
        new_u0 = np.column_stack((lo, mid)).ravel()
        new_u1 = np.column_stack((mid, hi)).ravel()
        new_vals, new_errs = _evaluate(fmat, table, new_seg, new_u0, new_u1, members)
        evals += 15 * new_seg.size
        rounds += 1
        seg = np.concatenate((seg[keep], new_seg))
        u0 = np.concatenate((u0[keep], new_u0))
        u1 = np.concatenate((u1[keep], new_u1))
        vals = np.concatenate((vals[:, keep], new_vals), axis=1)
        errs = np.concatenate((errs[:, keep], new_errs), axis=1)


def _stalled(total, err_total, evals, rounds, path) -> QuadratureError:
    v, e = complex(total[0]), float(err_total[0])
    return QuadratureError(
        f"tolerance not reached after {rounds} rounds: error {e:.3e} for value {v:.6e}",
        "stalled", QuadResult(v, e, evals, path.truncation_radius, rounds))


def integrate(f, path: ContourPath, opts: QuadOptions = QuadOptions(),
              abs_floor: float = 0.0) -> QuadResult:
    """Adaptively integrate ``f(t: ndarray(n,)) -> ndarray(n,)`` along the
    finite ``path``.

    The one-member case of ``integrate_batch``: refinement stops when the
    summed Kronrod-Gauss defect meets ``max(abs_tol, abs_floor,
    rel_tol |value|)``.  Deterministic for fixed inputs.  A stall raises
    ``QuadratureError`` with reason ``"stalled"`` and the best result.
    """
    total, err_total, evals, rounds, ok = _adapt(f, path, opts, abs_floor, 1)
    if not ok:
        raise _stalled(total, err_total, evals, rounds, path)
    return QuadResult(complex(total[0]), float(err_total[0]), evals,
                      path.truncation_radius, rounds)


def integrate_batch(fmat, path: ContourPath, opts: QuadOptions = QuadOptions(),
                    abs_floor=0.0, strict: bool = True):
    """Integrate a family of integrands sharing one path.

    ``fmat(t: ndarray(n,)) -> ndarray(m, n)`` returns all family members on
    the given nodes.  Refinement is driven by the worst panel across the
    family, each member's error measured against its own tolerance target
    ``max(abs_tol, rel_tol * |value_i|, abs_floor_i)`` (``abs_floor`` may be
    an array of per-member cancellation floors).  With ``strict=False`` a
    refinement stall returns the best values with their honest error sums
    instead of raising (callers fold the errors into their estimates).

    Returns ``(values (m,), errors (m,), evaluations)``.
    """
    total, err_total, evals, rounds, ok = _adapt(fmat, path, opts, abs_floor, None)
    if not ok and strict:
        raise _stalled(total, err_total, evals, rounds, path)
    return total, err_total, evals


# Former name of the round-based driver, kept as an alias of ``integrate``
# (same signature) because bench/tracer.py lists it among the drivers it wraps.
integrate_rounds = integrate
