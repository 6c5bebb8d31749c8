"""Adaptive Gauss-Kronrod quadrature along complex contour paths.

Paths are polylines: ``contours.truncate`` has replaced their ray ends by
lines.  A panel is a sub-interval [u0, u1] of one line, u in [0, 1] mapping
to start + u (end - start).  Each panel carries a 15-point Kronrod rule with
the embedded 7-point Gauss rule; the difference of the two estimates is the
panel's error defect.

One adaptive driver serves every caller.  It refines in rounds: every panel
holding more than its share of the defect is bisected, and the nodes of all
new panels go to the integrand in a single call (in blocks, where members x
nodes would pass ``CALL_ELEMENTS``).  The cost is then dominated by a few
large vectorised special-function evaluations instead of one small call per
panel.  Each line starts as equal panels, 2 units long unless the caller
passes a width sized from its integrand's rates, so that most integrals
converge in their first round.  ``integrate`` is the one-member case of
``integrate_batch``.
``integrate_exp_batch`` serves families w(z) e^{expo(z) + a_m z + b_m} whose
members differ only in the exponential: on a panel the member factor
splits into one exponential at the midpoint and one shared by all panels of
that width, so a round costs one complex exponential per member and panel
instead of one per member and node.

The driver alone decides whether a result is accepted: it met its tolerance
target, or refinement hit a cap within ``FLOOR_FACTOR`` times the roundoff
floor it measures from its own panel sums.  Anything else has stalled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contours import ContourPath

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

    * ``"stalled"``: refinement stopped (panel or round cap) above both the
      tolerance target and ``FLOOR_FACTOR`` times the measured roundoff
      floor; ``result`` holds that member's best value and its error,
    * ``"nonfinite"``: the integrand returned inf or nan on a node,
    * ``"untruncated"``: the path still has infinite rays,
    * ``"shape"``: the integrand returned an array of the wrong shape,
    * ``"integrand"``: the integrand itself raised ``QuadratureError`` (a
      nested quadrature failed); that failure is not this integral's stall.
    """

    REASONS = ("stalled", "nonfinite", "untruncated", "shape", "integrand")

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
        if not all(math.isfinite(tol) and tol > 0 for tol in
                   (self.rel_tol, self.abs_tol, self.truncation_tail_tol)):
            raise ValueError("tolerances must be finite and positive")
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
# a member's roundoff floor is ROUNDOFF x the sum of its panels' |K15|
# (QUADPACK's measure); a member stopped by a cap is still accepted within
# FLOOR_FACTOR times it (panel-defect sums bottom out around eps x integrand
# peak accumulated over the refined panels)
ROUNDOFF = 3e-16
FLOOR_FACTOR = 1e4
# most elements (members x nodes) one integrand call returns: a round with
# more is evaluated one block of panels (or of an exponential family's members)
# per call, so a wide batch on a long path holds no gigabytes of values at once
CALL_ELEMENTS = 1 << 20


def _segment_table(path: ContourPath):
    """Per-line arrays (base, step): line j maps u in [0, 1] to
    base_j + u step_j."""
    if not path.is_finite:
        raise QuadratureError("path has untruncated rays; call truncate() first",
                              "untruncated")
    return (np.array([s.start for s in path.segments], dtype=complex),
            np.array([s.end - s.start for s in path.segments], dtype=complex))


def _initial_panels(path: ContourPath, width: float = 2.0):
    """(segment index, u0, u1) arrays of the starting panels.

    Each segment starts as n equal panels, n = ceil(length / ``width``)
    within [2, 64], so they are no longer than ``width`` up to a length of
    64 widths.  The default of 2 units makes the embedded error estimate
    meaningful before any refinement (guards against aliasing acceptance);
    callers that know their integrand's rates pass a smaller width, so it
    converges in fewer rounds.  Every later panel of a segment is a dyadic
    part of its starting width, as ``_evaluate_exp`` requires.
    """
    seg, u0, u1 = [], [], []
    for j, s in enumerate(path.segments):
        n = max(2, int(math.ceil(abs(s.end - s.start) / width)))
        n = min(n, 64)
        seg += [j] * n
        u0 += [k / n for k in range(n)]
        u1 += [(k + 1) / n for k in range(n)]
    return np.array(seg, dtype=int), np.array(u0), np.array(u1)


def _nodes(table, seg: np.ndarray, u0: np.ndarray, u1: np.ndarray):
    """GK15 nodes z (P, 15) and Jacobians dz/du * du/dx (P, 1), one per panel."""
    base, step = table
    um = 0.5 * (u0 + u1)
    uh = (0.5 * (u1 - u0))[:, None]
    u = um[:, None] + uh * _XK
    z = base[seg, None] + u * step[seg, None]
    return z, step[seg, None] * uh


def _in_blocks(evaluate, table, seg, u0, u1, members: int | None, out=None):
    """K15 values and defects, both (members, P), from ``evaluate(table, seg,
    u0, u1, members)`` calls of at most ``CALL_ELEMENTS`` members x nodes (one
    panel at least), written into the arrays ``out`` if given.  With
    ``members`` None the first call is one panel, whose rows size the rest."""
    i = 0
    while i < seg.size:
        n = max(1, CALL_ELEMENTS // (15 * members)) if members else 1
        k15, defect = evaluate(table, seg[i:i + n], u0[i:i + n], u1[i:i + n], members)
        if out is None:
            if n >= seg.size:
                return k15, defect
            members = k15.shape[0]
            out = np.empty((members, seg.size), dtype=complex), np.empty((members, seg.size))
        out[0][:, i:i + n], out[1][:, i:i + n] = k15, defect
        i += n
    return out


def _widened(kept: np.ndarray, count: int) -> np.ndarray:
    """``kept`` (members, K) followed by ``count`` uninitialised columns."""
    out = np.empty((kept.shape[0], kept.shape[1] + count), dtype=kept.dtype)
    out[:, :kept.shape[1]] = kept
    return out


def _evaluate(fmat, table, seg, u0, u1, members: int | None):
    """K15 values and defects of ``fmat``'s members on the panels."""
    z, jac = _nodes(table, seg, u0, u1)
    nodes = z.ravel()
    try:
        fz = np.asarray(fmat(nodes), dtype=complex)
    except QuadratureError as exc:
        raise QuadratureError(f"integrand failed: {exc}", "integrand") from exc
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


# the K15 and G7 weights on the 15 Kronrod nodes (G7 is 0 on the Kronrod-only ones)
_WKG = np.zeros((2, 15))
_WKG[0], _WKG[1, 1::2] = _WK, _WG


def _evaluate_exp(factor, a, b, table, seg, u0, u1, members: int):
    """K15 values and defects of the family w(z) e^{expo(z) + a_m z + b_m} on
    the panels, with (w, expo) = ``factor(nodes)``, ``a`` (members,) and
    ``b`` (members, 1) or (1, 1).

    A panel with midpoint z_p and half-step h_p has the nodes z_p + h_p x_j,
    so each member's integrand is e^{a_m z_p + b_m + c_p} (c_p = expo at the
    midpoint) times e^{a_m h_p x_j}, shared by the panels of one segment and
    width, times w e^{expo - c_p}, shared by the members: one complex
    exponential per member and panel, and 15 per member and panel width.
    """
    z, jac = _nodes(table, seg, u0, u1)
    try:
        w, expo = factor(z.ravel())
    except QuadratureError as exc:
        raise QuadratureError(f"integrand failed: {exc}", "integrand") from exc
    if np.shape(w) != (z.size,) or np.shape(expo) != (z.size,):
        raise QuadratureError(f"factor returned shapes {np.shape(w)}, {np.shape(expo)} "
                              f"for {z.size} nodes", "shape")
    w, expo = np.reshape(w, z.shape), np.reshape(expo, z.shape)
    c = expo[:, 7]
    mid = np.exp(np.outer(a, z[:, 7]) + c + b)
    g = w * np.exp(expo - c[:, None]) * jac
    # dyadic sub-panels of one segment have one width per binary exponent
    uh = 0.5 * (u1 - u0)
    _, first, group = np.unique(seg * 4096 + np.frexp(uh)[1], return_index=True,
                                return_inverse=True)
    h = table[1][seg[first]] * uh[first]
    shared = np.exp((h[:, None] * _XK)[:, None, :] * a[:, None])
    k15 = np.empty((a.size, seg.size), dtype=complex)
    g7 = np.empty_like(k15)
    for k in range(first.size):
        rows = np.nonzero(group == k)[0]
        # one (members, 15) @ (15, 2 rows) product: the K15 then the G7
        # weighted node values of the group's panels
        sums = shared[k] @ (_WKG[:, None, :] * g[rows]).reshape(-1, 15).T
        k15[:, rows], g7[:, rows] = sums[:, :rows.size], sums[:, rows.size:]
    k15 *= mid
    defect = np.abs(k15 - mid * g7)
    if not np.isfinite(defect).all():
        bad = ~(np.isfinite(w) & np.isfinite(expo))
        node = z[bad][0] if bad.any() else z[np.argmin(np.isfinite(defect).all(axis=0)), 7]
        raise QuadratureError(f"non-finite integrand sample at t = {node}", "nonfinite")
    return k15, defect


def _adapt(evaluate, path: ContourPath, opts: QuadOptions, members: int | None,
           strict: bool, width: float = 2.0):
    """The adaptive core and its one acceptance rule, on panel sums from
    ``evaluate(table, seg, u0, u1, members)`` (``_evaluate`` or
    ``_evaluate_exp`` with their integrand bound).

    Each round measures every member's roundoff floor from its own panel
    sums, ``floor_i = ROUNDOFF sum_p |K15_ip|``, and its target
    ``max(abs_tol, floor_i, rel_tol |value_i|)``; a panel is bisected when
    its defect exceeds 1/(4P) of that target for some member (the worst panel
    when none does).  Refinement stops when every member meets its target or
    at the panel or round cap.  A member is accepted if it met its target, or
    if its defect sum is within ``FLOOR_FACTOR`` times its floor
    (floor-limited, QUADPACK's roundoff status); its error is that defect
    sum plus the floor.  With ``strict`` the first member not accepted
    raises ``QuadratureError`` ("stalled") with its best result.  The first
    round evaluates ``_initial_panels(path, width)``; ``members`` is None
    where the integrand's first call tells it (``_in_blocks``).

    Returns (values, errors, evaluations, rounds, accepted).
    """
    table = _segment_table(path)
    seg, u0, u1 = _initial_panels(path, width)
    vals, errs = _in_blocks(evaluate, table, seg, u0, u1, members)
    members = vals.shape[0]
    evals = 15 * seg.size
    rounds = 0
    while True:
        total = vals.sum(axis=1)
        err_total = errs.sum(axis=1)
        floor = ROUNDOFF * np.abs(vals).sum(axis=1)
        target = np.maximum(np.maximum(opts.abs_tol, floor), opts.rel_tol * np.abs(total))
        converged = err_total <= target
        if converged.all() or seg.size >= opts.max_subdivisions or rounds == _MAX_ROUNDS:
            break
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
        # the (members, P) sums dominate the memory of a wide batch on a long
        # path: drop the split panels' sums one array at a time, then
        # evaluate the new panels straight into the widened arrays
        vals = vals[:, keep]
        errs = errs[:, keep]
        kept = vals.shape[1]
        vals = _widened(vals, new_seg.size)
        errs = _widened(errs, new_seg.size)
        _in_blocks(evaluate, table, new_seg, new_u0, new_u1, members,
                   (vals[:, kept:], errs[:, kept:]))
        evals += 15 * new_seg.size
        rounds += 1
        seg = np.concatenate((seg[keep], new_seg))
        u0 = np.concatenate((u0[keep], new_u0))
        u1 = np.concatenate((u1[keep], new_u1))
    accepted = converged | (err_total <= FLOOR_FACTOR * floor)
    err_total = err_total + floor
    if strict and not accepted.all():
        k = int(np.argmin(accepted))
        v, e = complex(total[k]), float(err_total[k])
        raise QuadratureError(
            f"member {k}: tolerance not reached after {rounds} rounds: "
            f"error {e:.3e} for value {v:.6e}",
            "stalled", QuadResult(v, e, evals, path.truncation_radius, rounds))
    return total, err_total, evals, rounds, accepted


def integrate(f, path: ContourPath, opts: QuadOptions = QuadOptions(),
              width: float = 2.0) -> QuadResult:
    """Adaptively integrate ``f(t: ndarray(n,)) -> ndarray(n,)`` along the
    finite ``path``, from starting panels no longer than ``width``.

    The strict one-member case of ``integrate_batch``.  Deterministic for
    fixed inputs.  A result that is not accepted raises ``QuadratureError``
    with reason ``"stalled"`` and the best result.
    """
    total, err_total, evals, rounds, _ = _adapt(functools.partial(_evaluate, f), path, opts,
                                                1, True, width)
    return QuadResult(complex(total[0]), float(err_total[0]), evals,
                      path.truncation_radius, rounds)


def integrate_batch(fmat, path: ContourPath, opts: QuadOptions = QuadOptions(),
                    strict: bool = True):
    """Integrate a family of integrands sharing one path.

    ``fmat(t: ndarray(n,)) -> ndarray(m, n)`` returns all family members on
    the given nodes.  Each round bisects every panel whose defect exceeds
    1/(4P) of some member's target, and ``_adapt`` decides acceptance.  With
    ``strict`` the first member not accepted raises ``QuadratureError``
    ("stalled") with its best result; with ``strict=False`` the best values
    and their honest errors come back with ``accepted`` false for it.

    Returns ``(values (m,), errors (m,), evaluations, accepted (m,))``.
    """
    total, err_total, evals, _, accepted = _adapt(functools.partial(_evaluate, fmat), path,
                                                  opts, None, strict)
    return total, err_total, evals, accepted


def integrate_exp_batch(factor, a, b, path: ContourPath, opts: QuadOptions = QuadOptions(),
                        strict: bool = True, width: float = 2.0):
    """``integrate_batch`` for the exponential family
    w(z) e^{expo(z) + a_m z + b_m}, members m.

    ``factor(t: ndarray(n,)) -> (w, expo)``, complex and real arrays (n,),
    holds the member-independent part F = w e^{expo}; ``a`` and ``b`` are
    the members' complex coefficients (``b`` may be a scalar).  The driver,
    its refinement and its acceptance are those of ``integrate_batch``; the
    starting panels are no longer than ``width``.  A
    family of several members costs one complex exponential per member and
    panel instead of one per member and node (see ``_evaluate_exp``); a
    family of one evaluates each node's exponential directly, as
    ``integrate_batch`` would.  A non-finite w, expo or member factor raises
    ``QuadratureError`` ("nonfinite") naming a node.

    Returns ``(values (m,), errors (m,), evaluations, accepted (m,))``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.reshape(np.asarray(b, dtype=complex), (-1, 1))
    if a.size == 1:
        def fmat(t):
            w, expo = factor(t)
            return w[None, :] * np.exp(np.outer(a, t) + expo[None, :] + b)

        evaluate = functools.partial(_evaluate, fmat)
    else:
        def evaluate(table, seg, u0, u1, members):
            step = max(1, CALL_ELEMENTS // (15 * seg.size))
            if a.size <= step:
                return _evaluate_exp(factor, a, b, table, seg, u0, u1, members)
            bm = np.broadcast_to(b, (a.size, 1))
            parts = [_evaluate_exp(factor, a[m:m + step], bm[m:m + step], table, seg, u0, u1,
                                   members) for m in range(0, a.size, step)]
            return tuple(np.concatenate(p) for p in zip(*parts))
    total, err_total, evals, _, accepted = _adapt(evaluate, path, opts, a.size, strict,
                                                  width)
    return total, err_total, evals, accepted


# Former name of the round-based driver, kept as an alias of ``integrate``
# (same signature) because bench/tracer.py lists it among the drivers it wraps.
integrate_rounds = integrate
