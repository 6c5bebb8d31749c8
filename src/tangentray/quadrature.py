"""Adaptive Gauss-Kronrod quadrature along complex contour paths.

Paths are polylines: ``contours.truncate`` has replaced their ray ends by
lines.  A panel is a sub-interval [u0, u1] of one line, u in [0, 1] mapping
to start + u (end - start).  Each panel carries a 15-point Kronrod rule with
the embedded 7-point Gauss rule; the difference of the two estimates is the
panel's error defect.

The adaptive core (``_adapt``) refines in rounds: every panel holding more
than its share of the defect is bisected.  Each line starts as equal panels,
2 units long unless the caller passes a width sized from its integrand's
rates, so that most integrals converge in their first round.  It is a
stepper, a generator that yields the panels it wants and takes back their
sums; ``_drive``, the one round loop, steps a list of steppers in lockstep
and hands each round's open requests to one evaluator, so the cost is a few
large vectorised special-function evaluations, not one small call per panel.
Integrands given by their values (``integrate``, ``integrate_batch``,
``integrate_lockstep``, the one-member exponential family) share
``_value_sums`` and its one call ``call(legs, nodes)``, which takes the nodes
of every open request, at most ``CALL_ELEMENTS`` nodes a call (cut at panel
ends): an integrand whose cost is mostly a fixed overhead per call (the Airy
factors of the sigma-plane legs of ``integrate_lockstep``) pays it once per
round.

``integrate_exp_batch`` serves families w(z) e^{expo(z) + a_m z + b_m} whose
members differ only in the exponential: on a panel the member factor splits
into one exponential at the midpoint and one shared by all panels of that
width, so a round costs one complex exponential per member and panel instead
of one per member and node.  A family of several members is evaluated in
blocks of at most ``CALL_ELEMENTS`` members x nodes.

The driver alone decides whether a result is accepted: it met its tolerance
target, or refinement hit a cap within ``FLOOR_FACTOR`` times the roundoff
floor it measures from its own panel sums.  Anything else has stalled and
raises.  The driver alone also sets the error it reports: the defect sum,
the floor, and the tail the path records as cut off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, repeat

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
# most nodes one integrand call is handed, members x nodes for an exponential
# family of several members: a long round is cut into several calls, so that
# no call's values and temporaries run to gigabytes
CALL_ELEMENTS = 1 << 20


def _segment_table(path: ContourPath):
    """Per-line arrays (base, step): line j maps u in [0, 1] to
    base_j + u step_j."""
    if not path.is_finite:
        raise QuadratureError("path has untruncated rays; call truncate() first", "untruncated")
    return np.array([(s.start, s.end - s.start) for s in path.segments], dtype=complex).T


@functools.lru_cache(maxsize=1024)
def _panel_layout(counts: tuple):
    """(segment index, u0, u1) read-only arrays of counts[j] equal panels on
    each segment j, u0 = k / n as Python divides."""
    n = np.array(counts)
    seg = np.repeat(np.arange(n.size), n)
    k = np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)
    out = seg, k / n[seg], (k + 1) / n[seg]
    for a in out:
        a.flags.writeable = False
    return out


def _initial_panels(path: ContourPath, width: float = 2.0):
    """(segment index, u0, u1) arrays of the starting panels.

    Each segment starts as n equal panels, n = ceil(length / ``width``)
    within [2, 64], so they are no longer than ``width`` up to a length of
    64 widths.  The default of 2 units makes the embedded error estimate
    meaningful before any refinement (guards against aliasing acceptance);
    callers that know their integrand's rates pass a smaller width, so it
    converges in fewer rounds.  Every later panel of a segment is a dyadic
    part of its starting width, as ``_evaluate_exp`` requires.  The arrays
    of one panel count per segment are built once (``_panel_layout``).
    """
    return _panel_layout(tuple([min(max(2, math.ceil(abs(s.end - s.start) / width)), 64)
                                for s in path.segments]))


def _nodes(table, seg: np.ndarray, u0: np.ndarray, u1: np.ndarray):
    """GK15 nodes (15 P,), panel by panel, and Jacobians dz/du * du/dx
    (P, 1), one per panel."""
    base, step = table
    um = 0.5 * (u0 + u1)
    uh = (0.5 * (u1 - u0))[:, None]
    u = um[:, None] + uh * _XK
    z = base[seg, None] + u * step[seg, None]
    return z.ravel(), step[seg, None] * uh


def _in_blocks(factor, a, b, table, seg, u0, u1, out):
    """``_evaluate_exp``'s K15 values and defects, both (members, P), from
    calls of at most ``CALL_ELEMENTS`` members x nodes (one member and one
    panel at least), written into the arrays ``out`` if given."""
    n = max(1, CALL_ELEMENTS // (15 * a.size))      # panels per call
    step = max(1, CALL_ELEMENTS // (15 * n))        # members per call
    if out is None:
        if n >= seg.size and step >= a.size:
            return _evaluate_exp(factor, a, b, table, seg, u0, u1)
        out = np.empty((a.size, seg.size), dtype=complex), np.empty((a.size, seg.size))
    for i in range(0, seg.size, n):
        for m in range(0, a.size, step):
            out[0][m:m + step, i:i + n], out[1][m:m + step, i:i + n] = _evaluate_exp(
                factor, a[m:m + step], b[m:m + step] if b.size > 1 else b, table,
                seg[i:i + n], u0[i:i + n], u1[i:i + n])
    return out


def _widened(kept: np.ndarray, count: int) -> np.ndarray:
    """``kept`` (members, K) followed by ``count`` uninitialised columns."""
    out = np.empty((kept.shape[0], kept.shape[1] + count), dtype=kept.dtype)
    out[:, :kept.shape[1]] = kept
    return out


def _sums(fz, nodes: np.ndarray, jac: np.ndarray, members: int | None, out):
    """K15 values and defects, both (members, P), of the integrand values
    ``fz`` (members, nodes) or (nodes,) on the panels' flat ``nodes``, written
    into the arrays ``out`` if given (their rows are then ``members``)."""
    fz = np.asarray(fz, dtype=complex)
    if fz.ndim == 1:
        fz = fz[None, :]
    if out is not None:
        members = out[0].shape[0]
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
    if out is None:
        return k15, np.abs(k15 - g7)
    out[0][...], out[1][...] = k15, np.abs(k15 - g7)
    return out


def _cuts(legs: list, nodes: list, size: int):
    """The calls (legs, node arrays) of at most ``size`` nodes, cut at panel ends."""
    starts = [0, *accumulate(map(len, nodes))]
    for c in range(0, starts[-1], size):
        part = [j for j in range(len(nodes)) if starts[j] < c + size and starts[j + 1] > c]
        yield ([legs[j] for j in part],
               [nodes[j][max(c - starts[j], 0):c + size - starts[j]] for j in part])


def _value_sums(call, members: int | None, requests: dict):
    """``_drive``'s evaluator of an integrand given by its values: ``call(legs,
    nodes)`` takes the keys ``legs`` of requests and their flat node arrays,
    in one call a round or, past ``CALL_ELEMENTS`` nodes, in ``_cuts``, and
    returns one value array, (n,) or (members, n) on n nodes, per node array
    (``members`` None takes any count).  Sums span a request's round."""
    # ``+= [x]`` makes no method call: the round of a single integral, the
    # most frequent, pays no call overhead per request
    nodes, jacs, outs, got = [], [], [], []
    for table, seg, u0, u1, out in requests.values():
        z, jac = _nodes(table, seg, u0, u1)
        nodes += [z]
        jacs += [jac]
        outs += [out]
    legs, size = list(requests), CALL_ELEMENTS // 15 * 15 or 15     # one panel at least
    for part, args in [(legs, nodes)] if sum(map(len, nodes)) <= size else _cuts(legs, nodes, size):
        try:
            values = call(part, args)
        except QuadratureError as exc:
            raise QuadratureError(f"integrand failed: {exc}", "integrand") from exc
        if len(values) != len(args):
            raise QuadratureError(f"{len(values)} value arrays for {len(args)} legs", "shape")
        got += zip(part, values)
    if len(got) > len(values):      # the round took several calls
        try:
            values = [np.concatenate([v for k, v in got if k == leg], axis=-1) for leg in legs]
        except ValueError:
            raise QuadratureError("calls of one round returned unequal shapes", "shape") from None
    return _sums, zip(values, nodes, jacs, repeat(members), outs)


# the K15 and G7 weights on the 15 Kronrod nodes (G7 is 0 on the Kronrod-only ones)
_WKG = np.zeros((2, 15))
_WKG[0], _WKG[1, 1::2] = _WK, _WG


def _evaluate_exp(factor, a, b, table, seg, u0, u1):
    """K15 values and defects of the family w(z) e^{expo(z) + a_m z + b_m} on
    the panels, with (w, expo) = ``factor(nodes)``, ``a`` (members,) and
    ``b`` (members, 1) or (1, 1).

    A panel with midpoint z_p and half-step h_p has the nodes z_p + h_p x_j,
    so each member's integrand is e^{a_m z_p + b_m + c_p} (c_p = expo at the
    midpoint) times e^{a_m h_p x_j}, shared by the panels of one segment and
    width, times w e^{expo - c_p}, shared by the members: one complex
    exponential per member and panel, and 15 per member and panel width.
    """
    nodes, jac = _nodes(table, seg, u0, u1)
    z = nodes.reshape(-1, 15)
    try:
        w, expo = factor(nodes)
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


def _adapt(path: ContourPath, opts: QuadOptions, width: float = 2.0):
    """The adaptive core and its one acceptance rule, as a stepper: a
    generator that yields each round's new panels as a request ``(table, seg,
    u0, u1, out)`` and is sent back their K15 values and defects, both
    (members, P).  The first round asks for ``_initial_panels(path, width)``
    with ``out`` None, and the sums sent back set the member count; a later
    round's ``out`` holds the two (members, P) views its sums must be written
    into (what is sent back is then not read).  ``_drive`` steps it.

    Each round measures every member's roundoff floor from its own panel
    sums, ``floor_i = ROUNDOFF sum_p |K15_ip|``, and its target
    ``max(abs_tol, floor_i, rel_tol |value_i|)``; a panel is bisected when
    its defect exceeds 1/(4P) of that target for some member (the worst panel
    when none does).  Refinement stops when every member meets its target or
    at the panel or round cap.  A member is accepted if it met its target, or
    if its defect sum is within ``FLOOR_FACTOR`` times its floor
    (floor-limited, QUADPACK's roundoff status); its error is that defect
    sum plus the floor plus the path's ``truncation_tail``.  The first member
    not accepted raises ``QuadratureError`` ("stalled") with its best result.

    Returns (values, errors, evaluations, rounds).
    """
    table = _segment_table(path)
    seg, u0, u1 = _initial_panels(path, width)
    vals, errs = yield table, seg, u0, u1, None
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
        # path: drop the split panels' sums one array at a time, then have
        # the new panels evaluated straight into the widened arrays
        vals = vals[:, keep]
        errs = errs[:, keep]
        kept = vals.shape[1]
        vals = _widened(vals, new_seg.size)
        errs = _widened(errs, new_seg.size)
        yield table, new_seg, new_u0, new_u1, (vals[:, kept:], errs[:, kept:])
        evals += 15 * new_seg.size
        rounds += 1
        seg = np.concatenate((seg[keep], new_seg))
        u0 = np.concatenate((u0[keep], new_u0))
        u1 = np.concatenate((u1[keep], new_u1))
    accepted = converged | (err_total <= FLOOR_FACTOR * floor)
    err_total = err_total + floor + path.truncation_tail
    if not accepted.all():
        k = int(np.argmin(accepted))
        v, e = complex(total[k]), float(err_total[k])
        raise QuadratureError(
            f"member {k}: tolerance not reached after {rounds} rounds: "
            f"error {e:.3e} for value {v:.6e}",
            "stalled", QuadResult(v, e, evals, path.truncation_radius, rounds))
    return total, err_total, evals, rounds


def _drive(steppers: list, evaluate) -> dict:
    """The one round loop: steps the ``_adapt`` ``steppers`` in lockstep.

    Each round ``evaluate(requests)``, the open requests by stepper index,
    makes the round's integrand calls and returns ``(finish, args)``, one
    entry of ``args`` per request: ``finish(*a)`` gives its sums.  A failure
    there (a non-finite value, a wrong shape) or a stall is its stepper's
    own: once every stepper has stopped, the first in order that failed
    raises.  An untruncated path or a failed integrand call raises at once.
    Returns what each stepper returned, by index."""
    requests, done, failed = dict(enumerate(map(next, steppers))), {}, {}
    while requests:
        finish, args = evaluate(requests)
        pending, requests = requests, {}
        for k, a in zip(pending, args):
            try:
                requests[k] = steppers[k].send(finish(*a))
            except StopIteration as stop:
                done[k] = stop.value
            except QuadratureError as exc:
                failed[k] = exc
    if failed:
        raise failed[min(failed)]
    return done


def _one(path: ContourPath, total, err_total, evals: int, rounds: int) -> QuadResult:
    """The ``QuadResult`` of a one-member stepper's return."""
    return QuadResult(complex(total[0]), float(err_total[0]), evals,
                      path.truncation_radius, rounds)


def integrate(f, path: ContourPath, opts: QuadOptions = QuadOptions(),
              width: float = 2.0) -> QuadResult:
    """Adaptively integrate ``f(t: ndarray(n,)) -> ndarray(n,)`` along the
    finite ``path``, from starting panels no longer than ``width``.

    The one-member case of ``integrate_batch``.  Deterministic for fixed
    inputs.  A result that is not accepted raises ``QuadratureError`` with
    reason ``"stalled"`` and the best result.
    """
    done = _drive([_adapt(path, opts, width)],
                  functools.partial(_value_sums, lambda legs, nodes: [f(z) for z in nodes], 1))
    return _one(path, *done[0])


def integrate_batch(fmat, path: ContourPath, opts: QuadOptions = QuadOptions()):
    """Integrate a family of integrands sharing one path.

    ``fmat(t: ndarray(n,)) -> ndarray(m, n)`` returns all family members on
    the given nodes.  Each round bisects every panel whose defect exceeds
    1/(4P) of some member's target, and ``_adapt`` decides acceptance: the
    first member not accepted raises ``QuadratureError`` ("stalled") with its
    best result.  A call holds at most ``CALL_ELEMENTS`` nodes, whatever m.

    Returns ``(values (m,), errors (m,), evaluations)``.
    """
    evaluate = functools.partial(_value_sums, lambda legs, nodes: [fmat(z) for z in nodes], None)
    return _drive([_adapt(path, opts)], evaluate)[0][:3]


def integrate_exp_batch(factor, a, b, path: ContourPath, opts: QuadOptions = QuadOptions(),
                        width: float = 2.0):
    """``integrate_batch`` for the exponential family
    w(z) e^{expo(z) + a_m z + b_m}, members m.

    ``factor(t: ndarray(n,)) -> (w, expo)``, complex and real arrays (n,),
    holds the member-independent part F = w e^{expo}; ``a`` and ``b`` are
    the members' complex coefficients (``b`` may be a scalar).  The driver,
    its refinement and its acceptance are those of ``integrate_batch``; the
    starting panels are no longer than ``width``.  A family of several
    members costs one complex exponential per member and panel instead of
    one per member and node (see ``_evaluate_exp``).  A family of one
    evaluates each node's exponential directly, as
    ``integrate_batch`` would: it has nothing to share, and sending it
    through ``_evaluate_exp`` cost the scalar caret routes 2-19% of their
    throughput (``caret_sheet`` benchmark, 3 alternating pairs on a 2-core
    box: 814-917 against 935-1012 ops/s).  A non-finite w, expo or
    member factor raises ``QuadratureError`` ("nonfinite") naming a node.

    Returns ``(values (m,), errors (m,), evaluations)``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.reshape(np.asarray(b, dtype=complex), (-1, 1))
    if a.size == 1:
        def fmat(t):
            w, expo = factor(t)
            return w[None, :] * np.exp(a[:, None] * t + expo[None, :] + b)

        evaluate = functools.partial(_value_sums, lambda legs, nodes: [fmat(z) for z in nodes], 1)
    else:
        def evaluate(requests):
            return functools.partial(_in_blocks, factor, a, b), requests.values()
    return _drive([_adapt(path, opts, width)], evaluate)[0][:3]


def integrate_lockstep(fjoint, paths, opts: QuadOptions = QuadOptions(),
                       width: float = 2.0) -> list:
    """``integrate`` along each of ``paths`` from starting panels no longer
    than ``width``, the integrals stepped in lockstep: each round hands the
    new nodes of every unfinished integral to one call ``fjoint(legs, nodes)
    -> values`` (several, cut at panel ends, past ``CALL_ELEMENTS`` nodes),
    with ``legs`` the indices of those integrals in ``paths``, ``nodes``
    their node arrays (n_k,) and ``values`` one array (n_k,) per node array.
    Each integral keeps its own stepper, so when ``fjoint``'s value at a node
    does not depend on the other nodes of the call, each result is
    bit-identical to ``integrate`` of that integral's own integrand at the
    same ``width``, and so is the failure raised: that of the first integral
    in order that failed (see ``_drive``).

    Returns one ``QuadResult`` per path.
    """
    done = _drive([_adapt(path, opts, width) for path in paths],
                  functools.partial(_value_sums, fjoint, 1))
    return [_one(path, *done[k]) for k, path in enumerate(paths)]


# ``integrate_batch`` has no caller in the package and ``integrate_rounds`` is
# the former name of ``integrate``: bench/tracer.py wraps both by name and
# indexes their call counts, so they stay public until its driver list
# changes (ROADMAP item 5).
integrate_rounds = integrate
