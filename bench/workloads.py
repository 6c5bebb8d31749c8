"""The benchmark's workloads: seeded inputs, the operation each input drives,
and the independent check of each operation's output.

An operation (op) is one field point, one caret value or one outer-formula
call.  ``Op.run`` returns the op's outputs as a tuple of numbers (and route
names); ``Op.check`` takes that tuple and returns ``None`` when it passes, or
the reason it fails.  Checks run outside the timed region.

The library only sees the generated inputs: every point is drawn here from
``random.Random(seed)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from tangentray import fock, matching, pekeris
from tangentray.quadrature import QuadOptions, QuadratureError

# The field domain.  Beyond |x_hat| = 4 single points can run for over a
# minute (nothing caps the work per point yet), so the domain stops there.
X_RANGE = (-4.0, 4.0)
N_RANGE = (0.25, 5.0)
FIELD_KINDS = (pekeris.DIRICHLET, pekeris.NEUMANN, pekeris.robin(1 + 1j))

# field_caret: a 5 x 2 node grid per boundary kind, each interior node moved by
# at most GRID_JITTER of the grid spacing, so every seed has the same cost
# profile
GRID_X = 5
GRID_N = 2
GRID_JITTER = 0.005

# oracle_mix: a pass of ORACLE_PASS points; every MATCHING_EVERY-th op is an
# outer-formula call
ORACLE_PASS = 25
MATCHING_EVERY = 5
K_OUTER = 1e4                      # wavenumber of the outer formulas

# caret_sheet: a pass of CARET_PASS values of t in the disc |t| <= CARET_RADIUS,
# every POLE_EVERY-th one inside the pole-split radius; a fresh Robin mu_hat
# from the first-quadrant disc |mu_hat| <= MU_RADIUS every MU_EVERY Robin ops.  Beyond these radii the
# representations disagree by more than their error estimates, and in the
# fourth quadrant the impedance-root homotopy fails (see bench/README.md).
CARET_PASS = 600
CARET_RADIUS = 3.5
POLE_EVERY = 20
MU_EVERY = 80
MU_RADIUS = 2.0

# Error estimates leave out the Airy evaluator's own relative accuracy
# (about 1e-11, as the package documents), so a check allows that much more.
AIRY_REL_ACCURACY = 1e-11


class Unverified(Exception):
    """Raised by a check when no independent representation can be evaluated
    for the op's input: the op is reported, but not counted as failed."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], tuple]
    check: Callable[[tuple], "str | None"]


@dataclass(frozen=True)
class Workload:
    """``ops(rng)`` draws the workload's pass: a fixed op list that a run
    repeats, so every pass does the same work."""
    name: str
    ops: Callable[[random.Random], list]

    def pass_ops(self, seed: int) -> list:
        return self.ops(random.Random(seed))


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _agree(name: str, value: complex, err: float,
           ref_name: str, ref: complex, ref_err: float) -> "str | None":
    """None when |value - ref| is within the summed error estimates (plus
    the Airy evaluator's relative accuracy)."""
    if not _finite(value.real, value.imag, err, ref.real, ref.imag, ref_err):
        return f"non-finite {name} or {ref_name}"
    gap = abs(value - ref)
    allowed = err + ref_err + AIRY_REL_ACCURACY * (abs(value) + abs(ref))
    if gap > allowed:
        return (f"|{name} - {ref_name}| = {gap:.3e} exceeds the summed "
                f"error estimates {allowed:.3e}")
    return None


def _field_out(v: fock.FieldValue) -> tuple:
    return (v.amplitude.real, v.amplitude.imag, v.error_estimate)


def _point(x_hat: float, n_hat: float) -> fock.FockPoint:
    return fock.FockPoint(x_hat, n_hat - x_hat * x_hat / 4.0)


def _disc(radius: float, arg_lo: float, arg_hi: float, u: float, v: float) -> complex:
    """The point of the sector of the disc that (u, v) in the unit square
    maps to, area-uniformly."""
    r = radius * math.sqrt(u)
    a = arg_lo + (arg_hi - arg_lo) * v
    return complex(r * math.cos(a), r * math.sin(a))


def _stratified(rng: random.Random, n: int) -> list:
    """n points (u, v) of the unit square, each in its own cell of a grid of
    at least n cells, in a seeded order: every seed spreads its points alike,
    so passes drawn from different seeds do nearly the same work."""
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    rng.shuffle(cells)
    return [((i + rng.random()) / rows, (j + rng.random()) / cols) for i, j in cells[:n]]


# ---------------------------------------------------------------------------
# field_caret: scattered_new on one jittered grid per boundary kind
# ---------------------------------------------------------------------------

def _scattered_new_op(pt: fock.FockPoint, bc: pekeris.BoundaryKind) -> Op:
    cfg = fock.ProblemConfig(bc)

    def run():
        return _field_out(fock.scattered_new(pt, cfg))

    def check(out):
        ref = fock.scattered_forked(pt, cfg)
        return _agree("scattered_new", complex(out[0], out[1]), out[2],
                      "scattered_forked", ref.amplitude, ref.error_estimate)

    return Op(f"scattered_new {bc.label()} x_hat={pt.x_hat!r} y_hat={pt.y_hat!r}",
              run, check)


def _jittered(lo: float, hi: float, count: int, rng: random.Random) -> list:
    """count nodes spanning [lo, hi]; the interior ones moved by up to
    GRID_JITTER of the spacing.  The end nodes stay on the domain's edge,
    where the most expensive points are."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step + (GRID_JITTER * step * rng.uniform(-1, 1) if 0 < i < count - 1 else 0.0)
            for i in range(count)]


def _field_caret_ops(rng: random.Random) -> list:
    grid = []
    for bc in FIELD_KINDS:
        xs = _jittered(*X_RANGE, GRID_X, rng)
        ns = _jittered(*N_RANGE, GRID_N, rng)
        grid.extend(_scattered_new_op(_point(x, n), bc) for x in xs for n in ns)
    return grid


# ---------------------------------------------------------------------------
# oracle_mix: forked and gamma representations, plus outer formulas
# ---------------------------------------------------------------------------

def _field_pair_op(pt: fock.FockPoint, bc: pekeris.BoundaryKind) -> Op:
    cfg = fock.ProblemConfig(bc)

    def run():
        return (_field_out(fock.scattered_forked(pt, cfg))
                + _field_out(fock.total_gamma(pt, cfg)))

    def check(out):
        return _agree("scattered_forked", complex(out[0], out[1]), out[2],
                      "total_gamma - 1", complex(out[3] - 1.0, out[4]), out[5])

    return Op(f"forked+gamma {bc.label()} x_hat={pt.x_hat!r} y_hat={pt.y_hat!r}",
              run, check)


def _finite_op(label: str, call: Callable[[], complex]) -> Op:
    """An outer formula: no independent representation, so only finiteness
    is checked."""

    def run():
        v = complex(call())
        return (v.real, v.imag)

    def check(out):
        return None if _finite(*out) else "non-finite value"

    return Op(label, run, check)


def _matching_op(rng: random.Random, formula: int) -> Op:
    bc = FIELD_KINDS[rng.randrange(len(FIELD_KINDS))]
    n_hat = rng.uniform(*N_RANGE)
    s = K_OUTER ** (1.0 / 3.0)
    if formula == 0:
        # penumbra transition region: x > 0
        x_hat = rng.uniform(1.0, X_RANGE[1])
        pt = matching.PenumbraPoint(x_hat / s, (n_hat - x_hat ** 2 / 4.0) / s, K_OUTER)
        return _finite_op(f"penumbra_field {bc.label()} x={pt.x!r} y_tilde={pt.y_tilde!r}",
                          lambda: matching.penumbra_field(pt, bc, "uniform"))
    if formula == 1:
        t, sigma = rng.uniform(0.5, 2.0), rng.uniform(25.0, 50.0)
        return _finite_op(f"i_sigma_remainder t={t!r} Sigma={sigma!r}",
                          lambda: matching.i_sigma_remainder(t, sigma))
    # illuminated region: x_hat < 0 keeps the saddle left of the shadow boundary
    x_hat = rng.uniform(X_RANGE[0], -0.5)
    pt = matching.OuterPoint(x_hat / s, (n_hat - x_hat ** 2 / 4.0) / s ** 2, K_OUTER)
    return _finite_op(f"reflected_outer {bc.label()} x={pt.x!r} y={pt.y!r}",
                      lambda: matching.reflected_outer(pt, bc))


def _oracle_mix_ops(rng: random.Random) -> list:
    n_matching = ORACLE_PASS // MATCHING_EVERY
    points = iter(_stratified(rng, ORACLE_PASS - n_matching))
    ops = []
    for i in range(ORACLE_PASS):
        if i % MATCHING_EVERY == MATCHING_EVERY - 1:
            ops.append(_matching_op(rng, (i // MATCHING_EVERY) % 3))
        else:
            u, v = next(points)
            x_hat = X_RANGE[0] + u * (X_RANGE[1] - X_RANGE[0])
            n_hat = N_RANGE[0] + v * (N_RANGE[1] - N_RANGE[0])
            ops.append(_field_pair_op(_point(x_hat, n_hat), FIELD_KINDS[i % 3]))
    return ops


# ---------------------------------------------------------------------------
# caret_sheet: scalar pekeris_caret over the disc |t| <= CARET_RADIUS
# ---------------------------------------------------------------------------

_CHECK_OPTS = QuadOptions()


def _residue_sector(t: complex) -> bool:
    th = math.atan2(t.imag, t.real)
    return -math.pi / 3 + pekeris.SECTOR_GUARD < th < 2 * math.pi / 3 - pekeris.SECTOR_GUARD


def _residue(t, bc):
    if not _residue_sector(t):
        return None
    vals, errs, ok = pekeris.caret_residue_series(t, bc, rel_tol=1e-12, max_terms=300)
    return (complex(vals[0]), float(errs[0])) if ok[0] else None


def _reciprocal(t, bc):
    return pekeris._caret_reciprocal(t, bc, _CHECK_OPTS)


def _forked(t, bc):
    if abs(t) < pekeris.POLE_SPLIT_RADIUS:
        return None
    beta2, beta3, _ = pekeris._forked_angles(t)
    return pekeris._caret_forked(t, bc, _CHECK_OPTS, beta2, beta3)


# the caret representations that acceptance criterion 2 compares, in the
# order a check tries them.  The forked form is no oracle for Robin in the
# lower half plane: there its rotated arms give values wrong by O(1).
_REPRESENTATIONS = (("residue_series", _residue),
                    ("reciprocal_airy_contour", _reciprocal),
                    ("forked_contour", _forked))


def _caret_op(t: complex, bc: pekeris.BoundaryKind) -> Op:
    def run():
        ev = pekeris.pekeris_caret(t, bc)
        return (ev.value.real, ev.value.imag, ev.error_estimate, ev.representation_used)

    def check(out):
        """Against the first other representation that evaluates; a value
        that none can evaluate raises Unverified."""
        value, err, route = complex(out[0], out[1]), out[2], out[3]
        if not _finite(value.real, value.imag, err):
            return "non-finite caret value"
        tried = []
        for name, representation in _REPRESENTATIONS:
            if name == route or (name == "forked_contour" and bc.kind == "robin"
                                 and t.imag < 0):
                continue
            try:
                second = representation(t, bc)
            except QuadratureError as exc:
                tried.append(f"{name}: {exc}")
                continue
            if second is not None:
                return _agree(route, value, err, name, *second)
        raise Unverified("no second representation evaluates here"
                         + "".join(f"; {m}" for m in tried))

    return Op(f"pekeris_caret {bc.label()} t={t!r}", run, check)


def _caret_sheet_ops(rng: random.Random) -> list:
    points = iter(_stratified(rng, CARET_PASS - CARET_PASS // POLE_EVERY))
    ops = []
    robin_ops = 0
    mu = None
    for i in range(CARET_PASS):
        if i % 3 == 2:
            if robin_ops % MU_EVERY == 0:
                # a fresh impedance pays the root homotopy on first use
                mu = _disc(MU_RADIUS, 0.0, math.pi / 2, rng.random(), rng.random())
            robin_ops += 1
            bc = pekeris.robin(mu)
        else:
            bc = (pekeris.DIRICHLET, pekeris.NEUMANN)[i % 3]
        if i % POLE_EVERY == 0:
            radius = rng.uniform(0.1, 1.0) * pekeris.POLE_SPLIT_RADIUS
            a = rng.uniform(-math.pi, math.pi)
            t = complex(radius * math.cos(a), radius * math.sin(a))
        else:
            t = _disc(CARET_RADIUS, -math.pi, math.pi, *next(points))
        ops.append(_caret_op(t, bc))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("field_caret", _field_caret_ops),
        Workload("oracle_mix", _oracle_mix_ops),
        Workload("caret_sheet", _caret_sheet_ops),
    )
}
