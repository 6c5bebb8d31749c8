"""Complex integration contours and truncation of their infinite ends.

The named contours realised here are the standard paths for tangent-ray
diffraction integrals:

* ``l1``, ``l2``, ``l3``: the forked-contour arms, running from
  ``exp(-2i*pi/3)*inf`` to 0, from ``exp(2i*pi/3)*inf`` to 0 and from 0 to
  ``+inf`` respectively.
* ``gamma``: from ``exp(2i*pi/3)*inf`` to ``+inf``, passing below the pole
  line ``arg(sigma) = pi/3``.
* ``L``: from ``exp(-2i*pi/3)*inf`` to ``exp(2i*pi/3)*inf``, passing to the
  right of the negative real axis (where the reciprocal-Airy poles sit).
* ``Gamma0``, ``Gamma1``, ``Gamma2``: the rotated Airy contours, running
  between the directions ``(4j+5)*pi/6`` and ``(4j+1)*pi/6``.

A path is a connected chain of segments: finite ``Line``s, with an inward
``Ray`` allowed first and an outward ``Ray`` last.  ``truncate`` replaces the
rays by lines, so every path the quadrature sees is a polyline, and records
the tail it cut off, which the quadrature adds to every error it reports.

All multivalued powers use principal branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI_3 = 2.0 * math.pi / 3.0


class ContourError(ValueError):
    """Raised for malformed contours or truncation requests."""


def _normalize_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Line:
    """Finite straight segment from ``start`` to ``end``."""

    start: complex
    end: complex


@dataclass(frozen=True)
class Ray:
    """Ray from ``origin`` to infinity at ``angle``.

    ``inward=True`` means the ray is traversed from infinity towards its
    origin (allowed only as the first segment of a path); ``inward=False``
    means origin outwards (allowed only as the last segment).
    """

    origin: complex
    angle: float
    inward: bool = False

    def __post_init__(self):
        object.__setattr__(self, "angle", _normalize_angle(self.angle))

    def point_at(self, radius: float) -> complex:
        return self.origin + radius * complex(math.cos(self.angle), math.sin(self.angle))


Segment = Line | Ray

_CONNECT_TOL = 1e-12
_PROBE_RADIUS = 50.0    # how far ``path_point_distance`` follows a ray


@dataclass(frozen=True)
class ContourPath:
    """Ordered, connected chain of segments, possibly with ray ends; a cut
    path carries its cut radius and tail (``truncate``), or its tail alone."""

    segments: tuple[Segment, ...]
    name: str | None = None
    truncation_radius: float = 0.0
    truncation_tail: float = 0.0

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ContourError("empty contour")
        for i, s in enumerate(segs):
            if isinstance(s, Ray):
                if s.inward and i != 0:
                    raise ContourError("inward ray must be the first segment")
                if not s.inward and i != len(segs) - 1:
                    raise ContourError("outward ray must be the last segment")
        for a, b in zip(segs[:-1], segs[1:]):
            pa = a.origin if isinstance(a, Ray) else a.end
            pb = b.origin if isinstance(b, Ray) else b.start
            scale = max(1.0, abs(pa), abs(pb))
            if abs(pa - pb) > _CONNECT_TOL * scale:
                raise ContourError(
                    f"segments do not connect: {pa} -> {pb} in contour {self.name!r}"
                )

    @property
    def is_finite(self) -> bool:
        return not any(isinstance(s, Ray) for s in self.segments)


# ---------------------------------------------------------------------------
# Decay models and truncation
# ---------------------------------------------------------------------------

_DECAY_KINDS = ("cubic_exp", "power_three_halves")


@dataclass(frozen=True)
class DecayModel:
    """Tail bound ``|f| <= scale exp(rate r - c r^p)`` along a ray, ``r >= min_radius``.

    ``kind`` selects the power p: ``cubic_exp`` (p=3) or ``power_three_halves``
    (p=3/2).  ``rate`` is a linear growth rate of the integrand (0 for none);
    ``min_radius`` is the radius beyond which the stated bound is valid.
    """

    kind: str
    c: float
    scale: float = 1.0
    min_radius: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _DECAY_KINDS:
            raise ContourError(f"unknown decay kind {self.kind!r}")
        if not all(map(math.isfinite, (self.c, self.scale, self.min_radius, self.rate))):
            raise ContourError("decay model requires finite c, scale, min_radius and rate")
        if self.c <= 0.0 or self.scale <= 0.0:
            raise ContourError("decay model requires c > 0 and scale > 0")

    @property
    def power(self) -> float:
        return {"cubic_exp": 3.0, "power_three_halves": 1.5}[self.kind]

    def tail_bound(self, r: float) -> float:
        """Closed-form overestimate of ``scale int_r^inf e^{g(w)} dw``, g(w) = rate w - c w^p.

        g is concave (p > 1), so past its peak the integral is at most
        e^{g(r)}/(-g'(r)) = e^{g(r)}/(c p r^{p-1} - rate); before it, inf.
        """
        p, c = self.power, self.c
        slope = c * p * r ** (p - 1.0) - self.rate if r > 0.0 else 0.0
        if slope <= 0.0:
            return math.inf
        expo = self.rate * r - c * r**p
        if expo < -700.0:
            return 0.0
        return self.scale * math.exp(min(expo, 700.0)) / slope

    def radius_for(self, tail_tol: float) -> float:
        """The first rung 2^(k/4) (k >= 0 an integer) at or beyond
        ``min_radius`` with ``tail_bound(radius) <= tail_tol``: every
        truncated ray ends on this one ladder, so nearby models give the
        same path.

        The test "rung k meets both" is false up to some k and true from
        there on: the bound is inf before the peak of the concave exponent
        and falls past it, to 0 as r grows.  So the radius is doubled (4
        rungs a step) from the first candidate until a rung meets both, and
        the last step is bisected: 7-8 bounds a search on the rays of the
        benchmark's field and sigma-plane integrals, where a walk one rung
        at a time took 14-19."""
        if not (math.isfinite(tail_tol) and tail_tol > 0.0):
            raise ContourError("tail_tol must be finite and positive")

        def meets(k: int) -> bool:
            r = 2.0 ** (k / 4.0)
            return r >= self.min_radius and self.tail_bound(r) <= tail_tol

        lo = math.ceil(4.0 * math.log2(max(self.min_radius, 1.0)))
        if meets(lo):
            return 2.0 ** (lo / 4.0)
        while not meets(lo + 4):        # lo fails throughout
            lo += 4
        hi = lo + 4                     # hi meets throughout
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if meets(mid) else (mid, hi)
        return 2.0 ** (hi / 4.0)


def truncate(path: ContourPath, decay: DecayModel, tail_tol: float) -> ContourPath:
    """Replace the ray ends of ``path`` by finite lines out to the radius
    R = ``decay.radius_for(tail_tol)``.  The returned path records R and one
    ``tail_tol`` per ray cut, the bound on the integral it leaves out."""
    if path.is_finite:
        return path
    radius = decay.radius_for(tail_tol)
    segs: list[Segment] = []
    for s in path.segments:
        if isinstance(s, Ray):
            far = s.point_at(radius)
            segs.append(Line(far, s.origin) if s.inward else Line(s.origin, far))
        else:
            segs.append(s)
    tail = sum(isinstance(s, Ray) for s in path.segments) * tail_tol
    return ContourPath(tuple(segs), path.name, truncation_radius=radius, truncation_tail=tail)


# ---------------------------------------------------------------------------
# Named contours
# ---------------------------------------------------------------------------

_NAMES = ("l1", "l2", "l3", "gamma", "L", "Gamma0", "Gamma1", "Gamma2")


def _gamma_j_angles(j: int) -> tuple[float, float]:
    return ((4 * j + 5) * math.pi / 6.0, (4 * j + 1) * math.pi / 6.0)


def named_contour(name: str, clearance: float = 0.5) -> ContourPath:
    """Build one of the standard contours.

    ``clearance`` is the vertex of ``L`` on the positive real axis, its
    clearance from the reciprocal-Airy poles on the negative reals; the
    other contours do not depend on it.
    """
    if not (math.isfinite(clearance) and clearance > 0.0):
        raise ContourError(f"clearance must be finite and positive, got {clearance}")
    if name == "l1":
        return ContourPath((Ray(0.0, -TWO_PI_3, inward=True),), name=name)
    if name == "l2":
        return ContourPath((Ray(0.0, TWO_PI_3, inward=True),), name=name)
    if name == "l3":
        return ContourPath((Ray(0.0, 0.0, inward=False),), name=name)
    if name == "gamma":
        # In from exp(2i*pi/3)*inf to 0, out along the positive reals: crosses
        # the line arg = pi/3 at the origin, well below the first pole at
        # radius |eta_0| ~ 2.338.
        return ContourPath((Ray(0.0, TWO_PI_3, inward=True),
                            Ray(0.0, 0.0, inward=False)), name=name)
    if name == "L":
        v = complex(clearance, 0.0)
        return ContourPath((Ray(v, -TWO_PI_3, inward=True),
                            Ray(v, TWO_PI_3, inward=False)), name=name)
    if name in ("Gamma0", "Gamma1", "Gamma2"):
        j = int(name[-1])
        a_in, a_out = _gamma_j_angles(j)
        return ContourPath((Ray(0.0, a_in, inward=True),
                            Ray(0.0, a_out, inward=False)), name=name)
    raise ContourError(f"unknown contour name {name!r}; valid: {_NAMES}")


def path_point_distance(path: ContourPath, z: complex) -> float:
    """Distance from ``z`` to the (possibly truncated) path; rays are probed
    out to ``_PROBE_RADIUS``.  Used for pole-clearance checks."""
    d = math.inf
    for s in path.segments:
        if isinstance(s, Line):
            a, b = s.start, s.end
        else:
            a, b = s.origin, s.point_at(_PROBE_RADIUS)
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0.0:
            d = min(d, abs(z - a))
            continue
        u = ((z - a) * ab.conjugate()).real / denom
        u = min(1.0, max(0.0, u))
        d = min(d, abs(z - (a + u * ab)))
    return d
