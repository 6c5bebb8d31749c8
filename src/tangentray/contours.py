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
* ``Gamma1_left`` / ``Gamma1_right``: the three-piece (ray, arc, ray)
  realisation of ``Gamma1`` passing left/right of the origin.

All multivalued powers use principal branches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def first_point(self) -> complex:
        return self.start

    @property
    def last_point(self) -> complex:
        return self.end

    def reversed(self) -> "Line":
        return Line(self.end, self.start)


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

    @property
    def first_point(self) -> complex:
        if self.inward:
            raise ContourError("inward ray has no finite first point")
        return self.origin

    @property
    def last_point(self) -> complex:
        if not self.inward:
            raise ContourError("outward ray has no finite last point")
        return self.origin

    def point_at(self, radius: float) -> complex:
        return self.origin + radius * complex(math.cos(self.angle), math.sin(self.angle))

    def reversed(self) -> "Ray":
        return Ray(self.origin, self.angle, not self.inward)


@dataclass(frozen=True)
class Arc:
    """Circular arc swept from ``angle_from`` to ``angle_to`` about ``center``.

    The sweep is linear in angle; ``angle_to < angle_from`` gives clockwise
    orientation.  Angles are not normalised so that sweeps through the cut
    are unambiguous.
    """

    center: complex
    radius: float
    angle_from: float
    angle_to: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ContourError("arc radius must be positive")
        if self.angle_from == self.angle_to:
            raise ContourError("arc with zero sweep")

    @property
    def orientation(self) -> int:
        return 1 if self.angle_to > self.angle_from else -1

    def point_at(self, angle: float) -> complex:
        return self.center + self.radius * complex(math.cos(angle), math.sin(angle))

    @property
    def first_point(self) -> complex:
        return self.point_at(self.angle_from)

    @property
    def last_point(self) -> complex:
        return self.point_at(self.angle_to)

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.angle_to, self.angle_from)


Segment = Line | Ray | Arc

_CONNECT_TOL = 1e-12


@dataclass(frozen=True)
class ContourPath:
    """Ordered, connected chain of segments, possibly with ray ends."""

    segments: tuple[Segment, ...]
    name: str | None = None
    truncation_radius: float = 0.0

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
            pa = a.last_point if not isinstance(a, Ray) else a.origin
            pb = b.first_point if not isinstance(b, Ray) else b.origin
            scale = max(1.0, abs(pa), abs(pb))
            if abs(pa - pb) > _CONNECT_TOL * scale:
                raise ContourError(
                    f"segments do not connect: {pa} -> {pb} in contour {self.name!r}"
                )

    @property
    def is_finite(self) -> bool:
        return not any(isinstance(s, Ray) for s in self.segments)

    def reversed(self) -> "ContourPath":
        segs = tuple(s.reversed() for s in reversed(self.segments))
        return ContourPath(segs, name=None if self.name is None else self.name + "_rev",
                           truncation_radius=self.truncation_radius)

    def to_json(self) -> str:
        """Debug dump: list of segments with kind, endpoints and angles."""
        out = []
        for s in self.segments:
            if isinstance(s, Line):
                out.append({"kind": "line",
                            "start": [s.start.real, s.start.imag],
                            "end": [s.end.real, s.end.imag]})
            elif isinstance(s, Ray):
                out.append({"kind": "ray",
                            "origin": [s.origin.real, s.origin.imag],
                            "angle": s.angle, "inward": s.inward})
            else:
                out.append({"kind": "arc",
                            "center": [s.center.real, s.center.imag],
                            "radius": s.radius,
                            "angle_from": s.angle_from, "angle_to": s.angle_to,
                            "orientation": s.orientation})
        return json.dumps({"name": self.name, "segments": out})


# ---------------------------------------------------------------------------
# Decay models and truncation
# ---------------------------------------------------------------------------

_DECAY_KINDS = ("cubic_exp", "power_three_halves")


@dataclass(frozen=True)
class DecayModel:
    """Tail bound ``|f| <= scale * exp(-c * r**p)`` along a ray, ``r >= min_radius``.

    ``kind`` selects the power p: ``cubic_exp`` (p=3) or ``power_three_halves``
    (p=3/2).  ``min_radius`` is the radius beyond which the stated bound is
    valid; callers fold linear growth factors of the integrand into (c,
    scale, min_radius).
    """

    kind: str
    c: float
    scale: float = 1.0
    min_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _DECAY_KINDS:
            raise ContourError(f"unknown decay kind {self.kind!r}")
        if self.c <= 0.0 or self.scale <= 0.0:
            raise ContourError("decay model requires c > 0 and scale > 0")

    @property
    def power(self) -> float:
        return {"cubic_exp": 3.0, "power_three_halves": 1.5}[self.kind]

    def tail_bound(self, r: float) -> float:
        """Closed-form overestimate of ``scale * int_r^inf exp(-c w**p) dw``.

        For p >= 1 and r > 0,  int_r^inf e^{-c w^p} dw <= e^{-c r^p}/(c p r^{p-1}).
        """
        p, c = self.power, self.c
        if r <= 0.0:
            return math.inf
        expo = -c * r**p
        if expo < -700.0:
            return 0.0
        return self.scale * math.exp(expo) / (c * p * r ** (p - 1.0))

    def radius_for(self, tail_tol: float) -> float:
        """Smallest convenient radius with ``tail_bound(radius) <= tail_tol``."""
        if tail_tol <= 0.0:
            raise ContourError("tail_tol must be positive")
        r = max(self.min_radius, 1.0)
        if self.tail_bound(r) <= tail_tol:
            return r
        hi = r
        for _ in range(200):
            hi *= 2.0
            if self.tail_bound(hi) <= tail_tol:
                break
        else:
            raise ContourError("decay model does not reach the requested tail tolerance")
        lo = hi / 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.tail_bound(mid) <= tail_tol:
                hi = mid
            else:
                lo = mid
        return hi


def truncate(path: ContourPath, decay: DecayModel, tail_tol: float) -> ContourPath:
    """Replace the ray ends of ``path`` by finite lines out to a radius R with
    analytic tail bound <= tail_tol.  R is recorded on the returned path."""
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
    return ContourPath(tuple(segs), name=path.name, truncation_radius=radius)


# ---------------------------------------------------------------------------
# Named contours
# ---------------------------------------------------------------------------

_NAMES = ("l1", "l2", "l3", "gamma", "L", "Gamma0", "Gamma1", "Gamma2",
          "Gamma1_left", "Gamma1_right")


def _gamma_j_angles(j: int) -> tuple[float, float]:
    return ((4 * j + 5) * math.pi / 6.0, (4 * j + 1) * math.pi / 6.0)


def named_contour(name: str, clearance: float = 0.5) -> ContourPath:
    """Build one of the standard contours.

    ``clearance`` sets the distance by which ``gamma``/``L`` avoid the pole
    line and the arc radius of ``Gamma1_left``/``Gamma1_right``.
    """
    if clearance <= 0.0:
        raise ContourError("clearance must be positive")
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
    if name in ("Gamma1_left", "Gamma1_right"):
        T = clearance
        down = complex(0.0, -T)
        if name == "Gamma1_left":
            # clockwise around |t| = T through the negative real axis
            arc = Arc(0.0, T, -math.pi / 2.0, -7.0 * math.pi / 6.0)
        else:
            arc = Arc(0.0, T, -math.pi / 2.0, 5.0 * math.pi / 6.0)
        top = arc.last_point
        return ContourPath((Ray(down, -math.pi / 2.0, inward=True),
                            arc,
                            Ray(top, 5.0 * math.pi / 6.0, inward=False)), name=name)
    raise ContourError(f"unknown contour name {name!r}; valid: {_NAMES}")


def path_point_distance(path: ContourPath, z: complex, probe_radius: float = 50.0) -> float:
    """Distance from ``z`` to the (possibly truncated) path; rays are probed
    out to ``probe_radius``.  Used for pole-clearance checks."""
    d = math.inf
    for s in path.segments:
        if isinstance(s, Line):
            a, b = s.start, s.end
        elif isinstance(s, Ray):
            a, b = s.origin, s.point_at(probe_radius)
        else:
            ang = np.linspace(s.angle_from, s.angle_to, 64)
            pts = s.center + s.radius * np.exp(1j * ang)
            d = min(d, float(np.min(np.abs(pts - z))))
            continue
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0.0:
            d = min(d, abs(z - a))
            continue
        u = ((z - a) * ab.conjugate()).real / denom
        u = min(1.0, max(0.0, u))
        d = min(d, abs(z - (a + u * ab)))
    return d
