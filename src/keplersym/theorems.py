"""Curve duality, osculating orbits, vertices, the minor-axis chord
identity, envelopes of concurrent families, and curved-space laws.

Point-line duality a x + b y = 1 sends a Kepler orbit to a circle of
radius c centered at (a, b); it preserves order of contact, so the
osculating orbit of a curve dualizes to the osculating circle of the
dual curve, and curvature extrema of the dual mark the points where the
osculating orbit is hyperosculating.  Envelope claims are checked by an
independent tangency oracle: the envelope's defining residual along a
family member must have a root of even multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .minkowski import MinkVec, norm2
from .orbit import (
    ConicClass,
    KeplerOrbit,
    PlanePoint,
    arc_half_width,
    conic_residual,
    from_abc,
    geometry,
    sample_thetas,
)


class TheoremError(Exception):
    pass


class DegenerateCurveError(TheoremError):
    """Every point is critical: the curve is itself a Kepler orbit."""


class UncertifiedRegimeError(TheoremError):
    """Nestedness is only certified for ellipse pairs."""


ARC_MARGIN = 1e-3  # orbit_curve keeps to the arc rho > ARC_MARGIN
VERTEX_GRID = 2048  # kepler_vertices scans this grid before bisecting
NESTED_GRID = 4096  # nested reads the sign of the gap at this many angles
TANGENCY_SAMPLES = 4001  # tangency_report locates the contact on this many samples


# --------------------------------------------------------------------------
# Parametric curves
# --------------------------------------------------------------------------

_FD_H = 1e-5


@dataclass(frozen=True)
class ParametricCurve:
    """Plane curve t -> (x, y) with its first derivative `d1`.

    `d2` is optional; a central difference of `d1` stands in when it is
    missing.  `closed` marks a periodic parametrization over `domain`.
    Kernels take a float or a 1-D array and give an array the bits of their
    float calls, except `dual_curve`'s point map, which takes floats.
    """

    fn: Callable[[float], tuple[float, float]]
    domain: tuple[float, float]
    d1: Callable[[float], tuple[float, float]]
    d2: Callable[[float], tuple[float, float]] | None = None
    closed: bool = False

    def point(self, t: float) -> tuple[float, float]:
        return self.fn(t)

    def deriv2(self, t: float) -> tuple[float, float]:
        if self.d2 is not None:
            return self.d2(t)
        (x1, y1) = self.d1(t + _FD_H)
        (x0, y0) = self.d1(t - _FD_H)
        return ((x1 - x0) / (2 * _FD_H), (y1 - y0) / (2 * _FD_H))


def _cos_sin(t):
    """(cos t, sin t) of a float, or of each element of a 1-D array."""
    m = np if isinstance(t, np.ndarray) else math
    return m.cos(t), m.sin(t)


def _affine_circle(c: tuple[float, float], u: tuple[float, float],
                   v: tuple[float, float]) -> ParametricCurve:
    """Closed curve t -> c + u cos t + v sin t, an affine image of the unit circle."""
    (cx, cy), (ux, uy), (vx, vy) = c, u, v

    def fn(t):
        ct, st = _cos_sin(t)
        return (cx + ux * ct + vx * st, cy + uy * ct + vy * st)

    def d1(t):
        ct, st = _cos_sin(t)
        return (vx * ct - ux * st, vy * ct - uy * st)

    def d2(t):
        ct, st = _cos_sin(t)
        return (-(ux * ct + vx * st), -(uy * ct + vy * st))

    return ParametricCurve(fn=fn, d1=d1, d2=d2, domain=(0.0, 2.0 * math.pi), closed=True)


def circle_curve(cx: float, cy: float, radius: float) -> ParametricCurve:
    return _affine_circle((cx, cy), (radius, 0.0), (0.0, radius))


def ellipse_curve(ax: float, ay: float) -> ParametricCurve:
    """Origin-centered axis-aligned ellipse with semi-axes (ax, ay)."""
    return _affine_circle((0.0, 0.0), (ax, 0.0), (0.0, ay))


def polar_graph_curve(
    r_fn: Callable[[float], float],
    dr_fn: Callable[[float], float],
    d2r_fn: Callable[[float], float],
) -> ParametricCurve:
    """Closed curve r(t) (cos t, sin t), star-shaped when r > 0; r_fn, dr_fn
    and d2r_fn take a float or a 1-D array."""

    def fn(t):
        r, (c, s) = r_fn(t), _cos_sin(t)
        return (r * c, r * s)

    def d1(t):
        r, dr = r_fn(t), dr_fn(t)
        c, s = _cos_sin(t)
        return (dr * c - r * s, dr * s + r * c)

    def d2(t):
        r, dr, d2r = r_fn(t), dr_fn(t), d2r_fn(t)
        c, s = _cos_sin(t)
        return (d2r * c - 2 * dr * s - r * c, d2r * s + 2 * dr * c - r * s)

    return ParametricCurve(fn=fn, d1=d1, d2=d2, domain=(0.0, 2.0 * math.pi), closed=True)


def orbit_curve(o: KeplerOrbit) -> ParametricCurve:
    """Attractive branch as a parametric curve over its arc rho > ARC_MARGIN."""

    def jet(t):  # orbit.rho and its two derivatives, on a float or an array
        c, s = _cos_sin(t)
        return o.a * c + o.b * s + o.c, -o.a * s + o.b * c, -o.a * c - o.b * s

    def dr(t):
        p, dp, _ = jet(t)
        return -dp / (p * p)

    def d2r(t):
        p, dp, d2p = jet(t)
        return (2.0 * dp * dp - p * d2p) / (p * p * p)

    curve = polar_graph_curve(lambda t: 1.0 / jet(t)[0], dr, d2r)
    t0 = o.pericenter_angle
    w = arc_half_width(o, "attractive", ARC_MARGIN)
    if w is None:
        return replace(curve, domain=(t0, t0 + 2.0 * math.pi))
    return replace(curve, domain=(t0 - w + 1e-9, t0 + w - 1e-9), closed=False)


# --------------------------------------------------------------------------
# Duality
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float


def dual_of_orbit(o: KeplerOrbit) -> Circle:
    """Tangent lines of a Kepler orbit trace the circle of radius c
    centered at (a, b) in the dual plane."""
    return Circle(o.a, o.b, o.c)


def dual_point_of_tangent(curve: ParametricCurve, t: float) -> tuple[float, float]:
    x, y = curve.point(t)
    dx, dy = curve.d1(t)
    w = x * dy - y * dx
    if isinstance(w, np.ndarray):
        raise TheoremError("the dual point of a tangent takes one parameter value, not an array")
    if abs(w) <= 1e-14 * (1.0 + abs(x * dy) + abs(y * dx)):
        raise TheoremError(f"tangent line passes through the origin at t={t}")
    return (dy / w, -dx / w)


def dual_curve(curve: ParametricCurve) -> ParametricCurve:
    """Point-line dual of a curve under a x + b y = 1."""

    def fn(t):
        return dual_point_of_tangent(curve, t)

    def d1(t):
        x, y = curve.point(t)
        dx, dy = curve.d1(t)
        ddx, ddy = curve.deriv2(t)
        w = x * dy - y * dx
        dw = x * ddy - y * ddx
        return (
            (ddy * w - dy * dw) / (w * w),
            (-ddx * w + dx * dw) / (w * w),
        )

    return ParametricCurve(fn=fn, d1=d1, domain=curve.domain, closed=curve.closed)


# --------------------------------------------------------------------------
# Osculating orbits and Kepler vertices
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet2Polar:
    theta: float
    rho: float
    rho1: float
    rho2: float

    def __post_init__(self):
        if self.rho <= 0.0:
            raise TheoremError("polar jet requires rho > 0")


def polar_jet(curve: ParametricCurve, t: float) -> Jet2Polar:
    """Polar 2-jet (theta, rho, rho', rho'') of a curve at parameter t."""
    x, y = curve.point(t)
    dx, dy = curve.d1(t)
    ddx, ddy = curve.deriv2(t)
    r2 = x * x + y * y
    r = math.sqrt(r2)
    theta_dot = (x * dy - y * dx) / r2
    if abs(theta_dot) <= 1e-14:
        raise TheoremError("curve is not star-shaped at this point")
    r_dot = (x * dx + y * dy) / r
    r_ddot = (dx * dx + dy * dy + x * ddx + y * ddy - r_dot * r_dot) / r
    theta_ddot = (x * ddy - y * ddx) / r2 - 2.0 * r_dot * theta_dot / r
    rho = 1.0 / r
    rho_dot = -r_dot / r2
    rho_ddot = (2.0 * r_dot * r_dot - r * r_ddot) / (r2 * r)
    rho1 = rho_dot / theta_dot
    rho2 = (rho_ddot * theta_dot - rho_dot * theta_ddot) / (theta_dot ** 3)
    return Jet2Polar(math.atan2(y, x), rho, rho1, rho2)


def osculating_orbit(j: Jet2Polar) -> KeplerOrbit:
    """The unique orbit with 2nd-order contact at the jet:
    a = -(rho'' cos + rho' sin), b = rho' cos - rho'' sin, c = rho + rho''."""
    ct, st = math.cos(j.theta), math.sin(j.theta)
    a = -(j.rho2 * ct + j.rho1 * st)
    b = j.rho1 * ct - j.rho2 * st
    c = j.rho + j.rho2
    if abs(c) <= 1e-12 * (1.0 + abs(j.rho) + abs(j.rho2)):
        raise TheoremError("osculating conic degenerates to a line (rho + rho'' = 0)")
    return from_abc(a, b, c)


def _dual_curvature(curve: ParametricCurve) -> Callable[[float], float]:
    dual = dual_curve(curve)

    def kappa(t):  # speed^3 per element: np.hypot and np.power round some differently
        dx, dy = dual.d1(t)
        ddx, ddy = dual.deriv2(t)
        speed3 = (np.array([math.hypot(u, v) ** 3 for u, v in zip(dx.tolist(), dy.tolist())])
                  if isinstance(t, np.ndarray) else math.hypot(dx, dy) ** 3)
        return (dx * ddy - dy * ddx) / speed3

    return kappa


def kepler_vertices(curve: ParametricCurve) -> list[float]:
    """Parameters where the osculating orbit hyperosculates.

    Implemented as curvature extrema of the dual curve (duality preserves
    order of contact).  Uses a uniform grid scan and bisection of the
    curvature-derivative sign changes; a curve with constant dual
    curvature is itself a Kepler orbit and is reported as degenerate.
    """
    if not curve.closed:
        raise TheoremError("vertex census needs a closed curve")
    kappa = _dual_curvature(curve)
    t0, t1 = curve.domain
    span = t1 - t0
    h = 1e-4 * span / (2.0 * math.pi)

    def dkappa(t):
        return (kappa(t + h) - kappa(t - h)) / (2.0 * h)

    ts = np.linspace(t0, t1, VERTEX_GRID, endpoint=False)
    kvals = kappa(ts)
    if np.max(kvals) - np.min(kvals) <= 1e-8 * (1.0 + np.max(np.abs(kvals))):
        raise DegenerateCurveError("dual curvature is constant: curve is a Kepler orbit")
    dvals = dkappa(ts)
    roots: list[float] = []
    for i in range(VERTEX_GRID):
        j = (i + 1) % VERTEX_GRID
        a, b = dvals[i], dvals[j]
        if a == 0.0:
            roots.append(float(ts[i]))
            continue
        if a * b < 0.0:
            lo, hi = float(ts[i]), float(ts[i]) + span / VERTEX_GRID
            flo = a
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = dkappa(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    # deduplicate modulo the period
    out: list[float] = []
    for root in sorted(r % span + t0 for r in roots):
        if not out or (root - out[-1]) > 1e-7 * span:
            out.append(root)
    if len(out) > 1 and (out[0] + span - out[-1]) <= 1e-7 * span:
        out.pop()
    return out


def nested(o1: KeplerOrbit, o2: KeplerOrbit) -> bool:
    """Two Kepler ellipses are nested iff they are disjoint.

    Decided by the sign of the inverse-radius gap over a dense angle
    grid.  Certified for ellipse pairs only.
    """
    if o1.conic_class() is not ConicClass.ELLIPSE or o2.conic_class() is not ConicClass.ELLIPSE:
        raise UncertifiedRegimeError("nestedness is certified for ellipse pairs only")
    theta = np.linspace(0.0, 2.0 * math.pi, NESTED_GRID, endpoint=False)
    gap = (
        (o1.a - o2.a) * np.cos(theta)
        + (o1.b - o2.b) * np.sin(theta)
        + (o1.c - o2.c)
    )
    return bool(np.all(gap > 0.0) or np.all(gap < 0.0))


@dataclass(frozen=True)
class TaitKneserReport:
    params: list[float]
    pairs: int
    all_nested: bool
    all_chords_timelike: bool


def tait_kneser(curve: ParametricCurve, arc: tuple[float, float], k: int = 12) -> TaitKneserReport:
    """Osculating orbits along a vertex-free arc are pairwise nested and
    their dual chords timelike."""
    lo, hi = arc
    if hi <= lo:
        raise TheoremError("empty arc")
    for v in kepler_vertices(curve):
        if lo < v < hi:
            raise TheoremError(f"arc contains a Kepler vertex at t={v}")
    params = [lo + (hi - lo) * (i + 0.5) / k for i in range(k)]
    orbits = [osculating_orbit(polar_jet(curve, t)) for t in params]
    duals = [o.dual() for o in orbits]
    all_nested = True
    all_timelike = True
    pairs = 0
    for i in range(k):
        for j in range(i + 1, k):
            pairs += 1
            if not nested(orbits[i], orbits[j]):
                all_nested = False
            if norm2(duals[i] - duals[j]) >= 0.0:
                all_timelike = False
    return TaitKneserReport(params, pairs, all_nested, all_timelike)


# --------------------------------------------------------------------------
# Eccentric anomaly and the minor-axis chord identity
# --------------------------------------------------------------------------

def eccentric_point(o: KeplerOrbit, u: float) -> PlanePoint:
    """Focus-at-origin ellipse point at eccentric anomaly u, in the frame
    rotated so that u = 0 is the pericenter."""
    if o.conic_class() is not ConicClass.ELLIPSE:
        raise TheoremError("eccentric anomaly is defined for ellipses")
    g = geometry(o)
    e = g.eccentricity
    xt = g.semi_major * (math.cos(u) - e)
    yt = g.semi_minor * math.sin(u)
    ct, st = math.cos(g.pericenter_angle), math.sin(g.pericenter_angle)
    return PlanePoint(xt * ct - yt * st, xt * st + yt * ct)


def eccentric_anomaly_of(o: KeplerOrbit, p: PlanePoint) -> float:
    """Inverse of eccentric_point for a point on the ellipse."""
    g = geometry(o)
    ct, st = math.cos(g.pericenter_angle), math.sin(g.pericenter_angle)
    xt = p.x * ct + p.y * st
    yt = -p.x * st + p.y * ct
    return math.atan2(yt / g.semi_minor, xt / g.semi_major + g.eccentricity)


def radius_at_anomaly(o: KeplerOrbit, u: float) -> float:
    g = geometry(o)
    return g.semi_major * (1.0 - g.eccentricity * math.cos(u))


@dataclass(frozen=True)
class LambertSides:
    lhs: float  # B^2 sin^2(du/2)
    rhs: float  # r12^2 - (r1 - r2)^2


def lambert_check(o: KeplerOrbit, u1: float, u2: float) -> LambertSides:
    """Both sides of B^2 sin^2((u2-u1)/2) = r12^2 - (r1 - r2)^2."""
    g = geometry(o)
    if g.semi_minor is None or o.conic_class() is not ConicClass.ELLIPSE:
        raise TheoremError("the chord identity is implemented for ellipses")
    b_axis = 2.0 * g.semi_minor
    p1 = eccentric_point(o, u1)
    p2 = eccentric_point(o, u2)
    r1 = radius_at_anomaly(o, u1)
    r2 = radius_at_anomaly(o, u2)
    r12_sq = (p1.x - p2.x) ** 2 + (p1.y - p2.y) ** 2
    lhs = b_axis * b_axis * math.sin(0.5 * (u2 - u1)) ** 2
    rhs = r12_sq - (r1 - r2) ** 2
    return LambertSides(lhs, rhs)


# --------------------------------------------------------------------------
# Envelopes of concurrent families
# --------------------------------------------------------------------------

def _focal_parameter(num: float, den: float) -> float:
    """The envelope's length parameter num/den, which must be finite and positive."""
    if den == 0.0 or not 0.0 < num / den < math.inf:
        raise TheoremError(f"the envelope parameter {num!r}/{den!r} is not finite and positive")
    return num / den


def envelope_minor_axis(b_axis: float, x1: float) -> KeplerOrbit:
    """Envelope of the ellipses with minor axis B through (x1, 0): the
    parabola y^2 = 4p(x + p) with p = B^2/(4 x1), dual (-1/(2p), 0, 1/(2p))."""
    if b_axis <= 0.0 or x1 <= 0.0:
        raise TheoremError("need B > 0 and x1 > 0")
    p = _focal_parameter(b_axis * b_axis, 4.0 * x1)
    return from_abc(-1.0 / (2.0 * p), 0.0, 1.0 / (2.0 * p))


def minor_axis_family(b_axis: float, x1: float, b_coords: Sequence[float]) -> list[KeplerOrbit]:
    """Ellipses of minor axis B through (x1, 0), indexed by the dual
    b-coordinate (duals on a^2+b^2-c^2 = -4/B^2 cut by the point plane)."""
    out = []
    for b in b_coords:
        c = 0.5 * x1 * (1.0 / (x1 * x1) + b * b + 4.0 / (b_axis * b_axis))
        a = 1.0 / x1 - c
        out.append(from_abc(a, b, c))
    return out


def envelope_energy(energy: float, x0: float) -> KeplerOrbit:
    """Envelope of the energy-E < 0 ellipses through (x0, 0): an ellipse
    with second focus at the fixed point; dual (-1/(2p), 0, 1/(2p) - E)
    with p = (1 + E x0)/(x0 E^2)."""
    if energy >= 0.0:
        raise TheoremError("the enveloping ellipse exists for negative energy")
    if 1.0 + energy * x0 <= 0.0 or x0 <= 0.0:
        raise TheoremError("fixed point lies outside the Hill region")
    p = _focal_parameter(1.0 + energy * x0, x0 * energy * energy)
    return from_abc(-1.0 / (2.0 * p), 0.0, 1.0 / (2.0 * p) - energy)


def energy_family(energy: float, x0: float, b_coords: Sequence[float]) -> list[KeplerOrbit]:
    """Energy-E ellipses through (x0, 0), indexed by the dual b-coordinate."""
    if energy >= 0.0:
        raise TheoremError("family generator covers negative energy")
    if 1.0 + energy * x0 <= 0.0 or x0 <= 0.0:
        raise TheoremError("fixed point lies outside the Hill region")
    k = abs(energy)
    out = []
    for b in b_coords:
        c = x0 * (1.0 / (x0 * x0) + b * b) / (2.0 * (1.0 - k * x0))
        a = 1.0 / x0 - c
        out.append(from_abc(a, b, c))
    return out


def second_focus(o: KeplerOrbit) -> tuple[float, float]:
    if o.conic_class() is not ConicClass.ELLIPSE:
        raise TheoremError("second focus is defined for ellipses")
    g = geometry(o)
    d = 2.0 * g.semi_major * g.eccentricity
    return (-d * math.cos(g.pericenter_angle), -d * math.sin(g.pericenter_angle))


@dataclass(frozen=True)
class ParallelLines:
    """The pair of horizontal lines y = +/- half_gap."""

    half_gap: float


def envelope_hooke(area: float) -> ParallelLines:
    """Envelope of origin-centered ellipses of fixed area through (1, 0):
    the two lines y = +/- area/pi."""
    return ParallelLines(_focal_parameter(area, math.pi))


def hooke_family(area: float, shears: Sequence[float]) -> list[ParametricCurve]:
    """Sheared ellipses of the given area through (1, 0)."""
    semi_y = area / math.pi
    return [_affine_circle((0.0, 0.0), (1.0, 0.0), (s * semi_y, semi_y)) for s in shears]


@dataclass(frozen=True)
class TangencyReport:
    theta: float  # polar angle of the contact point on the member
    value: float  # residual of the envelope equation at the contact
    slope: float  # derivative of the residual at the contact
    even_contact: bool  # residual keeps its sign on both sides

    @property
    def residual(self) -> float:
        return max(abs(self.value), abs(self.slope))


def tangency_report(member: KeplerOrbit, envelope: KeplerOrbit) -> TangencyReport:
    """Double-root test for tangency of a family member to the envelope.

    Evaluates h(theta) = a x + b y + c r - 1 of the envelope along the
    member's attractive branch, locates the minimum of |h| and reports
    the residual, its slope, and whether the root has even multiplicity.
    """

    def h_of(t):
        c, s = _cos_sin(t)
        r = 1.0 / (member.a * c + member.b * s + member.c)
        return conic_residual(envelope, r * c, r * s, r)

    thetas = np.asarray(sample_thetas(member, TANGENCY_SAMPLES))
    h = h_of(thetas)
    i = int(np.argmin(np.abs(h)))

    # parabolic refinement around the grid minimum, then a Newton polish
    t_star = float(thetas[i])
    step = float(thetas[1] - thetas[0])
    if 0 < i < len(thetas) - 1:
        hm, h0, hp = h[i - 1], h[i], h[i + 1]
        denom = hm - 2.0 * h0 + hp
        if denom != 0.0:
            t_star += 0.5 * step * (hm - hp) / denom
    delta = 1e-6
    for _ in range(3):
        d1 = (h_of(t_star + delta) - h_of(t_star - delta)) / (2 * delta)
        d2 = (h_of(t_star + delta) - 2.0 * h_of(t_star) + h_of(t_star - delta)) / (delta * delta)
        if d2 == 0.0:
            break
        t_star -= d1 / d2
    value = h_of(t_star)
    slope = (h_of(t_star + delta) - h_of(t_star - delta)) / (2 * delta)
    probe = 50 * step
    left, right = h_of(t_star - probe), h_of(t_star + probe)
    even = (left > 0 and right > 0) or (left < 0 and right < 0)
    return TangencyReport(t_star, float(value), float(slope), bool(even))


# --------------------------------------------------------------------------
# Curved-space projection laws
# --------------------------------------------------------------------------

def curved_quadric_residual(v: MinkVec, e_k: float, curvature: float) -> float:
    """Residual of a^2 + b^2 - (c - |E_k|)^2 = -E_k^2 - k for a signed
    dual representative (c > 0 encodes E_k < 0, c < 0 encodes E_k > 0)."""
    lhs = v.a * v.a + v.b * v.b - (v.c - abs(e_k)) ** 2
    return abs(lhs + e_k * e_k + curvature)
