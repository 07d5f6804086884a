"""Geometry of the orbit space R^{2,1}.

Vectors (a, b, c) carry the quadratic form a^2 + b^2 - c^2.  A point of
this space is the coefficient triple of a plane a*x + b*y + c*z = 1
cutting the cone x^2 + y^2 = z^2, i.e. the dual record of a Kepler orbit
(c != 0) or of an affine line (c = 0).  Lines of the space are pencils
of orbits; their causal type predicts how the member orbits meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class MinkowskiError(Exception):
    pass


class CausalType(str, Enum):
    SPACELIKE = "spacelike"
    NULL = "null"
    TIMELIKE = "timelike"


class PlaneType(str, Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


# Null classification tolerance is relative: exact zeros of the form only
# occur for constructions built from exact rationals.
NULL_TOL = 1e-10


@dataclass(frozen=True)
class MinkVec:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise MinkowskiError(f"coordinates must be finite, got {self.as_tuple()}")

    def __add__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "MinkVec") -> "MinkVec":
        return MinkVec(self.a - other.a, self.b - other.b, self.c - other.c)

    def __mul__(self, s: float) -> "MinkVec":
        return MinkVec(self.a * s, self.b * s, self.c * s)

    __rmul__ = __mul__

    def euclid2(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class MinkPlane:
    """Affine plane {v : n . v = d} with Euclidean normal n."""

    normal: MinkVec
    offset: float

    def __post_init__(self):
        if self.normal.euclid2() == 0.0:
            raise MinkowskiError("plane normal must be nonzero")


def norm2(v: MinkVec) -> float:
    return v.a * v.a + v.b * v.b - v.c * v.c


def classify_vector(v: MinkVec) -> CausalType:
    """Causal type of a nonzero vector, with a relative null band."""
    if v.euclid2() == 0.0:
        raise MinkowskiError("cannot classify the zero vector")
    q = norm2(v)
    band = NULL_TOL * (1.0 + v.euclid2())
    if abs(q) <= band:
        return CausalType.NULL
    return CausalType.SPACELIKE if q > 0.0 else CausalType.TIMELIKE


def classify_plane(p: MinkPlane) -> PlaneType:
    """Signature of the form restricted to the plane, read off its normal.

    Null normal -> parabolic (degenerate restriction), timelike normal ->
    elliptic, spacelike normal -> hyperbolic.
    """
    kind = classify_vector(p.normal)
    if kind is CausalType.NULL:
        return PlaneType.PARABOLIC
    if kind is CausalType.TIMELIKE:
        return PlaneType.ELLIPTIC
    return PlaneType.HYPERBOLIC


def point_plane(x: float, y: float) -> MinkPlane:
    """Plane of all orbit duals passing through the plane point (x, y).

    The dual record (a, b, c) of every orbit through (x, y) satisfies
    a*x + b*y + c*r = 1 with r = |(x, y)|, so the plane has the null
    normal (x, y, r) and offset 1.
    """
    r = math.hypot(x, y)
    if r == 0.0:
        raise MinkowskiError("the collision point (0, 0) has no orbit plane")
    return MinkPlane(MinkVec(x, y, r), 1.0)


@dataclass(frozen=True)
class PencilClass:
    kind: CausalType
    common_points: int  # predicted intersections of the two member conics


def pencil_classify(v1: MinkVec, v2: MinkVec) -> PencilClass:
    """Causal type of the chord v2 - v1 and the predicted intersection count.

    Spacelike, null and timelike chords predict 2, 1 and 0 common points
    of the two conics on the full cone.  The prediction is certified for
    ellipse pairs only; hyperbola branch effects are out of scope.
    """
    d = v2 - v1
    if d.euclid2() == 0.0:
        raise MinkowskiError("pencil needs two distinct points")
    kind = classify_vector(d)
    count = {CausalType.SPACELIKE: 2, CausalType.NULL: 1, CausalType.TIMELIKE: 0}[kind]
    return PencilClass(kind, count)
