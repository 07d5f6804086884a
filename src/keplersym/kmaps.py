"""Named special maps between orbit families, with dual-side predictors.

Each map is implemented point-wise; next to it sits the predicted law
for the image family on the dual side, so every claim can be tested as
a two-pipeline equality: map samples, fit, compare with the predictor.
"""

from __future__ import annotations

import math

from .minkowski import MinkVec
from .orbit import KeplerOrbit, PlanePoint, from_abc


class MapError(Exception):
    pass


class SingularRadiusError(MapError):
    pass


SINGULAR_TOL = 1e-12


def m_squared(m: float) -> float:
    """M^2, which must be positive and finite, and so must 1/M^2."""
    m2 = m * m
    if not (0.0 < m2 < math.inf and 1.0 / m2 < math.inf):
        raise MapError(f"angular momentum m={m!r} needs M^2 and 1/M^2 positive and finite")
    return m2


def check_energy(energy: float) -> None:
    """Raise MapError unless 0 < energy < inf."""
    if not 0.0 < energy < math.inf:
        raise MapError(f"embedding is defined for finite positive energy, got energy={energy!r}")


def _radial(p: PlanePoint, denom: float, circle: str | None, name: str,
            value: float) -> PlanePoint:
    """The image p / denom.  An overflowing denom is a MapError naming `name=value`,
    one on the map's singular `circle` a SingularRadiusError; a map with no such
    circle (None) divides by any finite denom."""
    if SINGULAR_TOL < abs(denom) < math.inf or (circle is None and abs(denom) < math.inf):
        return PlanePoint(p.x / denom, p.y / denom)
    if abs(denom) < math.inf:
        raise SingularRadiusError(f"radius {p.r} sits on the singular circle {circle}")
    raise MapError(f"radius {p.r} overflows the map's denominator at {name}={value!r}")


def square(p: PlanePoint) -> PlanePoint:
    """Complex squaring (x, y) -> (x^2 - y^2, 2 x y).

    Takes affine lines missing the origin to parabolas with focus at the
    origin, and center-symmetric conics to focus-at-origin conics.
    """
    return PlanePoint(p.x * p.x - p.y * p.y, 2.0 * p.x * p.y)


def square_line_image(angle: float, distance: float) -> KeplerOrbit:
    """Dual predictor: the squared image of the line at signed distance
    `distance` > 0 whose nearest point to the origin sits at `angle`."""
    if distance <= 0.0:
        raise MapError("line must miss the origin")
    c = 1.0 / (2.0 * distance * distance)
    return from_abc(c * math.cos(2.0 * angle), c * math.sin(2.0 * angle), c)


def flatten_m(p: PlanePoint, m: float) -> PlanePoint:
    """Radial map r -> r / (1 - r / M^2); straightens orbits with |M| = m."""
    return _radial(p, 1.0 - math.hypot(p.x, p.y) / m_squared(m), "r = M^2", "m", m)


def flatten_m_dual(v: MinkVec, m: float) -> MinkVec:
    """Dual predictor: vertical translation c -> c - 1/M^2."""
    return MinkVec(v.a, v.b, v.c - 1.0 / m_squared(m))


def hill_embed(p: PlanePoint, energy: float) -> PlanePoint:
    """Radial map r -> r / (1 + 2 E r) embedding the energy-E Hill region
    (E > 0) into the energy -E one."""
    check_energy(energy)
    return _radial(p, 1.0 + 2.0 * energy * math.hypot(p.x, p.y), None, "energy", energy)


def hill_dual(o: KeplerOrbit, energy: float) -> KeplerOrbit:
    """Dual predictor in canonical coordinates: (a, b, c) -> (a, b, c + 2E)."""
    check_energy(energy)
    c = o.c + 2.0 * energy
    if not math.isfinite(c):
        raise MapError(f"hill_dual needs c + 2E finite, got c={o.c!r}, energy={energy!r}")
    return KeplerOrbit(o.a, o.b, c)


def reflect_dual_signed(v: MinkVec, energy: float) -> MinkVec:
    """The same predictor as a reflection of the signed representative:
    (a, b, c) -> (a, b, 2|E| - c)."""
    return MinkVec(v.a, v.b, 2.0 * abs(energy) - v.c)


def repel_embed(p: PlanePoint, energy: float) -> PlanePoint:
    """Radial map r -> r / (1 - 2 E r) for repelling-branch points."""
    check_energy(energy)
    return _radial(p, 1.0 - 2.0 * energy * math.hypot(p.x, p.y), "r = 1/(2E)", "energy", energy)


def parabola_chart(big_x: float, big_y: float) -> PlanePoint:
    """Chart (X, Y) -> ((X^2 - 1)/Y, 2X/Y) taking vertical parabolas
    Y = A X^2 + B X + C onto Kepler orbits."""
    if big_y == 0.0:
        raise MapError("chart is singular on Y = 0")
    return PlanePoint((big_x * big_x - 1.0) / big_y, 2.0 * big_x / big_y)


def parabola_chart_dual(a2: float, a1: float, a0: float) -> MinkVec:
    """Dual predictor for the image of Y = a2 X^2 + a1 X + a0:
    the triple ((a2 - a0)/2, a1/2, (a2 + a0)/2)."""
    return MinkVec((a2 - a0) / 2.0, a1 / 2.0, (a2 + a0) / 2.0)
