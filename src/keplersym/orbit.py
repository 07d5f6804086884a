"""Kepler orbits as first-class values.

An orbit is stored as the canonical dual triple (a, b, c), c > 0, of the
plane a*x + b*y + c*z = 1 cutting the cone x^2 + y^2 = z^2; the orbit is
the orthogonal projection of that section.  The triple determines the
conserved quantities (eccentricity, energy, |angular momentum|), the
polar radius function of the attractive branch, and the repelling-branch
membership test for hyperbolas.  An RK4 integration of the inverse-square
flow in Sundman time, in the steps of the one step rule `step_doubled`,
serves as the independent dynamics oracle; `kepler_time` checks its clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

ARC_DELTA = 1e-6  # sampling stays inside rho > delta
CLASS_TOL = 1e-10  # relative band for the parabola classification
LINE_C_TOL = 1e-8  # fit: |c| below this (relative) means a straight line


class OrbitError(Exception):
    pass


class LineDualError(OrbitError):
    """The triple has c = 0: a straight line, not a Kepler orbit."""


class BranchDomainError(OrbitError):
    """Requested angle is outside the domain of the branch."""


class FitError(OrbitError):
    pass


class IntegrationError(OrbitError):
    """An RK4 oracle failed; `residual` is its last run's largest |residual|."""

    def __init__(self, message: str, residual: float = math.inf):
        super().__init__(message)
        self.residual = residual


class Membership(str, Enum):
    ON_ATTRACTIVE = "on-attractive"
    ON_REPELLING = "on-repelling"
    OFF = "off"


class ConicClass(str, Enum):
    ELLIPSE = "ellipse"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"


class PlanePoint:
    """A point of the punctured Kepler plane: an immutable value, equal to and
    hashed like another PlanePoint with the same coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if x == 0.0 and y == 0.0:
            raise OrbitError("the origin is excluded from the Kepler plane")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise OrbitError(f"coordinates must be finite, got ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"PlanePoint(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return (PlanePoint, (self.x, self.y))

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        return math.atan2(self.y, self.x)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


# the slot setters, which __init__ calls past the blocking __setattr__
_set_x, _set_y = PlanePoint.x.__set__, PlanePoint.y.__set__


@dataclass(frozen=True)
class KeplerOrbit:
    a: float
    b: float
    c: float  # canonical: c > 0

    @property
    def eccentricity(self) -> float:
        return math.hypot(self.a, self.b) / self.c

    def _scaled(self) -> tuple[float, float, float, float]:
        """(s, a/s, b/s, c/s) for the quadric formulas: s = 1 while
        1 + a^2 + b^2 + c^2 is finite, else s = max(|a|, |b|, c), so that no
        square of the scaled triple overflows.  At s = 1 each formula below
        keeps its plain bits."""
        a, b, c = self.a, self.b, self.c
        if math.isfinite(1.0 + a * a + b * b + c * c):
            return 1.0, a, b, c
        s = max(abs(a), abs(b), c)
        return s, a / s, b / s, c / s

    @property
    def energy(self) -> float:
        s, a, b, c = self._scaled()
        q = a * a + b * b - c * c
        if s == 1.0:
            return q / (2.0 * c)
        return q * (0.5 * s) * (s / self.c)  # = q s^2 / (2c); s/c >= 1, so no factor overflows

    @property
    def ang_momentum(self) -> float:
        """|M|; the sign is not determined by the unparametrized curve."""
        return 1.0 / math.sqrt(self.c)

    @property
    def pericenter_angle(self) -> float:
        return math.atan2(self.b, self.a)

    def conic_class(self) -> ConicClass:
        s, a, b, c = self._scaled()  # both sides over s^2
        q = a * a + b * b - c * c
        if abs(q) <= CLASS_TOL * (1.0 / s / s + a * a + b * b + c * c):
            return ConicClass.PARABOLA
        return ConicClass.ELLIPSE if q < 0.0 else ConicClass.HYPERBOLA

    def dual(self):
        from .minkowski import MinkVec

        return MinkVec(self.a, self.b, self.c)


@dataclass(frozen=True)
class OrbitGeometry:
    eccentricity: float
    semi_major: float | None  # absent for parabolas
    semi_minor: float | None  # absent for parabolas
    latus_rectum: float
    pericenter_angle: float
    energy: float
    ang_momentum: float


def from_abc(a: float, b: float, c: float) -> KeplerOrbit:
    """Canonicalize a dual triple; (a, b, c) and (a, b, -c) are one orbit."""
    if not all(map(math.isfinite, (a, b, c))):
        raise OrbitError(f"the triple ({a}, {b}, {c}) is not finite")
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise OrbitError("the zero triple does not define a curve")
    if c == 0.0:
        raise LineDualError(f"({a}, {b}, 0) is a straight line, not a Kepler orbit")
    return KeplerOrbit(a, b, abs(c))


def conserved(o: KeplerOrbit) -> tuple[float, float, float]:
    """(eccentricity, energy, |angular momentum|)."""
    return (o.eccentricity, o.energy, o.ang_momentum)


def _branch_sign(branch: str) -> float:
    """The sign of c r in the residual of the named branch."""
    if branch not in ("attractive", "repelling"):
        raise ValueError(f"unknown branch {branch!r}")
    return 1.0 if branch == "attractive" else -1.0


def conic_residual(o: KeplerOrbit, x, y, r, sign: float = 1.0):
    """The plane-section residual a x + b y + sign c r - 1 of the branch with
    that sign (+1 attractive, -1 repelling), on floats or numpy columns."""
    return o.a * x + o.b * y + sign * o.c * r - 1.0


def rho(o: KeplerOrbit, theta: float, sign: float = 1.0) -> float:
    """Inverse radius of the branch with that sign: a cos + b sin + sign c."""
    return o.a * math.cos(theta) + o.b * math.sin(theta) + sign * o.c


def _points(o: KeplerOrbit, thetas, branch: str) -> list[PlanePoint]:
    """The branch's points at the angles: r = 1/rho, (r cos, r sin)."""
    sign = _branch_sign(branch)
    a, b, sc = o.a, o.b, sign * o.c
    cos, sin = math.cos, math.sin
    out = []
    for theta in thetas:
        ct, st = cos(theta), sin(theta)
        p = a * ct + b * st + sc
        if p <= 0.0:  # also where rounding cancels rho of an extreme triple
            raise BranchDomainError(f"theta={theta} is outside the {branch} branch domain (rho={p})")
        r = 1.0 / p
        out.append(PlanePoint(r * ct, r * st))
    return out


def point_at(o: KeplerOrbit, theta: float, branch: str = "attractive") -> PlanePoint:
    return _points(o, (theta,), branch)[0]


def arc_half_width(o: KeplerOrbit, branch: str, delta: float) -> float | None:
    """Half-width w of the arc |theta - pericenter angle| < w on which the
    branch has rho > delta, or None when that holds on the full circle.
    delta must lie in [0, the branch's largest rho)."""
    sign = _branch_sign(branch)
    h = math.hypot(o.a, o.b)
    if sign < 0.0 and h <= o.c:
        raise BranchDomainError("orbit has no repelling branch")
    top = h + sign * o.c
    if not 0.0 <= delta < top:  # also a NaN delta
        raise BranchDomainError(
            f"delta={delta!r} is outside [0, {top!r}), the {branch} branch's range of rho")
    bound = delta - sign * o.c
    if h == 0.0 or bound / h <= -1.0:
        return None
    return math.acos(max(-1.0, min(1.0, bound / h)))


def sample_thetas(
    o: KeplerOrbit, n: int, branch: str = "attractive", delta: float = ARC_DELTA
) -> list[float]:
    """Equally spaced angles over the arc where the branch has rho > delta."""
    if n < 3:
        raise OrbitError("need at least 3 sample points")
    t0 = o.pericenter_angle
    w = arc_half_width(o, branch, delta)
    if w is None:
        return (t0 + 2.0 * math.pi * np.arange(n) / n).tolist()
    step = 2.0 * w / (n + 1)
    return ((t0 - w) + np.arange(1, n + 1) * step).tolist()


def sample(
    o: KeplerOrbit, n: int, branch: str = "attractive", delta: float = ARC_DELTA
) -> list[PlanePoint]:
    return _points(o, sample_thetas(o, n, branch, delta), branch)


def contains(o: KeplerOrbit, p: PlanePoint, tol: float = 1e-9) -> Membership:
    """Branch-aware membership via |a x + b y +/- c r - 1| <= tol."""
    r = p.r
    if abs(conic_residual(o, p.x, p.y, r)) <= tol:
        return Membership.ON_ATTRACTIVE
    if abs(conic_residual(o, p.x, p.y, r, -1.0)) <= tol:
        return Membership.ON_REPELLING
    return Membership.OFF


def membership_residual(o: KeplerOrbit, x: float, y: float) -> float:
    """Distance of (x, y) from the full conic in the defining residual,
    minimized over the two branch signs."""
    r = math.hypot(x, y)
    return min(abs(conic_residual(o, x, y, r)), abs(conic_residual(o, x, y, r, -1.0)))


def geometry(o: KeplerOrbit) -> OrbitGeometry:
    e = o.eccentricity
    energy = o.energy
    latus = 2.0 / o.c
    kind = o.conic_class()
    if kind is ConicClass.PARABOLA:
        semi_major = semi_minor = None
    else:
        semi_major = 1.0 / (2.0 * abs(energy))
        s, a, b, c = o._scaled()
        semi_minor = 1.0 / (s * math.sqrt(abs(c * c - a * a - b * b)))
    return OrbitGeometry(
        eccentricity=e,
        semi_major=semi_major,
        semi_minor=semi_minor,
        latus_rectum=latus,
        pericenter_angle=o.pericenter_angle,
        energy=energy,
        ang_momentum=o.ang_momentum,
    )


@dataclass(frozen=True)
class FitResult:
    kind: str  # "orbit" or "line"
    coefficients: tuple[float, float, float]  # raw least-squares (a, b, c)
    residual: float  # max |a x + b y + c r - 1| over the input points
    orbit: KeplerOrbit | None = None
    line: tuple[float, float] | None = None  # a x + b y = 1


def fit(points) -> FitResult:
    """Least-squares dual triple through plane points.

    Minimizes sum (a x_i + b y_i + c r_i - 1)^2.  A solution with |c|
    negligible against |(a, b)| is classified as a straight line.  The
    raw triple is kept: a negative c means the input points lie on a
    repelling branch of the canonicalized orbit.
    """
    pts = [(p.x, p.y) if isinstance(p, PlanePoint) else (p[0], p[1]) for p in points]
    if len(pts) < 3:
        raise FitError("need at least 3 points")
    arr = np.asarray(pts, dtype=float)
    r = np.hypot(arr[:, 0], arr[:, 1])
    if not np.all(np.isfinite(r) & (r > 0.0)):
        raise FitError("points must be finite and avoid the origin")
    design = np.column_stack([arr[:, 0], arr[:, 1], r])
    sol, _, rank, _ = np.linalg.lstsq(design, np.ones(len(pts)), rcond=None)
    if rank < 3:
        raise FitError("degenerate point set (rank-deficient system)")
    a, b, c = (float(v) for v in sol)
    residual = float(np.max(np.abs(design @ sol - 1.0)))
    if abs(c) <= LINE_C_TOL * math.hypot(a, b):
        return FitResult("line", (a, b, c), residual, line=(a, b))
    return FitResult("orbit", (a, b, c), residual, orbit=from_abc(a, b, c))


# --------------------------------------------------------------------------
# Newtonian dynamics oracle
# --------------------------------------------------------------------------

NEWTON_TARGET = 1e-10  # newton_flow's step-doubling target for its residuals
NEWTON_CAP = 64_000  # 250 doubled 8 times; e = 0.95 meets the target at 16,000


@dataclass(frozen=True)
class Trajectory:
    s: np.ndarray  # (N,) Sundman time, ds = dt / r
    t: np.ndarray  # (N,) the integrated time
    pos: np.ndarray  # (N, 2)
    vel: np.ndarray  # (N, 2)

    def radii(self) -> np.ndarray:
        return np.hypot(self.pos[:, 0], self.pos[:, 1])

    def energies(self) -> np.ndarray:
        v2 = np.sum(self.vel * self.vel, axis=1)
        return 0.5 * v2 - 1.0 / self.radii()

    def ang_momenta(self) -> np.ndarray:
        return self.pos[:, 0] * self.vel[:, 1] - self.pos[:, 1] * self.vel[:, 0]

    def residuals(self, o: KeplerOrbit) -> np.ndarray:
        """(3, N): the attractive conic residual, and energy and |angular momentum| minus o's."""
        return np.array([conic_residual(o, *self.pos.T, self.radii()), self.energies() - o.energy,
                         np.abs(self.ang_momenta()) - o.ang_momentum])


def kepler_time(o: KeplerOrbit, s) -> np.ndarray:
    """The universal Kepler equation: the time since the pericenter at Sundman
    time s (dt = r ds) is r0 s + e s^3 S(-2E s^2), with Stumpff's
    S(z) = sum_k (-z)^k / (2k+3)!, which is (w - sin w) / w^3 at z = w^2 and
    (sinh w - w) / w^3 at z = -w^2; 9 terms of the series where |z| < 1."""
    s = np.asarray(s, dtype=float)
    z = -2.0 * o.energy * s * s
    near = np.abs(z) < 1.0  # where the closed forms cancel
    w = np.sqrt(np.where(near, 1.0, np.abs(z)))
    series = sum(np.where(near, -z, 0.0) ** k / math.factorial(2 * k + 3) for k in range(9))
    stumpff = np.where(near, series, np.where(z > 0.0, w - np.sin(w), np.sinh(w) - w) / w**3)
    return s / (math.hypot(o.a, o.b) + o.c) + o.eccentricity * s**3 * stumpff


def step_doubled(run, first: int, cap: int, target: float) -> tuple[np.ndarray, int, float]:
    """Step doubling (Richardson; Hairer, Norsett and Wanner, *Solving ODEs I*,
    II.4): `run(n)` gives an RK4 oracle's signed residuals after n steps over a
    fixed span, along a last axis of the n + 1 grid times or of the endpoint
    alone.  Returns (r_N, N, estimate) at the first N of first, 2 first, ...
    whose estimate max|r_N - r_(N/2)| / 15 on the shared grid is at most
    `target`; reaching `cap` raises IntegrationError.
    """
    n, prev, estimate = first, run(first), math.inf
    while 2 * n <= cap:
        n *= 2
        r = run(n)
        estimate = float(np.max(np.abs(r[..., ::2] - prev))) / 15.0
        if estimate <= target:
            return r, n, estimate
        prev = r
    message = f"steps={n} reached the cap {cap} with estimate {estimate:.1e} > {target:.0e}"
    raise IntegrationError(message, float(np.max(np.abs(prev))))


def rk4(f, y0, h: float, steps: int) -> np.ndarray:
    """Classic fixed-step RK4 for y' = f(y); returns the (steps+1, d) or (steps+1, d, n) states.

    The state is a tuple of d floats, or of d equal-length numpy columns
    that carry n systems through the same operations at once.  `f` takes
    and returns such a tuple.
    """
    if not y0:
        raise ValueError("rk4 needs a non-empty state")
    if all(map(np.isscalar, y0)):
        y = tuple(map(float, y0))
    else:
        y = tuple(np.asarray(col, dtype=float) for col in y0)
        if len({col.shape for col in y}) != 1 or y[0].ndim != 1 or not y[0].size:
            raise ValueError("rk4 columns must be one-dimensional, non-empty and of equal length")
    out = np.empty((steps + 1, *np.shape(y)))
    out[0] = y
    h2, h6 = 0.5 * h, h / 6.0
    for i in range(steps):
        k1 = f(y)
        k2 = f(tuple([a + h2 * b for a, b in zip(y, k1)]))
        k3 = f(tuple([a + h2 * b for a, b in zip(y, k2)]))
        k4 = f(tuple([a + h * b for a, b in zip(y, k3)]))
        y = tuple([a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        out[i + 1] = y
    return out


def newton_flow(o: KeplerOrbit, steps: int | None = None) -> Trajectory:
    """RK4 trajectory of r'' = -r/|r|^3 from the pericenter, in Sundman time.

    Integrates (x, y, vx, vy, t)' = (r vx, r vy, -x/r^2, -y/r^2, r) in s,
    dt = r ds (Sundman 1912; Stiefel and Scheifele, *Linear and Regular
    Celestial Mechanics*, 1971), from pericenter distance r0 with speed |M|/r0
    perpendicular to the radius, so the trace must satisfy a x + b y + c r = 1,
    over one period of an ellipse or the time 2 pi r0^1.5 of an open orbit.
    `steps` fixes the step count; by default `step_doubled` picks it from 250
    on `Trajectory.residuals`, to NEWTON_TARGET; at NEWTON_CAP it raises IntegrationError.
    """
    r0 = 1.0 / (math.hypot(o.a, o.b) + o.c)
    if o.conic_class() is ConicClass.ELLIPSE:
        span = 2.0 * math.pi / math.sqrt(-2.0 * o.energy)  # one period in s
    else:  # t >= r0 s, so t reaches 2 pi r0^1.5 on this grid; to within 1e-5 of it by interpolation
        s = np.linspace(0.0, 2.0 * math.pi * r0**0.5, 4097)
        span = float(np.interp(2.0 * math.pi * r0**1.5, kepler_time(o, s), s))
    t0 = o.pericenter_angle
    ux, uy = math.cos(t0), math.sin(t0)
    v0 = o.ang_momentum / r0

    def field(state: tuple) -> tuple:
        x, y, vx, vy, _ = state
        r = math.hypot(x, y)
        if r < 1e-9:
            raise IntegrationError("trajectory reached the attracting center")
        k = 1.0 / (r * r)
        return (r * vx, r * vy, -x * k, -y * k, r)

    def run(n: int) -> Trajectory:
        h = span / n
        out = rk4(field, (r0 * ux, r0 * uy, v0 * -uy, v0 * ux, 0.0), h, n)
        return Trajectory(s=h * np.arange(n + 1), t=out[:, 4], pos=out[:, :2], vel=out[:, 2:4])

    if steps is not None:
        return run(steps)
    runs = {}
    _, n, _ = step_doubled(lambda n: runs.setdefault(n, run(n)).residuals(o),
                           250, NEWTON_CAP, NEWTON_TARGET)
    return runs[n]


# --------------------------------------------------------------------------
# Wire formats
# --------------------------------------------------------------------------

def orbit_to_dict(o: KeplerOrbit) -> dict:
    return {"a": o.a, "b": o.b, "c": o.c}
