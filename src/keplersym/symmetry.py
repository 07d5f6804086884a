"""The 7-parameter orbital symmetry group.

Algebra elements are traceless 4x4 matrices whose projective action on
homogeneous coordinates (X:Y:Z:W) preserves the cone X^2+Y^2=Z^2 up to
scale; group elements are block matrices [[A, 0], [b^T, lam]] with A in
CO(2,1).  The group acts on the punctured Kepler plane through cone
lifts q = (x, y, sheet*r, 1) and, contragradiently, on the dual space
of orbit triples (a, b, c).  Both actions are realized exactly and act
globally: a plane image is projected to the chart W != 0 only at the
end.  RK4 flows of the generators' linear fields, u' = X u on the cone
lift and the dual field on (a, b, c), provide an independent numeric
route to the same images for every time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .minkowski import MinkVec
from .orbit import PlanePoint, rk4

J3 = np.diag([1.0, 1.0, -1.0])

CHART_TOL = 1e-12
BLOCK_TOL = 1e-10


class SymmetryError(Exception):
    pass


class ChartExitError(SymmetryError):
    """Image left the affine chart W != 0 (denominator vanished)."""


class ConeVertexError(SymmetryError):
    """Image crossed the cone vertex (projected radius vanished)."""


@dataclass(frozen=True)
class AlgebraElement:
    """Traceless generator parametrized by (x1, ..., x7)."""

    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0
    x4: float = 0.0
    x5: float = 0.0
    x6: float = 0.0
    x7: float = 0.0

    @cached_property
    def matrix(self) -> np.ndarray:
        q = self.x1 / 4.0
        m = np.array(
            [
                [q, -self.x2, self.x3, 0.0],
                [self.x2, q, self.x4, 0.0],
                [self.x3, self.x4, q, 0.0],
                [self.x5, self.x6, self.x7, -3.0 * q],
            ]
        )
        m.setflags(write=False)  # computed once and shared by every caller
        return m

    def coords(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4, self.x5, self.x6, self.x7])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(*(self.coords() + other.coords()))

    def __mul__(self, s: float) -> "AlgebraElement":
        return AlgebraElement(*(s * self.coords()))

    __rmul__ = __mul__


def algebra(x1=0.0, x2=0.0, x3=0.0, x4=0.0, x5=0.0, x6=0.0, x7=0.0) -> AlgebraElement:
    return AlgebraElement(x1, x2, x3, x4, x5, x6, x7)


def basis() -> list[AlgebraElement]:
    """The 7 coordinate generators."""
    out = []
    for i in range(7):
        coeffs = [0.0] * 7
        coeffs[i] = 1.0
        out.append(AlgebraElement(*coeffs))
    return out


def algebra_from_matrix(m: np.ndarray) -> AlgebraElement:
    """Re-express a 4x4 matrix in (x1..x7); error if it leaves the space."""
    m = np.asarray(m, dtype=float)
    x1 = 4.0 * m[0, 0]
    cand = AlgebraElement(x1, m[1, 0], m[2, 0], m[2, 1], m[3, 0], m[3, 1], m[3, 2])
    scale = 1.0 + float(np.max(np.abs(m)))
    if float(np.max(np.abs(cand.matrix - m))) > BLOCK_TOL * scale:
        raise SymmetryError("matrix leaves the 7-parameter algebra")
    return cand


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Block matrix [[A, 0], [b^T, lam]], A in CO(2,1), lam != 0."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """The matrix as float rows, computed once, for the per-point kernels."""
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def A(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def b(self) -> np.ndarray:
        return self.matrix[3, :3]

    @property
    def lam(self) -> float:
        return float(self.matrix[3, 3])

    @property
    def kappa(self) -> float:
        """Conformal factor of A: A^T J3 A = kappa * J3."""
        return float((self.A.T @ J3 @ self.A)[0, 0])


def group_element(A: np.ndarray, b: np.ndarray, lam: float) -> GroupElement:
    m = np.zeros((4, 4))
    m[:3, :3] = np.asarray(A, dtype=float)
    m[3, :3] = np.asarray(b, dtype=float)
    m[3, 3] = float(lam)
    return group_from_matrix(m)


def group_from_matrix(m: np.ndarray) -> GroupElement:
    m = np.array(m, dtype=float)
    scale = 1.0 + float(np.max(np.abs(m)))
    if float(np.max(np.abs(m[:3, 3]))) > BLOCK_TOL * scale:
        raise SymmetryError("upper-right block must vanish")
    if m[3, 3] == 0.0:
        raise SymmetryError("lam must be nonzero")
    A = m[:3, :3]
    g = A.T @ J3 @ A
    kappa = g[0, 0]
    if kappa == 0.0 or float(np.max(np.abs(g - kappa * J3))) > BLOCK_TOL * (1.0 + abs(kappa)):
        raise SymmetryError("A block is not conformal-Lorentz")
    return GroupElement(m)


def identity() -> GroupElement:
    return GroupElement(np.eye(4))


# Padé-13 numerator coefficients b_0..b_13 and the 1-norm up to which the
# approximant is accurate to double precision (Higham 2005, "The scaling and
# squaring method for the matrix exponential revisited").
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by Padé-13 scaling and squaring."""
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    if not math.isfinite(norm):
        raise SymmetryError("the exponential needs a finite generator")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = m / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(len(m))
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = eye + np.linalg.solve(v - u, 2.0 * u)  # (v - u)^{-1} (v + u), exact at m = 0
    for _ in range(s):
        r = r @ r
    return r


def exp_map(x: AlgebraElement, t: float = 1.0) -> GroupElement:
    """Matrix exponential of t*X, validated as a group element."""
    return group_from_matrix(_expm(t * x.matrix))


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return group_from_matrix(g1.matrix @ g2.matrix)


def inverse(g: GroupElement) -> GroupElement:
    return group_from_matrix(np.linalg.inv(g.matrix))


# --------------------------------------------------------------------------
# Actions
# --------------------------------------------------------------------------

def _lift(p: PlanePoint, sheet: int) -> tuple[float, float, float]:
    """(x, y, sheet*r): the first three entries of the cone lift q = (x, y, sheet*r, 1)."""
    if sheet not in (1, -1):
        raise SymmetryError("sheet must be +1 or -1")
    px, py = p.x, p.y
    return px, py, sheet * math.hypot(px, py)


def _chart_point(x: float, y: float, w: float, lift: tuple) -> PlanePoint:
    """The plane point (x/w, y/w) of an image u = (x, y, ., w) of the cone lift
    q = (*lift, 1), refused where w vanishes against |q| (the image leaves the
    chart W != 0) or where the point is the cone vertex."""
    px, py, pz = lift
    if abs(w) <= CHART_TOL * math.sqrt(px * px + py * py + pz * pz + 1.0):
        raise ChartExitError("image leaves the affine chart")
    x, y = x / w, y / w
    if math.hypot(x, y) <= 1e-12:
        raise ConeVertexError("image crosses the cone vertex")
    return PlanePoint(x, y)


def act_plane(g: GroupElement, p: PlanePoint, sheet: int = 1) -> PlanePoint:
    """Projective action through the cone lift q = (x, y, sheet*r, 1): q -> A q / (lam + b.q),
    each row times q summed as (x, z) terms plus (y, 1) terms, as numpy's 4x4 matmul pairs them."""
    lift = px, py, pz = _lift(p, sheet)
    (a0, a1, a2, a3), (b0, b1, b2, b3), _, (w0, w1, w2, w3) = g.rows
    return _chart_point((a0 * px + a2 * pz) + (a1 * py + a3), (b0 * px + b2 * pz) + (b1 * py + b3),
                        (w0 * px + w2 * pz) + (w1 * py + w3), lift)


def act_dual(g: GroupElement, v: MinkVec) -> MinkVec:
    """Dual action on orbit triples: p -> (lam * p + b^T) A^{-1}.

    A group element maps planes missing the cone vertex to planes missing
    the vertex, so this action is globally affine on the dual space.
    """
    row = g.lam * np.array([v.a, v.b, v.c]) + g.b
    image = np.linalg.solve(g.A.T, row)
    return MinkVec(float(image[0]), float(image[1]), float(image[2]))


def vf_plane(x: AlgebraElement, p: PlanePoint, sheet: int = 1) -> tuple[float, float]:
    """Infinitesimal plane action: gamma'(0) for gamma(t) = pi(e^{tX} q), as (vx, vy):
    u[:2] - (x, y) u[3] for u = matrix @ q, each row summed as in act_plane."""
    q, x2, x3, x4, x5, x6, x7 = _entries(x)
    px, py, pz = _lift(p, sheet)
    u3 = (x5 * px + x7 * pz) + (x6 * py - 3.0 * q)
    return ((q * px + x3 * pz) - x2 * py - px * u3, (x2 * px + x4 * pz) + q * py - py * u3)


def _entries(x: AlgebraElement) -> tuple[float, ...]:
    """(q, x2, ..., x7), q = x1/4: the entries that fill the generator's matrix."""
    return (float(x.x1) / 4.0, float(x.x2), float(x.x3), float(x.x4), float(x.x5),
            float(x.x6), float(x.x7))


def _dual_field(m: tuple, a, b, c) -> tuple:
    """The dual field at (a, b, c) of the generator with entries m: the first
    three entries of w + (a, b, c, 0) w[3], w = -(a, b, c, -1) @ matrix, each
    product's terms summed in row order; entries and coordinates are floats.
    """
    q, x2, x3, x4, x5, x6, x7 = m
    w3 = -3.0 * q
    return (a * w3 - (a * q + b * x2 + c * x3 - x5),
            b * w3 - (b * q - a * x2 + c * x4 - x6),
            c * w3 - (a * x3 + b * x4 + c * q - x7))


def vf_dual(x: AlgebraElement, v: MinkVec) -> MinkVec:
    """Infinitesimal dual action: gamma'(0) for gamma(t) = pi(p e^{-tX})."""
    return MinkVec(*_dual_field(_entries(x), v.a, v.b, v.c))


def bracket(x1: AlgebraElement, x2: AlgebraElement) -> AlgebraElement:
    """Commutator, re-expressed in (x1..x7) coordinates."""
    c = x1.matrix @ x2.matrix - x2.matrix @ x1.matrix
    return algebra_from_matrix(c)


def fixed_energy_algebra(energy: float) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """Three generators preserving the family of orbits with this energy.

    Plane fields are evaluated on the sheet opposite in sign to the
    energy; for negative energy they are the rotation field and the two
    fields r(d_x + E x d_r), r(d_y + E y d_r), for positive energy the
    latter two appear with flipped sign.
    """
    if energy == 0.0:
        raise SymmetryError("fixed-energy subalgebra needs a nonzero energy")
    k = abs(energy)
    g2 = algebra(x2=1.0)
    g3 = algebra(x3=1.0, x5=k)
    g4 = algebra(x4=1.0, x6=k)
    return (g2, g3, g4)


def _rk4_endpoint(field, y0: tuple, t: float, steps: int | None) -> np.ndarray:
    """RK4 endpoint of y' = field(y) after time t, by default in max(200, ceil(2000|t|)) steps."""
    if steps is None:
        steps = max(200, math.ceil(abs(t) * 2000))
    return rk4(field, y0, t / steps, steps)[-1]


def flow(x: AlgebraElement, p: PlanePoint, t: float, sheet: int = 1,
         steps: int | None = None) -> PlanePoint:
    """RK4 endpoint of the plane flow of X; cross-validates act_plane o exp.

    Integrates the linear field u' = X u from the cone lift u = (x, y, sheet*r, 1),
    each row summed in column order, and projects the endpoint once, through
    act_plane's chart and vertex checks.  e^{tX} is defined for every t, so the
    flow is too: a path may cross the line at infinity W = 0 on the way, and
    only an endpoint on that line raises ChartExitError.
    """
    q, x2, x3, x4, x5, x6, x7 = _entries(x)
    w3 = -3.0 * q

    def field(u: tuple) -> tuple:
        a, b, c, w = u
        return (q * a - x2 * b + x3 * c, x2 * a + q * b + x4 * c, x3 * a + x4 * b + q * c,
                x5 * a + x6 * b + x7 * c + w3 * w)

    lift = _lift(p, sheet)
    a, b, _, w = _rk4_endpoint(field, (*lift, 1.0), t, steps).tolist()
    return _chart_point(a, b, w, lift)


def flow_dual(x: AlgebraElement, v: MinkVec, t: float, steps: int | None = None) -> MinkVec:
    """RK4 endpoint of the dual flow of X."""
    end = _rk4_endpoint(lambda w: vf_dual(x, MinkVec(*w)).as_tuple(), v.as_tuple(), t, steps)
    return MinkVec(*end.tolist())


def flow_dual_batch(xs, vs, t: float, steps: int | None = None) -> list[MinkVec]:
    """RK4 endpoints of the dual flows of xs[i] from vs[i], integrated in one pass
    as one column of 3n coordinates (all a, all b, all c).  Each element goes
    through `_dual_field`'s operations in its order (a * -x2 + b * q is
    b * q - a * x2 exactly), so each endpoint is flow_dual(xs[i], vs[i], t, steps)'s.
    """
    if len(xs) != len(vs) or not xs:
        raise ValueError("flow_dual_batch needs as many generators as starts, at least one")
    q, x2, x3, x4, x5, x6, x7 = map(np.array, zip(*map(_entries, xs)))
    c0, c1, c2 = np.array([(q, -x2, x3), (x2, q, x4), (x3, x4, q)])
    e, w3 = np.array([x5, x6, x7]), -3.0 * q

    def field(y: tuple) -> tuple:
        a, b, c = v = y[0].reshape(3, -1)
        return ((v * w3 - (((a * c0 + b * c1) + c * c2) - e)).ravel(),)

    end = _rk4_endpoint(field, (np.array([v.as_tuple() for v in vs]).T.ravel(),), t, steps)
    return [MinkVec(*row) for row in end.reshape(3, -1).T.tolist()]
