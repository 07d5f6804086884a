"""Relative invariants of path geometries and central-force ODE generators.

A 2-parameter family of plane curves, written locally as a 2nd-order ODE
y'' = f(x, y, p), is flat (diffeomorphic to the family of straight
lines) iff two relative invariants vanish: the fourth fiber derivative
f_pppp and a second, 9-term combination built from total derivatives.
Both are assembled purely symbolically here and decided numerically by
the seeded zero test; no hand simplification enters.

The module also generates the 2nd-order ODEs of fixed-angular-momentum
and fixed-energy central-force families, the 3rd-order ODE of a full
central-force orbit family, and the Wunschmann quadratic-null-cone
condition for such 3rd-order equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import expr as ex
from .expr import Expr, JetContext, Var, diff, is_zero, max_residual, total_derivative

Box = Mapping[str, tuple[float, float]]

WUNSCHMANN_BOX: dict[str, tuple[float, float]] = {
    "rho": (1.0, 2.0),
    "rho1": (-1.0, 1.0),
    "rho2": (-1.0, 1.0),
}

GENERATOR_BOX: dict[str, tuple[float, float]] = {
    "rho": (0.5, 3.0),
    "rho1": (-1.0, 1.0),
}

SINGULARITY_MARGIN = 0.1

# grid points of the sign checks on the rho-only guards of the generators
GUARD_SAMPLES = 128


class InvariantError(Exception):
    pass


@dataclass(frozen=True)
class SecondOrderODE:
    """y'' = f(x, y, p) with p = y', plus an evaluation box."""

    rhs: Expr
    box: dict[str, tuple[float, float]]
    x: str = "x"
    y: str = "y"
    p: str = "p"
    params: frozenset[str] = frozenset()

    def __post_init__(self):
        extra = ex.free_vars(self.rhs) - {self.x, self.y, self.p} - self.params
        if extra:
            raise InvariantError(f"RHS has stray free variables: {sorted(extra)}")

    def context(self) -> JetContext:
        return JetContext(self.rhs, (self.x, self.y, self.p), self.params)


@dataclass(frozen=True)
class ThirdOrderODE:
    """rho''' = F(theta, rho, rho', rho'') plus an evaluation box."""

    rhs: Expr
    box: dict[str, tuple[float, float]]
    theta: str = "theta"
    rho: str = "rho"
    rho1: str = "rho1"
    rho2: str = "rho2"
    params: frozenset[str] = frozenset()

    def __post_init__(self):
        names = {self.theta, self.rho, self.rho1, self.rho2}
        extra = ex.free_vars(self.rhs) - names - self.params
        if extra:
            raise InvariantError(f"RHS has stray free variables: {sorted(extra)}")

    def context(self) -> JetContext:
        return JetContext(self.rhs, (self.theta, self.rho, self.rho1, self.rho2), self.params)


# --------------------------------------------------------------------------
# Relative invariants of 2nd-order ODEs
# --------------------------------------------------------------------------

def i1(ode: SecondOrderODE) -> Expr:
    """First relative invariant: f_pppp (vanishes iff f is cubic in p)."""
    e = ode.rhs
    for _ in range(4):
        e = diff(e, ode.p)
    return e


def i2(ode: SecondOrderODE) -> Expr:
    """Second relative invariant:
    D^2 f_pp - 4 D f_py + f_p (4 f_py - D f_pp) - 3 f_pp f_y + 6 f_yy."""
    ctx = ode.context()
    f = ode.rhs
    f_p = diff(f, ode.p)
    f_pp = diff(f_p, ode.p)
    f_y = diff(f, ode.y)
    f_py = diff(f_p, ode.y)
    f_yy = diff(f_y, ode.y)
    d_fpp = total_derivative(f_pp, ctx)
    d2_fpp = total_derivative(d_fpp, ctx)
    d_fpy = total_derivative(f_py, ctx)
    return ex.add(
        d2_fpp,
        ex.mul(-4, d_fpy),
        ex.mul(f_p, ex.sub(ex.mul(4, f_py), d_fpp)),
        ex.mul(-3, f_pp, f_y),
        ex.mul(6, f_yy),
    )


def flatness_residual(ode: SecondOrderODE, seed: int = ex.ZERO_TEST_SEED) -> float:
    """Largest scaled residual of the two invariants over the box."""
    r1 = max_residual(i1(ode), ode.box, seed=seed)
    r2 = max_residual(i2(ode), ode.box, seed=seed)
    return max(r1, r2)


def is_flat(ode: SecondOrderODE) -> bool:
    """Both relative invariants vanish identically on the box."""
    return is_zero(i1(ode), ode.box) and is_zero(i2(ode), ode.box)


# --------------------------------------------------------------------------
# Central-force generators
# --------------------------------------------------------------------------

def power_force(alpha, scale=-1) -> Expr:
    """Power-law radial force scale * r^alpha as an expression in r."""
    return ex.mul(scale, ex.pow_(Var("r"), _as_number(alpha)))


def power_potential(alpha, scale=-1) -> Expr:
    """Potential with V' = -f for the power-law force scale * r^alpha."""
    a = _as_number(alpha)
    if a == -1:
        return ex.mul(-scale, ex.ln(Var("r")))
    step = a + 1 if isinstance(a, Fraction) else a + 1.0
    return ex.div(ex.mul(-scale, ex.pow_(Var("r"), step)), ex.const(step))


def kepler_force() -> Expr:
    return power_force(-2)


def kepler_potential() -> Expr:
    return power_potential(-2)


def _as_number(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    if isinstance(x, float) and (2 * x).is_integer():
        return Fraction(int(2 * x), 2)
    return x


def _force_of_rho(force: Expr) -> Expr:
    """Substitute r = 1/rho into an expression in r."""
    return ex.subst(force, "r", ex.div(1, Var("rho")))


def fixed_m_ode(force: Expr, m: float) -> SecondOrderODE:
    """Orbit ODE of a central force at fixed angular momentum:
    rho'' = -f(1/rho) / (M^2 rho^2) - rho, in jet variables (theta, rho, rho1)."""
    if m == 0:
        raise InvariantError("angular momentum must be nonzero")
    m2 = _as_number(m) ** 2
    rho = Var("rho")
    rhs = ex.sub(ex.neg(ex.div(_force_of_rho(force), ex.mul(m2, ex.pow_(rho, 2)))), rho)
    return SecondOrderODE(rhs, dict(GENERATOR_BOX), x="theta", y="rho", p="rho1")


def fixed_e_ode(force: Expr, potential: Expr, energy, box: Box | None = None) -> SecondOrderODE:
    """Orbit ODE of a central force at fixed energy, eliminating M through
    M^2 = 2 (E - V) / (rho'^2 + rho^2):
    rho'' = -rho - f(1/rho) (rho'^2 + rho^2) / (2 rho^2 (E - V(1/rho)))."""
    rho, rho1 = Var("rho"), Var("rho1")
    e_val = ex.const(_as_number(energy))
    gap = ex.sub(e_val, _force_of_rho(potential))
    rhs = ex.sub(
        ex.neg(rho),
        ex.div(
            ex.mul(_force_of_rho(force), ex.add(ex.pow_(rho1, 2), ex.pow_(rho, 2))),
            ex.mul(2, ex.pow_(rho, 2), gap),
        ),
    )
    ode = SecondOrderODE(rhs, dict(box or GENERATOR_BOX), x="theta", y="rho", p="rho1")
    _check_positive(gap, ode.box)
    return ode


def _grid_values(e: Expr, box: Box) -> list[tuple[float, float]]:
    # expressions guarded here depend on rho alone
    names = sorted(ex.free_vars(e))
    if not names:
        return [(0.0, ex.evaluate(e, {}))]
    (name,) = names
    lo, hi = box[name]
    out = []
    for i in range(GUARD_SAMPLES):
        x = lo + (hi - lo) * i / (GUARD_SAMPLES - 1)
        out.append((x, ex.evaluate(e, {name: x})))
    return out


def _check_positive(e: Expr, box: Box):
    for x, v in _grid_values(e, box):
        if v <= 0.0:
            raise InvariantError(f"E - V is not positive on the box (at rho={x})")


def central_3rd_order(force_rho: Expr) -> ThirdOrderODE:
    """3rd-order ODE of the full orbit family of a central force, with the
    force given as a function of rho = 1/r:
    rho''' = rho' [ (rho'' + rho)(f'(rho)/f(rho) - 2/rho) - 1 ]."""
    rho, rho1, rho2 = Var("rho"), Var("rho1"), Var("rho2")
    stray = ex.free_vars(force_rho) - {"rho"}
    if stray:
        raise InvariantError(f"force must be an expression in rho only, got {sorted(stray)}")
    f_prime = diff(force_rho, "rho")
    bracket = ex.sub(ex.div(f_prime, force_rho), ex.div(2, rho))
    rhs = ex.mul(rho1, ex.sub(ex.mul(ex.add(rho2, rho), bracket), ex.const(1)))
    box = dict(WUNSCHMANN_BOX)
    _check_nonvanishing(force_rho, box)
    return ThirdOrderODE(rhs, box)


def _check_nonvanishing(e: Expr, box: Box):
    values = _grid_values(e, box)
    signs = {math.copysign(1.0, v) for _, v in values if v != 0.0}
    if len(signs) > 1 or any(abs(v) <= 1e-9 * (1.0 + abs(x)) for x, v in values):
        raise InvariantError("force vanishes inside the box")


# --------------------------------------------------------------------------
# Wunschmann condition for 3rd-order ODEs
# --------------------------------------------------------------------------

def wunschmann_residual(ode: ThirdOrderODE) -> Expr:
    """Left side of F_rho + (D - (2/3) F_rho'') K = 0 with
    K = (1/6) D F_rho'' - (1/9) F_rho''^2 - (1/2) F_rho'.

    Vanishes iff the family's null cones are quadratic, i.e. the orbit
    space carries a conformal Lorentzian metric.
    """
    ctx = ode.context()
    f = ode.rhs
    f_r2 = diff(f, ode.rho2)
    f_r1 = diff(f, ode.rho1)
    f_r = diff(f, ode.rho)
    k = ex.add(
        ex.mul(Fraction(1, 6), total_derivative(f_r2, ctx)),
        ex.mul(Fraction(-1, 9), ex.pow_(f_r2, 2)),
        ex.mul(Fraction(-1, 2), f_r1),
    )
    return ex.add(f_r, total_derivative(k, ctx), ex.mul(Fraction(-2, 3), f_r2, k))


# --------------------------------------------------------------------------
# Power-law scans
# --------------------------------------------------------------------------

SCAN_KINDS = ("wunschmann", "fixedE-flat", "fixedM-flat", "zeroE-flat")

ZERO_E_BOX: dict[str, tuple[float, float]] = {"rho": (1.2, 3.0), "rho1": (-1.0, 1.0)}


@dataclass(frozen=True)
class ScanRow:
    alpha: float
    passed: bool
    residual: float


def _scan_sign(alpha) -> int:
    # keep E - V positive: attractive force for alpha <= -1, repulsive above
    return -1 if alpha <= -1 else 1


def power_law_scan(alphas: Sequence, which: str, seed: int = ex.ZERO_TEST_SEED) -> list[ScanRow]:
    """Per-exponent flatness/Wunschmann table for forces +/- r^alpha.

    `passed` means the tested residual vanishes identically (flat family,
    or Wunschmann condition satisfied).
    """
    if which not in SCAN_KINDS:
        raise InvariantError(f"unknown scan kind {which!r}")
    rows = []
    for alpha in alphas:
        a = _as_number(alpha)
        if which == "wunschmann":
            force_rho = ex.pow_(Var("rho"), -a if isinstance(a, Fraction) else -float(a))
            ode3 = central_3rd_order(force_rho)
            residual = max_residual(wunschmann_residual(ode3), ode3.box, seed=seed)
        elif which == "fixedM-flat":
            ode = fixed_m_ode(power_force(a), 1)
            residual = flatness_residual(ode, seed=seed)
        elif which == "fixedE-flat":
            sign = _scan_sign(a)
            ode = fixed_e_ode(power_force(a, sign), power_potential(a, sign), 1)
            residual = flatness_residual(ode, seed=seed)
        else:  # zeroE-flat
            sign = _scan_sign(a)
            ode = fixed_e_ode(power_force(a, sign), power_potential(a, sign), 0, box=ZERO_E_BOX)
            residual = flatness_residual(ode, seed=seed)
        rows.append(ScanRow(float(alpha), residual <= ex.ZERO_TEST_THRESHOLD, residual))
    return rows


def kepler_fixed_e_boxes(energy: float) -> list[dict[str, tuple[float, float]]]:
    """Evaluation boxes for the fixed-energy family: the generator box,
    cut by a margin around the invariant's pole at rho = -E."""
    lo, hi = GENERATOR_BOX["rho"]
    rho1 = GENERATOR_BOX["rho1"]
    pole, margin = -energy, SINGULARITY_MARGIN
    if lo < pole - margin and pole + margin < hi:
        return [{"rho": (lo, pole - margin), "rho1": rho1},
                {"rho": (pole + margin, hi), "rho1": rho1}]
    return [{"rho": (lo, hi), "rho1": rho1}]
