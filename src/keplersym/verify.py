"""Deterministic, seeded verification suites.

Each suite is a list of named cases; a case computes a residual with an
independent oracle (closed forms, dense sampling, integration, exact
rational arithmetic) and compares it against a pinned tolerance.  All
randomness flows from a single seed; case order and JSON output are
deterministic, so reports with the same seed are byte-identical apart
from the wall-time field.

To add a case, write `case_<name>(seed, rng)` under `@case(suite, tol=...)`,
which registers it and pins its tolerance; the report calls it `<name>`,
and `rng` is seeded from the seed and that name.  The body returns its
residual, or `(residual, detail)`, and passes when the residual is at most
`tol` (NaN fails).  It raises `CaseFailed(residual, detail)` to fail
whatever the residual; any other exception is the `error` verdict.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import invariants as inv
from . import kmaps
from . import theorems as th
from .minkowski import MinkVec, PlaneType, classify_plane, pencil_classify, point_plane
from .orbit import (
    KeplerOrbit,
    PlanePoint,
    conic_residual,
    from_abc,
    fit,
    membership_residual,
    newton_flow,
    newton_grid,
    sample,
)
from .symmetry import (
    AlgebraElement,
    SymmetryError,
    act_dual,
    act_plane,
    basis,
    bracket,
    compose,
    exp_map,
    fixed_energy_algebra,
    flow_dual_batch,
    vf_dual,
    vf_plane,
)

SUITES = ("symmetry", "duality", "invariants", "theorems", "maps")


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str  # pass | fail | error
    residual: float | None
    tol: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    cases: list[CaseResult]
    wall_time_s: float

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "error": 0}
        for c in self.cases:
            counts[c.status] += 1
        counts["total"] = len(self.cases)
        return counts

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": [
                {
                    "name": c.name,
                    "status": c.status,
                    # JSON has no inf or nan: a non-finite residual is written as null
                    "residual": None if c.residual is None or not math.isfinite(c.residual)
                    else c.residual,
                    "tol": c.tol,
                    **({"detail": c.detail} if c.detail else {}),
                }
                for c in self.cases
            ],
            "summary": self.summary,
            "wall_time_s": self.wall_time_s,
        }


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


class CaseFailed(Exception):
    """`CaseFailed(residual, detail)`: the case fails whatever the residual."""


# suite -> its cases in definition order, the module-level `case_<name>` objects
_SUITE_CASES: dict[str, list] = {suite: [] for suite in SUITES}


def case(suite: str, tol: float):
    """Register `case_<name>(seed, rng)` in `suite`, judged against `tol`.

    The module-level name is bound to the registered function, which
    takes `(seed, tol=<pinned>)` and returns a `CaseResult`.
    """

    def register(body):
        name = body.__name__.removeprefix("case_")

        @functools.wraps(body)
        def run(seed: int, tol: float = tol) -> CaseResult:
            try:
                out = body(seed, _rng(seed, name))
            except CaseFailed as failed:
                residual, detail = failed.args
                return CaseResult(name, "fail", float(residual), tol, detail)
            except Exception as err:  # a broken case is reported, not raised
                return CaseResult(name, "error", None, tol, detail=repr(err))
            residual, detail = out if isinstance(out, tuple) else (out, "")
            status = "pass" if residual <= tol else "fail"
            return CaseResult(name, status, float(residual), tol, detail)

        _SUITE_CASES[suite].append(run)
        return run

    return register


def _worst(*residuals: float) -> float:
    """The largest residual, a NaN counting as infinite (`max` would drop it)."""
    return max(math.inf if r != r else r for r in residuals)


def _step_doubled(run, first: int, cap: int, target: float) -> tuple[np.ndarray, int, float]:
    """Step doubling (Richardson; Hairer, Norsett and Wanner, *Solving ODEs I*,
    II.4): `run(n)` gives an RK4 oracle's signed residuals after n steps over a
    fixed span, along a last axis of the n + 1 grid times or of the endpoint
    alone.  Returns (r_N, N, estimate) at the first N of first, 2 first, ...
    whose estimate max|r_N - r_(N/2)| / 15 on the shared grid is at most
    `target`; reaching `cap` fails the case.
    """
    n, prev, estimate = first, run(first), math.inf
    while 2 * n <= cap:
        n *= 2
        r = run(n)
        estimate = float(np.max(np.abs(r[..., ::2] - prev))) / 15.0
        if estimate <= target:
            return r, n, estimate
        prev = r
    raise CaseFailed(float(np.max(np.abs(prev))),
                     f"steps={n} reached the cap {cap} with estimate {estimate:.1e} > {target:.0e}")


def _random_orbit(rng, c_range=(0.5, 2.0), e_range=(0.0, 1.6)) -> KeplerOrbit:
    c = rng.uniform(*c_range)
    ecc = rng.uniform(*e_range)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return KeplerOrbit(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)


def _random_ellipse(rng, e_max=0.9) -> KeplerOrbit:
    return _random_orbit(rng, e_range=(0.0, e_max))


# --------------------------------------------------------------------------
# symmetry suite
# --------------------------------------------------------------------------

_PLANE_FIELDS = [
    lambda x, y, r: (x, y),
    lambda x, y, r: (-y, x),
    lambda x, y, r: (r, 0.0),
    lambda x, y, r: (0.0, r),
    lambda x, y, r: (-x * x, -x * y),
    lambda x, y, r: (-x * y, -y * y),
    lambda x, y, r: (-r * x, -r * y),
]

_DUAL_FIELDS = [
    lambda a, b, c: (-a, -b, -c),
    lambda a, b, c: (-b, a, 0.0),
    lambda a, b, c: (-c, 0.0, -a),
    lambda a, b, c: (0.0, -c, -b),
    lambda a, b, c: (1.0, 0.0, 0.0),
    lambda a, b, c: (0.0, 1.0, 0.0),
    lambda a, b, c: (0.0, 0.0, 1.0),
]


@case("symmetry", tol=1e-12)
def case_vf_plane_closed_forms(seed: int, rng) -> float:
    gens = basis()
    worst = 0.0
    for _ in range(200):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        if math.hypot(x, y) < 1e-3:
            continue
        p = PlanePoint(float(x), float(y))
        for gen, field in zip(gens, _PLANE_FIELDS):
            got = vf_plane(gen, p)
            want = field(x, y, p.r)
            err = math.hypot(got[0] - want[0], got[1] - want[1]) / (1.0 + math.hypot(*want))
            worst = _worst(worst, err)
    return worst


@case("symmetry", tol=1e-12)
def case_vf_dual_closed_forms(seed: int, rng) -> float:
    gens = basis()
    worst = 0.0
    for _ in range(200):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        v = MinkVec(float(a), float(b), float(c))
        for gen, field in zip(gens, _DUAL_FIELDS):
            got = vf_dual(gen, v).as_tuple()
            want = field(a, b, c)
            err = _worst(*(abs(g - w) for g, w in zip(got, want))) / (1.0 + max(map(abs, want)))
            worst = _worst(worst, err)
    return worst


@case("symmetry", tol=1e-8)
def case_commuting_square(seed: int, rng) -> tuple[float, str]:
    worst = 0.0
    chart_exits = 0
    checked = 0
    while checked < 100:
        x = AlgebraElement(*rng.uniform(-0.3, 0.3, size=7))
        g = exp_map(x, 1.0)
        o = _random_orbit(rng, c_range=(0.6, 1.6), e_range=(0.0, 1.4))
        image = act_dual(g, o.dual())
        for p in sample(o, 20):
            try:
                q = act_plane(g, p, sheet=1)
            except SymmetryError:
                chart_exits += 1
                continue
            worst = _worst(worst, membership_residual(image, q.x, q.y))
        checked += 1
    return worst, f"chart_exits={chart_exits}"


@case("symmetry", tol=1e-6)
def case_bracket_closure(seed: int, rng) -> float:
    gens = basis()
    flat = [g.matrix.ravel() for g in gens]
    worst = 0.0
    for i in range(7):
        for j in range(i + 1, 7):
            br = bracket(gens[i], gens[j])
            stack = np.vstack(flat + [br.matrix.ravel()])
            s = np.linalg.svd(stack, compute_uv=False)
            worst = _worst(worst, s[7] / s[6])  # singular-value gap >= 1e6
    return worst


@case("symmetry", tol=1e-11)
def case_one_param_subgroup(seed: int, rng) -> float:
    worst = 0.0
    for _ in range(20):
        x = AlgebraElement(*rng.uniform(-0.8, 0.8, size=7))
        t1, t2 = rng.uniform(-0.6, 0.6, size=2)
        g = compose(exp_map(x, float(t1)), exp_map(x, float(t2)))
        h = exp_map(x, float(t1 + t2))
        worst = _worst(worst, float(np.max(np.abs(g.matrix - h.matrix))))
    return worst


QUADRIC_TARGET = 1e-11  # the quadric case's tolerance / 100


@case("symmetry", tol=1e-9)
def case_fixed_energy_quadric(seed: int, rng) -> tuple[float, str]:
    energies, gens, starts = [], [], []
    for energy in (-1.0, 0.5, 2.0):
        k = abs(energy)
        for gen in fixed_energy_algebra(energy):
            for _ in range(3):
                a, b = rng.uniform(-1.0, 1.0, size=2)
                c = k + math.sqrt(energy * energy + a * a + b * b)
                energies.append(energy)
                gens.append(gen)
                starts.append(MinkVec(float(a), float(b), float(c)))
    energy = np.array(energies)

    def residuals(steps: int) -> np.ndarray:
        a, b, c = np.array([v.as_tuple() for v in flow_dual_batch(gens, starts, 0.8, steps)]).T
        return (a * a + b * b - (c - np.abs(energy)) ** 2 + energy * energy)[:, None]

    r, steps, estimate = _step_doubled(residuals, 100, 1600, QUADRIC_TARGET)
    return float(np.max(np.abs(r))), f"steps={steps}, estimate={estimate:.1e}"


# --------------------------------------------------------------------------
# duality suite
# --------------------------------------------------------------------------

@case("duality", tol=1e-8)
def case_dual_curve_agreement(seed: int, rng) -> float:
    worst = 0.0
    for _ in range(20):
        o = _random_orbit(rng)
        circle = th.dual_of_orbit(o)
        curve = th.orbit_curve(o)
        lo, hi = curve.domain
        for t in np.linspace(lo + 1e-3, hi - 1e-3, 20):
            a, b = th.dual_point_of_tangent(curve, float(t))
            worst = _worst(worst, abs(math.hypot(a - circle.cx, b - circle.cy) - circle.radius))
    return worst


@case("duality", tol=0.5)
def case_parabolic_point_planes(seed: int, rng) -> float:
    failures = 0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        if x == 0.0 and y == 0.0:
            continue
        if classify_plane(point_plane(float(x), float(y))) is not PlaneType.PARABOLIC:
            failures += 1
    return float(failures)


@case("duality", tol=0.5)
def case_ellipse_pencil_counts(seed: int, rng) -> float:
    failures = 0
    done = 0
    while done < 100:
        o1 = _random_ellipse(rng, e_max=0.85)
        o2 = _random_ellipse(rng, e_max=0.85)
        d = o2.dual() - o1.dual()
        if abs(math.hypot(d.a, d.b) - abs(d.c)) < 1e-4:
            continue  # the grid oracle cannot certify near-tangency
        predicted = pencil_classify(o1.dual(), o2.dual()).common_points
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        gap = d.a * np.cos(theta) + d.b * np.sin(theta) + d.c
        signs = np.sign(gap)
        crossings = int(np.sum(signs != np.roll(signs, -1))) - int(np.sum(signs == 0))
        observed = crossings if crossings else (1 if np.min(np.abs(gap)) <= 1e-7 else 0)
        if predicted != observed:
            failures += 1
        done += 1
    return float(failures)


# --------------------------------------------------------------------------
# invariants suite
# --------------------------------------------------------------------------

def _kepler_fixed_e(energy: float) -> inv.ODE:
    box = inv.kepler_fixed_e_boxes(energy)[-1]
    return inv.fixed_e_ode(inv.kepler_force(), inv.kepler_potential(), energy, box=box)


@case("invariants", tol=1e-10)
def case_fixed_e_i2_closed_form(seed: int, rng) -> float:
    from .expr import Var

    worst = 0.0
    for energy in (-1, Fraction(1, 2), 2):
        ode = _kepler_fixed_e(float(energy))
        closed = ex.div(
            ex.mul(9, ex.pow_(ex.const(energy), 2)),
            ex.pow_(ex.add(ex.const(energy), Var("rho")), 3),
        )
        gap = ex.sub(inv.i2(ode), closed)
        for box in inv.kepler_fixed_e_boxes(float(energy)):
            worst = _worst(worst, ex.max_residual(gap, box, seed=seed))
    return worst


@case("invariants", tol=ex.ZERO_TEST_THRESHOLD)
def case_fixed_e_i1_zero(seed: int, rng) -> float:
    worst = 0.0
    for energy in (-1.0, 0.5, 2.0):
        ode = _kepler_fixed_e(energy)
        worst = _worst(worst, ex.max_residual(inv.i1(ode), ode.box, seed=seed))
    return worst


@case("invariants", tol=ex.ZERO_TEST_THRESHOLD)
def case_fixed_m_flat(seed: int, rng) -> float:
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        ode = inv.fixed_m_ode(inv.kepler_force(), m)
        worst = _worst(worst, inv.flatness_residual(ode, seed=seed))
    return worst


@case("invariants", tol=1e-12)
def case_fixed_e_elimination_gate(seed: int, rng) -> float:
    worst = 0.0
    for energy, text in [(-1, "(rho^2 + rho1^2)/(2*(rho - 1)) - rho"),
                         (2, "(rho^2 + rho1^2)/(2*(rho + 2)) - rho")]:
        ode = _kepler_fixed_e(float(energy))
        gap = ex.sub(ode.rhs, ex.parse(text))
        for box in inv.kepler_fixed_e_boxes(float(energy)):
            worst = _worst(worst, ex.max_residual(gap, box, seed=seed))
    return worst


@case("invariants", tol=ex.ZERO_TEST_THRESHOLD)
def case_type_ii_witness(seed: int, rng) -> tuple[float, str]:
    box = {"x": (-1.0, 1.0), "y": (0.5, 2.0), "p": (-1.0, 1.0)}
    ode = inv.SecondOrderODE(ex.parse("(x*p - y)^3"), dict(box))
    r1 = ex.max_residual(inv.i1(ode), box, seed=seed)
    r2 = ex.max_residual(inv.i2(ode), box, seed=seed)
    detail = f"i2_residual={r2:.3e}"
    if not r2 > 1e-3:  # the witness must not be flat
        raise CaseFailed(r1, detail)
    return r1, detail


@case("invariants", tol=0.5)
def case_wunschmann_scan(seed: int, rng) -> tuple[float, str]:
    grid = [-3, -2.5, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3]
    rows = inv.power_law_scan(grid, "wunschmann", seed=seed)
    passing = {row.alpha for row in rows if row.passed}
    failures = 0 if passing == {-2.0, 1.0} else 1
    return float(failures), f"passing={sorted(passing)}"


@case("invariants", tol=0.5)
def case_fixed_m_scan(seed: int, rng) -> tuple[float, str]:
    rows = inv.power_law_scan([-3, -2, -1, 1, 2], "fixedM-flat", seed=seed)
    passing = {row.alpha for row in rows if row.passed}
    failures = 0 if passing == {-2.0, -3.0} else 1
    return float(failures), f"passing={sorted(passing)}"


@case("invariants", tol=0.5)
def case_zero_energy_scan(seed: int, rng) -> tuple[float, str]:
    rows = inv.power_law_scan([-2, -1, 1, 2], "zeroE-flat", seed=seed)
    failing = {row.alpha for row in rows if not row.passed}
    failures = 0 if failing == {-1.0} else 1
    return float(failures), f"failing={sorted(failing)}"


@functools.cache
def _zero_energy_flatness(seed: int) -> float:
    ode = inv.fixed_e_ode(inv.kepler_force(), inv.kepler_potential(), 0)
    return inv.flatness_residual(ode, seed=seed)


@case("invariants", tol=ex.ZERO_TEST_THRESHOLD)
def case_zero_energy_kepler_flat(seed: int, rng) -> float:
    return _zero_energy_flatness(seed)


# --------------------------------------------------------------------------
# theorems suite
# --------------------------------------------------------------------------

@case("theorems", tol=1e-10)
def case_lambert_random(seed: int, rng) -> float:
    worst = 0.0
    for _ in range(100):
        o = _random_ellipse(rng)
        u1, u2 = rng.uniform(-math.pi, math.pi, size=2)
        sides = th.lambert_check(o, float(u1), float(u2))
        b_sq = 4.0 / (o.c**2 - o.a**2 - o.b**2)
        worst = _worst(worst, abs(sides.lhs - sides.rhs) / (1.0 + b_sq))
    return worst


@case("theorems", tol=0.5)
def case_lambert_exact_case(seed: int, rng) -> tuple[float, str]:
    # worked case (1/2, 0, 1), u = (0, pi), in exact rational arithmetic:
    # sin^2(du/2) = 1, cos u1 = 1, cos u2 = -1
    a, b, c = Fraction(1, 2), Fraction(0), Fraction(1)
    energy = (a * a + b * b - c * c) / (2 * c)
    semi_major = 1 / (2 * abs(energy))
    ecc = Fraction(1, 2)
    b_sq = 4 / (c * c - a * a - b * b)  # (2 * semi-minor)^2
    r1 = semi_major * (1 - ecc)
    r2 = semi_major * (1 + ecc)
    x1 = semi_major * (1 - ecc)
    x2 = semi_major * (-1 - ecc)
    r12_sq = (x1 - x2) ** 2
    lhs = b_sq * 1
    rhs = r12_sq - (r1 - r2) ** 2
    exact = lhs == rhs == Fraction(16, 3)
    return 0.0 if exact else 1.0, f"lhs={lhs}, rhs={rhs}"


@case("theorems", tol=1e-6)
def case_four_vertices_fig12(seed: int, rng) -> float:
    verts = th.kepler_vertices(th.circle_curve(0.6, 0.0, 1.0))
    expected = sorted([0.0, math.acos(-0.6), math.pi, 2 * math.pi - math.acos(-0.6)])
    if len(verts) != 4:
        raise CaseFailed(float(len(verts)), f"expected 4 vertices, got {len(verts)}")
    return _worst(*(abs(g - w) for g, w in zip(sorted(verts), expected)))


@case("theorems", tol=0.5)
def case_tait_kneser_fig12(seed: int, rng) -> tuple[float, str]:
    curve = th.circle_curve(0.6, 0.0, 1.0)
    report = th.tait_kneser(curve, (0.05, math.acos(-0.6) - 0.05), k=12)
    failures = (0 if report.all_nested else 1) + (0 if report.all_chords_timelike else 1)
    return float(failures), f"pairs={report.pairs}"


def _envelope_residual(env: KeplerOrbit, members) -> float:
    worst = 0.0
    for member in members:
        report = th.tangency_report(member, env)
        if not report.even_contact:
            raise CaseFailed(report.residual, "odd-multiplicity contact")
        worst = _worst(worst, report.residual)
    return worst


@case("theorems", tol=1e-7)
def case_envelope_minor_axis(seed: int, rng) -> float:
    return _envelope_residual(th.envelope_minor_axis(2.0, 1.0),
                              th.minor_axis_family(2.0, 1.0, np.linspace(-1.2, 1.2, 20)))


@case("theorems", tol=1e-7)
def case_envelope_energy(seed: int, rng) -> float:
    return _envelope_residual(th.envelope_energy(-0.5, 1.0),
                              th.energy_family(-0.5, 1.0, np.linspace(-0.9, 0.9, 20)))


@case("theorems", tol=1e-9)
def case_envelope_energy_focus(seed: int, rng) -> float:
    env = th.envelope_energy(-0.5, 1.0)
    fx, fy = th.second_focus(env)
    return math.hypot(fx - 1.0, fy - 0.0)


@case("theorems", tol=1e-6)
def case_envelope_hooke(seed: int, rng) -> float:
    env = th.envelope_hooke(math.pi)
    worst = abs(env.half_gap - 1.0)
    members = th.hooke_family(math.pi, np.linspace(-1.0, 1.0, 20))
    for curve in members:
        ys = curve.point(np.linspace(0, 2 * math.pi, 2001))[1]
        worst = _worst(worst, abs(ys.max() - env.half_gap), abs(ys.min() + env.half_gap))
    kepler_env = th.envelope_minor_axis(2.0, 1.0)
    for curve in members[::4]:
        pts = [kmaps.square(PlanePoint(*curve.point(t)))
               for t in np.linspace(0.1, 0.1 + 2 * math.pi, 24, endpoint=False)]
        res = fit(pts)
        report = th.tangency_report(res.orbit, kepler_env)
        worst = _worst(worst, report.residual)
    return worst


NEWTON_ORBITS = ((0.0, 0.0, 1.0), (0.5, 0.0, 1.0), (2.0, 0.0, 1.0))
NEWTON_TARGET = 1e-10  # newton_conservation's tolerance / 100, the pair's smaller


@functools.cache
def _newton_residuals() -> tuple[float, float, str]:
    """(membership, conservation, detail) of the RK4 Newton oracle; seed-free.
    Each orbit spans newton_flow's default run, in the steps step doubling picks."""
    worst, steps, estimates = [], [], []
    for triple in NEWTON_ORBITS:
        o = from_abc(*triple)
        dt, cap = newton_grid(o)

        def residuals(n: int) -> np.ndarray:
            traj = newton_flow(o, steps=n, dt=cap * dt / n)
            return np.array([conic_residual(o, *traj.pos.T, traj.radii()),
                             traj.energies() - o.energy,
                             np.abs(traj.ang_momenta()) - o.ang_momentum])

        r, n, estimate = _step_doubled(residuals, 500, cap, NEWTON_TARGET)
        worst.append(np.max(np.abs(r), axis=1))
        steps.append(n)
        estimates.append(estimate)
    membership, energy, momentum = np.max(worst, axis=0)  # a NaN propagates
    return (float(membership), float(np.max([energy, momentum])),
            f"steps={steps}, estimate={max(estimates):.1e}")


@case("theorems", tol=1e-6)
def case_newton_membership(seed: int, rng) -> tuple[float, str]:
    membership, _, detail = _newton_residuals()
    return membership, detail


@case("theorems", tol=1e-8)
def case_newton_conservation(seed: int, rng) -> tuple[float, str]:
    _, conservation, detail = _newton_residuals()
    return conservation, detail


@case("theorems", tol=1e-9)
def case_curved_quadric(seed: int, rng) -> float:
    worst = th.curved_quadric_residual(MinkVec(0, 0, 1), -0.5, 0.0)
    worst = _worst(worst, th.curved_quadric_residual(MinkVec(math.sqrt(3.0), 0, -1), 1.0, 0.0))
    b_axis = 2.0
    for member in th.minor_axis_family(b_axis, 1.0, np.linspace(-1, 1, 9)):
        v = MinkVec(member.a, member.b, member.c)
        worst = _worst(worst, th.curved_quadric_residual(v, 0.0, 4.0 / b_axis**2))
    return worst


# --------------------------------------------------------------------------
# maps suite
# --------------------------------------------------------------------------

@case("maps", tol=1e-6)
def case_square_lines_flat(seed: int, rng) -> float:
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(0.4, 2.0)
        normal = np.array([math.cos(phi), math.sin(phi)])
        tangent = np.array([-normal[1], normal[0]])
        pts = [kmaps.square(PlanePoint(*(d * normal + float(t) * tangent)))
               for t in rng.uniform(-1.5, 1.5, size=20)]
        res = fit(pts)
        if res.kind != "orbit":
            raise CaseFailed(1.0, "fit degenerated")
        worst = _worst(worst, abs(res.orbit.eccentricity - 1.0))
    return worst


@case("maps", tol=ex.ZERO_TEST_THRESHOLD)
def case_square_zero_energy_flat(seed: int, rng) -> float:
    return _zero_energy_flatness(seed)


@case("maps", tol=1e-10)
def case_flatten_m_collinear(seed: int, rng) -> float:
    worst = 0.0
    dual_worst = 0.0
    for m in (0.5, 1.0, 2.0):
        c = 1.0 / (m * m)
        for _ in range(8):
            ecc = rng.uniform(0.3, 1.6)
            phi = rng.uniform(0, 2 * math.pi)
            o = from_abc(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)
            pts = [kmaps.flatten_m(p, m) for p in sample(o, 24)
                   if abs(1.0 - p.r / (m * m)) > 0.05]
            res = fit(pts)
            if res.kind != "line":
                raise CaseFailed(1.0, "image not flagged as line")
            worst = _worst(worst, res.residual)
            want = kmaps.flatten_m_dual(o.dual(), m)
            dual_worst = _worst(dual_worst, abs(res.line[0] - want.a), abs(res.line[1] - want.b))
    if dual_worst > 1e-9:
        raise CaseFailed(dual_worst, "dual prediction mismatch")
    return worst


@case("maps", tol=1e-8)
def case_hill_embedding(seed: int, rng) -> float:
    worst = 0.0
    radius_violations = 0
    for _ in range(50):
        c = rng.uniform(0.3, 2.0)
        h = math.sqrt(c * c + 2.0 * c)
        phi = rng.uniform(0, 2 * math.pi)
        o = from_abc(h * math.cos(phi), h * math.sin(phi), c)  # energy exactly +1
        images = []
        for p in sample(o, 20):
            q = kmaps.hill_embed(p, 1.0)
            if q.r >= 0.5:
                radius_violations += 1
            images.append(q)
        res = fit(images)
        if res.kind != "orbit":
            raise CaseFailed(1.0, "fit degenerated")
        want = kmaps.hill_dual(o, 1.0)
        worst = _worst(worst, abs(res.orbit.energy - (-1.0)))
        worst = _worst(
            worst,
            abs(res.orbit.a - want.a),
            abs(res.orbit.b - want.b),
            abs(res.orbit.c - want.c),
        )
        for p in sample(o, 10, branch="repelling"):
            q = kmaps.repel_embed(p, 1.0)
            if not (0.5 < q.r < 1.0):
                radius_violations += 1
    if radius_violations:
        raise CaseFailed(float(radius_violations), "image radii leave the predicted regions")
    return worst


@case("maps", tol=1e-10)
def case_parabola_chart_law(seed: int, rng) -> float:
    worst = 0.0
    done = 0
    while done < 25:
        a2, a1, a0 = rng.uniform(-2.0, 2.0, size=3)
        if abs(a2 + a0) < 0.2:
            continue
        dual = kmaps.parabola_chart_dual(float(a2), float(a1), float(a0))
        for bx in np.linspace(-1.5, 1.5, 12):
            by = a2 * bx * bx + a1 * bx + a0
            if abs(by) < 1e-3:
                continue
            q = kmaps.parabola_chart(float(bx), float(by))
            worst = _worst(worst, membership_residual(dual, q.x, q.y))
        done += 1
    return worst


def run_suite(suite: str, seed: int = 0) -> VerifyReport:
    """Run one named suite; cases are sorted by name in the report."""
    if suite not in _SUITE_CASES:
        raise ValueError(f"unknown suite {suite!r} (choose from {', '.join(SUITES)})")
    start = time.perf_counter()
    cases = sorted((fn(seed) for fn in _SUITE_CASES[suite]), key=lambda c: c.name)
    return VerifyReport(suite, seed, cases, time.perf_counter() - start)


def run_suites(suite: str, seed: int = 0) -> list[VerifyReport]:
    if suite == "all":
        return [run_suite(s, seed) for s in SUITES]
    return [run_suite(suite, seed)]
