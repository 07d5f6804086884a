"""Seeded workloads: input generators, the timed program calls, and the
independent output checks.

Every in-process workload is a closed loop with one caller.  Its inputs
come in rounds of fixed composition: the seed draws the numbers inside
each slot (coefficients, points, group elements, eccentricities) and the
order of the slots, never which slots a round holds, so the cost of a
round barely depends on the seed.  The reference checks use only numpy,
scipy and sympy, never keplersym code.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from layertrace import CASES, SUITES


def rng_for(seed: int, *keys) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream does not depend on
    # the interpreter's hash randomization
    return random.Random(f"{seed}/" + "/".join(map(str, keys)))


def _shuffled(slots: list, repeats: list, rng: random.Random) -> list:
    """Shuffle fresh slots, then put each repeat somewhere after its original."""
    order = list(slots)
    rng.shuffle(order)
    for rep in repeats:
        first = next(i for i, s in enumerate(order) if s["key"] == rep["key"])
        order.insert(rng.randint(first + 1, len(order)), rep)
    return order


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _rat(rng: random.Random, lo: int, hi: int, den: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


# ==========================================================================
# ode-queries: `ode invariants`- and `ode wunschmann`-style requests
# ==========================================================================

PARSED_BOX = {"x": (-1.0, 1.0), "y": (1.5, 3.0), "p": (-1.0, 1.0)}
GENERATOR_BOX = {"rho": (0.5, 3.0), "rho1": (-1.0, 1.0)}
ZERO_E_BOX = {"rho": (1.2, 3.0), "rho1": (-1.0, 1.0)}
WUNSCHMANN_BOX = {"rho": (1.0, 2.0), "rho1": (-1.0, 1.0), "rho2": (-1.0, 1.0)}

PARSED_TEMPLATES = (
    "(y^2 + p^2)/(2*(y + {a})) - y",
    "({a}*x*p - y)^3",
    "{a}*x*p^2 + y^3 - p/({b} + y^2)",
    "sin({a}*x)*p^3 + y*p - {b}",
    "p^2/y + {a}*p*y^2 - x",
    "sqrt({b} + p^2)*{a}/y",
    "(x^2 + y^2)*p - {a}*p^3/y",
)
FIXED_M_ALPHAS = (Fraction(-3), Fraction(-5, 2), Fraction(-2), Fraction(-3, 2), Fraction(1))
WUNSCHMANN_ALPHAS = (Fraction(-3), Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1))
# 24 requests per round; 5 of them (21%) repeat an earlier right-hand side
# of the same round: parsed templates 0 and 3, fixed-M alpha=-2,
# Wunschmann alpha=-2 and the fixed-E request.  The share is an arbitrary
# design choice, not measured traffic; run.py reports the median latency
# of repeated and of fresh requests apart, so that a cache's gain on the
# repeats is not read as a gain on every request.
ODE_REPEAT_SHARE = Fraction(5, 24)


def _point(rng: random.Random, box: dict) -> dict:
    return {n: rng.uniform(*box[n]) for n in sorted(box)}


def ode_round(seed: int, index: int) -> list[dict]:
    rng = rng_for(seed, "ode-queries", index)
    fresh = []
    for t, template in enumerate(PARSED_TEMPLATES):
        text = template.format(a=_rat(rng, 1, 9), b=_rat(rng, 1, 9))
        fresh.append({"key": f"parsed{t}", "kind": "parsed", "text": text})
    for alpha in FIXED_M_ALPHAS:
        fresh.append({"key": f"fixed_m{alpha}", "kind": "fixed_m", "alpha": str(alpha),
                      "m": str(_rat(rng, 3, 10, 5) / 2)})
    for alpha in WUNSCHMANN_ALPHAS:
        fresh.append({"key": f"wunschmann{alpha}", "kind": "wunschmann", "alpha": str(alpha),
                      "k": str(_rat(rng, 1, 9))})
    fresh.append({"key": "fixed_e", "kind": "fixed_e", "alpha": "-2",
                  "energy": str(Fraction(rng.randint(2, 8), 4))})
    fresh.append({"key": "zero_e", "kind": "zero_e", "alpha": "-2", "energy": "0"})
    repeats = [dict(s, repeat=True) for s in fresh
               if s["key"] in ("parsed0", "parsed3", "fixed_m-2", "wunschmann-2", "fixed_e")]
    ops = _shuffled(fresh, repeats, rng)
    boxes = {"parsed": PARSED_BOX, "fixed_m": GENERATOR_BOX, "fixed_e": GENERATOR_BOX,
             "zero_e": ZERO_E_BOX, "wunschmann": WUNSCHMANN_BOX}
    out = []
    for op in ops:
        op = dict(op, point=_point(rng, boxes[op["kind"]]))
        if op["kind"] != "parsed":
            op["point"]["theta"] = rng.uniform(-1.0, 1.0)
        out.append(op)
    return out


def ode_run(op: dict, ex, inv) -> tuple:
    """One request: build the right-hand side, its invariants, evaluate once."""
    kind = op["kind"]
    if kind == "wunschmann":
        force = ex.mul(Fraction(op["k"]), ex.pow_(ex.var("rho"), -Fraction(op["alpha"])))
        exprs = (inv.wunschmann_residual(inv.central_3rd_order(force)),)
    else:
        if kind == "parsed":
            ode = inv.SecondOrderODE(ex.parse(op["text"]), dict(PARSED_BOX))
        elif kind == "fixed_m":
            ode = inv.fixed_m_ode(inv.power_force(Fraction(op["alpha"])), Fraction(op["m"]))
        else:
            alpha = Fraction(op["alpha"])
            sign = -1 if alpha <= -1 else 1
            box = ZERO_E_BOX if kind == "zero_e" else None
            ode = inv.fixed_e_ode(inv.power_force(alpha, sign), inv.power_potential(alpha, sign),
                                  Fraction(op["energy"]), box=box)
        exprs = (inv.i1(ode), inv.i2(ode))
    return tuple(ex.evaluate_tracked(e, op["point"])[0] for e in exprs)


def ode_digest(op: dict, out: tuple) -> str:
    return _digest(tuple(float(v).hex() for v in out))


class OdeReference:
    """i1/i2 and the Wunschmann residual rebuilt in sympy from their
    defining formulas, evaluated exactly at the request's point."""

    def __init__(self):
        import sympy as sp
        from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

        self.sp = sp
        self._parse = lambda text: parse_expr(
            text, transformations=standard_transformations + (convert_xor,))

    def _tresse(self, f, x, y, p):
        sp = self.sp

        def total(e):
            return sp.diff(e, x) + p * sp.diff(e, y) + f * sp.diff(e, p)

        fp = sp.diff(f, p)
        fpp = sp.diff(fp, p)
        fy = sp.diff(f, y)
        fpy = sp.diff(fp, y)
        fyy = sp.diff(fy, y)
        dfpp = total(fpp)
        i1 = sp.diff(f, p, 4)
        i2 = total(dfpp) - 4 * total(fpy) + fp * (4 * fpy - dfpp) - 3 * fpp * fy + 6 * fyy
        return i1, i2

    def values(self, op: dict) -> tuple:
        sp = self.sp
        kind = op["kind"]
        names = sorted(op["point"])
        sym = {n: sp.Symbol(n) for n in names}
        at = {sym[n]: sp.Rational(op["point"][n]) for n in names}
        if kind == "parsed":
            f = self._parse(op["text"]).subs({sp.Symbol(n): sym[n] for n in ("x", "y", "p")})
            exprs = self._tresse(f, sym["x"], sym["y"], sym["p"])
        elif kind == "wunschmann":
            th, rho, r1, r2 = sym["theta"], sym["rho"], sym["rho1"], sym["rho2"]
            force = sp.Rational(op["k"]) * rho ** (-sp.Rational(op["alpha"]))
            big_f = r1 * ((r2 + rho) * (sp.diff(force, rho) / force - 2 / rho) - 1)

            def total(e):
                return sp.diff(e, th) + r1 * sp.diff(e, rho) + r2 * sp.diff(e, r1) + big_f * sp.diff(e, r2)

            f_r2 = sp.diff(big_f, r2)
            k = total(f_r2) / 6 - f_r2 ** 2 / 9 - sp.diff(big_f, r1) / 2
            exprs = (sp.diff(big_f, rho) + total(k) - sp.Rational(2, 3) * f_r2 * k,)
        else:
            th, rho, r1 = sym["theta"], sym["rho"], sym["rho1"]
            alpha = sp.Rational(op["alpha"])
            if kind == "fixed_m":
                m = sp.Rational(op["m"])
                # force -r^alpha at r = 1/rho, angular momentum m
                f = rho ** (-alpha) / (m ** 2 * rho ** 2) - rho
            else:
                s = -1 if alpha <= -1 else 1
                energy = sp.Rational(op["energy"])
                force = s * rho ** (-alpha)
                potential = -s * rho ** (-(alpha + 1)) / (alpha + 1)
                f = -rho - force * (r1 ** 2 + rho ** 2) / (2 * rho ** 2 * (energy - potential))
            exprs = self._tresse(f, th, rho, r1)
        return tuple(float(e.subs(at)) for e in exprs)

    def agrees(self, op: dict, out: tuple) -> bool:
        ref = self.values(op)
        return len(ref) == len(out) and all(
            math.isfinite(v) and abs(v - r) <= 1e-9 * (1.0 + abs(r)) for v, r in zip(out, ref))


# ==========================================================================
# orbit-pipeline: sample -> act -> fit -> dual action -> special maps
# ==========================================================================

ORBIT_SIZES = (12, 30, 80, 200, 500, 1200, 2000)
CONIC_CLASSES = ("ellipse", "parabola", "hyperbola")
# Samples keep 1/r >= ARC_DELTA, so open orbits are cut at radius 4, and
# the translation part (x5, x6, x7) of the generator stays small: together
# they keep lam + b.q away from 0, so no image crosses the line at infinity
# onto the other branch, which no single conic fit could follow.
ARC_DELTA = 0.25


def orbit_round(seed: int, index: int) -> list[dict]:
    rng = rng_for(seed, "orbit-pipeline", index)
    slots = [{"key": f"{cls}{n}", "conic": cls, "n": n}
             for n in ORBIT_SIZES for cls in CONIC_CLASSES]
    rng.shuffle(slots)
    out = []
    for s in slots:
        c = rng.uniform(0.6, 1.6)
        ecc = {"ellipse": rng.uniform(0.1, 0.8), "parabola": 1.0,
               "hyperbola": rng.uniform(1.2, 2.0)}[s["conic"]]
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append(dict(
            s,
            abc=(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c),
            gen=tuple(rng.uniform(-0.15, 0.15) for _ in range(4))
            + tuple(rng.uniform(-0.05, 0.05) for _ in range(3)),
            m=rng.uniform(0.6, 1.6),
            hill_energy=rng.uniform(0.2, 1.0),
            line=(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.4, 2.0)),
            parabola=(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)),
        ))
    return out


def orbit_run(op: dict, ks) -> dict:
    """One orbit through the geometry kernels and the special maps."""
    orbit, symmetry, kmaps = ks.orbit, ks.symmetry, ks.kmaps
    o = orbit.from_abc(*op["abc"])
    g = symmetry.exp_map(symmetry.AlgebraElement(*op["gen"]))
    # ARC_DELTA and the small generators keep every image in the chart, so
    # a SymmetryError here is a failed op, never a dropped point
    images = [symmetry.act_plane(g, p) for p in orbit.sample(o, op["n"], delta=ARC_DELTA)]
    fitted = orbit.fit(images)
    pred = symmetry.act_dual(g, o.dual())
    m = op["m"]
    flat = [kmaps.flatten_m(q, m) for q in images]
    flat_pred = kmaps.flatten_m_dual(pred, m)
    energy = op["hill_energy"]
    hill = [kmaps.hill_embed(q, energy) for q in images]
    hill_pred = kmaps.hill_dual(orbit.from_abc(pred.a, pred.b, pred.c), energy)
    k = op["n"] // 4 + 3
    angle, dist = op["line"]
    nx, ny = math.cos(angle), math.sin(angle)
    squared = [kmaps.square(orbit.PlanePoint(dist * nx - t * ny, dist * ny + t * nx))
               for t in np.linspace(-1.5, 1.5, k)]
    square_pred = kmaps.square_line_image(angle, dist)
    a2, a1, a0 = op["parabola"]
    chart = [kmaps.parabola_chart(float(bx), float(a2 * bx * bx + a1 * bx + a0))
             for bx in np.linspace(-1.5, 1.5, k)]
    chart_pred = kmaps.parabola_chart_dual(a2, a1, a0)

    def arr(points):
        return np.array([(q.x, q.y) for q in points], dtype=float).reshape(-1, 2)

    return {
        "images": arr(images), "pred": (pred.a, pred.b, pred.c),
        "fit": (fitted.kind, fitted.coefficients),
        "flat": arr(flat), "flat_pred": (flat_pred.a, flat_pred.b, flat_pred.c),
        "hill": arr(hill), "hill_pred": (hill_pred.a, hill_pred.b, hill_pred.c),
        "square": arr(squared), "square_pred": (square_pred.a, square_pred.b, square_pred.c),
        "chart": arr(chart), "chart_pred": (chart_pred.a, chart_pred.b, chart_pred.c),
    }


def orbit_digest(op: dict, out: dict) -> str:
    return _digest(*(out[k] for k in sorted(out)))


def _conic_residual(pts: np.ndarray, abc, both_branches: bool) -> np.ndarray:
    """|a x + b y + c r - 1| scaled by the size of its terms; with
    `both_branches` the smaller of the +c r and -c r residuals."""
    a, b, c = abc
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    s = a * x + b * y
    scale = 1.0 + np.abs(a * x) + np.abs(b * y) + np.abs(c * r)
    res = np.abs(s + c * r - 1.0)
    if both_branches:
        res = np.minimum(res, np.abs(s - c * r - 1.0))
    return res / scale


def orbit_agrees(op: dict, out: dict, tol: float = 1e-9) -> bool:
    """One image per sampled point, and every image lies on its predicted
    conic, computed with numpy."""
    if len(out["images"]) != op["n"]:
        return False
    checks = [
        (out["images"], out["pred"], False),
        (out["flat"], out["flat_pred"], True),
        (out["hill"], out["hill_pred"], False),
        (out["square"], out["square_pred"], True),
        (out["chart"], out["chart_pred"], True),
    ]
    for pts, abc, both in checks:
        if len(pts) < 3:
            return False
        res = _conic_residual(pts, abc, both)
        if not np.all(np.isfinite(res)) or float(np.max(res)) > tol:
            return False
    kind, coeffs = out["fit"]
    pred = np.array(out["pred"])
    return kind == "orbit" and float(np.max(np.abs(np.array(coeffs) - pred))) <= 1e-6 * (
        1.0 + float(np.max(np.abs(pred))))


# ==========================================================================
# dynamics: the RK4 oracles
# ==========================================================================

# Step counts of newton_flow's default integration: about 10.5k for the
# nearly circular ellipse and exactly 10k for the open orbits (one class of
# cost, where the median latency falls), 33k at e = 0.55 (the class the
# tail percentile falls in: 4 of the 15 ops of a round) and 97k at e = 0.78.
NEWTON_ECCENTRICITIES = (0.03, 1.0, 1.4, 2.0, 0.55, 0.55, 0.55, 0.55, 0.78)
FLOW_TIMES = (0.15, 0.5, 1.0)


def dynamics_round(seed: int, index: int) -> list[dict]:
    rng = rng_for(seed, "dynamics", index)
    slots = [{"key": f"newton{i}", "kind": "newton", "ecc": e}
             for i, e in enumerate(NEWTON_ECCENTRICITIES)]
    slots += [{"key": f"{kind}{t}", "kind": kind, "t": t}
              for kind in ("flow", "flow_dual") for t in FLOW_TIMES]
    rng.shuffle(slots)
    out = []
    for s in slots:
        if s["kind"] == "newton":
            c = rng.uniform(0.9, 1.1)
            ecc = s["ecc"] if s["ecc"] == 1.0 else s["ecc"] + rng.uniform(-0.005, 0.005)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            out.append(dict(s, abc=(ecc * c * math.cos(phi), ecc * c * math.sin(phi), c)))
            continue
        op = dict(s, t=s["t"] * rng.uniform(0.98, 1.02),
                  gen=tuple(rng.uniform(-0.3, 0.3) for _ in range(7)))
        if s["kind"] == "flow":
            r, th = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            op["start"] = (r * math.cos(th), r * math.sin(th))
        else:
            op["start"] = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0))
        out.append(op)
    return out


def dynamics_run(op: dict, ks):
    if op["kind"] == "newton":
        o = ks.orbit.from_abc(*op["abc"])
        traj = ks.orbit.newton_flow(o)
        return np.concatenate([traj.pos, traj.vel], axis=1)
    x = ks.symmetry.AlgebraElement(*op["gen"])
    if op["kind"] == "flow":
        q = ks.symmetry.flow(x, ks.orbit.PlanePoint(*op["start"]), op["t"])
        return np.array([q.x, q.y])
    v = ks.symmetry.flow_dual(x, ks.minkowski.MinkVec(*op["start"]), op["t"])
    return np.array([v.a, v.b, v.c])


def dynamics_digest(op: dict, out: np.ndarray) -> str:
    return _digest(out)


def generator_matrix(gen) -> np.ndarray:
    """The 4x4 generator of the 7-parameter algebra, from its definition."""
    x1, x2, x3, x4, x5, x6, x7 = gen
    q = x1 / 4.0
    return np.array([[q, -x2, x3, 0.0], [x2, q, x4, 0.0], [x3, x4, q, 0.0], [x5, x6, x7, -3.0 * q]])


def dynamics_agrees(op: dict, out: np.ndarray) -> bool:
    if op["kind"] == "newton":
        a, b, c = op["abc"]
        pos, vel = out[:, :2], out[:, 2:]
        r = np.hypot(pos[:, 0], pos[:, 1])
        energy = 0.5 * np.sum(vel * vel, axis=1) - 1.0 / r
        ang = pos[:, 0] * vel[:, 1] - pos[:, 1] * vel[:, 0]
        member = a * pos[:, 0] + b * pos[:, 1] + c * r - 1.0
        conserved = max(
            np.max(np.abs(energy - (a * a + b * b - c * c) / (2.0 * c))),
            np.max(np.abs(np.abs(ang) - 1.0 / math.sqrt(c))),
        )
        # the tolerances of the repository's own dynamics-oracle checks
        return (bool(np.all(np.isfinite(out))) and conserved <= 1e-8
                and float(np.max(np.abs(member))) <= 1e-6)
    m = generator_matrix(op["gen"])
    t = op["t"]
    if op["kind"] == "flow":
        x, y = op["start"]
        image = expm(t * m) @ np.array([x, y, math.hypot(x, y), 1.0])
        want = image[:2] / image[3]
    else:
        row = np.array([*op["start"], -1.0]) @ expm(-t * m)
        want = -row[:3] / row[3]
    return bool(np.all(np.isfinite(out))) and float(np.max(np.abs(out - want))) <= 1e-8 * (
        1.0 + float(np.max(np.abs(want))))


# ==========================================================================
# verify-all: the CLI report
# ==========================================================================

VERIFY_CASES = len(CASES)
VERIFY_DETAILS = {
    "wunschmann_scan": "passing=[-2.0, 1.0]",
    "fixed_m_scan": "passing=[-3.0, -2.0]",
    "zero_energy_scan": "failing=[-1.0]",
}


def verify_outcome(stdout: bytes, suites: tuple[str, ...]) -> tuple[int, int, int]:
    """(cases attempted, cases not `pass`, expectations missed) of a
    `verify --json` report; for all suites, the expected case count and
    scan verdicts are checked too."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return 0, 0, 1
    reports = data if isinstance(data, list) else [data]
    cases = [c for r in reports for c in r.get("cases", [])]
    not_pass = sum(1 for c in cases if c.get("status") != "pass")
    mismatched = 0
    if [r.get("suite") for r in reports] != list(suites):
        mismatched += 1
    if tuple(suites) == SUITES:
        if sorted(c.get("name") for c in cases) != sorted(CASES):
            mismatched += 1
        details = {c["name"]: c.get("detail", "") for c in cases}
        mismatched += sum(1 for k, v in VERIFY_DETAILS.items() if details.get(k) != v)
    return len(cases), not_pass, mismatched


def verify_digest(stdout: bytes) -> str:
    """Digest of the report bytes with the wall-time lines dropped."""
    kept = [line for line in stdout.splitlines() if b'"wall_time_s":' not in line]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def runner(workload: str, ks):
    """The timed call of an in-process workload: op -> output."""
    if workload == "ode-queries":
        return lambda op: ode_run(op, ks.expr, ks.invariants)
    if workload == "orbit-pipeline":
        return lambda op: orbit_run(op, ks)
    return lambda op: dynamics_run(op, ks)


IN_PROCESS = {
    "ode-queries": (ode_round, ode_digest),
    "orbit-pipeline": (orbit_round, orbit_digest),
    "dynamics": (dynamics_round, dynamics_digest),
}
