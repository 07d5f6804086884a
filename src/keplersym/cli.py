"""Command-line front end.

Subcommands: `verify` runs the seeded theorem-verification suites and
emits a deterministic report (JSON is the machine interface; the human
table is derived from it); `orbit` inspects or samples a single orbit;
`ode` evaluates the ODE invariants or the Wunschmann residual; `map`
transforms point files through the special maps; `envelope` emits
envelope curve data with family samples.

Exit codes: 0 all checks pass; 1 verification failure, domain error or
internal error (one `error:` line on stderr, never a traceback); 2 usage
or expression-parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import expr as ex
from . import invariants as inv
from . import kmaps
from . import theorems as th
from .expr import ParseError
from .orbit import (
    LineDualError,
    OrbitError,
    PlanePoint,
    from_abc,
    geometry,
    orbit_to_dict,
    sample,
)
from .verify import SUITES, run_suites

SEED_ENV_VAR = "KEPLER_SYM_SEED"
MAX_SAMPLES = 100_000  # the largest `orbit sample --n`
MAX_MEMBERS = 1_000  # the largest `envelope --members`


class CliError(Exception):
    """Domain-level failure mapped to exit code 1."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return _int_range(0)(raw)
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise CliError(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}") from err


def _print_json(payload) -> None:
    """The one JSON writer: JSON has no inf or nan, so a non-finite value is an error."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as err:
        raise CliError("the result holds a non-finite number, which JSON cannot carry") from err
    print(text)


def _int_range(lo: int, hi: int | None = None, noun: str = ""):
    """An argparse type for lo <= n <= hi, hi None being no bound; `noun` names n's unit."""
    def integer(text: str) -> int:
        n = int(text)
        if n < lo:
            want = {0: "a non-negative integer", 1: "a positive integer"}
            raise argparse.ArgumentTypeError(
                f"expected {want.get(lo, f'at least {lo} {noun}')}, got {n}")
        if hi is not None and n > hi:
            raise argparse.ArgumentTypeError(f"expected at most {hi} {noun}, got {n}")
        return n
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kepler-sym",
        description="Kepler orbit geometry, its Minkowski orbit space, and the orbital symmetry group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p_verify.add_argument("--seed", type=_int_range(0), default=None)
    p_verify.add_argument("--json", action="store_true", help="emit the JSON report")
    p_verify.set_defaults(func=cmd_verify)

    p_orbit = sub.add_parser("orbit", help="inspect or sample one orbit")
    orbit_sub = p_orbit.add_subparsers(dest="action", required=True)
    for action in ("info", "sample"):
        p = orbit_sub.add_parser(action)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--c", type=float, required=True)
        if action == "sample":
            p.add_argument("--n", type=_int_range(3, MAX_SAMPLES, "samples"), default=100)
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.set_defaults(func=cmd_orbit_sample)
        else:
            p.set_defaults(func=cmd_orbit_info)

    p_ode = sub.add_parser("ode", help="ODE invariants and the Wunschmann residual")
    ode_sub = p_ode.add_subparsers(dest="action", required=True)
    p_inv = ode_sub.add_parser("invariants")
    p_inv.add_argument("--f", required=True, help="right-hand side f(x, y, p) of y'' = f")
    p_inv.add_argument("--at", required=True, help='bindings, e.g. "y=2,p=0"')
    p_inv.set_defaults(func=cmd_ode_invariants)
    p_wun = ode_sub.add_parser("wunschmann")
    p_wun.add_argument("--alpha", type=float, required=True, help="force exponent in r^alpha")
    p_wun.set_defaults(func=cmd_ode_wunschmann)

    p_map = sub.add_parser("map", help="transform a point file through a special map")
    p_map.add_argument("name", choices=tuple(_MAPS))
    p_map.add_argument("--m", type=float, help="angular momentum for flattenM")
    p_map.add_argument("--energy", type=float, help="energy for hill")
    p_map.add_argument("--points", required=True, help="input CSV with columns theta,x,y")
    p_map.add_argument("--out", required=True, help="output CSV path")
    p_map.set_defaults(func=cmd_map)

    p_env = sub.add_parser("envelope", help="envelope of a concurrent orbit family")
    p_env.add_argument("kind", choices=tuple(_ENVELOPES))
    p_env.add_argument("--b-axis", type=float, dest="b_axis", help="minor axis B")
    p_env.add_argument("--x1", type=float, help="fixed point abscissa (minor-axis)")
    p_env.add_argument("--energy", type=float, help="fixed energy E < 0")
    p_env.add_argument("--x0", type=float, help="fixed point abscissa (energy)")
    p_env.add_argument("--area", type=float, help="fixed area (hooke)")
    p_env.add_argument("--members", type=_int_range(1, MAX_MEMBERS, "members"), default=20)
    p_env.set_defaults(func=cmd_envelope)

    return parser


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    reports = run_suites(args.suite, seed=seed)
    ok = all(r.ok for r in reports)
    if args.json:
        payload = [r.to_dict() for r in reports]
        _print_json(payload[0] if len(payload) == 1 else payload)
    else:
        for r in reports:
            print(f"suite {r.suite}  seed={r.seed}  ({r.wall_time_s:.2f}s)")
            for c in r.cases:
                res = "-" if c.residual is None else f"{c.residual:.3e}"
                line = f"  [{c.status.upper():5s}] {c.name:28s} residual={res} tol={c.tol:.1e}"
                if c.detail:
                    line += f"  ({c.detail})"
                print(line)
            s = r.summary
            print(f"  {s['pass']}/{s['total']} passed")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# orbit
# --------------------------------------------------------------------------

def _make_orbit(args):
    try:
        return from_abc(args.a, args.b, args.c)
    except LineDualError as err:
        raise CliError(f"line, not a Kepler orbit: {err}") from err


def cmd_orbit_info(args) -> int:
    o = _make_orbit(args)
    g = geometry(o)
    record = {
        **orbit_to_dict(o),
        "e": g.eccentricity,
        "E": g.energy,
        "M": g.ang_momentum,
        "class": o.conic_class().value,
        "latus_rectum": g.latus_rectum,
        "pericenter_angle": g.pericenter_angle,
        "semi_major": g.semi_major,
        "semi_minor": g.semi_minor,
    }
    _print_json(record)
    return 0


def cmd_orbit_sample(args) -> int:
    o = _make_orbit(args)
    pts = sample(o, args.n)
    if args.format == "json":
        _print_json([{"theta": p.theta, "x": p.x, "y": p.y} for p in pts])
        return 0
    writer = csv.writer(sys.stdout)
    writer.writerow(["theta", "x", "y"])
    for p in pts:
        writer.writerow([repr(p.theta), repr(p.x), repr(p.y)])
    return 0


# --------------------------------------------------------------------------
# ode
# --------------------------------------------------------------------------

def _parse_bindings(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        name = name.strip()
        if not _ or not name:
            raise CliError(f"bad binding {chunk!r}; expected name=value")
        if name in out:
            raise CliError(f"{name!r} is bound twice")
        try:
            v = float(value)
        except ValueError as err:
            raise CliError(f"bad binding value in {chunk!r}") from err
        if not math.isfinite(v):
            raise CliError(f"binding values must be finite, got {chunk!r}")
        out[name] = v
    return out


def cmd_ode_invariants(args) -> int:
    rhs = ex.parse(args.f)
    bindings = _parse_bindings(args.at)
    box = {name: (v, v) for name, v in bindings.items()}
    ode = inv.SecondOrderODE(rhs, box)
    v1 = ex.evaluate(inv.i1(ode), bindings)
    v2 = ex.evaluate(inv.i2(ode), bindings)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise CliError(f"the invariants are not finite at these bindings: I1 = {v1!r}, I2 = {v2!r}")
    print(f"I1 = {v1!r}")
    print(f"I2 = {v2!r}")
    return 0


def cmd_ode_wunschmann(args) -> int:
    alpha = args.alpha
    if not math.isfinite(alpha):
        raise CliError(f"the force exponent must be finite, got alpha={alpha!r}")
    # r^alpha is positive on the box, so only its size can fail: it underflows
    # for large alpha > 0 and overflows for large alpha < 0
    try:
        (row,) = inv.power_law_scan([alpha], "wunschmann")
    except inv.InvariantError as err:
        raise CliError(f"r^alpha underflows inside the box at alpha={alpha!r} ({err})") from err
    except ex.EvalError as err:
        raise CliError(f"r^alpha overflows a double inside the box at alpha={alpha!r} ({err})") from err
    print(f"wunschmann_residual = {row.residual!r}")
    print(f"satisfied = {row.passed}")
    return 0


# --------------------------------------------------------------------------
# map
# --------------------------------------------------------------------------

def _read_points(path: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    if rows and any(not _is_number(cell) for cell in rows[0][-2:]):
        rows = rows[1:]  # drop header
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _hill_energy(energy: float) -> None:
    kmaps.check_energy(energy)
    if not 2.0 * energy < math.inf:  # else 1 + 2 E r overflows at every point
        raise CliError(f"hill needs 2E finite, got energy={energy!r}")


# name -> (parameter, its check, point map (x, y, parameter) -> PlanePoint)
_MAPS = {
    "square": (None, None, lambda x, y, _: kmaps.square(PlanePoint(x, y))),
    "flattenM": ("m", kmaps.m_squared, lambda x, y, m: kmaps.flatten_m(PlanePoint(x, y), m)),
    "hill": ("energy", _hill_energy, lambda x, y, e: kmaps.hill_embed(PlanePoint(x, y), e)),
    "parabola-chart": (None, None, lambda x, y, _: kmaps.parabola_chart(x, y)),
}


def cmd_map(args) -> int:
    param, check, point_map = _MAPS[args.name]
    value = None
    if param is not None:  # a bad parameter fails the whole call, before any row is read
        value = getattr(args, param)
        if value is None:
            raise CliError(f"{args.name} needs --{param}")
        check(value)
    rows = _read_points(args.points)
    out_rows = [["theta", "x", "y", "err"]]
    for row in rows:
        if len(row) < 2:
            out_rows.append(["", "", "", "short row"])
            continue
        if not all(map(_is_number, row[-2:])):
            out_rows.append(["", "", "", "non-numeric row"])
            continue
        x, y = float(row[-2]), float(row[-1])
        if not (math.isfinite(x) and math.isfinite(y)):
            out_rows.append(["", "", "", "non-finite row"])
            continue
        try:
            q = point_map(x, y, value)
            out_rows.append([repr(math.atan2(q.y, q.x)), repr(q.x), repr(q.y), ""])
        except (kmaps.MapError, OrbitError) as err:
            out_rows.append(["", "", "", str(err)])
    try:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(out_rows)
    except OSError as err:
        raise CliError(f"cannot write {args.out}: {err}") from err
    return 0


# --------------------------------------------------------------------------
# envelope
# --------------------------------------------------------------------------

def _orbit_points(o, n=100) -> list[list[float]]:
    return [[p.x, p.y] for p in sample(o, n)]


# kind -> (parameter names, envelope, family generator, range of the family's
# index: the dual b-coordinate of the orbit families, the shear of hooke's)
_ENVELOPES = {
    "minor-axis": (("b_axis", "x1"), th.envelope_minor_axis, th.minor_axis_family, 1.2),
    "energy": (("energy", "x0"), th.envelope_energy, th.energy_family, 0.9),
    "hooke": (("area",), th.envelope_hooke, th.hooke_family, 1.0),
}


def cmd_envelope(args) -> int:
    names, envelope, family, span = _ENVELOPES[args.kind]
    params = {name: getattr(args, name) for name in names}
    if None in params.values():
        flags = " and ".join("--" + name.replace("_", "-") for name in names)
        raise CliError(f"{args.kind} needs {flags}")
    env = envelope(*params.values())
    members = family(*params.values(), np.linspace(-span, span, args.members))
    payload = {"kind": args.kind, "params": params}
    if args.kind == "hooke":  # the envelope is a line pair, the members plain curves
        ts = np.linspace(0.0, 2 * math.pi, 50, endpoint=False)
        payload.update(
            envelope_lines=[env.half_gap, -env.half_gap],
            family=[{"points": [list(cv.point(float(t))) for t in ts]} for cv in members],
        )
    else:
        if args.kind == "energy":
            payload["second_focus"] = list(th.second_focus(env))
        payload.update(
            envelope=orbit_to_dict(env),
            envelope_points=_orbit_points(env),
            family=[{"dual": orbit_to_dict(m), "points": _orbit_points(m, 50)}
                    for m in members],
        )
    _print_json(payload)
    return 0


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CliError, OrbitError, inv.InvariantError, kmaps.MapError, ex.ExprError,
            th.TheoremError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything unnamed (MemoryError, a bug) is one line, not a traceback
        message = " ".join(str(err).split())
        print(f"error: internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
