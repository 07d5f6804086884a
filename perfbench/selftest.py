"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that the layer wrappers are
transparent (same values, same exceptions) and count what they claim to
count, that the input generators are deterministic per seed, that the
output checks reject wrong outputs, and that a reduced-size run of every
workload finishes with no failure and no mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import env

env.pin_threads()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from layertrace import Tracer, expr_sizes, per_layer_metrics  # noqa: E402

SRC = env.find_source()


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as err:  # the exception type and message are what we compare
        return ("raised", type(err), str(err))


def test_wrappers_are_transparent():
    ks = env.load(SRC)
    ex, inv, orbit, sym, kmaps = ks.expr, ks.invariants, ks.orbit, ks.symmetry, ks.kmaps
    from keplersym import verify

    ode = inv.SecondOrderODE(ex.parse("(x*p - y)^3"), {})
    chart_exit = sym.group_element(np.eye(3), np.array([-1.0, 0.0, 0.0]), 1.0)
    o = orbit.from_abc(0.3, 0.1, 1.0)
    calls = [
        ("expr", "parse", ("x^2 + 3*y/z",)),
        ("expr", "parse", ("x +",)),
        ("expr", "diff", (ex.parse("x^3*sin(y)"), "x")),
        ("expr", "evaluate", (ex.parse("1/(x - 1)"), {"x": 1.0})),
        ("expr", "evaluate", (ex.parse("ln(x)"), {"x": -1.0})),
        ("expr", "evaluate_tracked", (ex.parse("x*y + 2"), {"x": 0.5, "y": 3.0})),
        ("expr", "max_residual", (ex.parse("x - x + y^2"), {"x": (0.0, 1.0), "y": (0.0, 1.0)})),
        ("expr", "is_zero", (ex.parse("x - x"), {"x": (0.0, 1.0)})),
        ("invariants", "i2", (ode,)),
        ("invariants", "fixed_m_ode", (inv.kepler_force(), 0)),
        ("orbit", "from_abc", (0.0, 0.0, 0.0)),
        ("orbit", "sample", (o, 12)),
        ("orbit", "fit", (orbit.sample(o, 12),)),
        ("symmetry", "act_plane", (chart_exit, orbit.PlanePoint(1.0, 0.0))),
        ("symmetry", "flow_dual", (sym.algebra(x2=0.3), ks.minkowski.MinkVec(0.2, 0.1, 1.0), 0.5)),
        ("kmaps", "flatten_m", (orbit.PlanePoint(1.0, 0.0), 1.0)),
        ("verify", "case_bracket_closure", (0, 1e-8)),
    ]
    mods = {"expr": ex, "invariants": inv, "orbit": orbit, "symmetry": sym, "kmaps": kmaps,
            "verify": verify}
    bare = [_outcome(getattr(mods[m], f), *args) for m, f, args in calls]
    originals = {(m, f): getattr(mods[m], f) for m, f, _ in calls}
    tracer = Tracer()
    tracer.install()
    try:
        for m, f, _ in calls:
            assert getattr(mods[m], f) is not originals[(m, f)], f"{m}.{f} not wrapped"
        assert inv.diff is not originals[("expr", "diff")], "invariants.diff not wrapped"
        wrapped = [_outcome(getattr(mods[m], f), *args) for m, f, args in calls]
    finally:
        tracer.uninstall()
    for (m, f, _), b, w in zip(calls, bare, wrapped):
        assert b == w, f"{m}.{f}: bare {b!r} != wrapped {w!r}"
    for m, f, _ in calls:
        assert getattr(mods[m], f) is originals[(m, f)], f"{m}.{f} not restored"
    got = tracer.metrics(0.0)
    assert got["symmetry.act_plane.chart_exits"] == 1
    assert got["kmaps.singular_rows"] == 1
    assert got["orbit.sample.points"] == 12 and got["orbit.fit.points"] == 12
    assert got["symmetry.flow_dual.steps"] == 1000  # max(200, 2000 * 0.5)
    assert got["verify.case.bracket_closure.s"] > 0
    # one direct diff call and five from i2; neither the recursion inside
    # diff nor the diff calls inside total_derivative open a span
    assert got["expr.diff.calls"] == 6 and got["expr.total_derivative.calls"] == 3
    assert set(got) == {name for name, _, _ in per_layer_metrics()}


def test_expr_sizes():
    ex = env.load(SRC).expr
    x, y = ex.Var("x"), ex.Var("y")
    e = ex.Add((ex.Mul((x, y)), ex.Mul((x, y)), ex.Pow(x, 2)))
    assert expr_sizes(e) == (9, 5), expr_sizes(e)  # distinct: x, y, x*y, x^2, sum


def test_generators_are_deterministic():
    for name, (make_round, _) in wl.IN_PROCESS.items():
        a = json.dumps(make_round(7, 3), sort_keys=True)
        assert a == json.dumps(make_round(7, 3), sort_keys=True), name
        other = make_round(8, 3)
        assert a != json.dumps(other, sort_keys=True), name
        # the seed moves the numbers, never the composition of a round
        assert sorted(op["key"] for op in make_round(7, 3)) == sorted(op["key"] for op in other)
    ops = wl.ode_round(7, 0)
    repeats = sum(1 for op in ops if op.get("repeat"))
    assert Fraction(repeats, len(ops)) == wl.ODE_REPEAT_SHARE


def test_checks_reject_wrong_outputs():
    ks = env.load(SRC)
    op = wl.orbit_round(1, 0)[0]
    out = wl.orbit_run(op, ks)
    assert wl.orbit_agrees(op, out)
    bent = dict(out, images=out["images"] * (1 + 1e-6))
    assert not wl.orbit_agrees(op, bent)
    assert not wl.orbit_agrees(op, dict(out, images=out["images"][:-1]))  # a dropped point
    for op in wl.dynamics_round(1, 0):
        if op["kind"] in ("flow", "flow_dual"):
            out = wl.dynamics_run(op, ks)
            assert wl.dynamics_agrees(op, out)
            assert not wl.dynamics_agrees(op, out + 1e-6)
    ref = wl.OdeReference()
    for op in wl.ode_round(1, 0)[:6]:
        out = wl.ode_run(op, ks.expr, ks.invariants)
        assert ref.agrees(op, out), op
        assert not ref.agrees(op, tuple(v + 1e-6 * (1 + abs(v)) for v in out)), op


def test_determinism_store_is_per_source():
    import tempfile

    import run

    env.OUT_DIR.mkdir(exist_ok=True)
    kept = env.OUT_DIR
    with tempfile.TemporaryDirectory(dir=env.OUT_DIR) as tmp:
        env.OUT_DIR = Path(tmp)
        try:
            def mismatches(digests, source):
                r = run.Run("dynamics", 5)
                run.check_against_earlier_runs(r, digests, source)
                return r.mismatches

            assert mismatches(["a", "b"], "src1") == 0  # first run: recorded
            assert mismatches(["a", "b"], "src1") == 0
            assert mismatches(["a", "c"], "src1") == 1  # same source, other output
            assert mismatches(["a", "c"], "src2") == 0  # another program source
        finally:
            env.OUT_DIR = kept
    assert env.source_id(SRC) == env.source_id(SRC)


def test_reduced_runs_have_no_mismatch():
    import run

    for name in wl.IN_PROCESS:
        r = run.Run(name, 11)
        w = run.InProcess(name, SRC, r)
        w.rounds(0.0)  # exactly one round
        w.check_pending(11)
        assert r.attempted > 0 and r.failed == 0 and r.mismatches == 0, (name, r.notes)
    proc = subprocess.run(
        [sys.executable, "-m", "keplersym", "verify", "--suite", "duality", "--json", "--seed", "11"],
        capture_output=True, env=env.child_env(SRC), timeout=120)
    cases, not_pass, missed = wl.verify_outcome(proc.stdout, ("duality",))
    assert proc.returncode == 0 and cases == 3 and not_pass == 0 and missed == 0


def main() -> int:
    if SRC is None:
        print("error: run from the root of a keplersym checkout", file=sys.stderr)
        return 2
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
