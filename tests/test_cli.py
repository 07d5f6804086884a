from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import keplersym
from keplersym import cli
from keplersym.cli import MAX_MEMBERS, MAX_SAMPLES, main
from keplersym.expr import MAX_LIVE_NODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_symmetry_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "symmetry", "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "symmetry"
    assert report["seed"] == 7
    assert report["summary"]["fail"] == 0
    assert {c["name"] for c in report["cases"]} >= {"commuting_square", "bracket_closure"}
    for case in report["cases"]:
        assert case["status"] == "pass"


def test_cli_runs_without_scipy():
    src = str(Path(keplersym.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; from keplersym.cli import main; "
            "sys.exit(main(['verify', '--suite', 'symmetry', '--json']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["summary"]["pass"] == report["summary"]["total"] == 6


def test_verify_reports_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "duality", "--seed", "3", "--json")
    code2, out2, _ = run(capsys, "verify", "--suite", "duality", "--seed", "3", "--json")
    assert code1 == code2 == 0
    strip = lambda s: re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": 0', s)
    assert strip(out1) == strip(out2)


def test_verify_reports_agree_across_processes():
    # the whole report, not one suite, and str hashing randomized differently per process
    src = str(Path(keplersym.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "keplersym", "verify", "--suite", "all", "--json", "--seed", "5"],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
        )
        for hash_seed in ("0", "1")
    ]
    outs = [proc.communicate(timeout=300)[0].decode() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    kept = ["\n".join(ln for ln in out.splitlines() if '"wall_time_s"' not in ln) for out in outs]
    assert kept[0] == kept[1]
    assert len(json.loads(outs[0])) == 5


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("KEPLER_SYM_SEED", "11")
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_verify_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "duality", "--seed", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["-3", "seven"])
def test_verify_bad_seed_in_environment_is_domain_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("KEPLER_SYM_SEED", raw)
    code, out, err = run(capsys, "verify", "--suite", "duality")
    assert code == 1
    assert out == ""
    assert err == f"error: KEPLER_SYM_SEED must be a non-negative integer, got {raw!r}\n"


def test_orbit_info(capsys):
    code, out, _ = run(capsys, "orbit", "info", "--a", "0", "--b", "0", "--c", "1")
    assert code == 0
    record = json.loads(out)
    assert record["e"] == 0.0
    assert record["E"] == -0.5
    assert record["M"] == 1.0
    assert record["class"] == "ellipse"


def test_orbit_info_on_a_triple_whose_squares_overflow(capsys):
    code, out, _ = run(capsys, "orbit", "info", "--a=-2e200", "--b", "0", "--c", "2e200")
    assert code == 0
    record = json.loads(out)
    assert record["class"] == "parabola"
    assert record["E"] == 0.0
    assert record["semi_major"] is None and record["semi_minor"] is None


def test_orbit_info_on_a_circle_whose_doubled_c_overflows(capsys):
    code, out, _ = run(capsys, "orbit", "info", "--a", "0", "--b", "0", "--c", "1e308")
    assert code == 0
    record = json.loads(out)
    assert record["class"] == "ellipse"
    assert record["E"] == pytest.approx(-5e307, rel=1e-15)
    assert record["semi_minor"] == pytest.approx(1e-308, rel=1e-15)


def test_orbit_info_line_is_domain_error(capsys):
    code, _, err = run(capsys, "orbit", "info", "--a", "1", "--b", "0", "--c", "0")
    assert code == 1
    assert "line, not a Kepler orbit" in err


@pytest.mark.parametrize("argv", [
    ["orbit", "info", "--a", "nan", "--b", "0", "--c", "1"],
    ["orbit", "sample", "--a", "0", "--b", "0", "--c", "inf"],
])
def test_orbit_rejects_non_finite_triples(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "NaN" not in out
    assert "not finite" in err


def test_orbit_sample_csv(capsys):
    code, out, _ = run(capsys, "orbit", "sample", "--a", "0.5", "--b", "0", "--c", "1", "--n", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 101
    assert lines[0] == "theta,x,y"
    for line in lines[1:]:
        theta, x, y = (float(v) for v in line.split(","))
        r = math.hypot(x, y)
        assert abs(0.5 * x + r - 1.0) <= 1e-12
        assert theta == pytest.approx(math.atan2(y, x))


def test_ode_invariants_worked_case(capsys):
    code, out, _ = run(
        capsys, "ode", "invariants", "--f", "(y^2+p^2)/(2*(y-1))-y", "--at", "y=2,p=0"
    )
    assert code == 0
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(values["I1"]) == pytest.approx(0.0, abs=1e-12)
    assert float(values["I2"]) == pytest.approx(9.0, rel=1e-10)


def test_ode_invariants_malformed_expression(capsys):
    code, _, err = run(capsys, "ode", "invariants", "--f", "sin(", "--at", "y=1")
    assert code == 2
    assert "position" in err


def test_ode_invariants_power_overflow_is_domain_error(capsys):
    code, out, err = run(capsys, "ode", "invariants", "--f", "p^400*y^400", "--at", "x=0,y=20,p=20")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "overflows" in err


@pytest.mark.parametrize("f", ["(" * 3000 + "p" + ")" * 3000, "p" + "^2" * 2000],
                         ids=["brackets", "powers"])
def test_ode_invariants_deep_nesting_is_parse_error(capsys, f):
    code, out, err = run(capsys, "ode", "invariants", "--f", f, "--at", "p=1")
    assert (code, out) == (2, "")
    assert err.startswith("error: expression nests deeper than") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_ode_wunschmann_rejects_non_finite_alpha(capsys, alpha):
    code, out, err = run(capsys, "ode", "wunschmann", f"--alpha={alpha}")
    assert (code, out) == (1, "")
    assert f"alpha={alpha}" in err and err.count("\n") == 1


@pytest.mark.parametrize("alpha,cause", [
    ("-400", "overflows a double"),
    ("-1e308", "overflows a double"),
    ("400", "underflows"),
    ("1e308", "underflows"),
])
def test_ode_wunschmann_names_the_size_failure_and_alpha(capsys, alpha, cause):
    # r^alpha is positive on the box: a large |alpha| can only under- or overflow
    code, out, err = run(capsys, "ode", "wunschmann", f"--alpha={alpha}")
    assert (code, out) == (1, "")
    assert err.startswith("error: r^alpha ") and err.count("\n") == 1
    assert cause in err and f"alpha={float(alpha)!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("f", [
    "y*2^100000000",  # the folded constant would have 10^8 bits
    "p^4*2^60000",  # folds, but does not fit a double
    "10^400/2.0*p",  # an exact constant folded into a float: in div,
    "(10^400 + 0.5)*p",  # in a sum
    "10^400*0.5*p",  # and in a product
])
def test_ode_invariants_oversized_constants_are_domain_errors(capsys, f):
    code, out, err = run(capsys, "ode", "invariants", "--f", f, "--at", "x=0.1,y=0.5,p=0.3")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "internal error" not in err


def test_ode_invariants_runaway_nesting_hits_the_node_budget(capsys):
    f = "sin(" * 40 + "p" + ")" * 40  # within the parse depth; its i2 would take 192k nodes
    code, out, err = run(capsys, "ode", "invariants", "--f", f, "--at", "x=0.1,y=0.5,p=0.3")
    assert (code, out) == (1, "")
    assert err == f"error: an expression would hold more than {MAX_LIVE_NODES} live nodes\n"


def test_orbit_sample_count_is_capped(capsys):
    # the argument type rejects the count before anything is sampled
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "sample", "--a", "0.5", "--b", "0", "--c", "1",
              "--n", str(MAX_SAMPLES + 1)])
    assert exc.value.code == 2
    assert f"at most {MAX_SAMPLES} samples" in capsys.readouterr().err


def test_ode_wunschmann_kepler(capsys):
    code, out, _ = run(capsys, "ode", "wunschmann", "--alpha", "-2")
    assert code == 0
    residual = float(out.splitlines()[0].split(" = ")[1])
    assert residual <= 1e-10
    assert "satisfied = True" in out
    code, out, _ = run(capsys, "ode", "wunschmann", "--alpha", "-3")
    assert "satisfied = False" in out


def test_map_square_segment(tmp_path, capsys):
    src = tmp_path / "segment.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "x", "y"])
        for t in np.linspace(-1.5, 1.5, 11):
            w.writerow([0.0, 1.0, t])
    dst = tmp_path / "squared.csv"
    code, _, _ = run(capsys, "map", "square", "--points", str(src), "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "x", "y", "err"]
    for row in rows[1:]:
        assert row[3] == ""
        x, y = float(row[1]), float(row[2])
        assert x == pytest.approx(1.0 - y * y / 4.0, abs=1e-12)


def test_map_flatten_flags_singular_rows(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "x", "y"])
        w.writerow([0.0, 1.0, 0.0])   # r = M^2: singular
        w.writerow([0.0, 0.5, 0.0])
    dst = tmp_path / "flat.csv"
    code, _, _ = run(capsys, "map", "flattenM", "--m", "1", "--points", str(src), "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] != ""
    assert rows[2][3] == ""
    assert float(rows[2][1]) == pytest.approx(1.0)


@pytest.mark.parametrize("argv,param", [
    (["flattenM", "--m", "1e-200"], "m=1e-200"),  # M^2 underflows to 0
    (["flattenM", "--m", "inf"], "m=inf"),
    (["flattenM", "--m", "nan"], "m=nan"),
    (["hill", "--energy", "nan"], "energy=nan"),
    (["hill", "--energy", "inf"], "energy=inf"),
])
def test_map_flags_every_row_for_a_degenerate_parameter(tmp_path, capsys, argv, param):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,0.5,0\n0,0,2\n")
    dst = tmp_path / "out.csv"
    code, out, err = run(capsys, "map", *argv, "--points", str(src), "--out", str(dst))
    assert (code, out, err) == (0, "", "")
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[:3] == ["", "", ""]
        assert param in row[3]


def test_map_hill_flags_every_row_when_the_denominator_overflows(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,0.5,0\n0,0,2\n")
    dst = tmp_path / "out.csv"
    code, _, _ = run(capsys, "map", "hill", "--energy", "1e308", "--points", str(src),
                     "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert row[:3] == ["", "", ""]
        assert "overflows the map's denominator at energy=1e+308" in row[3]


def test_map_flatten_flags_the_row_whose_denominator_overflows(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,1e300,0\n0,1,1\n")
    dst = tmp_path / "out.csv"
    code, _, _ = run(capsys, "map", "flattenM", "--m", "1e-150", "--points", str(src),
                     "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:3] == ["", "", ""]
    assert "overflows the map's denominator at m=1e-150" in rows[1][3]
    assert rows[2][3] == ""
    assert float(rows[2][1]) == float(rows[2][2]) == pytest.approx(-1.0 / (math.sqrt(2.0) * 1e300))


def test_map_flags_non_numeric_rows(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,abc,1\n0,1,0\n")
    dst = tmp_path / "sq.csv"
    code, _, _ = run(capsys, "map", "square", "--points", str(src), "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == "non-numeric row"
    assert rows[2][3] == ""
    assert (float(rows[2][1]), float(rows[2][2])) == (1.0, 0.0)


def test_map_requires_parameters(capsys, tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,1,0\n")
    code, _, err = run(capsys, "map", "flattenM", "--points", str(src), "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "--m" in err


def test_envelope_minor_axis(capsys):
    code, out, _ = run(capsys, "envelope", "minor-axis", "--b-axis", "2", "--x1", "1")
    assert code == 0
    payload = json.loads(out)
    env = payload["envelope"]
    assert (env["a"], env["b"], env["c"]) == (-0.5, 0.0, 0.5)
    for x, y in payload["envelope_points"]:
        assert y * y == pytest.approx(4.0 * (x + 1.0), abs=1e-9)
    assert len(payload["family"]) == 20


def test_envelope_members_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "minor-axis", "--b-axis", "2", "--x1", "1", "--members", "-1"])
    assert exc.value.code == 2


def test_envelope_members_are_capped_before_the_family_is_built(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("the family was built")

    monkeypatch.setattr(cli, "cmd_envelope", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "energy", "--energy", "-0.5", "--x0", "1",
              "--members", str(MAX_MEMBERS + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"at most {MAX_MEMBERS} members" in err
    assert "Traceback" not in err


def test_envelope_energy(capsys):
    code, out, _ = run(capsys, "envelope", "energy", "--energy", "-0.5", "--x0", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["second_focus"] == pytest.approx([1.0, 0.0], abs=1e-9)
    for member in payload["family"]:
        d = member["dual"]
        o_energy = (d["a"] ** 2 + d["b"] ** 2 - d["c"] ** 2) / (2 * d["c"])
        assert o_energy == pytest.approx(-0.5, abs=1e-12)


def test_envelope_energy_outside_hill_region(capsys):
    code, _, err = run(capsys, "envelope", "energy", "--energy", "-0.5", "--x0", "3")
    assert code == 1
    assert "Hill region" in err


def test_envelope_hooke(capsys):
    code, out, _ = run(capsys, "envelope", "hooke", "--area", str(math.pi))
    assert code == 0
    payload = json.loads(out)
    assert payload["envelope_lines"] == pytest.approx([1.0, -1.0])
    for member in payload["family"]:
        ys = [p[1] for p in member["points"]]
        assert max(ys) <= 1.0 + 1e-9
        assert min(ys) >= -1.0 - 1e-9


@pytest.mark.parametrize("f,at", [
    ("p*p*p*p + p*p*p*p", "x=0,y=0,p=1e77"),  # the sum overflows a double
    ("sin(p*p*p)", "x=0,y=0,p=1e200"),  # sin of an infinite argument
    ("y*y*y*y*y", "x=0,y=1e200,p=1"),  # the product overflows to I2 = inf
])
def test_ode_invariants_float_errors_are_domain_errors(capsys, f, at):
    code, out, err = run(capsys, "ode", "invariants", "--f", f, "--at", at)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("at,message", [
    ("x=0,y=nan,p=1", "must be finite, got 'y=nan'"),
    ("x=0,y=inf,p=1", "must be finite, got 'y=inf'"),
    ("x=0,y=-inf,p=1", "must be finite, got 'y=-inf'"),
    ("x=0,y=1,p=1,y=2", "'y' is bound twice"),
])
def test_ode_invariants_rejects_non_finite_and_repeated_bindings(capsys, at, message):
    code, out, err = run(capsys, "ode", "invariants", "--f", "y*p", "--at", at)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_map_flags_non_finite_rows(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("theta,x,y\n0,nan,1\n0,1,inf\n0,-inf,0\n0,1,0\n")
    dst = tmp_path / "sq.csv"
    code, _, _ = run(capsys, "map", "square", "--points", str(src), "--out", str(dst))
    assert code == 0
    with open(dst) as fh:
        rows = list(csv.reader(fh))
    assert [r[3] for r in rows[1:]] == ["non-finite row"] * 3 + [""]
    assert [r[:3] for r in rows[1:4]] == [["", "", ""]] * 3
    assert (float(rows[4][1]), float(rows[4][2])) == (1.0, 0.0)


@pytest.mark.parametrize("argv", [
    ["envelope", "hooke", "--area", "nan"],
    ["envelope", "hooke", "--area", "inf"],
    ["envelope", "hooke", "--area", "5e-324"],
    ["orbit", "info", "--a", "1e200", "--b", "0", "--c", "1e-200"],
    ["envelope", "minor-axis", "--b-axis", "1e-200", "--x1", "1"],
    ["envelope", "minor-axis", "--b-axis", "2", "--x1", "inf"],
    ["envelope", "energy", "--energy=-1e-300", "--x0", "1"],
    ["envelope", "minor-axis", "--b-axis", "1e-100", "--x1", "1"],
    ["envelope", "minor-axis", "--b-axis", "1e-150", "--x1", "1"],
    ["orbit", "sample", "--a=-2e200", "--b", "0", "--c", "2e200", "--n", "4"],
])
def test_non_finite_results_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [MemoryError("out of memory"), RuntimeError("two\nlines")])
def test_unexpected_errors_are_one_line_internal_errors(capsys, monkeypatch, error):
    def fail(_args):
        raise error

    monkeypatch.setattr(cli, "cmd_orbit_info", fail)
    code, out, err = run(capsys, "orbit", "info", "--a", "0", "--b", "0", "--c", "1")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: internal error: {type(error).__name__}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
