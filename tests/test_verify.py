from __future__ import annotations

import json
import math

import numpy as np
import pytest

from keplersym import verify as vf
from keplersym.orbit import from_abc, newton_grid

CASES = {
    "symmetry": ["vf_plane_closed_forms", "vf_dual_closed_forms", "commuting_square",
                 "bracket_closure", "one_param_subgroup", "fixed_energy_quadric"],
    "duality": ["dual_curve_agreement", "parabolic_point_planes", "ellipse_pencil_counts"],
    "invariants": ["fixed_e_i2_closed_form", "fixed_e_i1_zero", "fixed_m_flat",
                   "fixed_e_elimination_gate", "type_ii_witness", "wunschmann_scan",
                   "fixed_m_scan", "zero_energy_scan", "zero_energy_kepler_flat"],
    "theorems": ["lambert_random", "lambert_exact_case", "four_vertices_fig12",
                 "tait_kneser_fig12", "envelope_minor_axis", "envelope_energy",
                 "envelope_energy_focus", "envelope_hooke", "newton_membership",
                 "newton_conservation", "curved_quadric"],
    "maps": ["square_lines_flat", "square_zero_energy_flat", "flatten_m_collinear",
             "hill_embedding", "parabola_chart_law"],
}


def test_worst_counts_nan_as_infinite():
    assert vf._worst(0.0, 2.0, 1.0) == 2.0
    assert vf._worst(0.0, math.nan) == math.inf
    assert vf._worst(math.nan, 0.0) == math.inf
    assert max(0.0, math.nan) == 0.0  # what the helper guards against


def test_each_case_is_registered_once_in_its_suite():
    got = {suite: sorted(fn.__name__.removeprefix("case_") for fn in fns)
           for suite, fns in vf._SUITE_CASES.items()}
    assert got == {suite: sorted(names) for suite, names in CASES.items()}
    assert sum(map(len, CASES.values())) == 34
    assert {name for name in vars(vf) if name.startswith("case_")} == {
        f"case_{name}" for names in CASES.values() for name in names}
    for fns in vf._SUITE_CASES.values():
        for fn in fns:
            assert getattr(vf, fn.__name__) is fn


def test_a_case_is_judged_against_its_pinned_tolerance_unless_given_one():
    pinned = vf.case_bracket_closure(0)
    assert (pinned.name, pinned.status, pinned.tol) == ("bracket_closure", "pass", 1e-6)
    given = vf.case_bracket_closure(0, 0.0)
    assert (given.status, given.tol, given.residual) == ("fail", 0.0, pinned.residual)


def test_a_wrong_vertex_count_fails_whatever_the_residual(monkeypatch):
    monkeypatch.setattr(vf.th, "kepler_vertices", lambda curve: [])
    result = vf.case_four_vertices_fig12(0)
    assert (result.status, result.residual, result.tol) == ("fail", 0.0, 1e-6)
    assert result.detail == "expected 4 vertices, got 0"


def test_a_raising_case_is_an_error_at_its_pinned_tolerance(monkeypatch):
    def broken_basis():
        raise RuntimeError("no basis")

    monkeypatch.setattr(vf, "basis", broken_basis)
    cases = {c.name: c for c in vf.run_suite("symmetry", 0).cases}
    assert (cases["bracket_closure"].status, cases["bracket_closure"].residual,
            cases["bracket_closure"].tol) == ("error", None, 1e-6)
    assert cases["bracket_closure"].detail == "RuntimeError('no basis')"
    assert cases["vf_plane_closed_forms"].status == "error"
    assert cases["vf_plane_closed_forms"].tol == 1e-12
    assert cases["one_param_subgroup"].status == "pass"


@pytest.mark.parametrize("case,patched", [
    (vf.case_parabola_chart_law, "membership_residual"),
    (vf.case_fixed_e_elimination_gate, "ex.max_residual"),
])
def test_nan_residual_fails_the_case(monkeypatch, case, patched):
    owner, _, name = patched.rpartition(".")
    target = getattr(vf, owner) if owner else vf
    monkeypatch.setattr(target, name, lambda *args, **kwargs: math.nan)
    result = case(0)
    assert result.status == "fail"
    assert result.residual == math.inf


@pytest.mark.parametrize("residual", [math.inf, math.nan])
def test_report_writes_non_finite_residual_as_null(residual):
    report = vf.VerifyReport("maps", 0, [vf.CaseResult("case", "fail", residual, 1e-8)], 0.0)
    (case,) = json.loads(json.dumps(report.to_dict(), allow_nan=False))["cases"]
    assert case["residual"] is None
    assert case["status"] == "fail"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_step_doubled_oracles_sit_100x_below_their_tolerances(seed):
    for case in (vf.case_newton_membership, vf.case_newton_conservation,
                 vf.case_fixed_energy_quadric):
        result = case(seed)
        assert result.status == "pass"
        assert result.residual <= result.tol / 100, result


def test_step_doubling_never_exceeds_the_default_step_counts(monkeypatch, fresh_newton):
    newton_steps, quadric_steps = [], []

    def newton_flow(o, steps, dt):
        newton_steps.append((o, steps))
        return flow(o, steps, dt)

    def flow_dual_batch(xs, vs, t, steps):
        quadric_steps.append(steps)
        return batch(xs, vs, t, steps)

    flow, batch = vf.newton_flow, vf.flow_dual_batch
    monkeypatch.setattr(vf, "newton_flow", newton_flow)
    monkeypatch.setattr(vf, "flow_dual_batch", flow_dual_batch)
    assert vf.case_newton_membership(0).status == "pass"
    assert vf.case_fixed_energy_quadric(0).status == "pass"
    assert {o for o, _ in newton_steps} == {from_abc(*t) for t in vf.NEWTON_ORBITS}
    assert all(steps <= newton_grid(o)[1] for o, steps in newton_steps)
    assert quadric_steps and max(quadric_steps) <= 1600
    # the defaults take 10,000 + 28,285 + 10,000 steps
    assert sum(steps for _, steps in newton_steps) <= 15_000


def test_a_target_never_met_fails_at_the_cap_naming_it(monkeypatch, fresh_newton):
    monkeypatch.setattr(vf, "QUADRIC_TARGET", 0.0)
    result = vf.case_fixed_energy_quadric(0)
    assert result.status == "fail"
    assert result.detail.startswith("steps=1600 reached the cap 1600 with estimate ")
    monkeypatch.setattr(vf, "NEWTON_TARGET", -1.0)
    result = vf.case_newton_membership(0)
    assert result.status == "fail"
    assert result.detail.startswith("steps=8000 reached the cap 10000 with estimate ")


def test_step_doubled_compares_on_the_shared_grid():
    # r_N = 1/N at each of the N + 1 grid times: the estimate is (1/N - 2/N) / 15 = 1/(15 N)
    def run(n):
        return np.full((2, n + 1), 1.0 / n)

    r, n, estimate = vf._step_doubled(run, 10, 1000, 1e-3)
    assert (n, r.shape) == (80, (2, 81))
    assert estimate == pytest.approx(1 / 1200)
    with pytest.raises(vf.CaseFailed) as failed:
        vf._step_doubled(lambda n: np.full((1, n + 1), math.nan), 10, 50, 1.0)
    residual, detail = failed.value.args
    assert math.isnan(residual)
    assert detail == "steps=40 reached the cap 50 with estimate nan > 1e+00"
