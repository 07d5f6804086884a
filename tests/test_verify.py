from __future__ import annotations

import json
import math

import pytest

from keplersym import verify as vf


def test_worst_counts_nan_as_infinite():
    assert vf._worst(0.0, 2.0, 1.0) == 2.0
    assert vf._worst(0.0, math.nan) == math.inf
    assert vf._worst(math.nan, 0.0) == math.inf
    assert max(0.0, math.nan) == 0.0  # what the helper guards against


@pytest.mark.parametrize("case,patched", [
    (vf.case_parabola_chart_law, "membership_residual"),
    (vf.case_fixed_e_elimination_gate, "ex.max_residual"),
])
def test_nan_residual_fails_the_case(monkeypatch, case, patched):
    owner, _, name = patched.rpartition(".")
    target = getattr(vf, owner) if owner else vf
    monkeypatch.setattr(target, name, lambda *args, **kwargs: math.nan)
    result = case(0, vf.DEFAULT_TOL)
    assert result.status == "fail"
    assert result.residual == math.inf


@pytest.mark.parametrize("residual", [math.inf, math.nan])
def test_report_writes_non_finite_residual_as_null(residual):
    report = vf.VerifyReport("maps", 0, [vf._result("case", residual, 1e-8)], 0.0)
    (case,) = json.loads(json.dumps(report.to_dict(), allow_nan=False))["cases"]
    assert case["residual"] is None
    assert case["status"] == "fail"
