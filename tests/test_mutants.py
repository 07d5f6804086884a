"""Every check must be able to fail: one row per verify case, each a defect
in the layer the case checks, installed with monkeypatch.  The case must
report `fail` (not `error`) with its residual above its tolerance."""

from __future__ import annotations

import dataclasses
import math

import pytest

from keplersym import orbit as ko
from keplersym import verify as vf


def weaker_force(monkeypatch):
    """newton_flow's force -r/|r|^3 becomes -r/|r|^2.999."""
    rk4 = ko.rk4

    def mutant(f, y0, h, steps):
        def field(s):
            vx, vy, ax, ay = f(s)
            scale = math.hypot(s[0], s[1]) ** 0.001
            return (vx, vy, ax * scale, ay * scale)

        return rk4(field, y0, h, steps)

    monkeypatch.setattr(ko, "rk4", mutant)


def scaled_fixed_energy_k(monkeypatch):
    """fixed_energy_algebra's k = |E| becomes |E| (1 + 1e-3)."""
    algebra = vf.fixed_energy_algebra

    def mutant(energy):
        return tuple(dataclasses.replace(g, x5=g.x5 * (1 + 1e-3), x6=g.x6 * (1 + 1e-3))
                     for g in algebra(energy))

    monkeypatch.setattr(vf, "fixed_energy_algebra", mutant)


MUTANTS = [
    (vf.case_newton_membership, weaker_force),
    (vf.case_newton_conservation, weaker_force),
    (vf.case_fixed_energy_quadric, scaled_fixed_energy_k),
]


@pytest.mark.parametrize("case,mutate", MUTANTS, ids=lambda v: v.__name__)
def test_the_mutant_fails_the_case(monkeypatch, fresh_newton, case, mutate):
    mutate(monkeypatch)
    result = case(0)
    assert result.status == "fail", result
    assert result.residual > result.tol, result
