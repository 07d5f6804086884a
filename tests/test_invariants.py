from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from keplersym import expr as ex
from keplersym.expr import ZERO_TEST_THRESHOLD, Var, evaluate, is_zero, max_residual, parse
from keplersym.invariants import (
    GENERATOR_BOX,
    WUNSCHMANN_BOX,
    InvariantError,
    ODE,
    SecondOrderODE,
    central_3rd_order,
    fixed_e_ode,
    fixed_m_ode,
    flatness_residual,
    i1,
    i2,
    kepler_fixed_e_boxes,
    kepler_force,
    kepler_potential,
    power_force,
    power_law_scan,
    power_potential,
    wunschmann_residual,
)

FLAT_BOX = {"x": (-1.0, 1.0), "y": (0.5, 2.0), "p": (-1.0, 1.0)}


def kepler_fixed_e(energy) -> ODE:
    # the ODE's own box must sit inside the Hill region E - V > 0
    box = kepler_fixed_e_boxes(float(energy))[-1]
    return fixed_e_ode(kepler_force(), kepler_potential(), energy, box=box)


def test_i1_trivial_and_cubic():
    zero_ode = SecondOrderODE(ex.ZERO, dict(FLAT_BOX))
    assert i1(zero_ode) == ex.ZERO
    cubic = SecondOrderODE(parse("(x*p - y)^3"), dict(FLAT_BOX))
    assert is_zero(i1(cubic), FLAT_BOX)


def test_i1_vanishes_for_fixed_energy_kepler():
    ode = kepler_fixed_e(-1)
    assert is_zero(i1(ode), ode.box)


def test_i2_zero_for_trivial_ode():
    zero_ode = SecondOrderODE(ex.ZERO, dict(FLAT_BOX))
    assert i2(zero_ode) == ex.ZERO


def test_i2_fixed_energy_closed_form_value():
    # at E = -1, rho = 2 the invariant equals 9 regardless of rho'
    ode = kepler_fixed_e(-1)
    val = evaluate(i2(ode), {"rho": 2.0, "rho1": 0.37})
    assert val == pytest.approx(9.0, rel=1e-12)
    val = evaluate(i2(ode), {"rho": 2.0, "rho1": -1.1})
    assert val == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("energy", [-1, 0.5, 2])
def test_i2_matches_closed_form_on_boxes(energy):
    ode = kepler_fixed_e(energy)
    closed = ex.div(
        ex.mul(9, ex.pow_(ex.const(energy), 2)),
        ex.pow_(ex.add(ex.const(energy), Var("rho")), 3),
    )
    gap = ex.sub(i2(ode), closed)
    for box in kepler_fixed_e_boxes(float(energy)):
        assert max_residual(gap, box) <= 1e-10


def test_i2_zero_for_fixed_m_linear_ode():
    ode = SecondOrderODE(parse("1 - y"), dict(FLAT_BOX))  # rho'' = 1/M^2 - rho, M = 1
    assert i2(ode) == ex.ZERO or is_zero(i2(ode), FLAT_BOX)
    assert flatness_residual(ode) <= ZERO_TEST_THRESHOLD


def test_type_ii_witness_projective_but_not_flat():
    ode = SecondOrderODE(parse("(x*p - y)^3"), dict(FLAT_BOX))
    assert is_zero(i1(ode), FLAT_BOX)
    assert not is_zero(i2(ode), FLAT_BOX)


def test_flatness_residual_cases():
    assert flatness_residual(SecondOrderODE(ex.ZERO, dict(FLAT_BOX))) <= ZERO_TEST_THRESHOLD
    assert flatness_residual(kepler_fixed_e(-1)) > ZERO_TEST_THRESHOLD
    assert flatness_residual(fixed_m_ode(kepler_force(), 1)) <= ZERO_TEST_THRESHOLD


def test_ode_rejects_stray_rhs_variables():
    with pytest.raises(InvariantError, match="stray free variables: \\['z'\\]"):
        SecondOrderODE(parse("y + z"), dict(FLAT_BOX))
    jet = ("theta", "rho", "rho1", "rho2")
    with pytest.raises(InvariantError):
        ODE(parse("rho1 * q"), dict(WUNSCHMANN_BOX), jet)
    assert ODE(parse("rho1 * q"), dict(WUNSCHMANN_BOX), jet, frozenset({"q"})).params == {"q"}


def test_fixed_m_ode_instances():
    ode = fixed_m_ode(kepler_force(), 1)
    gap = ex.sub(ode.rhs, parse("1 - rho"))
    assert is_zero(gap, GENERATOR_BOX)
    ode = fixed_m_ode(power_force(1), 1)  # attractive Hooke
    gap = ex.sub(ode.rhs, parse("1/rho^3 - rho"))
    assert is_zero(gap, GENERATOR_BOX)
    # circular solution rho = 1 is an equilibrium of rho'' = 1/rho^3 - rho
    assert evaluate(ode.rhs, {"rho": 1.0, "rho1": 0.0}) == pytest.approx(0.0)
    ode = fixed_m_ode(power_force(-3), 1)
    assert is_zero(ode.rhs, GENERATOR_BOX)  # rho'' = rho - rho = 0: linear family


def test_fixed_e_ode_matches_kepler_instance():
    # elimination gate: the generated RHS must equal the closed form
    for energy, text in [
        (-1, "(rho^2 + rho1^2)/(2*(rho - 1)) - rho"),
        (2, "(rho^2 + rho1^2)/(2*(rho + 2)) - rho"),
    ]:
        ode = kepler_fixed_e(energy)
        gap = ex.sub(ode.rhs, parse(text))
        for box in kepler_fixed_e_boxes(float(energy)):
            assert max_residual(gap, box) <= 1e-12


def test_fixed_e_zero_energy_parabolas_are_flat():
    ode = fixed_e_ode(kepler_force(), kepler_potential(), 0)
    gap = ex.sub(ode.rhs, parse("(rho^2 + rho1^2)/(2*rho) - rho"))
    assert is_zero(gap, GENERATOR_BOX)
    assert flatness_residual(ode) <= ZERO_TEST_THRESHOLD


def test_fixed_e_hooke_not_flat():
    box = {"rho": (0.85, 3.0), "rho1": (-1.0, 1.0)}  # keep 1 - 1/(2 rho^2) > 0
    ode = fixed_e_ode(power_force(1), power_potential(1), 1, box=box)
    assert flatness_residual(ode) > ZERO_TEST_THRESHOLD


def test_fixed_e_requires_positive_gap():
    with pytest.raises(InvariantError):
        # attractive Hooke at zero energy: E - V = -r^2/2 < 0
        fixed_e_ode(power_force(1), power_potential(1), 0)


def test_central_3rd_order_instances():
    rho, rho1, rho2 = Var("rho"), Var("rho1"), Var("rho2")
    kepler = central_3rd_order(ex.pow_(rho, 2))
    assert kepler.jet_vars == ("theta", "rho", "rho1", "rho2")
    gap = ex.sub(kepler.rhs, ex.neg(rho1))
    assert is_zero(gap, WUNSCHMANN_BOX)
    hooke = central_3rd_order(ex.div(1, rho))
    want = parse("rho1 * (-3*(rho2 + rho)/rho - 1)")
    assert is_zero(ex.sub(hooke.rhs, want), WUNSCHMANN_BOX)
    const_force = central_3rd_order(ex.ONE)
    want = parse("rho1 * (-2*(rho2 + rho)/rho - 1)")
    assert is_zero(ex.sub(const_force.rhs, want), WUNSCHMANN_BOX)


def test_central_3rd_order_rejects_vanishing_force():
    with pytest.raises(InvariantError):
        central_3rd_order(ex.sub(Var("rho"), ex.const(Fraction(3, 2))))


def test_wunschmann_kepler_and_hooke_pass():
    rho = Var("rho")
    for scale in (0.5, 1, 3):
        ode = central_3rd_order(ex.mul(scale, ex.pow_(rho, 2)))
        assert is_zero(wunschmann_residual(ode), WUNSCHMANN_BOX)
        ode = central_3rd_order(ex.div(scale, rho))
        assert is_zero(wunschmann_residual(ode), WUNSCHMANN_BOX)


def test_wunschmann_inverse_cube_fails():
    ode = central_3rd_order(ex.pow_(Var("rho"), 3))  # force 1/r^3
    assert not is_zero(wunschmann_residual(ode), WUNSCHMANN_BOX)


def test_wunschmann_scan():
    rows = power_law_scan([-3, -2.5, -2, -1.5, 0, 1, 2], "wunschmann")
    passing = {row.alpha for row in rows if row.passed}
    assert passing == {-2.0, 1.0}


def test_fixed_m_scan():
    rows = power_law_scan([-3, -2, -1, 1, 2], "fixedM-flat")
    passing = {row.alpha for row in rows if row.passed}
    assert passing == {-2.0, -3.0}


def test_zero_energy_scan():
    rows = power_law_scan([-2, -1, 1, 2], "zeroE-flat")
    failing = {row.alpha for row in rows if not row.passed}
    assert failing == {-1.0}


def test_fixed_energy_scan_all_non_flat():
    rows = power_law_scan([-2, -1, 1, 2], "fixedE-flat")
    assert all(not row.passed for row in rows)


def test_flatness_residual_scale():
    # non-flat cases sit far above the zero-test threshold
    assert flatness_residual(kepler_fixed_e(-1)) > 1e-3


# --------------------------------------------------------------------------
# Cross-check against sympy, rebuilt from the defining formulas
# --------------------------------------------------------------------------

PARSED_BOX = {"x": (-1.0, 1.0), "y": (1.5, 3.0), "p": (-1.0, 1.0)}


def _sympy_tresse(sp, f, x, y, p):
    """(i1, i2) of y'' = f from their definitions: f_pppp and the 9-term combination."""

    def total(e):
        return sp.diff(e, x) + p * sp.diff(e, y) + f * sp.diff(e, p)

    fp = sp.diff(f, p)
    fpp, fy, fpy = sp.diff(fp, p), sp.diff(f, y), sp.diff(fp, y)
    dfpp = total(fpp)
    i2_ref = total(dfpp) - 4 * total(fpy) + fp * (4 * fpy - dfpp) - 3 * fpp * fy + 6 * sp.diff(fy, y)
    return sp.diff(f, p, 4), i2_ref


def _sympy_wunschmann(sp, force, th, rho, r1, r2):
    """F_rho + (D - (2/3) F_rho'') K with F the central-force 3rd-order right-hand side."""
    big_f = r1 * ((r2 + rho) * (sp.diff(force, rho) / force - 2 / rho) - 1)

    def total(e):
        return sp.diff(e, th) + r1 * sp.diff(e, rho) + r2 * sp.diff(e, r1) + big_f * sp.diff(e, r2)

    f_r2 = sp.diff(big_f, r2)
    k = total(f_r2) / 6 - f_r2 ** 2 / 9 - sp.diff(big_f, r1) / 2
    return (sp.diff(big_f, rho) + total(k) - sp.Rational(2, 3) * f_r2 * k,)


def _case(sp, name):
    """(our expressions, sympy references, box) of one cross-check case."""
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    x, y, p = sp.symbols("x y p")
    th, rho, r1, r2 = sp.symbols("theta rho rho1 rho2")
    if name.startswith("parsed:"):
        text = name.split(":", 1)[1]
        ode = SecondOrderODE(parse(text), dict(PARSED_BOX))
        f = parse_expr(text, transformations=standard_transformations + (convert_xor,))
        return (i1(ode), i2(ode)), _sympy_tresse(sp, f, x, y, p), ode.box
    if name == "fixed-m":  # force -r^(-5/2) at angular momentum 3/2: rho'' = -f(1/rho)/(M^2 rho^2) - rho
        ode = fixed_m_ode(power_force(Fraction(-5, 2)), Fraction(3, 2))
        force = -(1 / rho) ** sp.Rational(-5, 2)
        f = -force / (sp.Rational(9, 4) * rho ** 2) - rho
        return (i1(ode), i2(ode)), _sympy_tresse(sp, f, th, rho, r1), ode.box
    if name == "fixed-e":  # Kepler at E = 1/2, with M^2 = 2 (E - V) / (rho'^2 + rho^2) eliminated
        ode = fixed_e_ode(kepler_force(), kepler_potential(), Fraction(1, 2))
        force, potential = -rho ** 2, -rho
        f = -rho - force * (r1 ** 2 + rho ** 2) / (2 * rho ** 2 * (sp.Rational(1, 2) - potential))
        return (i1(ode), i2(ode)), _sympy_tresse(sp, f, th, rho, r1), ode.box
    # the Wunschmann residual of the force 2 rho^(1/2), in rho = 1/r
    ode = central_3rd_order(ex.mul(2, ex.pow_(Var("rho"), Fraction(1, 2))))
    force = 2 * sp.sqrt(rho)
    return (wunschmann_residual(ode),), _sympy_wunschmann(sp, force, th, rho, r1, r2), ode.box


@pytest.mark.parametrize("name", [
    "parsed:(y^2 + p^2)/(2*(y + 3)) - y",
    "parsed:sin(2*x)*p^3 + y*p - 5/3",
    "parsed:sqrt(3 + p^2)*7/(2*y) + x*p^2",
    "fixed-m",
    "fixed-e",
    "wunschmann",
])
def test_invariants_agree_with_sympy(name):
    sp = pytest.importorskip("sympy")
    ours, refs, box = _case(sp, name)
    rng = random.Random(f"sympy-{name}")
    for _ in range(3):
        point = {n: Fraction(rng.randint(int(16 * lo), int(16 * hi)), 16) for n, (lo, hi) in box.items()}
        point.setdefault("theta", Fraction(1, 3))
        at = {sp.Symbol(n): sp.Rational(v.numerator, v.denominator) for n, v in point.items()}
        floats = {n: float(v) for n, v in point.items()}
        for e, ref in zip(ours, refs):
            r = float(ref.subs(at))
            assert abs(evaluate(e, floats) - r) <= 1e-9 * (1.0 + abs(r))
