from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from keplersym import expr as ex
from keplersym.expr import (
    Const,
    JetContext,
    DivisionByZeroError,
    MathDomainError,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
    diff,
    evaluate,
    free_vars,
    is_zero,
    parse,
    to_str,
    total_derivative,
)


def test_parse_free_vars():
    e = parse("(rho^2 + p^2)/(2*(rho+E)) - rho")
    assert free_vars(e) == {"rho", "p", "E"}


def test_parse_unterminated_call_reports_position():
    with pytest.raises(ParseError) as err:
        parse("sin(")
    assert err.value.position == 4


def test_parse_rational_literal_is_exact():
    e = parse("3/4")
    assert isinstance(e, Const)
    assert e.value == Fraction(3, 4)
    assert evaluate(e, {}) == 0.75


def test_parse_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("tan(x)")


@pytest.mark.parametrize(
    "text",
    ["x + * y", "(x", "2 ^ x", "x ^ (y)", ""],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse(text)


def test_diff_power_rule():
    d = diff(parse("p^3"), "p")
    assert evaluate(d, {"p": 2.0}) == 12.0
    assert free_vars(d) == {"p"}


def test_diff_quotient_matches_value():
    e = parse("(rho^2+p^2)/(2*(rho+E))")
    d = diff(e, "rho")
    assert evaluate(d, {"rho": 2.0, "p": 1.0, "E": -1.0}) == pytest.approx(-0.5, abs=1e-12)


def test_diff_sin_at_zero():
    d = diff(parse("sin(x)"), "x")
    assert evaluate(d, {"x": 0.0}) == 1.0


def test_diff_of_closed_expression_is_zero():
    assert diff(parse("3/4 + 2^3"), "x") == ex.ZERO


def test_eval_null_vector():
    e = parse("a^2 + b^2 - c^2")
    assert evaluate(e, {"a": 3.0, "b": 4.0, "c": 5.0}) == 0.0


def test_eval_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        evaluate(parse("1/x"), {"x": 0.0})


def test_eval_negative_power():
    assert evaluate(parse("r^(-2)"), {"r": 2.0}) == 0.25


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": 1.0})


def test_eval_domain_errors_are_distinct():
    with pytest.raises(MathDomainError) as err:
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    assert err.value.function == "sqrt"
    with pytest.raises(MathDomainError) as err:
        evaluate(parse("ln(x)"), {"x": 0.0})
    assert err.value.function == "ln"
    with pytest.raises(MathDomainError) as err:
        evaluate(parse("x^(1/2)"), {"x": -4.0})
    assert err.value.function == "power"


def test_total_derivative_order2_basics():
    f = parse("y^2 + p")
    ctx = JetContext(f, ("x", "y", "p"))
    assert total_derivative(parse("p"), ctx) == f
    assert to_str(total_derivative(parse("y"), ctx)) == "p"
    assert total_derivative(parse("x"), ctx) == ex.ONE


def test_total_derivative_rejects_stray_rhs_variables():
    with pytest.raises(ValueError):
        JetContext(parse("y + z"), ("x", "y", "p"))


def test_is_zero_trig_identity():
    e = parse("sin(x)^2 + cos(x)^2 - 1")
    assert is_zero(e, {"x": (-3.0, 3.0)}, trials=16)


def test_is_zero_fourth_derivative_of_quadratic():
    e = parse("p^2")
    for _ in range(4):
        e = diff(e, "p")
    assert e == ex.ZERO
    assert is_zero(e, {"p": (0.0, 1.0)})


def test_is_zero_rejects_nonzero():
    assert not is_zero(parse("rho - p"), {"rho": (1.0, 2.0), "p": (1.0, 2.0)})


def test_is_zero_requires_covered_box():
    with pytest.raises(ValueError):
        is_zero(parse("x + y"), {"x": (0.0, 1.0)})


def test_is_zero_rejects_non_finite_values():
    # x^3 overflows to inf, inf * 0 is NaN: the residual must not read as zero
    assert not is_zero(parse("x*x*x*(y - y) + 1"), {"x": (1e200, 2e200), "y": (0, 1)})


CORPUS = [
    ("x^3 + 2*x - 1/3", {"x": (0.5, 2.0)}),
    ("sin(x)*cos(x) + x^(1/2)", {"x": (0.1, 3.0)}),
    ("(x^2+y^2)/(2*(x+y)) - y", {"x": (0.5, 2.0), "y": (0.5, 2.0)}),
    ("ln(x) + x^(-3/2)", {"x": (0.5, 3.0)}),
    ("sqrt(x^2 + 1) - 2/x", {"x": (0.5, 2.0)}),
]


@pytest.mark.parametrize("text,box", CORPUS)
def test_diff_matches_central_differences(text, box):
    e = parse(text)
    rng = random.Random(7)
    h = 1e-6
    for _ in range(100):
        point = {n: rng.uniform(lo + 0.05, hi - 0.05) for n, (lo, hi) in box.items()}
        for v in free_vars(e):
            d = evaluate(diff(e, v), point)
            hi_pt = dict(point, **{v: point[v] + h})
            lo_pt = dict(point, **{v: point[v] - h})
            fd = (evaluate(e, hi_pt) - evaluate(e, lo_pt)) / (2 * h)
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d)), (text, v, point)


@pytest.mark.parametrize("text,box", CORPUS)
def test_print_parse_round_trip(text, box):
    e = parse(text)
    back = parse(to_str(e))
    rng = random.Random(11)
    for _ in range(25):
        point = {n: rng.uniform(lo, hi) for n, (lo, hi) in box.items()}
        assert evaluate(back, point) == pytest.approx(evaluate(e, point), rel=1e-14, abs=1e-14)


def test_round_trip_negative_and_power_shapes():
    for text in ["-x^2", "x^-2", "(-2)^3", "2 - -3", "x/(y*z)", "-(x+1)*y"]:
        e = parse(text)
        back = parse(to_str(e))
        pt = {"x": 1.7, "y": 0.9, "z": 1.3}
        assert evaluate(back, pt) == pytest.approx(evaluate(e, pt), rel=1e-14)


def test_eval_deterministic():
    e = parse("sin(x) * (x^2 - 1/7) / sqrt(x + 2)")
    v1 = evaluate(e, {"x": 1.2345})
    v2 = evaluate(parse(to_str(e)), {"x": 1.2345})
    assert v1 == v2


def test_subst_replaces_variable():
    e = parse("r^(-2)")
    g = ex.subst(e, "r", ex.div(1, ex.var("rho")))
    assert evaluate(g, {"rho": 2.0}) == pytest.approx(4.0)


def test_exact_rational_power_folds():
    e = parse("(3/4)^2")
    assert isinstance(e, Const)
    assert e.value == Fraction(9, 16)


def test_math_helpers_track_intermediates():
    v, peak = ex.evaluate_tracked(parse("1000*x - 1000*x + 1"), {"x": 1.0})
    assert v == 1.0
    assert peak >= 1000.0
