from __future__ import annotations

import gc
import math
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keplersym import expr as ex
from keplersym.expr import (
    Add,
    Const,
    Div,
    Func,
    Mul,
    Pow,
    Var,
    MAX_PARSE_DEPTH,
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
    total_derivative,
    var,
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


@pytest.mark.parametrize("text", [
    "(" * 3000 + "p" + ")" * 3000,
    "p" + "^2" * 2000,
    "-" * 3000 + "p",
    "sin(" * 3000 + "p" + ")" * 3000,
], ids=["brackets", "powers", "minus", "calls"])
def test_parse_rejects_deep_nesting(text):
    with pytest.raises(ParseError, match="nests deeper than"):
        parse(text)


def test_parse_nesting_limit_is_exact():
    k = MAX_PARSE_DEPTH - 1  # p inside k brackets sits at nesting level k + 1
    assert parse("(" * k + "p" + ")" * k) is var("p")
    with pytest.raises(ParseError) as err:
        parse("(" * (k + 1) + "p" + ")" * (k + 1))
    assert err.value.position == k + 1


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


@pytest.mark.parametrize("e", [
    Add((Var("y"), Var("z"))),
    Mul((Var("y"), Var("z"))),
    Div(Var("y"), Var("z")),
    Div(Const(Fraction(3)), Var("z")),
    Pow(Var("y"), Fraction(3)),
    Func("sin", Var("y")),
], ids=["add", "mul", "div", "const-over-var", "pow", "func"])
def test_diff_without_the_variable_is_zero_with_no_descent(monkeypatch, e):
    calls = []
    real = ex._diff
    monkeypatch.setattr(ex, "_diff", lambda n, v: calls.append(n) or real(n, v))
    assert diff(e, "x") is ex.ZERO
    assert diff(ex.mul(e, Var("x")), "x") is e  # the product rule keeps one term
    assert all("x" in free_vars(n) for n in calls)


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
    jet = ("x", "y", "p")
    assert total_derivative(parse("p"), f, jet) == f
    assert total_derivative(parse("y"), f, jet) is Var("p")
    assert total_derivative(parse("x"), f, jet) == ex.ONE


def test_is_zero_trig_identity():
    e = parse("sin(x)^2 + cos(x)^2 - 1")
    assert is_zero(e, {"x": (-3.0, 3.0)})


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


def test_eval_deterministic():
    e = parse("sin(x) * (x^2 - 1/7) / sqrt(x + 2)")
    v1 = evaluate(e, {"x": 1.2345})  # converts the constants
    v2 = evaluate(e, {"x": 1.2345})  # reads their cached doubles
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


# --------------------------------------------------------------------------
# Hash-consed DAG and its evaluation
# --------------------------------------------------------------------------


def _reference(e, b):
    """Reference evaluator: a plain recursive walk of the expression tree.

    Every occurrence of a shared node is evaluated again.  Returns (value,
    peak), where the peak is the largest magnitude of any node's value (a
    NaN never raises it).  Errors are raised where the walk meets them,
    with the engine's error types.
    """
    peak = [0.0]

    def note(x):
        if abs(x) > peak[0]:
            peak[0] = abs(x)
        return x

    def walk(n):
        if isinstance(n, ex.Const):
            try:
                return note(float(n.value))
            except OverflowError:
                raise ex.FloatOverflowError("constant") from None
        if isinstance(n, Var):
            if n.name not in b:
                raise UnboundVariableError(n.name)
            return note(float(b[n.name]))
        if isinstance(n, Add):
            values = [walk(t) for t in n.terms]
            try:
                return note(math.fsum(values))
            except OverflowError:
                raise ex.FloatOverflowError("sum") from None
            except ValueError:
                raise MathDomainError("sum", math.inf) from None
        if isinstance(n, Mul):
            out = 1.0
            for f in n.factors:
                out *= walk(f)
            return note(out)
        if isinstance(n, Div):
            num, den = walk(n.num), walk(n.den)
            if den == 0.0:
                raise DivisionByZeroError()
            return note(num / den)
        if isinstance(n, Pow):
            base, p = walk(n.base), float(n.exponent)
            if base == 0.0:
                if p < 0.0:
                    raise DivisionByZeroError()
                return note(0.0 if p > 0.0 else 1.0)
            sign = 1.0
            if base < 0.0:
                if not p.is_integer():
                    raise MathDomainError("power", base)
                sign = -1.0 if int(p) % 2 else 1.0
            try:
                return note(sign * abs(base) ** p)
            except OverflowError:
                raise ex.FloatOverflowError("power") from None
        x = walk(n.arg)
        if n.name in ("sin", "cos"):
            if math.isinf(x):
                raise MathDomainError(n.name, x)
            return note(math.sin(x) if n.name == "sin" else math.cos(x))
        if n.name == "sqrt":
            if x < 0.0:
                raise MathDomainError("sqrt", x)
            return note(math.sqrt(x))
        if x <= 0.0:
            raise MathDomainError("ln", x)
        return note(math.log(x))

    v = walk(e)
    return v, peak[0]


_NUMBERS = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 1e155, -1e155, 1e308, math.inf, math.nan]),
)
_EXPONENTS = st.sampled_from([Fraction(2), Fraction(3), Fraction(-1), Fraction(-2), Fraction(1, 2),
                              Fraction(-3, 2), 0.5, 2.0, 3.0, -1.5, 1e3, 0.0])
_LEAVES = st.one_of(_NUMBERS.map(ex.Const), st.sampled_from(["x", "y", "z"]).map(Var))


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=4).map(lambda ts: Add(tuple(ts))),
        st.lists(children, min_size=0, max_size=4).map(lambda fs: Mul(tuple(fs))),
        st.tuples(children, children).map(lambda nd: Div(*nd)),
        st.tuples(children, _EXPONENTS).map(lambda be: Pow(*be)),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda fa: Func(*fa)),
        # shared subexpressions, through the simplifying builders too
        children.map(lambda c: Add((c, Mul((c, c)), c))),
        st.tuples(children, children).map(lambda ab: ex.sub(ex.mul(ab[0], ab[1]), ex.div(ab[1], ab[0]))),
    )


_EXPRS = st.recursive(_LEAVES, _extend, max_leaves=24)
_COORDS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -1.0, 1e160, -1e160, 1e-160]))
_POINTS = st.fixed_dictionaries({"x": _COORDS, "y": _COORDS}, optional={"z": _COORDS})


def _same_float(a: float, b: float) -> bool:
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ex.EvalError as err:
        return type(err)


@settings(max_examples=400, deadline=None)
@given(_EXPRS, _POINTS)
def test_dag_evaluation_matches_tree_reference(e, point):
    want = _outcome(_reference, e, point)
    got = _outcome(ex.evaluate_tracked, e, point)
    if isinstance(want, type):
        assert got is want, (e, point)
        assert _outcome(evaluate, e, point) is want
        return
    assert not isinstance(got, type), (e, point, got)
    assert _same_float(got[0], want[0]) and _same_float(got[1], want[1]), (e, point, got, want)
    assert _same_float(evaluate(e, point), want[0])


def test_identical_constructions_are_one_object():
    x, y = Var("x"), Var("y")
    assert Var("x") is x
    assert Add((Mul((x, y)), Pow(x, 2))) is Add((Mul((x, y)), Pow(x, 2)))
    assert Func("sin", x) is ex.sin(x)
    assert parse("(x*p - y)^3 + sin(x)/2") is parse("(x*p - y)^3 + sin(x)/2")
    assert Const(Fraction(1)) is ex.ONE


def test_constants_keep_their_kind_and_sign():
    kinds = [Const(Fraction(1)), Const(1.0), Const(0.0), Const(-0.0), Const(Fraction(0))]
    assert len({id(c) for c in kinds}) == len(kinds)
    assert Const(1.0) != Const(Fraction(1))
    assert math.copysign(1.0, Const(-0.0).value) == -1.0
    assert Const(math.nan) is Const(math.nan)
    assert Pow(Var("x"), 2) is not Pow(Var("x"), Fraction(2))


def test_nodes_are_immutable_and_copy_to_themselves():
    e = parse("x^2 + sin(y)")
    with pytest.raises(AttributeError):
        e.terms = ()
    assert pickle.loads(pickle.dumps(e)) is e
    assert repr(Const(Fraction(1, 2))) == "Const(value=Fraction(1, 2))"


def test_diff_of_a_shared_subtree_is_computed_once(monkeypatch):
    s = parse("sin(x)*x^2")
    d = diff(s, "x")
    calls = []
    real = ex._diff
    monkeypatch.setattr(ex, "_diff", lambda e, v: calls.append(e) or real(e, v))
    assert diff(s, "x") is d
    assert calls == []
    big = ex.add(ex.sin(s), ex.div(s, ex.add(s, 1)))
    diff(big, "x")
    assert calls and s not in calls  # the shared subtree is reused, not re-derived
    assert diff(s, "x") is d


def _tree_subst(e, name, replacement):
    """Reference substitution: rebuilds every occurrence of every node."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Add):
        return ex.add(*(_tree_subst(t, name, replacement) for t in e.terms))
    if isinstance(e, Mul):
        return ex.mul(*(_tree_subst(f, name, replacement) for f in e.factors))
    if isinstance(e, Div):
        return ex.div(_tree_subst(e.num, name, replacement), _tree_subst(e.den, name, replacement))
    if isinstance(e, Pow):
        return ex.pow_(_tree_subst(e.base, name, replacement), e.exponent)
    return ex.func(e.name, _tree_subst(e.arg, name, replacement))


_KIDS = {Add: lambda n: n.terms, Mul: lambda n: n.factors, Div: lambda n: (n.num, n.den),
         Pow: lambda n: (n.base,), Func: lambda n: (n.arg,)}


def _dag_edges(e) -> tuple[set, int]:
    """(ids of the distinct nodes, number of parent-child edges) of the DAG under e."""
    seen, edges, stack = set(), 0, [e]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            kids = _KIDS.get(type(n), lambda _: ())(n)
            edges += len(kids)
            stack.extend(kids)
    return seen, edges


def test_subst_matches_the_tree_walk_on_the_zero_energy_i2():
    from keplersym import invariants as inv

    i2 = inv.i2(inv.fixed_e_ode(inv.kepler_force(), inv.kepler_potential(), 0))
    q = Var("q")
    assert ex.subst(i2, "rho1", q) is _tree_subst(i2, "rho1", q)
    assert ex.subst(i2, "absent", q) is i2


def test_kepler_i1_is_zero_itself():
    from keplersym import invariants as inv

    fixed_m = inv.fixed_m_ode(inv.kepler_force(), 1)
    box = inv.kepler_fixed_e_boxes(-1.0)[-1]
    fixed_e = inv.fixed_e_ode(inv.kepler_force(), inv.kepler_potential(), -1, box=box)
    assert inv.i1(fixed_m) is ex.ZERO
    assert inv.i1(fixed_e) is ex.ZERO


def test_zero_energy_i2_carries_no_derivatives_of_constants():
    from keplersym import invariants as inv

    i2 = inv.i2(inv.fixed_e_ode(inv.kepler_force(), inv.kepler_potential(), 0))
    nodes, _ = _dag_edges(i2)
    assert len(nodes) <= 150


def test_subst_calls_scale_with_the_dag_not_the_tree(monkeypatch):
    x, y = Var("x"), Var("y")
    e = x
    for _ in range(40):  # the tree doubles per level, the DAG grows by a few nodes
        e = ex.add(ex.mul(e, y), ex.sin(e))
    nodes, edges = _dag_edges(e)
    calls = []
    real = ex._subst
    monkeypatch.setattr(ex, "_subst", lambda n, *rest: calls.append(n) or real(n, *rest))
    g = ex.subst(e, "x", Var("z"))
    assert len({id(n) for n in calls}) <= len(nodes)
    assert len(calls) <= edges + 1  # each edge is followed once, from the root
    assert free_vars(g) == {"y", "z"}


def test_free_vars_are_stored_on_the_node():
    e = parse("x*y + z")
    assert free_vars(e) is free_vars(e)
    assert free_vars(e) == {"x", "y", "z"}


def test_unreferenced_nodes_are_collected():
    e = ex.add(ex.mul(Var("q_dead"), Const(Fraction(12345))), ex.sqrt(Var("q_dead")))
    diff(e, "q_dead")  # memos may form cycles back to e
    evaluate(e, {"q_dead": 2.0})
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None
    assert (Var, "q_dead") not in ex._TABLE


def test_dag_evaluation_reports_errors_in_tree_order():
    with pytest.raises(DivisionByZeroError):
        evaluate(parse("1/x + ln(y)"), {"x": 0.0, "y": -1.0})
    with pytest.raises(MathDomainError):
        evaluate(parse("ln(y) + 1/x"), {"x": 0.0, "y": -1.0})
    with pytest.raises(UnboundVariableError):
        evaluate(parse("z * sqrt(x)"), {"x": -1.0})
    with pytest.raises(DivisionByZeroError):
        evaluate(parse("1/x + 10^400"), {"x": 0.0})


def test_sum_overflow_is_a_typed_error():
    with pytest.raises(ex.FloatOverflowError):
        evaluate(parse("p*p*p*p + p*p*p*p"), {"p": 1e77})
    assert issubclass(ex.FloatOverflowError, ex.EvalError)
    with pytest.raises(MathDomainError):
        evaluate(parse("x*x - x*x*x"), {"x": 1e200})  # inf + -inf
    with pytest.raises(ex.FloatOverflowError):
        evaluate(parse("10^400 + x"), {"x": 1.0})


@pytest.mark.parametrize("name", ["sin", "cos"])
@pytest.mark.parametrize("big", [1e200, -1e200])
def test_trig_of_infinity_is_a_domain_error(name, big):
    with pytest.raises(MathDomainError) as err:
        evaluate(parse(f"{name}(p*p*p)"), {"p": big})
    assert err.value.function == name


def test_constant_powers_fold_up_to_the_size_limit():
    assert ex.pow_(Const(Fraction(2)), ex.MAX_POWER_BITS).value == 2**ex.MAX_POWER_BITS
    assert ex.pow_(Const(Fraction(-1)), 10**12).value == 1  # |1|^n stays one bit
    assert parse("2^-3").value == Fraction(1, 8)


@pytest.mark.parametrize("build", [
    lambda: ex.pow_(Const(Fraction(2)), ex.MAX_POWER_BITS + 1),
    lambda: ex.pow_(Const(Fraction(1, 3)), -10**8),
    lambda: parse("y*2^100000000"),
])
def test_oversized_constant_powers_are_refused_before_they_are_built(build):
    tracemalloc.start()
    try:
        with pytest.raises(ex.ExprSizeError, match=f"exceed {ex.MAX_POWER_BITS} bits"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2^100000000 alone would take 12.5 MB
    assert issubclass(ex.ExprSizeError, ex.ExprError)
    assert not issubclass(ex.ExprSizeError, ParseError)


def test_constant_overflow_message_gives_the_size_not_the_digits():
    # printing 2^60000 in decimal exceeds Python's integer-to-string limit
    with pytest.raises(ex.FloatOverflowError, match=r"near 2\^60000 overflows"):
        evaluate(parse("p*2^60000"), {"p": 1.0})


# --------------------------------------------------------------------------
# Constant folding, cached doubles and the intern table
# --------------------------------------------------------------------------

NAN, INF = math.nan, math.inf
FOLDS = [
    [], [Fraction(3)], [Fraction(1, 3), Fraction(-1, 3)], [5],
    [0.0], [-0.0], [-0.0, -0.0], [Fraction(0), -0.0], [-0.0, Fraction(0)], [-0.0, 2.5],
    [NAN], [-NAN], [NAN, Fraction(2)], [INF], [-INF], [INF, -INF], [INF, Fraction(0)],
    [Fraction(1, 3), 0.5], [0.5, Fraction(1, 3)], [Fraction(2), 0.5], [2.5, Fraction(-2, 5)],
    [1.0], [-1.0, -1.0], [1e308, 1e308],
]


def _old_fold(values, start, op):
    """The fold before the lazy accumulator: start from Fraction(start), Fractions stay exact."""
    acc = Fraction(start)
    for v in values:
        both = isinstance(acc, Fraction) and isinstance(v, Fraction)
        acc = op(acc, v) if both else op(float(acc), float(v))
    return acc


@pytest.mark.parametrize("values", FOLDS, ids=repr)
def test_sum_folds_to_the_node_the_zero_accumulator_gave(values):
    want = _old_fold(values, 0, lambda a, b: a + b)
    consts = [Const(v) for v in values]
    x = Var("x")
    assert ex.add(*consts) is Const(want)
    assert ex.add(x, *consts) is (Add((x, Const(want))) if want != 0 else x)


@pytest.mark.parametrize("values", FOLDS, ids=repr)
def test_product_folds_to_the_node_the_unit_accumulator_gave(values):
    want = _old_fold(values, 1, lambda a, b: a * b)
    consts = [Const(v) for v in values]
    x = Var("x")
    assert ex.mul(*consts) is Const(want)
    if want == 0:
        assert ex.mul(x, *consts) is Const(want)
    else:
        assert ex.mul(x, *consts) is (Mul((Const(want), x)) if want != 1 else x)


def test_an_overflowing_constant_raises_on_each_evaluation_and_is_never_cached():
    big = Const(Fraction(10**400 + 3))
    e = ex.add(Var("x"), big)
    for _ in range(2):
        with pytest.raises(ex.FloatOverflowError, match=r"near 2\^\d+ overflows"):
            evaluate(e, {"x": 1.0})
    assert big._double is None
    small = Const(Fraction(2, 7))
    assert evaluate(ex.add(Var("x"), small), {"x": 0.0}) == 2 / 7
    assert small._double == 2 / 7


@pytest.mark.parametrize("build", [
    lambda: ex.div(Const(Fraction(10**400)), Const(2.0)),
    lambda: ex.add(Const(Fraction(10**400)), Const(0.5)),
    lambda: ex.mul(Const(Fraction(10**400)), Const(0.5)),
])
def test_folding_a_huge_exact_constant_into_a_float_is_a_typed_error(build):
    with pytest.raises(ex.FloatOverflowError, match=r"near 2\^1328 overflows"):
        build()


def test_a_dead_table_entry_gives_a_fresh_node():
    class Gone:
        pass

    key = (Var, "q_ghost")
    gone = Gone()
    ex._LIVE[key] = weakref.KeyedRef(gone, None, key)
    del gone
    assert ex._LIVE[key]() is None
    v = Var("q_ghost")
    assert type(v) is Var and v.name == "q_ghost"
    assert ex._LIVE[key]() is v


def _nodes(e, out):
    if e not in out:
        out.add(e)
        for f in e._fields:
            kids = getattr(e, f)
            for k in kids if isinstance(kids, tuple) else (kids,):
                if isinstance(k, ex._Node):
                    _nodes(k, out)
    return out


def test_the_table_holds_one_keyed_ref_per_live_node():
    gc.collect()
    before = {id(r()) for r in ex._LIVE.values()}
    e = parse("q_one*sin(q_one) + 3/7 + q_two^2/q_one")
    new = [n for n in _nodes(e, set()) if id(n) not in before]
    assert len(ex._LIVE) == len(before) + len(new)
    for key, ref in ex._LIVE.items():
        assert type(ref) is weakref.KeyedRef and ref.key is key and ref() is not None
    assert len({id(r()) for r in ex._LIVE.values()}) == len(ex._LIVE)


def test_the_live_node_budget_refuses_a_runaway_build_and_drains():
    gc.collect()
    before = len(ex._LIVE)
    e = parse("sin(" * 40 + "q_deep" + ")" * 40)  # its 4th derivative needs far more nodes
    with pytest.raises(ex.ExprSizeError, match=f"more than {ex.MAX_LIVE_NODES} live nodes"):
        for _ in range(4):
            e = diff(e, "q_deep")
    del e
    gc.collect()
    assert len(ex._LIVE) == before
    assert issubclass(ex.ExprSizeError, ex.ExprError)


def test_unreachable_derivative_cycles_do_not_count_against_the_budget(monkeypatch):
    gc.collect()
    monkeypatch.setattr(ex, "MAX_LIVE_NODES", len(ex._LIVE) + 20)
    gc.disable()
    try:
        for i in range(10):  # each pass leaves about 6 unreachable nodes behind
            e = ex.sin(Var(f"q_cycle{i}"))
            diff(diff(e, f"q_cycle{i}"), f"q_cycle{i}")  # sin's memo holds cos, cos's holds sin
            del e
    finally:
        gc.enable()
