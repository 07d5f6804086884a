"""Small expression engine: parse, differentiate, evaluate, zero-test.

Covers exactly the node kinds needed for ODE right-hand sides and central
force laws: rational/real constants, named variables, sums, products,
quotients, powers with constant exponent, and the unary functions
sin, cos, sqrt, ln.  Trees are immutable; every operation is pure.

Simplification is deliberately local (constant folding, dropping zero
terms and unit factors); expression equality is decided by seeded
randomized evaluation (`is_zero`), never by canonical forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

Number = Union[Fraction, float]

FUNCTIONS = ("sin", "cos", "sqrt", "ln")

# Defaults for the randomized zero test.
ZERO_TEST_THRESHOLD = 1e-9
ZERO_TEST_TRIALS = 16
ZERO_TEST_SEED = 0x5EED


class ExprError(Exception):
    """Base class for all expression-engine errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnknownFunctionError(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"unknown function '{name}'", position)
        self.name = name


class EvalError(ExprError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DivisionByZeroError(EvalError):
    def __init__(self, detail: str = "division by zero"):
        super().__init__(detail)


class MathDomainError(EvalError):
    def __init__(self, function: str, value: float):
        super().__init__(f"{function} of out-of-domain argument {value!r}")
        self.function = function
        self.value = value


class PowerOverflowError(EvalError):
    """A power left the range of a double."""


# --------------------------------------------------------------------------
# Nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: Number  # Fraction kept exact; float for decimals/irrationals


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    terms: tuple["Expr", ...]


@dataclass(frozen=True)
class Mul:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Div:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Number  # constant exponent only; Fraction kept exact


@dataclass(frozen=True)
class Func:
    name: str  # one of FUNCTIONS
    arg: "Expr"


Expr = Union[Const, Var, Add, Mul, Div, Pow, Func]

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(value) -> Const:
    if isinstance(value, Const):
        return value
    if isinstance(value, int):
        return Const(Fraction(value))
    if isinstance(value, (Fraction, float)):
        return Const(value)
    raise TypeError(f"cannot make a constant from {value!r}")


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and zero dropping."""
    flat: list[Expr] = []
    acc: Number = Fraction(0)
    for t in terms:
        t = t if not isinstance(t, (int, Fraction, float)) else const(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out: list[Expr] = []
    for t in flat:
        if isinstance(t, Const):
            acc = _num_add(acc, t.value)
        else:
            out.append(t)
    if acc != 0 or not out:
        out.append(Const(acc))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding, 0*x -> 0 and x*1 -> x."""
    flat: list[Expr] = []
    acc: Number = Fraction(1)
    for f in factors:
        f = f if not isinstance(f, (int, Fraction, float)) else const(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    out: list[Expr] = []
    for f in flat:
        if isinstance(f, Const):
            acc = _num_mul(acc, f.value)
        else:
            out.append(f)
    if acc == 0:
        return Const(acc)
    if not out:
        return Const(acc)
    if acc != 1:
        out.insert(0, Const(acc))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def div(num, den) -> Expr:
    num = num if not isinstance(num, (int, Fraction, float)) else const(num)
    den = den if not isinstance(den, (int, Fraction, float)) else const(den)
    if isinstance(den, Const) and den.value != 0:
        if isinstance(num, Const):
            if isinstance(num.value, Fraction) and isinstance(den.value, Fraction):
                return Const(num.value / den.value)
            return Const(float(num.value) / float(den.value))
        if den.value == 1:
            return num
    return Div(num, den)


def neg(e) -> Expr:
    return mul(-1, e)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def pow_(base, exponent) -> Expr:
    base = base if not isinstance(base, (int, Fraction, float)) else const(base)
    if isinstance(exponent, Const):
        exponent = exponent.value
    if isinstance(exponent, int):
        exponent = Fraction(exponent)
    if not isinstance(exponent, (Fraction, float)):
        raise TypeError("power exponent must be a constant")
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if (
        isinstance(base, Const)
        and isinstance(base.value, Fraction)
        and isinstance(exponent, Fraction)
        and exponent.denominator == 1
        and not (base.value == 0 and exponent < 0)
    ):
        return Const(base.value ** int(exponent))
    return Pow(base, exponent)


def func(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    return Func(name, arg)


def sin(arg) -> Expr:
    return Func("sin", arg)


def cos(arg) -> Expr:
    return Func("cos", arg)


def sqrt(arg) -> Expr:
    return Func("sqrt", arg)


def ln(arg) -> Expr:
    return Func("ln", arg)


def _num_add(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _num_mul(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return float(a) * float(b)


# --------------------------------------------------------------------------
# Structure queries
# --------------------------------------------------------------------------

def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Add):
        out: frozenset[str] = frozenset()
        for t in e.terms:
            out |= free_vars(t)
        return out
    if isinstance(e, Mul):
        out = frozenset()
        for f in e.factors:
            out |= free_vars(f)
        return out
    if isinstance(e, Div):
        return free_vars(e.num) | free_vars(e.den)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Func):
        return free_vars(e.arg)
    raise TypeError(f"not an expression: {e!r}")


def subst(e: Expr, name: str, replacement: Expr) -> Expr:
    """Substitute `replacement` for every occurrence of variable `name`."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Add):
        return add(*(subst(t, name, replacement) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(subst(f, name, replacement) for f in e.factors))
    if isinstance(e, Div):
        return div(subst(e.num, name, replacement), subst(e.den, name, replacement))
    if isinstance(e, Pow):
        return pow_(subst(e.base, name, replacement), e.exponent)
    if isinstance(e, Func):
        return func(e.name, subst(e.arg, name, replacement))
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic derivative of `e` with respect to variable `v`."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(*(diff(t, v) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, v)
            if _is_const(df, 0):
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(e, Div):
        dn = diff(e.num, v)
        dd = diff(e.den, v)
        if _is_const(dd, 0):
            return div(dn, e.den)
        return div(sub(mul(dn, e.den), mul(e.num, dd)), pow_(e.den, 2))
    if isinstance(e, Pow):
        db = diff(e.base, v)
        if _is_const(db, 0):
            return ZERO
        exp = e.exponent
        step = _num_add(exp, Fraction(-1)) if isinstance(exp, Fraction) else exp - 1.0
        return mul(Const(exp), pow_(e.base, step), db)
    if isinstance(e, Func):
        da = diff(e.arg, v)
        if _is_const(da, 0):
            return ZERO
        if e.name == "sin":
            return mul(cos(e.arg), da)
        if e.name == "cos":
            return mul(-1, sin(e.arg), da)
        if e.name == "sqrt":
            return div(da, mul(2, sqrt(e.arg)))
        if e.name == "ln":
            return div(da, e.arg)
    raise TypeError(f"not an expression: {e!r}")


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

class _Tracker:
    """Records the largest intermediate magnitude seen during evaluation."""

    __slots__ = ("max_abs",)

    def __init__(self):
        self.max_abs = 0.0

    def note(self, x: float) -> float:
        ax = abs(x)
        if ax > self.max_abs:
            self.max_abs = ax
        return x


def evaluate(e: Expr, bindings: Mapping[str, float], _tracker: _Tracker | None = None) -> float:
    """Evaluate to an IEEE double.  All free variables must be bound.

    Reports unbound variables, division by zero, and sqrt/ln (or fractional
    power) of negative arguments through distinct error types.
    """
    t = _tracker if _tracker is not None else _Tracker()
    return _eval(e, bindings, t)


def evaluate_tracked(e: Expr, bindings: Mapping[str, float]) -> tuple[float, float]:
    """Like `evaluate`, also returning the largest intermediate magnitude."""
    t = _Tracker()
    v = _eval(e, bindings, t)
    return v, t.max_abs


def _eval(e: Expr, b: Mapping[str, float], t: _Tracker) -> float:
    if isinstance(e, Const):
        return t.note(float(e.value))
    if isinstance(e, Var):
        if e.name not in b:
            raise UnboundVariableError(e.name)
        return t.note(float(b[e.name]))
    if isinstance(e, Add):
        return t.note(math.fsum(_eval(x, b, t) for x in e.terms))
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, b, t)
        return t.note(out)
    if isinstance(e, Div):
        num = _eval(e.num, b, t)
        den = _eval(e.den, b, t)
        if den == 0.0:
            raise DivisionByZeroError()
        return t.note(num / den)
    if isinstance(e, Pow):
        base = _eval(e.base, b, t)
        return t.note(_pow_value(base, e.exponent))
    if isinstance(e, Func):
        x = _eval(e.arg, b, t)
        if e.name == "sin":
            return t.note(math.sin(x))
        if e.name == "cos":
            return t.note(math.cos(x))
        if e.name == "sqrt":
            if x < 0.0:
                raise MathDomainError("sqrt", x)
            return t.note(math.sqrt(x))
        if e.name == "ln":
            if x <= 0.0:
                raise MathDomainError("ln", x)
            return t.note(math.log(x))
    raise TypeError(f"not an expression: {e!r}")


def _pow_value(base: float, exponent: Number) -> float:
    integral = (
        exponent.denominator == 1
        if isinstance(exponent, Fraction)
        else float(exponent).is_integer()
    )
    p = float(exponent)
    if base == 0.0:
        if p < 0.0:
            raise DivisionByZeroError("zero base raised to a negative power")
        return 0.0 if p > 0.0 else 1.0
    sign = 1.0
    if base < 0.0:
        if not integral:
            raise MathDomainError("power", base)
        n = int(exponent) if isinstance(exponent, Fraction) else int(p)
        sign = -1.0 if n % 2 else 1.0
    try:
        return sign * abs(base) ** p
    except OverflowError as err:
        raise PowerOverflowError(f"{base!r}^{p!r} overflows a double") from err


# --------------------------------------------------------------------------
# Jet-space total derivative
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JetContext:
    """Total-derivative context along solutions of an ODE.

    `jet_vars` lists the jet coordinates in prolongation order, e.g.
    (x, y, p) for a 2nd-order equation y'' = f(x, y, p) with p = y', or
    (theta, rho, rho1, rho2) for a 3rd-order equation.  `rhs` is the
    top-order right-hand side; `params` are names treated as constants.
    """

    rhs: Expr
    jet_vars: tuple[str, ...]
    params: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(self.jet_vars) < 3:
            raise ValueError("need at least (x, y, p) jet variables")
        extra = free_vars(self.rhs) - set(self.jet_vars) - self.params
        if extra:
            raise ValueError(
                f"RHS has free variables outside the declared jet variables: {sorted(extra)}"
            )


def total_derivative(e: Expr, ctx: JetContext) -> Expr:
    """D(e) along the ODE flow: D = d/dx + p d/dy + ... + rhs d/d(top)."""
    names = ctx.jet_vars
    terms = [diff(e, names[0])]
    for i in range(1, len(names) - 1):
        terms.append(mul(Var(names[i + 1]), diff(e, names[i])))
    terms.append(mul(ctx.rhs, diff(e, names[-1])))
    return add(*terms)


# --------------------------------------------------------------------------
# Randomized zero test
# --------------------------------------------------------------------------

def is_zero(
    e: Expr,
    box: Mapping[str, tuple[float, float]],
    trials: int = ZERO_TEST_TRIALS,
    threshold: float = ZERO_TEST_THRESHOLD,
    seed: int = ZERO_TEST_SEED,
) -> bool:
    """Seeded randomized test for identical vanishing on a box.

    True iff |value| <= threshold * (1 + largest intermediate magnitude)
    at every sampled point.  Evaluation errors propagate to the caller.
    """
    return max_residual(e, box, trials=trials, seed=seed) <= threshold


def max_residual(
    e: Expr,
    box: Mapping[str, tuple[float, float]],
    trials: int = ZERO_TEST_TRIALS,
    seed: int = ZERO_TEST_SEED,
) -> float:
    """Largest scaled residual |value| / (1 + max intermediate) over samples, inf if not finite."""
    missing = free_vars(e) - set(box)
    if missing:
        raise ValueError(f"box does not cover free variables: {sorted(missing)}")
    rng = random.Random(seed)
    names = sorted(box)
    worst = 0.0
    for _ in range(max(1, trials)):
        point = {n: rng.uniform(*box[n]) for n in names}
        value, peak = evaluate_tracked(e, point)
        if not (math.isfinite(value) and math.isfinite(peak)):
            return math.inf
        scaled = abs(value) / (1.0 + peak)
        if scaled > worst:
            worst = scaled
    return worst


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_OPS = set("+-*/^()")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _OPS:
                self.tokens.append(("op", ch, i))
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                is_float = False
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                lit = text[i:j]
                value: Number = float(lit) if is_float else Fraction(int(lit))
                self.tokens.append(("num", value, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


def parse(text: str) -> Expr:
    """Parse infix text into an expression tree.

    Grammar: expr := term (('+'|'-') term)*; term := factor (('*'|'/')
    factor)*; factor := base ('^' exponent)?; base := number | ident |
    ident '(' expr ')' | '(' expr ')'.  Unary minus is allowed before a
    factor; integer '/' integer folds to an exact rational constant.
    """
    tz = _Tokenizer(text)
    e = _parse_expr(tz)
    kind, _, pos = tz.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return e


def _parse_expr(tz: _Tokenizer) -> Expr:
    e = _parse_term(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            rhs = _parse_term(tz)
            e = add(e, rhs) if val == "+" else sub(e, rhs)
        else:
            return e


def _parse_term(tz: _Tokenizer) -> Expr:
    e = _parse_factor(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "*/":
            tz.next()
            rhs = _parse_factor(tz)
            e = mul(e, rhs) if val == "*" else div(e, rhs)
        else:
            return e


def _parse_factor(tz: _Tokenizer) -> Expr:
    kind, val, pos = tz.peek()
    if kind == "op" and val == "-":
        tz.next()
        return neg(_parse_factor(tz))
    base = _parse_base(tz)
    kind, val, _ = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        _, _, epos = tz.peek()
        exponent = _parse_factor(tz)
        if not isinstance(exponent, Const):
            raise ParseError("exponent must be a constant", epos)
        return pow_(base, exponent.value)
    return base


def _parse_base(tz: _Tokenizer) -> Expr:
    kind, val, pos = tz.next()
    if kind == "num":
        return Const(val)
    if kind == "ident":
        nkind, nval, _ = tz.peek()
        if nkind == "op" and nval == "(":
            if val not in FUNCTIONS:
                raise UnknownFunctionError(val, pos)
            tz.next()
            arg = _parse_expr(tz)
            ckind, cval, cpos = tz.next()
            if not (ckind == "op" and cval == ")"):
                raise ParseError("expected ')'", cpos)
            return Func(val, arg)
        return Var(val)
    if kind == "op" and val == "(":
        e = _parse_expr(tz)
        ckind, cval, cpos = tz.next()
        if not (ckind == "op" and cval == ")"):
            raise ParseError("expected ')'", cpos)
        return e
    raise ParseError("expected a number, identifier or '('", pos)


# --------------------------------------------------------------------------
# Printing (round-trips through parse up to evaluation equality)
# --------------------------------------------------------------------------

def to_str(e: Expr) -> str:
    return _fmt(e, 0)


def _fmt_number(v: Number) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _fmt(e: Expr, parent_prec: int) -> str:
    # precedence: add 1, mul/div 2, pow 3, atom 4
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        prec = 4 if not s.startswith("-") else 1
        prec = 2 if "/" in s and not s.startswith("-") else prec
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = " + ".join(_fmt(t, 2) for t in e.terms)
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Mul):
        s = " * ".join(_fmt(f, 3) for f in e.factors)
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Div):
        s = f"{_fmt(e.num, 3)} / {_fmt(e.den, 4)}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Pow):
        exp = _fmt_number(e.exponent)
        if "/" in exp or "-" in exp or "." in exp:
            exp = f"({exp})"
        s = f"{_fmt(e.base, 4)}^{exp}"
        return f"({s})" if parent_prec > 3 else s
    if isinstance(e, Func):
        return f"{e.name}({_fmt(e.arg, 0)})"
    raise TypeError(f"not an expression: {e!r}")
