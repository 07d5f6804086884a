"""Small expression engine: parse, differentiate, evaluate, zero-test.

Covers exactly the node kinds needed for ODE right-hand sides and central
force laws: rational/real constants, named variables, sums, products,
quotients, powers with constant exponent, and the unary functions
sin, cos, sqrt, ln.  An expression is a hash-consed DAG: nodes are
interned at construction (weakly, so `==` is identity and a node dies
with its last user) and carry their free variables and memoized
derivatives; an evaluation computes each distinct subexpression once,
and a constant converts to a double once, on its first evaluation.
The derivative of a subexpression that lacks the variable is `ZERO`,
found from its free variables with no descent into it.  At most
MAX_LIVE_NODES nodes live at once: building one more is an ExprSizeError.

Simplification is deliberately local (constant folding, dropping zero
terms and unit factors); `add` and `mul` fold from their first constant,
with no zero or unit accumulator, to the node `0 + c1 + ...` and
`1 * c1 * ...` would give.  Expression equality is decided by seeded
randomized evaluation (`is_zero`), never by canonical forms.
"""

from __future__ import annotations

import gc
import math
import random
import weakref
from fractions import Fraction
from typing import Mapping, Union

Number = Union[Fraction, float]

FUNCTIONS = ("sin", "cos", "sqrt", "ln")

# The randomized zero test: threshold, sample points and seed.
ZERO_TEST_THRESHOLD = 1e-9
ZERO_TEST_TRIALS = 16
ZERO_TEST_SEED = 0x5EED

# Bits of the largest constant power folded exactly; verify and the ode
# queries fold none above 3 bits.
MAX_POWER_BITS = 1 << 16

# Nodes alive at once; every verify and ode-queries expression peaks near 250.
MAX_LIVE_NODES = 20_000


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


class FloatOverflowError(EvalError):
    """A constant, sum or power left the range of a double."""


class ExprSizeError(ExprError):
    """An exact constant would grow past MAX_POWER_BITS, or the nodes past MAX_LIVE_NODES."""


# --------------------------------------------------------------------------
# Nodes
# --------------------------------------------------------------------------

_SET = object.__setattr__
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_LIVE = _TABLE.data  # key -> KeyedRef, read and filled directly: no Python-level call per node
_DROP = _TABLE._remove  # a dead node's KeyedRef callback: deletes its key


class _Node:
    """Immutable interned node; equality and the hash are by identity."""

    __slots__ = ("_fv", "_diffs", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _number_key(v) -> tuple:
    # keeps Fraction(1), 1.0 and -0.0 apart (and NaN equal to itself)
    if type(v) is Fraction:
        return (Fraction, v.numerator, v.denominator)
    if isinstance(v, float):
        return (type(v), v.hex())
    return (type(v), v)


def _intern(cls, payload, kids: tuple, values: tuple, fv: frozenset[str] = frozenset()):
    key = (cls, payload, *map(id, kids))
    ref = _LIVE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    if len(_LIVE) >= MAX_LIVE_NODES:
        gc.collect()  # derivative memos form cycles: count only nodes something still holds
        if len(_LIVE) >= MAX_LIVE_NODES:
            raise ExprSizeError(f"an expression would hold more than {MAX_LIVE_NODES} live nodes")
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _SET(node, name, value)
    for k in kids:
        if not k._fv <= fv:
            fv = fv | k._fv if fv else k._fv
    _SET(node, "_fv", fv)
    _SET(node, "_diffs", None)
    _LIVE[key] = weakref.KeyedRef(node, _DROP, key)
    return node


class Const(_Node):
    __slots__ = ("value", "_double")  # _double: the value's float, set by its first evaluation
    _fields = ("value",)  # Fraction kept exact; float for decimals/irrationals

    def __new__(cls, value: Number):
        return _intern(cls, _number_key(value), (), (value, None))


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, name, (), (name,), frozenset((name,)))


class Add(_Node):
    __slots__ = _fields = ("terms",)

    def __new__(cls, terms: tuple["Expr", ...]):
        terms = tuple(terms)
        return _intern(cls, None, terms, (terms,))


class Mul(_Node):
    __slots__ = _fields = ("factors",)

    def __new__(cls, factors: tuple["Expr", ...]):
        factors = tuple(factors)
        return _intern(cls, None, factors, (factors,))


class Div(_Node):
    __slots__ = _fields = ("num", "den")

    def __new__(cls, num: "Expr", den: "Expr"):
        return _intern(cls, None, (num, den), (num, den))


class Pow(_Node):
    __slots__ = _fields = ("base", "exponent")  # constant exponent only; Fraction kept exact

    def __new__(cls, base: "Expr", exponent: Number):
        return _intern(cls, _number_key(exponent), (base,), (base, exponent))


class Func(_Node):
    __slots__ = _fields = ("name", "arg")  # name is one of FUNCTIONS

    def __new__(cls, name: str, arg: "Expr"):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function '{name}'")
        return _intern(cls, name, (arg,), (name, arg))


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
    out: list[Expr] = []
    acc = None
    for t in terms:
        t = t if isinstance(t, _Node) else const(t)
        for u in t.terms if type(t) is Add else (t,):
            if type(u) is Const:
                acc = u.value if acc is None else _num_add(acc, u.value)
            else:
                out.append(u)
    if acc is None:
        if not out:
            return ZERO
    else:
        if type(acc) is not Fraction:
            acc = _float(acc) + 0.0  # as 0 + acc: -0.0 folds to 0.0
        if acc != 0 or not out:
            out.append(Const(acc))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding, 0*x -> 0 and x*1 -> x."""
    out: list[Expr] = []
    acc = None
    for f in factors:
        kind = type(f)
        if kind is not Mul and kind is not Const and isinstance(f, _Node):
            out.append(f)  # nothing to flatten or fold
            continue
        f = f if isinstance(f, _Node) else const(f)
        for g in f.factors if type(f) is Mul else (f,):
            if type(g) is Const:
                acc = g.value if acc is None else _num_mul(acc, g.value)
            else:
                out.append(g)
    if acc is None:
        if not out:
            return ONE
    else:
        if type(acc) is not Fraction:
            acc = _float(acc)  # as 1 * acc
        if acc == 0 or not out:
            return Const(acc)
        if acc != 1:
            out.insert(0, Const(acc))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def div(num, den) -> Expr:
    num = num if isinstance(num, _Node) else const(num)
    den = den if isinstance(den, _Node) else const(den)
    if isinstance(den, Const) and den.value != 0:
        if isinstance(num, Const):
            if isinstance(num.value, Fraction) and isinstance(den.value, Fraction):
                return Const(num.value / den.value)
            return Const(_float(num.value) / _float(den.value))
        if den.value == 1:
            return num
    return Div(num, den)


def neg(e) -> Expr:
    return mul(-1, e)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def pow_(base, exponent) -> Expr:
    base = base if isinstance(base, _Node) else const(base)
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
        n, v = int(exponent), base.value
        bits = max(v.numerator.bit_length(), v.denominator.bit_length()) - 1
        if abs(n) * bits > MAX_POWER_BITS:  # v^n has at least that many: refuse before computing it
            raise ExprSizeError(f"a constant power would exceed {MAX_POWER_BITS} bits")
        return Const(v ** n)
    return Pow(base, exponent)


def func(name: str, arg: Expr) -> Expr:
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
    return _float(a) + _float(b)


def _num_mul(a: Number, b: Number) -> Number:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    return _float(a) * _float(b)


# --------------------------------------------------------------------------
# Structure queries
# --------------------------------------------------------------------------

def free_vars(e: Expr) -> frozenset[str]:
    return e._fv


def subst(e: Expr, name: str, replacement: Expr) -> Expr:
    """Substitute `replacement` for every occurrence of variable `name`.

    Each distinct node is rebuilt at most once per call, and a subexpression
    without `name` is returned as it is.
    """
    return _subst(e, name, replacement, {})


def _subst(e: Expr, name: str, new: Expr, seen: dict) -> Expr:
    if name not in e._fv:
        return e
    out = seen.get(e)
    if out is None:
        if isinstance(e, Var):
            out = new
        elif isinstance(e, Add):
            out = add(*(_subst(t, name, new, seen) for t in e.terms))
        elif isinstance(e, Mul):
            out = mul(*(_subst(f, name, new, seen) for f in e.factors))
        elif isinstance(e, Div):
            out = div(_subst(e.num, name, new, seen), _subst(e.den, name, new, seen))
        elif isinstance(e, Pow):
            out = pow_(_subst(e.base, name, new, seen), e.exponent)
        else:
            out = func(e.name, _subst(e.arg, name, new, seen))
        seen[e] = out
    return out


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic derivative of `e` with respect to variable `v`, memoized on `e`.

    A subexpression without `v` (a constant included) is `ZERO` at once, with
    no descent into its children.
    """
    if v not in e._fv:
        return ZERO
    if isinstance(e, Var):
        return ONE
    memo = e._diffs
    if memo is None:
        memo = {}
        _SET(e, "_diffs", memo)
    d = memo.get(v)
    if d is None:
        d = memo[v] = _diff(e, v)
    return d


def _diff(e: Expr, v: str) -> Expr:
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

# function name -> (function, test for an argument outside its domain)
_FUNCS = {
    "sin": (math.sin, math.isinf),
    "cos": (math.cos, math.isinf),
    "sqrt": (math.sqrt, lambda x: x < 0.0),
    "ln": (math.log, lambda x: x <= 0.0),
}


def _eval(e: Expr, b: Mapping[str, float], seen: dict) -> float:
    """Value of `e`; `seen` maps every node evaluated so far in this call to its value.

    Each distinct node of the DAG is evaluated once, children left to right,
    so the first error raised is the one the walk of the whole tree would
    raise first.
    """
    v = seen.get(e)
    if v is not None:
        return v
    kind = type(e)
    if kind is Const:
        v = e._double
        if v is None:  # an overflowing constant stays None and raises at every evaluation
            v = _float(e.value)
            _SET(e, "_double", v)
    elif kind is Var:
        if e.name not in b:
            raise UnboundVariableError(e.name)
        v = float(b[e.name])
    elif kind is Add:
        terms = [_eval(t, b, seen) for t in e.terms]
        try:
            v = math.fsum(terms)
        except OverflowError:
            raise FloatOverflowError("sum overflows a double") from None
        except ValueError:  # inf + -inf
            raise MathDomainError("sum", math.inf) from None
    elif kind is Mul:
        v = 1.0
        for f in e.factors:
            v *= _eval(f, b, seen)
    elif kind is Div:
        num = _eval(e.num, b, seen)
        den = _eval(e.den, b, seen)
        if den == 0.0:
            raise DivisionByZeroError()
        v = num / den
    elif kind is Pow:
        v = _pow_value(_eval(e.base, b, seen), e.exponent)
    else:
        x = _eval(e.arg, b, seen)
        fn, outside = _FUNCS[e.name]
        if outside(x):
            raise MathDomainError(e.name, x)
        v = fn(x)
    seen[e] = v
    return v


def _float(v: Number) -> float:
    try:
        return float(v)
    except OverflowError:  # v is a Fraction whose digits may pass int-to-str's limit: give its size
        bits = v.numerator.bit_length() - v.denominator.bit_length()
        raise FloatOverflowError(f"a constant near 2^{bits} overflows a double") from None


def _pow_value(base: float, exponent: Number) -> float:
    p = _float(exponent)
    if base == 0.0:
        if p < 0.0:
            raise DivisionByZeroError("zero base raised to a negative power")
        return 0.0 if p > 0.0 else 1.0
    sign = 1.0
    if base < 0.0:
        if isinstance(exponent, Fraction):
            n = exponent.numerator if exponent.denominator == 1 else None
        else:
            n = int(p) if p.is_integer() else None
        if n is None:
            raise MathDomainError("power", base)
        sign = -1.0 if n % 2 else 1.0
    try:
        return sign * abs(base) ** p
    except OverflowError:
        raise FloatOverflowError(f"{base!r}^{p!r} overflows a double") from None


def _peak(vals) -> float:
    """Largest magnitude among the values; NaNs are skipped, 0.0 if there is none."""
    return max((a for a in map(abs, vals) if a == a), default=0.0)


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate to an IEEE double.  All free variables must be bound.

    Reports unbound variables, division by zero, sqrt/ln (or fractional
    power) of negative arguments, sin/cos of infinities and a constant,
    power or sum that overflows a double through distinct error types.
    An overflowing product or quotient, or a non-finite binding, passes
    unchecked; `max_residual` reads the result as inf and the CLI rejects it.
    """
    return _eval(e, bindings, {})


def evaluate_tracked(e: Expr, bindings: Mapping[str, float]) -> tuple[float, float]:
    """Like `evaluate`, also returning the largest intermediate magnitude."""
    seen: dict = {}
    v = _eval(e, bindings, seen)
    return v, _peak(seen.values())


# --------------------------------------------------------------------------
# Jet-space total derivative
# --------------------------------------------------------------------------

def total_derivative(e: Expr, rhs: Expr, jet_vars: tuple[str, ...]) -> Expr:
    """D(e) = d/dx + p d/dy + ... + rhs d/d(top) along the ODE top' = rhs, where
    `jet_vars` lists the jet coordinates in prolongation order, e.g. (x, y, p)."""
    terms = [diff(e, jet_vars[0])]
    for i in range(1, len(jet_vars) - 1):
        terms.append(mul(Var(jet_vars[i + 1]), diff(e, jet_vars[i])))
    terms.append(mul(rhs, diff(e, jet_vars[-1])))
    return add(*terms)


# --------------------------------------------------------------------------
# Randomized zero test
# --------------------------------------------------------------------------

def is_zero(e: Expr, box: Mapping[str, tuple[float, float]]) -> bool:
    """Seeded randomized test for identical vanishing on a box.

    True iff |value| <= threshold * (1 + largest intermediate magnitude)
    at every sampled point.  Evaluation errors propagate to the caller.
    """
    return max_residual(e, box) <= ZERO_TEST_THRESHOLD


def max_residual(
    e: Expr, box: Mapping[str, tuple[float, float]], seed: int = ZERO_TEST_SEED
) -> float:
    """Largest scaled residual |value| / (1 + max intermediate) over samples, inf if not finite."""
    missing = free_vars(e) - set(box)
    if missing:
        raise ValueError(f"box does not cover free variables: {sorted(missing)}")
    rng = random.Random(seed)
    names = sorted(box)
    worst = 0.0
    for _ in range(ZERO_TEST_TRIALS):
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
MAX_PARSE_DEPTH = 100  # nesting of brackets, calls, unary minus and exponents


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.depth = 0
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
    Nesting deeper than MAX_PARSE_DEPTH levels is a ParseError.
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
    if tz.depth == MAX_PARSE_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_PARSE_DEPTH} levels", pos)
    tz.depth += 1
    if kind == "op" and val == "-":
        tz.next()
        e = neg(_parse_factor(tz))
    else:
        e = _parse_base(tz)
        kind, val, _ = tz.peek()
        if kind == "op" and val == "^":
            tz.next()
            _, _, epos = tz.peek()
            exponent = _parse_factor(tz)
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a constant", epos)
            e = pow_(e, exponent.value)
    tz.depth -= 1
    return e


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
