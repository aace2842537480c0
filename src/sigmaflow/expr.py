"""Closed-form expression language for metric components and soliton data.

Grammar (standard precedence, ``^`` right-associative and tighter than
unary minus):

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?
    atom   :=  NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Variables are ``x1`` .. ``x8``; the named constants are ``pi`` and ``e``;
the functions are exp, log, sin, cos, sinh, cosh, tanh, sqrt, abs.
Whitespace is insignificant.  Decimal literals are parsed as binary
doubles.

One tree walk evaluates an expression over two rings: float arrays
(``eval_float``, a whole grid per call) and Taylor jets of order 2, 3 or 4
(``eval_taylor``).  Both apply the same domain rules to the value part, and
a domain violation or a non-finite result raises ``EvalError`` in either.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import taylor
from .taylor import TaylorScalar

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    pass


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


Expr = Num | Var | Const | Neg | Bin | Call


# -- tokenizer / parser ----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(source) - len(stripped))
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        self.next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                e = Bin(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                e = Bin(text, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Bin("^", base, self.unary())  # right-assoc, allows x^-2
        return base

    def atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ParseError(f"number {text} out of range", off)
            return Num(float(text))
        if kind == "ident":
            m = re.fullmatch(r"x([1-9]\d*)", text)
            if m:
                idx = int(m.group(1))
                if idx > taylor.MAX_DIM:
                    raise ParseError(f"variable {text} exceeds {taylor.MAX_DIM} variables", off)
                return Var(idx)
            if text in CONSTANTS:
                return Const(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                kind2, text2, off2 = self.peek()
                if kind2 == "op" and text2 == ",":
                    raise ParseError(f"{text} takes exactly one argument", off2)
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", off)


def parse(source: str) -> Expr:
    """Parse ``source`` into an AST.  Raises ParseError with a byte offset."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


# -- pretty printer --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _unparse(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        s = _fmt_num(e.value)
        return (s, _PREC["atom"]) if e.value >= 0 else (s, _PREC["neg"])
    if isinstance(e, Var):
        return f"x{e.index}", _PREC["atom"]
    if isinstance(e, Const):
        return e.name, _PREC["atom"]
    if isinstance(e, Call):
        s, _ = _unparse(e.arg)
        return f"{e.name}({s})", _PREC["atom"]
    if isinstance(e, Neg):
        s, p = _unparse(e.arg)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(e, Bin):
        lp = _PREC[e.op]
        ls, lq = _unparse(e.left)
        rs, rq = _unparse(e.right)
        if e.op == "^":
            # right-assoc: parenthesize the base at <= precedence, the
            # exponent below unary-minus level only
            if lq <= lp:
                ls = f"({ls})"
            if rq < _PREC["neg"]:
                rs = f"({rs})"
        else:
            if lq < lp:
                ls = f"({ls})"
            if rq <= lp:
                rs = f"({rs})"
        return f"{ls} {e.op} {rs}", lp
    raise TypeError(f"not an Expr: {e!r}")


def unparse(e: Expr) -> str:
    """Inverse of parse: re-parsing the output yields an identical tree."""
    return _unparse(e)[0]


# -- evaluation ------------------------------------------------------------


def max_var(e: Expr) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return max_var(e.arg)
    if isinstance(e, Call):
        return max_var(e.arg)
    if isinstance(e, Bin):
        return max(max_var(e.left), max_var(e.right))
    return 0


_FLOAT_FN = {name: getattr(np, name) for name in FUNCTIONS}

_TAYLOR_FN = {
    "exp": taylor.exp, "log": taylor.log, "sin": taylor.sin, "cos": taylor.cos,
    "sinh": taylor.sinh, "cosh": taylor.cosh, "tanh": taylor.tanh,
    "sqrt": taylor.sqrt, "abs": taylor.abs_,
}


@dataclass(frozen=True)
class _Ring:
    """What the tree walk needs of a number system."""
    const: Callable      # float -> element
    value: Callable      # element -> value part, which the domain rules test
    coeffs: Callable     # element -> every number that must be finite
    fn: dict             # function name -> unary map
    power: Callable      # (base, exponent) -> element


_FLOATS = _Ring(const=np.float64, value=lambda v: v, coeffs=lambda v: v,
                fn=_FLOAT_FN, power=np.power)


def _jets(ctx: taylor.TaylorContext) -> _Ring:
    # taylor functions are looked up at call time, so rebinding them (as a
    # tracer does) reaches the walk
    return _Ring(const=ctx.constant, value=lambda s: s.value, coeffs=lambda s: s.c,
                 fn=_TAYLOR_FN, power=lambda a, b: taylor.power(a, b))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _require(ok, what: str, values):
    """Raise EvalError naming the first of ``values`` where ``ok`` is false."""
    if ok is True or np.all(ok):
        return
    bad = np.broadcast_to(values, np.shape(ok))[np.logical_not(ok)]
    raise EvalError(f"{what} {bad.flat[0]:.6g}")


def _evaluate(e: Expr, env, ring: _Ring):
    """Evaluate ``e`` over ``ring`` with x_i bound to ``env[i - 1]``.

    Domain rules test value parts, so every ring rejects the same inputs.
    Run it under ``_run``, which turns overflow into an error."""
    try:
        if isinstance(e, Num):
            return ring.const(e.value)
        if isinstance(e, Var):
            if e.index > len(env):
                raise EvalError(f"point has no coordinate x{e.index}")
            return env[e.index - 1]
        if isinstance(e, Const):
            return ring.const(CONSTANTS[e.name])
        if isinstance(e, Neg):
            return -_evaluate(e.arg, env, ring)
        if isinstance(e, Bin):
            a, b = _evaluate(e.left, env, ring), _evaluate(e.right, env, ring)
            av, bv = ring.value(a), ring.value(b)
            if e.op == "/":
                _require(bv != 0, "division by", bv)
            elif e.op == "^":
                whole = bv % 1 == 0
                _require((av > 0) | (whole & ((bv >= 0) | (av != 0))),
                         "power undefined at base", av)
            return _ARITH.get(e.op, ring.power)(a, b)
        if isinstance(e, Call):
            v = _evaluate(e.arg, env, ring)
            if e.name in ("log", "sqrt"):
                _require(ring.value(v) > 0, f"{e.name} of non-positive value",
                         ring.value(v))
            return ring.fn[e.name](v)
    except (taylor.TaylorDomainError, ArithmeticError) as exc:
        raise EvalError(f"{unparse(e)}: {exc}") from exc
    raise TypeError(f"not an Expr: {e!r}")


def _run(e: Expr, env, ring: _Ring):
    # numpy raises on overflow here, as math does inside the jet functions
    with np.errstate(all="raise", under="ignore"):
        out = _evaluate(e, env, ring)
    if not np.isfinite(ring.coeffs(out)).all():
        raise EvalError("result is not finite")
    return out


def eval_float(e: Expr, point):
    """Floating evaluation at ``point``, a sequence of coordinates x1, x2, ...

    Each coordinate is a float or an array.  The result has the broadcast
    shape of the coordinates, so a stack of grids evaluates in one call; it
    is a ``float`` when every coordinate is a scalar.
    """
    coords = [np.asarray(c, dtype=float) for c in point]
    out = _run(e, coords, _FLOATS)
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    return float(out) if shape == () else np.broadcast_to(out, shape).copy()


def eval_taylor(e: Expr, point, active=None, order: int = taylor.MAX_ORDER) -> TaylorScalar:
    """Evaluate over Taylor scalars of ``order`` (2, 3 or 4) centered at
    ``point``.

    ``active`` restricts which coordinates carry a first-order seed; by
    default every coordinate of ``point`` is active.  The result's
    coefficient at multi-index alpha, |alpha| <= order, encodes
    d^alpha e(point) / alpha!, and it is trusted to ``order``.  Jets that
    are combined with a curvature pipeline must share its order
    (``TaylorCurvature.order``).
    """
    point = np.asarray(point, dtype=float)
    dim = len(point)
    ctx = taylor.context(dim, order)
    active = set(range(1, dim + 1) if active is None else active)
    env = [
        ctx.variable(i, point[i]) if (i + 1) in active else ctx.constant(point[i])
        for i in range(dim)
    ]
    return _run(e, env, _jets(ctx))


_DERIV_RULES = {
    "exp": lambda a: Call("exp", a),
    "log": lambda a: Bin("/", Num(1.0), a),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "tanh": lambda a: Bin("-", Num(1.0), Bin("^", Call("tanh", a), Num(2.0))),
    "sqrt": lambda a: Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", a))),
}


def differentiate(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative d e / d x_var (no simplification beyond
    dropping obvious zero branches)."""
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.index == var else 0.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg, var))
    if isinstance(e, Bin):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op in "+-":
            return Bin(e.op, da, db)
        if e.op == "*":
            return Bin("+", Bin("*", da, e.right), Bin("*", e.left, db))
        if e.op == "/":
            num = Bin("-", Bin("*", da, e.right), Bin("*", e.left, db))
            return Bin("/", num, Bin("^", e.right, Num(2.0)))
        # power: general rule d(a^b) = a^b * (db*log(a) + b*da/a); constant
        # exponents take the short form
        if isinstance(e.right, Num):
            p = e.right.value
            return Bin("*", Bin("*", Num(p), Bin("^", e.left, Num(p - 1))), da)
        inner = Bin("+", Bin("*", db, Call("log", e.left)),
                    Bin("/", Bin("*", e.right, da), e.left))
        return Bin("*", e, inner)
    if isinstance(e, Call):
        if e.name == "abs":
            raise ExprError("abs has no expression-level derivative")
        outer = _DERIV_RULES[e.name](e.arg)
        return Bin("*", outer, differentiate(e.arg, var))
    raise TypeError(f"not an Expr: {e!r}")


def shift_vars(e: Expr, offset: int) -> Expr:
    """Rename every variable x_i to x_{i+offset} (used to embed fiber charts)."""
    if isinstance(e, Var):
        return Var(e.index + offset)
    if isinstance(e, Neg):
        return Neg(shift_vars(e.arg, offset))
    if isinstance(e, Call):
        return Call(e.name, shift_vars(e.arg, offset))
    if isinstance(e, Bin):
        return Bin(e.op, shift_vars(e.left, offset), shift_vars(e.right, offset))
    return e
