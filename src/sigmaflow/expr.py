"""Closed-form expression language for metric components and soliton data.

Grammar (standard precedence; ``^`` is right-associative and binds tighter
than unary minus, so ``-x1^2`` is -(x1^2), and ``x1^-2`` parses).
``_PREC`` is the one precedence table: the parser climbs it and the
printer parenthesizes by it.

    expr   :=  term  (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?
    atom   :=  NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Variables are ``x1`` .. ``x8``, the constants ``pi`` and ``e``, and the
functions exp, log, sin, cos, sinh, cosh, tanh, sqrt and abs; whitespace
is insignificant, and decimal literals are read as binary doubles.

One tree walk evaluates over float arrays (``eval_float``) and over jets
(``eval_taylor``, or ``jet_walk`` for several expressions at the same
points).  A domain rule, an overflow or a non-finite result raises
``EvalError`` ``<subexpression>: <rule> <value> at <point>``, the one point
or the first failing probe of a batch (``EvalError.probe``); a constant
subexpression that fails in a batch names no point.  A jet's value
part is the float result (``taylor``), and the rings apply the same rules
to it, so they refuse alike, except where the jet ring alone refuses
because no jet exists: ``abs`` at 0 and a variable exponent at a
non-positive base (``x1^x2`` at (-1, 2)) have no derivative, and a
coefficient can leave the double range (``1/x1`` at 1e-100, ``sqrt(x1)``
at 1e-200).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
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
    """An expression that cannot be evaluated: a domain rule, an overflow or
    a non-finite result; ``probe`` is the first failing probe of a batch."""

    def __init__(self, message: str, probe: int | None = None):
        super().__init__(message)
        self.probe = probe


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

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}
MAX_DEPTH = 200  # levels of a tree (a walk recurses once a level) and of unary() calls
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"

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
        self.depth = 0  # open unary() calls

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
        # a chain nests too; a tree deeper than MAX_DEPTH has more tokens
        if len(self.tokens) > MAX_DEPTH and max(d for _, d in _walk(e)) > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, 0)
        return e

    def expr(self, level: int = _PREC["+"]) -> Expr:
        """Precedence climbing: ``unary`` operands joined by the
        left-associative operators of ``_PREC`` that bind at ``level`` or
        tighter, and looser than unary minus."""
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or not level <= _PREC.get(text, 0) < _PREC["neg"]:
                return e
            self.next()
            e = Bin(text, e, self.expr(_PREC[text] + 1))

    def unary(self) -> Expr:
        kind, text, off = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:  # before the recursion it bounds
            raise ParseError(_TOO_DEEP, off)
        if kind == "op" and text == "-":
            self.next()
            e = Neg(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

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
    """Parse ``source`` into an AST.  Raises ParseError with a character
    offset, also when ``source`` is not a string or nests deeper than MAX_DEPTH."""
    if not isinstance(source, str):
        raise ParseError(f"expression must be a string, not {type(source).__name__}", 0)
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


def as_expr(e) -> Expr:
    """``e`` parsed when it is a string, else ``e`` itself."""
    return parse(e) if isinstance(e, str) else e


# -- pretty printer --------------------------------------------------------


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
    """Inverse of parse: re-parsing the output of a tree that ``parse``
    returned yields that tree."""
    return _unparse(e)[0]


# -- evaluation ------------------------------------------------------------


def _walk(e: Expr):
    """Every node of ``e`` with its depth, without recursion."""
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack += [(c, depth + 1) for c in vars(node).values() if isinstance(c, Expr)]


def max_var(e: Expr) -> int:
    return max((node.index for node, _ in _walk(e) if isinstance(node, Var)), default=0)


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
    finite: Callable     # element -> whether all its numbers are finite, per probe
    fn: dict             # function name -> unary map
    power: Callable      # (base, exponent) -> element
    out_of_range: str | None = None  # what an ArithmeticError means; None: numpy says


_FLOATS = _Ring(const=np.float64, value=lambda v: v, finite=np.isfinite,
                fn=_FLOAT_FN, power=np.power)


def _jets(ctx: taylor.TaylorContext) -> _Ring:
    return _Ring(const=ctx.constant, value=lambda s: s.value,
                 finite=lambda s: np.isfinite(s.c).all(axis=-1),
                 fn=_TAYLOR_FN, power=taylor.power,
                 out_of_range="a jet coefficient left the double range")


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _evaluate(e: Expr, env, ring: _Ring):
    """Evaluate ``e`` over ``ring`` with x_i bound to ``env[i - 1]``, under
    ``_run``, which turns overflow into an error.  The domain rules test
    value parts, which agree in both rings.  A literal exponent (``x1^2``,
    ``x1^-2``) is read as its float in both rings: ``ring.power`` and the
    power rule take it as it is, with no constant built for it.  The node
    that fails raises the EvalError, ``_located`` in ``env``'s points."""
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
            sign, p = (-1.0, e.right.arg) if isinstance(e.right, Neg) else (1.0, e.right)
            literal = e.op == "^" and isinstance(p, Num)
            a = _evaluate(e.left, env, ring)
            b = sign * p.value if literal else _evaluate(e.right, env, ring)
            if e.op == "/":
                bv = ring.value(b)
                taylor._domain(bv != 0, "division by {v}", bv)
            elif e.op == "^":
                av, bv = ring.value(a), b if literal else ring.value(b)
                taylor._domain((av > 0) | (taylor.integral(bv) & ((bv >= 0) | (av != 0))),
                               "power undefined at base {v}", av)
            return _ARITH.get(e.op, ring.power)(a, b)
        if isinstance(e, Call):
            v = _evaluate(e.arg, env, ring)
            if e.name in ("log", "sqrt"):
                value = ring.value(v)
                taylor._domain(value > 0, f"{e.name} of non-positive value {{v}}", value)
            return ring.fn[e.name](v)
    except taylor.TaylorDomainError as exc:
        raise _located(f"{unparse(e)}: {exc.rule}", exc.ok, env, ring) from exc
    except ArithmeticError as exc:
        # where the node left the double range: the node again, without
        # raising, only now that it has raised
        with np.errstate(all="ignore"):
            ok = ring.finite(_evaluate(e, env, ring))
        raise _located(f"{unparse(e)}: {ring.out_of_range or exc}", ok, env, ring) from exc
    raise TypeError(f"not an Expr: {e!r}")


def _located(rule: str, ok, env, ring: _Ring) -> EvalError:
    """EvalError ``<rule> at <point>``: the one point of ``env``, or the
    first probe where ``ok`` fails of the points that env's coordinates
    broadcast to.  A batch where no probe fails first (a constant's failure)
    names no point."""
    coords = [ring.value(x) for x in env]
    shape = np.broadcast_shapes(*map(np.shape, coords))
    probe = taylor.first_failure(np.broadcast_to(ok, shape)) if np.ndim(ok) else None
    if shape and probe is None:
        return EvalError(rule)
    at = [float(np.broadcast_to(x, shape).flat[probe or 0]) for x in coords]
    return EvalError(f"{rule} at {at}", probe)


def _run(e: Expr, env, ring: _Ring):
    # numpy raises on overflow here, as math does inside the jet functions
    with np.errstate(all="raise", under="ignore"):
        out = _evaluate(e, env, ring)
    ok = ring.finite(out)
    if not ok.all():
        raise _located("result is not finite", ok, env, ring)
    return out


def eval_float(e: Expr, point):
    """Float evaluation at ``point``, a sequence of coordinates x1, x2, ...,
    each a float or an array: the result has their broadcast shape, a
    ``float`` when every coordinate is a scalar."""
    coords = [np.asarray(c, dtype=float) for c in point]
    out = _run(e, coords, _FLOATS)
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    return float(out) if shape == () else np.broadcast_to(out, shape).copy()


def jet_walk(point, order: int = taylor.MAX_ORDER) -> Callable[[Expr], TaylorScalar]:
    """``eval_taylor`` at ``point`` for each expression it is given: the
    context, the coordinate jets and the ring are built once, and each
    expression is walked on its own, so it forms the products it forms alone."""
    point = np.asarray(point, dtype=float)
    dim = point.shape[-1]
    ctx = taylor.context(dim, order)
    coords = point.T
    env = [ctx.variable(i, coords[i]) for i in range(dim)]
    ring = _jets(ctx)
    lead = point.shape[:-1]

    def walk(e: Expr) -> TaylorScalar:
        out = _run(e, env, ring)
        if out.c.shape[:-1] != lead:
            c = ctx.zero(lead) if ctx.is_zero(out.c) else \
                np.broadcast_to(out.c, lead + out.c.shape[-1:]).copy()
            out = TaylorScalar(ctx, c, out.trusted)
        return out
    return walk


def eval_taylor(e: Expr, point, order: int = taylor.MAX_ORDER) -> TaylorScalar:
    """The jet of ``e`` of ``order`` (2, 3 or 4) at ``point`` of shape (n,),
    every coordinate a variable, or at each row of a (P, n) batch in one
    tree walk: coefficients d^alpha e / alpha!, trusted to ``order``, of
    shape (P, C) for a batch even when ``e`` is constant.  Jets combined
    with a pipeline must share its order (``TaylorCurvature.jet``)."""
    return jet_walk(point, order)(e)


def shift_vars(e: Expr, offset: int) -> Expr:
    """Rename every variable x_i to x_{i+offset} (used to embed fiber charts)."""
    if isinstance(e, Var):
        return Var(e.index + offset)
    return replace(e, **{key: shift_vars(child, offset) for key, child in vars(e).items()
                         if isinstance(child, Expr)})
