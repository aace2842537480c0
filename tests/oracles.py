"""Reference implementations that only the tests use: index gymnastics
and contractions of dense tensors, sigma_k by index, and a symbolic partial
derivative of expressions.  Each is checked by its own test and serves as
an independent oracle for the program's jet pipeline."""

from __future__ import annotations

import numpy as np

from sigmaflow.expr import Bin, Call, Const, Expr, ExprError, Neg, Num, Var
from sigmaflow.tensor import (SymmetricSpectrum, TensorError, TensorValue,
                              elementary_all)


# -- dense tensors ---------------------------------------------------------


def contract(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Contract contravariant slot ``slot_a`` against covariant slot
    ``slot_b`` (both indexed within their own variance group)."""
    p, q = t.valence
    if not 0 <= slot_a < p:
        raise TensorError(f"contravariant slot {slot_a} out of range for valence {t.valence}")
    if not 0 <= slot_b < q:
        raise TensorError(f"covariant slot {slot_b} out of range for valence {t.valence}")
    comps = np.trace(t.components, axis1=slot_a, axis2=p + slot_b)
    if p + q == 2:
        return float(comps)
    return TensorValue(t.dim, (p - 1, q - 1), comps)


def symmetrize2(t: TensorValue) -> TensorValue:
    if t.valence != (0, 2):
        raise TensorError("symmetrize2 expects a (0,2) tensor")
    return TensorValue(t.dim, (0, 2), 0.5 * (t.components + t.components.T))


def raise_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    """Raise covariant slot ``slot`` with the inverse of ``metric``."""
    p, q = t.valence
    if not 0 <= slot < q:
        raise TensorError("no such covariant slot")
    ginv = np.linalg.inv(metric)
    comps = np.tensordot(ginv, np.moveaxis(t.components, p + slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p)  # raised slot becomes last contravariant
    return TensorValue(t.dim, (p + 1, q - 1), comps)


def lower_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    p, q = t.valence
    if not 0 <= slot < p:
        raise TensorError("no such contravariant slot")
    comps = np.tensordot(metric, np.moveaxis(t.components, slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p - 1 + q)  # lowered slot becomes last covariant
    return TensorValue(t.dim, (p - 1, q + 1), comps)


def elementary_symmetric(spec: SymmetricSpectrum | np.ndarray, k: int) -> float:
    """sigma_k of the eigenvalues via the product-coefficient recurrence."""
    eig = spec.eigenvalues if isinstance(spec, SymmetricSpectrum) else np.asarray(spec)
    n = len(eig)
    if not 0 <= k <= n:
        raise TensorError(f"k={k} out of range 0..{n}")
    return elementary_all(eig)[k]


# -- symbolic derivative ---------------------------------------------------

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
