"""Truncated multivariate Taylor arithmetic of fixed order 4.

A ``TaylorScalar`` stores the coefficients c_alpha of a degree-4 Taylor
polynomial in up to 8 variables.  The convention is

    c_alpha = (1 / alpha!) * d^alpha f(x0),

so the mixed partial derivative is recovered as ``alpha! * c_alpha``.
All arithmetic is exact in the truncated polynomial ring: products and
compositions discard every term of total degree > 4, and nothing else.

Differentiating a scalar (``TaylorScalar.deriv``) shifts coefficients down
one order; the top-order coefficients of the result are unknown (taken as
zero).  Downstream code must therefore only trust coefficients of order
<= 4 - (number of derivatives applied), which is exactly the budget the
curvature pipeline needs: metric -> order 4, Christoffel -> 3,
Riemann/Ricci/Schouten -> 2, Cotton / grad sigma -> 1, Laplacians -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

MAX_ORDER = 4
MAX_DIM = 8


class TaylorDomainError(ValueError):
    """Function evaluated outside its domain (log of <= 0, etc.)."""


def _multi_indices(dim: int):
    """All multi-indices of ``dim`` variables with |alpha| <= 4, ordered by
    total degree then lexicographically."""
    out = []
    for total in range(MAX_ORDER + 1):
        for alpha in _iproduct(range(total + 1), repeat=dim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


@lru_cache(maxsize=None)
def context(dim: int) -> "TaylorContext":
    return TaylorContext(dim)


class TaylorContext:
    """Precomputed index tables for one dimension; shared by all scalars."""

    def __init__(self, dim: int):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        self.dim = dim
        self.indices = _multi_indices(dim)
        self.ncoef = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self.degree = np.array([sum(a) for a in self.indices])

        # product table: every ordered pair (a, b) with |a|+|b| <= 4
        ia, ib, iout = [], [], []
        for i, a in enumerate(self.indices):
            for j, b in enumerate(self.indices):
                if sum(a) + sum(b) <= MAX_ORDER:
                    ia.append(i)
                    ib.append(j)
                    iout.append(self.index_of[tuple(x + y for x, y in zip(a, b))])
        self._mul_a = np.array(ia)
        self._mul_b = np.array(ib)
        self._mul_out = np.array(iout)

        # derivative table per variable: d/dx_v maps c[a + e_v] -> (a_v + 1) c
        self._deriv = []
        for v in range(dim):
            src, dst, fac = [], [], []
            for i, a in enumerate(self.indices):
                up = list(a)
                up[v] += 1
                j = self.index_of.get(tuple(up))
                if j is not None:
                    src.append(j)
                    dst.append(i)
                    fac.append(a[v] + 1)
            self._deriv.append((np.array(src), np.array(dst), np.array(fac, dtype=float)))

        self._factorials = np.array(
            [math.prod(math.factorial(k) for k in a) for a in self.indices]
        )

    # -- raw coefficient-array kernels -------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._mul_out, weights=a[self._mul_a] * b[self._mul_b], minlength=self.ncoef
        )

    def deriv(self, c: np.ndarray, var: int) -> np.ndarray:
        src, dst, fac = self._deriv[var]
        out = np.zeros(self.ncoef)
        out[dst] = fac * c[src]
        return out

    def constant(self, value: float) -> "TaylorScalar":
        c = np.zeros(self.ncoef)
        c[0] = value
        return TaylorScalar(self, c)

    def variable(self, var: int, value: float) -> "TaylorScalar":
        c = np.zeros(self.ncoef)
        c[0] = value
        e = [0] * self.dim
        e[var] = 1
        c[self.index_of[tuple(e)]] = 1.0
        return TaylorScalar(self, c)


@dataclass(frozen=True)
class TaylorScalar:
    ctx: TaylorContext
    c: np.ndarray

    @property
    def value(self) -> float:
        return float(self.c[0])

    def derivative(self, alpha) -> float:
        """Mixed partial d^alpha f at the expansion point (alpha! * c_alpha)."""
        alpha = tuple(alpha)
        i = self.ctx.index_of.get(alpha)
        if i is None:
            raise KeyError(f"multi-index {alpha} exceeds order {MAX_ORDER}")
        return float(self.ctx._factorials[i] * self.c[i])

    def deriv(self, var: int) -> "TaylorScalar":
        """Partial derivative; trustworthy one order below the input."""
        return TaylorScalar(self.ctx, self.ctx.deriv(self.c, var))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TaylorScalar):
            return other
        if isinstance(other, (int, float)):
            return self.ctx.constant(float(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return TaylorScalar(self.ctx, self.c + o.c)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return TaylorScalar(self.ctx, self.c - o.c)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return TaylorScalar(self.ctx, o.c - self.c)

    def __neg__(self):
        return TaylorScalar(self.ctx, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TaylorScalar(self.ctx, self.c * float(other))
        if isinstance(other, TaylorScalar):
            return TaylorScalar(self.ctx, self.ctx.mul(self.c, other.c))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return TaylorScalar(self.ctx, self.c / float(other))
        if isinstance(other, TaylorScalar):
            return self * recip(other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * recip(self)

    def __pow__(self, p):
        return power(self, p)


# -- composition with a univariate outer function --------------------------


def _compose(s: TaylorScalar, derivs) -> TaylorScalar:
    """f(s) for outer derivatives [f(v), f'(v), ..., f''''(v)] at v = s.value."""
    ctx = s.ctx
    w = s.c.copy()
    w[0] = 0.0  # nilpotent part
    out = np.zeros(ctx.ncoef)
    out[0] = derivs[0]
    wp = w
    fact = 1.0
    for m in range(1, MAX_ORDER + 1):
        fact *= m
        out += (derivs[m] / fact) * wp
        if m < MAX_ORDER:
            wp = ctx.mul(wp, w)
    return TaylorScalar(ctx, out)


def recip(s: TaylorScalar) -> TaylorScalar:
    v = s.value
    if v == 0.0:
        raise TaylorDomainError("division by a scalar with zero value part")
    d = [(-1.0) ** m * math.factorial(m) / v ** (m + 1) for m in range(MAX_ORDER + 1)]
    return _compose(s, d)


def exp(s: TaylorScalar) -> TaylorScalar:
    ev = math.exp(s.value)
    return _compose(s, [ev] * (MAX_ORDER + 1))


def log(s: TaylorScalar) -> TaylorScalar:
    if s.value <= 0.0:
        raise TaylorDomainError(f"log of non-positive value {s.value}")
    return log_abs(s)


def log_abs(s: TaylorScalar) -> TaylorScalar:
    """log|s|; valid for either sign of the value part (used for sigma quotients)."""
    v = s.value
    if v == 0.0:
        raise TaylorDomainError("log of zero")
    d = [math.log(abs(v))]
    d += [(-1.0) ** (m - 1) * math.factorial(m - 1) / v ** m for m in range(1, MAX_ORDER + 1)]
    return _compose(s, d)


def sqrt(s: TaylorScalar) -> TaylorScalar:
    return power(s, 0.5)  # power rejects a non-positive value part


def sin(s: TaylorScalar) -> TaylorScalar:
    sv, cv = math.sin(s.value), math.cos(s.value)
    return _compose(s, [sv, cv, -sv, -cv, sv])


def cos(s: TaylorScalar) -> TaylorScalar:
    sv, cv = math.sin(s.value), math.cos(s.value)
    return _compose(s, [cv, -sv, -cv, sv, cv])


def sinh(s: TaylorScalar) -> TaylorScalar:
    sv, cv = math.sinh(s.value), math.cosh(s.value)
    return _compose(s, [sv, cv, sv, cv, sv])


def cosh(s: TaylorScalar) -> TaylorScalar:
    sv, cv = math.sinh(s.value), math.cosh(s.value)
    return _compose(s, [cv, sv, cv, sv, cv])


def tanh(s: TaylorScalar) -> TaylorScalar:
    t = math.tanh(s.value)
    u = 1.0 - t * t  # sech^2
    # successive derivatives of tanh expressed through t and u
    d = [t, u, -2 * t * u, -2 * u * u + 4 * t * t * u, 16 * t * u * u - 8 * t ** 3 * u]
    return _compose(s, d)


def abs_(s: TaylorScalar) -> TaylorScalar:
    if s.value == 0.0:
        raise TaylorDomainError("abs is not differentiable at 0")
    return s if s.value > 0 else -s


def power(s: TaylorScalar, p) -> TaylorScalar:
    """s**p.  Integer p is evaluated by repeated multiplication (valid for
    any value part); fractional p requires a positive value part."""
    if isinstance(p, TaylorScalar):
        nonconst = p.c.copy()
        nonconst[0] = 0.0
        if np.any(nonconst != 0.0):
            return exp(p * log(s))
        p = p.value
    pf = float(p)
    if pf == round(pf) and abs(pf) <= 64:
        m = int(round(pf))
        if m < 0:
            base = recip(s)
            m = -m
        else:
            base = s
        out = s.ctx.constant(1.0)
        acc = base
        while m:
            if m & 1:
                out = out * acc
            m >>= 1
            if m:
                acc = acc * acc
        return out
    v = s.value
    if v <= 0.0:
        raise TaylorDomainError(f"fractional power of non-positive value {v}")
    d = []
    coeff = 1.0
    for m in range(MAX_ORDER + 1):
        d.append(coeff * v ** (pf - m))
        coeff *= pf - m
    return _compose(s, d)

