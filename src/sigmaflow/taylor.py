"""Truncated multivariate Taylor arithmetic of order p = 2, 3 or 4 in up to
8 variables, one ``TaylorContext`` per (dim, order) (``context``).

A ``TaylorScalar`` holds the coefficients c_alpha = d^alpha f(x0) / alpha!
of total degree |alpha| <= p, sorted by degree, so the vector of order p is
a prefix of the one of order 4; ``derivative(alpha)`` is alpha! c_alpha.
The coefficient axis is last: ``c`` has shape (C,) at one point and (P, C)
for a batch of P probes, which every operation carries at once, and a
constant of shape (C,) broadcasts against a batch.  ``value`` and
``derivative`` return a float at one point and a (P,) array for a batch.

Value rule: the value part of every jet an operation returns is the float
result of that operation on its operands' value parts, computed by numpy
as on a float array of their shape (a0 / b0, ``np.power(v, p)``,
``np.sqrt(v)``, ``np.exp(v)``, ...), sign of a zero aside.

Trusted order: each scalar is exact up to total degree ``trusted``.
``variable`` and ``constant`` set p, ``deriv`` one less, and a sum, product
or composition the lowest of its operands'; a product (``mul``, ``matmul``)
may be capped lower still.  Coefficients above it are not exact.
Reading ``value`` below trust 0, ``derivative(alpha)`` with |alpha| >
``trusted``, or combining scalars of two contexts raises
``TaylorTrustError``.  A function outside its domain raises
``TaylorDomainError`` ``<rule> <value>``, naming the first failing probe of
a batch (``first_failure``).  Jets and their coefficient arrays are never
changed after they are built.  README explains the mechanism: the trusted
prefix of the product table, the shared structural zeros and the
summation order of ``matmul``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 4
MAX_DIM = 8


class TaylorDomainError(ValueError):
    """Function evaluated outside its domain (log of <= 0, etc.).  ``rule``
    says which; ``ok`` holds where the rule held, a bool at one point, else
    one per probe; ``probe`` is the index of the first failing probe of a
    batch, else None."""

    def __init__(self, rule: str, ok=False):
        self.rule, self.ok = rule, ok
        self.probe = first_failure(ok) if np.ndim(ok) else None
        super().__init__(rule if self.probe is None else f"{rule} (probe {self.probe})")


class TaylorTrustError(RuntimeError):
    """A coefficient was read above a scalar's trusted order, or scalars of
    two contexts were combined.  This is a fault of the calling program (it
    chose too low an order), never of its input."""


def first_failure(ok) -> int | None:
    """The index of the first false entry of ``ok`` in flat (probe) order, or None."""
    ok = np.asarray(ok)
    return None if ok.all() else int(np.argmin(ok.ravel()))


def _domain(ok, message: str, v) -> None:
    """Raise TaylorDomainError unless ``ok`` holds at every probe: ``ok`` and ``v``
    are value parts, () at one point, else a batch (or a float grid), and
    ``{v}`` in ``message`` is the value at the first probe that fails.  A rule
    that held at one point (``True`` or ``np.True_``) returns at once."""
    if ok is True or ok is np.True_:
        return
    i = first_failure(ok)
    if i is not None:
        bad = np.broadcast_to(v, np.shape(ok)).flat[i]
        raise TaylorDomainError(message.format(v=f"{bad:.6g}"), ok)


def integral(p):
    """Whether the exponent p, a float or an array of them, is an integer: the
    one test by which ``^`` takes any base in either ring (``power``, ``expr``)."""
    return p % 1 == 0


def _val(s: "TaylorScalar") -> np.ndarray:
    """The value part in the float ring's shape, () at one point and (P,)
    for a batch, so that numpy runs the float ring's loops on it."""
    if s.trusted < 0:
        s.value  # raises TaylorTrustError
    return s.c[..., 0]


def _multi_indices(dim: int, order: int) -> np.ndarray:
    """All multi-indices of ``dim`` variables with |alpha| <= ``order``, as
    rows ordered by total degree then lexicographically."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(dim):
        deg = rows.sum(axis=1)
        rows = np.concatenate([
            np.column_stack([np.full(int(np.sum(deg <= order - a)), a),
                             rows[deg <= order - a]])
            for a in range(order + 1)])
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def context(dim: int, order: int = MAX_ORDER) -> "TaylorContext":
    """The shared tables of ``dim`` variables truncated at ``order`` (2, 3
    or 4): one object per (dim, order), however the order is passed."""
    return _context(dim, order)


@lru_cache(maxsize=None)
def _context(dim: int, order: int) -> "TaylorContext":
    return TaylorContext(dim, order)


class TaylorContext:
    """The index tables of ``dim`` variables at ``order``, shared by every
    scalar of the context; ValueError outside dim 1..8 and order 2, 3, 4."""

    def __init__(self, dim: int, order: int = MAX_ORDER):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        # curvature values already read two derivatives of the metric
        if order not in (2, 3, MAX_ORDER):
            raise ValueError(f"order must be 2, 3 or {MAX_ORDER}, got {order}")
        self.dim = dim
        self.order = order
        rows = _multi_indices(dim, order)
        self.indices = [tuple(a) for a in rows.tolist()]
        self.ncoef = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self.degree = rows.sum(axis=1)

        # a multi-index as one integer in base order + 1: sums of indices of
        # total degree <= order never carry, so keys add like the indices
        place = (order + 1) ** np.arange(dim)
        keys = rows @ place
        sorter = np.argsort(keys)

        def position(k):
            return sorter[np.searchsorted(keys, k, sorter=sorter)]

        # product table: every ordered pair (a, b) with |a|+|b| <= order,
        # stably sorted by |a|+|b| so each trusted order uses a prefix
        ia, ib = np.nonzero(self.degree[:, None] + self.degree[None, :] <= order)
        pair_deg = self.degree[ia] + self.degree[ib]
        by_deg = np.argsort(pair_deg, kind="stable")
        self._mul_a, self._mul_b = ia[by_deg], ib[by_deg]
        self._mul_out = position(keys[self._mul_a] + keys[self._mul_b])
        # (a, b, out) prefixes per trusted order 1 .. MAX_ORDER, where every
        # order from the context's up takes the whole table
        ends = np.searchsorted(pair_deg[by_deg], np.arange(1, MAX_ORDER + 1), side="right")
        self._prefix = {t: (self._mul_a[:e], self._mul_b[:e], self._mul_out[:e])
                        for t, e in enumerate(ends, start=1)}
        self._scatter = {}          # (probes, trusted) -> flat output index
        self._zeros = {}            # lead shape -> the shared zero
        self._zero_ids = set()      # their ids, for a fast is_zero
        self._zero = self.zero()    # the one-point zero, returned by mul without a lookup

        # derivative table per variable: d/dx_v maps c[a + e_v] -> (a_v + 1) c
        below = np.flatnonzero(self.degree < order)
        self._deriv = [(position(keys[below] + place[v]), below,
                        (rows[below, v] + 1).astype(float)) for v in range(dim)]
        # _ends[t + 1] coefficients, a prefix, have degree <= t, for t = -1 .. order
        self._ends = np.searchsorted(self.degree, np.arange(-1, order + 1), side="right").tolist()

        fact = np.array([math.factorial(k) for k in range(order + 1)])
        self._factorials = fact[rows].prod(axis=1)

    # -- structural zeros --------------------------------------------------

    def zero(self, lead: tuple = ()) -> np.ndarray:
        """The shared, read-only zero coefficient array of shape lead + (C,)."""
        z = self._zeros.get(lead)
        if z is None:
            z = self._zeros[lead] = np.zeros(lead + (self.ncoef,))
            z.flags.writeable = False
            self._zero_ids.add(id(z))
        return z

    def is_zero(self, c: np.ndarray) -> bool:
        """Whether ``c`` is a shared zero; an array that only holds zeros is not."""
        return id(c) in self._zero_ids

    # -- raw coefficient-array kernels -------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray, trusted: int = MAX_ORDER) -> np.ndarray:
        """Product of coefficient arrays of shape (..., C), summed over the
        pairs of degree <= ``trusted`` only (zero above it): for ``trusted``
        0 that is the value alone, and below 0 nothing; the shared zero of
        the broadcast shape when either operand is a shared zero."""
        if self.is_zero(a) or self.is_zero(b):
            return self._zero if a.ndim == b.ndim == 1 else self.zero(_lead(a, b))
        if trusted <= 0:  # at most the value: one multiply per probe, no gather
            v = 0.0 + a[..., 0] * b[..., 0]  # summed from 0.0 as bincount sums
            c = np.zeros(v.shape + (self.ncoef,))
            if trusted == 0:
                c[..., 0] = v
            return c
        if a.ndim == b.ndim == 1:  # one point: 3.4 us, 5.0 through the batch path (n=4, p=3)
            ia, ib, out = self._prefix[trusted]
            return np.bincount(out, weights=a[ia] * b[ib], minlength=self.ncoef)
        return self.product(a, b, trusted)

    def product(self, a: np.ndarray, b: np.ndarray, trusted: int) -> np.ndarray:
        """``mul``'s sum for arrays (..., C) that broadcast over every leading
        axis: the pairs of degree <= ``trusted`` (>= 1), in table order from 0.0,
        one ``bincount`` for all of them."""
        ia, ib, out = self._prefix[trusted]
        w = a.take(ia, axis=-1) * b.take(ib, axis=-1)
        probes = math.prod(w.shape[:-1])
        idx = self._scatter.get((probes, trusted))
        if idx is None:
            idx = (np.arange(probes)[:, None] * self.ncoef + out).ravel()
            self._scatter[probes, trusted] = idx
        return np.bincount(idx, weights=w.ravel(),
                           minlength=probes * self.ncoef).reshape(w.shape[:-1] + (self.ncoef,))

    def deriv(self, c: np.ndarray, var: int, trusted: int) -> np.ndarray:
        """d/dx_var of ``c``; the shared zero if it vanishes up to degree ``trusted``."""
        if self.is_zero(c):
            return c
        src, dst, fac = self._deriv[var]
        out = np.zeros(c.shape)
        if c.ndim == 1:  # one point: 1.5 us, 3.2 through [..., dst]
            out[dst] = fac * c[src]
        else:
            out[:, dst] = fac * c[:, src]
        return out if out[..., :self._ends[trusted + 1]].any() else self.zero(c.shape[:-1])

    def constant(self, value: float) -> "TaylorScalar":
        """The constant jet of the float ``value``, of shape (C,), which
        broadcasts against a batch; the constant 0.0 is the shared zero."""
        if value == 0.0:
            return TaylorScalar(self, self.zero())
        c = np.zeros(self.ncoef)
        c[0] = value
        return TaylorScalar(self, c)

    def variable(self, var: int, value) -> "TaylorScalar":
        c = np.zeros(_shape(value) + (self.ncoef,))
        c[..., 0] = value
        e = [0] * self.dim
        e[var] = 1
        c[..., self.index_of[tuple(e)]] = 1.0
        return TaylorScalar(self, c)


def _shape(value) -> tuple:
    return value.shape if isinstance(value, np.ndarray) else ()  # np.shape is slow on floats


def _lead(a: np.ndarray, b: np.ndarray) -> tuple:
    """The probe shape of a product of coefficient arrays ``a`` and ``b``."""
    if b.ndim == 1 or b.shape == a.shape:
        return a.shape[:-1]
    if a.ndim == 1:
        return b.shape[:-1]
    return np.broadcast_shapes(a.shape, b.shape)[:-1]


class TaylorScalar:
    """Coefficients ``c`` of shape (C,) or (P, C) over ``ctx``, exact up to
    total degree ``trusted`` (``ctx.order`` when not given)."""

    __slots__ = ("ctx", "c", "trusted")

    def __init__(self, ctx: TaylorContext, c: np.ndarray, trusted: int | None = None):
        self.ctx = ctx
        self.c = c
        self.trusted = ctx.order if trusted is None else trusted

    def __repr__(self):
        return (f"TaylorScalar(dim={self.ctx.dim}, order={self.ctx.order}, "
                f"trusted={self.trusted}, c={self.c!r})")

    @property
    def value(self):
        """The value part: a float, or a (P,) array for a batch."""
        if self.trusted < 0:
            raise TaylorTrustError(
                f"value of a jet differentiated beyond its order {self.ctx.order} "
                f"(trusted to {self.trusted})")
        return float(self.c[0]) if self.c.ndim == 1 else self.c[:, 0]

    def derivative(self, alpha):
        """Mixed partial d^alpha f at the expansion point (alpha! * c_alpha)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.trusted:
            raise TaylorTrustError(
                f"derivative {alpha} of a jet trusted to order {self.trusted}")
        i = self.ctx.index_of.get(alpha)
        if i is None:
            raise KeyError(f"multi-index {alpha} does not fit {self.ctx.dim} variables")
        v = self.ctx._factorials[i] * self.c[..., i]
        return float(v) if v.ndim == 0 else v

    def deriv(self, var: int) -> "TaylorScalar":
        """Partial derivative; trusted one order below the input."""
        t = self.trusted - 1
        return TaylorScalar(self.ctx, self.ctx.deriv(self.c, var, t), t)

    # -- ring operations ---------------------------------------------------
    # Each operator tests its operand's type once: a jet of the same context,
    # a number (the constant jet, or a scalar factor in * and /), or anything
    # else, for which it returns NotImplemented.

    def __add__(self, other):
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return _sum(self, other, -1, swap=True)

    def __neg__(self):
        return self if self.ctx.is_zero(self.c) else \
            TaylorScalar(self.ctx, -self.c, self.trusted)

    def __mul__(self, other):
        ctx = self.ctx
        if type(other) is TaylorScalar:
            if other.ctx is not ctx:
                raise _mixed(self, other)
            t = self.trusted if self.trusted < other.trusted else other.trusted
            return TaylorScalar(ctx, ctx.mul(self.c, other.c, t), t)
        if isinstance(other, (int, float)):
            if ctx.is_zero(self.c):
                return self
            return TaylorScalar(ctx, self.c * float(other), self.trusted)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is TaylorScalar:
            if other.ctx is not self.ctx:
                raise _mixed(self, other)
            return _valued(self * recip(other), self.c[..., 0] / other.c[..., 0])
        if isinstance(other, (int, float)):
            if other == 0:
                raise TaylorDomainError("division by zero")
            if self.ctx.is_zero(self.c):
                return self
            return TaylorScalar(self.ctx, self.c / float(other), self.trusted)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            other = self.ctx.constant(float(other))
        elif type(other) is not TaylorScalar:
            return NotImplemented
        return other / self

    def __pow__(self, p):
        return power(self, p)


def _mixed(x: TaylorScalar, y: TaylorScalar) -> TaylorTrustError:
    return TaylorTrustError(
        f"jets of two contexts combined: dim {x.ctx.dim} order "
        f"{x.ctx.order} and dim {y.ctx.dim} order {y.ctx.order}")


def _sum(x: TaylorScalar, other, sign: int, swap: bool = False):
    """x + sign * other, or other - x with ``swap``, trusted as far as both;
    README states what a sum with a shared zero returns."""
    ctx = x.ctx
    if type(other) is TaylorScalar:
        if other.ctx is not ctx:
            raise _mixed(x, other)
    elif isinstance(other, (int, float)):
        other = ctx.constant(float(other))
    else:
        return NotImplemented
    x, y = (other, x) if swap else (x, other)
    a, b = x.c, y.c
    t = x.trusted if x.trusted < y.trusted else y.trusted
    if ctx.is_zero(b) and (b.ndim == 1 or b.shape == a.shape):
        return x if t == x.trusted else TaylorScalar(ctx, a, t)
    if ctx.is_zero(a) and (a.ndim == 1 or a.shape == b.shape):
        if sign < 0:
            return TaylorScalar(ctx, -b, t)
        return y if t == y.trusted else TaylorScalar(ctx, b, t)
    return TaylorScalar(ctx, a + b if sign > 0 else a - b, t)


# -- contraction -------------------------------------------------------------


def matmul(a: np.ndarray, b: np.ndarray, trusted: int | None = None):
    """``a @ b`` for 2-D or 1-D operands: on jets of one context, numpy's
    object ``@`` bit for bit up to each output's trusted order, one jet per
    output; on floats (or (P, n, n) stacks), the same sums in the same order.
    ``trusted`` caps the order of every product (None: no cap).  TypeError
    for an entry that is not a jet, TaylorTrustError for two contexts."""
    a2 = a if a.ndim >= 2 else a[None]
    b2 = b if b.ndim >= 2 else b[:, None]
    if a.dtype != object and b.dtype != object:
        out = np.cumsum(a2[..., None] * b2[..., None, :, :], axis=-2)[..., -1, :]
        out = out if b.ndim > 1 else out[..., 0]
        return out if a.ndim > 1 else out[0]
    first = a2.flat[0]
    for s in (*a2.flat, *b2.flat):
        if type(s) is not TaylorScalar:
            raise TypeError(f"matmul of jets met a {type(s).__name__}")
        if s.ctx is not first.ctx:
            raise _mixed(first, s)
    ctx = first.ctx
    mul, is_zero = ctx.mul, ctx.is_zero   # looked up now, so a rebound hook is seen
    cap = ctx.order if trusted is None else trusted
    rows = [[(s.c, s.trusted if s.trusted < cap else cap, is_zero(s.c)) for s in row]
            for row in a2]
    cols = [[(s.c, s.trusted if s.trusted < cap else cap, is_zero(s.c)) for s in col]
            for col in b2.T]
    out = np.empty((len(rows), len(cols)), dtype=object)
    for i, row in enumerate(rows):
        for k, col in enumerate(cols):
            terms = zip(row, col)
            (x, tx, zx), (y, ty, zy) = next(terms)
            t_acc = tx if tx < ty else ty
            acc, z_acc = mul(x, y, t_acc), zx or zy
            for (x, tx, zx), (y, ty, zy) in terms:
                t = tx if tx < ty else ty
                p = mul(x, y, t)
                if t < t_acc:
                    t_acc = t
                z = zx or zy  # p is a shared zero
                if z and (p.ndim == 1 or p.shape == acc.shape):
                    continue
                if z_acc and (acc.ndim == 1 or acc.shape == p.shape):
                    acc, z_acc = p, z
                else:
                    acc, z_acc = acc + p, False
            out[i, k] = TaylorScalar(ctx, acc, t_acc)
    if b.ndim == 1:
        out = out[:, 0]
    return out[0] if a.ndim == 1 else out


# -- composition with a univariate outer function --------------------------


def _compose(s: TaylorScalar, series, scale=None) -> TaylorScalar:
    """f(s) = series[0] + sum of series[m] x^m over m = 1 .. order, where x is
    w / ``scale`` for the nilpotent part w of s (w itself for None):
    series[0] is f(v), the float ring's value, and each entry, like
    ``scale``, a float or a value part (``_val``).  Trusted as far as ``s``."""
    ctx, t = s.ctx, s.trusted
    x = s.c.copy()
    x[..., 0] = 0.0  # nilpotent part
    if not x[..., :ctx._ends[t + 1]].any():  # s is a constant, as far as it is trusted
        x = ctx.zero(x.shape[:-1])
    elif scale is not None:
        x.T[...] /= scale
    out = np.zeros(x.shape)
    sums = out.T  # the coefficient axis first, so a (P,) entry broadcasts
    xm = x
    for m in range(1, ctx.order + 1):
        sums += series[m] * xm.T
        if m < ctx.order:
            xm = ctx.mul(xm, x, t)
    out[..., 0] = series[0]
    return TaylorScalar(ctx, out, t)


def _valued(s: TaylorScalar, value) -> TaylorScalar:
    """``s``, a jet no one holds yet, with ``value``, the float ring's result
    on the operands' value parts, as its value column; a shared zero is kept."""
    if not s.ctx.is_zero(s.c):
        s.c[..., 0] = value
    return s


def recip(s: TaylorScalar) -> TaylorScalar:
    """1/s = (1/v) sum (-u)^m."""
    v = _val(s)
    _domain(v != 0.0, "division by a jet with value part {v}", v)
    r = 1.0 / v
    return _compose(s, [r, -r, r, -r, r], v)


def exp(s: TaylorScalar) -> TaylorScalar:
    ev = np.exp(_val(s))
    return _compose(s, [ev, ev, ev / 2, ev / 6, ev / 24])


def log(s: TaylorScalar) -> TaylorScalar:
    v = _val(s)
    _domain(v > 0.0, "log of non-positive value {v}", v)
    return log_abs(s)


def log_abs(s: TaylorScalar) -> TaylorScalar:
    """log|s| = log|v| + sum (-1)^(m-1) u^m / m; valid for either sign of the
    value part (used for sigma quotients)."""
    v = _val(s)
    _domain(v != 0.0, "log of zero", v)
    return _compose(s, [np.log(np.abs(v)), 1.0, -1 / 2, 1 / 3, -1 / 4], v)


def _fractional(s: TaylorScalar, p: float, root) -> TaylorScalar:
    """s^p = sum C(p, m) v^(p - m) w^m for a positive value part v, ``root(v)``
    being v^p in the float ring, summed in w / scale with README's scale of
    each probe: 1 where v < 1, from v^(p - m), else min(v, max(1, |w|)),
    from v^p times scale / v <= 1 once per m."""
    v = _val(s)
    _domain(v > 0.0, "fractional power of non-positive value {v}", v)
    head = root(v)
    small = v < 1.0
    big, below = np.where(small, 1.0, v), np.where(small, v, 1.0)
    scale = np.minimum(big, np.maximum(1.0, np.abs(s.c[..., 1:]).max(axis=-1)))
    r = scale / big
    series, c, tail = [head], 1.0, head
    for m in range(1, s.ctx.order + 1):
        c *= (p - m + 1) / m
        tail = tail * r
        series.append(c * np.where(small, np.power(below, p - m), tail))
    return _compose(s, series, scale)


def sqrt(s: TaylorScalar) -> TaylorScalar:
    return _fractional(s, 0.5, np.sqrt)


def sin(s: TaylorScalar) -> TaylorScalar:
    sv, cv = np.sin(_val(s)), np.cos(_val(s))
    return _compose(s, [sv, cv, -sv / 2, -cv / 6, sv / 24])


def cos(s: TaylorScalar) -> TaylorScalar:
    sv, cv = np.sin(_val(s)), np.cos(_val(s))
    return _compose(s, [cv, -sv, -cv / 2, sv / 6, cv / 24])


def sinh(s: TaylorScalar) -> TaylorScalar:
    sv, cv = np.sinh(_val(s)), np.cosh(_val(s))
    return _compose(s, [sv, cv, sv / 2, cv / 6, sv / 24])


def cosh(s: TaylorScalar) -> TaylorScalar:
    sv, cv = np.sinh(_val(s)), np.cosh(_val(s))
    return _compose(s, [cv, sv, cv / 2, sv / 6, cv / 24])


def tanh(s: TaylorScalar) -> TaylorScalar:
    t = np.tanh(_val(s))
    u = 1.0 - t * t  # sech^2; the derivatives of tanh in t and u, over m!
    return _compose(s, [t, u, -2 * t * u / 2, (-2 * u * u + 4 * t * t * u) / 6,
                        (16 * t * u * u - 8 * t ** 3 * u) / 24])


def abs_(s: TaylorScalar) -> TaylorScalar:
    v = _val(s)
    _domain(v != 0.0, "abs has no derivative at {v}", v)
    return TaylorScalar(s.ctx, np.where(v > 0.0, 1.0, -1.0)[..., None] * s.c, s.trusted)


def power(s: TaylorScalar, p) -> TaylorScalar:
    """s**p, with the value column np.power(v, p).  An integral p
    (``integral``), however large, is repeated squaring, of ``recip(s)`` for
    p < 0, so any value part (nonzero for p < 0) is valid; a fractional p
    needs a positive value part.  A jet exponent that varies (in its
    derivative part, or from probe to probe) is exp(p log s), which has no
    derivative at a non-positive base."""
    pv = p
    if isinstance(p, TaylorScalar):
        pv = _val(p)
        if np.any(p.c[..., 1:] != 0.0) or np.any(p.c[..., 0] != p.c.flat[0]):
            v = _val(s)
            _domain(v > 0.0, "a variable exponent has no derivative at base {v}", v)
            return _valued(exp(p * log(s)), np.power(v, pv))
        if p.c.ndim > s.c.ndim:  # one exponent at every probe of a batch
            s = TaylorScalar(s.ctx, np.broadcast_to(s.c, p.c.shape).copy(), s.trusted)
        p = p.c.flat[0]
    if not integral(float(p)):
        return _fractional(s, float(p), lambda v: np.power(v, pv))
    m = int(p)
    out = s.ctx.constant(1.0)
    if m == 0:
        return out
    acc = recip(s) if m < 0 else s
    m = abs(m)
    while m:
        if m & 1:
            out = out * acc
        m >>= 1
        if m:
            acc = acc * acc
    return _valued(out, np.power(_val(s), pv))
