"""Pointwise curvature engine on coordinate-chart metrics.

Every quantity is computed in a truncated Taylor ring of order p (2, 3 or
4), so curvature tensors come out as Taylor scalars whose low-order
coefficients are the exact derivatives needed downstream.  Each derivative
costs one order (see ``taylor``), and each entry point asks for the least
order it reads:

    p = 2  values of curvature, Schouten, Hessians and L_X g
           (soliton residuals, conformal laws);
    p = 3  one derivative more: Cotton (``curvature_at``) and the
           divergence of Newton tensors;
    p = 4  two derivatives of curvature: Laplacians of sigma quantities in
           the structural identities; also ``curvature_taylor``'s default.

Reading a coefficient the order does not cover raises ``TaylorTrustError``.
``curvature_at`` returns the order-3 ``TaylorCurvature`` itself, the one
record of a pipeline's results: a caller reads floats as value parts where
it needs them (``values(tc.ricci)``, ``tc.scalar.value``), the covariant
operators' too (``values(tc.hessian_scalar(tc.jet(f)))``).  The Weyl tensor
is not a field; W = Rm - A ⊠ g is one ``kulkarni_nomizu`` call away.

``curvature_taylor`` takes one point of shape (n,) or a batch of P probe
points of shape (P, n) and runs one pipeline for the whole batch: every
jet then holds (P, C) coefficients (see ``taylor``), and ``values`` returns
arrays of shape (P, ...).  The chart checks the points (shape and domain
box, ``MetricChart.check_points``) and the metric (a positive smallest
eigenvalue), naming the first probe that fails.  Jets combined with a
pipeline are evaluated by ``TaylorCurvature.jet`` at its ``points`` and order.
``curvature_at``, the conformal laws, ``divergence_newton`` and
``models.warped_ricci_formula`` take one point.  Memory grows with P, so
callers split large probe sets with ``probe_batches``, which keeps the
estimated jet storage of one pipeline under ``BATCH_BYTES``.  The inverse
metric is Gauss-Jordan elimination without pivoting: the metric has passed
the eigenvalue test, so it is symmetric positive definite, where
elimination without pivoting is stable.

Every stage is a contraction over object arrays of jets, but below p = 4
the block below.  Each matrix product, and each index sum an ``einsum``
would write, is ``taylor.matmul``: one ``TaylorContext.mul`` call per term,
in numpy's operand order, summed left to right on the coefficient arrays,
one jet per output.  Element-wise ``*`` stays numpy's, and traces run
left to right (``_lsum``).  Every stage thus forms the products the same
sums written as index loops would.  The block Riemann -> g^-1 A is written
once for two rings (``_curvature_block``): jets at p = 4; below it, one
float array per tensor of its coefficients of degree <= p - 2
(``_prefix_block``), one ``TaylorContext.product`` call per contraction,
whose jets keep the order-4 block's coefficients to that degree (sign of a
zero aside).  Each product is summed only to the order its stage keeps
(``taylor`` header, trusted-prefix rule).  A contraction summed with a
derivative takes that derivative's order as ``matmul``'s ``trusted``, one
below its operands': Riemann's Gamma Gamma terms p - 2, beside d Gamma; the
Gamma A terms of nabla A, and so of Cotton, p - 3; the Gamma ds term of a
Hessian of s trusted(s) - 2; and the Gamma T terms of div T trusted(T) - 1.
The other stages' products already keep their operands' lower order: g^-1
dg in Christoffel p - 1; the lowering g R, g^-1 Ric and g^-1 A p - 2; and
the Gamma X terms of L_X g and div X the order of dX.
Symmetric stages (Christoffel, Ricci, Schouten, Hessians, L_X g) are
computed on i <= j and mirrored, Riemann on m < nu and negated for
nu < m.  Stages are built one slice at a time where whole-table
temporaries would raise peak memory: Christoffel per first lower index,
Riemann per (m, nu) pair, its lowering per (k, l) block over the same
array, and nabla A per first index.

Sign conventions: Riemann (1,3) tensor
R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s} + Gamma^r_{m t}Gamma^t_{n s}
- Gamma^r_{n t}Gamma^t_{m s}; Ricci as the (m = r) trace.  With this choice
the round sphere carries Ric = (n-1) g and Rm_{ijkl} = g_{ik}g_{jl} -
g_{il}g_{jk} in lowered form.  The Cotton tensor is the Schouten-based
C_{ijk} = nabla_i A_{jk} - nabla_j A_{ik}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import expr as ex
from . import taylor
from .taylor import TaylorScalar
from .tensor import TensorValue


class GeometryError(ValueError):
    """Point outside the chart domain, non-positive-definite metric, etc."""


def check_int(value, what: str, lo: int, hi: float = math.inf):
    """Raise GeometryError unless ``value`` is an integer (a bool is not) in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= hi:
        within = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise GeometryError(f"{what} must be an integer {within}, got {value!r}")


# -- charts ----------------------------------------------------------------


class MetricChart:
    """A dimension, an n x n symmetric array of component expressions and a
    validity box of finite intervals lo < hi, all checked here: the shape at
    once, symmetry and positive definiteness on a coarse grid."""

    def __init__(self, dim, comps, domain):
        check_int(dim, "chart dimension", 2, taylor.MAX_DIM)
        if len(comps) != dim or any(len(row) != dim for row in comps):
            raise GeometryError(f"metric must be a {dim}x{dim} array")
        self.dim = dim
        # each distinct string parsed once, in row-major order of first use
        strings = dict.fromkeys(c for row in comps for c in row if isinstance(c, str))
        parsed = {c: ex.parse(c) for c in strings}
        self.comps = [[parsed[c] if isinstance(c, str) else c for c in row] for row in comps]
        try:
            self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        except (TypeError, ValueError) as err:
            raise GeometryError(f"domain must list (lo, hi) number pairs: {err}") from None
        if len(self.domain) != dim or not all(-math.inf < lo < hi < math.inf
                                              for lo, hi in self.domain):
            raise GeometryError(f"domain must be {dim} finite intervals lo < hi: {self.domain}")
        self._validate()

    def _validate(self):
        # a 3-point grid per axis, 5% clear of both ends
        axes = []
        for lo, hi in self.domain:
            pad = 0.05 * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, 3))
        x = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(self.dim, -1)
        g = self.metric_values(x)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.comps[i][j] != self.comps[j][i]:
                    # accept numerically symmetric input
                    a, b = g[:, i, j], ex.eval_float(self.comps[j][i], x)
                    self._require(np.abs(a - b) <= 1e-12 * (1 + np.abs(a)), x,
                                  f"metric[{i}][{j}] and metric[{j}][{i}] disagree")
        self._require(np.linalg.eigvalsh(g)[:, 0] > 0, x,
                      "metric not positive definite")

    @staticmethod
    def _require(ok, x, what):
        if not np.all(ok):
            raise GeometryError(f"{what} at {x[:, np.argmin(ok)].tolist()}")

    def check_points(self, x) -> np.ndarray:
        """x as floats, one point (n,) or a batch (P, n) inside the domain box up to
        1e-12; a GeometryError names another shape or the first point outside."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise GeometryError(f"points of shape {x.shape} for a chart of dimension {self.dim}")
        lo, hi = np.array(self.domain).T
        pts = x.reshape(-1, self.dim)
        self._require(np.all((lo - 1e-12 <= pts) & (pts <= hi + 1e-12), axis=1), pts.T,
                      "point outside chart domain")
        return x

    def metric_values(self, x) -> np.ndarray:
        """g at the point x, shape (n, n); for stacked coordinates x of shape
        (n, ...), one matrix per point, shape (..., n, n).  Each distinct
        component is evaluated once."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        entries = {}  # component -> its (i, j) on and above the diagonal
        for i, j in zip(*_triu(n)):
            entries.setdefault(self.comps[i][j], []).append((i, j))
        g = np.empty(x.shape[1:] + (n, n))
        for e, at in entries.items():
            v = ex.eval_float(e, x)
            for i, j in at:
                g[..., i, j] = g[..., j, i] = v
        return g


# -- Taylor-valued tensor algebra -----------------------------------------


def _obj(shape):
    return np.empty(shape, dtype=object)


# deriv of each element, resolved per call so that a rebound TaylorScalar.deriv is used
_deriv = np.frompyfunc(lambda s, var: s.deriv(var), 2, 1)


def _d(t, var=None) -> np.ndarray:
    """The derivative of every jet of the array ``t`` along ``var``, an
    index or an index array that broadcasts against ``t``; without ``var``,
    along every coordinate, as a new first axis."""
    t = np.asarray(t, dtype=object)
    if var is None:
        n = t.flat[0].ctx.dim
        var = np.arange(n).reshape((n,) + (1,) * t.ndim)
    return _deriv(t, var)


def _trust(t) -> int:
    """The lowest trusted order among the jets of the array ``t``."""
    return min(s.trusted for s in np.asarray(t, dtype=object).flat)


def _lsum(a):
    """The sum over the last axis, left to right in either ring (np.sum sums floats pairwise)."""
    return np.cumsum(a, axis=-1)[..., -1][()]


_triu = lru_cache(maxsize=None)(np.triu_indices)  # callers only index with the shared arrays


def _sym(upper: np.ndarray, n: int) -> np.ndarray:
    """The jet or float array symmetric in its last two axes, of length n, whose
    ``np.triu_indices(n)`` entries are the last axis of ``upper``."""
    i, j = _triu(n)
    out = np.empty(upper.shape[:-1] + (n, n), dtype=upper.dtype)
    out[..., i, j] = out[..., j, i] = upper
    return out


def taylor_metric(chart: MetricChart, x, order: int = taylor.MAX_ORDER) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = chart.dim
    g = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            try:
                s = ex.eval_taylor(chart.comps[i][j], x, order=order)
            except ex.EvalError as err:
                at = (x if x.ndim == 1 else x[err.probe or 0]).tolist()
                raise GeometryError(f"metric component ({i},{j}) at {at}: {err}") from err
            g[i, j] = g[j, i] = s
    return g


def taylor_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite Taylor-valued matrix by
    Gauss-Jordan elimination without pivoting, one pivot column at a time:
    scale the pivot row, then subtract its multiples from every row whose
    pivot-column entry is not all zeros."""
    n = m.shape[0]
    ctx = m[0, 0].ctx
    a = m.copy()
    inv = np.full((n, n), ctx.constant(0.0), dtype=object)
    np.fill_diagonal(inv, ctx.constant(1.0))
    for col in range(n):
        pinv = taylor.recip(a[col, col])
        a[col], inv[col] = a[col] * pinv, inv[col] * pinv
        rows = [r for r in range(n) if r != col and not np.all(a[r, col].c == 0.0)]
        f = a[rows, col]
        a[rows] -= np.multiply.outer(f, a[col])
        inv[rows] -= np.multiply.outer(f, inv[col])
    return inv


def values(arr) -> np.ndarray:
    """Value parts of an object array of TaylorScalars: shape ``arr.shape``
    for one point, (P, *arr.shape) for a batch (constants broadcast)."""
    vals = [s.value for s in arr.flat]
    lead = next((v.shape for v in vals if not isinstance(v, float)), ())
    if lead:
        vals = [np.broadcast_to(v, lead) if isinstance(v, float) else v for v in vals]
    return np.moveaxis(np.array(vals), 0, -1).reshape(lead + arr.shape)


BATCH_BYTES = 32 * 2 ** 20


def probe_batches(points, order: int) -> list:
    """Consecutive slices of the (P, n) ``points`` whose pipelines at
    ``order`` each keep an estimated <= BATCH_BYTES of jet coefficients:
    the rank-4 Riemann array of jets (below order 4 wrapped from the prefix
    ring) and about four rank-3 arrays of C doubles per probe dominate."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    per_probe = 8 * math.comb(n + order, order) * (n ** 4 + 4 * n ** 3)
    size = max(1, BATCH_BYTES // max(1, per_probe))
    return [points[i:i + size] for i in range(0, len(points), size)]


@dataclass
class TaylorCurvature:
    """Curvature pipeline outputs as Taylor scalars of one order p.

    Trusted derivative orders: g to p, christoffel to p - 1, riemann /
    ricci / scalar / schouten / endo to p - 2, cotton to p - 3; cotton is
    None below order 3.  ``jet`` evaluates the jets combined with these (f,
    X, lambda, phi) at the pipeline's ``points``, (n,) or (P, n), and order.
    """
    dim: int
    g: np.ndarray
    ginv: np.ndarray
    christoffel: np.ndarray          # Gamma^k_ij indexed [k, i, j]
    riemann: np.ndarray              # (0,4) R_ijkl
    ricci: np.ndarray                # (0,2)
    scalar: TaylorScalar
    schouten: np.ndarray | None      # (0,2), n >= 3
    endo: np.ndarray | None          # (1,1) g^{-1} A
    cotton: np.ndarray | None        # (0,3) C_ijk
    points: np.ndarray | None = None

    @property
    def order(self) -> int:
        return self.g[0, 0].ctx.order

    def jet(self, e) -> TaylorScalar:
        """``e``, an Expr or its source, as a jet at the pipeline's points and order."""
        return ex.eval_taylor(ex.as_expr(e), self.points, order=self.order)

    def cov_deriv_02(self, t: np.ndarray) -> np.ndarray:
        """nabla_i t_jk = d_i t_jk - Gamma^l_ij t_lk - Gamma^l_ik t_jl for a
        Taylor (0,2) tensor; output indexed [i, j, k], one i at a time."""
        out = _obj((self.dim,) * 3)
        cap = _trust(t) - 1  # the trust of d_i t
        for i in range(self.dim):
            gam = self.christoffel[:, i]  # [l, j] = Gamma^l_ij
            out[i] = (_d(t, i) - taylor.matmul(gam.T, t, cap)        # Gamma^l_ij t_lk
                      - taylor.matmul(gam.T, t.T, cap).T)            # Gamma^l_ik t_jl
        return out

    def grad_scalar(self, s: TaylorScalar) -> np.ndarray:
        """Contravariant gradient components (g^{ij} d_j s)."""
        return taylor.matmul(self.ginv, _d(s))

    def hessian_scalar(self, s: TaylorScalar) -> np.ndarray:
        """d_i d_j s - Gamma^k_ij d_k s, on i <= j."""
        i, j = _triu(self.dim)
        ds = _d(s)
        gds = taylor.matmul(self.christoffel[:, i, j].T, ds, s.trusted - 2)
        return _sym(_d(ds[i], j) - gds, self.dim)

    def laplacian_scalar(self, s: TaylorScalar) -> TaylorScalar:
        return np.sum(self.ginv * self.hessian_scalar(s))

    def lie_metric(self, xvec: np.ndarray) -> np.ndarray:
        """(L_X g)_ij = d_i X_j + d_j X_i - 2 Gamma^k_ij X_k for contravariant
        Taylor components X^k, on i <= j."""
        i, j = _triu(self.dim)
        xlow = taylor.matmul(self.g, xvec)
        return _sym(_d(xlow[j], i) + _d(xlow[i], j)
                    - taylor.matmul((2.0 * self.christoffel[:, i, j]).T, xlow), self.dim)

    def div_vector(self, xvec: np.ndarray) -> TaylorScalar:
        """d_i X^i + Gamma^i_ik X^k, with Gamma^i_ik summed over i first."""
        return (np.sum(_d(xvec, np.arange(self.dim)))
                + taylor.matmul(np.trace(self.christoffel), xvec))

    def div_endomorphism(self, t: np.ndarray) -> np.ndarray:
        """(div T)_j = nabla_i T^i_j = d_i T^i_j + Gamma^i_il T^l_j -
        Gamma^l_ij T^i_l for a Taylor (1,1) tensor, with Gamma^i_il summed
        over i first and the last term summed over the pairs (i, l) in
        row-major order."""
        n, gam = self.dim, self.christoffel
        pairs = gam.transpose(1, 0, 2).reshape(n * n, n)  # [(i, l), j] = Gamma^l_ij
        cap = _trust(t) - 1  # the trust of d_i T^i_j
        return (np.sum(_d(t, np.arange(n)[:, None]), axis=0)
                + taylor.matmul(np.trace(gam), t, cap)
                - taylor.matmul(pairs.T, t.reshape(-1), cap))


def curvature_taylor(chart: MetricChart, x, order: int = taylor.MAX_ORDER) -> TaylorCurvature:
    """The curvature pipeline in the Taylor ring of ``order``, at the point
    x of shape (n,) or at every probe of a (P, n) batch at once."""
    x = chart.check_points(x)
    n = chart.dim
    g = taylor_metric(chart, x, order)
    chart._require(np.linalg.eigvalsh(values(g))[..., 0] > 0, x.reshape(-1, n).T,
                   "metric not positive definite")  # the chart's test, per probe
    ginv = taylor_inverse(g)
    i, j = _triu(n)

    dg = _sym(_d(g[i, j]), n)  # dg[l, i, j] = d_l g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), one i at a time
    gam = _obj((n, n, n))
    for a in range(n):
        gam[:, a, a:] = gam[:, a:, a] = \
            0.5 * taylor.matmul(ginv, (dg[a, a:] + dg[a:, a] - dg[:, a, a:].T).T)

    cap = _trust(gam) - 1  # the trust of d_m Gamma, and of the block below
    if cap > 1:  # order 4 stays on jets
        riem, ric, scal, schouten, endo = _curvature_block(
            g, ginv, gam, lambda m, nu: _d(gam[:, nu], m), g[0, 0].ctx.constant(0.0),
            lambda a, b: a * b, lambda a, b: taylor.matmul(a, b, cap))
    else:
        riem, ric, scal, schouten, endo = _prefix_block(g, ginv, gam, x.shape[:-1], cap)

    tc = TaylorCurvature(n, g, ginv, gam, riem, ric, scal, schouten, endo, None, x)
    if n >= 3 and order >= 3:
        da = tc.cov_deriv_02(schouten)
        tc.cotton = da - da.transpose(1, 0, 2)
    return tc


def _curvature_block(g, ginv, gam, dgam, zero, mul, matmul):
    """(riemann, ricci, scalar, schouten, endo) in either ring, jets or the prefix
    ring (``_prefix_block``), whose products are ``mul`` and ``matmul``; ``dgam(m,
    nu)`` is d_m Gamma^r_{nu t} as [r, t], and ``zero`` fills R^r_{s m m}."""
    n = g.shape[-1]
    i, j = _triu(n)
    # Riemann (1,3) R^r_{s m nu}, antisymmetric in (m, nu), one pair at a time
    riem13 = np.full(gam.shape[:-3] + (n,) * 4, zero, dtype=gam.dtype)
    for m, nu in zip(*_triu(n, 1)):
        gm, gn = gam[..., m, :], gam[..., nu, :]  # [r, t] = Gamma^r_{m t}
        r = dgam(m, nu) - dgam(nu, m) + matmul(gm, gn) - matmul(gn, gm)
        riem13[..., m, nu], riem13[..., nu, m] = r, -r

    # Ric_ij = R^r_{i r j}, on i <= j
    ric = _sym(_lsum(np.diagonal(riem13, axis1=-4, axis2=-2)[..., i, j, :]), n)

    # lowered R_ijkl, written over riem13 one (k, l) block at a time so that
    # a batch holds one rank-4 array, not two
    riem = riem13
    for k, l in zip(*_triu(n, 1)):
        block = matmul(g, riem13[..., k, l])
        riem[..., k, l], riem[..., l, k] = block, -block

    scal = _lsum(mul(ginv, ric).reshape(ric.shape[:-2] + (1, n * n)))  # [..., 1]
    schouten = endo = None
    if n >= 3:
        coef = scal * (1.0 / (2.0 * (n - 1)))
        schouten = _sym((ric[..., i, j] - mul(coef, g[..., i, j])) * (1.0 / (n - 2)), n)
        endo = matmul(ginv, schouten)
    return riem, ric, scal[..., 0][()], schouten, endo


def _prefix_block(g, ginv, gam, lead: tuple, cap: int):
    """The block on the prefix ring at ``cap`` <= 1, float arrays (K, *lead, tensor
    axes) of the K coefficients of degree <= cap: a product is one
    ``TaylorContext.product`` over every other axis, a contraction sums left to
    right as ``taylor.matmul`` sums jets, and d Gamma is formed as ``deriv`` forms
    it.  Its results are jets trusted to cap, R_ijkk the constant zero to p."""
    ctx = g[0, 0].ctx
    n, k = ctx.dim, ctx._ends[cap + 1]
    gv = _columns(gam, ctx._ends[cap + 2], lead)  # [coefficient, ..., r, m, t]
    dg = [(gv[src[:k]].T * fac[:k]).T for src, _, fac in ctx._deriv]  # d_m: fac[q] c[src[q]]

    def mul(a, b):  # the coefficient axis last for the product, then first again
        if k == 1:  # values: the table's one pair (0, 0), summed from 0.0 as mul sums it
            return 0.0 + a * b
        c = ctx.product(a.transpose(*range(1, a.ndim), 0), b.transpose(*range(1, b.ndim), 0), cap)
        return c.transpose(c.ndim - 1, *range(c.ndim - 1))

    def matmul(a, b):
        return np.cumsum(mul(a[..., None], b[..., None, :, :]), axis=-2)[..., -1, :]

    def jets(v):  # v is (k,) + lead + shape; the shared zero where v is 0 at every probe
        shape = v.shape[1 + len(lead):]
        flat = v.reshape(v.shape[:1 + len(lead)] + (math.prod(shape),)).T  # [entry, *lead, k]
        live = flat.any(axis=tuple(range(1, flat.ndim)))
        c = np.zeros((int(live.sum()),) + lead + (ctx.ncoef,))
        c[..., :k] = flat[live]
        out = np.full(len(flat), TaylorScalar(ctx, ctx.zero(lead), cap), dtype=object)
        out[live] = [TaylorScalar(ctx, ci, cap) for ci in c]
        return out.reshape(shape)[()]

    riem, ric, scal, schouten, endo = _curvature_block(
        _columns(g, k, lead), _columns(ginv, k, lead), gv[:k],
        lambda m, nu: dg[m][..., nu, :], 0.0, mul, matmul)
    i, j = _triu(n)  # symmetric fields share one jet per pair, as _sym shares
    riem, ric, scal = jets(riem), _sym(jets(ric[..., i, j]), n), jets(scal)
    riem[:, :, range(n), range(n)] = ctx.constant(0.0)
    if schouten is not None:
        schouten, endo = _sym(jets(schouten[..., i, j]), n), jets(endo)
    return riem, ric, scal, schouten, endo


def _columns(arr, k: int, lead: tuple) -> np.ndarray:
    """The first k coefficients of ``arr``'s jets, broadcast to (k,) + lead + arr.shape."""
    out = np.empty((arr.size,) + lead + (k,))
    for q, s in enumerate(arr.flat):
        out[q] = s.c[..., :k]
    return out.T.reshape((k,) + lead + arr.shape)  # lead has at most one axis


# -- one-point entry points -----------------------------------------------


def kulkarni_nomizu(a: TensorValue, b: TensorValue) -> TensorValue:
    """(a ⊠ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    With this normalization the Weyl tensor W = Rm - A ⊠ g is totally
    trace-free on the round sphere (checked in the test suite), so no extra
    factor is needed.
    """
    if a.valence != (0, 2) or b.valence != (0, 2):
        raise ValueError("kulkarni_nomizu expects (0,2) tensors")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    x, y = a.components, b.components
    return TensorValue(a.dim, (0, 4), np.einsum("ik,jl->ijkl", x, y)
                       + np.einsum("jl,ik->ijkl", x, y)
                       - np.einsum("il,jk->ijkl", x, y)
                       - np.einsum("jk,il->ijkl", x, y))


def _one_point(dim: int, x, what: str) -> np.ndarray:
    """x as the one point of shape (dim,) that ``what`` takes."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise GeometryError(f"{what} takes one point of shape ({dim},), "
                            f"got shape {x.shape}")
    return x


def curvature_at(chart: MetricChart, x) -> TaylorCurvature:
    """The order-3 pipeline at the one point x: Cotton reads one derivative
    of A.  Its floats are the value parts, ``values(tc.ricci)`` or
    ``tc.scalar.value``."""
    return curvature_taylor(chart, _one_point(chart.dim, x, "curvature_at"), order=3)

