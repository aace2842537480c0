"""Pointwise curvature of coordinate-chart metrics in the Taylor ring.

``curvature_taylor(chart, x, order)`` runs the pipeline metric -> inverse ->
Christoffel -> Riemann, Ricci, scalar, Schouten, g^-1 A -> Cotton at one
point x of shape (n,), or at every probe of a (P, n) batch at once, and
returns its record, a ``TaylorCurvature`` of jets; ``values`` reads their
value parts, of shape (P, ...) for a batch.  README's order table gives the
order each entry point runs at, and explains how the stages truncate their
products and run on coefficient arrays below order 4.  ``curvature_at``,
the conformal laws, ``divergence_newton`` and
``models.warped_ricci_formula`` take one point and raise GeometryError for
a batch.  Memory grows with P: ``probe_batches`` splits a probe set so that
one pipeline keeps an estimated <= ``BATCH_BYTES`` of jet coefficients.

Sign conventions: the (1,3) Riemann tensor is
R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s} + Gamma^r_{m t}Gamma^t_{n s}
- Gamma^r_{n t}Gamma^t_{m s}, Ricci is Ric_{s n} = R^r_{s r n}, and the
lowered R_{i s m n} = g_{i r} R^r_{s m n}, so the round sphere has
Ric = (n-1) g and R_ijkl = g_ik g_jl - g_il g_jk.  The Cotton tensor is
C_ijk = nabla_i A_jk - nabla_j A_ik, with A the Schouten tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from numbers import Integral

import numpy as np

from . import expr as ex
from . import taylor
from .taylor import MAX_DIM, TaylorScalar
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
    """A dimension, an n x n array of component expressions (strings are
    parsed, or ParseError) and a domain box of intervals lo < hi of finite
    width, checked here: the shapes and the box, then symmetry and positive
    definiteness on a grid of 3 points per axis, 5% clear of the faces; a
    failed check raises GeometryError.  The chart owns each rule on its metric, for
    floats and jets alike: ``check_dimension``, ``check_points``,
    ``component`` and ``check_definite``.  Every method takes points with
    the coordinate axis last, one point (n,) or a batch (..., n)."""

    def __init__(self, dim, comps, domain):
        self.check_dimension(dim)
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
        if len(self.domain) != dim or not all(lo < hi and hi - lo < math.inf
                                              for lo, hi in self.domain):
            raise GeometryError(f"domain must be {dim} intervals lo < hi with a finite "
                                f"width hi - lo: {self.domain}")
        self._validate()

    # GeometryError unless n is an integer in 2..MAX_DIM; a static method, so
    # that the chart and its class read the same callable
    check_dimension = staticmethod(partial(check_int, what="chart dimension", lo=2, hi=MAX_DIM))

    def _validate(self):
        # a 3-point grid per axis, 5% clear of both ends, as (3^n, n) points
        axes = []
        for lo, hi in self.domain:
            pad = 0.05 * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, 3))
        x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        g = self.metric_values(x)
        for i, j in zip(*_triu(self.dim, 1)):
            if self.comps[i][j] != self.comps[j][i]:
                # accept numerically symmetric input
                a, b = g[:, i, j], self.component(j, i, x)
                self._require(np.abs(a - b) <= 1e-12 * (1 + np.abs(a)), x,
                              f"metric[{i}][{j}] and metric[{j}][{i}] disagree")
        self.check_definite(g, x)

    def _require(self, ok, x, what):
        i = taylor.first_failure(ok)
        if i is not None:
            raise GeometryError(f"{what} at {np.reshape(x, (-1, self.dim))[i].tolist()}")

    def check_points(self, x) -> np.ndarray:
        """x as floats, one point (n,) or a batch (P, n) inside the domain box up to
        1e-12; a GeometryError names another shape or the first point outside."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise GeometryError(f"points of shape {x.shape} for a chart of dimension {self.dim}")
        lo, hi = np.array(self.domain).T
        self._require(np.all((lo - 1e-12 <= x) & (x <= hi + 1e-12), axis=-1), x,
                      "point outside chart domain")
        return x

    def component(self, i: int, j: int, x: np.ndarray, order: int | None = None):
        """Component (i, j) at the float array of points x: floats of shape
        x.shape[:-1], or with ``order`` one jet of that order.  An EvalError,
        which names the point where it failed, becomes a GeometryError that
        names the component too."""
        try:
            if order is None:
                return ex.eval_float(self.comps[i][j], np.moveaxis(x, -1, 0))
            return ex.eval_taylor(self.comps[i][j], x, order=order)
        except ex.EvalError as err:
            raise GeometryError(f"metric component ({i},{j}): {err}") from err

    def check_definite(self, g, x):
        """Raise GeometryError at the first of the points x whose metric values
        g, of shape x.shape[:-1] + (n, n), are not positive definite."""
        self._require(np.linalg.eigvalsh(g)[..., 0] > 0, x, "metric not positive definite")

    def metric_values(self, x) -> np.ndarray:
        """g at the points x, shape x.shape[:-1] + (n, n).  Each distinct
        component is evaluated once."""
        x = np.asarray(x, dtype=float)
        entries = {}  # component -> its (i, j) on and above the diagonal
        for i, j in zip(*_triu(self.dim)):
            entries.setdefault(self.comps[i][j], []).append((i, j))
        g = np.empty(x.shape[:-1] + (self.dim,) * 2)
        for at in entries.values():
            v = self.component(*at[0], x)
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


def taylor_metric(chart: MetricChart, x, order: int) -> np.ndarray:
    """The metric at the points x as an (n, n) array of jets of ``order``,
    one jet walk per entry on and above the diagonal."""
    upper = [chart.component(i, j, x, order) for i, j in zip(*_triu(chart.dim))]
    return _sym(np.array(upper, dtype=object), chart.dim)


def taylor_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix of jets by
    Gauss-Jordan elimination without pivoting, which is stable there; the
    pipeline inverts only a metric that ``check_definite`` passed."""
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
    ``order`` each keep an estimated <= BATCH_BYTES of jet coefficients,
    n^4 + 4 n^3 jets per probe: the Riemann array and about four rank-3 ones."""
    points = np.asarray(points, dtype=float)
    n = points.shape[-1]
    per_probe = 8 * math.comb(n + order, order) * (n ** 4 + 4 * n ** 3)
    size = max(1, BATCH_BYTES // max(1, per_probe))
    return [points[i:i + size] for i in range(0, len(points), size)]


@dataclass
class TaylorCurvature:
    """The pipeline's outputs as jets of one order p at ``points``, (n,) or
    (P, n).  Each derivative costs one order: g and ginv are trusted to p,
    christoffel to p - 1, riemann, ricci, scalar, schouten and endo to at
    least p - 2, and cotton to p - 3.  schouten, endo and cotton are None
    below n = 3, and cotton below order 3; at order 3 cotton comes from value
    parts on the prefix ring, at order 4 from ``cov_deriv_02`` on jets.
    ``dim`` and ``order`` are read from g.  ``jet`` evaluates what is
    combined with them (f, X, lambda, phi) at the same points and order."""
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
    def dim(self) -> int:
        return self.g.shape[0]

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
    x of shape (n,) or at every probe of a (P, n) batch at once.
    GeometryError for points the chart refuses, a metric component that
    fails there, or a metric not positive definite there."""
    x = chart.check_points(x)
    n = chart.dim
    g = taylor_metric(chart, x, order)
    chart.check_definite(values(g), x)
    ginv = taylor_inverse(g)
    i, j = _triu(n)

    dg = _sym(_d(g[i, j]), n)  # dg[l, i, j] = d_l g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), one i at a time
    gam = _obj((n, n, n))
    for a in range(n):
        gam[:, a, a:] = gam[:, a:, a] = \
            0.5 * taylor.matmul(ginv, (dg[a, a:] + dg[a:, a] - dg[:, a, a:].T).T)

    cap = _trust(gam) - 1  # the trust of d_m Gamma, and of the block below
    if cap <= 1:
        return TaylorCurvature(g, ginv, gam, *_prefix_block(g, ginv, gam, x.shape[:-1], cap), x)
    # order 4 stays on jets, Cotton included
    riem, ric, scal, schouten, endo = _curvature_block(
        g, ginv, gam, lambda m, nu: _d(gam[:, nu], m), g[0, 0].ctx.constant(0.0),
        lambda a, b: a * b, lambda a, b: taylor.matmul(a, b, cap))
    tc = TaylorCurvature(g, ginv, gam, riem, ric, scal, schouten, endo, None, x)
    if schouten is not None:
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
    it.  Its results are jets trusted to cap, R_ijkk the constant zero to p, and
    at cap 1 a sixth, Cotton, from the value parts of Gamma and of d A, trusted
    to 0; cotton is None at cap 0, and with schouten and endo below n = 3."""
    ctx = g[0, 0].ctx
    n, k = ctx.dim, ctx._ends[cap + 1]
    gv = _columns(gam, ctx._ends[cap + 2], lead)  # [coefficient, ..., r, m, t]

    def d(v, m, width):  # d_m of v to its first ``width`` coefficients: fac[q] v[src[q]]
        src, _, fac = ctx._deriv[m]
        return (v[src[:width]].T * fac[:width]).T

    def mul(a, b, t=cap):  # the coefficient axis last for the product, then first again
        if t == 0:  # values: the table's one pair (0, 0), summed from 0.0 as mul sums it
            return 0.0 + a * b
        c = ctx.product(a.transpose(*range(1, a.ndim), 0), b.transpose(*range(1, b.ndim), 0), t)
        return c.transpose(c.ndim - 1, *range(c.ndim - 1))

    def matmul(a, b, t=cap):
        return np.cumsum(mul(a[..., None], b[..., None, :, :], t), axis=-2)[..., -1, :]

    def jets(v, t=cap):  # v is (K,) + lead + shape; the shared zero where v is 0 at every probe
        shape = v.shape[1 + len(lead):]
        flat = v.reshape(v.shape[:1 + len(lead)] + (math.prod(shape),)).T  # [entry, *lead, K]
        live = flat.any(axis=tuple(range(1, flat.ndim)))
        c = np.zeros((int(live.sum()),) + lead + (ctx.ncoef,))
        c[..., :len(v)] = flat[live]
        out = np.full(len(flat), TaylorScalar(ctx, ctx.zero(lead), t), dtype=object)
        out[live] = [TaylorScalar(ctx, ci, t) for ci in c]
        return out.reshape(shape)[()]

    dg = [d(gv, m, k) for m in range(n)]
    riem, ric, scal, schouten, endo = _curvature_block(
        _columns(g, k, lead), _columns(ginv, k, lead), gv[:k],
        lambda m, nu: dg[m][..., nu, :], 0.0, mul, matmul)
    cotton = None
    if schouten is not None and cap == 1:
        # nabla_i A_jk = d_i A_jk - M_i[j, k] - M_i[k, j], M_i[j, k] = Gamma^l_ij A_lk
        # (A is symmetric), one i at a time; C_ijk = nabla_i A_jk - nabla_j A_ik
        da = np.empty((1,) + lead + (n,) * 3)
        for a in range(n):
            m = matmul(gv[:1, ..., a, :].swapaxes(-1, -2), schouten[:1], 0)
            da[..., a, :, :] = d(schouten, a, 1) - m - m.swapaxes(-1, -2)
        cotton = jets(da - da.swapaxes(-3, -2), 0)
    i, j = _triu(n)  # symmetric fields share one jet per pair, as _sym shares
    riem, ric, scal = jets(riem), _sym(jets(ric[..., i, j]), n), jets(scal)
    riem[:, :, range(n), range(n)] = ctx.constant(0.0)
    if schouten is not None:
        schouten, endo = _sym(jets(schouten[..., i, j]), n), jets(endo)
    return riem, ric, scal, schouten, endo, cotton


def _columns(arr, k: int, lead: tuple) -> np.ndarray:
    """The first k coefficients of ``arr``'s jets, broadcast to (k,) + lead + arr.shape."""
    out = np.empty((arr.size,) + lead + (k,))
    for q, s in enumerate(arr.flat):
        out[q] = s.c[..., :k]
    return out.T.reshape((k,) + lead + arr.shape)  # lead has at most one axis


# -- one-point entry points -----------------------------------------------


def kulkarni_nomizu(a: TensorValue, b: TensorValue) -> TensorValue:
    """(a ⊠ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il of two
    (0,2) tensors, ValueError otherwise.  With this normalization the Weyl
    tensor W = Rm - A ⊠ g is totally trace-free, with no extra factor."""
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
    """The order-3 pipeline's record at the one point x, Cotton included;
    read floats as value parts, ``values(tc.ricci)`` or ``tc.scalar.value``."""
    return curvature_taylor(chart, _one_point(chart.dim, x, "curvature_at"), order=3)

