"""Pointwise curvature engine on coordinate-chart metrics.

Every quantity is computed in a truncated Taylor ring of order p (2, 3 or
4), so curvature tensors come out as Taylor scalars whose low-order
coefficients are the exact derivatives needed downstream.  Each derivative
costs one order (see ``taylor``), and each entry point asks for the least
order it reads:

    p = 2  values of curvature, Schouten, Hessians and L_X g
           (``covariant_ops``, soliton residuals, conformal laws);
    p = 3  one derivative more: Cotton (``curvature_at``) and the
           divergence of Newton tensors;
    p = 4  two derivatives of curvature: Laplacians of sigma quantities in
           the structural identities; also ``curvature_taylor``'s default.

Reading a coefficient the order does not cover raises ``TaylorTrustError``.
``curvature_at`` extracts the plain floating values into a ``CurvaturePack``
and keeps the Taylor data attached for callers that re-differentiate the
pipeline.

Sign conventions: Riemann (1,3) tensor
R^r_{s m n} = d_m Gamma^r_{n s} - d_n Gamma^r_{m s} + Gamma^r_{m t}Gamma^t_{n s}
- Gamma^r_{n t}Gamma^t_{m s}; Ricci as the (m = r) trace.  With this choice
the round sphere carries Ric = (n-1) g and Rm_{ijkl} = g_{ik}g_{jl} -
g_{il}g_{jk} in lowered form.  The Cotton tensor is the Schouten-based
C_{ijk} = nabla_i A_{jk} - nabla_j A_{ik}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import taylor
from .taylor import TaylorScalar
from .tensor import TensorValue


class GeometryError(ValueError):
    """Point outside the chart domain, non-positive-definite metric, etc."""


# -- charts ----------------------------------------------------------------


class MetricChart:
    """A dimension, an n x n symmetric array of component expressions and a
    validity box.  Symmetry and positive definiteness are probed on a coarse
    grid at construction time."""

    def __init__(self, dim, comps, domain, periodic=None, validate=True):
        if not 2 <= dim <= 8:
            raise GeometryError(f"chart dimension must be in 2..8, got {dim}")
        self.dim = dim
        self.comps = [[_as_expr(comps[i][j]) for j in range(dim)] for i in range(dim)]
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        if len(self.domain) != dim:
            raise GeometryError("domain must give one interval per axis")
        self.periodic = list(periodic) if periodic is not None else [False] * dim
        if validate:
            self._validate()

    def _validate(self):
        x = self.probe_grid(3)
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

    def probe_grid(self, per_axis: int) -> np.ndarray:
        """Small interior grid used for construction-time checks, as stacked
        coordinates of shape (dim, per_axis ** dim)."""
        axes = []
        for lo, hi in self.domain:
            pad = 0.05 * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, per_axis))
        return np.stack(np.meshgrid(*axes, indexing="ij")).reshape(self.dim, -1)

    def contains(self, x) -> bool:
        return all(lo - 1e-12 <= xi <= hi + 1e-12
                   for xi, (lo, hi) in zip(x, self.domain))

    def metric_values(self, x) -> np.ndarray:
        """g at the point x, shape (n, n); for stacked coordinates x of shape
        (n, ...), one matrix per point, shape (..., n, n)."""
        n = self.dim
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = ex.eval_float(self.comps[i][j], x)
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _as_expr(e):
    return ex.parse(e) if isinstance(e, str) else e


# -- Taylor-valued tensor algebra -----------------------------------------


def _obj(shape):
    return np.empty(shape, dtype=object)


def taylor_metric(chart: MetricChart, x, order: int = taylor.MAX_ORDER) -> np.ndarray:
    n = chart.dim
    g = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            try:
                s = ex.eval_taylor(chart.comps[i][j], x, order=order)
            except ex.EvalError as err:
                raise GeometryError(f"metric component ({i},{j}) at {x}: {err}") from err
            g[i, j] = g[j, i] = s
    return g


def taylor_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a Taylor-valued matrix by Gauss-Jordan elimination with
    value-part pivoting."""
    n = m.shape[0]
    ctx = m[0, 0].ctx
    a = m.copy()
    inv = _obj((n, n))
    for i in range(n):
        for j in range(n):
            inv[i, j] = ctx.constant(1.0 if i == j else 0.0)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r, col].value))
        if abs(a[piv, col].value) < 1e-300:
            raise GeometryError("singular metric")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        pinv = taylor.recip(a[col, col])
        for j in range(n):
            a[col, j] = a[col, j] * pinv
            inv[col, j] = inv[col, j] * pinv
        for r in range(n):
            if r == col:
                continue
            f = a[r, col]
            if np.all(f.c == 0.0):
                continue
            for j in range(n):
                a[r, j] = a[r, j] - f * a[col, j]
                inv[r, j] = inv[r, j] - f * inv[col, j]
    return inv


def values(arr) -> np.ndarray:
    """Extract value parts of an object array of TaylorScalars."""
    out = np.empty(arr.shape)
    flat_in = arr.ravel()
    flat_out = out.ravel()
    for i in range(flat_in.size):
        flat_out[i] = flat_in[i].value
    return out


@dataclass
class TaylorCurvature:
    """Curvature pipeline outputs as Taylor scalars of one order p.

    Trusted derivative orders: g to p, christoffel to p - 1, riemann /
    ricci / scalar / schouten / endo to p - 2, cotton to p - 3; cotton is
    None below order 3.  Jets combined with these (f, X, lambda, phi) are
    evaluated at ``order``.
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

    @property
    def order(self) -> int:
        return self.g[0, 0].ctx.order

    def cov_deriv_02(self, t: np.ndarray) -> np.ndarray:
        """nabla_i t_jk for a Taylor (0,2) tensor; output indexed [i, j, k]."""
        n = self.dim
        gam = self.christoffel
        out = _obj((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s = t[j, k].deriv(i)
                    for l in range(n):
                        s = s - gam[l, i, j] * t[l, k] - gam[l, i, k] * t[j, l]
                    out[i, j, k] = s
        return out

    def grad_scalar(self, s: TaylorScalar) -> np.ndarray:
        """Contravariant gradient components (g^{ij} d_j s)."""
        n = self.dim
        ds = [s.deriv(j) for j in range(n)]
        return np.array(
            [sum((self.ginv[i, j] * ds[j] for j in range(n)),
                 start=s.ctx.constant(0.0)) for i in range(n)],
            dtype=object,
        )

    def hessian_scalar(self, s: TaylorScalar) -> np.ndarray:
        n = self.dim
        ds = [s.deriv(i) for i in range(n)]
        out = _obj((n, n))
        for i in range(n):
            for j in range(i, n):
                h = ds[i].deriv(j)
                for k in range(n):
                    h = h - self.christoffel[k, i, j] * ds[k]
                out[i, j] = out[j, i] = h
        return out

    def laplacian_scalar(self, s: TaylorScalar) -> TaylorScalar:
        hess = self.hessian_scalar(s)
        acc = s.ctx.constant(0.0)
        for i in range(self.dim):
            for j in range(self.dim):
                acc = acc + self.ginv[i, j] * hess[i, j]
        return acc

    def lie_metric(self, xvec: np.ndarray) -> np.ndarray:
        """(L_X g)_ij for contravariant Taylor components X^k."""
        n = self.dim
        xlow = [sum((self.g[j, k] * xvec[k] for k in range(n)),
                    start=xvec[0].ctx.constant(0.0)) for j in range(n)]
        out = _obj((n, n))
        for i in range(n):
            for j in range(i, n):
                a = xlow[j].deriv(i) + xlow[i].deriv(j)
                for k in range(n):
                    a = a - 2.0 * self.christoffel[k, i, j] * xlow[k]
                out[i, j] = out[j, i] = a
        return out

    def div_vector(self, xvec: np.ndarray) -> TaylorScalar:
        n = self.dim
        acc = xvec[0].ctx.constant(0.0)
        for i in range(n):
            acc = acc + xvec[i].deriv(i)
            for k in range(n):
                acc = acc + self.christoffel[i, i, k] * xvec[k]
        return acc

    def div_endomorphism(self, t: np.ndarray) -> np.ndarray:
        """(div T)_j = nabla_i T^i_j for a Taylor (1,1) tensor."""
        n = self.dim
        gam = self.christoffel
        out = _obj((n,))
        for j in range(n):
            acc = t[0, 0].ctx.constant(0.0)
            for i in range(n):
                acc = acc + t[i, j].deriv(i)
                for l in range(n):
                    acc = acc + gam[i, i, l] * t[l, j] - gam[l, i, j] * t[i, l]
            out[j] = acc
        return out


def curvature_taylor(chart: MetricChart, x, order: int = taylor.MAX_ORDER) -> TaylorCurvature:
    """The curvature pipeline at x in the Taylor ring of ``order``."""
    x = np.asarray(x, dtype=float)
    if len(x) != chart.dim:
        raise GeometryError(f"point has dimension {len(x)}, chart has {chart.dim}")
    if not chart.contains(x):
        raise GeometryError(f"point {x} outside chart domain")
    n = chart.dim
    g = taylor_metric(chart, x, order)
    gv = values(g)
    try:
        np.linalg.cholesky(gv)
    except np.linalg.LinAlgError:
        raise GeometryError(f"metric not positive definite at {x}") from None
    ginv = taylor_inverse(g)
    ctx = g[0, 0].ctx
    zero = ctx.constant(0.0)

    dg = _obj((n, n, n))  # dg[l, i, j] = d_l g_ij
    for l in range(n):
        for i in range(n):
            for j in range(i, n):
                dg[l, i, j] = dg[l, j, i] = g[i, j].deriv(l)

    gam = _obj((n, n, n))  # Gamma^k_ij
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                acc = zero
                for l in range(n):
                    acc = acc + ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gam[k, i, j] = gam[k, j, i] = 0.5 * acc

    # Riemann (1,3), antisymmetric in the last index pair
    riem13 = _obj((n, n, n, n))  # R^r_{s m n}
    for r in range(n):
        for s in range(n):
            for m in range(n):
                riem13[r, s, m, m] = zero
                for nu in range(m + 1, n):
                    acc = gam[r, nu, s].deriv(m) - gam[r, m, s].deriv(nu)
                    for t in range(n):
                        acc = acc + gam[r, m, t] * gam[t, nu, s] \
                                  - gam[r, nu, t] * gam[t, m, s]
                    riem13[r, s, m, nu] = acc
                    riem13[r, s, nu, m] = -acc

    riem = _obj((n, n, n, n))  # lowered R_ijkl
    for i in range(n):
        for j in range(n):
            for k in range(n):
                riem[i, j, k, k] = zero
                for l in range(k + 1, n):
                    acc = zero
                    for m in range(n):
                        acc = acc + g[i, m] * riem13[m, j, k, l]
                    riem[i, j, k, l] = acc
                    riem[i, j, l, k] = -acc

    ric = _obj((n, n))
    for s in range(n):
        for nu in range(s, n):
            acc = zero
            for m in range(n):
                acc = acc + riem13[m, s, m, nu]
            ric[s, nu] = ric[nu, s] = acc

    scal = zero
    for i in range(n):
        for j in range(n):
            scal = scal + ginv[i, j] * ric[i, j]

    schouten = endo = cotton = None
    if n >= 3:
        schouten = _obj((n, n))
        coef = scal * (1.0 / (2.0 * (n - 1)))
        for i in range(n):
            for j in range(i, n):
                schouten[i, j] = schouten[j, i] = \
                    (ric[i, j] - coef * g[i, j]) * (1.0 / (n - 2))
        endo = _obj((n, n))
        for i in range(n):
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + ginv[i, k] * schouten[k, j]
                endo[i, j] = acc

    tc = TaylorCurvature(n, g, ginv, gam, riem, ric, scal, schouten, endo, None)
    if n >= 3 and order >= 3:
        da = tc.cov_deriv_02(schouten)
        cotton = _obj((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    cotton[i, j, k] = da[i, j, k] - da[j, i, k]
        tc.cotton = cotton
    return tc


# -- floating-point façade -------------------------------------------------


@dataclass
class CurvaturePack:
    """Floating curvature values at one point, with the order-3 Taylor
    pipeline data attached as ``taylor`` for re-differentiation (one
    derivative of curvature)."""
    point: np.ndarray
    dim: int
    g: np.ndarray
    ginv: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    schouten: np.ndarray | None
    weyl: np.ndarray | None
    cotton: np.ndarray | None
    endo: np.ndarray | None          # g^{-1} A
    taylor: TaylorCurvature = field(repr=False, default=None)


def kulkarni_nomizu(a: TensorValue, b: TensorValue) -> TensorValue:
    """(a ⊠ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    With this normalization Rm = W + A ⊠ g is totally trace-free on the
    round sphere (checked in the test suite), so no extra factor is needed.
    """
    if a.valence != (0, 2) or b.valence != (0, 2):
        raise ValueError("kulkarni_nomizu expects (0,2) tensors")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return TensorValue(a.dim, (0, 4), _kn_array(a.components, b.components))


def _kn_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (
        np.einsum("ik,jl->ijkl", a, b)
        + np.einsum("jl,ik->ijkl", a, b)
        - np.einsum("il,jk->ijkl", a, b)
        - np.einsum("jk,il->ijkl", a, b)
    )


def curvature_at(chart: MetricChart, x) -> CurvaturePack:
    tc = curvature_taylor(chart, x, order=3)  # Cotton reads one derivative of A
    n = tc.dim
    g = values(tc.g)
    riem = values(tc.riemann)
    schouten = weyl = cotton = endo = None
    if n >= 3:
        schouten = values(tc.schouten)
        weyl = riem - _kn_array(schouten, g)
        cotton = values(tc.cotton)
        endo = values(tc.endo)
    return CurvaturePack(
        point=np.asarray(x, dtype=float),
        dim=n,
        g=g,
        ginv=values(tc.ginv),
        christoffel=values(tc.christoffel),
        riemann=riem,
        ricci=values(tc.ricci),
        scalar=tc.scalar.value,
        schouten=schouten,
        weyl=weyl,
        cotton=cotton,
        endo=endo,
        taylor=tc,
    )


@dataclass
class CovariantOps:
    gradient: np.ndarray | None = None       # contravariant components
    hessian: np.ndarray | None = None        # (0,2)
    laplacian: float | None = None
    lie_g: np.ndarray | None = None          # (0,2) for a vector field
    divergence: float | None = None


def covariant_ops(chart: MetricChart, x, f: "ex.Expr | str | None" = None,
                  X=None) -> CovariantOps:
    """Gradient / Hessian / Laplacian of a scalar, or Lie derivative of g and
    divergence of a vector field, at one point."""
    tc = curvature_taylor(chart, x, order=2)
    out = CovariantOps()
    if f is not None:
        ft = ex.eval_taylor(_as_expr(f), x, order=tc.order)
        out.gradient = values(tc.grad_scalar(ft))
        out.hessian = values(tc.hessian_scalar(ft))
        out.laplacian = tc.laplacian_scalar(ft).value
    if X is not None:
        xv = np.array([ex.eval_taylor(_as_expr(c), x, order=tc.order) for c in X],
                      dtype=object)
        out.lie_g = values(tc.lie_metric(xv))
        out.divergence = tc.div_vector(xv).value
    return out
