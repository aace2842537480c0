"""sigma_k-curvatures, quotient curvature, Newton tensors and the conformal
transformation laws.

One sigma path serves both rings: ``sigmas`` (Newton's identities on the
power traces tr(A^m)), the Horner loop ``_newton`` and the cone check in
``log_quotient`` run unchanged on the float ``CurvaturePack.endo`` and on
the object array of Taylor jets ``TaylorCurvature.endo`` whose value part
it is.  No eigenvalues are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import taylor
from .curvature import (CurvaturePack, GeometryError, MetricChart, TaylorCurvature,
                        _as_expr, _obj, curvature_taylor, values)
from .tensor import TensorValue, sigmas_from_power_sums


class ConeConditionError(GeometryError):
    """sigma_k * sigma_l <= 0: the quotient curvature is undefined."""

    def __init__(self, k, l, sigma_k, sigma_l):
        super().__init__(
            f"cone condition violated: sigma_{k} = {sigma_k:.6g}, "
            f"sigma_{l} = {sigma_l:.6g}, product <= 0"
        )
        self.sigma_k = sigma_k
        self.sigma_l = sigma_l


@dataclass(frozen=True)
class SigmaProfile:
    n: int
    sigmas: np.ndarray          # sigma_0 .. sigma_n
    k: int
    l: int
    log_quotient: float
    cone_ok: bool


# -- the one sigma path, over floats or jets -------------------------------


def sigmas(a) -> list:
    """sigma_0..sigma_n of the endomorphism ``a`` by Newton's identities on
    the power traces tr(a^m), m = 1..n, which take n - 1 matrix products."""
    n = len(a)
    traces, power = [np.trace(a)], a
    for _ in range(n - 1):
        power = power @ a
        traces.append(np.trace(power))
    return sigmas_from_power_sums(traces, n)


def _newton(a, k: int):
    """T_k = sum_{j<=k} (-1)^j sigma_{k-j} a^j by Horner's rule:
    T_0 = sigma_0 I, T_1 = sigma_1 I - a and T_j = sigma_j I - a T_{j-1}."""
    sig, eye = sigmas(a), np.eye(len(a))
    if k == 0:
        return sig[0] * eye
    acc = sig[1] * eye - a
    for s in sig[2:k + 1]:
        acc = s * eye - a @ acc
    return acc


def log_quotient(sig, k: int, l: int):
    """log(sigma_k/sigma_l) from a list of sigmas, as log|sigma_k| -
    log|sigma_l|.  Raises ConeConditionError unless sigma_k * sigma_l > 0."""
    sk, sl = sig[k], sig[l]
    jets = isinstance(sk, taylor.TaylorScalar)
    vk, vl = (sk.value, sl.value) if jets else (float(sk), float(sl))
    if vk * vl <= 0.0:
        raise ConeConditionError(k, l, vk, vl)
    log_abs = taylor.log_abs if jets else (lambda v: math.log(abs(v)))
    return log_abs(sk) - log_abs(sl)


def sigma_profile(pack: CurvaturePack, k: int, l: int) -> SigmaProfile:
    """All sigma_j of g^{-1}A at the pack's point plus log(sigma_k/sigma_l).

    Raises ConeConditionError when sigma_k * sigma_l <= 0.
    """
    n = pack.dim
    if n < 3:
        raise GeometryError("sigma-curvatures need dimension >= 3")
    if not (0 <= k <= n and 0 <= l <= n):
        raise GeometryError(f"quotient indices ({k},{l}) out of range 0..{n}")
    sig = np.array(sigmas(pack.endo), dtype=float)
    return SigmaProfile(n=n, sigmas=sig, k=k, l=l,
                        log_quotient=log_quotient(sig, k, l), cone_ok=True)


@dataclass(frozen=True)
class NewtonTensor:
    k: int
    value: TensorValue  # (1,1)


def newton_tensor(pack: CurvaturePack, k: int) -> NewtonTensor:
    """T_k = sum_{j<=k} (-1)^j sigma_{k-j} (g^{-1}A)^j."""
    n = pack.dim
    if not 0 <= k <= n - 1:
        raise GeometryError(f"Newton tensor index k={k} out of range 0..{n - 1}")
    return NewtonTensor(k, TensorValue(n, (1, 1), _newton(pack.endo, k)))


def sigma_taylor(tc: TaylorCurvature) -> list:
    """sigma_0..sigma_n of g^{-1}A as Taylor scalars."""
    return sigmas(tc.endo)


def newton_tensor_taylor(tc: TaylorCurvature, k: int) -> np.ndarray:
    """T_k of g^{-1}A as an object array of Taylor scalars."""
    return _newton(tc.endo, k)


def log_quotient_taylor(tc: TaylorCurvature, k: int, l: int):
    """log(sigma_k/sigma_l) as a Taylor scalar, guarded by the cone condition."""
    return log_quotient(sigma_taylor(tc), k, l)


def divergence_newton(chart: MetricChart, x, k: int) -> TensorValue:
    """(div T_k)_j = nabla_i (T_k)^i_j by pipeline re-differentiation.

    Returned for inspection; the vanishing div T_k = 0 is only asserted on
    (locally) conformally flat charts, where the identity is established.
    """
    tc = curvature_taylor(chart, x, order=3)  # one derivative of T_k
    if not 0 <= k <= tc.dim - 1:
        raise GeometryError(f"Newton tensor index k={k} out of range 0..{tc.dim - 1}")
    tk = newton_tensor_taylor(tc, k)
    div = tc.div_endomorphism(tk)
    return TensorValue(tc.dim, (0, 1), values(div))


# -- conformal transformation laws -----------------------------------------


def _conformal_base(chart0: MetricChart, x, phi):
    """Base pipeline at x and the jets of w = log phi for g = phi^2 g_0:
    (tc0, w, hess_0 w, dw, |dw|^2_0), at order 2: the laws read values only."""
    tc0 = curvature_taylor(chart0, x, order=2)
    pt = ex.eval_taylor(_as_expr(phi), x, order=tc0.order)
    if pt.value <= 0.0:
        raise GeometryError(f"conformal factor must be positive, got {pt.value}")
    n = tc0.dim
    w = taylor.log(pt)
    hess = tc0.hessian_scalar(w)
    dw = [w.deriv(i) for i in range(n)]
    grad2 = w.ctx.constant(0.0)
    for i in range(n):
        for j in range(n):
            grad2 = grad2 + tc0.ginv[i, j] * dw[i] * dw[j]
    return tc0, w, hess, dw, grad2


def _conformal_schouten_taylor(tc0: TaylorCurvature, hess, dw, grad2):
    """Schouten of e^{2w} g_0 from base-chart data (Taylor level):
    A = A_0 - hess_0 w + dw (x) dw - 1/2 |dw|^2_0 g_0."""
    n = tc0.dim
    out = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = (tc0.schouten[i, j] - hess[i, j]
                                     + dw[i] * dw[j] - 0.5 * grad2 * tc0.g[i, j])
    return out


def conformal_schouten(chart0: MetricChart, x, phi) -> TensorValue:
    """Schouten tensor of g = phi^2 g_0 via the conformal transformation law,
    for a positive factor phi given as an expression over the base chart."""
    tc0, _, hess, dw, grad2 = _conformal_base(chart0, x, phi)
    out = _conformal_schouten_taylor(tc0, hess, dw, grad2)
    return TensorValue(tc0.dim, (0, 2), values(out))


def conformal_ricci(chart0: MetricChart, x, phi) -> TensorValue:
    """Ricci of g = phi^2 g_0 via the conformal law
    Ric = Ric_0 - (n-2)(hess_0 w - dw dw) - (lap_0 w + (n-2)|dw|^2_0) g_0,
    with w = log phi."""
    tc0, w, hess, dw, grad2 = _conformal_base(chart0, x, phi)
    n = tc0.dim
    lap = tc0.laplacian_scalar(w)
    out = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = (
                tc0.ricci[i, j]
                - (n - 2) * (hess[i, j] - dw[i] * dw[j])
                - (lap + (n - 2) * grad2) * tc0.g[i, j]
            )
    return TensorValue(n, (0, 2), values(out))
