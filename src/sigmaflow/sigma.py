"""sigma_k-curvatures, quotient curvature, Newton tensors and the conformal
transformation laws.

sigma_j is the j-th elementary symmetric function of the eigenvalues of
g^{-1}A, computed without eigenvalues by Newton's identities (``sigmas``),
on floats, (P, n, n) float stacks or jets alike; README explains why a
float result is the value part of its jet.  ``log_quotient`` is the one
statement of log(sigma_k/sigma_l) and of its cone rule sigma_k sigma_l > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import taylor
from .curvature import (GeometryError, MetricChart, TaylorCurvature, _d, _lsum,
                        _one_point, check_int, curvature_taylor, values)
from .tensor import TensorValue, sigmas_from_power_sums


class ConeConditionError(GeometryError):
    """sigma_k * sigma_l is not > 0 (a NaN sigma fails too): the quotient
    curvature is undefined.  ``probe`` is the index of the first violating
    probe of a batch, None for one point."""

    def __init__(self, k, l, sigma_k, sigma_l, where: str = "", probe: int | None = None):
        super().__init__(f"cone condition violated{where and ' ' + where}: sigma_{k} = "
                         f"{sigma_k:.6g}, sigma_{l} = {sigma_l:.6g}, "
                         f"sigma_{k} * sigma_{l} not > 0")
        self.sigma_k, self.sigma_l, self.probe = sigma_k, sigma_l, probe


@dataclass(frozen=True)
class SigmaProfile:
    sigmas: np.ndarray          # sigma_0 .. sigma_n
    log_quotient: float


def check_pair(n: int, k, l):
    """The one rule for the quotient indices of sigma_k/sigma_l in dimension
    n: integers with 0 <= k, l <= n (k = l is the trivial quotient)."""
    check_int(k, "quotient index k", 0, n)
    check_int(l, "quotient index l", 0, n)


def repeated_sigma(m: int, j: int, a):
    """sigma_j of a repeated m times, C(m, j) a^j, and the integer 0 for j
    outside 0..m; ``a`` is a float, an int or an array."""
    return math.comb(m, j) * a ** j if 0 <= j <= m else 0


def two_eigenvalue_sigma(n: int, j: int, a, b):
    """sigma_j of the spectrum a (n - 1 times) and b (once).  The factor on b
    is d sigma_j / d b; on ints the result is exact."""
    return repeated_sigma(n - 1, j, a) + repeated_sigma(n - 1, j - 1, a) * b


# -- the one sigma path, over floats or jets -------------------------------


def sigmas(a) -> list:
    """sigma_0..sigma_n of ``a`` by Newton's identities on the power traces
    tr(a^m), m = 1..n, which take n - 1 matrix products.  ``a`` is an n x n
    matrix of floats or jets or a (P, n, n) float stack; None (g^{-1}A below
    n = 3) raises GeometryError."""
    if a is None:
        raise GeometryError("sigma-curvatures need dimension >= 3")
    n = a.shape[-1]
    powers = [a]
    for _ in range(n - 1):
        powers.append(taylor.matmul(powers[-1], a))
    # each trace left to right in either ring (np.trace sums floats pairwise)
    traces = [_lsum(np.diagonal(p, axis1=-2, axis2=-1)) for p in powers]
    return sigmas_from_power_sums(traces, n)


def _newton(a, k: int):
    """T_k = sum_{j<=k} (-1)^j sigma_{k-j} a^j by Horner's rule:
    T_0 = sigma_0 I, T_1 = sigma_1 I - a and T_j = sigma_j I - a T_{j-1}.
    T_n vanishes by Cayley-Hamilton, so k runs over 0..n - 1."""
    sig = sigmas(a)  # which rejects a below dimension 3
    check_int(k, "Newton tensor index k", 0, len(a) - 1)
    eye = np.eye(len(a))
    if k == 0:
        return sig[0] * eye
    acc = sig[1] * eye - a
    for s in sig[2:k + 1]:
        acc = s * eye - taylor.matmul(a, acc)
    return acc


def cone_values(sig, k: int, l: int):
    """The value parts of sigma_k and sigma_l (floats, or float arrays, (P,)
    for a batch) and where sigma_k * sigma_l > 0."""
    sk, sl = sig[k], sig[l]
    vk = sk.value if type(sk) is taylor.TaylorScalar else sk
    vl = sl.value if type(sl) is taylor.TaylorScalar else sl
    return vk, vl, np.greater(vk * vl, 0.0)


def log_quotient(sig, k: int, l: int):
    """log|sigma_k| - log|sigma_l| of jets, of a stack's (P,) floats or of one
    point's floats (a float), by ``np.log`` as in ``taylor.log_abs``.  Raises
    ConeConditionError unless sigma_k * sigma_l > 0, with the sigmas and the
    index of the first violating probe of a batch."""
    vk, vl, ok = cone_values(sig, k, l)
    i = taylor.first_failure(ok)
    if i is not None:
        raise ConeConditionError(k, l, *(float(np.broadcast_to(v, ok.shape).flat[i])
                                         for v in (vk, vl)), probe=i if ok.ndim else None)
    if type(sig[k]) is taylor.TaylorScalar:
        return taylor.log_abs(sig[k]) - taylor.log_abs(sig[l])
    logq = np.log(np.abs(vk)) - np.log(np.abs(vl))
    return float(logq) if logq.ndim == 0 else logq


def _endo_values(tc: TaylorCurvature, what: str):
    """g^{-1}A's value part at the one point of ``tc``; None below n = 3."""
    _one_point(tc.dim, tc.points, what)
    return None if tc.endo is None else values(tc.endo)


def sigma_profile(tc: TaylorCurvature, k: int, l: int) -> SigmaProfile:
    """All sigma_j of g^{-1}A at the record's one point, and
    log(sigma_k/sigma_l); ConeConditionError unless sigma_k sigma_l > 0."""
    check_pair(tc.dim, k, l)
    sig = np.array(sigmas(_endo_values(tc, "sigma_profile")), dtype=float)
    return SigmaProfile(sigmas=sig, log_quotient=log_quotient(sig, k, l))


def newton_tensor(tc: TaylorCurvature, k: int) -> TensorValue:
    """T_k = sum_{j<=k} (-1)^j sigma_{k-j} (g^{-1}A)^j at the record's point,
    a (1,1) tensor."""
    return TensorValue(tc.dim, (1, 1), _newton(_endo_values(tc, "newton_tensor"), k))


def sigma_taylor(tc: TaylorCurvature) -> list:
    """sigma_0..sigma_n of g^{-1}A as Taylor scalars."""
    return sigmas(tc.endo)


def newton_tensor_taylor(tc: TaylorCurvature, k: int) -> np.ndarray:
    """T_k of g^{-1}A as an object array of Taylor scalars."""
    return _newton(tc.endo, k)


def divergence_newton(chart: MetricChart, x, k: int) -> TensorValue:
    """(div T_k)_j = nabla_i (T_k)^i_j at the one point x, from the order-3
    pipeline's jets; it vanishes on locally conformally flat charts."""
    x = _one_point(chart.dim, x, "divergence_newton")
    tc = curvature_taylor(chart, x, order=3)  # one derivative of T_k
    tk = newton_tensor_taylor(tc, k)
    div = tc.div_endomorphism(tk)
    return TensorValue(tc.dim, (0, 1), values(div))


# -- conformal transformation laws -----------------------------------------


def _conformal_base(chart0: MetricChart, x, phi):
    """Base pipeline at the one point x, at order 2 (values only), and the
    value parts of hess_0 w, dw and |dw|^2_0 (a float) for g = phi^2 g_0 with
    w = log phi: (tc0, hess, dw, grad2).  Float ``taylor.matmul`` sums in the
    jet order, so |dw|^2_0 is the value of its jet."""
    tc0 = curvature_taylor(chart0, _one_point(chart0.dim, x, "a conformal law"), order=2)
    pt = tc0.jet(phi)
    if pt.value <= 0.0:
        raise GeometryError(f"conformal factor must be positive, got {pt.value}")
    w = taylor.log(pt)
    dw = values(_d(w))
    grad2 = taylor.matmul(dw, taylor.matmul(values(tc0.ginv), dw))
    return tc0, values(tc0.hessian_scalar(w)), dw, grad2


def _conformal_schouten_taylor(schouten0, g0, hess, dw, grad2):
    """Schouten of e^{2w} g_0 from base-chart data, in the ring of its
    operands (the law passes value parts):
    A = A_0 - hess_0 w + dw (x) dw - 1/2 |dw|^2_0 g_0."""
    return schouten0 - hess + np.multiply.outer(dw, dw) - (0.5 * grad2) * g0


def conformal_schouten(chart0: MetricChart, x, phi) -> TensorValue:
    """Schouten tensor of g = phi^2 g_0 via the conformal transformation law,
    for a positive factor phi given as an expression over the base chart."""
    if chart0.dim < 3:
        raise GeometryError("the Schouten tensor needs dimension >= 3")
    tc0, hess, dw, grad2 = _conformal_base(chart0, x, phi)
    out = _conformal_schouten_taylor(values(tc0.schouten), values(tc0.g), hess, dw, grad2)
    return TensorValue(tc0.dim, (0, 2), out)


def conformal_ricci(chart0: MetricChart, x, phi) -> TensorValue:
    """Ricci of g = phi^2 g_0 via the conformal law
    Ric = Ric_0 - (n-2)(hess_0 w - dw dw) - (lap_0 w + (n-2)|dw|^2_0) g_0,
    with w = log phi and lap_0 w = g_0^{ij} (hess_0 w)_ij summed in row-major
    order."""
    tc0, hess, dw, grad2 = _conformal_base(chart0, x, phi)
    n = tc0.dim
    lap = _lsum((values(tc0.ginv) * hess).ravel())
    out = (values(tc0.ricci) - (n - 2) * (hess - np.multiply.outer(dw, dw))
           - (lap + (n - 2) * grad2) * values(tc0.g))
    return TensorValue(n, (0, 2), out)
