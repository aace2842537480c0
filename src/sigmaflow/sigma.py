"""sigma_k-curvatures, quotient curvature, Newton tensors and the conformal
transformation laws.

One sigma path serves both rings: ``sigmas`` (Newton's identities on the
power traces tr(A^m)), the Horner loop ``_newton`` and the cone check in
``log_quotient`` run unchanged on the object array of Taylor jets
``TaylorCurvature.endo`` and on its value part ``values(tc.endo)``.  The
one-point reports ``sigma_profile`` and ``newton_tensor`` take the record
and run the float ring, far cheaper than sigma jets whose derivatives
they would not read.  No eigenvalues are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import taylor
from .curvature import (GeometryError, MetricChart, TaylorCurvature, _d, _one_point,
                        _sym, check_int, curvature_taylor, values)
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
    sigmas: np.ndarray          # sigma_0 .. sigma_n
    log_quotient: float


def check_pair(n: int, k, l):
    """The one rule for the quotient indices of sigma_k/sigma_l in dimension
    n: integers with 0 <= k, l <= n (k = l is the trivial quotient)."""
    check_int(k, "quotient index k", 0, n)
    check_int(l, "quotient index l", 0, n)


# -- the one sigma path, over floats or jets -------------------------------


def sigmas(a) -> list:
    """sigma_0..sigma_n of the endomorphism ``a`` by Newton's identities on
    the power traces tr(a^m), m = 1..n, which take n - 1 matrix products.
    ``a`` is None below dimension 3, where g^{-1}A is not defined."""
    if a is None:
        raise GeometryError("sigma-curvatures need dimension >= 3")
    n = len(a)
    traces, power = [np.trace(a)], a
    for _ in range(n - 1):
        power = taylor.matmul(power, a)
        traces.append(np.trace(power))
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
    """The value parts of sigma_k and sigma_l (floats, or (P,) arrays for a
    batch of jets) and where sigma_k * sigma_l > 0."""
    vk, vl = (s.value if isinstance(s, taylor.TaylorScalar) else float(s)
              for s in (sig[k], sig[l]))
    return vk, vl, vk * vl > 0.0


def log_quotient(sig, k: int, l: int):
    """log(sigma_k/sigma_l) from a list of sigmas, as log|sigma_k| -
    log|sigma_l|.  Raises ConeConditionError unless sigma_k * sigma_l > 0,
    with the sigmas of the first violating probe of a batch."""
    vk, vl, ok = cone_values(sig, k, l)
    if not np.all(ok):
        i = int(np.argmin(np.ravel(ok)))
        raise ConeConditionError(k, l, *(float(np.broadcast_to(v, np.shape(ok)).flat[i])
                                         for v in (vk, vl)))
    if isinstance(sig[k], taylor.TaylorScalar):
        return taylor.log_abs(sig[k]) - taylor.log_abs(sig[l])
    return math.log(abs(vk)) - math.log(abs(vl))


def _endo_values(tc: TaylorCurvature, what: str):
    """g^{-1}A's value part at the one point of ``tc``; None below n = 3."""
    if tc.endo is None:
        return None
    a = values(tc.endo)
    if a.ndim != 2:
        raise GeometryError(f"{what} takes the record of one point, got {len(a)} probes")
    return a


def sigma_profile(tc: TaylorCurvature, k: int, l: int) -> SigmaProfile:
    """All sigma_j of g^{-1}A at the record's point plus log(sigma_k/sigma_l).

    Raises ConeConditionError when sigma_k * sigma_l <= 0.
    """
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


def log_quotient_taylor(tc: TaylorCurvature, k: int, l: int):
    """log(sigma_k/sigma_l) as a Taylor scalar, guarded by the cone condition."""
    return log_quotient(sigma_taylor(tc), k, l)


def divergence_newton(chart: MetricChart, x, k: int) -> TensorValue:
    """(div T_k)_j = nabla_i (T_k)^i_j by pipeline re-differentiation.

    Returned for inspection; the vanishing div T_k = 0 is only asserted on
    (locally) conformally flat charts, where the identity is established.
    """
    x = _one_point(chart, x, "divergence_newton")
    tc = curvature_taylor(chart, x, order=3)  # one derivative of T_k
    tk = newton_tensor_taylor(tc, k)
    div = tc.div_endomorphism(tk)
    return TensorValue(tc.dim, (0, 1), values(div))


# -- conformal transformation laws -----------------------------------------


def _conformal_base(chart0: MetricChart, x, phi):
    """Base pipeline at the one point x and the jets of w = log phi for g =
    phi^2 g_0: (tc0, w, hess_0 w, dw, |dw|^2_0), at order 2 (values only)."""
    tc0 = curvature_taylor(chart0, _one_point(chart0, x, "a conformal law"), order=2)
    pt = tc0.jet(phi)
    if pt.value <= 0.0:
        raise GeometryError(f"conformal factor must be positive, got {pt.value}")
    w = taylor.log(pt)
    dw = _d(w)
    grad2 = taylor.matmul(dw, taylor.matmul(tc0.ginv, dw))
    return tc0, w, tc0.hessian_scalar(w), dw, grad2


def _conformal_schouten_taylor(tc0: TaylorCurvature, hess, dw, grad2):
    """Schouten of e^{2w} g_0 from base-chart data (Taylor level):
    A = A_0 - hess_0 w + dw (x) dw - 1/2 |dw|^2_0 g_0."""
    i, j = np.triu_indices(tc0.dim)
    return _sym(tc0.schouten[i, j] - hess[i, j] + dw[i] * dw[j]
                - (0.5 * grad2) * tc0.g[i, j], tc0.dim)


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
    i, j = np.triu_indices(n)
    lap = tc0.laplacian_scalar(w)
    out = _sym(tc0.ricci[i, j] - (n - 2) * (hess[i, j] - dw[i] * dw[j])
               - (lap + (n - 2) * grad2) * tc0.g[i, j], n)
    return TensorValue(n, (0, 2), values(out))
