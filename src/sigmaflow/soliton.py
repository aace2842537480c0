"""Verification of quotient (almost) Yamabe soliton structures.

The defining residual is 1/2 L_X g - (log sigma_k/sigma_l - lambda) g,
evaluated pointwise over a deterministic probe set; gradient solitons use
the Hessian form.  The structural identities (trace, first-order, and
second-order with the scalar-curvature coupling) and the constant-scalar
second-order identity are checked by re-running the curvature pipeline on
Taylor data, never by finite-differencing outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import probes
from .curvature import GeometryError, MetricChart, _as_expr, curvature_taylor, values
from .sigma import ConeConditionError, log_quotient_taylor

TRIVIAL_TOL = 1e-7


@dataclass
class GradientPotential:
    f: "ex.Expr"


@dataclass
class VectorField:
    components: list


@dataclass
class SolitonSpec:
    chart: MetricChart
    field: "GradientPotential | VectorField"
    lam: "ex.Expr"
    k: int
    l: int

    @classmethod
    def from_model(cls, model) -> "SolitonSpec":
        if model.potential is not None:
            fld = GradientPotential(model.potential)
        elif model.vector_field is not None:
            fld = VectorField(model.vector_field)
        else:
            raise GeometryError(f"model {model.name} carries no soliton data")
        if model.lam is None:
            raise GeometryError(f"model {model.name} carries no lambda")
        return cls(chart=model.chart, field=fld, lam=model.lam,
                   k=model.k, l=model.l)


@dataclass
class ResidualReport:
    sup: float                      # sup_g-norm of the soliton residual
    mean: float
    lie_sup: float                  # sup_g-norm of L_X g
    psi_sup: float                  # sup |log sigma_k/sigma_l - lambda|
    lam_min: float
    lam_max: float
    classification: str
    trivial: bool
    probes_used: int
    cone_violations: list           # (probe, ConeConditionError) pairs

    def to_dict(self) -> dict:
        return {
            "sup": self.sup, "mean": self.mean, "lie_sup": self.lie_sup,
            "psi_sup": self.psi_sup, "lambda_min": self.lam_min,
            "lambda_max": self.lam_max, "classification": self.classification,
            "trivial": self.trivial, "probes": self.probes_used,
            "cone_violations": len(self.cone_violations),
        }


def _gnorm2(ginv: np.ndarray, t: np.ndarray) -> float:
    """Invariant squared norm of a (0,2) tensor."""
    return float(np.einsum("ik,jl,ij,kl->", ginv, ginv, t, t))


def _psi(spec: SolitonSpec, tc, x):
    """psi = log(sigma_k/sigma_l) - lambda as a jet at the probe x, and the
    value of lambda there."""
    logq = log_quotient_taylor(tc, spec.k, spec.l)
    lam = ex.eval_taylor(_as_expr(spec.lam), x, order=tc.order)
    return logq - lam, lam.value


def _point_data(spec: SolitonSpec, x):
    """Residual tensor, psi, lie tensor, lambda and g^{-1} at one probe, at
    order 2: the residual reads values of hess f, L_X g and psi only."""
    tc = curvature_taylor(spec.chart, x, order=2)
    psi, lam = _psi(spec, tc, x)
    if isinstance(spec.field, GradientPotential):
        ft = ex.eval_taylor(_as_expr(spec.field.f), x, order=tc.order)
        half_lie = values(tc.hessian_scalar(ft))
        lie = 2.0 * half_lie
    else:
        xv = np.array([ex.eval_taylor(_as_expr(c), x, order=tc.order)
                       for c in spec.field.components], dtype=object)
        lie = values(tc.lie_metric(xv))
        half_lie = 0.5 * lie
    residual = half_lie - psi.value * values(tc.g)
    return residual, psi, lie, lam, values(tc.ginv)


def soliton_residual(spec: SolitonSpec, probe_set=None, count: int = 40,
                     seed: int = 0, trivial_tol: float = TRIVIAL_TOL) -> ResidualReport:
    if probe_set is None:
        probe_set = probes.chart_probes(spec.chart, count, seed=seed)
    sup = mean = lie_sup = psi_sup = 0.0
    lam_min, lam_max = np.inf, -np.inf
    violations = []
    used = 0
    for x in probe_set:
        try:
            residual, psi_t, lie, lam, ginv = _point_data(spec, x)
        except ConeConditionError as err:
            violations.append((np.asarray(x), err))
            continue
        used += 1
        rnorm = np.sqrt(_gnorm2(ginv, residual))
        sup = max(sup, rnorm)
        mean += rnorm
        lie_sup = max(lie_sup, np.sqrt(_gnorm2(ginv, lie)))
        psi_sup = max(psi_sup, abs(psi_t.value))
        lam_min = min(lam_min, lam)
        lam_max = max(lam_max, lam)
    if used == 0:
        raise violations[0][1] if violations else ValueError("no probe points")
    mean /= used
    return ResidualReport(
        sup=sup, mean=mean, lie_sup=lie_sup, psi_sup=psi_sup,
        lam_min=lam_min, lam_max=lam_max,
        classification=_classify(lam_min, lam_max),
        trivial=bool(lie_sup < trivial_tol and psi_sup < trivial_tol),
        probes_used=used, cone_violations=violations,
    )


def _classify(lam_min: float, lam_max: float, zero_tol: float = 1e-8) -> str:
    if lam_max < -zero_tol:
        return "expanding"
    if lam_min > zero_tol:
        return "shrinking"
    if abs(lam_min) <= zero_tol and abs(lam_max) <= zero_tol:
        return "steady"
    return "indefinite"


def classify(spec: SolitonSpec, probe_set=None, count: int = 40, seed: int = 0) -> str:
    return soliton_residual(spec, probe_set, count=count, seed=seed).classification


@dataclass
class StructuralResiduals:
    trace_identity: float       # Delta f = n psi
    first_order: float          # (n-1) grad psi + Ric(grad f) = 0
    second_order: float         # (n-1) lap psi + <grad R, grad f>/2 + psi R = 0


def lemma_structural_check(spec: SolitonSpec, probe_set=None, count: int = 20,
                           seed: int = 0) -> StructuralResiduals:
    """Residuals of the three structural identities of a gradient quotient
    soliton, by pipeline re-differentiation (the second-order item consumes
    fourth-order Taylor data of the metric)."""
    if not isinstance(spec.field, GradientPotential):
        raise GeometryError("structural identities require a gradient soliton")
    if probe_set is None:
        probe_set = probes.chart_probes(spec.chart, count, seed=seed)
    res_a = res_b = res_c = 0.0
    for x in probe_set:
        tc = curvature_taylor(spec.chart, x, order=4)  # lap psi reads A to order 2
        n = tc.dim
        psi, _ = _psi(spec, tc, x)
        ft = ex.eval_taylor(_as_expr(spec.field.f), x, order=tc.order)
        ginv = values(tc.ginv)
        ric = values(tc.ricci)

        lap_f = tc.laplacian_scalar(ft).value
        res_a = max(res_a, abs(lap_f - n * psi.value))

        dpsi = np.array([psi.deriv(i).value for i in range(n)])
        df = np.array([ft.deriv(i).value for i in range(n)])
        item_b = (n - 1) * dpsi + ric @ (ginv @ df)
        res_b = max(res_b, float(np.sqrt(item_b @ ginv @ item_b)))

        lap_psi = tc.laplacian_scalar(psi).value
        dR = np.array([tc.scalar.deriv(i).value for i in range(n)])
        pairing = float(dR @ ginv @ df)
        res_c = max(res_c, abs((n - 1) * lap_psi + 0.5 * pairing
                               + psi.value * tc.scalar.value))
    return StructuralResiduals(res_a, res_b, res_c)


def obata_check(spec: SolitonSpec, probe_set=None, count: int = 20,
                seed: int = 0, r_tol: float = 1e-6) -> float:
    """Residual of the constant-scalar-curvature second-order identity
    hess psi = -(R / (n(n-1))) psi g, with psi = log sigma_k/sigma_l - lambda.

    Raises GeometryError when R is not constant over the probe set (the
    identity presupposes constant scalar curvature)."""
    if not isinstance(spec.field, GradientPotential):
        raise GeometryError("the second-order identity requires a gradient soliton")
    if probe_set is None:
        probe_set = probes.chart_probes(spec.chart, count, seed=seed)
    scalars = []
    data = []
    for x in probe_set:
        tc = curvature_taylor(spec.chart, x, order=4)  # hess psi reads A to order 2
        scalars.append(tc.scalar.value)
        data.append((x, tc))
    mean_r = float(np.mean(scalars))
    dev = max(abs(s - mean_r) for s in scalars)
    if dev > r_tol * (1.0 + abs(mean_r)):
        raise GeometryError(
            f"scalar curvature not constant on probes: deviation {dev:.3g} "
            f"about mean {mean_r:.6g}")
    worst = 0.0
    for x, tc in data:
        n = tc.dim
        psi, _ = _psi(spec, tc, x)
        hess = values(tc.hessian_scalar(psi))
        g = values(tc.g)
        ginv = values(tc.ginv)
        resid = hess + (mean_r / (n * (n - 1))) * psi.value * g
        worst = max(worst, float(np.sqrt(_gnorm2(ginv, resid))))
    return worst
