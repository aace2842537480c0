"""Verification of quotient (almost) Yamabe soliton structures.

The defining residual is 1/2 L_X g - psi g, psi = log(sigma_k/sigma_l) -
lambda, with L_X g = 2 hess f for a gradient soliton; the structural
identities are those of ``StructuralResiduals`` and ``obata_check``.  Every
check reads the curvature pipeline's jets at a probe set, never finite
differences of its outputs; README explains how a probe set is batched and
how a check takes its worst value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import probes
from .curvature import GeometryError, MetricChart, _d, curvature_taylor, probe_batches, values
from .sigma import ConeConditionError, check_pair, cone_values, log_quotient, sigma_taylor, sigmas

TRIVIAL_TOL = 1e-7
ZERO_TOL = 1e-8     # |lambda| at or below it classifies as steady
R_TOL = 1e-6        # relative deviation of R that obata_check accepts


@dataclass
class SolitonSpec:
    """A metric chart with its quotient pair (k, l) and, for a soliton, the
    function lambda and the field X: the gradient of ``potential`` f when it
    is set (it wins over ``vector_field``), else ``vector_field``, the
    contravariant components of X.  ``name`` and the ``golden`` rows
    (quantity, expected, tol, note) label a builtin model."""
    chart: MetricChart
    lam: "ex.Expr | None" = None
    k: int = 1
    l: int = 1
    potential: "ex.Expr | None" = None
    vector_field: list | None = None
    name: str = ""
    golden: list = field(default_factory=list)

    def __post_init__(self):
        check_pair(self.chart.dim, self.k, self.l)

    @staticmethod
    def from_model(model: "SolitonSpec") -> "SolitonSpec":
        """``model`` itself, once it is known to carry soliton data."""
        who = f"model {model.name}" if model.name else "the spec"
        if model.potential is None and model.vector_field is None:
            raise GeometryError(f"{who} carries no soliton data")
        if model.lam is None:
            raise GeometryError(f"{who} carries no lambda")
        return model


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
    worst_probe: tuple              # (probe, |1/2 L_X g|_g, |psi|) at the first sup probe

    def to_dict(self) -> dict:
        return {
            "sup": self.sup, "mean": self.mean, "lie_sup": self.lie_sup,
            "psi_sup": self.psi_sup, "lambda_min": self.lam_min,
            "lambda_max": self.lam_max, "classification": self.classification,
            "trivial": self.trivial, "probes": self.probes_used,
            "cone_violations": len(self.cone_violations),
        }


def _gnorm2(ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Invariant squared norm of a (0,2) tensor, per probe of a batch."""
    return np.einsum("...ik,...jl,...ij,...kl->...", ginv, ginv, t, t)


def _batch_floats(spec: SolitonSpec, probe_set, count: int, seed: int, order: int,
                  read, requires: str | None = None) -> list:
    """The per-probe columns of ``read(spec, tc)``, each joined in probe order, for the
    pipeline ``tc`` at ``order`` of each batch of the probe set, no pipeline alive while
    the next is built; a check that needs a gradient soliton says so in ``requires``."""
    SolitonSpec.from_model(spec)  # a chart without lambda or X is no soliton
    if requires and spec.potential is None:
        raise GeometryError(f"{requires} a gradient soliton")
    pts = spec.chart.check_points(probes.chart_probes(spec.chart, count, seed=seed)
                                  if probe_set is None else probe_set)
    if pts.ndim != 2:
        raise GeometryError(f"a probe set has shape (P, {spec.chart.dim}), got shape {pts.shape}")
    if len(pts) == 0:
        raise GeometryError("no probe points")
    batches = [read(spec, curvature_taylor(spec.chart, x, order=order))
               for x in probe_batches(pts, order)]
    return [np.concatenate(col) for col in zip(*batches)]


def _psi(spec: SolitonSpec, tc):
    """psi = log(sigma_k/sigma_l) - lambda as a jet at the pipeline's probes."""
    return log_quotient(sigma_taylor(tc), spec.k, spec.l) - tc.jet(spec.lam)


def _point_data(spec: SolitonSpec, tc):
    """At each probe of the order-2 pipeline: the probe, sigma_k, sigma_l and
    whether sigma_k sigma_l > 0, and the g-norms of the residual and of L_X g,
    |psi| and lambda, which mean nothing where the cone condition fails.  The
    residual reads values of hess f, L_X g and psi only."""
    sig = [np.broadcast_to(s, len(tc.points))
           for s in sigmas(tc.endo if tc.endo is None else values(tc.endo))]
    vk, vl, ok = cone_values(sig, spec.k, spec.l)
    lam = ex.eval_float(ex.as_expr(spec.lam), tc.points.T)
    psi = log_quotient([np.where(ok, s, 1.0) for s in sig], spec.k, spec.l) - lam
    if spec.potential is not None:
        lie = 2.0 * values(tc.hessian_scalar(tc.jet(spec.potential)))
    else:
        xv = np.array([tc.jet(c) for c in spec.vector_field], dtype=object)
        lie = values(tc.lie_metric(xv))
    residual = 0.5 * lie - psi[:, None, None] * values(tc.g)
    ginv = values(tc.ginv)
    return (tc.points, vk, vl, ok, np.sqrt(_gnorm2(ginv, residual)),
            np.sqrt(_gnorm2(ginv, lie)), np.abs(psi), lam)


def soliton_residual(spec: SolitonSpec, probe_set=None, count: int = 40,
                     trivial_tol: float = TRIVIAL_TOL) -> ResidualReport:
    """The residual of ``spec`` at ``probe_set``, else at ``count`` probes of its
    chart, over the probes where sigma_k sigma_l > 0 (ConeConditionError if none)."""
    pts, vk, vl, ok, *cols = _batch_floats(spec, probe_set, count, 0, 2, _point_data)
    violations = [(pts[i], ConeConditionError(spec.k, spec.l, float(vk[i]), float(vl[i])))
                  for i in np.flatnonzero(~ok)]
    if not ok.any():
        raise violations[0][1]
    rnorm, lie_norm, psi, lam, kept = (c[ok] for c in (*cols, pts))
    w = int(np.argmax(rnorm))  # the first in probe order, however the batches split
    lam_min, lam_max = float(lam.min()), float(lam.max())
    lie_sup, psi_sup = float(lie_norm.max()), float(psi.max())
    return ResidualReport(
        sup=float(rnorm.max()), mean=float(rnorm.mean()), lie_sup=lie_sup,
        psi_sup=psi_sup, lam_min=lam_min, lam_max=lam_max,
        classification=_classify(lam_min, lam_max),
        trivial=bool(lie_sup < trivial_tol and psi_sup < trivial_tol),
        probes_used=int(rnorm.size), cone_violations=violations,
        worst_probe=(kept[w], 0.5 * float(lie_norm[w]), float(psi[w])),
    )


def _classify(lam_min: float, lam_max: float) -> str:
    if lam_max < -ZERO_TOL:
        return "expanding"
    if lam_min > ZERO_TOL:
        return "shrinking"
    if abs(lam_min) <= ZERO_TOL and abs(lam_max) <= ZERO_TOL:
        return "steady"
    return "indefinite"


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
    cols = _batch_floats(spec, probe_set, count, seed, 4,  # lap psi reads A to order 2
                         _lemma_floats, "structural identities require")
    return StructuralResiduals(*(float(np.max(col)) for col in cols))


def _lemma_floats(spec: SolitonSpec, tc):
    """The residual of each structural identity at each probe of the pipeline."""
    n = tc.dim
    psi = _psi(spec, tc)
    ft = tc.jet(spec.potential)
    ginv = values(tc.ginv)
    ric = values(tc.ricci)

    lap_f = tc.laplacian_scalar(ft).value
    res_a = np.abs(lap_f - n * psi.value)

    dpsi, df = values(_d(psi)), values(_d(ft))
    item_b = (n - 1) * dpsi + (ric @ (ginv @ df[..., None]))[..., 0]
    res_b = np.sqrt(np.einsum("...i,...ij,...j->...", item_b, ginv, item_b))

    lap_psi = tc.laplacian_scalar(psi).value
    pairing = np.einsum("...i,...ij,...j->...", values(_d(tc.scalar)), ginv, df)
    res_c = np.abs((n - 1) * lap_psi + 0.5 * pairing + psi.value * tc.scalar.value)
    return res_a, res_b, res_c


def obata_check(spec: SolitonSpec, probe_set=None, count: int = 20,
                seed: int = 0) -> float:
    """Residual of the constant-scalar-curvature second-order identity
    hess psi = -(R / (n(n-1))) psi g, with psi = log sigma_k/sigma_l - lambda;
    GeometryError when R deviates from its mean over the probe set by more
    than R_TOL (1 + |mean|), since the identity presupposes R constant."""
    scalars, psi, hess, g, ginv = _batch_floats(
        spec, probe_set, count, seed, 4,  # hess psi reads A to order 2
        _obata_floats, "the second-order identity requires")
    mean_r = float(np.mean(scalars))
    dev = float(np.max(np.abs(scalars - mean_r)))
    if dev > R_TOL * (1.0 + abs(mean_r)):
        raise GeometryError(
            f"scalar curvature not constant on probes: deviation {dev:.3g} "
            f"about mean {mean_r:.6g}")
    n = spec.chart.dim
    resid = hess + (mean_r / (n * (n - 1))) * psi[:, None, None] * g
    return float(np.max(np.sqrt(_gnorm2(ginv, resid))))


def _obata_floats(spec: SolitonSpec, tc):
    """What obata_check reads of a pipeline: R, psi, hess psi, g and g^-1."""
    psi = _psi(spec, tc)
    return tc.scalar.value, psi.value, *map(values, (tc.hessian_scalar(psi), tc.g, tc.ginv))
