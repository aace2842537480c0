"""Verification of quotient (almost) Yamabe soliton structures.

The defining residual is 1/2 L_X g - (log sigma_k/sigma_l - lambda) g,
evaluated pointwise over a deterministic probe set; gradient solitons use
the Hessian form.  The structural identities (trace, first-order, and
second-order with the scalar-curvature coupling) and the constant-scalar
second-order identity are checked by re-running the curvature pipeline on
Taylor data, never by finite-differencing outputs.  ``SolitonSpec`` is the
one record of a chart with its soliton data, a builtin model's included;
it says when f wins over X.

The three checks share one probe loop (``_batch_floats``): the chart checks
the (P, n) probe set, which runs as one batched pipeline (``curvature_taylor``
at every probe at once), split only where ``curvature.probe_batches`` finds
that its jets would exceed ``curvature.BATCH_BYTES``, and each pipeline is
mapped at once to the floats its check reads.  f, X and lambda are read as
jets of the pipeline (``TaylorCurvature.jet``).  The residual reads values
only, so it takes sigma and psi in floats from ``values(tc.endo)``, the
value parts of the jets that the structural checks differentiate.
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
    """``read(spec, tc)``, the floats a check reads, for the pipeline ``tc`` at
    ``order`` of each batch of the probe set, in order, no pipeline alive while
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
    return [read(spec, curvature_taylor(spec.chart, x, order=order))
            for x in probe_batches(pts, order)]


def _psi(spec: SolitonSpec, tc):
    """psi = log(sigma_k/sigma_l) - lambda as a jet at the pipeline's probes."""
    return log_quotient(sigma_taylor(tc), spec.k, spec.l) - tc.jet(spec.lam)


def _point_data(spec: SolitonSpec, tc):
    """The cone violations of the order-2 pipeline's probes as (probe, error)
    pairs and, at its admissible probes, the g-norms of the residual and of
    L_X g, |psi|, lambda and the probes themselves: the residual reads values
    of hess f, L_X g and psi only."""
    sig = [np.broadcast_to(s, len(tc.points))
           for s in sigmas(tc.endo if tc.endo is None else values(tc.endo))]
    vk, vl, ok = cone_values(sig, spec.k, spec.l)
    violations = [(tc.points[i], ConeConditionError(spec.k, spec.l, float(vk[i]), float(vl[i])))
                  for i in np.flatnonzero(~ok)]
    keep = np.flatnonzero(ok)
    # lambda as a jet's value: a float evaluation rounds a/b apart from a * recip(b)
    lam = np.broadcast_to(tc.jet(spec.lam).value, len(tc.points))[keep]
    psi = log_quotient([s[keep] for s in sig], spec.k, spec.l) - lam
    if spec.potential is not None:
        lie = 2.0 * values(tc.hessian_scalar(tc.jet(spec.potential)))[keep]
    else:
        xv = np.array([tc.jet(c) for c in spec.vector_field], dtype=object)
        lie = values(tc.lie_metric(xv))[keep]
    residual = 0.5 * lie - psi[:, None, None] * values(tc.g)[keep]
    ginv = values(tc.ginv)[keep]
    return (violations, np.sqrt(_gnorm2(ginv, residual)), np.sqrt(_gnorm2(ginv, lie)),
            np.abs(psi), lam, tc.points[keep])


def soliton_residual(spec: SolitonSpec, probe_set=None, count: int = 40,
                     trivial_tol: float = TRIVIAL_TOL) -> ResidualReport:
    batches = _batch_floats(spec, probe_set, count, 0, 2, _point_data)
    violations = [v for batch in batches for v in batch[0]]
    rnorm, lie_norm, psi, lam, kept = (np.concatenate([b[i] for b in batches])
                                       for i in range(1, 6))
    if rnorm.size == 0:
        raise violations[0][1]
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
    batches = _batch_floats(spec, probe_set, count, seed, 4,  # lap psi reads A to order 2
                            _lemma_floats, "structural identities require")
    return StructuralResiduals(*(max(0.0, *col) for col in zip(*batches)))


def _lemma_floats(spec: SolitonSpec, tc):
    """The largest residual of each structural identity at the pipeline's
    probes."""
    n = tc.dim
    psi = _psi(spec, tc)
    ft = tc.jet(spec.potential)
    ginv = values(tc.ginv)
    ric = values(tc.ricci)

    lap_f = tc.laplacian_scalar(ft).value
    res_a = float(np.max(np.abs(lap_f - n * psi.value)))

    dpsi, df = values(_d(psi)), values(_d(ft))
    item_b = (n - 1) * dpsi + (ric @ (ginv @ df[..., None]))[..., 0]
    norm_b = np.sqrt(np.einsum("...i,...ij,...j->...", item_b, ginv, item_b))
    res_b = float(np.max(norm_b))

    lap_psi = tc.laplacian_scalar(psi).value
    pairing = np.einsum("...i,...ij,...j->...", values(_d(tc.scalar)), ginv, df)
    res_c = float(np.max(np.abs(
        (n - 1) * lap_psi + 0.5 * pairing + psi.value * tc.scalar.value)))
    return res_a, res_b, res_c


def obata_check(spec: SolitonSpec, probe_set=None, count: int = 20,
                seed: int = 0) -> float:
    """Residual of the constant-scalar-curvature second-order identity
    hess psi = -(R / (n(n-1))) psi g, with psi = log sigma_k/sigma_l - lambda.

    Raises GeometryError when R deviates from its mean over the probe set by
    more than R_TOL (1 + |mean|): the identity presupposes constant scalar
    curvature."""
    data = _batch_floats(spec, probe_set, count, seed, 4,  # hess psi reads A to order 2
                         _obata_floats, "the second-order identity requires")
    scalars = np.concatenate([d[0] for d in data])
    mean_r = float(np.mean(scalars))
    dev = float(np.max(np.abs(scalars - mean_r)))
    if dev > R_TOL * (1.0 + abs(mean_r)):
        raise GeometryError(
            f"scalar curvature not constant on probes: deviation {dev:.3g} "
            f"about mean {mean_r:.6g}")
    n = spec.chart.dim
    worst = 0.0
    for _, psi, hess, g, ginv in data:
        resid = hess + (mean_r / (n * (n - 1))) * psi[:, None, None] * g
        worst = max(worst, float(np.max(np.sqrt(_gnorm2(ginv, resid)))))
    return worst


def _obata_floats(spec: SolitonSpec, tc):
    """What obata_check reads of a pipeline: R, psi, hess psi, g and g^-1."""
    psi = _psi(spec, tc)
    return tc.scalar.value, psi.value, *map(values, (tc.hessian_scalar(psi), tc.g, tc.ginv))
