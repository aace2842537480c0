"""One curvature pipeline per probe set: a (P, n) batch of probes gives, probe
by probe, what the single-point pipeline gives, and the soliton checks that
run whole probe sets through it report what a per-probe loop reports."""

import numpy as np
import pytest

from sigmaflow import cli, curvature, models, sigma
from sigmaflow import expr as ex
from sigmaflow.curvature import (GeometryError, MetricChart, curvature_taylor,
                                 probe_batches, values)
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import ConeConditionError, log_quotient_taylor
from sigmaflow.soliton import (SolitonSpec, lemma_structural_check, obata_check,
                               soliton_residual)

BUILTINS = ("euclidean:3", "sphere:4", "hyperbolic:4", "example4:4", "example4:5",
            "product_line_sphere:3", "warped:sinh:sphere:5")
FIELDS = ("g", "ginv", "christoffel", "riemann", "ricci", "scalar", "schouten", "endo",
          "cotton")
TOL = 1e-14


def linear_sphere_chart(n: int = 4, seed: int = 2) -> MetricChart:
    """The round sphere's stereographic metric 4 (1+|y|^2)^-2 dy^2 seen
    through y = A x with a dense A: g = 4 (1+|Ax|^2)^-2 A^T A."""
    a = np.eye(n) + 0.3 * np.random.default_rng(seed).standard_normal((n, n))
    b = a.T @ a
    lin = ["+".join(f"{float(a[i, j])!r}*x{j + 1}" for j in range(n)) for i in range(n)]
    q = "+".join(f"({s})^2" for s in lin)
    comps = [[f"{float(b[i, j])!r}*4/(1+{q})^2" for j in range(n)] for i in range(n)]
    return MetricChart(n, comps, [(-0.3, 0.3)] * n)


def charts():
    for name in BUILTINS:
        yield name, models.builtin(name).chart
    yield "linear sphere:4", linear_sphere_chart()


def assert_jets_agree(batch, single, p, what):
    """Every trusted coefficient of probe p of ``batch`` equals ``single``'s."""
    keep = single.ctx.degree <= single.trusted
    assert batch.trusted == single.trusted, what
    got = (batch.c[p] if batch.c.ndim == 2 else batch.c)[keep]  # constants broadcast
    want = single.c[keep]
    assert np.all(np.abs(got - want) <= TOL * np.maximum(1.0, np.abs(want))), what


def test_batched_pipeline_equals_single_point_pipeline():
    for name, chart in charts():
        pts = chart_probes(chart, 3, seed=4)
        for order in (3, 4) if chart.dim <= 4 else (3,):
            batch = curvature_taylor(chart, pts, order=order)
            singles = [curvature_taylor(chart, x, order=order) for x in pts]
            for field in FIELDS:
                arr_b = np.asarray(getattr(batch, field), dtype=object)
                arr_s = [np.asarray(getattr(s, field), dtype=object) for s in singles]
                for p, arr in enumerate(arr_s):
                    for idx in np.ndindex(arr.shape):
                        assert_jets_agree(arr_b[idx], arr[idx], p, (name, order, field, idx))
                assert np.array_equal(values(arr_b), np.stack([values(a) for a in arr_s]))


def test_linear_chart_is_a_round_sphere():
    chart = linear_sphere_chart()
    tc = curvature_taylor(chart, chart_probes(chart, 4, seed=1), order=2)
    assert np.allclose(tc.scalar.value, 12.0, rtol=1e-12)


def test_batch_checks_name_the_first_failing_probe():
    chart = models.sphere(3).chart
    pts = np.array([[0.1, 0.2, 0.3], [5.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"point \[5\. 0\. 0\.\] outside"):
        curvature_taylor(chart, pts, order=2)
    # positive definite only for x1 < 1
    indefinite = MetricChart(3, [["1", "0", "0"], ["0", "1 - x1", "0"], ["0", "0", "1"]],
                             [(-2, 2)] * 3, validate=False)
    pts = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [1.8, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"not positive definite at \[1\.5 0\.  0\. \]"):
        curvature_taylor(indefinite, pts, order=2)
    logged = MetricChart(3, [["1", "0", "0"], ["0", "1 + log(1 - x1)", "0"],
                             ["0", "0", "1"]], [(-2, 2)] * 3, validate=False)
    with pytest.raises(GeometryError, match=r"\(1,1\) at \[1\.5 0\.  0\. \]") as err:
        curvature_taylor(logged, pts, order=2)
    assert err.value.__cause__.probe == 1


# -- per-probe references, written as loops over single-point pipelines --


def reference_residual(spec, pts):
    rnorm, lie_norm, psi_abs, lams, violations = [], [], [], [], []
    for x in pts:
        tc = curvature_taylor(spec.chart, x, order=2)
        try:
            logq = log_quotient_taylor(tc, spec.k, spec.l)
        except ConeConditionError as err:
            violations.append((x, err))
            continue
        lam = ex.eval_taylor(spec.lam, x, order=2)
        psi = logq - lam
        if spec.potential is not None:
            lie = 2.0 * values(tc.hessian_scalar(ex.eval_taylor(spec.potential, x, order=2)))
        else:
            xv = np.array([ex.eval_taylor(c, x, order=2) for c in spec.vector_field],
                          dtype=object)
            lie = values(tc.lie_metric(xv))
        ginv = values(tc.ginv)
        residual = 0.5 * lie - psi.value * values(tc.g)
        rnorm.append(np.sqrt(np.einsum("ik,jl,ij,kl->", ginv, ginv, residual, residual)))
        lie_norm.append(np.sqrt(np.einsum("ik,jl,ij,kl->", ginv, ginv, lie, lie)))
        psi_abs.append(abs(psi.value))
        lams.append(lam.value)
    return dict(sup=max(rnorm), mean=sum(rnorm) / len(rnorm), lie_sup=max(lie_norm),
                psi_sup=max(psi_abs), lambda_min=min(lams), lambda_max=max(lams),
                probes=len(rnorm), cone_violations=len(violations)), violations


def reference_lemma(spec, pts):
    res = [0.0, 0.0, 0.0]
    for x in pts:
        tc = curvature_taylor(spec.chart, x, order=4)
        n = tc.dim
        psi = log_quotient_taylor(tc, spec.k, spec.l) - ex.eval_taylor(spec.lam, x)
        ft = ex.eval_taylor(spec.potential, x)
        ginv, ric = values(tc.ginv), values(tc.ricci)
        df = np.array([ft.deriv(i).value for i in range(n)])
        dpsi = np.array([psi.deriv(i).value for i in range(n)])
        dr = np.array([tc.scalar.deriv(i).value for i in range(n)])
        item_b = (n - 1) * dpsi + ric @ (ginv @ df)
        res[0] = max(res[0], abs(tc.laplacian_scalar(ft).value - n * psi.value))
        res[1] = max(res[1], float(np.sqrt(item_b @ ginv @ item_b)))
        res[2] = max(res[2], abs((n - 1) * tc.laplacian_scalar(psi).value
                                 + 0.5 * float(dr @ ginv @ df) + psi.value * tc.scalar.value))
    return res


def reference_obata(spec, pts):
    tcs = [curvature_taylor(spec.chart, x, order=4) for x in pts]
    mean_r = float(np.mean([tc.scalar.value for tc in tcs]))
    worst = 0.0
    for x, tc in zip(pts, tcs):
        n = tc.dim
        psi = log_quotient_taylor(tc, spec.k, spec.l) - ex.eval_taylor(spec.lam, x)
        ginv = values(tc.ginv)
        resid = values(tc.hessian_scalar(psi)) + (mean_r / (n * (n - 1))) * psi.value \
            * values(tc.g)
        worst = max(worst, float(np.sqrt(np.einsum("ik,jl,ij,kl->", ginv, ginv,
                                                   resid, resid))))
    return worst


def close(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


def cone_chart_spec():
    # dx1^2 + cos(x1)^2 (dx2^2 + dx3^2): sigma_1 changes sign inside the box
    return cli.spec_from_document({
        "dim": 3,
        "metric": [["1", "0", "0"], ["0", "cos(x1)^2", "0"], ["0", "0", "cos(x1)^2"]],
        "domain": [[-1.55, 1.55], [-1, 1], [-1, 1]],
        "k": 1, "l": 0,
    })


def residual_cases():
    for name in ("sphere:3", "sphere:5", "hyperbolic:4", "example4:4", "example4:5",
                 "product_line_sphere:3"):
        spec = SolitonSpec.from_model(models.builtin(name))
        yield name, spec, chart_probes(spec.chart, 6, seed=3)
    spec = cone_chart_spec()
    yield "cone chart", spec, chart_probes(spec.chart, 10, seed=0)


def test_soliton_residual_matches_a_per_probe_loop():
    for name, spec, pts in residual_cases():
        rep = soliton_residual(spec, probe_set=pts)
        want, violations = reference_residual(spec, pts)
        got = rep.to_dict()
        for key, v in want.items():
            assert close(got[key], v), (name, key, got[key], v)
        assert len(rep.cone_violations) == len(violations)
        for (xa, ea), (xb, eb) in zip(rep.cone_violations, violations):
            assert np.array_equal(xa, xb), name
            assert close(ea.sigma_k, eb.sigma_k) and close(ea.sigma_l, eb.sigma_l), name
    assert got["cone_violations"] == 2  # as `verify --probes 10` reports


def test_structural_checks_match_a_per_probe_loop():
    for name in ("sphere:4", "hyperbolic:4", "sphere:3"):
        spec = SolitonSpec.from_model(models.builtin(name))
        pts = chart_probes(spec.chart, 5, seed=2)
        got = vars(lemma_structural_check(spec, probe_set=pts)).values()
        for g, w in zip(got, reference_lemma(spec, pts)):
            assert close(g, w), (name, g, w)
    for name in ("sphere:4", "sphere:5"):
        spec = SolitonSpec.from_model(models.builtin(name))
        pts = chart_probes(spec.chart, 5, seed=2)
        assert close(obata_check(spec, probe_set=pts), reference_obata(spec, pts)), name


def test_split_batches_report_what_one_batch_reports(monkeypatch):
    spec = cone_chart_spec()
    pts = chart_probes(spec.chart, 10, seed=0)
    whole = soliton_residual(spec, probe_set=pts)
    monkeypatch.setattr(curvature, "BATCH_BYTES", 1)  # one probe per batch
    assert len(probe_batches(pts, 2)) == 10
    split = soliton_residual(spec, probe_set=pts)
    assert split.to_dict() == whole.to_dict()
    assert [x.tolist() for x, _ in split.cone_violations] == \
        [x.tolist() for x, _ in whole.cone_violations]


def test_benchmark_probe_sets_fit_one_batch():
    for dim, order, count in ((3, 2, 16), (4, 2, 16), (5, 2, 16), (4, 4, 12)):
        assert len(probe_batches(np.zeros((count, dim)), order)) == 1


def test_one_pipeline_per_probe_set(pipeline_orders):
    # batching must not quietly fall back to one pipeline per probe
    sphere = SolitonSpec.from_model(models.sphere(4))
    pts = chart_probes(sphere.chart, 12, seed=5)
    calls = [lambda: soliton_residual(sphere, probe_set=pts),
             lambda: soliton_residual(sphere, count=16),
             lambda: lemma_structural_check(sphere, probe_set=pts),
             lambda: obata_check(sphere, probe_set=pts),
             lambda: soliton_residual(cone_chart_spec(), count=10)]
    for fn in calls:
        pipeline_orders.declared(fn)
        assert len(pipeline_orders.requested) == 1


def test_single_point_entry_points_refuse_a_batch():
    # curvature_at, the conformal laws and divergence_newton report at one
    # point; a (P, n) batch is a GeometryError, never a numpy or tensor error
    chart = models.sphere(4).chart
    pts = chart_probes(chart, 2, seed=1)
    calls = [lambda: curvature.curvature_at(chart, pts),
             lambda: sigma.conformal_schouten(chart, pts, "exp(0.1*x1)"),
             lambda: sigma.conformal_ricci(chart, pts, "exp(0.1*x1)"),
             lambda: sigma.divergence_newton(chart, pts, 1)]
    for fn in calls:
        with pytest.raises(GeometryError, match=r"one point of shape \(4,\), got shape \(2, 4\)"):
            fn()
    # the float sigma reports read the record of one point
    batch = curvature.curvature_taylor(chart, pts, order=2)
    for fn in (lambda: sigma.sigma_profile(batch, 2, 1), lambda: sigma.newton_tensor(batch, 1)):
        with pytest.raises(GeometryError, match="takes the record of one point, got 2 probes"):
            fn()
    # covariant_ops takes a batch
    ops = curvature.covariant_ops(chart, pts, f="x1")
    assert ops.hessian.shape == (2, 4, 4)
