import numpy as np
import pytest

from oracles import differentiate
from sigmaflow import expr as ex
from sigmaflow import models, soliton
from sigmaflow.curvature import GeometryError, curvature_taylor, values
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import ConeConditionError
from sigmaflow.soliton import (SolitonSpec, lemma_structural_check, obata_check,
                               soliton_residual)


def spec_of(model):
    return SolitonSpec.from_model(model)


def test_sphere_soliton_machine_precision():
    rep = soliton_residual(spec_of(models.sphere(4)), count=25)
    assert rep.sup < 1e-12
    assert not rep.trivial          # the height potential has nonzero Hessian
    assert rep.classification == "indefinite"
    assert rep.cone_violations == []


def test_sphere_soliton_n3_and_n5():
    for n in (3, 5):
        rep = soliton_residual(spec_of(models.sphere(n)), count=15)
        assert rep.sup < 1e-11


def test_hyperbolic_soliton():
    rep = soliton_residual(spec_of(models.hyperbolic(4)), count=20)
    assert rep.sup < 1e-11
    assert not rep.trivial


def test_example4_trivial_expanding():
    rep = soliton_residual(spec_of(models.example4(4)), count=15)
    assert rep.sup < 1e-12
    assert rep.trivial
    assert rep.lie_sup < 1e-12
    assert rep.classification == "expanding"


def test_product_trivial_steady():
    rep = soliton_residual(spec_of(models.product_line_sphere(3)), count=10)
    assert rep.sup == 0.0
    assert rep.trivial
    assert rep.classification == "steady"


def test_wrong_lambda_is_rejected():
    model = models.sphere(4)
    broken = SolitonSpec(chart=model.chart,
                         potential=model.potential,
                         lam=ex.parse("0"), k=model.k, l=model.l)
    rep = soliton_residual(broken, count=10)
    assert rep.sup > 1e-2


def test_residual_scales_linearly_in_lambda_perturbation():
    model = models.sphere(4)
    sups = []
    for eps in (1e-3, 2e-3):
        lam = ex.parse(f"({ex.unparse(model.lam)}) + {eps}")
        spec = SolitonSpec(chart=model.chart,
                           potential=model.potential,
                           lam=lam, k=model.k, l=model.l)
        sups.append(soliton_residual(spec, count=10).sup)
    # residual = |psi - 0| * |g| pointwise, so doubling eps doubles sup
    assert sups[1] / sups[0] == pytest.approx(2.0, rel=1e-6)


def test_spec_checks_the_quotient_pair():
    model = models.sphere(3)
    for k, l in ((4, 1), (1, -1), (2.0, 1), (True, 1)):
        with pytest.raises(GeometryError, match="quotient index"):
            SolitonSpec(chart=model.chart, potential=model.potential,
                        lam=model.lam, k=k, l=l)


def test_gradient_and_explicit_vector_field_agree():
    # on a diagonal chart the gradient components are ginv_ii d_i f; feed
    # them back symbolically and compare the two soliton routes
    n = 3
    model = models.sphere(n)
    f = model.potential
    conf = f"(1 + x1^2 + x2^2 + x3^2)^2 / 4"  # inverse metric factor
    comps = [ex.parse(f"({conf}) * ({ex.unparse(differentiate(f, i + 1))})")
             for i in range(n)]
    grad_spec = SolitonSpec(chart=model.chart, potential=f,
                            lam=model.lam, k=model.k, l=model.l)
    vec_spec = SolitonSpec(chart=model.chart, vector_field=comps,
                           lam=model.lam, k=model.k, l=model.l)
    pts = chart_probes(model.chart, 8, seed=3)
    rg = soliton_residual(grad_spec, probe_set=pts)
    rv = soliton_residual(vec_spec, probe_set=pts)
    assert rg.sup < 1e-11
    assert rv.sup < 1e-11
    assert rv.lie_sup == pytest.approx(rg.lie_sup, rel=1e-9)


def test_lemma_structural_identities_sphere():
    res = lemma_structural_check(spec_of(models.sphere(4)), count=12)
    assert res.trace_identity < 1e-10
    assert res.first_order < 1e-10
    assert res.second_order < 1e-9


def test_lemma_structural_identities_hyperbolic():
    res = lemma_structural_check(spec_of(models.hyperbolic(4)), count=10)
    assert res.trace_identity < 1e-10
    assert res.first_order < 1e-10
    assert res.second_order < 1e-9


def test_lemma_requires_gradient():
    model = models.example4(4)
    with pytest.raises(GeometryError):
        lemma_structural_check(spec_of(model))


def test_obata_identity_sphere():
    assert obata_check(spec_of(models.sphere(4)), count=12) < 1e-9


def test_structural_checks_report_a_nan_residual(monkeypatch):
    spec = spec_of(models.sphere(4))
    monkeypatch.setattr(soliton, "values", lambda arr: values(arr) * np.nan)
    res = lemma_structural_check(spec, count=4)
    assert res.trace_identity < 1e-10  # Delta f and psi are read without values()
    assert np.isnan(res.first_order) and np.isnan(res.second_order)
    assert np.isnan(obata_check(spec, count=4))


def test_obata_rejects_nonconstant_scalar():
    # generic conformal factor: scalar curvature varies over the chart
    from sigmaflow.curvature import MetricChart
    rows = [[ex.parse("exp(2*x1*x2)" if i == j else "0") for j in range(3)]
            for i in range(3)]
    chart = MetricChart(dim=3, comps=rows, domain=((-0.5, 0.5),) * 3)
    spec = SolitonSpec(chart=chart, potential=ex.parse("x1"),
                       lam=ex.parse("0"), k=1, l=1)
    with pytest.raises(GeometryError):
        obata_check(spec)


def test_classification_shrinking_steady_expanding():
    # constant-lambda trivial solitons on Example 4 shift with lambda's sign
    model = models.example4(4)
    base = float(ex.eval_float(model.lam, [0.1] * 4))
    assert base < 0.0
    assert soliton_residual(spec_of(model), count=6).classification == "expanding"
    shrunk = SolitonSpec(chart=model.chart,
                         vector_field=model.vector_field,
                         lam=ex.parse(f"{-base}"), k=model.k, l=model.l)
    # lambda > 0 everywhere classifies as shrinking (equation no longer
    # holds; classification only reads the sign of lambda)
    assert soliton_residual(shrunk, count=6).classification == "shrinking"


def test_killing_field_keeps_example4_trivial():
    model = models.example4(4)
    x = [0.2, 0.1, -0.3, 0.4]
    tc = curvature_taylor(model.chart, x, order=2)
    xv = np.array([tc.jet(c) for c in model.vector_field], dtype=object)
    assert np.max(np.abs(values(tc.lie_metric(xv)))) < 1e-12


def test_every_probe_outside_cone_reports_its_sigmas():
    # hyperbolic 4-space: sigma_1 = -2 < 0 < sigma_2 = 3/2 at every probe
    chart = models.hyperbolic(4).chart
    spec = SolitonSpec(chart=chart, vector_field=[ex.parse("0")] * 4,
                       lam=ex.parse("0"), k=2, l=1)
    with pytest.raises(ConeConditionError) as err:
        soliton_residual(spec, count=5)
    assert err.value.sigma_k == pytest.approx(1.5, rel=1e-12)
    assert err.value.sigma_l == pytest.approx(-2.0, rel=1e-12)


def test_residual_at_order_2_matches_order_4(pipeline_orders):
    # the residual reads values of hess f, L_X g and psi, so verify runs its
    # pipelines at order 2 and reports what order 4 reports
    for model in (models.sphere(4), models.hyperbolic(4), models.example4(4)):
        pts = chart_probes(model.chart, 3, seed=1)
        rep, orders = pipeline_orders.declared(
            lambda: soliton_residual(spec_of(model), probe_set=pts))
        assert orders == {2}
        ref = pipeline_orders.at(4, lambda: soliton_residual(spec_of(model),
                                                             probe_set=pts))
        got, want = rep.to_dict(), ref.to_dict()
        assert got.keys() == want.keys()
        for key, v in want.items():
            if isinstance(v, (str, bool)):
                assert got[key] == v, key
            else:
                assert abs(got[key] - v) <= 1e-13 * max(1.0, abs(v)), key


def test_an_empty_probe_set_is_one_error_in_every_check():
    spec = spec_of(models.sphere(4))
    for check in (soliton_residual, lemma_structural_check, obata_check):
        for empty in ({"probe_set": np.zeros((0, 4))}, {"count": 0}):
            with pytest.raises(GeometryError, match="^no probe points$"):
                check(spec, **empty)


def test_checks_refuse_a_model_without_soliton_data():
    # a builtin without lambda or X is a SolitonSpec too, but no soliton
    for check in (soliton_residual, lemma_structural_check, obata_check):
        with pytest.raises(GeometryError, match="euclidean:3 carries no soliton data"):
            check(models.euclidean(3), count=3)
    sphere = models.sphere(3)
    assert SolitonSpec.from_model(sphere) is sphere
    unnamed = SolitonSpec(sphere.chart, potential=sphere.potential)
    with pytest.raises(GeometryError, match="^the spec carries no lambda$"):
        SolitonSpec.from_model(unnamed)
