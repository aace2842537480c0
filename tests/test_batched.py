"""One curvature pipeline per probe set: a (P, n) batch of probes gives, probe
by probe, what the single-point pipeline gives, and the soliton checks that
run whole probe sets through it report what a per-probe loop reports."""

import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sigmaflow import cli, curvature, models, sigma, soliton, taylor
from sigmaflow import expr as ex
from sigmaflow.curvature import (GeometryError, MetricChart, curvature_taylor,
                                 probe_batches, values)
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import ConeConditionError, log_quotient, sigma_taylor
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
        for order in (2, 3, 4) if chart.dim <= 4 else (2, 3):
            batch = curvature_taylor(chart, pts, order=order)
            singles = [curvature_taylor(chart, x, order=order) for x in pts]
            for field in FIELDS:
                if getattr(batch, field) is None:  # cotton below order 3
                    assert all(getattr(s, field) is None for s in singles), (name, field)
                    continue
                arr_b = np.asarray(getattr(batch, field), dtype=object)
                arr_s = [np.asarray(getattr(s, field), dtype=object) for s in singles]
                for p, arr in enumerate(arr_s):
                    for idx in np.ndindex(arr.shape):
                        assert_jets_agree(arr_b[idx], arr[idx], p, (name, order, field, idx))
                assert np.array_equal(values(arr_b), np.stack([values(a) for a in arr_s]))


BLOCK = ("riemann", "ricci", "scalar", "schouten", "endo")


def test_value_block_at_order_2_is_the_jet_block_value_part():
    """At order 2 the Riemann -> g^-1 A block is trusted to values only and
    runs on value parts; it gives the value parts of the order-3 pipeline,
    equal with ==, so a zero may differ in sign (the rule that makes a float
    sigma its jet's value part), and every jet is trusted one order below
    its order-3 twin: p - 2, and p for the constant zeros R_ijkk."""
    for name in BUILTINS:
        chart = models.builtin(name).chart
        pts = chart_probes(chart, 16, seed=7)
        for x in (pts[0], pts, pts[:0]):
            low, high = (curvature_taylor(chart, x, order=p) for p in (2, 3))
            for field in BLOCK:
                a, b = (np.asarray(getattr(tc, field), dtype=object) for tc in (low, high))
                what = (name, x.shape, field)
                assert np.array_equal(values(a), values(b)), what
                assert all(s.trusted == t.trusted - 1
                           for s, t in zip(a.flat, b.flat, strict=True)), what


def test_prefix_block_at_order_3_is_the_jet_block_to_degree_1():
    """At order 3 the Riemann -> g^-1 A block runs on coefficient arrays of
    degree <= 1, at order 4 on jets; its degree-<= 1 coefficients are == the
    order-4 jets' (a zero may differ in sign), and every jet is trusted one
    order below its order-4 twin: p - 2, and p for the constant zeros R_ijkk."""
    for name in BUILTINS:
        chart = models.builtin(name).chart
        k = 1 + chart.dim  # the coefficients of degree <= 1
        pts = chart_probes(chart, 16, seed=7)
        for x in (pts[0], pts, pts[:0]):
            low, high = (curvature_taylor(chart, x, order=p) for p in (3, 4))
            for field in BLOCK:
                a, b = (np.asarray(getattr(tc, field), dtype=object) for tc in (low, high))
                for idx, s in np.ndenumerate(a):
                    t, what = b[idx], (name, x.shape, field, idx)
                    assert s.trusted == t.trusted - 1, what
                    assert np.array_equal(s.c[..., :k], t.c[..., :k]), what


def test_linear_chart_is_a_round_sphere():
    chart = linear_sphere_chart()
    tc = curvature_taylor(chart, chart_probes(chart, 4, seed=1), order=2)
    assert np.allclose(tc.scalar.value, 12.0, rtol=1e-12)


def test_float_sigmas_of_a_stack_are_the_sigma_jets_value_parts():
    # verify takes sigma_0..sigma_n of the (P, n, n) stack values(tc.endo) in
    # floats; probe by probe they equal the value parts of the sigma jets
    for name, chart in charts():
        tc = curvature_taylor(chart, chart_probes(chart, 5, seed=6), order=2)
        got = sigma.sigmas(values(tc.endo))
        for k, (g, s) in enumerate(zip(got, sigma.sigma_taylor(tc), strict=True)):
            want = np.broadcast_to(s.value, np.shape(g))
            assert np.array_equal(g, want), (name, k, g, want)


def test_batch_checks_name_the_first_failing_probe():
    chart = models.sphere(3).chart
    pts = np.array([[0.1, 0.2, 0.3], [5.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"outside chart domain at \[5\.0, 0\.0, 0\.0\]"):
        curvature_taylor(chart, pts, order=2)
    # positive definite only for x1 < 1, which holds on the chart's coarse
    # check grid x1 = -28.4, -14, 0.4 but not at the probes beyond x1 = 1
    box = [(-30, 2), (-2, 2), (-2, 2)]
    indefinite = MetricChart(3, [["1", "0", "0"], ["0", "1 - x1", "0"], ["0", "0", "1"]], box)
    pts = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [1.8, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"not positive definite at \[1\.5, 0\.0, 0\.0\]"):
        curvature_taylor(indefinite, pts, order=2)
    logged = MetricChart(3, [["1", "0", "0"], ["0", "1 + log(1 - x1)", "0"],
                             ["0", "0", "1"]], box)
    with pytest.raises(GeometryError) as err:
        curvature_taylor(logged, pts, order=2)
    assert str(err.value) == ("metric component (1,1): log(1 - x1): "
                              "log of non-positive value -0.5 at [1.5, 0.0, 0.0]")
    assert err.value.__cause__.probe == 1


# -- per-probe references, written as loops over single-point pipelines --


def reference_residual(spec, pts):
    rnorm, lie_norm, psi_abs, lams, violations = [], [], [], [], []
    for x in pts:
        tc = curvature_taylor(spec.chart, x, order=2)
        try:
            logq = log_quotient(sigma_taylor(tc), spec.k, spec.l)
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
        psi = log_quotient(sigma_taylor(tc), spec.k, spec.l) - ex.eval_taylor(spec.lam, x)
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
        psi = log_quotient(sigma_taylor(tc), spec.k, spec.l) - ex.eval_taylor(spec.lam, x)
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


def test_worst_probe_matches_a_per_probe_loop(monkeypatch):
    # the residual's worst probe, the first in probe order, and its parts
    # |1/2 L_X g|_g and |psi|, as a loop over single-point pipelines gives
    # them; split batches name the same probe with the same parts
    cases, worst = list(residual_cases()), []
    name, spec, pts = cases[-1]
    cases.append(("cone chart reversed", spec, pts[::-1]))  # its worst probe comes last
    for name, spec, pts in cases:
        rows = []  # (probe index, residual, |1/2 L_X g|_g, |psi|) at admissible probes
        for q, x in enumerate(pts):
            tc = curvature_taylor(spec.chart, x, order=2)
            try:
                logq = log_quotient(sigma_taylor(tc), spec.k, spec.l)
            except ConeConditionError:
                continue
            psi = logq.value - ex.eval_taylor(spec.lam, x, order=2).value
            if spec.potential is not None:
                hess = values(tc.hessian_scalar(ex.eval_taylor(spec.potential, x, order=2)))
            else:
                xv = np.array([ex.eval_taylor(c, x, order=2) for c in spec.vector_field],
                              dtype=object)
                hess = 0.5 * values(tc.lie_metric(xv))
            ginv, g = values(tc.ginv), values(tc.g)
            norm = [np.sqrt(np.einsum("ik,jl,ij,kl->", ginv, ginv, t, t))
                    for t in (hess - psi * g, hess)]
            rows.append((q, *norm, abs(psi)))
        rep = soliton_residual(spec, probe_set=pts)
        worst.append(rep.worst_probe)
        point, half_lie, psi = rep.worst_probe
        (q,) = [q for q in range(len(pts)) if np.array_equal(pts[q], point)]
        want = dict((r[0], r[1:]) for r in rows)[q]
        assert close(rep.sup, want[0]) and close(max(r[1] for r in rows), want[0]), name
        assert close(half_lie, want[1]) and close(psi, want[2]), name
        if rep.sup > 1e-6:  # a residual above rounding noise has one worst probe
            assert q == max(rows, key=lambda r: r[1])[0], name
    assert q == len(pts) - 1 and rep.sup > 1e-6 and rep.cone_violations
    monkeypatch.setattr(curvature, "BATCH_BYTES", 1)  # one probe per batch
    for (name, spec, pts), (point, *parts) in zip(cases, worst):
        split = soliton_residual(spec, probe_set=pts).worst_probe
        assert np.array_equal(split[0], point) and list(split[1:]) == parts, name


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


def test_obata_check_keeps_floats_not_pipelines(monkeypatch):
    # with one probe per batch, no earlier batch's record is alive when the
    # next is built, and the split probe set reports what one batch reports
    spec = SolitonSpec.from_model(models.sphere(4))
    pts = chart_probes(spec.chart, 4, seed=2)
    whole = obata_check(spec, probe_set=pts)
    records, build = [], soliton.curvature_taylor

    def tracked(chart, x, order):
        assert all(r() is None for r in records), "an earlier pipeline is alive"
        tc = build(chart, x, order=order)
        records.append(weakref.ref(tc))
        return tc

    monkeypatch.setattr(soliton, "curvature_taylor", tracked)
    monkeypatch.setattr(curvature, "BATCH_BYTES", 1)
    assert obata_check(spec, probe_set=pts) == whole
    assert len(records) == len(pts)


def test_lemma_check_keeps_floats_not_pipelines(monkeypatch):
    # as for obata_check: one probe per batch, no earlier record alive when
    # the next is built, and the residuals of one batch
    spec = SolitonSpec.from_model(models.sphere(4))
    pts = chart_probes(spec.chart, 4, seed=2)
    whole = lemma_structural_check(spec, probe_set=pts)
    records, build = [], soliton.curvature_taylor

    def tracked(chart, x, order):
        assert all(r() is None for r in records), "an earlier pipeline is alive"
        tc = build(chart, x, order=order)
        records.append(weakref.ref(tc))
        return tc

    monkeypatch.setattr(soliton, "curvature_taylor", tracked)
    monkeypatch.setattr(curvature, "BATCH_BYTES", 1)
    assert lemma_structural_check(spec, probe_set=pts) == whole
    assert len(records) == len(pts)


def test_benchmark_probe_sets_fit_one_batch():
    for dim, order, count in ((3, 2, 16), (4, 2, 16), (5, 2, 16), (4, 4, 12)):
        assert len(probe_batches(np.zeros((count, dim)), order)) == 1


def test_batch_estimate_bounds_the_measured_peak():
    """``probe_batches``' estimate of a probe's jet storage, 8 C (n^4 + 4 n^3)
    bytes, bounds the tracemalloc peak per probe of a 16-probe pipeline.  The
    measured peak over the estimate is 0.91-0.97 on sphere:3, the tightest
    at order 3 (29.5 of 30.2 kB), 0.70-0.81 on sphere:4, 0.52-0.64 on
    sphere:6, 0.59-0.71 on hyperbolic:5, 0.42-0.54 on sphere:8 and
    0.05-0.08 on example4:6, whose diagonal metric leaves most jets zero.
    The tables shared by every pipeline of (n, order) are built first."""
    cases = [(name, order) for name in ("sphere:3", "sphere:4", "sphere:6", "hyperbolic:5",
                                        "example4:6") for order in (2, 3, 4)]
    for name, order in cases + [("sphere:8", 2), ("sphere:8", 3)]:
        chart = models.builtin(name).chart
        n, pts = chart.dim, chart_probes(chart, 16)
        taylor.context(n, order)
        tracemalloc.start()
        try:
            curvature_taylor(chart, pts, order=order)
            peak = tracemalloc.get_traced_memory()[1] / len(pts)
        finally:
            tracemalloc.stop()
        estimate = 8 * math.comb(n + order, order) * (n ** 4 + 4 * n ** 3)
        assert peak <= estimate, (name, order, peak, estimate)


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


# the public functions of these modules that take a point ``x`` or ``point``
# and accept a (P, n) batch of them
BATCH_TAKING = {"taylor_metric", "curvature_taylor"}


def test_single_point_entry_points_refuse_a_batch():
    # curvature_at, the conformal laws, divergence_newton and
    # warped_ricci_formula report at one point; a (P, n) batch is a
    # GeometryError, never a numpy, tensor or expression error
    chart = models.sphere(4).chart
    pts = chart_probes(chart, 2, seed=1)
    fiber = models.sphere(3)
    warped_pts = chart_probes(models.warped("sinh(x1)", fiber).chart, 2, seed=1)
    calls = {"curvature_at": lambda: curvature.curvature_at(chart, pts),
             "conformal_schouten": lambda: sigma.conformal_schouten(chart, pts, "exp(0.1*x1)"),
             "conformal_ricci": lambda: sigma.conformal_ricci(chart, pts, "exp(0.1*x1)"),
             "divergence_newton": lambda: sigma.divergence_newton(chart, pts, 1),
             "warped_ricci_formula":
                 lambda: models.warped_ricci_formula("sinh(x1)", fiber, warped_pts)}
    for fn in calls.values():
        with pytest.raises(GeometryError, match=r"one point of shape \(4,\), got shape \(2, 4\)"):
            fn()
    # every module-level public function that takes a point is checked above
    # or takes a batch, so a new one-point entry point cannot skip the check
    for module in (curvature, sigma, models):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not name.startswith("_") \
                    and {"x", "point"} & set(inspect.signature(fn).parameters):
                assert name in calls.keys() | BATCH_TAKING, f"{module.__name__}.{name}"
    # the float sigma reports read the record of one point
    batch = curvature.curvature_taylor(chart, pts, order=2)
    for fn in (lambda: sigma.sigma_profile(batch, 2, 1), lambda: sigma.newton_tensor(batch, 1)):
        with pytest.raises(GeometryError, match=r"one point of shape \(4,\), got shape \(2, 4\)"):
            fn()
    # the record's covariant operators take a batch
    assert values(batch.hessian_scalar(batch.jet("x1"))).shape == (2, 4, 4)


def test_probe_set_checks_refuse_another_shape():
    # every public function of soliton that takes a probe set refuses a point
    # (n,) and a (P, n + 1) array by name of the shape, so a new check cannot
    # skip the chart's check; sphere:8 runs one probe per order-4 batch
    checks = [fn for name, fn in vars(soliton).items()
              if inspect.isfunction(fn) and fn.__module__ == soliton.__name__
              and not name.startswith("_") and "probe_set" in inspect.signature(fn).parameters]
    assert {"soliton_residual", "lemma_structural_check", "obata_check"} <= \
        {fn.__name__ for fn in checks}
    for name in ("sphere:4", "sphere:8"):
        spec = SolitonSpec.from_model(models.builtin(name))
        n, pts = spec.chart.dim, chart_probes(spec.chart, 2, seed=1)
        for fn in checks:
            with pytest.raises(GeometryError, match=rf"shape \(P, {n}\), got shape \({n},\)$"):
                fn(spec, probe_set=pts[0])
            with pytest.raises(GeometryError, match=rf"^points of shape \(2, {n + 1}\) for"):
                fn(spec, probe_set=np.hstack([pts, pts[:, :1]]))
    # so is a probe count that is no integer >= 0
    for count in (-3, 2.5, True):
        with pytest.raises(GeometryError, match="probe count must be an integer >= 0"):
            chart_probes(spec.chart, count)
