import math

import numpy as np
import pytest

from sigmaflow import expr as ex
from sigmaflow import models, probes, taylor
from sigmaflow.curvature import (GeometryError, MetricChart, curvature_at, curvature_taylor,
                                 values)
from sigmaflow.sigma import (ConeConditionError, conformal_ricci,
                             conformal_schouten, divergence_newton,
                             log_quotient_taylor, newton_tensor,
                             newton_tensor_taylor, sigma_profile, sigma_taylor)
from sigmaflow.tensor import TensorValue, elementary_all, sym_eigenvalues


def conformal_chart(factor_src, n, box=0.8):
    rows = [[factor_src if i == j else "0" for j in range(n)] for i in range(n)]
    return MetricChart(
        dim=n,
        comps=[[ex.parse(s) for s in row] for row in rows],
        domain=tuple([(-box, box)] * n),
    )


def brute_newton_tensor(endo, sigmas, k):
    """Direct matrix arithmetic oracle for T_k."""
    n = endo.shape[0]
    out = np.zeros((n, n))
    power = np.eye(n)
    for j in range(k + 1):
        out += (-1.0) ** j * sigmas[k - j] * np.linalg.matrix_power(endo, j)
    return out


def test_sphere_sigma_table():
    model = models.sphere(4)
    tc = curvature_at(model.chart, [0.2, -0.1, 0.3, 0.15])
    prof = sigma_profile(tc, 2, 1)
    for k in range(5):
        assert prof.sigmas[k] == pytest.approx(math.comb(4, k) / 2 ** k, rel=1e-10)
    assert prof.log_quotient == pytest.approx(math.log(1.5 / 2.0), rel=1e-10)


def test_cone_condition_raises():
    chart = conformal_chart("1", 3)  # flat: every sigma_k = 0
    tc = curvature_at(chart, [0.0, 0.0, 0.0])
    with pytest.raises(ConeConditionError):
        sigma_profile(tc, 2, 1)


def test_newton_tensor_direct_matrix_oracle():
    rng = np.random.default_rng(41)
    model = models.hyperbolic(5)
    for _ in range(3):
        x = (rng.uniform(-0.2, 0.2, size=5)).tolist()
        tc = curvature_at(model.chart, x)
        eig = np.sort(np.linalg.eigvals(values(tc.endo)).real)
        sigmas = elementary_all(eig)
        for k in range(5):
            tk = newton_tensor(tc, k)
            oracle = brute_newton_tensor(values(tc.endo), sigmas, k)
            assert np.max(np.abs(tk.components - oracle)) < 1e-10


def test_newton_trace_identities():
    # trace T_k = (n-k) sigma_k and trace(T_k A) = (k+1) sigma_{k+1}
    for model in (models.sphere(4), models.hyperbolic(4),
                  models.example4(4), models.sphere(5)):
        n = model.chart.dim
        tc = curvature_at(model.chart, [0.1] * n)
        sigmas = elementary_all(np.sort(np.linalg.eigvals(values(tc.endo)).real))
        for k in range(n):
            tk = newton_tensor(tc, k).components
            assert np.trace(tk) == pytest.approx((n - k) * sigmas[k],
                                                 rel=1e-9, abs=1e-12)
            assert np.trace(tk @ values(tc.endo)) == pytest.approx(
                (k + 1) * sigmas[k + 1], rel=1e-9, abs=1e-12)


def test_sigma_taylor_matches_eigenvalue_route():
    model = models.sphere(4)
    x = [0.15, 0.05, -0.2, 0.1]
    tc = curvature_taylor(model.chart, x)
    tc3 = curvature_at(model.chart, x)
    sig_t = sigma_taylor(tc)
    sigmas = elementary_all(np.sort(np.linalg.eigvals(values(tc3.endo)).real))
    for k in range(5):
        assert sig_t[k].value == pytest.approx(sigmas[k], rel=1e-10)
    # the quotient's Taylor expansion is constant on the round sphere
    logq = log_quotient_taylor(tc, 2, 1)
    grads = [abs(logq.deriv(m).value) for m in range(4)]
    assert max(grads) < 1e-10


def test_newton_tensor_taylor_matches_float_route():
    model = models.hyperbolic(4)
    x = [0.1, -0.05, 0.2, 0.0]
    tc = curvature_taylor(model.chart, x)
    tc3 = curvature_at(model.chart, x)
    for k in range(4):
        tk_t = values(newton_tensor_taylor(tc, k))
        tk_f = newton_tensor(tc3, k).components
        assert np.max(np.abs(tk_t - tk_f)) < 1e-10


def test_indices_checked_for_floats_and_jets():
    # T_n vanishes by Cayley-Hamilton: an index >= n is an error, not a zero tensor
    tc = curvature_at(models.sphere(4).chart, [0.1, 0.2, -0.1, 0.0])
    for k in (4, -1, 1.0):
        with pytest.raises(GeometryError, match="Newton tensor index"):
            newton_tensor_taylor(tc, k)
        with pytest.raises(GeometryError, match="Newton tensor index"):
            newton_tensor(tc, k)
    for k, l in ((5, 1), (2.5, 1), (2, -1)):
        with pytest.raises(GeometryError, match="quotient index"):
            sigma_profile(tc, k, l)


def test_sigma_quantities_need_dimension_3():
    conformal = "4/(1 + x1^2 + x2^2)^2"
    chart = MetricChart(2, [[conformal, "0"], ["0", conformal]], [(-0.9, 0.9)] * 2)
    x = [0.1, 0.2]
    tc = curvature_at(chart, x)
    for fn in (lambda: sigma_profile(tc, 1, 0), lambda: newton_tensor(tc, 1),
               lambda: sigma_taylor(tc), lambda: divergence_newton(chart, x, 1)):
        with pytest.raises(GeometryError, match="dimension >= 3"):
            fn()


ONE_PATH_MODELS = ("sphere:3", "sphere:4", "sphere:5", "sphere:8", "hyperbolic:4",
                   "hyperbolic:6", "example4:4", "example4:5", "example4:6",
                   "product_line_sphere:3", "warped:sinh:sphere:5")


def _close(got, want, tol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def test_float_sigmas_are_the_value_part_of_the_jet_path():
    for name in ONE_PATH_MODELS:
        model = models.builtin(name)
        n = model.chart.dim
        for x in probes.chart_probes(model.chart, 3, seed=1):
            tc = curvature_at(model.chart, x)
            prof = sigma_profile(tc, model.k, model.l)
            jets = [s.value for s in sigma_taylor(tc)]
            spec = sym_eigenvalues(TensorValue(n, (1, 1), values(tc.endo)), values(tc.g))
            assert _close(prof.sigmas, jets), (name, x)
            assert _close(prof.sigmas, elementary_all(spec)), (name, x)
            for k in (1, n - 1):  # T_{n-1} runs every step of the Horner loop
                tk = newton_tensor(tc, k).components
                assert _close(tk, values(newton_tensor_taylor(tc, k))), (name, x, k)


def test_sigma_taylor_jet_multiplies(monkeypatch):
    # n - 1 matrix products of n^3 multiplies each, n(n+1)/2 in Newton's
    # identities; T_k adds k - 1 Horner products (T_1 = sigma_1 I - A needs none)
    mul = taylor.TaylorContext.mul
    cases = [(4, 0, 202), (8, 0, 3620), (4, 1, 202), (4, 2, 266), (4, 3, 330)]
    for n, k, expected in cases:
        tc = curvature_taylor(models.sphere(n).chart, [0.1] * n)
        count = [0]

        def counting(ctx, a, b, *args):
            count[0] += 1
            return mul(ctx, a, b, *args)
        monkeypatch.setattr(taylor.TaylorContext, "mul", counting)
        if k == 0:
            sigma_taylor(tc)
        else:
            newton_tensor_taylor(tc, k)
        monkeypatch.undo()
        assert count[0] == expected == \
            (n - 1) * n ** 3 + n * (n + 1) // 2 + max(k - 1, 0) * n ** 3, (n, k)


def test_covariant_operator_jet_multiplies(monkeypatch):
    # each operator forms the products of its contraction once; div_vector
    # and div_endomorphism sum Gamma^i_ik over i before contracting
    mul = taylor.TaylorContext.mul
    count = [0]

    def counting(ctx, a, b, *args):
        count[0] += 1
        return mul(ctx, a, b, *args)

    model = models.sphere(4)
    x = np.array([0.1, -0.2, 0.15, 0.05])
    tc = curvature_taylor(model.chart, x, order=3)
    f = ex.eval_taylor(model.potential, x, order=3)
    xv = np.array([ex.eval_taylor(c, x, order=3)
                   for c in models.builtin("example4:4").vector_field], dtype=object)
    t2 = newton_tensor_taylor(tc, 2)
    phi = "exp(0.1*x1 + 0.2*sin(x2))"  # each law runs its own order-2 pipeline
    cases = [("cov_deriv_02", lambda: tc.cov_deriv_02(tc.schouten), 512),
             ("grad_scalar", lambda: tc.grad_scalar(f), 16),
             ("hessian_scalar", lambda: tc.hessian_scalar(f), 40),
             ("laplacian_scalar", lambda: tc.laplacian_scalar(f), 56),
             ("lie_metric", lambda: tc.lie_metric(xv), 56),
             ("div_vector", lambda: tc.div_vector(xv), 4),
             ("div_endomorphism", lambda: tc.div_endomorphism(t2), 80),
             ("conformal_schouten", lambda: conformal_schouten(model.chart, x, phi), 1571),
             ("conformal_ricci", lambda: conformal_ricci(model.chart, x, phi), 1627)]
    for name, operator, expected in cases:
        count[0] = 0
        monkeypatch.setattr(taylor.TaylorContext, "mul", counting)
        operator()
        monkeypatch.undo()
        assert count[0] == expected, name


PACK_FIELDS = ("g", "ginv", "christoffel", "riemann", "ricci", "scalar", "schouten",
               "cotton", "endo")


def test_declared_orders_match_order_4(pipeline_orders):
    # each entry point runs its pipeline at the least order it reads and
    # returns what the order-4 pipeline gives
    def agree(fn, order, fields=None):
        got, orders = pipeline_orders.declared(fn)
        assert orders == {order}
        want = pipeline_orders.at(4, fn)
        for f in fields or ("components",):
            a, b = getattr(got, f), getattr(want, f)
            if fields:  # the pipeline record holds jets: compare their value parts
                a, b = (None if v is None else values(np.asarray(v, dtype=object))
                        for v in (a, b))
            assert (a is None) == (b is None) and (a is None or _close(a, b)), (name, x, f)

    for name in ONE_PATH_MODELS:
        model = models.builtin(name)
        for x in probes.chart_probes(model.chart, 3, seed=1):
            agree(lambda: curvature_at(model.chart, x), 3, PACK_FIELDS)
            for k in (1, 2):
                agree(lambda: divergence_newton(model.chart, x, k), 3)
            if name == "sphere:4":
                phi = "1 + x1^2/6 + x2*x4/9"
                agree(lambda: conformal_schouten(model.chart, x, phi), 2)
                agree(lambda: conformal_ricci(model.chart, x, phi), 2)


def test_divergence_newton_vanishes_conformally_flat():
    for model in (models.sphere(4), models.hyperbolic(4)):
        for k in range(1, 4):
            div = divergence_newton(model.chart, [0.2, -0.1, 0.1, 0.15], k)
            assert np.max(np.abs(div.components)) < 1e-10


def test_divergence_newton_k1_is_second_bianchi():
    # T_1 = sigma_1 I - A; div T_1 = 0 holds for every metric
    chart = conformal_chart("1 + x1^2/4 + sin(x2)/5", 3)
    div = divergence_newton(chart, [0.3, -0.2, 0.4], 1)
    assert np.max(np.abs(div.components)) < 1e-10


def test_conformal_schouten_law_vs_direct():
    rng = np.random.default_rng(57)
    base = conformal_chart("1", 4, box=1.0)
    for _ in range(4):
        c = rng.uniform(0.1, 0.4, size=3)
        src = f"exp({c[0]}*x1 + {c[1]}*sin(x2) + {c[2]}*x3*x4)"
        direct_chart = conformal_chart(f"({src})^2", 4, box=1.0)
        x = rng.uniform(-0.5, 0.5, size=4).tolist()
        via_law = conformal_schouten(base, x, src).components
        direct = values(curvature_at(direct_chart, x).schouten)
        assert np.max(np.abs(via_law - direct)) < 1e-10


def test_conformal_ricci_law_vs_direct():
    base = models.sphere(3).chart
    src = "1 + x1^2/6 + x2*x3/9"
    scaled_rows = [[f"(({src})^2) * 4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j
                    else "0" for j in range(3)] for i in range(3)]
    direct_chart = MetricChart(
        dim=3,
        comps=[[ex.parse(s) for s in row] for row in scaled_rows],
        domain=tuple([(-0.8, 0.8)] * 3),
    )
    x = [0.2, -0.3, 0.1]
    via_law = conformal_ricci(base, x, src).components
    direct = values(curvature_at(direct_chart, x).ricci)
    assert np.max(np.abs(via_law - direct)) < 1e-10


def test_conformal_factor_must_be_positive():
    base = conformal_chart("1", 3)
    from sigmaflow.curvature import GeometryError
    with pytest.raises(GeometryError):
        conformal_schouten(base, [0.0, 0.0, 0.0], "x1 - 5")
