import math

import numpy as np
import pytest

from sigmaflow import expr as ex
from sigmaflow import models, probes, taylor
from sigmaflow.curvature import (MetricChart, curvature_at, curvature_taylor,
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
        periodic=tuple([False] * n),
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
    pack = curvature_at(model.chart, [0.2, -0.1, 0.3, 0.15])
    prof = sigma_profile(pack, 2, 1)
    for k in range(5):
        assert prof.sigmas[k] == pytest.approx(math.comb(4, k) / 2 ** k, rel=1e-10)
    assert prof.log_quotient == pytest.approx(math.log(1.5 / 2.0), rel=1e-10)
    assert prof.cone_ok


def test_cone_condition_raises():
    chart = conformal_chart("1", 3)  # flat: every sigma_k = 0
    pack = curvature_at(chart, [0.0, 0.0, 0.0])
    with pytest.raises(ConeConditionError):
        sigma_profile(pack, 2, 1)


def test_newton_tensor_direct_matrix_oracle():
    rng = np.random.default_rng(41)
    model = models.hyperbolic(5)
    for _ in range(3):
        x = (rng.uniform(-0.2, 0.2, size=5)).tolist()
        pack = curvature_at(model.chart, x)
        eig = np.sort(np.linalg.eigvals(pack.endo).real)
        sigmas = elementary_all(eig)
        for k in range(5):
            tk = newton_tensor(pack, k).value
            oracle = brute_newton_tensor(pack.endo, sigmas, k)
            assert np.max(np.abs(tk.components - oracle)) < 1e-10


def test_newton_trace_identities():
    # trace T_k = (n-k) sigma_k and trace(T_k A) = (k+1) sigma_{k+1}
    for model in (models.sphere(4), models.hyperbolic(4),
                  models.example4(4), models.sphere(5)):
        n = model.chart.dim
        pack = curvature_at(model.chart, [0.1] * n)
        sigmas = elementary_all(np.sort(np.linalg.eigvals(pack.endo).real))
        for k in range(n):
            tk = newton_tensor(pack, k).value.components
            assert np.trace(tk) == pytest.approx((n - k) * sigmas[k],
                                                 rel=1e-9, abs=1e-12)
            assert np.trace(tk @ pack.endo) == pytest.approx(
                (k + 1) * sigmas[k + 1], rel=1e-9, abs=1e-12)


def test_sigma_taylor_matches_eigenvalue_route():
    model = models.sphere(4)
    x = [0.15, 0.05, -0.2, 0.1]
    tc = curvature_taylor(model.chart, x)
    pack = curvature_at(model.chart, x)
    sig_t = sigma_taylor(tc)
    sigmas = elementary_all(np.sort(np.linalg.eigvals(pack.endo).real))
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
    pack = curvature_at(model.chart, x)
    for k in range(4):
        tk_t = values(newton_tensor_taylor(tc, k))
        tk_f = newton_tensor(pack, k).value.components
        assert np.max(np.abs(tk_t - tk_f)) < 1e-10


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
            pack = curvature_at(model.chart, x)
            prof = sigma_profile(pack, model.k, model.l)
            jets = [s.value for s in sigma_taylor(pack.taylor)]
            spec = sym_eigenvalues(TensorValue(n, (1, 1), pack.endo), pack.g)
            assert _close(prof.sigmas, jets), (name, x)
            assert _close(prof.sigmas, elementary_all(spec.eigenvalues)), (name, x)
            for k in (1, n - 1):  # T_{n-1} runs every step of the Horner loop
                tk = newton_tensor(pack, k).value.components
                assert _close(tk, values(newton_tensor_taylor(pack.taylor, k))), (name, x, k)


def test_sigma_taylor_jet_multiplies(monkeypatch):
    # n - 1 matrix products of n^3 multiplies each, n(n+1)/2 in Newton's
    # identities; T_k adds k - 1 Horner products (T_1 = sigma_1 I - A needs none)
    mul = taylor.TaylorContext.mul
    cases = [(4, 0, 202), (8, 0, 3620), (4, 1, 202), (4, 2, 266), (4, 3, 330)]
    for n, k, expected in cases:
        tc = curvature_taylor(models.sphere(n).chart, [0.1] * n)
        count = [0]

        def counting(ctx, a, b):
            count[0] += 1
            return mul(ctx, a, b)
        monkeypatch.setattr(taylor.TaylorContext, "mul", counting)
        if k == 0:
            sigma_taylor(tc)
        else:
            newton_tensor_taylor(tc, k)
        monkeypatch.undo()
        assert count[0] == expected == \
            (n - 1) * n ** 3 + n * (n + 1) // 2 + max(k - 1, 0) * n ** 3, (n, k)


PACK_FIELDS = ("g", "ginv", "christoffel", "riemann", "ricci", "scalar", "schouten",
               "weyl", "cotton", "endo")


def test_declared_orders_match_order_4(pipeline_orders):
    # each entry point runs its pipeline at the least order it reads and
    # returns what the order-4 pipeline gives
    def agree(fn, order, fields=None):
        got, orders = pipeline_orders.declared(fn)
        assert orders == {order}
        want = pipeline_orders.at(4, fn)
        for f in fields or ("components",):
            a, b = getattr(got, f), getattr(want, f)
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
        direct = curvature_at(direct_chart, x).schouten
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
        periodic=(False,) * 3,
    )
    x = [0.2, -0.3, 0.1]
    via_law = conformal_ricci(base, x, src).components
    direct = curvature_at(direct_chart, x).ricci
    assert np.max(np.abs(via_law - direct)) < 1e-10


def test_conformal_factor_must_be_positive():
    base = conformal_chart("1", 3)
    from sigmaflow.curvature import GeometryError
    with pytest.raises(GeometryError):
        conformal_schouten(base, [0.0, 0.0, 0.0], "x1 - 5")
