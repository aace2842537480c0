import math

import numpy as np
import pytest
from oracles import elementary_all
from test_batched import BUILTINS

from sigmaflow import expr as ex
from sigmaflow import models, probes, taylor
from sigmaflow.curvature import (GeometryError, MetricChart, _d, _sym, curvature_at,
                                 curvature_taylor, values)
from sigmaflow.sigma import (ConeConditionError, conformal_ricci,
                             conformal_schouten, divergence_newton,
                             log_quotient, newton_tensor,
                             newton_tensor_taylor, repeated_sigma, sigma_profile,
                             sigma_taylor, sigmas, two_eigenvalue_sigma)
from sigmaflow.tensor import TensorValue, sym_eigenvalues


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


@pytest.mark.parametrize("n", range(3, 9))
def test_two_eigenvalue_sigma_is_sigma_of_the_spectrum(n):
    # a (n - 1 times) and b (once): the closed form against the product
    # expansion and against Newton's identities on diag(a, ..., a, b), for
    # floats, a (P,) array and ints, which match exactly
    rng = np.random.default_rng(n)
    a, b = rng.uniform(-1.5, 1.5, size=(2, 5))
    spectra = np.concatenate([np.repeat(a[:, None], n - 1, axis=1), b[:, None]], axis=1)
    want = np.array([elementary_all(lam) for lam in spectra])        # (P, n + 1)
    newton = sigmas(np.array([np.diag(lam) for lam in spectra]))     # n + 1 of (P,)
    for j in range(n + 1):
        scale = np.sum(np.abs(spectra), axis=1) ** j
        got = two_eigenvalue_sigma(n, j, a, b)
        assert np.all(np.abs(got - want[:, j]) <= 1e-14 * scale), (n, j)
        assert np.all(np.abs(got - newton[j]) <= 1e-13 * scale), (n, j)
        for p in range(len(a)):  # numpy's and Python's a^j may differ by an ulp
            one = two_eigenvalue_sigma(n, j, float(a[p]), float(b[p]))
            assert isinstance(one, float) and abs(one - want[p, j]) <= 1e-14 * scale[p]
        for ia, ib in ((-1, 1), (2, -3), (3, 0)):
            spectrum = [ia] * (n - 1) + [ib]
            exact = two_eigenvalue_sigma(n, j, ia, ib)
            assert isinstance(exact, int) and exact == elementary_all(spectrum)[j]
            assert exact == pytest.approx(sigmas(np.diag(np.array(spectrum, dtype=float)))[j],
                                          rel=1e-12, abs=1e-12)


def test_repeated_sigma_is_zero_outside_its_range():
    assert repeated_sigma(4, -1, 2.0) == 0 and repeated_sigma(4, 5, 2.0) == 0
    assert repeated_sigma(4, 0, np.array([0.0, 3.0])).tolist() == [1.0, 1.0]
    assert repeated_sigma(4, 2, 3) == 54


def test_cone_condition_raises():
    chart = conformal_chart("1", 3)  # flat: every sigma_k = 0
    tc = curvature_at(chart, [0.0, 0.0, 0.0])
    with pytest.raises(ConeConditionError):
        sigma_profile(tc, 2, 1)


def test_log_quotient_names_the_first_violating_probe():
    # a (P,) float stack and jets with (P, C) coefficients name the first
    # probe where sigma_k * sigma_l is not > 0; one point names none
    pts = np.array([[0.5, 0.1], [0.3, -0.2], [-0.1, 0.4], [-0.2, 0.3], [0.4, 0.0]])
    srcs = {2: "x1", 1: "1 + x2^2"}
    cases = [({2: pts[:, 0], 1: 1.0 + pts[:, 1] ** 2}, 2),
             ({j: ex.eval_taylor(ex.parse(e), pts, order=2) for j, e in srcs.items()}, 2),
             ({2: np.array([1.0, np.nan, -1.0]), 1: np.ones(3)}, 1),  # NaN fails the rule
             ({2: -0.1, 1: 1.16}, None),
             ({j: ex.eval_taylor(ex.parse(e), pts[2], order=2) for j, e in srcs.items()}, None)]
    for sig, probe in cases:
        with pytest.raises(ConeConditionError, match=r"sigma_2 \* sigma_1 not > 0") as err:
            log_quotient(sig, 2, 1)
        assert err.value.probe == probe, sig
        if probe != 1:
            assert (err.value.sigma_k, err.value.sigma_l) == (-0.1, pytest.approx(1.16)), sig


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
    logq = log_quotient(sigma_taylor(tc), 2, 1)
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
               lambda: sigma_taylor(tc), lambda: divergence_newton(chart, x, 1),
               lambda: conformal_schouten(chart, x, "1 + x1^2/4")):
        with pytest.raises(GeometryError, match="dimension >= 3"):
            fn()


ONE_PATH_MODELS = ("sphere:3", "sphere:4", "sphere:5", "sphere:8", "hyperbolic:4",
                   "hyperbolic:6", "example4:4", "example4:5", "example4:6",
                   "product_line_sphere:3", "warped:sinh:sphere:5")


def _close(got, want, tol=1e-13):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def _equal_values(floats, jets):
    """Whether each float equals its jet's value part, probe by probe
    (array_equal: a zero of either sign equals 0.0)."""
    return all(np.array_equal(f, np.broadcast_to(j.value, np.shape(f)))
               for f, j in zip(floats, jets, strict=True))


def _same_quotient(floats, jets, k, l):
    """log_quotient of the float sigmas and of the sigma jets agree: both
    raise ConeConditionError, or the float is the jet's value part."""
    try:
        logq = log_quotient(floats, k, l)
    except ConeConditionError:
        with pytest.raises(ConeConditionError):
            log_quotient(jets, k, l)
        return True
    return _equal_values([logq], [log_quotient(jets, k, l)])


def test_float_sigmas_are_the_value_part_of_the_jet_path():
    # each sum runs in one order in both rings, so the float sigmas of a
    # (P, n, n) stack or of one point, sigma_profile, every T_k and the
    # quotient are == the value parts of the jets
    for name in ONE_PATH_MODELS + ("euclidean:3",):
        model = models.builtin(name)
        n, k, l = model.chart.dim, model.k, model.l
        pts = probes.chart_probes(model.chart, 3, seed=1)
        for x in (pts, *pts):
            tc = curvature_taylor(model.chart, x, order=2)
            floats, jets = sigmas(values(tc.endo)), sigma_taylor(tc)
            assert _equal_values(floats, jets), (name, x)
            assert _same_quotient(floats, jets, k, l), (name, x)
            if x.ndim == 2:
                continue
            for j in range(n):
                tk = newton_tensor(tc, j).components
                assert np.array_equal(tk, values(newton_tensor_taylor(tc, j))), (name, x, j)
            spec = sym_eigenvalues(TensorValue(n, (1, 1), values(tc.endo)), values(tc.g))
            assert _close(floats, elementary_all(spec)), (name, x)
            if name == "euclidean:3":
                continue  # every sigma vanishes: the profile raises ConeConditionError
            prof = sigma_profile(tc, k, l)
            assert np.array_equal(prof.sigmas, floats) and type(prof.log_quotient) is float
            assert prof.log_quotient == log_quotient(jets, k, l).value, (name, x)


def test_sigma_taylor_jet_multiplies(count_products):
    # n - 1 matrix products of n^3 multiplies each, n(n+1)/2 in Newton's
    # identities; T_k adds k - 1 Horner products (T_1 = sigma_1 I - A needs none)
    cases = [(4, 0, 202), (8, 0, 3620), (4, 1, 202), (4, 2, 266), (4, 3, 330)]
    for n, k, expected in cases:
        tc = curvature_taylor(models.sphere(n).chart, [0.1] * n)
        [count] = count_products(lambda: sigma_taylor(tc) if k == 0
                                 else newton_tensor_taylor(tc, k))
        assert count == expected == \
            (n - 1) * n ** 3 + n * (n + 1) // 2 + max(k - 1, 0) * n ** 3, (n, k)


def test_covariant_operator_jet_multiplies(count_products):
    # each operator forms the products of its contraction once; div_vector
    # and div_endomorphism sum Gamma^i_ik over i before contracting
    model = models.sphere(4)
    x = np.array([0.1, -0.2, 0.15, 0.05])
    tc = curvature_taylor(model.chart, x, order=3)
    f = ex.eval_taylor(model.potential, x, order=3)
    xv = np.array([ex.eval_taylor(c, x, order=3)
                   for c in models.builtin("example4:4").vector_field], dtype=object)
    t2 = newton_tensor_taylor(tc, 2)
    # each law runs its own order-2 pipeline, whose Riemann-to-g^-1 A block
    # forms no jet products, and combines value parts after hess_0 w
    phi = "exp(0.1*x1 + 0.2*sin(x2))"
    cases = [("cov_deriv_02", lambda: tc.cov_deriv_02(tc.schouten), 512),
             ("grad_scalar", lambda: tc.grad_scalar(f), 16),
             ("hessian_scalar", lambda: tc.hessian_scalar(f), 40),
             ("laplacian_scalar", lambda: tc.laplacian_scalar(f), 56),
             ("lie_metric", lambda: tc.lie_metric(xv), 56),
             ("div_vector", lambda: tc.div_vector(xv), 4),
             ("div_endomorphism", lambda: tc.div_endomorphism(t2), 80),
             ("conformal_schouten", lambda: conformal_schouten(model.chart, x, phi), 289),
             ("conformal_ricci", lambda: conformal_ricci(model.chart, x, phi), 289)]
    for name, operator, expected in cases:
        assert count_products(operator) == [expected], name


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


def test_golden_tables_and_warped_ricci_run_order_2(pipeline_orders):
    # they read curvature values only: the order-2 record reports what the
    # order-4 one does
    for name in ("sphere:4", "hyperbolic:5", "example4:5", "example4:6"):
        model = models.builtin(name)
        pts = probes.chart_probes(model.chart, 2, seed=1)
        rows, orders = pipeline_orders.declared(lambda: models.check_golden(model, pts))
        assert orders == {2} and all(passed for *_, passed in rows), (name, rows)
        want = pipeline_orders.at(4, lambda: models.check_golden(model, pts))
        assert [r[0] for r in rows] == [r[0] for r in want]
        assert _close([r[1] for r in rows], [r[1] for r in want]), name
    fiber, x = models.sphere(3), [1.1, 0.1, -0.15, 0.2]
    ricci, orders = pipeline_orders.declared(
        lambda: models.warped_ricci_formula("sinh(x1)", fiber, x))
    assert orders == {2}
    want = pipeline_orders.at(4, lambda: models.warped_ricci_formula("sinh(x1)", fiber, x))
    assert _close(ricci.components, want.components)


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


def _jet_conformal_laws(chart, x, phi):
    """Schouten (None below n = 3) and Ricci of phi^2 g_0 by the conformal
    laws composed on jets of the order-2 pipeline, entry by entry on i <= j,
    as the laws were computed before they read value parts."""
    tc0 = curvature_taylor(chart, x, order=2)
    w = taylor.log(tc0.jet(phi))
    dw = _d(w)
    grad2 = taylor.matmul(dw, taylor.matmul(tc0.ginv, dw))
    hess, lap = tc0.hessian_scalar(w), tc0.laplacian_scalar(w)
    n = tc0.dim
    i, j = np.triu_indices(n)
    schouten = None if n < 3 else _sym(tc0.schouten[i, j] - hess[i, j] + dw[i] * dw[j]
                                       - (0.5 * grad2) * tc0.g[i, j], n)
    ricci = _sym(tc0.ricci[i, j] - (n - 2) * (hess[i, j] - dw[i] * dw[j])
                 - (lap + (n - 2) * grad2) * tc0.g[i, j], n)
    return schouten, ricci


@pytest.mark.parametrize("name", BUILTINS)
def test_conformal_laws_are_the_value_parts_of_the_jet_laws(name):
    # the laws combine the value parts of hess_0 w, dw and |dw|^2_0 in the
    # order the jet laws sum them, so every component is == the jet value
    chart = models.builtin(name).chart
    for x in probes.chart_probes(chart, 6, seed=5):
        for phi in ("exp(0.1*x1 + 0.2*sin(x2))", "1 + x1^2/6 + x2*x3/9", "2.5"):
            schouten, ricci = _jet_conformal_laws(chart, x, phi)
            assert np.array_equal(conformal_ricci(chart, x, phi).components,
                                  values(ricci)), (name, x, phi)
            if schouten is not None:
                assert np.array_equal(conformal_schouten(chart, x, phi).components,
                                      values(schouten)), (name, x, phi)


def test_conformal_factor_must_be_positive():
    base = conformal_chart("1", 3)
    from sigmaflow.curvature import GeometryError
    with pytest.raises(GeometryError):
        conformal_schouten(base, [0.0, 0.0, 0.0], "x1 - 5")
