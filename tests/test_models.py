import math

import numpy as np
import pytest

from sigmaflow import expr as ex
from sigmaflow import models
from sigmaflow.curvature import GeometryError, curvature_at, values
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import sigma_profile
from sigmaflow.tensor import elementary_all


def probe(model, count=10, seed=0):
    return chart_probes(model.chart, count, seed=seed)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_sigma_golden(n):
    model = models.sphere(n, k=2, l=1)
    for x in probe(model):
        tc = curvature_at(model.chart, x)
        prof = sigma_profile(tc, 2, 1)
        for k in range(n + 1):
            expect = math.comb(n, k) / 2 ** k
            assert abs(prof.sigmas[k] - expect) < 1e-8 * abs(expect)
        assert tc.scalar.value == pytest.approx(n * (n - 1), rel=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hyperbolic_sigma_golden(n):
    k, l = (3, 1) if n >= 3 else (2, 1)
    model = models.hyperbolic(n, k=k, l=l)
    for x in probe(model):
        tc = curvature_at(model.chart, x)
        eig = np.sort(np.linalg.eigvals(values(tc.endo)).real)
        sigmas = elementary_all(eig)
        for j in range(n + 1):
            expect = (-1) ** j * math.comb(n, j) / 2 ** j
            assert abs(sigmas[j] - expect) < 1e-8 * abs(expect)
        assert tc.scalar.value == pytest.approx(-n * (n - 1), rel=1e-9)


def test_euclidean_model_is_flat():
    model = models.euclidean(3)
    tc = curvature_at(model.chart, [0.4, -0.2, 0.6])
    assert np.max(np.abs(values(tc.riemann))) == 0.0


@pytest.mark.parametrize("n", [4, 6])
def test_example4_even_dim_einstein(n):
    model = models.example4(n)
    for x in probe(model, count=5):
        tc = curvature_at(model.chart, x)
        assert np.max(np.abs(values(tc.ricci) + values(tc.g))) < 1e-10
        eig = np.sort(np.linalg.eigvals(values(tc.endo)).real)
        sigmas = elementary_all(eig)
        for j in range(n + 1):
            expect = (-1) ** j * math.comb(n, j) / (2 ** j * (n - 1) ** j)
            assert abs(sigmas[j] - expect) < 1e-8 * max(abs(expect), 1e-30)


def test_example4_odd_dim_has_flat_direction():
    # with an odd coordinate count one axis carries no curvature partner,
    # so the metric is not Einstein; the bundled quotient pair still
    # satisfies the cone condition
    model = models.example4(5)
    x = probe(model, count=1)[0]
    tc = curvature_at(model.chart, x)
    assert np.max(np.abs(values(tc.ricci) + values(tc.g))) > 0.4
    sigma_profile(tc, model.k, model.l)  # ConeConditionError otherwise


def test_product_line_sphere_sigma1():
    model = models.product_line_sphere(3)
    for x in probe(model, count=5):
        tc = curvature_at(model.chart, x)
        prof = sigma_profile(tc, 1, 1)
        assert prof.sigmas[1] == pytest.approx((3 - 1) / 2.0, rel=1e-9)
        assert prof.log_quotient == pytest.approx(0.0, abs=1e-12)


def test_golden_tables_all_pass():
    for model in (models.sphere(4), models.hyperbolic(4), models.example4(4),
                  models.product_line_sphere(3)):
        rows = models.check_golden(model, probe(model, count=5))
        assert rows, model.name
        for quantity, worst, tol, ok in rows:
            assert ok, f"{model.name}: {quantity} worst {worst} > {tol}"


@pytest.mark.parametrize("xi_name,xi_src", [("one", "1"), ("sinh", "sinh(x1)"),
                                            ("cosh", "cosh(x1)")])
@pytest.mark.parametrize("fiber_name", ["sphere", "hyperbolic"])
def test_warped_ricci_formula_vs_direct(xi_name, xi_src, fiber_name):
    fiber = getattr(models, fiber_name)(3)
    chart = models.warped(xi_src, fiber).chart
    rng = np.random.default_rng(71)
    for _ in range(3):
        t = rng.uniform(0.6, 1.4)
        fp = rng.uniform(-0.2, 0.2, size=3)
        x = [t, *fp]
        formula = models.warped_ricci_formula(xi_src, fiber, x).components
        direct = values(curvature_at(chart, x).ricci)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(formula - direct)) < 1e-10 * scale


def test_warped_hyperbolic_space_form():
    # dt^2 + sinh(t)^2 g_{S^3} is hyperbolic 4-space: Ric = -3 g
    model = models.builtin("warped:sinh:sphere:3")
    x = [1.1, 0.1, -0.15, 0.2]
    tc = curvature_at(model.chart, x)
    assert np.max(np.abs(values(tc.ricci) + 3 * values(tc.g))) < 1e-9


def test_builtin_names():
    assert models.builtin("sphere:4").chart.dim == 4
    assert models.builtin("euclidean:3").chart.dim == 3
    assert models.builtin("example4:4").chart.dim == 4
    assert models.builtin("product_line_sphere:3").chart.dim == 4
    with pytest.raises((KeyError, ValueError, GeometryError)):
        models.builtin("klein_bottle:7")


def test_warping_factor_must_be_positive():
    with pytest.raises(GeometryError):
        models.warped("x1 - 1", models.sphere(3))


def test_hyperbolic_parity_constraint():
    with pytest.raises(GeometryError):
        models.hyperbolic(4, k=2, l=1)  # sigma_2 > 0 but sigma_1 < 0


def test_example4_odd_falls_back_to_the_first_pair_in_the_cone():
    # n = 5: sigma_1 < 0 < sigma_3, so the default (3, 1) is outside the cone
    # and (3, 2) is the first admissible pair, with lambda = -log 6
    model = models.example4(5)
    assert (model.k, model.l) == (3, 2)
    assert ex.eval_float(model.lam, [0.0] * 5) == pytest.approx(-math.log(6.0), rel=1e-12)
