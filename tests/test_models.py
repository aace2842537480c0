import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sigmaflow import expr as ex
from sigmaflow import models, taylor
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
                  models.product_line_sphere(3), models.euclidean(3), models.sphere(2),
                  models.hyperbolic(2)):
        rows = models.check_golden(model, probe(model, count=5))
        assert rows, model.name
        for quantity, worst, tol, ok in rows:
            assert ok, f"{model.name}: {quantity} worst {worst} > {tol}"
            assert type(worst) is float and type(ok) is bool, quantity
        json.dumps(rows)
    unknown = dataclasses.replace(models.sphere(4), golden=[("volume", 1.0, 1e-9, "")])
    with pytest.raises(ValueError, match="unknown golden quantity 'volume'"):
        models.check_golden(unknown, probe(unknown, count=1))


def test_a_nan_golden_error_fails(monkeypatch):
    model = models.sphere(4)
    pts = probe(model, count=3)
    monkeypatch.setattr(models, "values", lambda arr: values(arr) * np.nan)
    rows = models.check_golden(model, pts)
    assert [q for q, *_ in rows] == [q for q, *_ in model.golden]
    for quantity, worst, _, ok in rows:
        if quantity == "scalar":  # R is read without values()
            assert ok, worst
        else:
            assert math.isnan(worst) and ok is False, quantity


def golden_sigmas(name):
    return {int(q[6:]): v for q, v, *_ in models.builtin(name).golden if q.startswith("sigma:")}


# the golden sigma_j that the correctly rounded odd example4 tables moved from
# the old float table (C(n-1, j) - C(n-1, j-1)) a^j, a = -1/(2(n-2))
MOVED = {"example4:5": {3, 4, 5}, "example4:7": {2, 3, 4, 5, 6, 7}}


def test_golden_sigma_tables_are_the_closed_forms():
    # sigma_j = C(n, j) a^j, exactly as the old table's (C(n-1, j) + C(n-1, j-1)) a^j
    for name, n, a in ([(f"sphere:{n}", n, 0.5) for n in range(3, 9)]
                       + [(f"hyperbolic:{n}", n, -0.5) for n in range(3, 9)]
                       + [(f"example4:{n}", n, -0.5 / (n - 1)) for n in (4, 6, 8)]):
        assert golden_sigmas(name) == {j: math.comb(n, j) * a ** j for j in range(1, n + 1)}
    # odd example4, -1 (n - 1 times) and 1 (once) over 2(n - 2): correctly rounded
    for n in (5, 7):
        name, a = f"example4:{n}", -0.5 / (n - 2)
        got = golden_sigmas(name)
        for j in range(1, n + 1):
            exact = Fraction(math.comb(n - 1, j) * (-1) ** j
                             + math.comb(n - 1, j - 1) * (-1) ** (j - 1), (2 * (n - 2)) ** j)
            assert got[j] == float(exact), (name, j)
            old = (math.comb(n - 1, j) - math.comb(n - 1, j - 1)) * a ** j
            assert (got[j] != old) == (j in MOVED[name]), (name, j)
    # R x S^n: 1/2 (n times) and -1/2 (once), exact in binary
    for n in range(3, 8):
        got = golden_sigmas(f"product_line_sphere:{n}")
        assert got == {j: float(Fraction(math.comb(n, j), 2 ** j)
                                - Fraction(math.comb(n, j - 1), 2 ** j))
                       for j in range(1, n + 2)}
        assert got[1] == (n - 1) / 2


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
    assert models.builtin("sphere:2").chart.dim == 2
    assert models.builtin("hyperbolic:2").chart.dim == 2
    with pytest.raises((KeyError, ValueError, GeometryError)):
        models.builtin("klein_bottle:7")
    with pytest.raises(GeometryError, match="the log-cosh model needs n >= 4"):
        models.builtin("example4:3")


def test_builtin_names_split_on_colons_only():
    # a warping factor may call a function; "(" is no separator
    named = models.builtin("warped:cosh(x1):sphere:3")
    short = models.builtin("warped:cosh:sphere:3")
    assert named.name == short.name and named.chart.domain == short.chart.domain
    assert [[ex.unparse(c) for c in row] for row in named.chart.comps] == \
        [[ex.unparse(c) for c in row] for row in short.chart.comps]
    with pytest.raises(GeometryError, match="unknown model 'sphere\\(4\\)'"):
        models.builtin("sphere(4)")


@pytest.mark.parametrize("name, n", [("euclidean:3000", 3000), ("example4:3000", 3000),
                                     ("product_line_sphere:3000", 3001), ("sphere:3000", 3000),
                                     ("hyperbolic:3000", 3000), ("warped:one:euclidean:3000", 3000)])
def test_an_oversized_builtin_is_refused_before_anything_is_built(name, n):
    # the chart's dimension rule runs first; an n x n list of components at
    # n = 3000 would take tens of MB before the chart refused it
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError,
                           match=f"^chart dimension must be an integer in 2..8, got {n}$"):
            models.builtin(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_warping_factor_must_be_positive():
    with pytest.raises(GeometryError):
        models.warped("x1 - 1", models.sphere(3))
    with pytest.raises(GeometryError, match="warping factor non-positive at t = 0.5"):
        models.warped_ricci_formula("x1 - 1", models.sphere(3), [0.5, 0.1, 0.1, 0.1])


def test_warped_ricci_formula_reads_xi_at_order_2(monkeypatch):
    # xi, xi' and xi'' of an order-2 jet are a prefix of the order-4 jet, so on
    # the points of test_warped_ricci_formula_vs_direct the formula is == its
    # order-4 reading
    rng = np.random.default_rng(71)
    points = [[rng.uniform(0.6, 1.4), *rng.uniform(-0.2, 0.2, size=3)] for _ in range(3)]
    xis = [ex.parse(src) for src in ("1", "sinh(x1)", "cosh(x1)")]
    cases = [(xi, getattr(models, fiber)(3), x)
             for xi in xis for fiber in ("sphere", "hyperbolic") for x in points]
    eval_taylor, asked = ex.eval_taylor, set()

    def formulas(xi_order=None):
        def spy(e, point, order=taylor.MAX_ORDER):
            if any(e is xi for xi in xis):
                asked.add(order)
                order = xi_order or order
            return eval_taylor(e, point, order=order)
        monkeypatch.setattr(ex, "eval_taylor", spy)
        return [models.warped_ricci_formula(xi, fiber, x).components for xi, fiber, x in cases]

    got = formulas()
    assert asked == {2}
    assert all(np.array_equal(a, b) for a, b in zip(got, formulas(xi_order=4)))


def test_hyperbolic_parity_constraint():
    with pytest.raises(GeometryError):
        models.hyperbolic(4, k=2, l=1)  # sigma_2 > 0 but sigma_1 < 0


def test_example4_odd_falls_back_to_the_first_pair_in_the_cone():
    # n = 5: sigma_1 < 0 < sigma_3, so the default (3, 1) is outside the cone
    # and (3, 2) is the first admissible pair, with lambda = -log 6
    model = models.example4(5)
    assert (model.k, model.l) == (3, 2)
    assert ex.eval_float(model.lam, [0.0] * 5) == pytest.approx(-math.log(6.0), rel=1e-12)
