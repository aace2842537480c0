import inspect
import math
import re

import numpy as np
import pytest

from oracles import (loop_conformal_base, loop_conformal_ricci, loop_conformal_schouten,
                     loop_curvature)
from sigmaflow import expr as ex
from sigmaflow import models, sigma, taylor
from sigmaflow.curvature import (GeometryError, MetricChart, _d, curvature_at,
                                 curvature_taylor, kulkarni_nomizu, taylor_metric, values)
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import log_quotient, sigma_taylor
from sigmaflow.taylor import TaylorTrustError
from sigmaflow.tensor import TensorValue
from test_batched import BUILTINS, charts


def chart_from_strings(rows, domain=None):
    n = len(rows)
    return MetricChart(
        dim=n,
        comps=[[ex.parse(s) for s in row] for row in rows],
        domain=tuple(domain or [(-1.0, 1.0)] * n),
    )


# -- finite-difference oracle (independent of the Taylor pipeline) ---------


def fd_christoffel(chart, x, h=1e-5):
    n = chart.dim
    g = chart.metric_values(x)
    ginv = np.linalg.inv(g)
    dg = np.zeros((n, n, n))  # dg[m, i, j] = d_m g_ij
    for m in range(n):
        xp, xm = list(x), list(x)
        xp[m] += h
        xm[m] -= h
        dg[m] = (chart.metric_values(xp) - chart.metric_values(xm)) / (2 * h)
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, m] * (dg[i, m, j] + dg[j, m, i] - dg[m, i, j])
                    for m in range(n))
    return gamma


def fd_riemann_lowered(chart, x, h=1e-4):
    n = chart.dim
    g = chart.metric_values(x)
    gamma = fd_christoffel(chart, x)
    dgamma = np.zeros((n, n, n, n))  # dgamma[m, k, i, j] = d_m Gamma^k_ij
    for m in range(n):
        xp, xm = list(x), list(x)
        xp[m] += h
        xm[m] -= h
        dgamma[m] = (fd_christoffel(chart, xp) - fd_christoffel(chart, xm)) / (2 * h)
    up = np.zeros((n, n, n, n))  # R^r_{s m n}
    for r in range(n):
        for s in range(n):
            for m in range(n):
                for nn in range(n):
                    up[r, s, m, nn] = (
                        dgamma[m, r, nn, s] - dgamma[nn, r, m, s]
                        + sum(gamma[r, m, p] * gamma[p, nn, s]
                              - gamma[r, nn, p] * gamma[p, m, s]
                              for p in range(n)))
    return np.einsum("ir,rsmn->ismn", g, up), up


def weyl(tc):
    """W = Rm - A ⊠ g from the value parts of the record ``tc``."""
    a, g = (TensorValue(tc.dim, (0, 2), values(t)) for t in (tc.schouten, tc.g))
    return values(tc.riemann) - kulkarni_nomizu(a, g).components


SPHERE3 = [
    ["4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0" for j in range(3)]
    for i in range(3)
]


def test_flat_metric_everything_vanishes():
    chart = chart_from_strings([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    tc = curvature_at(chart, [0.2, -0.5, 0.8])
    assert np.max(np.abs(values(tc.christoffel))) == 0.0
    assert np.max(np.abs(values(tc.riemann))) == 0.0
    assert tc.scalar.value == 0.0
    assert np.max(np.abs(values(tc.cotton))) == 0.0


def test_polar_coordinates_flat_plane():
    # ds^2 = dr^2 + r^2 dphi^2 is flat but has nonzero Christoffel symbols
    chart = chart_from_strings([["1", "0"], ["0", "x1^2"]],
                               domain=[(0.5, 2.0), (0.0, 6.0)])
    tc = curvature_at(chart, [1.3, 2.0])
    assert values(tc.christoffel)[0, 1, 1] == pytest.approx(-1.3, rel=1e-12)
    assert values(tc.christoffel)[1, 0, 1] == pytest.approx(1 / 1.3, rel=1e-12)
    assert np.max(np.abs(values(tc.riemann))) < 1e-12


def test_christoffel_against_finite_differences():
    rows = [
        ["exp(x1) + x2^2", "x1*x2/4", "0"],
        ["x1*x2/4", "2 + sin(x1)^2", "x3/8"],
        ["0", "x3/8", "3 + cos(x2)"],
    ]
    chart = chart_from_strings(rows)
    x = [0.3, -0.4, 0.5]
    tc = curvature_at(chart, x)
    oracle = fd_christoffel(chart, x)
    assert np.max(np.abs(values(tc.christoffel) - oracle)) < 1e-8


def test_riemann_against_finite_differences():
    rows = [
        ["1 + x2^2/4", "0", "0"],
        ["0", "1 + x1^2/4", "0"],
        ["0", "0", "1 + x1^2/8 + x2^2/8"],
    ]
    chart = chart_from_strings(rows)
    x = [0.25, -0.35, 0.15]
    tc = curvature_at(chart, x)
    lowered, _ = fd_riemann_lowered(chart, x)
    assert np.max(np.abs(values(tc.riemann) - lowered)) < 1e-6


def test_round_sphere_constant_curvature():
    chart = chart_from_strings(SPHERE3, domain=[(-0.9, 0.9)] * 3)
    for x in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.7, 0.1, -0.6]):
        tc = curvature_at(chart, x)
        assert tc.scalar.value == pytest.approx(6.0, rel=1e-11)
        assert np.max(np.abs(values(tc.ricci) - 2 * values(tc.g))) < 1e-11
        assert np.max(np.abs(values(tc.schouten) - 0.5 * values(tc.g))) < 1e-11
        # space form: Rm_ijkl = g_ik g_jl - g_il g_jk
        g = values(tc.g)
        rm = (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))
        assert np.max(np.abs(values(tc.riemann) - rm)) < 1e-10
        assert np.max(np.abs(values(tc.cotton))) < 1e-10
        assert np.max(np.abs(weyl(tc))) < 1e-10


def test_hyperbolic_constant_curvature():
    model = models.hyperbolic(4)
    x = [0.1, -0.2, 0.15, 0.05]
    tc = curvature_at(model.chart, x)
    assert tc.scalar.value == pytest.approx(-12.0, rel=1e-11)
    assert np.max(np.abs(values(tc.ricci) + 3 * values(tc.g))) < 1e-10


def test_riemann_symmetries_generic_metric():
    rows = [
        ["exp(x3/3)", "x1*x2/5", "0"],
        ["x1*x2/5", "2 + x3^2/3", "sin(x1)/7"],
        ["0", "sin(x1)/7", "1 + x1^2/2"],
    ]
    chart = chart_from_strings(rows)
    tc = curvature_at(chart, [0.4, 0.3, -0.2])
    rm = values(tc.riemann)
    scale = np.max(np.abs(rm))
    assert np.max(np.abs(rm + np.swapaxes(rm, 0, 1))) < 1e-11 * scale
    assert np.max(np.abs(rm + np.swapaxes(rm, 2, 3))) < 1e-11 * scale
    assert np.max(np.abs(rm - np.transpose(rm, (2, 3, 0, 1)))) < 1e-11 * scale
    # first Bianchi
    bianchi = rm + np.transpose(rm, (0, 2, 3, 1)) + np.transpose(rm, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-11 * scale
    # Ricci is symmetric and the trace of Riemann
    assert np.max(np.abs(values(tc.ricci) - values(tc.ricci).T)) < 1e-11 * scale
    tr = np.einsum("ij,ikjl->kl", values(tc.ginv), rm)
    assert np.max(np.abs(values(tc.ricci) - tr)) < 1e-10 * scale


def test_weyl_is_totally_trace_free():
    rows = [
        ["1 + x2^2/3", "0", "0", "0"],
        ["0", "1 + x3^2/3", "0", "0"],
        ["0", "0", "1 + x4^2/3", "0"],
        ["0", "0", "0", "1 + x1^2/3"],
    ]
    chart = chart_from_strings(rows)
    tc = curvature_at(chart, [0.3, 0.2, -0.4, 0.1])
    for axes in ((0, 2), (0, 3), (1, 2), (1, 3)):
        tr = np.einsum("ij,ij...->...", values(tc.ginv),
                       np.moveaxis(weyl(tc), axes, (0, 1)))
        assert np.max(np.abs(tr)) < 1e-10


def test_weyl_tensor_is_conformally_invariant():
    # W^i_jkl of e^{2w} g equals that of g at the same point, on a chart that
    # is not conformally flat (W != 0)
    rows = [
        ["2 + sin(x2)/3", "0", "0", "0"],
        ["0", "1 + x1^2/5", "x3/9", "0"],
        ["0", "x3/9", "3", "0"],
        ["0", "0", "0", "1 + x2^2/7"],
    ]
    w = "x1*x2/3 + sin(x3)/5 - x4^2/4"
    conformal = [[f"exp(2*({w}))*({c})" for c in row] for row in rows]
    x = [0.2, 0.4, -0.3, 0.5]
    up = []
    for chart_rows in (rows, conformal):
        tc = curvature_at(chart_from_strings(chart_rows), x)
        up.append(np.einsum("im,mjkl->ijkl", values(tc.ginv), weyl(tc)))
    scale = np.max(np.abs(up[0]))
    assert scale > 1e-2
    assert np.max(np.abs(up[1] - up[0])) < 1e-12 * scale


def test_kulkarni_nomizu_sectional_pattern():
    g = TensorValue(3, (0, 2), np.eye(3))
    half = kulkarni_nomizu(g, g).components * 0.5
    assert half[0, 1, 0, 1] == pytest.approx(1.0)
    assert half[0, 1, 1, 0] == pytest.approx(-1.0)
    assert half[0, 1, 0, 2] == pytest.approx(0.0)


def test_cotton_vanishes_for_conformally_flat():
    # any conformal factor on flat space has zero Cotton tensor in dim 3
    rows = [["exp(2*sin(x1)*x2)" if i == j else "0" for j in range(3)]
            for i in range(3)]
    chart = chart_from_strings(rows)
    tc = curvature_at(chart, [0.35, 0.25, -0.45])
    assert np.max(np.abs(values(tc.cotton))) < 1e-10


def test_cotton_antisymmetry_first_pair():
    rows = [
        ["1 + x2^2", "0", "0"],
        ["0", "2 + sin(x3)", "0"],
        ["0", "0", "1 + exp(x1)/4"],
    ]
    chart = chart_from_strings(rows)
    tc = curvature_at(chart, [0.2, -0.1, 0.3])
    c = values(tc.cotton)
    assert np.max(np.abs(c)) > 1e-4  # genuinely non conformally flat
    assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) < 1e-12
    # trace over the antisymmetric pair vanishes
    assert np.max(np.abs(np.einsum("ij,ijk->k", values(tc.ginv), c))) < 1e-10


def test_order_3_cotton_is_the_jet_ring_cotton():
    # order 3 forms Cotton from value parts; it equals, sign of a zero aside,
    # the jet-ring Cotton nabla A - (nabla A)^T of the same record
    for name in (*BUILTINS, "sphere:8", "hyperbolic:6", "example4:6"):
        chart = models.builtin(name).chart
        pts = chart_probes(chart, 5, seed=7)
        for x in (pts[0], pts, pts[:0]):
            tc = curvature_taylor(chart, x, order=3)
            da = tc.cov_deriv_02(tc.schouten)
            what = (name, x.shape)
            assert tc.cotton.shape == (chart.dim,) * 3, what
            assert all(s.trusted == 0 for s in tc.cotton.flat), what
            assert np.array_equal(values(tc.cotton) + 0.0,
                                  values(da - da.transpose(1, 0, 2)) + 0.0), what


def test_second_bianchi_contracted():
    # div Ric = dR/2 via the Taylor pipeline
    rows = [
        ["1 + x2^2/3", "0", "0"],
        ["0", "1 + x3^2/4", "0"],
        ["0", "0", "2 + sin(x1)/3"],
    ]
    chart = chart_from_strings(rows)
    x = [0.3, 0.2, -0.25]
    tc = curvature_taylor(chart, x)
    from sigmaflow.curvature import values
    div_ric = values(tc.div_endomorphism(
        np.array([[sum(tc.ginv[i, k] * tc.ricci[k, j] for k in range(3))
                   for j in range(3)] for i in range(3)], dtype=object)))
    d_scalar = np.array([tc.scalar.deriv(m).value for m in range(3)])
    assert np.max(np.abs(div_ric - 0.5 * d_scalar)) < 1e-11


def test_killing_field_lie_derivative_vanishes():
    # rotation field on the round 3-sphere chart
    chart = chart_from_strings(SPHERE3, domain=[(-0.9, 0.9)] * 3)
    x = [0.3, -0.1, 0.4]
    tc = curvature_taylor(chart, x, order=2)
    xv = np.array([tc.jet(c) for c in ["-x2", "x1", "0"]], dtype=object)
    assert np.max(np.abs(values(tc.lie_metric(xv)))) < 1e-12
    assert tc.div_vector(xv).value == pytest.approx(0.0, abs=1e-12)


def test_hessian_and_laplacian_flat():
    chart = chart_from_strings([["1", "0"], ["0", "1"]])
    x = [0.6, -0.3]
    tc = curvature_taylor(chart, x, order=2)
    f = tc.jet("x1^2*x2 + x2^3")
    assert np.allclose(values(tc.hessian_scalar(f)),
                       [[2 * x[1], 2 * x[0]], [2 * x[0], 6 * x[1]]],
                       atol=1e-12)
    assert tc.laplacian_scalar(f).value == pytest.approx(2 * x[1] + 6 * x[1], rel=1e-12)
    assert np.allclose(values(tc.grad_scalar(f)), [2 * x[0] * x[1], x[0] ** 2 + 3 * x[1] ** 2],
                       atol=1e-12)


def test_non_positive_definite_metric_rejected():
    with pytest.raises(GeometryError):
        chart_from_strings([["x1", "0"], ["0", "1"]],
                           domain=[(-1.0, 1.0), (-1.0, 1.0)])
    # indefinite only at the probe-grid corner (0.9, 0.9); the error names it
    with pytest.raises(GeometryError, match=r"\[0\.9, 0\.9\]"):
        chart_from_strings([["1", "0"], ["0", "1.5 - x1 - x2"]])


def test_a_component_undefined_on_the_check_grid_names_itself_and_its_point():
    # a GeometryError that names the component and the point; the grid is
    # 3 points per axis, -0.9, 0 and 0.9 on [-1, 1]
    with pytest.raises(GeometryError, match=re.escape(
            "metric component (0,0): log(x1): "
            "log of non-positive value -0.9 at [-0.9, -0.9]")) as err:
        chart_from_strings([["1 + log(x1)", "0"], ["0", "1"]])
    assert isinstance(err.value.__cause__, ex.EvalError)
    # a lower component is evaluated for the symmetry check, and named too
    with pytest.raises(GeometryError, match=re.escape(
            "metric component (1,0): sqrt(0.5 - x1): "
            "sqrt of non-positive value -0.4 at [0.9, -0.9]")):
        chart_from_strings([["2", "0"], ["0 * sqrt(0.5 - x1)", "2"]])
    # an overflow names the first grid point where the component leaves the
    # double range: x1 = 0.9 of -0.9, 0, 0.9
    with pytest.raises(GeometryError, match=re.escape(
            "metric component (0,0): exp(1000 * x1): overflow encountered in exp "
            "at [0.9, -0.9]")):
        chart_from_strings([["1 + exp(1000 * x1)", "0"], ["0", "1"]])


def test_taylor_metric_names_the_first_failing_probe():
    # log(1 - x1) is defined on the check grid x1 = -28.4, -14, 0.4, not at x1 >= 1
    chart = chart_from_strings([["1", "0"], ["0", "1 + log(1 - x1)"]],
                               domain=[(-30.0, 2.0), (-2.0, 2.0)])
    pts = np.array([[0.1, 0.2], [1.5, 1.0], [1.8, 1.0]])
    with pytest.raises(GeometryError, match=re.escape(
            "metric component (1,1): log(1 - x1): "
            "log of non-positive value -0.5 at [1.5, 1.0]")) as err:
        taylor_metric(chart, pts, order=2)
    assert err.value.__cause__.probe == 1


def test_taylor_metric_equals_one_walk_per_entry():
    # the metric's shared context, coordinate jets and ring give every entry
    # the jet that a walk of its own gives, in trust, shape and bytes
    for name in BUILTINS + ("sphere:8", "hyperbolic:6", "example4:6"):
        chart = models.builtin(name).chart
        pts = chart_probes(chart, 5, seed=6)
        for order in (2, 3, 4):
            for x in (pts[0], pts, pts[:0]):
                g = taylor_metric(chart, x, order)
                for i, j in np.ndindex(g.shape):
                    want = ex.eval_taylor(chart.comps[i][j], x, order=order)
                    got, what = g[i, j], (name, order, x.shape, i, j)
                    assert got.trusted == want.trusted, what
                    assert got.c.shape == want.c.shape, what
                    assert got.c.tobytes() == want.c.tobytes(), what


def test_a_later_entry_names_itself_where_it_fails():
    # (0,0) is defined everywhere; (0,1), the second entry walked, is defined
    # on the check grid x1 = -28.4, -14, 0.4 and not at x1 >= 1
    chart = chart_from_strings([["2 + x1^2", "0.1 * log(1 - x1)"],
                                ["0.1 * log(1 - x1)", "1 + x2^2"]],
                               domain=[(-30.0, 2.0), (-2.0, 2.0)])
    text = re.escape("metric component (0,1): log(1 - x1): "
                     "log of non-positive value -0.5 at [1.5, 1.0]")
    pts = np.array([[0.1, 0.2], [1.5, 1.0], [1.8, 1.0]])
    for order in (2, 3, 4):
        for x, probe in ((pts[1], None), (pts, 1)):
            for run in (taylor_metric, curvature_taylor):
                with pytest.raises(GeometryError, match=f"^{text}$") as err:
                    run(chart, x, order)
                assert err.value.__cause__.probe == probe, (order, x.shape, run)


def test_kulkarni_nomizu_takes_two_02_tensors_of_one_dimension():
    a = TensorValue(3, (0, 2), np.eye(3))
    with pytest.raises(ValueError, match=re.escape("kulkarni_nomizu expects (0,2) tensors")):
        kulkarni_nomizu(a, TensorValue(3, (1, 1), np.eye(3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        kulkarni_nomizu(a, TensorValue(4, (0, 2), np.eye(4)))


def test_asymmetric_metric_rejected():
    with pytest.raises(GeometryError):
        chart_from_strings([["1", "x1"], ["0", "1"]])


def test_chart_checks_dimension_shape_and_domain():
    rows = [["1", "0"], ["0", "1"]]
    for domain in ([(1.0, -1.0)] * 2, [(0.0, 0.0)] * 2, [(math.nan, 1.0)] * 2,
                   [(-math.inf, 1.0)] * 2, [(-1.0, 1.0)], "ab", [(None, 1.0)] * 2):
        with pytest.raises(GeometryError, match="domain"):
            MetricChart(2, rows, domain)
    with pytest.raises(GeometryError, match="chart dimension"):
        MetricChart(2.0, rows, [(-1.0, 1.0)] * 2)
    with pytest.raises(GeometryError, match="2x2"):
        MetricChart(2, rows[:1], [(-1.0, 1.0)] * 2)


def test_the_dimension_rule_reads_alike_on_the_chart_and_its_class():
    # a static method: a bare functools.partial in a class body becomes a
    # method descriptor in newer Pythons, and the instance read would pass self
    assert isinstance(inspect.getattr_static(MetricChart, "check_dimension"), staticmethod)
    chart = chart_from_strings([["1", "0"], ["0", "1"]])
    for rule in (chart.check_dimension, MetricChart.check_dimension):
        rule(2)
        with pytest.raises(GeometryError,
                           match=r"^chart dimension must be an integer in 2\.\.8, got 9$"):
            rule(9)


def test_point_outside_domain():
    chart = chart_from_strings([["1", "0"], ["0", "1"]])
    with pytest.raises(GeometryError, match=r"^point outside chart domain at \[2\.0, 0\.0\]$"):
        chart.check_points([2.0, 0.0])


def test_check_points_takes_points_of_the_chart_dimension():
    # one point (n,) or a batch (P, n); any other shape names itself
    chart = models.sphere(3).chart
    for x in ([0.1, 0.2, 0.3], np.zeros((2, 3))):
        assert np.array_equal(chart.check_points(x), x)
    for x in ([0.1, 0.2], [0.1, 0.2, 0.3, 5.0], np.zeros((2, 2, 3)), 0.1):
        what = re.escape(f"points of shape {np.shape(x)} for a chart of dimension 3")
        with pytest.raises(GeometryError, match=f"^{what}$"):
            chart.check_points(x)


def test_order_two_pipeline_refuses_untrusted_reads():
    # a program fault, not bad input: no exit code of the CLI maps it
    assert not issubclass(TaylorTrustError, (GeometryError, ex.EvalError))
    chart = models.sphere(4).chart
    x = [0.2, -0.1, 0.3, 0.15]
    tc = curvature_taylor(chart, x, order=2)
    assert tc.order == 2 and tc.cotton is None
    assert tc.scalar.value == pytest.approx(12.0, rel=1e-12)  # values are trusted
    with pytest.raises(TaylorTrustError):
        tc.scalar.deriv(0).value
    with pytest.raises(TaylorTrustError):
        tc.laplacian_scalar(log_quotient(sigma_taylor(tc), 2, 1)).value
    with pytest.raises(TaylorTrustError):
        tc.riemann[0, 1, 0, 1].derivative((1, 1, 0, 0))
    with pytest.raises(TaylorTrustError):
        tc.scalar + curvature_taylor(chart, x).scalar  # orders 2 and 4


# -- contractions against index loops --------------------------------------

ORACLE_TOL = 1e-13
PIPELINE_FIELDS = ("g", "ginv", "christoffel", "riemann", "ricci", "scalar", "schouten",
                   "endo", "cotton")


def assert_jets_close(got, want, what):
    """Equal trusted orders and, in every trusted coefficient, agreement to
    ORACLE_TOL x max(1, |v|); a constant broadcasts against a batch."""
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape, what
    for idx in np.ndindex(want.shape):
        a, b = got[idx], want[idx]
        assert a.trusted == b.trusted, (what, idx)
        keep = b.ctx.degree <= b.trusted
        ca, cb = np.broadcast_arrays(a.c[..., keep], b.c[..., keep])
        assert np.all(np.abs(ca - cb) <= ORACLE_TOL * np.maximum(1.0, np.abs(cb))), (what, idx)


def test_contractions_match_the_index_loops():
    # every pipeline field and every covariant operator equals the index-loop
    # reference of tests/oracles.py, on charts with and without off-diagonal
    # metric terms, at every order, at one point and on a 16-probe batch
    f = ex.parse("exp(0.3*x1)*cos(x2) + x2*x3^2")
    phi = "exp(0.1*x1 + 0.2*sin(x2))"
    for name, chart in charts():
        n = chart.dim
        field = [ex.parse(f"sin({0.2 * (i + 1)}*x{i + 1}) + x{(i + 1) % n + 1}^2")
                 for i in range(n)]
        points = chart_probes(chart, 16, seed=3)
        for order in (2, 3, 4):
            for x in (points[0], points):
                what = (name, order, x.shape)
                tc, ref = curvature_taylor(chart, x, order), loop_curvature(chart, x, order)
                for fld in PIPELINE_FIELDS:
                    if getattr(tc, fld) is None:
                        assert order == 2 and fld == "cotton", what
                        continue
                    assert_jets_close(getattr(tc, fld), getattr(ref, fld), what + (fld,))
                s = ex.eval_taylor(f, x, order=order)
                xv = np.array([ex.eval_taylor(c, x, order=order) for c in field], dtype=object)
                t = np.multiply.outer(xv, _d(s))  # neither symmetric nor trace-free
                for op, arg in [("cov_deriv_02", t), ("grad_scalar", s),
                                ("hessian_scalar", s), ("laplacian_scalar", s),
                                ("lie_metric", xv), ("div_vector", xv),
                                ("div_endomorphism", t)]:
                    assert_jets_close(getattr(tc, op)(arg), getattr(ref, op)(arg), what + (op,))
                w = taylor.log(ex.eval_taylor(ex.parse(phi), x, order=order))
                hess, dw, grad2 = loop_conformal_base(ref, w)
                want = loop_conformal_schouten(ref, hess, dw, grad2)
                dw_t = _d(w)
                got = sigma._conformal_schouten_taylor(
                    tc.schouten, tc.g, tc.hessian_scalar(w), dw_t,
                    np.einsum("ij,i,j->", tc.ginv, dw_t, dw_t))
                assert_jets_close(got, want, what + ("conformal_schouten",))
                if x.ndim == 1 and order == 2:  # the conformal laws' own pipeline
                    got2 = sigma._conformal_base(chart, x, phi)[3]  # the value of |dw|^2
                    assert abs(got2 - grad2.value) <= ORACLE_TOL * max(1.0, abs(grad2.value)), \
                        what + ("|dw|^2",)
                    ricci = loop_conformal_ricci(ref, w, hess, dw, grad2)
                    for law, want in [(sigma.conformal_schouten, want),
                                      (sigma.conformal_ricci, ricci)]:
                        got, want = law(chart, x, phi).components, values(want)
                        assert np.all(np.abs(got - want)
                                      <= ORACLE_TOL * np.maximum(1.0, np.abs(want))), \
                            what + (law.__name__,)
