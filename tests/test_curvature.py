import math

import numpy as np
import pytest

from oracles import (loop_conformal_base, loop_conformal_ricci, loop_conformal_schouten,
                     loop_curvature)
from sigmaflow import expr as ex
from sigmaflow import models, sigma, taylor
from sigmaflow.curvature import (GeometryError, MetricChart, _d, covariant_ops,
                                 curvature_at, curvature_taylor,
                                 kulkarni_nomizu, values)
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import log_quotient_taylor
from sigmaflow.taylor import TaylorTrustError
from sigmaflow.tensor import TensorValue
from test_batched import charts


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
        tr = np.einsum("ij,...->...", values(tc.ginv),
                       np.moveaxis(weyl(tc), axes, (0, 1)))
        tr = np.einsum("ij,ij...->...", values(tc.ginv),
                       np.moveaxis(weyl(tc), axes, (0, 1)))
        assert np.max(np.abs(tr)) < 1e-10


def test_weyl_plus_schouten_product_reconstructs_riemann():
    rows = [
        ["2 + sin(x2)/3", "0", "0", "0"],
        ["0", "1 + x1^2/5", "x3/9", "0"],
        ["0", "x3/9", "3", "0"],
        ["0", "0", "0", "1 + x2^2/7"],
    ]
    chart = chart_from_strings(rows)
    tc = curvature_at(chart, [0.2, 0.4, -0.3, 0.5])
    a = TensorValue(4, (0, 2), values(tc.schouten))
    g = TensorValue(4, (0, 2), values(tc.g))
    kn = kulkarni_nomizu(a, g).components
    assert np.max(np.abs(values(tc.riemann) - (weyl(tc) + kn))) < 1e-10


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
    ops = covariant_ops(chart, x, X=["-x2", "x1", "0"])
    assert np.max(np.abs(ops.lie_g)) < 1e-12
    assert ops.divergence == pytest.approx(0.0, abs=1e-12)


def test_hessian_and_laplacian_flat():
    chart = chart_from_strings([["1", "0"], ["0", "1"]])
    x = [0.6, -0.3]
    ops = covariant_ops(chart, x, f="x1^2*x2 + x2^3")
    assert np.allclose(ops.hessian,
                       [[2 * x[1], 2 * x[0]], [2 * x[0], 6 * x[1]]],
                       atol=1e-12)
    assert ops.laplacian == pytest.approx(2 * x[1] + 6 * x[1], rel=1e-12)
    assert np.allclose(ops.gradient, [2 * x[0] * x[1], x[0] ** 2 + 3 * x[1] ** 2],
                       atol=1e-12)


def test_non_positive_definite_metric_rejected():
    with pytest.raises(GeometryError):
        chart_from_strings([["x1", "0"], ["0", "1"]],
                           domain=[(-1.0, 1.0), (-1.0, 1.0)])
    # indefinite only at the probe-grid corner (0.9, 0.9); the error names it
    with pytest.raises(GeometryError, match=r"\[0\.9, 0\.9\]"):
        chart_from_strings([["1", "0"], ["0", "1.5 - x1 - x2"]])


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


def test_point_outside_domain():
    chart = chart_from_strings([["1", "0"], ["0", "1"]])
    assert not chart.contains([2.0, 0.0])


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
        tc.laplacian_scalar(log_quotient_taylor(tc, 2, 1)).value
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
                    tc, tc.hessian_scalar(w), dw_t, np.einsum("ij,i,j->", tc.ginv, dw_t, dw_t))
                assert_jets_close(got, want, what + ("conformal_schouten",))
                if x.ndim == 1 and order == 2:  # the conformal laws' own pipeline
                    assert_jets_close(sigma._conformal_base(chart, x, phi)[4], grad2,
                                      what + ("|dw|^2",))
                    ricci = loop_conformal_ricci(ref, w, hess, dw, grad2)
                    for law, want in [(sigma.conformal_schouten, want),
                                      (sigma.conformal_ricci, ricci)]:
                        got, want = law(chart, x, phi).components, values(want)
                        assert np.all(np.abs(got - want)
                                      <= ORACLE_TOL * np.maximum(1.0, np.abs(want))), \
                            what + (law.__name__,)
