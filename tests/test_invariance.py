"""Coordinate invariance over dense charts.

A builtin metric g, diagonal or block-diagonal, is pulled back by
phi(x) = x + eps Q(x), with Q a random quadratic polynomial, to the dense
chart g~ = Dphi^T (g o phi) Dphi, built as expressions with
``oracles.substitute`` and ``oracles.differentiate``.  Curvature scalars
are invariant under diffeomorphisms (do Carmo, *Riemannian Geometry*,
ch. 4), so at random points x each of these, computed in g~ at x, must
equal its value in g at phi(x):
- R, |Rm|^2, |Ric|^2, |W|^2 and |C|^2, all in the metric;
- sigma_0..sigma_n of g^{-1}A;
- the gradient-soliton residual norm |hess f - psi g|, with f o phi and
  lambda o phi;
- |L_X g| for X = grad f, which reaches ``lie_metric`` with a dense X.
Agreement is to 1e-10 relative, or absolute below 1 (|W|^2 and |C|^2
vanish on the conformally flat models).  Only a few models reach the cross
terms of the pipeline in their own charts; here every stage meets them.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import differentiate, substitute
from sigmaflow import expr as ex
from sigmaflow import models
from sigmaflow.curvature import MetricChart, curvature_taylor, kulkarni_nomizu, values
from sigmaflow.sigma import sigma_taylor
from sigmaflow.soliton import SolitonSpec, _gnorm2, _point_data
from sigmaflow.tensor import TensorValue

TOL = 1e-10
MODELS = {3: ("sphere:3", "hyperbolic:3", "warped:cosh:euclidean:2"),
          4: ("sphere:4", "hyperbolic:4", "example4:4", "product_line_sphere:3",
              "warped:cosh:sphere:3"),
          5: ("hyperbolic:5", "example4:5", "warped:cosh:product_line_sphere:3",
              "warped:cosh:warped:cosh:sphere:3"),
          6: ("sphere:6", "example4:6", "warped:cosh:product_line_sphere:4")}
POINTS = 2  # per chart, through one batched pipeline on each side


def pullback(chart: MetricChart, phi, box) -> MetricChart:
    """The chart of phi^* g over ``box``, with terms of equal components of
    g collected: g~_ij = sum over distinct g_ab of (g_ab o phi) times the sum
    of Dphi^a_i Dphi^b_j over the (a, b) where g_ab is that component."""
    n = chart.dim
    jac = [[_fold(differentiate(phi[a], i + 1)) for i in range(n)] for a in range(n)]
    blocks = {}
    for a in range(n):
        for b in range(n):
            if chart.comps[a][b] != ex.Num(0.0):
                blocks.setdefault(chart.comps[a][b], []).append((a, b))

    def entry(i, j):
        terms = []
        for comp, pairs in blocks.items():
            frame = [_fold(ex.Bin("*", jac[a][i], jac[b][j])) for a, b in pairs]
            terms.append(_fold(ex.Bin("*", substitute(comp, phi), _sum(frame))))
        return _sum(terms)

    comps = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            comps[i][j] = comps[j][i] = entry(i, j)
    return MetricChart(n, comps, box)


def _sum(terms):
    out = terms[0]
    for t in terms[1:]:
        out = ex.Bin("+", out, t)
    return _fold(out)


ZERO, ONE = ex.Num(0.0), ex.Num(1.0)


def _fold(e):
    """``e`` without the sums with 0 and products with 0 or 1 that
    ``differentiate`` leaves: the same function from a smaller tree."""
    if not isinstance(e, ex.Bin) or e.op not in "+*":
        return e
    a, b = _fold(e.left), _fold(e.right)
    if e.op == "+":
        return b if a == ZERO else a if b == ZERO else ex.Bin("+", a, b)
    if ZERO in (a, b):
        return ZERO
    return b if a == ONE else a if b == ONE else ex.Bin("*", a, b)


def quadratic(scale: float, half, coefs) -> str:
    """sum scale c (x_b / half_b)(x_d / half_d) over the (c, b, d) of
    ``coefs``, as source text."""
    return " + ".join(f"({scale * c / (half[b] * half[d])!r})*x{b + 1}*x{d + 1}"
                      for c, b, d in coefs)


def invariants(tc, spec) -> np.ndarray:
    """The invariants of the module docstring at each probe of ``tc``, as
    rows of a (P, m) array."""
    ginv, g = values(tc.ginv), values(tc.g)
    rm, ric, sch = values(tc.riemann), values(tc.ricci), values(tc.schouten)
    weyl = rm - np.array([kulkarni_nomizu(TensorValue(tc.dim, (0, 2), a),
                                          TensorValue(tc.dim, (0, 2), b)).components
                          for a, b in zip(sch, g)])
    cot = values(tc.cotton)

    def norm4(t):
        return np.einsum("...ia,...jb,...kc,...ld,...ijkl,...abcd->...",
                         ginv, ginv, ginv, ginv, t, t, optimize=True)

    sq_c = np.einsum("...ia,...jb,...kc,...ijk,...abc->...", ginv, ginv, ginv, cot, cot,
                     optimize=True)
    sig = np.stack([np.broadcast_to(s.value, len(g)) for s in sigma_taylor(tc)], axis=-1)
    _, sk, sl, ok, rnorm, *_ = _point_data(spec, tc)
    assert ok.all(), (sk[~ok], sl[~ok])
    xvec = tc.grad_scalar(tc.jet(spec.potential))
    lie = np.sqrt(_gnorm2(ginv, values(tc.lie_metric(xvec))))
    cols = [tc.scalar.value, norm4(rm), _gnorm2(ginv, ric), norm4(weyl), sq_c, rnorm, lie]
    return np.column_stack([*cols, sig])


@st.composite
def pullbacks(draw):
    n = draw(st.sampled_from((3, 3, 4, 4, 5, 6)))  # n = 6 takes ~0.45 s an example
    model = models.builtin(draw(st.sampled_from(MODELS[n])))
    mid = np.array([0.5 * (lo + hi) for lo, hi in model.chart.domain])
    half = [0.5 * (hi - lo) for lo, hi in model.chart.domain]  # floats, for source text
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    unit = st.floats(-1.0, 1.0)
    terms = draw(st.integers(1, 3))
    eps = draw(st.floats(0.05, 0.2)) / terms
    # on the box mid +- half/2, |eps Q_a| <= half_a / 20 and the rows of
    # eps DQ sum to at most 0.2 max(half) / min(half) < 1, so phi maps the
    # box into the domain and Dphi = I + eps DQ stays invertible
    phi = [ex.parse(f"x{a + 1} + "
                    + quadratic(eps * half[a], half, [(draw(unit), *draw(pair))
                                                      for _ in range(terms)]))
           for a in range(n)]
    box = list(zip(mid - 0.5 * np.array(half), mid + 0.5 * np.array(half)))
    f = quadratic(1.0, half, [(draw(unit), *draw(pair)) for _ in range(3)])
    lam = f"{draw(unit)!r}*x1/{half[0]!r} + {draw(unit)!r}"
    # the model's quotient where it carries soliton data; sigma_0 / sigma_0,
    # which no point violates, on the warped products (sigma_1 vanishes on some)
    k, l = (model.k, model.l) if model.lam is not None else (0, 0)
    spec = SolitonSpec(model.chart, ex.parse(lam), k, l, potential=ex.parse(f))
    offsets = st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n)
    x = mid + np.array(half) * np.array([draw(offsets) for _ in range(POINTS)])
    return model.name, spec, phi, box, x


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pullbacks())
def test_invariants_agree_in_pulled_back_charts(case):
    name, spec, phi, box, x = case
    chart = pullback(spec.chart, phi, box)
    pulled = SolitonSpec(chart, substitute(spec.lam, phi), spec.k, spec.l,
                         potential=substitute(spec.potential, phi))
    image = np.array([[ex.eval_float(p, xi) for p in phi] for xi in x])
    got = invariants(curvature_taylor(chart, x, order=3), pulled)
    want = invariants(curvature_taylor(spec.chart, image, order=3), spec)
    scale = np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= TOL * scale), \
        (name, np.max(np.abs(got - want) / scale, axis=0))


@pytest.mark.parametrize("src", ["x1*x2 - sin(x3)", "exp(x2)/(1 + x1^2)", "x3^x1 + pi"])
def test_substitute_composes(src):
    phi = [ex.parse(s) for s in ("x1 + 0.1*x2^2", "x2 - x3", "2 + x1*x3")]
    x = [0.3, -0.4, 0.7]
    image = [ex.eval_float(p, x) for p in phi]
    composed = ex.eval_float(substitute(ex.parse(src), phi), x)
    assert math.isclose(composed, ex.eval_float(ex.parse(src), image), rel_tol=1e-14)
