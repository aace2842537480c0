import math

import numpy as np
import pytest

from sigmaflow import taylor as ty
from sigmaflow.taylor import TaylorDomainError, TaylorScalar, context


def central_fd(f, x, order, h):
    """Plain central differences, the independent derivative oracle."""
    if order == 0:
        return f(x)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h ** 3)
    if order == 4:
        return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h)
                + f(x - 2 * h)) / h ** 4
    raise ValueError(order)


UNIVARIATE = [
    (ty.exp, math.exp, 0.3),
    (ty.log, math.log, 0.7),
    (ty.sin, math.sin, 0.4),
    (ty.cos, math.cos, 0.4),
    (ty.sinh, math.sinh, 0.2),
    (ty.cosh, math.cosh, 0.2),
    (ty.tanh, math.tanh, 0.35),
    (ty.sqrt, math.sqrt, 1.3),
    (ty.recip, lambda v: 1.0 / v, 0.8),
]


@pytest.mark.parametrize("tf,ff,x0", UNIVARIATE)
def test_univariate_against_finite_differences(tf, ff, x0):
    t = context(1).variable(0, x0)
    out = tf(t)
    for order in range(5):
        h = 2e-2 if order >= 3 else 1e-3
        fd = central_fd(ff, x0, order, h)
        tol = 5e-3 if order >= 3 else 5e-5
        assert out.derivative((order,)) == pytest.approx(fd, rel=tol, abs=tol)


def _random_scalar(ctx, rng, shift=0.0):
    c = rng.standard_normal(ctx.ncoef)
    c[0] += shift
    return TaylorScalar(ctx, c)


def test_product_rule_is_exact():
    rng = np.random.default_rng(3)
    ctx = context(3)
    low = ctx.degree <= ty.MAX_ORDER - 1
    for _ in range(50):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng)
        for i in range(3):
            lhs = (a * b).deriv(i)
            rhs = a.deriv(i) * b + a * b.deriv(i)
            # one order is lost by differentiation; compare the valid part
            assert np.allclose(lhs.c[low], rhs.c[low], rtol=1e-12, atol=1e-12)


def test_chain_rule_mixed_partials():
    x0, y0 = 0.3, -0.2
    ctx = context(2)
    x = ctx.variable(0, x0)
    y = ctx.variable(1, y0)
    f = ty.exp(x * y) * ty.sin(x + 2 * y)

    def scalar(u, v):
        return math.exp(u * v) * math.sin(u + 2 * v)

    h = 1e-3
    fd_xy = (scalar(x0 + h, y0 + h) - scalar(x0 + h, y0 - h)
             - scalar(x0 - h, y0 + h) + scalar(x0 - h, y0 - h)) / (4 * h * h)
    assert f.derivative((1, 1)) == pytest.approx(fd_xy, rel=1e-4, abs=1e-6)
    assert f.derivative((0, 0)) == pytest.approx(scalar(x0, y0), rel=1e-14)
    fd_x = (scalar(x0 + h, y0) - scalar(x0 - h, y0)) / (2 * h)
    assert f.derivative((1, 0)) == pytest.approx(fd_x, rel=1e-5)


def test_quotient_matches_reciprocal_product():
    ctx = context(2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = _random_scalar(ctx, rng)
        b = _random_scalar(ctx, rng, shift=4.0)
        q = a / b
        assert np.allclose(q.c, (a * ty.recip(b)).c, rtol=1e-12, atol=1e-13)
        assert np.allclose((q * b).c, a.c, rtol=1e-11, atol=1e-11)


def test_integer_powers_by_repeated_multiplication():
    t = context(1).variable(0, -0.7)
    p = t * t * t - 2 * t
    assert np.allclose(ty.power(p, 3).c, (p * p * p).c, rtol=1e-13, atol=1e-13)
    inv2 = ty.power(p, -2)
    one = p.ctx.constant(1.0)
    assert np.allclose((inv2 * p * p).c, one.c, rtol=1e-11, atol=1e-11)
    assert np.allclose((p ** 2).c, (p * p).c, rtol=1e-13, atol=1e-13)


def test_fractional_power_matches_exp_log():
    t = context(1).variable(0, 2.3)
    lhs = ty.power(t, 1.5)
    rhs = ty.exp(1.5 * ty.log(t))
    assert np.allclose(lhs.c, rhs.c, rtol=1e-12, atol=1e-12)


def test_log_requires_positive_value():
    t = context(1).variable(0, -1.0)
    with pytest.raises(TaylorDomainError):
        ty.log(t)
    with pytest.raises(TaylorDomainError):
        ty.sqrt(t)
    assert ty.log_abs(t).value == pytest.approx(0.0)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(5)
    ctx = context(3)
    for _ in range(20):
        a = _random_scalar(ctx, rng, shift=3.0)
        assert np.allclose(ty.exp(ty.log(a)).c, a.c, rtol=1e-11, atol=1e-11)


def test_trig_pythagoras_identity():
    ctx = context(2)
    arg = ctx.variable(0, 0.9) + ctx.variable(1, -0.4) ** 2
    unit = ty.sin(arg) ** 2 + ty.cos(arg) ** 2
    expect = np.zeros(ctx.ncoef)
    expect[0] = 1.0
    assert np.allclose(unit.c, expect, atol=1e-13)


def test_derivative_coefficient_convention():
    # stored coefficient is the partial divided by alpha!
    x = context(1).variable(0, 0.0)
    f = ty.power(x, 4)
    assert f.derivative((4,)) == pytest.approx(24.0)
    assert f.c[f.ctx.index_of[(4,)]] == pytest.approx(1.0)


def test_dimension_bounds():
    with pytest.raises(ValueError):
        context(0)
    with pytest.raises(ValueError):
        context(ty.MAX_DIM + 1)


def test_context_orders():
    for bad in (1, 5):
        with pytest.raises(ValueError):
            context(4, bad)
    assert context(4) is context(4, 4) is context(4, order=4)
    for order, ncoef in ((2, 15), (3, 35), (4, 70)):
        ctx = context(4, order)
        assert (ctx.order, ctx.ncoef) == (order, ncoef)
        # sorted by total degree: each order's indices lead the next one's
        assert ctx.indices == context(4).indices[:ncoef]


def test_lower_order_products_are_the_order_4_prefix():
    rng = np.random.default_rng(7)
    full = context(3)
    for order in (2, 3):
        ctx = context(3, order)
        for _ in range(10):
            a, b = rng.standard_normal((2, full.ncoef))
            low = ctx.mul(a[:ctx.ncoef], b[:ctx.ncoef])
            assert np.array_equal(low, full.mul(a, b)[:ctx.ncoef])
            x = TaylorScalar(ctx, a[:ctx.ncoef], trusted=order) + 1.5
            assert np.array_equal(ty.exp(x).c,
                                  ty.exp(TaylorScalar(full, a) + 1.5).c[:ctx.ncoef])


def test_trust_budget():
    ctx = context(2, 2)
    x, y = ctx.variable(0, 0.3), ctx.variable(1, -0.2)
    assert x.trusted == ctx.constant(1.0).trusted == TaylorScalar(ctx, x.c).trusted == 2
    f = ty.sin(x * y) + x
    assert f.trusted == 2
    d = f.deriv(0)
    assert d.trusted == 1 and (d * f).trusted == (f - d).trusted == ty.exp(d).trusted == 1
    # d/dy (y cos(xy) + 1) = cos(xy) - xy sin(xy), read within the budget
    assert d.derivative((0, 1)) == pytest.approx(math.cos(0.06) - 0.06 * math.sin(0.06),
                                                 rel=1e-12)
    with pytest.raises(ty.TaylorTrustError):
        d.derivative((1, 1))
    dd = d.deriv(1).deriv(0)
    assert dd.trusted == -1
    with pytest.raises(ty.TaylorTrustError):
        dd.value
    with pytest.raises(ty.TaylorTrustError):
        x + context(2, 4).variable(0, 0.3)
    with pytest.raises(ty.TaylorTrustError):
        x * context(2, 3).variable(0, 0.3)
