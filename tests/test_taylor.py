import itertools
import math
import warnings

import numpy as np
import pytest

from sigmaflow import taylor as ty
from sigmaflow.curvature import _prefix_mul, values
from sigmaflow.taylor import TaylorDomainError, TaylorScalar, context
from test_zeros import materialise_zeros


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


@pytest.mark.parametrize("order", (2, 3, 4))
def test_fractional_powers_keep_their_coefficients_far_from_one(order):
    # the sum runs in w / scale, |w| clipped to [min(v, 1), max(v, 1)]: in w
    # at a tiny value with w = 1, and at a large value with w = 1, where the
    # powers of u = w / v underflow; in u at a large value with a larger w,
    # where the powers of w overflow; in w / |w| at a tiny value whose |w| is
    # tiny too but above it, where v^(p - m) overflows
    ctx = context(1, order)
    powers = ((ty.power(ctx.variable(0, 1e-100), 3.5), 1e-100, 3.5),
              (ty.power(ctx.variable(0, 1e100), 2.5), 1e100, 2.5),
              (ty.sqrt(ctx.variable(0, 1e200)), 1e200, 0.5))
    large = ty.sqrt(ty.exp(300 * ctx.variable(0, 1.0)))
    small = ty.sqrt(ty.exp(-300 * ctx.variable(0, 1.0)))
    for m in range(order + 1):
        cases = [(jet, math.prod(p - j for j in range(m)) * v ** (p - m)) for jet, v, p in powers]
        for jet, want in (*cases, (large, 150.0 ** m * math.exp(150.0)),
                          (small, (-150.0) ** m * math.exp(-150.0))):
            assert jet.derivative((m,)) == pytest.approx(want, rel=1e-13, abs=0), m


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
    with pytest.raises(KeyError, match=r"\(1, 0, 0\) does not fit 2 variables"):
        context(2).variable(0, 0.3).derivative((1, 0, 0))


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
    assert repr(x).startswith("TaylorScalar(dim=2, order=2, trusted=2, c=array([0.3,")
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
    with pytest.raises(ty.TaylorTrustError):  # a composition reads the value part too
        ty.exp(x.deriv(0).deriv(0).deriv(0))
    with pytest.raises(ty.TaylorTrustError):
        x + context(2, 4).variable(0, 0.3)
    with pytest.raises(ty.TaylorTrustError):
        x * context(2, 3).variable(0, 0.3)


RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("op", RING_OPS)
def test_operator_semantics(op):
    ctx = context(2, 3)
    x = ctx.variable(0, 0.3) * ctx.variable(1, -0.2) + 0.7
    low = ctx.variable(1, 0.4).deriv(1) + x           # trusted to 2
    with pytest.raises(ty.TaylorTrustError, match="two contexts"):
        getattr(x, op)(context(2, 4).variable(0, 0.3))
    for number in (2, 2.5, np.float64(-1.5)):
        got, want = getattr(x, op)(number), getattr(x, op)(ctx.constant(float(number)))
        assert got.trusted == want.trusted == 3
        # x / number divides; x / constant multiplies by its reciprocal
        np.testing.assert_allclose(got.c, want.c, rtol=1e-15, atol=0.0)
    for other in ("a", None, [1.0]):
        assert getattr(x, op)(other) is NotImplemented
    assert getattr(x, op)(low).trusted == getattr(low, op)(x).trusted == 2


def test_foreign_operands_raise_type_error():
    x = context(2, 2).variable(0, 0.3)
    for other in ("a", None, [1.0]):
        for fn in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x,
                   lambda: x / other, lambda: other / x):
            with pytest.raises(TypeError):
                fn()


def test_sum_with_a_zero_returns_the_other_jet_when_trust_allows():
    ctx = context(2, 3)
    x = ctx.variable(0, 0.3) + 1.0
    zero = ctx.constant(0.0)
    assert x + zero is x and zero + x is x and x - zero is x and x + 0 is x
    low = zero.deriv(0)                                # trusted to 2
    for s in (x + low, low + x, x - low):
        assert s is not x and s.c is x.c and s.trusted == 2
    assert (zero - x).c is not x.c
    np.testing.assert_array_equal((zero - x).c, -x.c)


def test_a_shared_zero_stays_shared_through_scaling_and_products():
    ctx = context(2, 3)
    zero = ctx.constant(0.0)
    assert zero / 2.0 is zero and zero * 2.0 is zero
    # a zero of one probe broadcasts against a batch of three
    batch = ctx.variable(0, np.array([0.1, 0.2, 0.3]))
    assert (TaylorScalar(ctx, ctx.zero((1,))) * batch).c is ctx.zero((3,))


def test_division_by_the_number_zero_raises():
    ctx = context(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jet in (ctx.variable(0, 0.3), ctx.constant(0.0), ctx.variable(1, np.array([0.1, 0.2]))):
            for zero in (0, 0.0, -0.0, np.float64(0.0)):
                with pytest.raises(TaylorDomainError, match="division by zero"):
                    jet / zero
        with pytest.raises(TaylorDomainError, match="division by a jet with value part 0"):
            ctx.variable(0, 0.3) / ctx.constant(0.0)


def random_jets(ctx, rng, shape, probes=3):
    """An object array of jets: dense ones trusted to a random order, shared
    zeros, and a one-point (C,) or batched (P, C) array for each; the first
    row of a 2-D array is all zeros."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        lead = () if rng.random() < 0.5 else (probes,)
        trusted = int(rng.integers(ctx.order - 2, ctx.order + 1))
        if rng.random() < 0.3 or (len(shape) == 2 and idx[0] == 0):
            out[idx] = TaylorScalar(ctx, ctx.zero(lead), trusted)
        else:
            out[idx] = TaylorScalar(ctx, rng.standard_normal(lead + (ctx.ncoef,)), trusted)
    return out


SHAPES = [((3, 4), (4, 5)), ((3, 4), (4,)), ((4,), (4, 5)), ((4,), (4,))]


@pytest.mark.parametrize("materialised", (False, True))
@pytest.mark.parametrize("shape_a, shape_b", SHAPES)
def test_matmul_is_numpys_object_product_bit_for_bit(shape_a, shape_b, materialised,
                                                     monkeypatch):
    if materialised:
        materialise_zeros(monkeypatch)
    rng = np.random.default_rng(17)
    for dim, order in ((3, 4), (4, 3), (2, 2)):
        ctx = context(dim, order)
        a, b = random_jets(ctx, rng, shape_a), random_jets(ctx, rng, shape_b)
        got = np.asarray(ty.matmul(a, b), dtype=object)
        want = np.asarray(a @ b, dtype=object)
        assert got.shape == want.shape
        for g, w in zip(got.flat, want.flat, strict=True):
            assert g.trusted == w.trusted and g.c.shape == w.c.shape
            assert g.c.tobytes() == w.c.tobytes()
            assert ctx.is_zero(g.c) == ctx.is_zero(w.c)
        # floats, one point's or a (P, n, n) stack's, are summed in the jets'
        # order: the value parts of the product of constant jets, bit for bit
        for lead in ((), (3,)) if len(shape_a) == len(shape_b) == 2 else ((),):
            fa = rng.standard_normal(lead + shape_a)
            fb = rng.standard_normal(lead + shape_b)
            got = ty.matmul(fa, fb)
            want = values(np.asarray(ty.matmul(constant_jets(ctx, fa, lead),
                                                constant_jets(ctx, fb, lead)), dtype=object))
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.allclose(got, fa @ fb, rtol=1e-13, atol=0.0)


def constant_jets(ctx, f, lead):
    """The constant jets of the float array ``f``, one value per probe along
    its ``lead`` axes."""
    shape = f.shape[len(lead):]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        c = np.zeros(lead + (ctx.ncoef,))
        c[..., 0] = f[(...,) + idx]
        out[idx] = TaylorScalar(ctx, c)
    return out


def test_matmul_forms_every_product_through_the_context(count_products):
    ctx = context(3, 3)
    rng = np.random.default_rng(5)
    for (i, j), (_, k) in SHAPES[:1] + [((6, 2), (2, 7))]:
        a, b = random_jets(ctx, rng, (i, j)), random_jets(ctx, rng, (j, k))
        assert count_products(lambda: ty.matmul(a, b)) == [i * j * k]
    x = ctx.variable(0, 0.3)
    with pytest.raises(ty.TaylorTrustError, match="two contexts"):
        ty.matmul(np.array([x, x]), np.array([x, context(3, 4).variable(0, 0.3)]))
    for a, b in ((np.array([x, x]), np.array([x, 1.0], dtype=object)),
                 (np.eye(2), np.array([x, x]))):
        with pytest.raises(TypeError, match="float"):
            ty.matmul(a, b)


def double_loop_tables(dim, order):
    """The context tables as a Python double loop over every pair of
    multi-indices, the reference for the vectorised construction."""
    indices = [a for total in range(order + 1)
               for a in itertools.product(range(total + 1), repeat=dim) if sum(a) == total]
    index_of = {a: i for i, a in enumerate(indices)}
    pairs = [(i, j, index_of[tuple(x + y for x, y in zip(a, b))])
             for i, a in enumerate(indices) for j, b in enumerate(indices)
             if sum(a) + sum(b) <= order]
    deriv = []
    for v in range(dim):
        rows = []
        for i, a in enumerate(indices):
            up = list(a)
            up[v] += 1
            if tuple(up) in index_of:
                rows.append((index_of[tuple(up)], i, a[v] + 1))
        deriv.append(np.array(rows).T)
    factorials = [math.prod(math.factorial(k) for k in a) for a in indices]
    return indices, np.array(pairs).T, deriv, factorials


def test_context_tables_match_the_double_loop():
    for dim in (1, 2, 3, 4, 5, 6, 8):
        for order in (2, 3, 4):
            ctx = context(dim, order)
            indices, (ia, ib, iout), deriv, factorials = double_loop_tables(dim, order)
            assert ctx.indices == indices and ctx.ncoef == len(indices)
            assert all(ctx.index_of[a] == i for i, a in enumerate(indices))
            assert np.array_equal(ctx.degree, [sum(a) for a in indices])
            # the same pairs, stably sorted by the degree of their product
            by_deg = np.argsort(ctx.degree[iout], kind="stable")
            for got, want in zip((ctx._mul_a, ctx._mul_b, ctx._mul_out), (ia, ib, iout)):
                assert np.array_equal(got, want[by_deg]), (dim, order)
            for (src, dst, fac), want in zip(ctx._deriv, deriv):
                assert np.array_equal(np.array([src, dst, fac]), want), (dim, order)
            assert np.array_equal(ctx._factorials, factorials)


def test_trusted_products_are_prefixes():
    rng = np.random.default_rng(13)
    for dim, order in ((3, 4), (4, 2), (5, 3)):
        ctx = context(dim, order)
        a, b = rng.standard_normal((2, 6, ctx.ncoef))
        full = ctx.mul(a, b)
        for p in range(6):
            assert np.array_equal(full[p], ctx.mul(a[p], b[p]))
        for t in range(-1, order + 1):
            low = ctx.degree <= t
            for got, want in ((ctx.mul(a[0], b[0], t), full[0]), (ctx.mul(a, b, t), full),
                              (ctx.mul(a[0], b, t), ctx.mul(a[0], b))):
                assert np.array_equal(got[..., low], want[..., low]), (dim, order, t)
                assert not np.any(got[..., ~low]), (dim, order, t)


def bincount_prefix(ctx, a, b, t):
    """The product of ``a`` and ``b`` summed over the pairs of degree <= t by
    one ``np.bincount`` per probe, as ``mul`` sums a product trusted to t >= 1."""
    keep = ctx.degree[ctx._mul_a] + ctx.degree[ctx._mul_b] <= t
    ia, ib, out = ctx._mul_a[keep], ctx._mul_b[keep], ctx._mul_out[keep]
    a, b = np.broadcast_arrays(a, b)
    rows = [np.bincount(out, weights=x[ia] * y[ib], minlength=ctx.ncoef)
            for x, y in zip(a.reshape(-1, ctx.ncoef), b.reshape(-1, ctx.ncoef))]
    return np.array(rows).reshape(a.shape)


def test_value_only_products_equal_the_bincount_prefix():
    rng = np.random.default_rng(29)
    ctx = context(4, 3)
    a, b = rng.standard_normal((2, 4, ctx.ncoef))
    a[:2, 0], b[1:3, 0] = -0.0, 0.0   # -0.0 * 0.0, -0.0 * x, 0.0 * x and x * y
    b[3, 0] = -0.0
    for x, y in ((a[0], b[0]), (a[1], b[3]), (a, b), (a[2], b), (a, b[1])):
        for t in (-1, 0):
            got, want = ctx.mul(x, y, t), bincount_prefix(ctx, x, y, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x.shape, t)
            assert not ctx.is_zero(got) and got.flags.writeable


def test_prefix_ring_products_equal_the_table_prefix():
    # the prefix ring's closed form is the bincount of the table prefix, bit
    # for bit: at t = 1 its 1 + n coefficients, at t = 0 the value alone
    rng = np.random.default_rng(31)
    ctx = context(4, 3)
    k = 1 + ctx.dim
    a, b = rng.standard_normal((k, 3, 1, 4)), rng.standard_normal((k, 1, 2, 4))
    a[0, 0], a[2, 1], b[0, :, 0] = -0.0, 0.0, -0.0  # signed zeros in the values and a slope
    for x, y in ((a, b), (a[:, :1], b), (a, b[:, :, :1])):
        wide = [np.concatenate([v, np.zeros((ctx.ncoef - k,) + v.shape[1:])]) for v in (x, y)]
        table = ctx.product(*(np.moveaxis(v, 0, -1) for v in wide), 1)
        for t, width in ((1, k), (0, 1)):
            got = _prefix_mul(x[:width], y[:width], t)
            want = np.moveaxis(table[..., :width], -1, 0)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x.shape, t)


def test_matmul_caps_the_order_of_every_product():
    rng = np.random.default_rng(31)
    ctx = context(3, 4)
    for shape_a, shape_b in SHAPES:
        a, b = random_jets(ctx, rng, shape_a), random_jets(ctx, rng, shape_b)
        want = np.asarray(a @ b, dtype=object)
        for cap in (-1, 0, 1, 2, 3, None):
            got = np.asarray(ty.matmul(a, b, cap), dtype=object)
            for g, w in zip(got.flat, want.flat, strict=True):
                t = w.trusted if cap is None else min(w.trusted, cap)
                keep = ctx.degree <= t
                assert g.trusted == t and g.c.shape == w.c.shape, cap
                assert g.c[..., keep].tobytes() == w.c[..., keep].tobytes(), cap
                if t == cap:  # no term is summed above the cap
                    assert not np.any(g.c[..., ~keep]), cap


@pytest.mark.parametrize("tf,ff,x0", UNIVARIATE)
def test_batched_functions_equal_single_point(tf, ff, x0):
    ctx = context(2, 3)
    xs = x0 + np.array([0.0, 0.05, -0.1, 0.2])
    batch = tf(ctx.variable(0, xs) * ctx.variable(1, 0.5) + 0.5)
    assert batch.c.shape == (4, ctx.ncoef) and batch.trusted == 3
    for p, x in enumerate(xs):
        single = tf(ctx.variable(0, x) * ctx.variable(1, 0.5) + 0.5)
        assert np.array_equal(batch.c[p], single.c)
        assert batch.value[p] == single.value == pytest.approx(ff(x * 0.5 + 0.5), rel=1e-14)
        assert batch.derivative((1, 1))[p] == single.derivative((1, 1))


def test_batched_domain_errors_name_the_first_probe():
    ctx = context(1, 2)
    x = ctx.variable(0, np.array([1.0, 0.0, -1.0]))
    for fn, what in ((ty.recip, "division"), (ty.log, "log"), (ty.abs_, "abs"),
                     (ty.sqrt, "fractional power")):
        with pytest.raises(TaylorDomainError, match=f"{what}.* 0 \\(probe 1\\)") as err:
            fn(x)
        assert err.value.probe == 1
    with pytest.raises(TaylorDomainError) as err:
        ty.log(ctx.variable(0, 0.0))
    assert err.value.probe is None and "probe" not in str(err.value)
