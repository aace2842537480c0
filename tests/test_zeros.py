"""Structural zeros: every zero jet shares one read-only array per shape,
products, sums and derivatives with it skip their arithmetic, and the
pipeline then gives, in every trusted coefficient, what a run that
materialises every zero gives."""

import numpy as np
import pytest

from sigmaflow import models, taylor
from sigmaflow.curvature import curvature_taylor
from sigmaflow.probes import chart_probes
from test_batched import BUILTINS, FIELDS


def materialise_zeros(monkeypatch):
    """From here on no array is a shared zero, so every zero is computed."""
    monkeypatch.setattr(taylor.TaylorContext, "is_zero", lambda self, c: False)


def jets(tc):
    """(field, index, jet) for every jet of a pipeline's outputs."""
    for field in FIELDS:
        arr = getattr(tc, field)
        if arr is not None:
            for idx, s in np.ndenumerate(np.asarray(arr, dtype=object)):
                yield field, idx, s


def test_zeros_are_shared_and_read_only():
    ctx = taylor.context(3, 2)
    x = ctx.variable(0, np.array([0.1, 0.2]))  # a batch of two probes
    zero = ctx.constant(0.0)
    assert zero.c is ctx.zero()
    for jet, lead in [(zero, ()), (zero * x, (2,)), (x * zero, (2,)), (-zero, ()),
                      (2.0 * zero, ()), (zero.deriv(1), ()), (x.deriv(1), (2,)),
                      (zero * x + zero, (2,))]:
        assert jet.c is ctx.zero(lead)
        with pytest.raises(ValueError, match="read-only"):
            jet.c[..., 0] = 1.0
    assert (x + zero).c is x.c and (zero - x).c is not x.c
    assert (zero * x).trusted == (zero.deriv(0) * x).trusted + 1 == 2


@pytest.mark.parametrize("name", BUILTINS)
def test_skipped_zeros_equal_materialised_zeros(name, monkeypatch):
    chart = models.builtin(name).chart
    points = chart_probes(chart, 16, seed=2)
    runs = [(order, x) for order in (2, 3, 4) for x in (points[0], points)]
    skipped = [curvature_taylor(chart, x, order) for order, x in runs]
    materialise_zeros(monkeypatch)
    for (order, x), tc in zip(runs, skipped):
        full = curvature_taylor(chart, x, order)
        for (field, idx, got), (_, _, want) in zip(jets(tc), jets(full), strict=True):
            what = (name, order, x.shape, field, idx)
            keep = want.ctx.degree <= want.trusted
            assert got.trusted == want.trusted, what
            assert got.c.shape == want.c.shape, what
            assert np.array_equal(got.c[..., keep], want.c[..., keep]), what


def by_value(ctx, a, b, out):
    """A product with an operand that is all zeros."""
    return not (a.any() and b.any())


def skipped(ctx, a, b, out):
    """A product that takes the zero path: an operand is a shared zero."""
    return ctx.is_zero(a) or ctx.is_zero(b)


def test_every_zero_product_takes_the_zero_path(count_products):
    sphere8 = models.sphere(8).chart
    point = 0.1 * np.arange(1, 9) / 8
    assert count_products(lambda: curvature_taylor(sphere8, point, order=3),
                          by_value, skipped) == [10808, 7672, 7672]
    # orders 2 and 3 form the Riemann-to-g^-1 A block on coefficient arrays,
    # with no jet products
    sphere4 = models.sphere(4).chart
    batch = chart_probes(sphere4, 16)
    assert count_products(lambda: curvature_taylor(sphere4, batch, order=2),
                          by_value, skipped) == [244, 156, 156]
    for name in BUILTINS:
        chart = models.builtin(name).chart
        for order in (3, 4):
            calls, zeros, skips = count_products(
                lambda: curvature_taylor(chart, chart_probes(chart, 1)[0], order=order),
                by_value, skipped)
            assert zeros == skips, (name, order)
            if order == 4:  # the block on jets: most of its products have a zero operand
                assert zeros == skips > calls / 2, name


def test_jets_built_per_pipeline(monkeypatch):
    # a count, not a timing: a sum with a shared zero builds no new jet, and
    # a contraction builds one jet per output, none per term
    built = [0]
    init = taylor.TaylorScalar.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    sphere8 = models.sphere(8).chart
    point = 0.1 * np.arange(1, 9) / 8
    monkeypatch.setattr(taylor.TaylorScalar, "__init__", counted)
    curvature_taylor(sphere8, point, order=3)
    assert built[0] == 6725


def test_materialised_zeros_compute_every_product(monkeypatch, count_products):
    materialise_zeros(monkeypatch)

    def shared(ctx, a, b, out):
        return id(out) in ctx._zero_ids  # the shared zeros, past the hook

    assert count_products(lambda: curvature_taylor(models.sphere(8).chart,
                                                   0.1 * np.arange(1, 9) / 8, order=3),
                          shared) == [10808, 0]
