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


def products(monkeypatch, fn):
    """[calls, calls with an all-zero operand, calls that take the zero path]
    of TaylorContext.mul while fn() runs."""
    counts = [0, 0, 0]
    mul = taylor.TaylorContext.mul

    def counted(self, a, b, trusted=taylor.MAX_ORDER):
        counts[0] += 1
        counts[1] += not (a.any() and b.any())
        counts[2] += self.is_zero(a) or self.is_zero(b)
        return mul(self, a, b, trusted)

    monkeypatch.setattr(taylor.TaylorContext, "mul", counted)
    fn()
    monkeypatch.undo()
    return counts


def test_every_zero_product_takes_the_zero_path(monkeypatch):
    sphere8 = models.sphere(8).chart
    point = 0.1 * np.arange(1, 9) / 8
    assert products(monkeypatch, lambda: curvature_taylor(sphere8, point, order=3)) \
        == [54428, 47124, 47124]
    sphere4 = models.sphere(4).chart
    batch = chart_probes(sphere4, 16)
    assert products(monkeypatch, lambda: curvature_taylor(sphere4, batch, order=2)) \
        == [1486, 1002, 1002]
    for name in BUILTINS:
        chart = models.builtin(name).chart
        calls, by_value, skipped = products(
            monkeypatch, lambda: curvature_taylor(chart, chart_probes(chart, 1)[0], order=3))
        assert by_value == skipped > calls / 2, name


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
    assert built[0] == 18495


def test_materialised_zeros_compute_every_product(monkeypatch):
    calls = [0, 0]
    mul = taylor.TaylorContext.mul

    def counted(self, a, b, trusted=taylor.MAX_ORDER):
        out = mul(self, a, b, trusted)
        calls[0] += 1
        calls[1] += id(out) in self._zero_ids   # the shared zeros, past the hook
        return out

    materialise_zeros(monkeypatch)
    monkeypatch.setattr(taylor.TaylorContext, "mul", counted)
    curvature_taylor(models.sphere(8).chart, 0.1 * np.arange(1, 9) / 8, order=3)
    assert calls == [54428, 0]
