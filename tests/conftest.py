import numpy as np
import pytest

from sigmaflow import curvature, models, sigma, soliton, taylor


class PipelineOrders:
    """Stands in for ``curvature_taylor`` wherever entry points resolve it.

    ``requested`` lists the order of every call.  Inside ``at(order)`` each
    pipeline runs at that order instead of the requested one.  Pipelines
    are cached per (chart, point, order), so a reference at order 4 costs
    one pipeline per probe however many entry points read it.
    """

    def __init__(self, monkeypatch):
        self.requested = []
        self._forced = None
        self._cache = {}
        original = curvature.curvature_taylor

        def pipeline(chart, x, order=taylor.MAX_ORDER):
            self.requested.append(order)
            order = self._forced or order
            key = (id(chart), np.asarray(x, dtype=float).tobytes(), order)
            if key not in self._cache:
                self._cache[key] = (chart, original(chart, x, order=order))
            return self._cache[key][1]

        for module in (curvature, models, sigma, soliton):
            monkeypatch.setattr(module, "curvature_taylor", pipeline)

    def declared(self, fn):
        """fn() at the orders its pipelines declare, and those orders."""
        self.requested = []
        return fn(), set(self.requested)

    def at(self, order, fn):
        """fn() with every pipeline it runs forced to ``order``."""
        self._forced = order
        try:
            return fn()
        finally:
            self._forced = None


@pytest.fixture
def pipeline_orders(monkeypatch):
    return PipelineOrders(monkeypatch)


def full_order_products(fn):
    """fn() as every product was formed before truncation to demand: each
    ``TaylorContext.mul`` sums its product to the context's order through
    the ``bincount`` path, and ``taylor.matmul`` drops its ``trusted`` cap,
    so every jet is trusted as far as its operands alone allow.  A product
    with a shared zero is still the shared zero.  The reference for
    products summed only as far as their result is trusted."""
    mul, matmul = taylor.TaylorContext.mul, taylor.matmul

    def full(self, a, b, trusted=taylor.MAX_ORDER):
        return mul(self, a, b, self.order)

    def uncapped(a, b, trusted=None):
        return matmul(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(taylor.TaylorContext, "mul", full)
        patch.setattr(taylor, "matmul", uncapped)
        return fn()


@pytest.fixture
def full_order():
    return full_order_products


def products_formed(fn, *tallies):
    """[calls, *counts] of ``TaylorContext.mul`` while fn() runs: the one
    counter behind the pinned product counts.  Each tally is a test of one
    call, ``tally(ctx, a, b, out)``, counted where it holds."""
    counts = [0] * (1 + len(tallies))
    mul = taylor.TaylorContext.mul

    def counted(self, a, b, trusted=taylor.MAX_ORDER):
        out = mul(self, a, b, trusted)
        counts[0] += 1
        for q, tally in enumerate(tallies, start=1):
            counts[q] += bool(tally(self, a, b, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(taylor.TaylorContext, "mul", counted)
        fn()
    return counts


@pytest.fixture
def count_products():
    return products_formed
