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

        for module in (curvature, sigma, soliton, models):
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
