"""Demand-driven truncation: a product summed only to the order its result
keeps gives, in every trusted coefficient, what the product summed to the
context's order gives, and a contraction capped at the order of the
derivative it is summed with loses no trust, so each jet of the pipeline
and of the covariant operators comes out with the trusted order and the
bytes of a run with no truncation (``full_order`` in ``conftest``)."""

import numpy as np
import pytest

from sigmaflow import models
from sigmaflow.curvature import curvature_taylor
from sigmaflow.probes import chart_probes
from test_batched import BUILTINS, FIELDS

SCALAR = "x1*x2 + exp(x1/3)"


def trusted_jets(chart, x, order):
    """(what, index, jet) for every jet of the pipeline at x and of the
    operators that sum products with terms trusted one order lower."""
    tc = curvature_taylor(chart, x, order)
    arrays = [(field, getattr(tc, field)) for field in FIELDS]
    arrays += [("hessian", tc.hessian_scalar(tc.jet(SCALAR))),
               ("cov_deriv_02", tc.cov_deriv_02(tc.schouten)),
               ("div_endomorphism", tc.div_endomorphism(tc.endo))]
    return [(what, idx, s) for what, arr in arrays if arr is not None
            for idx, s in np.ndenumerate(np.asarray(arr, dtype=object))]


@pytest.mark.parametrize("name", BUILTINS)
def test_truncated_products_keep_every_trusted_coefficient(name, full_order):
    chart = models.builtin(name).chart
    points = chart_probes(chart, 8, seed=2)
    for order in (2, 3, 4):
        for x in (points[0], points):
            got = trusted_jets(chart, x, order)
            want = full_order(lambda: trusted_jets(chart, x, order))
            for (what, idx, g), (_, _, w) in zip(got, want, strict=True):
                where = (name, order, x.shape, what, idx)
                keep = w.ctx.degree <= w.trusted
                assert g.trusted == w.trusted, where
                assert g.c[..., keep].tobytes() == w.c[..., keep].tobytes(), where
