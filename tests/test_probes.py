import numpy as np
import pytest

import oracles
from sigmaflow import models
from sigmaflow.curvature import BATCH_BYTES, GeometryError
from sigmaflow.probes import chart_probes, halton_points


def test_points_stay_inside_with_margin():
    domain = ((-1.0, 1.0), (0.0, 4.0), (-2.0, 0.0))
    pts = halton_points(domain, 50)
    for x in pts:
        for (lo, hi), c in zip(domain, x):
            pad = 0.1 * (hi - lo)
            assert lo + pad - 1e-12 <= c <= hi - pad + 1e-12


def test_more_axes_than_primes_are_refused():
    with pytest.raises(ValueError, match="at most 8 axes supported"):
        halton_points([(0.0, 1.0)] * 9, 4)


def test_deterministic_given_seed():
    domain = ((-1.0, 1.0), (-1.0, 1.0))
    a = halton_points(domain, 20, seed=5)
    b = halton_points(domain, 20, seed=5)
    assert np.array_equal(a, b)
    c = halton_points(domain, 20, seed=6)
    assert not np.array_equal(a, c)


def test_seeds_give_distinct_points():
    domain = ((-1.0, 1.0),) * 3
    rows = np.concatenate([halton_points(domain, 40, seed=s) for s in range(4)])
    assert len(np.unique(rows, axis=0)) == len(rows)
    for seed in (-1, 1.5, True):
        with pytest.raises(GeometryError, match="probe seed"):
            halton_points(domain, 4, seed=seed)


def test_low_discrepancy_spread():
    # no duplicate points, decent coverage of each axis
    pts = np.asarray(halton_points(((-1.0, 1.0),) * 2, 64))
    assert len(np.unique(pts.round(12), axis=0)) == 64
    for axis in range(2):
        assert pts[:, axis].min() < -0.5
        assert pts[:, axis].max() > 0.5


def test_chart_probes_respect_domain():
    model = models.hyperbolic(4)
    model.chart.check_points(chart_probes(model.chart, 30))  # GeometryError outside


def test_points_equal_the_scalar_loop_bit_for_bit():
    # numpy's int64 would wrap where the loop's Python integers grow, so a
    # seed past int64 is one of the cases
    domains = [((-1.0, 1.0),) * 3, ((0.5, 1.5), (-2.0, 3.0)), ((-0.9, 0.9),) * 8,
               ((-1, 1), (0, 4))]
    for domain in domains:
        for seed in (0, 1, 904, 10 ** 6, 10 ** 20):
            for count in (0, 1, 7, 40):
                got = halton_points(domain, count, seed=seed)
                want = oracles.halton_points(domain, count, seed=seed)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                    (domain, seed, count)


def test_a_count_past_the_jet_budget_is_refused_before_it_is_built():
    # the (count, dim) points alone would exceed the budget that bounds one
    # pipeline's jets
    domain = ((-1.0, 1.0),) * 8
    with pytest.raises(GeometryError, match="probe budget"):
        halton_points(domain, BATCH_BYTES // (8 * len(domain)) + 1)
