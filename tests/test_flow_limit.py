"""The flow runs to a round metric.

On S^n the metrics of the round conformal class with constant sigma_k/sigma_l
are the round ones (A. Li & Y. Y. Li, CPAM 56, 2003; P. Guan & G. Wang,
J. reine angew. Math. 557, 2003).  For u(theta) they are the pullbacks of
the round metric by the conformal maps of S^n along the axis,
u = log(1 - a cos theta) + b, and the flow's limit is one of them, which
need not be the constant u.

Linearized at the round sphere, the zonal harmonic of degree d decays at the
rate (k - l)(d(d + n - 1) - n)/n (``test_flow.test_linear_rates_of_zonal_harmonics``).
Degree 1 is neutral: it moves along the round family, where sup_dev is 0.
So sup_dev, sup |log q - log r|, decays at the degree-2 rate
(k - l)(n + 2)/n, and u(T) is a round metric up to an error of that order.

Each case starts at u0 = a cos theta + b cos 2 theta on grid 32 and runs to
T = 3.  The test checks three things:
- no run aborts;
- the slope of log sup_dev over t in [1.5, 3] is a decay rate of at least
  (1 - DELTA)(k - l)(n + 2)/n;
- u(T) is within C sup_dev(T) of its fit log(1 - a cos theta) + b.  The fit
  is linear in e^u = e^b - e^b a cos theta, by least squares over the nodes.

Measured rates are 1.670, 1.507, 2.794 and 1.342 against 1.667, 1.5, 2.8
and 1.333, so the worst falls 0.2% short where DELTA = 0.02 allows 2%.
Measured fit errors over sup_dev(T) are 0.22, 0.22, 0.11 and 0.23, so
C = 1 leaves a margin above 4x."""

import numpy as np
import pytest

from sigmaflow.flow import FlowState, run

DELTA = 0.02  # allowed shortfall of the decay rate
C = 1.0       # allowed fit error, in units of sup_dev(T)
T = 3.0


@pytest.mark.parametrize("n, k, l, a, b", [(3, 2, 1, 0.1, 0.05), (4, 2, 1, 0.08, 0.04),
                                           (5, 3, 1, 0.06, 0.03), (6, 3, 2, 0.06, 0.03)])
def test_the_flow_runs_to_a_round_metric(n, k, l, a, b):
    start = FlowState.from_function(n, k, l, 32,
                                    lambda theta: a * np.cos(theta) + b * np.cos(2 * theta))
    end, diag = run(start, T)
    assert diag.aborted is None and end.t == pytest.approx(T)

    t, dev = np.array(diag.times), np.array(diag.sup_dev)
    late = t >= T / 2
    rate = -np.polyfit(t[late], np.log(dev[late]), 1)[0]
    assert rate >= (1 - DELTA) * (k - l) * (n + 2) / n, rate

    basis = np.column_stack([np.ones_like(end.theta), np.cos(end.theta)])
    coef = np.linalg.lstsq(basis, np.exp(end.u), rcond=None)[0]
    fit_error = np.max(np.abs(end.u - np.log(basis @ coef)))
    assert fit_error <= C * dev[-1], (fit_error, dev[-1])
