"""Exact gradient quotient almost solitons on warped products.

A gradient almost soliton with grad f != 0 is locally a warped product
dt^2 + f'(t)^2 g_N (Y. Tashiro, Trans. AMS 117, 1965; H.-D. Cao, X. Sun &
Y. Zhang, Math. Res. Lett. 19, 2012).  ``oracles.warped_soliton`` builds one
on ``models.warped(xi, fiber)`` with f' = xi, so Hess f = xi' g and, with
lambda = log(sigma_k/sigma_l) - xi', the soliton residual is exactly 0 while
psi = xi' is not constant.  Over a sphere or a flat fiber Ric has two
distinct eigenvalues; cosh t over the hyperbolic fiber is hyperbolic space.
The answer is known without the pipeline, a loop oracle or a pullback.

Cases: xi in {cosh t, 2 + cosh t, 1.5 + sin t, 2 + sinh t} over the fibers
euclidean:2..4, sphere:2..4 and hyperbolic:2..4 (n = 3..5), on the default
interval t in (0.5, 1.5), at the 8 probes of seed 1.  Each case takes the
first pair (k, l), k > l >= 1, in the order of ``models.example4``'s
fallback, whose closed-form sigma_k sigma_l is > 0 at every probe; every
case has one.

Bounds, each relative to the scale of its identity's terms at the probes
(measured worst ratio over the 36 cases on numpy 2.4, and margin):
- soliton residual sup <= 1e-11 max(1, |L_X g|_sup, |psi|_sup): 4.1e-13, 25x;
- trace identity <= 1e-11 n (|psi| + |lambda|): 7.1e-14, 140x;
- first order <= 1e-11 (n - 1)(|psi'| + |lambda'|): 8.5e-13, 11x;
- second order <= 1e-10 ((n - 1)(|lap psi| + |lap lambda|) + |R'| xi / 2
  + |R| (|psi| + |lambda|)): 3.0e-12, 33x.
In absolute terms the residual sup is <= 1.6e-12, with |psi| up to 2.06
and |L_X g| up to 9.2, and the structural residuals are <= 1.1e-8 on the
sphere cases with (3, 1) and <= 6.3e-10 on the rest.  A case takes
0.01-0.1 s.

``warped:sinh:sphere:m`` and ``warped:cosh:hyperbolic:m`` are hyperbolic
(m + 1)-space; for m = 2..4 they pass the whole golden table of
``hyperbolic:m+1`` (R, A = -g/2, every sigma_j) at 4 probes, with a worst
error of 3.1e-15 against its 1e-9 tolerance.
"""

import dataclasses

import numpy as np
import pytest

import oracles
from sigmaflow import expr as ex
from sigmaflow import models
from sigmaflow.probes import chart_probes
from sigmaflow.soliton import lemma_structural_check, soliton_residual

FAMILIES = {  # xi, xi', xi'', f with f' = xi
    "cosh": ("cosh(x1)", "sinh(x1)", "cosh(x1)", "sinh(x1)"),
    "2+cosh": ("2 + cosh(x1)", "sinh(x1)", "cosh(x1)", "2*x1 + sinh(x1)"),
    "1.5+sin": ("1.5 + sin(x1)", "cos(x1)", "-sin(x1)", "1.5*x1 - cos(x1)"),
    "2+sinh": ("2 + sinh(x1)", "cosh(x1)", "sinh(x1)", "2*x1 + cosh(x1)"),
}
FIBERS = ("euclidean:2", "euclidean:3", "euclidean:4", "sphere:2", "sphere:3", "sphere:4",
          "hyperbolic:2", "hyperbolic:3", "hyperbolic:4")


def _jet(source: str, t: np.ndarray):
    """The value, first and second derivative of ``source`` in x1 at each t."""
    j = ex.eval_taylor(ex.parse(source), t[:, None], order=2)
    return j.value, j.derivative((1,)), j.derivative((2,))


def case(family: str, fiber: str):
    """The spec, its probes and the scale of each structural identity's terms."""
    xi, dxi, ddxi, f = FAMILIES[family]
    base = models.builtin(fiber)
    m, c = base.chart.dim, oracles.FIBER_CURVATURE[fiber.split(":")[0]]
    n = m + 1
    pts = chart_probes(models.warped(xi, base).chart, 8, seed=1)
    t = pts[:, 0]
    sig = [ex.eval_float(ex.parse(oracles.warped_sigma(m, j, c, xi, dxi, ddxi)), [t])
           for j in range(n + 1)]
    k, l = next((k, l) for k in range(2, n + 1) for l in range(1, k)
                if np.all(sig[k] * sig[l] > 0.0))
    spec = oracles.warped_soliton(xi, dxi, ddxi, f, fiber, k, l)

    (x, dx, _), psi, lam = (_jet(s, t) for s in (xi, dxi, ex.unparse(spec.lam)))
    r = _jet(f"-2*{m}*({ddxi})/({xi}) + {m * (m - 1)}*({c} - ({dxi})^2)/({xi})^2", t)

    def lap(h):  # the Laplacian of a function of t alone
        return np.abs(h[2] + m * dx / x * h[1])

    size = np.abs(psi[0]) + np.abs(lam[0])
    scales = (n * size, m * (np.abs(psi[1]) + np.abs(lam[1])),
              m * (lap(psi) + lap(lam)) + 0.5 * np.abs(r[1]) * x + np.abs(r[0]) * size)
    return spec, pts, [max(1.0, float(np.max(s))) for s in scales]


@pytest.mark.parametrize("fiber", FIBERS)
@pytest.mark.parametrize("family", FAMILIES)
def test_warped_product_solitons_are_exact(family, fiber):
    spec, pts, (scale_a, scale_b, scale_c) = case(family, fiber)
    rep = soliton_residual(spec, probe_set=pts)
    assert rep.cone_violations == [] and rep.probes_used == len(pts)
    assert not rep.trivial and rep.psi_sup > 0.1
    assert rep.sup <= 1e-11 * max(1.0, rep.lie_sup, rep.psi_sup), rep
    res = lemma_structural_check(spec, probe_set=pts)
    assert res.trace_identity <= 1e-11 * scale_a, (res, scale_a)
    assert res.first_order <= 1e-11 * scale_b, (res, scale_b)
    assert res.second_order <= 1e-10 * scale_c, (res, scale_c)


@pytest.mark.parametrize("name", [f"warped:{xi}:{fiber}:{m}" for m in (2, 3, 4)
                                  for xi, fiber in (("sinh", "sphere"), ("cosh", "hyperbolic"))])
def test_warped_space_forms_are_hyperbolic_space(name):
    # dt^2 + sinh(t)^2 g_S and dt^2 + cosh(t)^2 g_H are hyperbolic (m + 1)-space,
    # so they pass that model's whole golden table: R, A = -g/2 and every sigma_j
    model = models.builtin(name)
    golden = models.hyperbolic(model.chart.dim).golden
    rows = models.check_golden(dataclasses.replace(model, golden=golden),
                               chart_probes(model.chart, 4, seed=1))
    assert [q for q, *_ in rows] == [q for q, *_ in golden], rows
    assert all(ok for *_, ok in rows), rows
