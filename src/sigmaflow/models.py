"""Built-in model manifolds with soliton data and golden curvature values,
each a ``soliton.SolitonSpec``.

The catalog covers the flat space, the round sphere in the stereographic
chart, hyperbolic space in the Poincare ball, the product of a line with a
round sphere, the diagonal log-cosh metric on R^n, and warped products over
an interval.  ``warped`` is the one constructor of a warped product: it
checks the warping factor and builds the chart, whose Ricci tensor
``warped_ricci_formula`` assembles from the factor and the fiber.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .curvature import GeometryError, MetricChart, curvature_at, values
from .sigma import cone_values, log_quotient, sigma_profile, sigmas
from .soliton import SolitonSpec
from .taylor import MAX_DIM
from .tensor import TensorValue


def _sq_norm(n: int, start: int = 1) -> str:
    return "(" + " + ".join(f"x{i}^2" for i in range(start, start + n)) + ")"


def _diag_chart(n: int, diagonal: list, domain) -> MetricChart:
    """The chart of the n x n diagonal metric with these entries over ``domain``."""
    return MetricChart(n, [[diagonal[i] if i == j else "0" for j in range(n)]
                           for i in range(n)], domain)


def _logq_const(n: int, k: int, l: int, base: float) -> float:
    """log(sigma_k/sigma_l) for constant Schouten eigenvalue ``base``."""
    return log_quotient([math.comb(n, j) * base ** j for j in range(n + 1)], k, l)


# -- the catalog -----------------------------------------------------------


def euclidean(n: int) -> SolitonSpec:
    chart = _diag_chart(n, ["1"] * n, [(-2.0, 2.0)] * n)
    return SolitonSpec(chart, name=f"euclidean:{n}",
                       golden=[("scalar", 0.0, 1e-12, "flat space"),
                               ("riemann_sup", 0.0, 1e-12, "flat space")])


def sphere(n: int, k: int = 2, l: int = 1) -> SolitonSpec:
    """Round unit sphere, stereographic chart g = 4 (1+|x|^2)^-2 delta.

    Soliton data: f = h_v (ambient height pulled back through the inverse
    stereographic map), lambda = h_v + log(sigma_k/sigma_l)."""
    return _space_form(n, 1, k, l, _sphere_height, lambda: 0.9)


def _sphere_height(n: int) -> str:
    v = np.arange(1.0, n + 2.0)
    v = v / np.linalg.norm(v)
    s = _sq_norm(n)
    lin = " + ".join(f"{float(v[i - 1])!r}*x{i}" for i in range(1, n + 1))
    return f"(2*({lin}) + {float(v[n])!r}*(1 - {s})) / (1 + {s})"


def hyperbolic(n: int, k: int = 3, l: int = 1) -> SolitonSpec:
    """Hyperbolic space, Poincare ball chart g = 4 (1-|x|^2)^-2 delta.

    Soliton data: f = h_v with the ball-to-hyperboloid height, lambda =
    -h_v + log(sigma_k/sigma_l); the cone condition needs k = l (mod 2),
    and ``log_quotient`` raises ConeConditionError otherwise."""
    return _space_form(n, -1, k, l, _hyperbolic_height, lambda: 0.85 / math.sqrt(n))


def _hyperbolic_height(n: int) -> str:
    # hyperboloid embedding of the ball: X_1 = (1+s)/(1-s), X_{i+1} = 2 x_i/(1-s);
    # h_v = <X, v> in the Lorentzian pairing -X_1 v_1 + sum X_{i+1} v_{i+1}
    vp = 0.1 * np.arange(1.0, n + 1.0)  # spatial part, arbitrary
    v = np.concatenate(([math.sqrt(1.0 + vp @ vp)], vp))
    s = _sq_norm(n)
    lin = " + ".join(f"{float(v[i])!r}*x{i}" for i in range(1, n + 1))
    return f"(-{float(v[0])!r}*(1 + {s}) + 2*({lin})) / (1 - {s})"


_SPACE_FORMS = {1: ("sphere", "+", "", "round sphere"),
                -1: ("hyperbolic", "-", "-", "hyperbolic space")}


def _space_form(n: int, sign: int, k: int, l: int, height, box) -> SolitonSpec:
    """The space form of curvature ``sign`` (+1 or -1) in its conformally flat
    chart g = 4 (1 + sign |x|^2)^-2 delta on the box [-box(), box()]^n, with
    f = height(n), lambda = sign f + log(sigma_k/sigma_l) and the golden
    values R = sign n(n-1), A = sign g/2, sigma_j = C(n, j) (sign/2)^j."""
    if n < 3:
        raise GeometryError("sigma-bearing models need n >= 3")
    name, op, neg, note = _SPACE_FORMS[sign]
    half = box()
    chart = _diag_chart(n, [f"4/(1{op}{_sq_norm(n)})^2"] * n, [(-half, half)] * n)
    h = height(n)
    lam = f"{neg}({h}) + {_logq_const(n, k, l, sign / 2)!r}"
    golden = [("scalar", float(sign * n * (n - 1)), 1e-9, note),
              ("schouten_vs_metric", sign / 2, 1e-9, f"A = {neg}g/2")]
    golden += [(f"sigma:{j}", math.comb(n, j) * (sign / 2) ** j, 1e-9, "sigma table")
               for j in range(1, n + 1)]
    return SolitonSpec(chart, ex.parse(lam), k, l, potential=ex.parse(h),
                       name=f"{name}:{n}", golden=golden)


def product_line_sphere(n: int) -> SolitonSpec:
    """R x S^n with f = t: the trivial quotient soliton with k = l.

    The paper's displayed metric dt^2 + g_{R^n} is read as a typo for
    dt^2 + g_{S^n}; with flat g_{R^n} every sigma_j would vanish and no
    quotient could be formed."""
    chart = _diag_chart(n + 1, ["1"] + [f"4/(1+{_sq_norm(n, start=2)})^2"] * n,
                        [(-1.0, 1.0)] + [(-0.9, 0.9)] * n)
    # sigma_1 computes to (n-1)/2 here, not the n/2 the source example quotes;
    # with k = l the quotient is 1 either way and the soliton is trivial.
    golden = [("sigma:1", (n - 1) / 2.0, 1e-9, "product line x sphere")]
    return SolitonSpec(chart, ex.parse("0"), potential=ex.parse("x1"),
                       name=f"product_line_sphere:{n}", golden=golden)


def example4(n: int) -> SolitonSpec:
    """Diagonal metric g_ii = e^{2 u_i} on R^n with u_i = log cosh(x_{tau(i)})
    for even i (tau the n-cycle), zero for odd i.

    For even n this is a product of hyperbolic planes, hence Einstein with
    Ric = -g; for odd n one coordinate direction stays flat and the metric
    is not Einstein (the golden Einstein values are only attached for even
    n).  X with components (0,1,0,1,...) is a Killing field either way.

    Odd n in closed form: (n-1)/2 hyperbolic planes of curvature -1 times
    the flat x1 line (g_11 = 1, and x1 appears in no component), e.g.
    H^2 x H^2 x R for n = 5.  Then Ric = -g + dx1 (x) dx1, with Ricci
    eigenvalues -1 (n-1 times) and 0 along x1, and the Schouten
    endomorphism has eigenvalues -1/(2(n-2)) (n-1 times) and +1/(2(n-2))
    once.  For n = 5 that gives sigma_0..5 = 1, -1/2, 1/18, 1/108, -1/432,
    1/7776; the default pair (3, 1) violates the cone condition and the
    fallback below picks (3, 2), lam = log(sigma_3/sigma_2) = -log 6."""
    if n < 4:
        raise GeometryError("the log-cosh model needs n >= 4")
    k, l = 3, 1
    chart = _diag_chart(n, [f"cosh(x{i % n + 1})^2" if i % 2 == 0 else "1"
                            for i in range(1, n + 1)], [(-1.0, 1.0)] * n)
    xfield = [ex.parse("1" if i % 2 == 0 else "0") for i in range(1, n + 1)]
    golden = []
    if n % 2 == 0:
        base = -0.5 / (n - 1)  # Schouten eigenvalue of an Einstein Ric = -g
        logq = _logq_const(n, k, l, base)
        golden = [("ricci_vs_metric", -1.0, 1e-9, "product of hyperbolic planes")]
        golden += [(f"sigma:{j}",
                    (-1) ** j * math.comb(n, j) / (2 ** j * (n - 1) ** j),
                    1e-9, "Einstein sigma table") for j in range(1, n + 1)]
    else:
        # odd n: one direction stays flat, the metric is not Einstein and the
        # Schouten spectrum has mixed signs.  The quotient curvature is still
        # constant (the metric is homogeneous), but the default quotient pair
        # may violate the cone condition; fall back to the first admissible
        # pair of one sigma vector computed through the pipeline.
        sig = sigmas(values(curvature_at(chart, np.full(n, 0.2)).endo))
        pairs = [(k, l)] + [(kk, ll) for kk in range(2, n + 1) for ll in range(1, kk)]
        k, l = next((p for p in pairs if cone_values(sig, *p)[2]), (k, l))
        logq = log_quotient(sig, k, l)  # ConeConditionError if no pair is admissible
    return SolitonSpec(chart, ex.parse(repr(logq)), k, l, vector_field=xfield,
                       name=f"example4:{n}", golden=golden)


# -- warped products -------------------------------------------------------


def warped(xi, fiber: SolitonSpec, interval=(0.5, 1.5)) -> SolitonSpec:
    """Warped product dt^2 + xi(t)^2 g_fiber, with xi (an Expr or its source
    in x1 = t) checked positive at 7 points of ``interval``; fiber
    coordinates shift up by one so that x1 is the interval coordinate."""
    xi = ex.as_expr(xi)
    lo, hi = interval
    t = np.linspace(lo, hi, 7)
    bad = ex.eval_float(xi, [t]) <= 0.0
    if bad.any():
        raise GeometryError(f"warping factor must be positive on the interval; "
                            f"fails at t = {t[bad][0]}")
    m = fiber.chart.dim
    xi2 = ex.Bin("^", xi, ex.Num(2.0))
    comps = [[ex.Num(0.0)] * (m + 1) for _ in range(m + 1)]
    comps[0][0] = ex.Num(1.0)
    for i in range(m):
        for j in range(m):
            fib = ex.shift_vars(fiber.chart.comps[i][j], 1)
            comps[i + 1][j + 1] = ex.Bin("*", xi2, fib)
    chart = MetricChart(m + 1, comps, [(float(lo), float(hi))] + fiber.chart.domain)
    return SolitonSpec(chart, name=f"warped[{ex.unparse(xi)};{fiber.name}]")


def warped_ricci_formula(xi, fiber: SolitonSpec, point) -> TensorValue:
    """Ricci of dt^2 + xi^2 g_F assembled from the warped-product formula
    Ric = Ric^F - (n-1)(xi''/xi) dt (x) dt - [(n-2) xi'^2 + xi xi''] g^F,
    in the coordinates of ``warped`` (fiber block unscaled by xi^2)."""
    point = np.asarray(point, dtype=float)
    n = fiber.chart.dim + 1
    t, fiber_pt = point[0], point[1:]
    xt = ex.eval_taylor(ex.as_expr(xi), [t])
    xi, dxi, ddxi = xt.value, xt.derivative((1,)), xt.derivative((2,))
    if xi <= 0.0:
        raise GeometryError(f"warping factor non-positive at t = {t}")
    tc = curvature_at(fiber.chart, fiber_pt)
    out = np.zeros((n, n))
    out[0, 0] = -(n - 1) * ddxi / xi
    out[1:, 1:] = values(tc.ricci) - ((n - 2) * dxi ** 2 + xi * ddxi) * values(tc.g)
    return TensorValue(n, (0, 2), out)


# -- name resolution -------------------------------------------------------

_XI_NAMES = {"one": "1", "sinh": "sinh(x1)", "cosh": "cosh(x1)"}
_FAMILIES = {"euclidean": euclidean, "sphere": sphere, "hyperbolic": hyperbolic,
             "product_line_sphere": product_line_sphere, "example4": example4}


def builtin(name: str) -> SolitonSpec:
    """Resolve a CLI-style model name such as ``sphere:4`` or
    ``warped:sinh:sphere:3``."""
    parts = name.replace("(", ":").replace(")", "").split(":")
    kind = parts[0]
    nest = next(i for i, head in enumerate(parts[::2] + [""]) if head != "warped")
    if nest > MAX_DIM - 2:  # each warped: prefix adds a dimension to a chart of >= 2
        raise GeometryError(f"{nest} nested warped products need a chart of more than "
                            f"{MAX_DIM} dimensions")
    if kind == "warped":
        fiber = builtin(":".join(parts[2:]))  # reports its own malformed part, once
    try:
        if kind in _FAMILIES:
            if len(parts) > 2:
                raise ValueError(f"unexpected {':'.join(parts[2:])!r} after the dimension")
            return _FAMILIES[kind](int(parts[1]))
        if kind == "warped":
            xi = _XI_NAMES.get(parts[1], parts[1])
            interval = (0.5, 1.5) if "sinh" in xi else (-1.0, 1.0)
            return warped(xi, fiber, interval)
    except (IndexError, ValueError) as err:
        raise GeometryError(f"malformed model name {name!r}: {err}") from err
    raise GeometryError(f"unknown model {name!r}")


# -- golden-value runner ---------------------------------------------------


def check_golden(model: SolitonSpec, points) -> list[tuple[str, float, float, bool]]:
    """Evaluate every golden entry at every point.  Returns
    (quantity, worst error, tolerance, passed) rows."""
    rows = []
    for quantity, expected, tol, _note in model.golden:
        worst = 0.0
        for x in points:
            tc = curvature_at(model.chart, x)
            if quantity == "scalar":
                err = abs(tc.scalar.value - expected) / max(1.0, abs(expected))
            elif quantity == "riemann_sup":
                err = float(np.max(np.abs(values(tc.riemann))))
            elif quantity == "ricci_vs_metric":
                err = float(np.max(np.abs(values(tc.ricci) - expected * values(tc.g))))
            elif quantity == "schouten_vs_metric":
                err = float(np.max(np.abs(values(tc.schouten) - expected * values(tc.g))))
            elif quantity.startswith("sigma:"):
                j = int(quantity.split(":")[1])
                prof = sigma_profile(tc, model.k, model.l)
                err = abs(prof.sigmas[j] - expected) / max(1.0, abs(expected))
            else:
                raise ValueError(f"unknown golden quantity {quantity!r}")
            worst = max(worst, err)
        rows.append((quantity, worst, tol, worst < tol))
    return rows
