"""Built-in model manifolds, each a ``soliton.SolitonSpec`` with its soliton
data, if any, and golden curvature values: flat space, the round sphere in
the stereographic chart, hyperbolic space in the Poincare ball, a line times
a round sphere, the log-cosh metric on R^n, and warped products over an
interval (``warped``).  Lambda and the golden sigma_j are closed forms
(``sigma.two_eigenvalue_sigma``, ``repeated_sigma``).  ``builtin`` reads
model names, and refuses only those its grammar rules out.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .curvature import GeometryError, MetricChart, _one_point, curvature_taylor, values
from .sigma import cone_values, log_quotient, repeated_sigma, sigmas, two_eigenvalue_sigma
from .soliton import SolitonSpec
from .taylor import MAX_DIM, first_failure
from .tensor import TensorValue


def _sq_norm(n: int, start: int = 1) -> str:
    return "(" + " + ".join(f"x{i}^2" for i in range(start, start + n)) + ")"


def _diag_chart(n: int, diagonal: list, domain) -> MetricChart:
    """The chart of the n x n diagonal metric with these entries over ``domain``,
    refused by the chart's dimension rule before the n x n list is built."""
    MetricChart.check_dimension(n)
    return MetricChart(n, [[diagonal[i] if i == j else "0" for j in range(n)]
                           for i in range(n)], domain)


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
    MetricChart.check_dimension(n)
    name, op, neg, note = _SPACE_FORMS[sign]
    half = box()
    chart = _diag_chart(n, [f"4/(1{op}{_sq_norm(n)})^2"] * n, [(-half, half)] * n)
    golden = [("scalar", float(sign * n * (n - 1)), 1e-9, note)]
    if n == 2:  # no Schouten tensor, so no sigma: the chart and R, as a warped fiber
        return SolitonSpec(chart, name=f"{name}:2", golden=golden)
    h = height(n)
    sig = [repeated_sigma(n, j, sign / 2) for j in range(n + 1)]
    lam = f"{neg}({h}) + {log_quotient(sig, k, l)!r}"
    golden += [("schouten_vs_metric", sign / 2, 1e-9, f"A = {neg}g/2")]
    golden += [(f"sigma:{j}", sig[j], 1e-9, "sigma table") for j in range(1, n + 1)]
    return SolitonSpec(chart, ex.parse(lam), k, l, potential=ex.parse(h),
                       name=f"{name}:{n}", golden=golden)


def product_line_sphere(n: int) -> SolitonSpec:
    """R x S^n with f = t: the trivial quotient soliton with k = l.

    The paper's displayed metric dt^2 + g_{R^n} is read as a typo for
    dt^2 + g_{S^n}; with flat g_{R^n} every sigma_j would vanish and no
    quotient could be formed."""
    chart = _diag_chart(n + 1, ["1"] + [f"4/(1+{_sq_norm(n, start=2)})^2"] * n,
                        [(-1.0, 1.0)] + [(-0.9, 0.9)] * n)
    # A has 1/2 (n times), -1/2 (once): sigma_1 is (n-1)/2, not the n/2 the source
    # example quotes; with k = l the quotient is 1 either way, the soliton trivial.
    golden = [(f"sigma:{j}", two_eigenvalue_sigma(n + 1, j, 0.5, -0.5), 1e-9,
               "product line x sphere") for j in range(1, n + 2)]
    return SolitonSpec(chart, ex.parse("0"), potential=ex.parse("x1"),
                       name=f"product_line_sphere:{n}", golden=golden)


def example4(n: int) -> SolitonSpec:
    """Diagonal metric g_ii = e^{2 u_i} on R^n with u_i = log cosh(x_{tau(i)})
    for even i (tau the n-cycle), zero for odd i; GeometryError below n = 4.

    X = (0,1,0,1,...) is a Killing field.  Even n: a product of hyperbolic
    planes, Einstein with Ric = -g (the golden Einstein row).  Odd n:
    (n-1)/2 hyperbolic planes of curvature -1 times the flat x1 line, which
    no component reads (H^2 x H^2 x R for n = 5), so Ric = -g + dx1 (x) dx1
    and g^{-1}A has eigenvalues -1/(2(n-2)) (n-1 times) and +1/(2(n-2))
    once.  For n = 5, sigma_0..5 = 1, -1/2, 1/18, 1/108, -1/432, 1/7776: the
    pair (3, 1) violates the cone condition, and the first admissible pair,
    (3, 2), gives lambda = log(sigma_3/sigma_2) = -log 6."""
    if n < 4:
        raise GeometryError("the log-cosh model needs n >= 4")
    k, l = 3, 1
    chart = _diag_chart(n, [f"cosh(x{i % n + 1})^2" if i % 2 == 0 else "1"
                            for i in range(1, n + 1)], [(-1.0, 1.0)] * n)
    xfield = [ex.parse("1" if i % 2 == 0 else "0") for i in range(1, n + 1)]
    if n % 2 == 0:
        sig = [repeated_sigma(n, j, -0.5 / (n - 1)) for j in range(n + 1)]  # Ric = -g
        golden = [("ricci_vs_metric", -1.0, 1e-9, "product of hyperbolic planes")]
    else:
        # odd n: a flat direction, mixed signs in the spectrum; the quotient is
        # still constant (the metric is homogeneous), but the default pair may
        # violate the cone condition: fall back to the first admissible pair.
        # sigma_j in integers, divided once, is correctly rounded
        sig = [two_eigenvalue_sigma(n, j, -1, 1) / (2 * (n - 2)) ** j for j in range(n + 1)]
        pairs = [(k, l)] + [(kk, ll) for kk in range(2, n + 1) for ll in range(1, kk)]
        k, l = next((p for p in pairs if cone_values(sig, *p)[2]), (k, l))
        golden = []
    golden += [(f"sigma:{j}", sig[j], 1e-9, "sigma table") for j in range(1, n + 1)]
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
    i = first_failure(ex.eval_float(xi, [t]) > 0.0)
    if i is not None:
        raise GeometryError(f"warping factor must be positive on the interval; "
                            f"fails at t = {t[i]}")
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
    n = fiber.chart.dim + 1
    point = _one_point(n, point, "warped_ricci_formula")
    t, fiber_pt = point[0], point[1:]
    xt = ex.eval_taylor(ex.as_expr(xi), [t], order=2)
    xi, dxi, ddxi = xt.value, xt.derivative((1,)), xt.derivative((2,))
    if xi <= 0.0:
        raise GeometryError(f"warping factor non-positive at t = {t}")
    tc = curvature_taylor(fiber.chart, fiber_pt, order=2)
    out = np.zeros((n, n))
    out[0, 0] = -(n - 1) * ddxi / xi
    out[1:, 1:] = values(tc.ricci) - ((n - 2) * dxi ** 2 + xi * ddxi) * values(tc.g)
    return TensorValue(n, (0, 2), out)


# -- name resolution -------------------------------------------------------

_XI_NAMES = {"one": "1", "sinh": "sinh(x1)", "cosh": "cosh(x1)"}
_FAMILIES = {"euclidean": euclidean, "sphere": sphere, "hyperbolic": hyperbolic,
             "product_line_sphere": product_line_sphere, "example4": example4}


def builtin(name: str) -> SolitonSpec:
    """Resolve a CLI-style model name, ``family:dimension`` such as ``sphere:4``
    or ``warped:xi:model`` such as ``warped:sinh:sphere:3``.  GeometryError for an
    unknown family, a malformed name or warped products nested deeper than
    MAX_DIM allows; a constructor's own refusal, a fiber's included, arrives
    unchanged."""
    parts = name.split(":")
    kind = parts[0]
    nest = next(i for i, head in enumerate(parts[::2] + [""]) if head != "warped")
    if nest > MAX_DIM - 2:  # each warped: prefix adds a dimension to a chart of >= 2
        raise GeometryError(f"{nest} nested warped products need a chart of more than "
                            f"{MAX_DIM} dimensions")
    if kind == "warped":
        if len(parts) < 4:
            raise GeometryError(f"malformed model name {name!r}: expected warped:<xi>:<model>")
        xi = _XI_NAMES.get(parts[1], parts[1])
        try:
            tree = ex.parse(xi)
        except ex.ParseError as err:
            raise GeometryError(f"malformed model name {name!r}: warping factor: {err}") from None
        interval = (0.5, 1.5) if "sinh" in xi else (-1.0, 1.0)
        return warped(tree, builtin(":".join(parts[2:])), interval)
    if kind not in _FAMILIES:
        raise GeometryError(f"unknown model {name!r}")
    if len(parts) != 2 or not parts[1].removeprefix("-").isdecimal():
        raise GeometryError(f"malformed model name {name!r}: expected {kind}:<integer>")
    return _FAMILIES[kind](int(parts[1]))


# -- golden-value runner ---------------------------------------------------


def check_golden(model: SolitonSpec, points) -> list[tuple[str, float, float, bool]]:
    """Evaluate every golden entry at every point.  Returns
    (quantity, worst error, tolerance, passed) rows; a NaN error fails."""
    rows = []
    for quantity, expected, tol, _note in model.golden:
        errs = [_golden_error(quantity, expected, curvature_taylor(model.chart, x, order=2))
                for x in points]
        worst = float(np.max(errs, initial=0.0))
        rows.append((quantity, worst, tol, worst < tol))
    return rows


def _golden_error(quantity: str, expected: float, tc) -> float:
    """The error of one golden entry at the one point of the pipeline ``tc``."""
    if quantity == "scalar":
        return abs(tc.scalar.value - expected) / max(1.0, abs(expected))
    if quantity == "riemann_sup":
        return np.max(np.abs(values(tc.riemann)))
    if quantity == "ricci_vs_metric":
        return np.max(np.abs(values(tc.ricci) - expected * values(tc.g)))
    if quantity == "schouten_vs_metric":
        return np.max(np.abs(values(tc.schouten) - expected * values(tc.g)))
    if quantity.startswith("sigma:"):
        sig = sigmas(values(tc.endo))[int(quantity[6:])]
        return abs(sig - expected) / max(1.0, abs(expected))
    raise ValueError(f"unknown golden quantity {quantity!r}")
