"""Reference implementations that only the tests use: index gymnastics
and contractions of dense tensors, sigma_k by index, Halton probes by
scalar loops, a symbolic partial derivative of expressions and a variable
substitution, the quotient flow's grid formulas without cached tables, the
Hodge split on the full complex spectrum, the curvature pipeline as
index loops over jets, and exact gradient almost solitons on warped
products.  Each is checked by its
own test and serves as an independent oracle for the program's jet
pipeline, probes or flow."""

from __future__ import annotations

import math

import numpy as np

from sigmaflow import models, taylor
from sigmaflow.curvature import MetricChart, TaylorCurvature, taylor_metric
from sigmaflow.expr import Bin, Call, Const, Expr, ExprError, Neg, Num, Var, parse
from sigmaflow.flow import FlowState, sphere_area
from sigmaflow.soliton import SolitonSpec
from sigmaflow.tensor import TensorError, TensorValue


# -- dense tensors ---------------------------------------------------------


def contract(t: TensorValue, slot_a: int, slot_b: int) -> TensorValue:
    """Contract contravariant slot ``slot_a`` against covariant slot
    ``slot_b`` (both indexed within their own variance group)."""
    p, q = t.valence
    if not 0 <= slot_a < p:
        raise TensorError(f"contravariant slot {slot_a} out of range for valence {t.valence}")
    if not 0 <= slot_b < q:
        raise TensorError(f"covariant slot {slot_b} out of range for valence {t.valence}")
    comps = np.trace(t.components, axis1=slot_a, axis2=p + slot_b)
    if p + q == 2:
        return float(comps)
    return TensorValue(t.dim, (p - 1, q - 1), comps)


def symmetrize2(t: TensorValue) -> TensorValue:
    if t.valence != (0, 2):
        raise TensorError("symmetrize2 expects a (0,2) tensor")
    return TensorValue(t.dim, (0, 2), 0.5 * (t.components + t.components.T))


def raise_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    """Raise covariant slot ``slot`` with the inverse of ``metric``."""
    p, q = t.valence
    if not 0 <= slot < q:
        raise TensorError("no such covariant slot")
    ginv = np.linalg.inv(metric)
    comps = np.tensordot(ginv, np.moveaxis(t.components, p + slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p)  # raised slot becomes last contravariant
    return TensorValue(t.dim, (p + 1, q - 1), comps)


def lower_index(t: TensorValue, metric: np.ndarray, slot: int = 0) -> TensorValue:
    p, q = t.valence
    if not 0 <= slot < p:
        raise TensorError("no such contravariant slot")
    comps = np.tensordot(metric, np.moveaxis(t.components, slot, 0), axes=(1, 0))
    comps = np.moveaxis(comps, 0, p - 1 + q)  # lowered slot becomes last covariant
    return TensorValue(t.dim, (p - 1, q + 1), comps)


def elementary_all(eig) -> np.ndarray:
    """All sigma_0..sigma_n at once; coefficients of prod (1 + lambda_i t)."""
    eig = np.asarray(eig, dtype=float)
    n = len(eig)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in eig:
        for k in range(n, 0, -1):
            e[k] += lam * e[k - 1]
    return e


def elementary_symmetric(eig: np.ndarray, k: int) -> float:
    """sigma_k of the eigenvalues via the product-coefficient recurrence."""
    eig = np.asarray(eig)
    n = len(eig)
    if not 0 <= k <= n:
        raise TensorError(f"k={k} out of range 0..{n}")
    return elementary_all(eig)[k]


# -- Halton probes ---------------------------------------------------------


def halton_points(domain, count: int, seed: int = 0) -> np.ndarray:
    """``probes.halton_points`` one radical inverse at a time, in Python
    integers: the loop the vectorised version must match bit for bit."""
    pts = np.empty((count, len(domain)))
    for row in range(count):
        for d, (lo, hi) in enumerate(domain):
            base, i, f, u = (2, 3, 5, 7, 11, 13, 17, 19)[d], 20 + 1013 * seed + row, 1.0, 0.0
            while i > 0:
                f /= base
                u += f * (i % base)
                i //= base
            pad = 0.1 * (hi - lo)
            pts[row, d] = lo + pad + u * (hi - lo - 2 * pad)
    return pts


# -- symbolic derivative ---------------------------------------------------

_DERIV_RULES = {
    "exp": lambda a: Call("exp", a),
    "log": lambda a: Bin("/", Num(1.0), a),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "tanh": lambda a: Bin("-", Num(1.0), Bin("^", Call("tanh", a), Num(2.0))),
    "sqrt": lambda a: Bin("/", Num(1.0), Bin("*", Num(2.0), Call("sqrt", a))),
}


def differentiate(e: Expr, var: int) -> Expr:
    """Symbolic partial derivative d e / d x_var (no simplification beyond
    dropping obvious zero branches)."""
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.index == var else 0.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg, var))
    if isinstance(e, Bin):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op in "+-":
            return Bin(e.op, da, db)
        if e.op == "*":
            return Bin("+", Bin("*", da, e.right), Bin("*", e.left, db))
        if e.op == "/":
            num = Bin("-", Bin("*", da, e.right), Bin("*", e.left, db))
            return Bin("/", num, Bin("^", e.right, Num(2.0)))
        # power: general rule d(a^b) = a^b * (db*log(a) + b*da/a); constant
        # exponents take the short form
        if isinstance(e.right, Num):
            p = e.right.value
            return Bin("*", Bin("*", Num(p), Bin("^", e.left, Num(p - 1))), da)
        inner = Bin("+", Bin("*", db, Call("log", e.left)),
                    Bin("/", Bin("*", e.right, da), e.left))
        return Bin("*", e, inner)
    if isinstance(e, Call):
        if e.name == "abs":
            raise ExprError("abs has no expression-level derivative")
        outer = _DERIV_RULES[e.name](e.arg)
        return Bin("*", outer, differentiate(e.arg, var))
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, exprs) -> Expr:
    """``e`` with every variable x_i replaced by ``exprs[i - 1]``: e o phi
    for the map phi whose components ``exprs`` are."""
    if isinstance(e, Var):
        return exprs[e.index - 1]
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, exprs))
    if isinstance(e, Call):
        return Call(e.name, substitute(e.arg, exprs))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, exprs), substitute(e.right, exprs))
    return e


# -- the quotient flow, one grid formula per call --------------------------
# Nodes from linspace on every call, the stencil over an explicitly padded
# array, the trapezoid sum with halved endpoints, and a FlowState built (and
# checked) for every RK4 stage.  There is no cone or blow-up handling: the
# oracle runs only on data that stays in the positive cone.


def pad_even(u: np.ndarray) -> np.ndarray:
    """Two ghost nodes per side by even reflection about both poles."""
    return np.concatenate([u[2:0:-1], u, u[-2:-4:-1]])


def flow_derivatives(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = len(u) - 1
    h = math.pi / m
    p = pad_even(u)
    i = np.arange(2, m + 3)
    du = (p[i - 2] - 8 * p[i - 1] + 8 * p[i + 1] - p[i + 2]) / (12 * h)
    ddu = (-p[i - 2] + 16 * p[i - 1] - 30 * p[i] + 16 * p[i + 1] - p[i + 2]) / (12 * h * h)
    du[0] = du[-1] = 0.0
    return du, ddu


def flow_quadrature(state: FlowState, values: np.ndarray) -> float:
    n, m = state.n, state.grid_size
    theta = np.linspace(0.0, math.pi, m + 1)
    w = values * np.exp(-n * state.u) * np.sin(theta) ** (n - 1)
    return sphere_area(n - 1) * ((math.pi / m) * (np.sum(w[1:-1]) + 0.5 * (w[0] + w[-1])))


def flow_sigmas(state: FlowState):
    """The tangential eigenvalue lam_t and sigma_k, sigma_l at the nodes."""
    u, n = state.u, state.n
    theta = np.linspace(0.0, math.pi, len(u))
    du, ddu = flow_derivatives(u)
    cot_term = np.empty_like(u)
    cot_term[1:-1] = du[1:-1] / np.tan(theta[1:-1])
    cot_term[0], cot_term[-1] = ddu[0], ddu[-1]
    e2u = np.exp(2.0 * u)
    lam_r = e2u * (0.5 + ddu + 0.5 * du * du)
    lam_t = e2u * (0.5 + cot_term - 0.5 * du * du)

    def sigma(j):
        if j == 0:
            return np.ones_like(u)
        a = math.comb(n - 1, j) * lam_t ** j if j <= n - 1 else 0.0
        return a + math.comb(n - 1, j - 1) * lam_t ** (j - 1) * lam_r
    return lam_t, sigma(state.k), sigma(state.l)


def flow_log_quotient(state: FlowState):
    """Nodal log(sigma_k/sigma_l), log r_{k,l} and int sigma_l dv."""
    _, sk, sl = flow_sigmas(state)
    logq = np.log(np.abs(sk)) - np.log(np.abs(sl))
    energy = flow_quadrature(state, sl)
    return logq, flow_quadrature(state, sl * logq) / energy, energy


def flow_rhs(state: FlowState) -> np.ndarray:
    logq, logr, _ = flow_log_quotient(state)
    return 0.5 * (logq - logr)


def flow_stable_dt(state: FlowState, safety: float = 0.5) -> float:
    n, k, l = state.n, state.k, state.l
    lam_t, sk, sl = flow_sigmas(state)
    dsk = math.comb(n - 1, k - 1) * lam_t ** (k - 1) if k >= 1 else 0.0
    dsl = math.comb(n - 1, l - 1) * lam_t ** (l - 1) if l >= 1 else 0.0
    gain = np.max(np.exp(2 * state.u) * np.abs(dsk / sk - dsl / sl))
    h = math.pi / state.grid_size
    return safety * h * h / (1.0 + float(gain))


def flow_step(state: FlowState, dt: float) -> FlowState:
    n, k, l, u, t = state.n, state.k, state.l, state.u, state.t

    def rhs_at(uu, tt):
        return flow_rhs(FlowState(n, k, l, uu, tt))

    k1 = rhs_at(u, t)
    k2 = rhs_at(u + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs_at(u + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs_at(u + dt * k3, t + dt)
    return FlowState(n, k, l, u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), t + dt)


def flow_run(state: FlowState, t_end: float, dt: float | None = None,
             cadence: int = 10) -> list[tuple]:
    """Diagnostic rows (t, E_l, log r_{k,l}, sup |log q - log r|, volume)."""
    dt = flow_stable_dt(state) if dt is None else dt

    def sample(s):
        logq, logr, energy = flow_log_quotient(s)
        return (s.t, energy, logr, float(np.max(np.abs(logq - logr))),
                flow_quadrature(s, np.ones_like(s.u)))

    rows = [sample(state)]
    nstep = 0
    while state.t < t_end - 1e-12:
        state = flow_step(state, min(dt, t_end - state.t))
        nstep += 1
        if nstep % cadence == 0 or state.t >= t_end - 1e-12:
            rows.append(sample(state))
    return rows


# -- the Hodge split on the full complex spectrum ----------------------------


def hodge_full_spectrum(comps):
    """(Y, h) with X = Y + grad h on the torus grid of ``comps``, by complex
    FFTs over every wavenumber of every axis, one axis's wavenumbers at a
    time; i m is zero at each axis's Nyquist wavenumber -N/2, as in the
    program's half-spectrum split."""
    shape = comps[0].shape
    ms = []
    for a, nax in enumerate(shape):
        m = np.fft.fftfreq(nax, d=1.0 / nax)
        m[nax // 2] = 0.0  # the one -N/2 entry
        ms.append(m.reshape([nax if b == a else 1 for b in range(len(shape))]))
    div_hat = sum(1j * m * np.fft.fftn(c) for m, c in zip(ms, comps))
    m2 = np.broadcast_to(sum(m * m for m in ms), shape)
    h_hat = np.zeros(shape, dtype=complex)
    h_hat[m2 > 0] = -div_hat[m2 > 0] / m2[m2 > 0]
    y = [c - np.fft.ifftn(1j * m * h_hat).real for m, c in zip(ms, comps)]
    return y, np.fft.ifftn(h_hat).real


# -- the curvature pipeline as index loops ---------------------------------
# Every stage written as explicit sums of jet products, entry by entry, in
# the ring of the program's own pipeline: Gauss-Jordan on whole entries,
# the stages of ``curvature_taylor`` after the inverse, the seven covariant
# operators and the bodies of the conformal laws.  The program computes the
# same quantities as numpy contractions over jet arrays.


def _obj(shape):
    return np.empty(shape, dtype=object)


def loop_inverse(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination without pivoting, one entry at a time."""
    n = m.shape[0]
    ctx = m[0, 0].ctx
    a = m.copy()
    inv = _obj((n, n))
    for i in range(n):
        for j in range(n):
            inv[i, j] = ctx.constant(1.0 if i == j else 0.0)
    for col in range(n):
        pinv = taylor.recip(a[col, col])
        for j in range(n):
            a[col, j] = a[col, j] * pinv
            inv[col, j] = inv[col, j] * pinv
        for r in range(n):
            if r == col:
                continue
            f = a[r, col]
            if np.all(f.c == 0.0):
                continue
            for j in range(n):
                a[r, j] = a[r, j] - f * a[col, j]
                inv[r, j] = inv[r, j] - f * inv[col, j]
    return inv


class LoopCurvature(TaylorCurvature):
    """The pipeline's fields with the covariant operators as index loops."""

    def cov_deriv_02(self, t):
        n = self.dim
        gam = self.christoffel
        out = _obj((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s = t[j, k].deriv(i)
                    for l in range(n):
                        s = s - gam[l, i, j] * t[l, k] - gam[l, i, k] * t[j, l]
                    out[i, j, k] = s
        return out

    def grad_scalar(self, s):
        n = self.dim
        ds = [s.deriv(j) for j in range(n)]
        return np.array(
            [sum((self.ginv[i, j] * ds[j] for j in range(n)),
                 start=s.ctx.constant(0.0)) for i in range(n)],
            dtype=object,
        )

    def hessian_scalar(self, s):
        n = self.dim
        ds = [s.deriv(i) for i in range(n)]
        out = _obj((n, n))
        for i in range(n):
            for j in range(i, n):
                h = ds[i].deriv(j)
                for k in range(n):
                    h = h - self.christoffel[k, i, j] * ds[k]
                out[i, j] = out[j, i] = h
        return out

    def laplacian_scalar(self, s):
        hess = self.hessian_scalar(s)
        acc = s.ctx.constant(0.0)
        for i in range(self.dim):
            for j in range(self.dim):
                acc = acc + self.ginv[i, j] * hess[i, j]
        return acc

    def lie_metric(self, xvec):
        n = self.dim
        xlow = [sum((self.g[j, k] * xvec[k] for k in range(n)),
                    start=xvec[0].ctx.constant(0.0)) for j in range(n)]
        out = _obj((n, n))
        for i in range(n):
            for j in range(i, n):
                a = xlow[j].deriv(i) + xlow[i].deriv(j)
                for k in range(n):
                    a = a - 2.0 * self.christoffel[k, i, j] * xlow[k]
                out[i, j] = out[j, i] = a
        return out

    def div_vector(self, xvec):
        n = self.dim
        acc = xvec[0].ctx.constant(0.0)
        for i in range(n):
            acc = acc + xvec[i].deriv(i)
            for k in range(n):
                acc = acc + self.christoffel[i, i, k] * xvec[k]
        return acc

    def div_endomorphism(self, t):
        n = self.dim
        gam = self.christoffel
        out = _obj((n,))
        for j in range(n):
            acc = t[0, 0].ctx.constant(0.0)
            for i in range(n):
                acc = acc + t[i, j].deriv(i)
                for l in range(n):
                    acc = acc + gam[i, i, l] * t[l, j] - gam[l, i, j] * t[i, l]
            out[j] = acc
        return out


def loop_curvature(chart: MetricChart, x, order: int) -> LoopCurvature:
    """The curvature pipeline of ``curvature_taylor`` for n >= 3 (without
    its input checks), every stage an index loop over jets."""
    g = taylor_metric(chart, np.asarray(x, dtype=float), order)
    n = chart.dim
    ginv = loop_inverse(g)
    zero = g[0, 0].ctx.constant(0.0)

    dg = _obj((n, n, n))  # dg[l, i, j] = d_l g_ij
    for l in range(n):
        for i in range(n):
            for j in range(i, n):
                dg[l, i, j] = dg[l, j, i] = g[i, j].deriv(l)

    gam = _obj((n, n, n))  # Gamma^k_ij
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                acc = zero
                for l in range(n):
                    acc = acc + ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gam[k, i, j] = gam[k, j, i] = 0.5 * acc

    riem13 = _obj((n, n, n, n))  # R^r_{s m nu}
    for r in range(n):
        for s in range(n):
            for m in range(n):
                riem13[r, s, m, m] = zero
                for nu in range(m + 1, n):
                    acc = gam[r, nu, s].deriv(m) - gam[r, m, s].deriv(nu)
                    for t in range(n):
                        acc = acc + gam[r, m, t] * gam[t, nu, s] \
                                  - gam[r, nu, t] * gam[t, m, s]
                    riem13[r, s, m, nu] = acc
                    riem13[r, s, nu, m] = -acc

    ric = _obj((n, n))
    for s in range(n):
        for nu in range(s, n):
            acc = zero
            for m in range(n):
                acc = acc + riem13[m, s, m, nu]
            ric[s, nu] = ric[nu, s] = acc

    riem = _obj((n, n, n, n))  # R_ijkl
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = zero
                    for m in range(n):
                        acc = acc + g[i, m] * riem13[m, j, k, l]
                    riem[i, j, k, l] = acc

    scal = zero
    for i in range(n):
        for j in range(n):
            scal = scal + ginv[i, j] * ric[i, j]

    schouten = _obj((n, n))
    coef = scal * (1.0 / (2.0 * (n - 1)))
    for i in range(n):
        for j in range(i, n):
            schouten[i, j] = schouten[j, i] = \
                (ric[i, j] - coef * g[i, j]) * (1.0 / (n - 2))
    endo = _obj((n, n))
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + ginv[i, k] * schouten[k, j]
            endo[i, j] = acc

    tc = LoopCurvature(g, ginv, gam, riem, ric, scal, schouten, endo, None)
    if order >= 3:
        da = tc.cov_deriv_02(schouten)
        cotton = _obj((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    cotton[i, j, k] = da[i, j, k] - da[j, i, k]
        tc.cotton = cotton
    return tc


def loop_conformal_base(tc0: LoopCurvature, w):
    """(hess_0 w, dw, |dw|^2_0) for the conformal laws of e^{2w} g_0."""
    n = tc0.dim
    dw = [w.deriv(i) for i in range(n)]
    grad2 = w.ctx.constant(0.0)
    for i in range(n):
        for j in range(n):
            grad2 = grad2 + tc0.ginv[i, j] * dw[i] * dw[j]
    return tc0.hessian_scalar(w), dw, grad2


def loop_conformal_schouten(tc0: LoopCurvature, hess, dw, grad2) -> np.ndarray:
    n = tc0.dim
    out = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = (tc0.schouten[i, j] - hess[i, j]
                                     + dw[i] * dw[j] - 0.5 * grad2 * tc0.g[i, j])
    return out


def loop_conformal_ricci(tc0: LoopCurvature, w, hess, dw, grad2) -> np.ndarray:
    n = tc0.dim
    lap = tc0.laplacian_scalar(w)
    out = _obj((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = (
                tc0.ricci[i, j]
                - (n - 2) * (hess[i, j] - dw[i] * dw[j])
                - (lap + (n - 2) * grad2) * tc0.g[i, j]
            )
    return out


# -- exact gradient almost solitons on warped products ---------------------

FIBER_CURVATURE = {"sphere": 1, "hyperbolic": -1, "euclidean": 0}


def warped_sigma(m: int, j: int, c: int, xi: str, dxi: str, ddxi: str) -> str:
    """sigma_j of the Schouten endomorphism of dt^2 + xi(t)^2 g_c, over a
    fiber of dimension m and curvature c, as source in x1 = t: the
    eigenvalue a_t = (c - xi'^2)/(2 xi^2) m times and a_r = -xi''/xi - a_t
    once, by ``sigma.two_eigenvalue_sigma``'s rule with n - 1 = m."""
    a_t = f"(({c} - ({dxi})^2)/(2*({xi})^2))"
    a_r = f"(-({ddxi})/({xi}) - {a_t})"
    terms = [f"{math.comb(m, j)}*{a_t}^{j}"] if j <= m else []
    if j >= 1:
        terms.append(f"{math.comb(m, j - 1)}*{a_t}^{j - 1}*{a_r}")
    return " + ".join(terms)


def warped_soliton(xi: str, dxi: str, ddxi: str, f: str, fiber: str, k: int,
                   l: int) -> SolitonSpec:
    """The gradient quotient almost soliton on ``models.warped(xi, fiber)``,
    with f' = xi and the fiber a ``sphere``, ``hyperbolic`` or ``euclidean``
    builtin: Hess f = xi' g, so with lambda = log(sigma_k/sigma_l) - xi' the
    residual is exactly 0 and psi = xi' is not constant; the metric is not
    Einstein unless a_t = a_r, as for cosh t over a hyperbolic fiber.
    ``xi``, its derivatives and ``f`` are source in x1 = t."""
    base = models.builtin(fiber)
    m, c = base.chart.dim, FIBER_CURVATURE[base.name.split(":")[0]]
    sk, sl = (warped_sigma(m, j, c, xi, dxi, ddxi) for j in (k, l))
    spec = models.warped(xi, base)
    return SolitonSpec(spec.chart, parse(f"log(({sk})/({sl})) - ({dxi})"), k, l,
                       potential=parse(f), name=f"{spec.name} soliton ({k}, {l})")
