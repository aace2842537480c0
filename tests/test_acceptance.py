"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion checks what its model documents: the expected values are closed
forms written here, never figures read back from the pipeline, and every
criterion is verified at its stated tolerance with no bound loosened.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from oracles import conformal_field_integral, elementary_all

from sigmaflow import expr as ex
from sigmaflow import flow, hodge, models
from sigmaflow.cli import main as cli_main
from sigmaflow.curvature import MetricChart, curvature_at, curvature_taylor, values
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import (conformal_ricci, conformal_schouten,
                             divergence_newton, newton_tensor, sigma_profile)
from sigmaflow.soliton import SolitonSpec, lemma_structural_check
from sigmaflow.tensor import jacobi_eigenvalues


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_sigma_golden_tables():
    worst = 0.0
    for n in (3, 4, 5):
        for builder, sign in ((models.sphere, 1.0), (models.hyperbolic, -1.0)):
            model = (builder(n) if sign > 0 else
                     models.hyperbolic(n, k=3, l=1))
            for x in chart_probes(model.chart, 10, seed=n):
                tc = curvature_at(model.chart, x)
                sig = elementary_all(np.sort(np.linalg.eigvals(values(tc.endo)).real))
                for k in range(n + 1):
                    expect = sign ** k * math.comb(n, k) / 2 ** k
                    worst = max(worst, abs(sig[k] - expect) / abs(expect))
    report(1, worst < 1e-8, f"sigma_k tables S^n/H^n rel err {worst:.2e} (< 1e-8)")


def test_criterion_02_example4():
    failures = []
    details = []
    for n in (4, 5):
        model = models.example4(n)
        flat = np.zeros((n, n))
        if n % 2 == 0:
            # n/2 hyperbolic planes: Einstein, Ric = -g
            sig_expect = [(-1) ** k * math.comb(n, k) / (2 ** k * (n - 1) ** k)
                          for k in range(n + 1)]
            ric_label = "Ric+g"
        else:
            # (n-1)/2 hyperbolic planes times the flat x1 line:
            # Ric = -g + dx1 (x) dx1, Schouten eigenvalues a (n-1 times), -a
            flat[0, 0] = 1.0
            a = -1.0 / (2 * (n - 2))
            sig_expect = [1.0] + [a ** k * (math.comb(n - 1, k)
                                            - math.comb(n - 1, k - 1))
                                  for k in range(1, n + 1)]
            ric_label = "Ric+g-dx1dx1"
        ric_err = sig_err = lie_err = 0.0
        for x in chart_probes(model.chart, 20, seed=n):
            tc = curvature_at(model.chart, x)
            ric_err = max(ric_err,
                          float(np.max(np.abs(values(tc.ricci) + values(tc.g) - flat))))
            sig = elementary_all(np.sort(np.linalg.eigvals(values(tc.endo)).real))
            for k, expect in enumerate(sig_expect):
                sig_err = max(sig_err, abs(sig[k] - expect) / abs(expect))
            xv = np.array([tc.jet(c) for c in model.vector_field], dtype=object)
            lie_err = max(lie_err, float(np.max(np.abs(values(tc.lie_metric(xv))))))
        ok = ric_err < 1e-8 and sig_err < 1e-8 and lie_err < 1e-8
        if not ok:
            failures.append(n)
        details.append(f"n={n}: {ric_label} {ric_err:.2e}, "
                       f"sigma {sig_err:.2e}, L_Xg {lie_err:.2e}")
    report(2, not failures, "; ".join(details) + " (each < 1e-8)")


def test_criterion_03_hessian_identities():
    worst = 0.0
    for n in (3, 4, 5):
        for builder, sign in ((models.sphere, -1.0), (models.hyperbolic, 1.0)):
            model = builder(n) if sign < 0 else models.hyperbolic(n, k=3, l=1)
            for x in chart_probes(model.chart, 8, seed=2 * n):
                tc = curvature_at(model.chart, x)
                hess = values(tc.hessian_scalar(tc.jet(model.potential)))
                hval = ex.eval_float(model.potential, x)
                resid = hess - sign * hval * values(tc.g)
                worst = max(worst, float(np.max(np.abs(resid))))
    report(3, worst < 1e-8,
           f"hess h_v = -/+ h_v g on S^n/H^n sup err {worst:.2e} (< 1e-8)")


def test_criterion_04_newton_identities():
    tr_err = 0.0
    div_err = 0.0
    all_models = [models.sphere(4), models.sphere(5), models.hyperbolic(4),
                  models.example4(4), models.example4(5),
                  models.product_line_sphere(3)]
    for model in all_models:
        n = model.chart.dim
        for x in chart_probes(model.chart, 4, seed=1):
            tc = curvature_at(model.chart, x)
            sig = elementary_all(np.sort(np.linalg.eigvals(values(tc.endo)).real))
            for k in range(n):
                tk = newton_tensor(tc, k).components
                scale = max(abs(sig[k]), abs(sig[k + 1]), 1e-3)
                tr_err = max(tr_err,
                             abs(np.trace(tk) - (n - k) * sig[k]) / scale,
                             abs(np.trace(tk @ values(tc.endo))
                                 - (k + 1) * sig[k + 1]) / scale)
    for model in (models.sphere(4), models.hyperbolic(4)):
        for x in chart_probes(model.chart, 3, seed=4):
            for k in range(1, 4):
                div = divergence_newton(model.chart, x, k)
                div_err = max(div_err, float(np.max(np.abs(div.components))))
    ok = tr_err < 1e-9 and div_err < 1e-7
    report(4, ok, f"Newton traces rel {tr_err:.2e} (< 1e-9), "
                  f"div T_k {div_err:.2e} (< 1e-7)")


def test_criterion_05_soliton_residuals_and_lemma():
    codes = {}
    for name in ("sphere:4", "product_line_sphere:3", "example4:4"):
        code, _, _ = run_cli("verify", "--builtin", name,
                             "--probes", "15", "--tolerance", "1e-7")
        codes[name] = code
    res = lemma_structural_check(SolitonSpec.from_model(models.sphere(4)),
                                 count=10)
    lemma_worst = max(res.trace_identity, res.first_order, res.second_order)
    ok = all(c == 0 for c in codes.values()) and lemma_worst < 1e-6
    report(5, ok, f"verify exits {codes}, lemma residuals worst "
                  f"{lemma_worst:.2e} (< 1e-6)")


def test_criterion_06_conformal_laws():
    rng = np.random.default_rng(88)
    base = models.sphere(4).chart
    worst = 0.0
    for trial in range(10):
        c = rng.uniform(0.05, 0.3, size=4)
        src = (f"exp({c[0]:.6f}*x1 + {c[1]:.6f}*sin(x2) "
               f"+ {c[2]:.6f}*x3*x4 + {c[3]:.6f}*cos(x1*x2))")
        scaled = [[f"(({src})^2) * 4/(1 + x1^2 + x2^2 + x3^2 + x4^2)^2"
                   if i == j else "0" for j in range(4)] for i in range(4)]
        direct_chart = MetricChart(
            dim=4, comps=[[ex.parse(s) for s in row] for row in scaled],
            domain=((-0.7, 0.7),) * 4)
        x = rng.uniform(-0.4, 0.4, size=4).tolist()
        dtc = curvature_at(direct_chart, x)
        a_err = np.max(np.abs(conformal_schouten(base, x, src).components
                              - values(dtc.schouten)))
        r_err = np.max(np.abs(conformal_ricci(base, x, src).components
                              - values(dtc.ricci)))
        worst = max(worst, float(a_err), float(r_err))
    report(6, worst < 1e-7,
           f"conformal Schouten/Ricci laws vs direct, sup {worst:.2e} (< 1e-7)")


def test_criterion_07_warped_ricci():
    rng = np.random.default_rng(77)
    worst = 0.0
    for xi in ("1", "sinh(x1)", "cosh(x1)"):
        for fiber_builder in (models.sphere, models.hyperbolic):
            fiber = fiber_builder(3)
            chart = models.warped(xi, fiber).chart
            for _ in range(3):
                x = [rng.uniform(0.6, 1.4),
                     *rng.uniform(-0.2, 0.2, size=3)]
                formula = models.warped_ricci_formula(xi, fiber, x).components
                direct = values(curvature_at(chart, x).ricci)
                worst = max(worst, float(np.max(np.abs(formula - direct))))
    report(7, worst < 1e-7,
           f"warped-product Ricci assembly vs chart, sup {worst:.2e} (< 1e-7)")


def test_criterion_08_flow_fixed_point_and_conservation():
    # round data: 100 explicit steps must stay at the fixed point
    state = flow.FlowState(4, 2, 1, np.zeros(65))
    dt = flow.stable_dt(state)
    rhs_sup = 0.0
    for _ in range(100):
        rhs_sup = max(rhs_sup, float(np.max(np.abs(flow.flow_rhs(state)))))
        state = flow.step(state, dt)
    # perturbed run per the stated configuration
    theta = np.linspace(0, math.pi, 65)
    pert = flow.FlowState(4, 2, 1, 0.05 * np.cos(theta))
    initial_dev = float(np.max(np.abs(
        np.log(np.abs(flow._nodal_sigmas(pert, 2)[1]))
        - np.log(np.abs(flow._nodal_sigmas(pert, 1)[1])) - flow.log_r_kl(pert))))
    _, diag = flow.run(pert, 1.0)
    e = np.array(diag.energy)
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
    ok = (diag.aborted is None and rhs_sup < 1e-9 and drift < 1e-5
          and diag.sup_dev[-1] < initial_dev)
    report(8, ok, f"round RHS sup {rhs_sup:.2e} (< 1e-9), E_1 drift "
                  f"{drift:.2e} (< 1e-5), dev {initial_dev:.2e} -> "
                  f"{diag.sup_dev[-1]:.2e}")


def test_criterion_09_convergence_orders():
    def u0(th):
        return 0.08 * np.cos(th) + 0.03 * np.cos(2 * th)

    ref = flow.FlowState.from_function(4, 2, 1, 512, u0)
    rref = flow.flow_rhs(ref)
    errs = []
    for m in (64, 128):
        s = flow.FlowState.from_function(4, 2, 1, m, u0)
        errs.append(np.max(np.abs(flow.flow_rhs(s) - rref[:: 512 // m])))
    spatial_ratio = float(errs[0] / errs[1])

    grid, t_end = 48, 0.04
    base = flow.FlowState.from_function(4, 2, 1, grid, u0)
    sols = {}
    for div in (1, 2, 4):
        st = flow.FlowState(4, 2, 1, base.u.copy())
        steps = 16 * div
        for _ in range(steps):
            st = flow.step(st, t_end / steps)
        sols[div] = st.u
    e1 = np.max(np.abs(sols[1] - sols[4]))
    e2 = np.max(np.abs(sols[2] - sols[4]))
    temporal_ratio = float(e1 / e2)
    ok = spatial_ratio >= 4.0 and 8.0 <= temporal_ratio <= 32.0
    report(9, ok, f"spatial ratio {spatial_ratio:.1f} (>= 4), temporal ratio "
                  f"{temporal_ratio:.1f} (in [8, 32])")


def test_criterion_10_conformal_field_integral():
    theta = np.linspace(0, math.pi, 257)
    state = flow.FlowState(4, 2, 1,
                           0.07 * np.cos(theta) + 0.02 * np.cos(3 * theta))
    worst = 0.0
    for k in (1, 2, 3):
        val = abs(conformal_field_integral(state, k))
        scale = flow.quadrature(state, np.abs(flow._nodal_sigmas(state, k)[1]))
        worst = max(worst, val / (1e-6 * scale))
    report(10, worst < 1.0,
           f"|int <X, grad sigma_k> dv| worst {worst:.3f} of budget "
           f"(< 1e-6 * scale)")


def test_criterion_11_hodge():
    worst = 0.0
    fields = {
        (64, 64): [lambda x, y: np.sin(x) * np.cos(2 * y) + np.cos(y),
                   lambda x, y: np.cos(x + y) + np.sin(3 * x) * np.sin(y)],
        (32, 32, 32): [lambda x, y, z: np.sin(y) * np.cos(z) + np.cos(2 * x),
                       lambda x, y, z: np.sin(z + x),
                       lambda x, y, z: np.cos(x) * np.sin(2 * y) + np.cos(z)],
    }
    for shape, comps in fields.items():
        f = hodge.TorusField.from_exprs(comps, shape)
        y1, h1 = hodge.hodge_decompose(f)
        rep = hodge.decomposition_report(f, y1, h1)
        y2, h2 = hodge.hodge_decompose(y1)
        idem = max(float(np.max(np.abs(h2))),
                   max(float(np.max(np.abs(a.astype(float) - b)))
                       for a, b in zip(y2.components, y1.components)))
        # L2 orthogonality of the divergence-free and gradient parts
        h_hat = np.fft.fftn(h1)
        ip = 0.0
        for a in range(len(shape)):
            m = np.fft.fftfreq(shape[a], d=1.0 / shape[a])
            idx = [None] * len(shape)
            idx[a] = slice(None)
            grad = np.fft.ifftn(1j * m[tuple(idx)] * h_hat).real
            ip += float(np.sum(y1.components[a] * grad))
        ortho = abs(ip) / math.prod(shape)
        worst = max(worst, rep["reconstruction"], rep["div_residual"],
                    idem, ortho)
    report(11, worst < 1e-9,
           f"Hodge reconstruction/orthogonality/idempotence worst "
           f"{worst:.2e} (< 1e-9)")


def test_criterion_12_oracle_equivalence():
    # the brute-force oracles that certified every derived value:
    # finite differences for curvature, characteristic-polynomial roots for
    # eigenvalues, direct matrix sums for Newton tensors
    from tests.test_curvature import fd_riemann_lowered
    rows = [["1 + x2^2/4", "0", "0"],
            ["0", "1 + x1^2/4", "0"],
            ["0", "0", "1 + x1^2/8 + x2^2/8"]]
    chart = MetricChart(dim=3, comps=[[ex.parse(s) for s in row] for row in rows],
                        domain=((-1.0, 1.0),) * 3)
    x = [0.25, -0.35, 0.15]
    tc = curvature_at(chart, x)
    lowered, _ = fd_riemann_lowered(chart, x)
    fd_err = float(np.max(np.abs(values(tc.riemann) - lowered)))

    rng = np.random.default_rng(5)
    eig_err = 0.0
    for n in (3, 4, 5):
        m = rng.standard_normal((n, n))
        a = 0.5 * (m + m.T)
        mine = jacobi_eigenvalues(a)
        oracle = np.sort(np.roots(np.poly(a)).real)
        eig_err = max(eig_err, float(np.max(np.abs(mine - oracle))))

    newt_err = 0.0
    tc = curvature_at(models.hyperbolic(4).chart, [0.1, -0.05, 0.15, 0.0])
    sig = elementary_all(np.sort(np.linalg.eigvals(values(tc.endo)).real))
    for k in range(4):
        direct = sum((-1.0) ** j * sig[k - j]
                     * np.linalg.matrix_power(values(tc.endo), j)
                     for j in range(k + 1))
        horner = newton_tensor(tc, k).components
        newt_err = max(newt_err, float(np.max(np.abs(direct - horner))))
    ok = fd_err < 1e-6 and eig_err < 1e-8 and newt_err < 1e-10
    report(12, ok, f"FD Riemann {fd_err:.2e}, charpoly eigenvalues "
                   f"{eig_err:.2e}, direct Newton {newt_err:.2e}")
