import math

import numpy as np
import pytest

import oracles
from oracles import conformal_field_integral, spectral_derivative

from sigmaflow import flow
from sigmaflow.curvature import GeometryError, MetricChart, curvature_taylor, values
from sigmaflow.flow import (BlowUp, FlowState, derivatives, flow_rhs, log_r_kl, quadrature,
                            run, schouten_eigenvalues, sphere_area, stable_dt, step)
from sigmaflow.sigma import ConeConditionError, check_pair, sigmas


def perturbed(n, k, l, grid, amp=0.05, t=0.0):
    theta = np.linspace(0, math.pi, grid + 1)
    return FlowState(n, k, l, amp * np.cos(theta), t)


def test_round_metric_is_a_fixed_point():
    s = FlowState(4, 2, 1, np.zeros(65))
    assert np.max(np.abs(flow_rhs(s))) < 1e-14


def test_round_eigenvalues_are_half():
    s = FlowState(5, 2, 1, np.zeros(65))
    lam_r, lam_t = schouten_eigenvalues(s)
    assert np.allclose(lam_r, 0.5, atol=1e-13)
    assert np.allclose(lam_t, 0.5, atol=1e-13)


def test_sigma_nodes_round_values():
    n = 4
    s = FlowState(n, 2, 1, np.zeros(65))
    for j in range(n + 1):
        expect = math.comb(n, j) / 2 ** j
        assert np.allclose(flow._nodal_sigmas(s, j)[1], expect, rtol=1e-12)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2 * math.pi)
    assert sphere_area(2) == pytest.approx(4 * math.pi)
    assert sphere_area(3) == pytest.approx(2 * math.pi ** 2)


def test_quadrature_volume_of_round_sphere():
    for n in (3, 4, 5):
        s = FlowState(n, 2, 1, np.zeros(129))
        vol = quadrature(s, np.ones(129))
        # odd sin powers leave an O(h^4) Euler-Maclaurin tail (n = 4); even
        # powers integrate exactly
        assert vol == pytest.approx(sphere_area(n), rel=1e-8)


def test_round_energy_value_n3():
    s = FlowState(3, 2, 1, np.zeros(129))
    e1 = quadrature(s, flow._nodal_sigmas(s, 1)[1])
    assert e1 == pytest.approx(3 * math.pi ** 2, rel=1e-12)


def test_derivatives_fourth_order():
    errs = []
    for m in (32, 64):
        th = np.linspace(0, math.pi, m + 1)
        du, ddu = derivatives(np.cos(th) + 0.3 * np.cos(3 * th))
        exact = -np.sin(th) - 0.9 * np.sin(3 * th)
        errs.append(np.max(np.abs(du - exact)))
    assert errs[0] / errs[1] > 12  # 4th order gives ~16


def test_pole_symmetry_of_derivatives():
    th = np.linspace(0, math.pi, 65)
    du, _ = derivatives(np.cos(th) + 0.2 * np.cos(2 * th))
    assert du[0] == 0.0 and du[-1] == 0.0


def test_spectral_derivative_is_exact_for_cosines():
    th = np.linspace(0, math.pi, 65)
    f = np.cos(2 * th) - 0.5 * np.cos(5 * th)
    d = spectral_derivative(f)
    assert np.max(np.abs(d + 2 * np.sin(2 * th) - 2.5 * np.sin(5 * th))) < 1e-12


def test_log_r_is_weighted_mean():
    s = perturbed(4, 2, 1, 96)
    lr = log_r_kl(s)
    sk = flow._nodal_sigmas(s, 2)[1]
    sl = flow._nodal_sigmas(s, 1)[1]
    logq = np.log(np.abs(sk)) - np.log(np.abs(sl))
    assert min(logq) - 1e-12 <= lr <= max(logq) + 1e-12
    # rhs integrates to zero against sigma_l dv (the conservation mechanism)
    rhs = flow_rhs(s)
    assert abs(quadrature(s, sl * rhs)) < 1e-10 * abs(quadrature(s, np.abs(sl)))


def test_each_sample_evaluates_the_spectrum_once(monkeypatch):
    # one sample at t = 0, then per step four ETDRK4 stages and one sample
    calls = [0]

    def counting(state):
        calls[0] += 1
        return schouten_eigenvalues(state)
    monkeypatch.setattr(flow, "schouten_eigenvalues", counting)
    steps = 3
    _, diag = run(perturbed(4, 2, 1, 64), steps * 1e-4, dt=1e-4, cadence=1)
    assert diag.aborted is None and len(diag.times) == steps + 1
    assert calls[0] == 1 + 5 * steps


def test_energy_conserved_along_flow():
    state = perturbed(4, 2, 1, 64)
    _, diag = run(state, 0.2)
    assert diag.aborted is None
    e = np.array(diag.energy)
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6


def test_deviation_decreases():
    state = perturbed(4, 2, 1, 64)
    _, diag = run(state, 0.5)
    assert diag.aborted is None
    assert diag.sup_dev[-1] < diag.sup_dev[0]


def test_volume_not_conserved_generically():
    state = perturbed(4, 2, 1, 64, amp=0.1)
    _, diag = run(state, 0.3)
    v = np.array(diag.volume)
    assert np.max(np.abs(v - v[0])) / v[0] > 1e-8


def test_step_preserves_time_and_shape():
    s = perturbed(3, 2, 1, 48)
    out = step(s, 1e-4)
    assert out.t == pytest.approx(1e-4)
    assert out.u.shape == s.u.shape
    with pytest.raises(GeometryError, match="dt must be positive"):
        step(s, 0.0)


def test_stable_dt_positive_and_small():
    s = perturbed(4, 2, 1, 64)
    dt = stable_dt(s)
    h = math.pi / 64
    assert 0 < dt <= 0.5 * h * h


def test_blowup_detection():
    s = FlowState(3, 2, 1, np.full(65, 9.99))
    with pytest.raises(BlowUp):
        step(s._evolved(s.u + 0.02, s.t), 1e-5)
    # the same bound is checked when a state is built
    with pytest.raises(GeometryError, match="exceeds 10"):
        FlowState(3, 2, 1, s.u + 0.02)


def test_cone_violation_aborts_with_partial_diagnostics():
    # huge negative curvature perturbation pushes sigma_2 through zero
    theta = np.linspace(0, math.pi, 65)
    state = FlowState(4, 2, 1, 1.5 * np.cos(2 * theta))
    with pytest.raises(ConeConditionError,
                       match=r"at node 0 \(theta = 0\.0000, t = 0\.000000\): "
                             r"sigma_2 = \S+, sigma_1 = \S+, sigma_2 \* sigma_1 not > 0") as err:
        flow_rhs(state)
    assert err.value.sigma_k * err.value.sigma_l <= 0.0
    _, diag = run(state, 0.1)
    assert diag.aborted is not None


def test_cone_violation_names_the_first_violating_node():
    # the flow reads sigma.log_quotient and locates its error by the probe,
    # the first node where sigma_k * sigma_l is not > 0
    theta = np.linspace(0, math.pi, 65)
    state = FlowState(4, 2, 1, -1.5 * np.cos(2 * theta))
    with pytest.raises(ConeConditionError, match=r"at node 14 \(theta = 0\.6872, ") as err:
        flow_rhs(state)
    _, sk, sl = flow._nodal_sigmas(state, 2, 1)
    assert err.value.probe == 14 == np.flatnonzero(~(sk * sl > 0.0))[0]
    assert (err.value.sigma_k, err.value.sigma_l) == (sk[14], sl[14])


def zonal_harmonic(n, degree, theta):
    """The Gegenbauer polynomial C_degree^{(n-1)/2}(cos theta), a zonal
    eigenfunction of the Laplacian of S^n, scaled to 1 at theta = 0."""
    a, x = (n - 1) / 2, np.cos(theta)
    prev, cur = np.ones_like(x), 2 * a * x
    for m in range(2, degree + 1):
        prev, cur = cur, (2 * x * (m + a - 1) * cur - (m + 2 * a - 2) * prev) / m
    return cur / cur[0]


@pytest.mark.parametrize("n, k, l", [(3, 2, 1), (4, 2, 1), (5, 3, 1), (6, 3, 2)])
def test_linear_rates_of_zonal_harmonics(n, k, l):
    """Linearized at the round sphere, the flow is du/dt = ((k - l)/n)(lap u
    + n u) less its weighted mean, so the zonal harmonic of degree d decays
    at the rate (k - l)(d(d + n - 1) - n)/n; degree 1, the conformal
    directions of S^n, is neutral.  Started at 1e-6 times the harmonic, on
    grid 64 to t = 0.05, the rate of u's component along it is within 5e-5
    relative to max(1, rate) (measured worst 1.6e-5, at degree 3, the
    stencil's error) and degree 1 within 2e-6 (measured 3.4e-7)."""
    grid, t_end = 64, 0.05
    theta = np.linspace(0.0, math.pi, grid + 1)
    weight = np.sin(theta) ** (n - 1)
    weight[[0, -1]] *= 0.5  # the trapezoid rule, spectrally accurate here
    for degree in (1, 2, 3):
        y = zonal_harmonic(n, degree, theta)
        start = FlowState(n, k, l, 1e-6 * y)
        end, diag = run(start, t_end)
        assert diag.aborted is None and end.t == pytest.approx(t_end)
        amp0, amp1 = (np.dot(weight * s.u, y) / np.dot(weight * y, y) for s in (start, end))
        rate = -math.log(amp1 / amp0) / end.t
        want = (k - l) * (degree * (degree + n - 1) - n) / n
        bound = 2e-6 if degree == 1 else 5e-5 * max(1.0, want)
        assert abs(rate - want) <= bound, (degree, rate, want)


def test_trivial_quotient_k_equals_l():
    # k = l freezes the flow: rhs identically zero
    s = perturbed(4, 1, 1, 64)
    assert np.max(np.abs(flow_rhs(s))) < 1e-14


def test_flow_state_checks_its_inputs():
    # n, (k, l) and the grid are checked once, by FlowState
    for n, k, l, nodes in ((4, -1, -1, 65), (4, 5, 5, 65), (4, 2.0, 1, 65),
                           (2, 1, 0, 65), (4, 2, 1, 32), (4, 2, 1, 34)):
        with pytest.raises(GeometryError):
            FlowState(n, k, l, np.zeros(nodes))
    for grid in (-5, 0, 31):
        with pytest.raises(GeometryError, match="grid"):
            FlowState.from_function(4, 2, 1, grid)


def test_flow_refuses_values_that_leave_its_assumptions(monkeypatch):
    state = perturbed(4, 2, 1, 64)
    diag = flow.FlowDiagnostics()
    diag.record(0.1, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="diagnostic samples must advance in time"):
        diag.record(0.1, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(GeometryError, match="non-finite integrand"):
        quadrature(state, np.full(65, np.nan))
    # no state that FlowState admits gets here: sigma_k = 1 and sigma_l = 1e-310
    # at every node, whose integral is below 1e-300, and an infinite log quotient
    monkeypatch.setattr(flow, "_nodal_sigmas",
                        lambda st, k, l: (np.ones(65), np.ones(65), np.full(65, 1e-310)))
    with pytest.raises(GeometryError, match="int sigma_l dv vanishes; weighted mean undefined"):
        log_r_kl(state)
    monkeypatch.setattr(flow, "_log_quotient_nodes", lambda st: (np.full(65, np.inf), 0.0, 1.0))
    with pytest.raises(GeometryError, match="non-finite flow right-hand side"):
        flow_rhs(state)


def test_e_half_flag():
    state = perturbed(4, 2, 2, 64)
    _, diag = run(state, 1e-3)
    assert diag.energy_omitted
    _, diag2 = run(perturbed(4, 2, 1, 64), 1e-3)
    assert not diag2.energy_omitted


def test_conformal_field_integral_round():
    s = FlowState(4, 2, 1, np.zeros(129))
    for k in (1, 2, 3):
        assert abs(conformal_field_integral(s, k)) < 1e-10


def test_conformal_field_integral_perturbed():
    s = perturbed(4, 2, 1, 128, amp=0.08)
    for k in (1, 2, 3):
        scale = quadrature(s, np.abs(flow._nodal_sigmas(s, k)[1]))
        assert abs(conformal_field_integral(s, k)) < 1e-6 * scale


def test_grid_convergence_of_rhs():
    def u0(th):
        return 0.08 * np.cos(th) + 0.03 * np.cos(2 * th)

    ref = FlowState.from_function(4, 2, 1, 512, u0)
    rref = flow_rhs(ref)
    errs = []
    for m in (64, 128):
        s = FlowState.from_function(4, 2, 1, m, u0)
        errs.append(np.max(np.abs(flow_rhs(s) - rref[:: 512 // m])))
    assert errs[0] / errs[1] >= 4.0


def test_temporal_convergence_order():
    def u0(th):
        return 0.08 * np.cos(th) + 0.03 * np.cos(2 * th)

    # ETDRK4 is 4th order in dt, so halving dt divides the error by about 16;
    # at these steps its temporal truncation error dominates roundoff
    grid, t_end = 48, 0.04
    base = FlowState.from_function(4, 2, 1, grid, u0)
    sols = {}
    for div in (1, 2, 4):
        st = FlowState(4, 2, 1, base.u.copy())
        steps = 16 * div
        for _ in range(steps):
            st = step(st, t_end / steps)
        sols[div] = st.u
    e1 = np.max(np.abs(sols[1] - sols[4]))
    e2 = np.max(np.abs(sols[2] - sols[4]))
    assert 8.0 <= e1 / e2 <= 32.0


def close_to(value, reference, rel):
    """|value - reference| within rel of reference's sup norm."""
    scale = np.max(np.abs(reference))
    return np.max(np.abs(np.asarray(value) - reference)) <= rel * scale


@pytest.mark.parametrize("grid", (32, 64, 128, 512))
def test_grid_tables_match_the_reference_formulas(grid):
    theta = np.linspace(0, math.pi, grid + 1)
    u = 0.05 * np.cos(theta) + 0.02 * np.cos(2 * theta)
    ref_du, ref_ddu = oracles.flow_derivatives(u)
    du, ddu = derivatives(u)
    assert close_to(du, ref_du, 1e-12) and close_to(ddu, ref_ddu, 1e-12)
    for n in range(3, 7):
        for k, l in ((2, 1), (3, 1), (1, 2)):
            try:
                s = FlowState(n, k, l, u)
            except GeometryError:  # (k, l) not allowed in dimension n
                continue
            _, _, sl = oracles.flow_sigmas(s)
            assert close_to(quadrature(s, sl), oracles.flow_quadrature(s, sl), 1e-12)
            assert close_to(flow_rhs(s), oracles.flow_rhs(s), 1e-12)
            assert close_to(stable_dt(s), oracles.flow_stable_dt(s), 1e-12)


@pytest.mark.parametrize("n, k, l, grid", ((4, 2, 1, 64), (5, 3, 1, 128)))
def test_run_matches_the_reference_run(n, k, l, grid):
    # the reference steps with the program's L and exponential matrices,
    # which the Jacobian and expm tests at the end of this module check:
    # sup_dev reads u'' through the 1/(12 h^2) stencil, and an L that differs
    # from the program's by 5e-17 relative (its weighted mean summed in
    # another order) moves sup_dev by 1e-11
    state = perturbed(n, k, l, grid, amp=0.08)
    dt = stable_dt(state)
    ref = np.array(oracles.flow_run(state, 50 * dt, dt=dt, cadence=5)).T
    _, diag = run(state, 50 * dt, dt=dt, cadence=5)
    assert diag.aborted is None
    assert len(diag.times) == ref.shape[1] == 11
    assert np.max(np.abs(np.array(diag.times) - ref[0])) <= 1e-14
    for column, expect in zip((diag.energy, diag.log_r, diag.sup_dev, diag.volume), ref[1:]):
        assert close_to(column, expect, 1e-12)


def test_grid_tables_and_checks_are_built_once(monkeypatch):
    s = perturbed(4, 2, 1, 64)
    tables = (s.theta, *flow._nodes(64), *flow._stencil(64), flow._STENCIL,
              flow._sin_power(4, 64), *flow._linearization(4, 2, 1, 64),
              *flow._etd_matrices(4, 2, 1, 64, 1e-4))
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1.0
    assert perturbed(5, 3, 1, 64).theta is s.theta
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return check_pair(*args)
    monkeypatch.setattr(flow, "check_pair", counting)
    steps = 3
    _, diag = run(s, steps * 1e-4, dt=1e-4, cadence=1)
    assert diag.aborted is None and len(diag.times) == steps + 1
    assert calls[0] == 0


def test_run_refuses_too_many_steps_before_the_first(monkeypatch):
    # t + dt == t once t is large, so the first run would never end
    state = perturbed(4, 2, 1, 32)
    monkeypatch.setattr(flow, "step", lambda *args: pytest.fail("a step was taken"))
    for t_end, dt in ((1e300, None), (1.0, 1e-300), (1.0, 0.99e-6)):
        with pytest.raises(flow.StepLimitError, match="more than 1000000 steps"):
            run(state, t_end, dt=dt)


def test_run_refuses_a_grid_whose_step_matrices_exceed_the_budget():
    # a step forms dense (grid + 1)^2 matrices: grid 2046 is the largest
    # whose matrices each fit curvature.BATCH_BYTES (32 MiB)
    with pytest.raises(flow.StepLimitError, match="grid 2048: a step matrix exceeds"):
        run(FlowState(4, 2, 1, np.zeros(2049)), 1e-3)
    with pytest.raises(flow.StepLimitError):
        step(FlowState(4, 2, 1, np.zeros(2049)), 1e-4)


def test_run_refuses_a_step_that_does_not_advance_time(monkeypatch):
    # within the step bound, but t + dt == t at t = 1e17
    state = FlowState(4, 2, 1, np.zeros(33), t=1e17)
    monkeypatch.setattr(flow, "step", lambda *args: pytest.fail("a step was taken"))
    with pytest.raises(flow.StepLimitError, match="does not advance t = 1e"):
        run(state, 1e17 + 1024, dt=0.01)


# -- the closed form against the chart pipeline -----------------------------

# u = sum a_m cos(m theta) as (m, a_m) pairs, and cos(m theta) = T_m(cos theta)
PROFILES = (((1, 0.08), (2, 0.03)), ((1, -0.1),), ((2, 0.05), (3, -0.02)))
CHEBYSHEV = {1: "{c}", 2: "(2*{c}^2 - 1)", 3: "(4*{c}^3 - 3*{c})"}
NODES_64 = np.array([0, 8, 16, 24, 32])  # grid-64 nodes, theta = 0 .. pi/2


def profile_chart(n, profile):
    """e^{-2u} g_0 in the stereographic chart, g_0 = 4 (1+s)^-2 delta with
    s = |x|^2, and u a polynomial in cos theta = (1-s)/(1+s)."""
    s = "(" + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + ")"
    c = f"((1 - {s})/(1 + {s}))"
    u = " + ".join(f"{a!r}*{CHEBYSHEV[m].format(c=c)}" for m, a in profile)
    diagonal = f"exp(-2*({u}))*4/(1 + {s})^2"
    return MetricChart(n, [[diagonal if i == j else "0" for j in range(n)] for i in range(n)],
                       [(-0.9, 0.9)] * n)


def profile_derivatives(profile, theta):
    """u, u' and u'' of the profile, exactly."""
    return (sum(a * np.cos(m * theta) for m, a in profile),
            sum(-a * m * np.sin(m * theta) for m, a in profile),
            sum(-a * m * m * np.cos(m * theta) for m, a in profile))


def flow_at_nodes(n, profile, grid):
    """The flow's sorted g^{-1}A spectrum and sigma_0..sigma_n at NODES_64,
    rows per node."""
    state = FlowState.from_function(n, 2, 1, grid, lambda th: profile_derivatives(profile, th)[0])
    at = NODES_64 * (grid // 64)
    lam_r, lam_t = (lam[at] for lam in schouten_eigenvalues(state))
    spectrum = np.sort(np.column_stack([np.repeat(lam_t[:, None], n - 1, axis=1), lam_r]))
    return spectrum, np.array([flow._nodal_sigmas(state, j)[1][at] for j in range(n + 1)]).T


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("n", (3, 4, 5))
def test_closed_form_matches_the_chart_pipeline(monkeypatch, n, profile):
    # the nodes theta_i as probes |x| = tan(theta_i / 2), off every axis
    direction = np.arange(1.0, n + 1) / np.linalg.norm(np.arange(1.0, n + 1))
    theta = NODES_64 * math.pi / 64
    tc = curvature_taylor(profile_chart(n, profile), np.tan(theta / 2)[:, None] * direction,
                          order=2)
    endo = values(tc.endo)
    chart_spectrum = np.linalg.eigvalsh(endo)
    chart_sigmas = np.array(np.broadcast_arrays(*sigmas(endo))).T

    # (a) at exact u' and u'' the closed form is the chart's, to rounding
    with monkeypatch.context() as m:
        exact = profile_derivatives(profile, flow._nodes(64)[0])[1:]
        m.setattr(flow, "derivatives", lambda u: exact)
        spectrum, sig = flow_at_nodes(n, profile, 64)
    assert np.max(np.abs(spectrum - chart_spectrum)) <= 1e-13
    assert np.max(np.abs(sig - chart_sigmas)) <= 1e-13

    # (b) with the stencil, whose leading errors are h^4 u^(5)/30 in u' and
    # h^4 u^(6)/90 in u''.  u^(5) is odd, so |u^(5)| <= theta sup|u^(6)| and
    # the error of u' cot(theta) is at most h^4 sup|u^(6)|/30 for theta <=
    # pi/2.  With M_k = sum |a_m| m^k >= sup|u^(k)|, the eigenvalues move by
    # at most delta = e^{2 M_0} h^4 (M_6/90 + M_6/30 + M_1 M_5/30), and
    # sigma_j, a sum of C(n, j) products of j eigenvalues of modulus <= L,
    # by C(n, j) ((L + delta)^j - L^j).  Measured: at most 0.61 delta and
    # 0.52 of the sigma bound, falling 16.0x per doubling.
    big_m = {k: sum(abs(a) * m ** k for m, a in profile) for k in (0, 1, 5, 6)}
    top = np.max(np.abs(chart_spectrum), axis=1, keepdims=True)
    comb = np.array([math.comb(n, j) for j in range(n + 1)])
    errors = []
    for grid in (64, 128, 256):
        spectrum, sig = flow_at_nodes(n, profile, grid)
        h = math.pi / grid
        delta = math.exp(2 * big_m[0]) * h ** 4 \
            * (big_m[6] / 90 + big_m[6] / 30 + big_m[1] * big_m[5] / 30)
        bound = comb * ((top + delta) ** np.arange(n + 1) - top ** np.arange(n + 1))
        assert np.all(np.abs(spectrum - chart_spectrum) <= delta), grid
        assert np.all(np.abs(sig - chart_sigmas) <= bound), grid
        errors.append((np.max(np.abs(spectrum - chart_spectrum)),
                       np.max(np.abs(sig - chart_sigmas))))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse[0] >= 12 * fine[0] and coarse[1] >= 12 * fine[1], errors


def central_jacobian(n, k, l, grid, eps):
    """The central difference of ``flow_rhs`` at u = 0, column by column."""
    cols = [(flow_rhs(FlowState(n, k, l, eps * e)) - flow_rhs(FlowState(n, k, l, -eps * e)))
            / (2 * eps) for e in np.eye(grid + 1)]
    return np.array(cols).T


@pytest.mark.parametrize("n, k, l, grid", ((4, 2, 1, 32), (6, 3, 2, 32), (5, 3, 1, 64),
                                           (4, 2, 1, 128)))
def test_linearization_is_the_jacobian_at_the_round_metric(n, k, l, grid):
    """L against the central difference of flow_rhs, whose error is its cubic
    term: moving u at one node by eps moves u'' there by 2.5 eps/h^2, and
    log(1/2 + x) has cubic over linear term (4/3) x^2, so the error is about
    8.3 (eps/h^2)^2 relative.  Measured 9.5 (eps/h^2)^2 at both eps on all
    four grids; the bound is 20 (eps/h^2)^2.  The column-by-column closed form
    of tests/oracles.py agrees to 5.1e-17 (bound 1e-15)."""
    lin = flow._linearization(n, k, l, grid)[0]
    scale = np.max(np.abs(lin))
    h = math.pi / grid
    for eps in (1e-6, 1e-7):
        error = np.max(np.abs(central_jacobian(n, k, l, grid, eps) - lin)) / scale
        assert error <= 20 * (eps / h ** 2) ** 2, (eps, error)
    reference = oracles.flow_linearization(FlowState(n, k, l, np.zeros(grid + 1)))
    assert np.max(np.abs(reference - lin)) <= 1e-15 * scale


def expm_phis(a):
    """e^a, phi_1(a), phi_2(a) and phi_3(a): the first block row of the
    exponential of [[a, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]]."""
    import scipy.linalg
    m, z, i = len(a), np.zeros_like(a), np.eye(len(a))
    top = scipy.linalg.expm(np.block([[a, i, z, z], [z, z, i, z], [z, z, z, i],
                                      [z, z, z, z]]))[:m]
    return [top[:, j * m:(j + 1) * m] for j in range(4)]


@pytest.mark.parametrize("n, k, l, grid, dt", ((4, 2, 1, 128, 0.06 / 90), (5, 3, 1, 64, 0.2 / 90),
                                               (6, 3, 2, 32, 0.01), (4, 2, 1, 64, 1.0)))
def test_exponential_matrices_match_the_augmented_exponential(n, k, l, grid, dt):
    """The six matrices of a step against scipy's expm of the augmented matrix
    (Sidje, Expokit, 1998): the two bench steps, a step at DT_MAX where L has
    complex eigenvalues, and a step of dt = 1, where dt L reaches -915.  The
    worst error is 7.7e-13 of the matrix's largest entry, at (5, 3, 1) on
    grid 64, where L's eigenvectors have condition 1e4; the bound is 5e-12."""
    lin = flow._linearization(n, k, l, grid)[0]
    e, p1, p2, p3 = expm_phis(dt * lin)
    e_half, half1 = expm_phis(0.5 * dt * lin)[:2]
    want = (e, e_half, 0.5 * dt * half1, dt * (p1 - 3 * p2 + 4 * p3), dt * (p2 - 2 * p3),
            dt * (4 * p3 - p2))
    for got, expect in zip(flow._etd_matrices(n, k, l, grid, dt), want):
        assert np.max(np.abs(got - expect)) <= 5e-12 * np.max(np.abs(expect))


def test_a_steepening_flow_keeps_every_step_stable():
    """u0 = 0.8 log(1 - 0.7 cos theta) on S^4, (k, l) = (2, 1), grid 32, to
    t = 1: the flow steepens, in that the explicit step bound stable_dt falls
    from 1.95e-3 to 1.64e-3.  A fixed step of DT_MAX leaves the bound of N's
    stiffness and ends in a cone violation; the default step starts inside it
    (5.0e-3), shrinks at the samples (to 3.3e-3), and every step stays within
    1e-8 of four steps of a quarter of it (measured 3.1e-10)."""
    start = FlowState.from_function(4, 2, 1, 32, lambda th: 0.8 * np.log(1 - 0.7 * np.cos(th)))
    end, diag = run(start, 1.0)
    assert diag.aborted is None and end.t == pytest.approx(1.0)
    assert stable_dt(end) < 0.9 * stable_dt(start)
    assert run(start, 1.0, dt=flow.DT_MAX)[1].aborted is not None
    steps = np.array(diag.steps)
    assert steps[-2] < 0.8 * steps[0] and steps.sum() == pytest.approx(1.0, abs=1e-12)
    state = reference = start
    for dt in steps:  # every dt is recorded: replayed, they give the run's state
        state = step(state, dt)
        for _ in range(4):
            reference = step(reference, dt / 4)
        assert np.max(np.abs(state.u - reference.u)) <= 1e-8, state.t
    assert np.array_equal(state.u, end.u)
