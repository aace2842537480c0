import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sigmaflow
from sigmaflow import cli, curvature, models, soliton
from sigmaflow import expr as ex
from sigmaflow.cli import main
from sigmaflow.probes import chart_probes
from sigmaflow.sigma import SigmaProfile
from sigmaflow.taylor import TaylorTrustError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_curvature_sphere_text():
    code, out, _ = run_cli("curvature", "--builtin", "sphere:4",
                           "--point", "0.1,0.2,0.3,0.4")
    assert code == 0
    assert "R = 12.000000" in out


def test_curvature_example4_json():
    code, out, _ = run_cli("curvature", "--builtin", "example4:4",
                           "--point", "0,0,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ricci_plus_metric_sup"] < 1e-8
    assert doc["dim"] == 4
    assert doc["cone_ok"]


def test_curvature_warped_model():
    # dt^2 + sinh(t)^2 g_{S^5} is hyperbolic 6-space
    code, out, _ = run_cli("curvature", "--builtin", "warped:sinh:sphere:5",
                           "--point", "1,0.1,0.2,0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["scalar_curvature"] == pytest.approx(-30.0, rel=1e-9)
    # without --point: the centre of the chart domain, t = 1 on [0.5, 1.5]
    code, out, _ = run_cli("curvature", "--builtin", "warped:sinh:sphere:5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert doc["scalar_curvature"] == pytest.approx(-30.0, rel=1e-9)


def test_curvature_determinism():
    args = ("curvature", "--builtin", "hyperbolic:4",
            "--point", "0.05,0.1,-0.1,0.2", "--json")
    assert run_cli(*args) == run_cli(*args)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,')
    code, _, err = run_cli("curvature", "--file", str(bad))
    assert code == 2
    assert "offset" in err


def test_spec_file_roundtrip(tmp_path):
    doc = {
        "dim": 3,
        "metric": [["4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0"
                    for j in range(3)] for i in range(3)],
        "domain": [[-0.9, 0.9]] * 3,
        "periodic": [False] * 3,
        "k": 2, "l": 1,
    }
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("curvature", "--file", str(path),
                           "--point", "0.2,0.1,-0.3", "--json")
    assert code == 0
    assert json.loads(out)["scalar_curvature"] == pytest.approx(6.0, rel=1e-9)


def test_curvature_prints_zeros_unsigned(monkeypatch):
    # a ring may leave -0.0 on an exact zero; the report prints every zero
    # as 0.0, so its bytes do not move with the sign a ring leaves
    real_values, real_profile = cli.values, cli.sigma_profile

    def negated_zeros(a):
        return np.where(a == 0.0, -0.0, a)

    monkeypatch.setattr(cli, "values", lambda arr: negated_zeros(real_values(arr)))
    monkeypatch.setattr(cli, "sigma_profile", lambda tc, k, l: SigmaProfile(
        negated_zeros(real_profile(tc, k, l).sigmas), -0.0))
    assert np.signbit(cli.sigma_profile(curvature.curvature_at(
        models.builtin("product_line_sphere:3").chart, [0.0] * 4), 1, 1).sigmas[2])
    code, out, _ = run_cli("curvature", "--builtin", "product_line_sphere:3", "--json")
    doc = json.loads(out)
    assert code == 0 and not re.search(r"-0\.0\b", out)
    assert doc["ricci"][0][0] == doc["schouten"][0][1] == doc["sigma"][2] == 0.0
    assert doc["log_quotient"] == 0.0
    code, out, _ = run_cli("curvature", "--builtin", "product_line_sphere:3")
    assert code == 0 and "-0," not in out and "sigma_1..4 = 1, 0, " in out
    assert out.endswith("log sigma_1/sigma_1 = 0\n")


def test_curvature_of_a_2d_spec(tmp_path):
    # the stereographic chart of the round S^2; sigma_k needs n >= 3
    conformal = "4/(1 + x1^2 + x2^2)^2"
    doc = {"dim": 2, "metric": [[conformal, "0"], ["0", conformal]],
           "domain": [[-0.9, 0.9]] * 2, "k": 2, "l": 1}
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("curvature", "--file", str(path), "--point", "0.2,-0.3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["scalar_curvature"] == pytest.approx(2.0, abs=1e-9)
    assert report["ricci_minus_metric_sup"] < 1e-9  # Ric = g
    assert report["riemann_sup"] > 0
    assert not {"schouten", "cotton_sup", "sigma", "cone_violation"} & set(report)
    code, out, _ = run_cli("curvature", "--file", str(path))
    assert code == 0
    assert "R = 2.000000" in out and "Cotton" not in out and "sigma" not in out
    # the soliton equation reads sigma_k/sigma_l, which n = 2 does not have
    code, _, err = run_cli("verify", "--file", str(path), "--probes", "3")
    assert code == 3
    assert err == "geometry error: sigma-curvatures need dimension >= 3\n"


def test_builtin_name_with_parentheses_exits_2():
    code, out, err = run_cli("curvature", "--builtin", "sphere(4)")
    assert (code, out) == (2, "")
    assert err == "input error: unknown model 'sphere(4)'\n"


def test_asymmetric_spec_rejected(tmp_path):
    doc = {
        "dim": 2,
        "metric": [["1", "x1"], ["0", "1"]],
        "k": 1, "l": 1,
    }
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("curvature", "--file", str(path))
    assert code == 2
    assert "disagree" in err


def test_verify_sphere_passes():
    code, out, _ = run_cli("verify", "--builtin", "sphere:4")
    assert code == 0
    assert "classification: indefinite" in out
    assert "PASS" in out


def test_verify_json_report():
    code, out, _ = run_cli("verify", "--builtin", "sphere:4", "--json")
    assert code == 0
    assert json.loads(out)["trivial"] is False


def test_verify_counts_cone_violations(tmp_path):
    # dx1^2 + cos(x1)^2 (dx2^2 + dx3^2) has R = 4 - 2 tan(x1)^2, so sigma_1
    # changes sign inside the box and (k, l) = (1, 0) fails at some probes
    doc = {
        "dim": 3,
        "metric": [["1", "0", "0"], ["0", "cos(x1)^2", "0"],
                   ["0", "0", "cos(x1)^2"]],
        "domain": [[-1.55, 1.55], [-1, 1], [-1, 1]],
        "k": 1, "l": 0,
    }
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", "--file", str(path), "--probes", "10")
    assert code == 1
    assert "cone violations at 2 probes" in out
    # --json names the violating probes, in probe order: sigma_1 = R/4 <= 0
    code, out, _ = run_cli("verify", "--file", str(path), "--probes", "10", "--json")
    report = json.loads(out)
    probes = chart_probes(cli.load_spec_file(str(path)).chart, 10, seed=0)
    want = [x.tolist() for x in probes if 4 - 2 * math.tan(x[0]) ** 2 <= 0]
    assert code == 1 and report["cone_violations"] == len(want) == 2
    assert report["cone_violation_points"] == want


def test_verify_json_names_the_worst_probe():
    # the probe where the residual is largest, with its |1/2 L_X g|_g and |psi|
    spec = models.builtin("hyperbolic:4")
    code, out, _ = run_cli("verify", "--builtin", "hyperbolic:4", "--probes", "10", "--json")
    x, half_lie, psi = soliton.soliton_residual(spec, chart_probes(spec.chart, 10)).worst_probe
    assert code == 0
    assert json.loads(out)["worst_probe"] == {"point": x.tolist(), "half_lie_norm": half_lie,
                                              "psi_abs": psi}


def test_verify_every_builtin_model():
    for name in ("sphere:3", "sphere:4", "hyperbolic:4", "example4:4",
                 "example4:5", "product_line_sphere:3"):
        code, out, err = run_cli("verify", "--builtin", name, "--probes", "10")
        assert code == 0, (name, out, err)


def test_verify_broken_lambda_fails(tmp_path):
    doc = {
        "dim": 3,
        "metric": [["4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0"
                    for j in range(3)] for i in range(3)],
        "domain": [[-0.9, 0.9]] * 3,
        "k": 2, "l": 1,
        "potential": "(2*x1 + 1 - x1^2 - x2^2 - x3^2)/(1 + x1^2 + x2^2 + x3^2)",
        "lambda": "0",
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", "--file", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_probes_zero_usage_error():
    code, _, err = run_cli("verify", "--builtin", "sphere:4", "--probes", "0")
    assert code == 2
    assert "probes" in err


def test_flow_round_data_fixed_point(tmp_path):
    out_csv = tmp_path / "flow.csv"
    # a constant --u0 only rescales the round metric
    for u0 in ((), ("--u0=1",)):
        code, _, _ = run_cli("flow", "--n", "4", "--k", "2", "--l", "1",
                             "--grid", "48", "--t-end", "0.01",
                             "--csv", str(out_csv), *u0)
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(float(r["sup_dev"]) < 1e-9 for r in rows)


def test_flow_perturbed_conserves_energy(tmp_path):
    out_csv = tmp_path / "flow.csv"
    code, _, _ = run_cli("flow", "--n", "4", "--k", "2", "--l", "1",
                         "--grid", "48", "--u0", "0.05*cos(x1)",
                         "--t-end", "0.2", "--csv", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        energies = [float(r["E_l"]) for r in csv.DictReader(fh)]
    drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
    assert drift < 1e-5


def test_flow_e_half_warning():
    code, out, err = run_cli("flow", "--n", "4", "--k", "3", "--l", "2",
                             "--grid", "48", "--t-end", "0.001")
    assert code == 0
    assert "E_2 diagnostic omitted" in err
    assert out.splitlines()[0] == "t,E_l,log_r_kl,sup_dev,volume"


def test_flow_cone_violation_exit_4():
    code, _, err = run_cli("flow", "--n", "4", "--k", "2", "--l", "1",
                           "--grid", "48", "--u0", "1.5*cos(2*x1)",
                           "--t-end", "0.1")
    assert code == 4
    assert "last good t" in err
    assert "cone condition violated at node " in err and ": sigma_2 = " in err
    assert ", sigma_1 = " in err and "sigma_2 * sigma_1 not > 0" in err


def test_flow_nan_sigma_is_a_cone_violation(monkeypatch):
    # the cone rule is sigma_k * sigma_l > 0, which a NaN fails: the flow
    # names the node and exits 4, not 3 for a non-finite integrand
    from sigmaflow import flow
    from sigmaflow.sigma import ConeConditionError
    nodal = flow._nodal_sigmas

    def nan_at_node_5(state, *js):
        lam_t, sk, *rest = nodal(state, *js)
        sk = sk.copy()
        sk[5] = math.nan
        return (lam_t, sk, *rest)

    monkeypatch.setattr(flow, "_nodal_sigmas", nan_at_node_5)
    with pytest.raises(ConeConditionError, match=r"at node 5 \(theta = 0\.4909, t = 0\.000000\): "
                                                 r"sigma_2 = nan, sigma_1 = 2,"):
        flow.flow_rhs(flow.FlowState(4, 2, 1, [0.0] * 33))
    code, _, err = run_cli("flow", "--n", "4", "--k", "2", "--l", "1",
                           "--grid", "32", "--t-end", "0.001")
    assert code == 4
    assert "flow aborted: cone condition violated at node 5 " in err and "sigma_2 = nan" in err


def test_flow_state_json(tmp_path):
    state = tmp_path / "state.json"
    code, _, _ = run_cli("flow", "--n", "3", "--k", "2", "--l", "1",
                         "--grid", "32", "--t-end", "0.001",
                         "--state-json", str(state))
    assert code == 0
    doc = json.loads(state.read_text())
    assert doc["grid"] == 32
    assert len(doc["u"]) == 33
    assert doc["t"] == pytest.approx(0.001)


def test_hodge_pure_gradient():
    code, out, _ = run_cli("hodge", "--n", "2", "--grid", "64", "--json",
                           "--field", "cos(x1)*cos(x2); -sin(x1)*sin(x2)")
    assert code == 0
    doc = json.loads(out)
    assert doc["Y_sup"] < 1e-10
    assert doc["reconstruction"] < 1e-9


def test_hodge_decomposes_once(monkeypatch):
    from sigmaflow import hodge
    calls = [0]
    decompose = hodge.hodge_decompose

    def counting(field):
        calls[0] += 1
        return decompose(field)
    monkeypatch.setattr(hodge, "hodge_decompose", counting)
    code, out, _ = run_cli("hodge", "--n", "2", "--grid", "32", "--json",
                           "--field", "cos(x1)*cos(x2) - sin(x2); sin(x1)")
    assert code == 0 and calls[0] == 1
    assert json.loads(out)["reconstruction"] < 1e-9


def test_hodge_nyquist_field_is_its_own_divergence_free_part():
    # sin(4 x1) vanishes on 8 points per axis: cos(4 x1) has no sampled
    # divergence, so Y = X and h = 0
    code, out, _ = run_cli("hodge", "--n", "2", "--grid", "8", "--json",
                           "--field", "cos(4*x1); 0")
    assert code == 0
    doc = json.loads(out)
    assert doc["Y_sup"] == 1.0 and doc["potential_sup"] == 0.0
    assert doc["reconstruction"] == 0.0 and doc["div_residual"] == 0.0


def test_hodge_reconstructs_a_field_with_nyquist_content():
    # x1 on 4 points per axis has a Nyquist mode along x1
    code, out, _ = run_cli("hodge", "--n", "3", "--grid", "4", "--json",
                           "--field", "x1; 0; 0")
    assert code == 0
    doc = json.loads(out)
    assert doc["reconstruction"] <= 1e-12 * 2 * math.pi
    assert doc["div_residual"] <= 1e-12 * 2 * math.pi


def test_hodge_odd_grid_exit_2():
    code, _, err = run_cli("hodge", "--n", "2", "--grid", "63",
                           "--field", "x1; x2")
    assert code == 2
    assert "power of two" in err


def test_hodge_refuses_a_field_that_overflows_the_spectral_split():
    # every sample is finite, but the transforms overflow: one input error, no
    # numpy warning; a field at 1e300 still splits
    code, out, err = run_cli("hodge", "--n", "2", "--grid", "8",
                             "--field=1e308*sin(x2); 1e308*cos(x1)")
    assert (code, out) == (2, "")
    assert err == "input error: the field overflows the spectral split\n"
    code, out, _ = run_cli("hodge", "--n", "2", "--grid", "8", "--json",
                           "--field=1e300*sin(x2); 1e300*cos(x1)")
    assert code == 0 and json.loads(out)["reconstruction"] == 0.0


def test_hodge_component_count_mismatch():
    code, _, _ = run_cli("hodge", "--n", "3", "--grid", "16",
                         "--field", "x1; x2")
    assert code == 2


def test_unknown_builtin_exit_2():
    code, _, _ = run_cli("curvature", "--builtin", "torus:9")
    assert code == 2


def test_warped_nesting_beyond_max_dim_exits_2():
    code, out, err = run_cli("curvature", "--builtin", "warped:sinh:" * 1200 + "sphere:2")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert "1200 nested warped products need a chart of more than 8 dimensions" in err
    # six prefixes over a 2-dimensional chart still fit
    assert models.builtin("warped:one:" * 6 + "euclidean:2").chart.dim == 8


def test_a_fibers_error_is_reported_once():
    name = "warped:sinh:warped:sinh:warped:sinh:example4:3"
    code, out, err = run_cli("curvature", "--builtin", name)
    assert (code, out) == (2, "")
    assert err == "input error: the log-cosh model needs n >= 4\n"
    code, out, err = run_cli("curvature", "--builtin", "warped:sinh:nosuch:3")
    assert (code, out, err) == (2, "", "input error: unknown model 'nosuch:3'\n")


# the name grammar's own refusals read "malformed" or "unknown model"; a
# constructor's refusal arrives as the constructor states it
REFUSED_NAMES = {
    "sphere": "malformed model name 'sphere': expected sphere:<integer>",
    "sphere:x": "malformed model name 'sphere:x': expected sphere:<integer>",
    "sphere:3:4": "malformed model name 'sphere:3:4': expected sphere:<integer>",
    "warped:sinh": "malformed model name 'warped:sinh': expected warped:<xi>:<model>",
    "warped:x1^:sphere:3": "malformed model name 'warped:x1^:sphere:3': "
                           "warping factor: unexpected end of input (at offset 3)",
    "torus:3": "unknown model 'torus:3'",
    "sphere(4)": "unknown model 'sphere(4)'",
    "euclidean:1": "chart dimension must be an integer in 2..8, got 1",
    "euclidean:9": "chart dimension must be an integer in 2..8, got 9",
    "example4:3": "the log-cosh model needs n >= 4",
    "warped:-1:euclidean:2": "warping factor must be positive on the interval; "
                             "fails at t = -1.0",
}


@pytest.mark.parametrize("name", REFUSED_NAMES)
def test_a_builtin_refusal_is_one_line_from_its_owner(name):
    for command in ("curvature", "verify"):
        assert run_cli(command, "--builtin", name) == (
            2, "", f"input error: {REFUSED_NAMES[name]}\n")


def test_parts_after_the_dimension_exit_2():
    for name, part in (("sphere:3:4", "sphere:3:4"),
                       ("warped:sinh:hyperbolic:3:x:y", "hyperbolic:3:x:y")):
        code, out, err = run_cli("curvature", "--builtin", name)
        assert (code, out, err.count("\n")) == (2, "", 1), name
        kind = part.split(":")[0]
        assert err.endswith(f"malformed model name {part!r}: expected {kind}:<integer>\n"), err


def test_a_two_dimensional_space_form_is_a_fiber():
    # dt^2 + sinh(t)^2 g_S2 is hyperbolic 3-space
    code, out, err = run_cli("curvature", "--builtin", "warped:sinh:sphere:2",
                             "--point", "1,0.1,0.1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["scalar_curvature"] == pytest.approx(-6.0, rel=1e-12)
    # with no sigma, lambda or f, the 2-dimensional model has nothing to verify
    assert run_cli("verify", "--builtin", "sphere:2") == (
        3, "", "geometry error: model sphere:2 carries no soliton data\n")


def test_a_program_fault_has_its_own_exit_code(monkeypatch):
    # a fault inside the pipeline is neither a pass (0) nor a failed verification (1)
    def planted(*args, **kwargs):
        raise TaylorTrustError("planted fault")
    monkeypatch.setattr(curvature, "curvature_taylor", planted)
    code, out, err = run_cli("curvature", "--builtin", "sphere:4")
    assert code == cli.EXIT_INTERNAL == 5
    assert (out, err) == ("", "internal error: TaylorTrustError: planted fault\n")


def test_point_outside_domain_exit_2():
    code, _, _ = run_cli("curvature", "--builtin", "sphere:3",
                         "--point", "5,0,0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("flow", "--n", "4", "--k", "2", "--l", "1", "--t-end", "0.1",
     "--u0", "log(x1)"),
    ("hodge", "--n", "2", "--grid", "16", "--field", "exp(1000*x1); 0"),
    ("hodge", "--n", "2", "--grid", "16", "--field", "x1^-1; 0"),
    ("hodge", "--n", "2", "--grid", "16", "--field", "1e999*x1; 0"),
    ("flow", "--n", "4", "--k", "2", "--l", "1", "--t-end", "0.1", "--u0", "1e999"),
])
def test_evaluator_failure_exits_2(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1
    assert err.count("offset") <= 1


SPHERE3 = [["4/(1 + x1^2 + x2^2 + x3^2)^2" if i == j else "0" for j in range(3)]
           for i in range(3)]


def spec_path(tmp_path, name, **fields):
    doc = {"dim": 3, "metric": SPHERE3, "domain": [[-0.9, 0.9]] * 3, "k": 2, "l": 1}
    doc.update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_input_error(argv, what):
    code, _, err = run_cli(*argv)
    assert code == 2, (argv, code, err)
    assert err.startswith("input error:") and err.count("\n") == 1, err
    assert what in err, err


def test_malformed_domain_exits_2(tmp_path):
    # a chart domain is dim intervals lo < hi of finite width, whatever reads the spec
    for i, domain in enumerate(["abc", [[1, -1]] * 3, [[0, 0]] * 3,
                                [[float("nan"), 1]] * 3, [[-1, 1]] * 2,
                                [[-1e308, 1e308]] * 3]):
        path = spec_path(tmp_path, f"domain{i}", domain=domain)
        for command in ("curvature", "verify"):
            assert_input_error((command, "--file", path), "domain")


def test_malformed_spec_exits_2(tmp_path):
    cases = [
        ({"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "metric[0][0]: expression must be"),
        ({"potential": 5}, "potential: expression must be a string"),
        ({"k": 2.7}, "quotient index k"),
        ({"k": True}, "quotient index k"),
        ({"dim": 3.9}, "chart dimension"),
    ]
    for i, (fields, what) in enumerate(cases):
        path = spec_path(tmp_path, f"spec{i}", **fields)
        for command in ("curvature", "verify"):
            assert_input_error((command, "--file", path), what)


def test_spec_k_equal_l_is_the_trivial_quotient(tmp_path):
    path = spec_path(tmp_path, "k_eq_l", k=2, l=2)
    code, out, _ = run_cli("curvature", "--file", path, "--json")
    assert code == 0
    assert json.loads(out)["log_quotient"] == 0.0
    code, out, _ = run_cli("verify", "--file", path, "--probes", "5")
    assert code == 0
    assert "(trivial)" in out


def flow_argv(**changes):
    opts = {"n": "4", "k": "2", "l": "1", "grid": "32", "t_end": "0.001", **changes}
    return ("flow", *(part for key, value in opts.items()
                      for part in ("--" + key.replace("_", "-"), value)))


@pytest.mark.parametrize("argv", [
    flow_argv(cadence="0"),
    flow_argv(k="-1", l="-1"),
    flow_argv(k="7", l="7"),
    flow_argv(k="9"),
    flow_argv(n="2"),
    flow_argv(t_end="inf", dt="1e-3"),
    flow_argv(t_end="nan"),
    flow_argv(dt="0"),
    ("verify", "--builtin", "sphere:3", "--tolerance", "nan"),
    ("verify", "--builtin", "sphere:3", "--seed", "-1", "--probes", "4"),
    ("hodge", "--n", "2", "--grid", "0", "--field", "x1; x2"),
    flow_argv(u0="700*x1"),
    flow_argv(u0="11"),
], ids=["cadence-0", "k-l-negative", "k-l-above-n", "k-above-n", "n-2", "t-end-inf",
        "t-end-nan", "dt-0", "tolerance-nan", "seed-negative", "hodge-grid-0",
        "u0-overflows", "u0-above-bound"])
def test_malformed_arguments_exit_2(argv):
    # a separate process, so a traceback or a run that never ends shows as such
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sigmaflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert lines[-1].startswith(("input error:", "sigmaflow ")), proc.stderr
    assert sum("error:" in line for line in lines) == 1, proc.stderr


@pytest.mark.parametrize("argv, cap", [
    (("hodge", "--n", "2", "--grid", "1048576", "--field", "x1; x2"), 4_096_000_000),
    (flow_argv(grid="1000000000000", t_end="0.1"), 4_096_000_000),
    (("verify", "--builtin", "sphere:3", "--probes", "1000000000"), 2_048_000_000),
], ids=["hodge-grid", "flow-grid", "verify-probes"])
def test_inputs_too_large_for_memory_exit_2(argv, cap):
    # in a process whose address space is capped, so that no run can take
    # the machine's memory
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sigmaflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_deep_expressions_exit_2(tmp_path):
    # the sum parses without recursion; the minus signs and parentheses nest
    chain = "+".join(["0*x1"] * 1499 + ["1"])
    metric = [[chain if i == j == 0 else "1" if i == j else "0" for j in range(3)]
              for i in range(3)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"dim": 3, "metric": metric, "k": 1, "l": 1}))
    for argv in (("curvature", "--file", str(path)),
                 ("hodge", "--n", "2", "--grid", "4", "--field=" + "-" * 990 + "x1;0"),
                 ("hodge", "--n", "2", "--grid", "4",
                  "--field=" + "(" * 250 + "x1" + ")" * 250 + ";0")):
        assert_input_error(argv, "nested deeper than")


@pytest.mark.parametrize("changes", [{"t_end": "1e300"}, {"t_end": "1", "dt": "1e-300"}],
                         ids=["t-end-1e300", "dt-1e-300"])
def test_flow_of_too_many_steps_exits_2(changes):
    # neither run would end: t + dt == t once t is large, and 1e300 steps are too many
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "sigmaflow.cli", *flow_argv(**changes)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "more than 1000000 steps" in proc.stderr


@pytest.mark.parametrize("name", ["sphere:4", "example4:4"])
def test_spec_document_verifies_as_its_builtin(tmp_path, name):
    # the builtin's chart and soliton data written out with unparse, which
    # re-parses to the same trees
    model = models.builtin(name)
    doc = {"dim": model.chart.dim, "k": model.k, "l": model.l,
           "metric": [[ex.unparse(c) for c in row] for row in model.chart.comps],
           "domain": model.chart.domain, "lambda": ex.unparse(model.lam)}
    if model.potential is not None:
        doc["potential"] = ex.unparse(model.potential)
    else:
        doc["vector_field"] = [ex.unparse(c) for c in model.vector_field]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    builtin = run_cli("verify", "--builtin", name, "--json")
    assert builtin[0] == 0
    assert run_cli("verify", "--file", str(path), "--json") == builtin


@pytest.mark.parametrize("argv, line", [
    (flow_argv(u0="x2"), "input error: --u0 references more than 1 variable"),
    (("hodge", "--n", "2", "--grid", "16", "--field", "x3; 0"),
     "input error: --field[0] references more than 2 variables"),
    (("curvature", "--builtin", "sphere:3", "--point", "1,a,0"),
     "input error: bad point '1,a,0': could not convert string to float: 'a'"),
    (("verify", "--builtin", "sphere:3", "--seed", "-1", "--probes", "4"),
     "input error: probe seed must be an integer >= 0, got -1"),
    (("verify", "--builtin", "sphere:3", "--probes", "2000000"),
     "input error: 2000000 probes of 3 coordinates exceed the 33554432 byte probe budget"),
    (flow_argv(n="2"), "input error: sphere dimension n must be an integer >= 3, got 2"),
    (flow_argv(t_end="1", dt="1e-300"),
     "input error: t_end = 1 needs more than 1000000 steps of dt = 1e-300"),
], ids=["u0-variables", "field-variables", "bad-point", "seed-negative", "probe-budget",
        "flow-n-2", "flow-step-limit"])
def test_an_input_refusal_is_one_line(argv, line):
    assert run_cli(*argv) == (2, "", line + "\n")


def test_spec_file_refusals_are_one_line(tmp_path):
    top, missing = tmp_path / "top.json", tmp_path / "missing.json"
    top.write_text("[1]")
    missing.write_text('{"dim": 3}')
    absent = tmp_path / "absent.json"
    for path, line in [
        (absent, f"cannot read {absent}: [Errno 2] No such file or directory: '{absent}'"),
        (top, f"{top}: top level must be an object"),
        (missing, f"{missing}: missing required field(s) metric, k, l"),
    ]:
        assert run_cli("curvature", "--file", str(path)) == (2, "", f"input error: {line}\n")


def test_hodge_text_report():
    code, out, err = run_cli("hodge", "--n", "2", "--grid", "8", "--field", "cos(4*x1); 0")
    assert (code, err) == (0, "")
    assert out == ("Y_sup = 1\ndim = 2\ndiv_residual = 0\ngrid = 8\npotential_mean = 0\n"
                   "potential_sup = 0\nreconstruction = 0\n")


def test_a_failing_metric_component_names_its_point_as_a_list(tmp_path):
    # g_11 = 1 + log(1 - x1) is positive on the chart's coarse check grid
    # but has no logarithm at x1 = 1.5
    path = spec_path(tmp_path, "logged", domain=[[-30, 2], [-2, 2], [-2, 2]],
                     metric=[["1", "0", "0"], ["0", "1 + log(1 - x1)", "0"], ["0", "0", "1"]])
    assert run_cli("curvature", "--file", path, "--point", "1.5,0,0") == (
        3, "", "geometry error: metric component (1,1): "
               "log(1 - x1): log of non-positive value -0.5 at [1.5, 0.0, 0.0]\n")


def test_a_metric_undefined_on_its_check_grid_exits_2_naming_component_and_point(tmp_path):
    # the chart is built when the spec is read, so the defect is the input's
    path = spec_path(tmp_path, "A", domain=[[-1, 1]] * 3,
                     metric=[["1 + log(x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert run_cli("curvature", "--file", path) == (
        2, "", f"input error: {path}: metric component (0,0): "
               "log(x1): log of non-positive value -0.9 at [-0.9, -0.9, -0.9]\n")
    # an overflow names the first grid point where the component overflows
    path = spec_path(tmp_path, "B", domain=[[-1, 1]] * 3,
                     metric=[["1 + exp(1000*x1)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert run_cli("curvature", "--file", path) == (
        2, "", f"input error: {path}: metric component (0,0): "
               "exp(1000 * x1): overflow encountered in exp at [0.9, -0.9, -0.9]\n")


def test_verify_names_the_point_where_lambda_fails(tmp_path):
    # lambda is read at the verify probes, one batch; the first failing probe is named
    path = spec_path(tmp_path, "S", **{"lambda": "log(x1)"})
    assert run_cli("verify", "--file", path) == (
        2, "", "input error: log(x1): log of non-positive value -0.495 "
               "at [-0.495, 0.3466666666666667, -0.4896]\n")


# a grid failure outside the chart names the coordinates of the first failing
# sample, as the evaluator counts them: the flow's theta, the torus sample's x
# (not the index into the failing subexpression's sparse shape) and the
# warping factor's t
GRID_FAILURES = [
    (("flow", "--n", "4", "--k", "2", "--l", "1", "--grid", "32", "--t-end", "0.01",
      "--u0", "log(2 - x1)"),
     "log(2 - x1): log of non-positive value -0.0616702 at [2.061670178918302]"),
    (("hodge", "--n", "2", "--grid", "8", "--field=log(1 - x1); 1"),
     "log(1 - x1): log of non-positive value -0.570796 at [1.5707963267948966, 0.0]"),
    (("curvature", "--builtin", "warped:log(x1):sphere:3"),
     "log(x1): log of non-positive value -1 at [-1.0]"),
    (("flow", "--n", "4", "--k", "2", "--l", "1", "--grid", "32", "--t-end", "0.01",
      "--u0", "exp(1000*x1)"),
     "exp(1000 * x1): overflow encountered in exp at [0.7853981633974483]"),
    (("hodge", "--n", "2", "--grid", "8", "--field=exp(1000*x1); 1"),
     "exp(1000 * x1): overflow encountered in exp at [0.7853981633974483, 0.0]"),
]


@pytest.mark.parametrize("argv, line", GRID_FAILURES)
def test_a_grid_failure_names_its_owners_coordinates(argv, line):
    assert run_cli(*argv) == (2, "", f"input error: {line}\n")


# Every exception class of the package with its exit code, given by main
# alone.  A class that main does not map exits 5; no raw ParseError reaches
# it, since _expression and models.builtin wrap every one.
EXIT_OF = {
    "InputError": 2, "EvalError": 2, "HodgeError": 2, "StepLimitError": 2,
    "GeometryError": 3, "ConeConditionError": 3, "BlowUp": 3,
    "ExprError": 5, "ParseError": 5, "TaylorDomainError": 5, "TaylorTrustError": 5,
    "TensorError": 5,
}


def package_errors():
    """The Exception subclasses defined in the sigmaflow modules, by name."""
    found = {}
    for info in pkgutil.iter_modules(sigmaflow.__path__):
        module = importlib.import_module(f"sigmaflow.{info.name}")
        found.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    return found


def test_every_error_class_has_its_exit_code(monkeypatch):
    errors = package_errors()
    assert set(errors) == set(EXIT_OF)
    for name, cls in errors.items():
        def planted(args, cls=cls):
            # made without the constructor, whose arguments differ by class
            raise cls.__new__(cls, "planted")
        monkeypatch.setattr(cli, "cmd_curvature", planted)
        line = {2: "input error: planted", 3: "geometry error: planted",
                5: f"internal error: {name}: planted"}[EXIT_OF[name]]
        assert run_cli("curvature", "--builtin", "sphere:3") == (EXIT_OF[name], "", line + "\n")
