"""The four benchmark workloads: set-up, operations and their oracles.

An operation is one user-visible call: ``sigmaflow.cli.main`` in process
for the command-line workloads, a public library function otherwise.  Each
operation carries an oracle that checks its output against an expectation
derived here, independently of the program (closed-form curvature of round
spheres and hyperbolic space, the Einstein sigma tables, the known
Helmholtz split of a field built from its two parts, energy conservation of
the flow).  Two seed defects are expected and recognised by signature, so
they count as failed operations without hiding any other failure.

Every call into the program goes through a module attribute at call time
(``cli.main``, ``models.check_golden``...), so the traced run sees it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sigmaflow import cli, expr, models, sigma, soliton, taylor

from inputs import point_arg

WHY = {
    "verify-sweep": "many probes per verify command at n = 4-5, where Python "
                    "overhead per jet op dominates; probe batching and jet "
                    "representation changes show here",
    "point-highdim": "one curvature pipeline per command at n = 6-8, where jet "
                     "multiply flops dominate; truncation order and kernel "
                     "flops show here, probe batching should not",
    "identities": "library identity checks that rerun the pipeline at the same "
                  "points; a point cache shows here and nowhere else, a lower "
                  "truncation order must not touch it",
    "grid-pde": "flow and Hodge runs on grids that use no jets; the control "
                "for jet changes, and where evaluator unification and "
                "adaptive dt show",
}


class OracleError(AssertionError):
    pass


def expect(ok, message: str):
    if not ok:
        raise OracleError(message)


def close(got, want, rtol: float, what: str):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    expect(err < rtol, f"{what}: relative error {err:.3g} >= {rtol:g}")


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # recognises the documented failure of a seed defect: (result, exc) -> bool
    known_defect: Callable[[object, BaseException | None], bool] | None = None
    defect: str = ""


def _json_bool_defect(result, exc) -> bool:
    return isinstance(exc, TypeError) and "JSON serializable" in str(exc)


def _no_soliton_data_defect(result, exc) -> bool:
    return (exc is None and result.code == cli.EXIT_GEOMETRY
            and "carries no soliton data" in result.err)


JSON_BOOL = "verify --json raises TypeError on np.bool_ (soliton.py trivial flag)"
WARPED_EXIT3 = "curvature --builtin warped:... exits 3 (cli._resolve needs soliton data)"


def _ok_exit(r: CliResult):
    expect(r.code == cli.EXIT_OK, f"exit code {r.code}: {r.err.strip()[-200:]}")


# -- sigma tables -------------------------------------------------------------


def sigma_table(n: int, eig: float) -> np.ndarray:
    """sigma_0..sigma_n of n equal eigenvalues."""
    return np.array([math.comb(n, j) * eig ** j for j in range(n + 1)])


def _check_curvature(doc: dict, n: int, scalar: float, eig: float, k: int, l: int,
                     ricci=None, riemann_sup=None):
    close(doc["scalar_curvature"], scalar, 1e-9, "scalar curvature")
    sig = sigma_table(n, eig)
    expect("sigma" in doc, f"no sigma report: {doc.get('cone_violation')}")
    close(doc["sigma"], sig, 1e-9, "sigma table")
    close(doc["log_quotient"], math.log(abs(sig[k] / sig[l])), 1e-9,
          "log sigma quotient")
    expect(doc["cotton_sup"] < 1e-8, f"Cotton {doc['cotton_sup']:.3g} on a "
                                     "conformally flat metric")
    if ricci is not None:
        close(doc["ricci"], ricci, 1e-9, "Ricci tensor")
    if riemann_sup is not None:
        close(doc["riemann_sup"], riemann_sup, 1e-9, "sup |Rm|")


def _round_sphere_metric(sph: dict, x) -> np.ndarray:
    m, s = np.array(sph["m"]), sph["radius"]
    y = m @ np.asarray(x, dtype=float)
    return 4.0 * s * s * np.array(sph["gram"]) / (1.0 + y @ y) ** 2


# -- verify-sweep ---------------------------------------------------------------


def _verify_text(expect_trivial: bool):
    def check(r: CliResult):
        _ok_exit(r)
        lines = r.out.strip().splitlines()
        expect(lines and lines[-1] == "PASS", f"verdict {lines[-1:]!r}")
        sup = float(lines[0].split("=")[1].split("(")[0])
        expect(sup < 1e-7, f"residual sup {sup:.3g}")
        trivial = "(trivial)" in r.out
        expect(trivial == expect_trivial, f"trivial flag {trivial}")
    return check


def _verify_json(probes: int, expect_trivial: bool, classification=None):
    def check(r: CliResult):
        _ok_exit(r)
        doc = json.loads(r.out)
        expect(doc["pass"] is True and doc["sup"] < 1e-7,
               f"verdict {doc['pass']}, sup {doc['sup']:.3g}")
        expect(doc["probes"] == probes and doc["cone_violations"] == 0,
               f"probes {doc['probes']}, cone violations {doc['cone_violations']}")
        expect(doc["trivial"] is expect_trivial, f"trivial flag {doc['trivial']}")
        if classification:
            expect(doc["classification"] == classification,
                   f"classification {doc['classification']}")
    return check


def _cli_setup(inp):
    """One context per dimension, one build of each model and spec file."""
    for d in inp["dims"]:
        taylor.context(d)
    built = [models.builtin(n) for n in inp["models"]]
    return built, cli.load_spec_file(inp["spec_path"])


def _verify_ops(inp, state) -> list[Op]:
    p = inp["probes"]
    seeds = inp["verify_seed"]

    def verify(source, key, *extra):
        argv = ["verify", *source, "--probes", str(p), "--seed", str(seeds[key]),
                *extra]
        return lambda: run_cli(argv)

    return [
        Op("verify sphere:4 --json", verify(["--builtin", "sphere:4"], "sphere:4",
                                            "--json"),
           _verify_json(p, False), _json_bool_defect, JSON_BOOL),
        Op("verify hyperbolic:4", verify(["--builtin", "hyperbolic:4"],
                                         "hyperbolic:4"), _verify_text(False)),
        Op("verify example4:4 --json", verify(["--builtin", "example4:4"],
                                              "example4:4", "--json"),
           _verify_json(p, True, "expanding")),
        Op("verify sphere:5", verify(["--builtin", "sphere:5"], "sphere:5"),
           _verify_text(False)),
        Op("verify --file sphere3", verify(["--file", inp["spec_path"]], "file"),
           _verify_text(False)),
    ]


# -- point-highdim ----------------------------------------------------------------


def _curvature_op(name, source, x, check, known=None, defect=""):
    # "--opt=value" keeps argparse from reading a leading minus as an option
    argv = ["curvature", *source, "--point=" + point_arg(x), "--json"]

    def checked(r: CliResult):
        _ok_exit(r)
        check(json.loads(r.out))

    return Op(name, lambda: run_cli(argv), checked, known, defect)


def _conformal_ball(x, sign: float) -> float:
    """Conformal factor 4 / (1 +- |x|^2)^2 of the stereographic / Poincare chart."""
    r2 = float(np.dot(x, x))
    return 4.0 / (1.0 + sign * r2) ** 2


def _highdim_ops(inp, state) -> list[Op]:
    pts = inp["points"]
    sph = inp["spec"]

    def sphere8(doc):
        c = _conformal_ball(pts["sphere:8"], 1.0)
        _check_curvature(doc, 8, 56.0, 0.5, 2, 1, ricci=7.0 * c * np.eye(8),
                         riemann_sup=c * c)

    def hyperbolic6(doc):
        c = _conformal_ball(pts["hyperbolic:6"], -1.0)
        _check_curvature(doc, 6, -30.0, -0.5, 3, 1, ricci=-5.0 * c * np.eye(6),
                         riemann_sup=c * c)

    def example4_6(doc):
        # product of hyperbolic planes: Einstein with Ric = -g
        expect(doc["ricci_plus_metric_sup"] < 1e-9,
               f"|Ric + g| = {doc['ricci_plus_metric_sup']:.3g}")
        close(doc["scalar_curvature"], -6.0, 1e-9, "scalar curvature")
        sig = sigma_table(6, -0.1)
        close(doc["sigma"], sig, 1e-9, "sigma table")
        close(doc["log_quotient"], math.log(sig[3] / sig[1]), 1e-9,
              "log sigma quotient")

    def warped(doc):
        # dt^2 + sinh(t)^2 g_{S^5} is hyperbolic 6-space
        close(doc["scalar_curvature"], -30.0, 1e-9, "scalar curvature")
        if "sigma" in doc:
            close(doc["sigma"], sigma_table(6, -0.5), 1e-9, "sigma table")

    def spec_file(doc):
        s = sph["radius"]
        g = _round_sphere_metric(sph, pts["file"])
        _check_curvature(doc, 5, 20.0 / s ** 2, 0.5 / s ** 2, 2, 1,
                         ricci=(4.0 / s ** 2) * g)

    return [
        _curvature_op("curvature sphere:8", ["--builtin", "sphere:8"],
                      pts["sphere:8"], sphere8),
        _curvature_op("curvature hyperbolic:6", ["--builtin", "hyperbolic:6"],
                      pts["hyperbolic:6"], hyperbolic6),
        _curvature_op("curvature example4:6", ["--builtin", "example4:6"],
                      pts["example4:6"], example4_6),
        _curvature_op("curvature --file sphere5", ["--file", inp["spec_path"]],
                      pts["file"], spec_file),
        _curvature_op("curvature warped:sinh:sphere:5",
                      ["--builtin", "warped:sinh:sphere:5"],
                      pts["warped:sinh:sphere:5"], warped,
                      _no_soliton_data_defect, WARPED_EXIT3),
    ]


# -- identities ---------------------------------------------------------------------


def _identities_setup(inp):
    for d in inp["dims"]:
        taylor.context(d)
    sph, hyp = (models.builtin(n) for n in inp["models"])
    return {"sphere": sph, "hyperbolic": hyp,
            "spec": soliton.SolitonSpec.from_model(sph)}


def _golden_check(n: int, sign: float):
    want = {"scalar": sign * n * (n - 1), "schouten_vs_metric": sign * 0.5}
    want.update({f"sigma:{j}": v for j, v in
                 enumerate(sigma_table(n, sign * 0.5)) if j})

    def check(result):
        model, rows = result
        table = {q: e for q, e, _tol, _note in model.golden}
        expect(set(table) == set(want), f"golden quantities {sorted(table)}")
        for q, e in want.items():
            close(table[q], e, 1e-12, f"golden {q}")
        expect([r[0] for r in rows] == [g[0] for g in model.golden], "row order")
        for q, worst, tol, passed in rows:
            expect(passed and worst < min(tol, 1e-9), f"{q}: worst {worst:.3g}")
    return check


def _below(tol: float, what: str):
    def check(value):
        expect(value < tol, f"{what} {value:.3g} >= {tol:g}")
    return check


def _identities_ops(inp, state) -> list[Op]:
    sph, hyp, spec = state["sphere"], state["hyperbolic"], state["spec"]
    gold = inp["golden_points"]
    count = inp["structural_probes"]
    ops = [
        Op("check_golden sphere:4",
           lambda: (sph, models.check_golden(sph, gold["sphere:4"])),
           _golden_check(4, 1.0)),
        Op("check_golden hyperbolic:4",
           lambda: (hyp, models.check_golden(hyp, gold["hyperbolic:4"])),
           _golden_check(4, -1.0)),
        Op("lemma_structural_check sphere:4",
           lambda: max(vars(soliton.lemma_structural_check(
               spec, count=count, seed=inp["structural_seed"])).values()),
           _below(1e-6, "worst structural residual")),
        Op("obata_check sphere:4",
           lambda: soliton.obata_check(spec, count=count,
                                       seed=inp["structural_seed"]),
           _below(1e-6, "Obata residual")),
    ]
    for k in (1, 2):
        ops.append(Op(
            f"divergence_newton k={k}",
            lambda k=k: max(float(np.max(np.abs(
                sigma.divergence_newton(sph.chart, x, k).components)))
                for x in inp["newton_points"]),
            _below(1e-7, f"|div T_{k}|")))

    def conformal(law):
        # phi^2 g_sphere with phi = s (1 + |x|^2) / (1 + |x - c|^2) is the
        # round sphere of radius s around c: A = 2 / q^2 and Ric = 12 / q^2
        # times the identity, q = 1 + |x - c|^2, whatever s is
        def run():
            out = []
            for case in inp["conformal"]:
                x, c, s = case["point"], case["center"], case["radius"]
                sq = " + ".join(f"x{i + 1}^2" for i in range(4))
                sh = " + ".join(f"(x{i + 1} - {c[i]!r})^2" for i in range(4))
                phi = f"{s!r}*(1 + {sq})/(1 + {sh})"
                out.append((x, c, law(sph.chart, x, phi).components))
            return out
        return run

    def conformal_check(scale):
        def check(cases):
            for x, c, comps in cases:
                q = 1.0 + float(np.sum((np.asarray(x) - np.asarray(c)) ** 2))
                close(comps, scale / q ** 2 * np.eye(4), 1e-9, "conformal law")
        return check

    ops.append(Op("conformal_schouten", conformal(
        lambda *a: sigma.conformal_schouten(*a)), conformal_check(2.0)))
    ops.append(Op("conformal_ricci", conformal(
        lambda *a: sigma.conformal_ricci(*a)), conformal_check(12.0)))
    return ops


# -- grid-pde ----------------------------------------------------------------------


def _pde_setup(inp):
    for f in inp["flows"]:
        expr.parse(f["u0"])
    for h in inp["hodge"]:
        for part in h["field"].split(";"):
            expr.parse(part)
    return None


def _flow_check(f):
    def check(r: CliResult):
        _ok_exit(r)
        rows = list(csv.reader(io.StringIO(r.out)))
        expect(rows[0] == ["t", "E_l", "log_r_kl", "sup_dev", "volume"],
               f"header {rows[0]}")
        t, energy, _, dev, vol = np.array(rows[1:], dtype=float).T
        expect(len(t) >= 10 and abs(t[-1] - f["t_end"]) < 1e-12,
               f"{len(t)} samples ending at t = {t[-1]}")
        drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
        expect(drift < 1e-5, f"E_{f['l']} drift {drift:.3g}")
        expect(dev[-1] <= dev[0], f"deviation grew {dev[0]:.3g} -> {dev[-1]:.3g}")
        expect(np.all(np.isfinite(vol)) and np.all(vol > 0), "volume column")
    return check


def _grid(shape):
    axes = [np.arange(n) * (2 * math.pi / n) for n in shape]
    return np.meshgrid(*axes, indexing="ij")


def _hodge_check(h):
    def check(r: CliResult):
        _ok_exit(r)
        doc = json.loads(r.out)
        for key in ("div_residual", "reconstruction", "potential_mean"):
            expect(doc[key] < 1e-9, f"{key} {doc[key]:.3g}")
        xs = _grid((h["grid"],) * h["dim"])
        phi = sum(alpha * np.sin(sum(m * x for m, x in zip(modes, xs)) + beta)
                  for alpha, modes, beta in h["potential"])
        y = [sum(gamma * np.cos(sum(m * x for m, x in zip(modes, xs)) + delta)
                 for comp, gamma, modes, delta in h["solenoidal"] if comp == a)
             for a in range(h["dim"])]
        close(doc["potential_sup"], float(np.max(np.abs(phi))), 1e-9,
              "sup |potential|")
        close(doc["Y_sup"], max(float(np.max(np.abs(c))) for c in y), 1e-9,
              "sup |divergence-free part|")
    return check


def _pde_ops(inp, state) -> list[Op]:
    ops = []
    for f in inp["flows"]:
        argv = ["flow", "--n", str(f["n"]), "--k", str(f["k"]), "--l", str(f["l"]),
                "--grid", str(f["grid"]), "--u0=" + f["u0"],
                "--t-end", repr(f["t_end"])]
        ops.append(Op(f"flow n={f['n']} ({f['k']},{f['l']}) grid {f['grid']}",
                      lambda argv=argv: run_cli(argv), _flow_check(f)))
    for h in inp["hodge"]:
        argv = ["hodge", "--n", str(h["dim"]), "--grid", str(h["grid"]),
                "--field=" + h["field"], "--json"]
        ops.append(Op(f"hodge n={h['dim']} grid {h['grid']}",
                      lambda argv=argv: run_cli(argv), _hodge_check(h)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[dict], object]
    ops: Callable[[dict, object], list[Op]]

    @property
    def why(self) -> str:
        return WHY[self.name]


WORKLOADS = {w.name: w for w in (
    Workload("verify-sweep", _cli_setup, _verify_ops),
    Workload("point-highdim", _cli_setup, _highdim_ops),
    Workload("identities", _identities_setup, _identities_ops),
    Workload("grid-pde", _pde_setup, _pde_ops),
)}
