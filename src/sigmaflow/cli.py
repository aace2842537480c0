"""Command-line front end.

Subcommands: curvature (tensor + sigma report at a point), verify (soliton
residual check), flow (rotationally symmetric quotient flow, CSV time
series), hodge (torus Helmholtz splitting).  Exit codes: 0 success /
verification pass, 1 verification fail, 2 input error, 3 geometry error,
4 flow abort, 5 internal error (a program fault, in one line).  `main` alone
gives an error its code: InputError, EvalError, HodgeError, StepLimitError
and MemoryError (an input too large for memory) exit 2, after one error line
(argparse's usage line comes first for a bad argument); GeometryError and
its subclasses exit 3; any other exception 5.  Commands raise their owners'
errors unchanged, but for a GeometryError of the point, probe or flow-state
check, which is about the command's own input and becomes an InputError.
numpy's BLAS worker threads are capped by OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS, which must be set before Python starts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import expr as ex
from . import flow, hodge, models, soliton
from .curvature import GeometryError, MetricChart, curvature_at, values
from .probes import chart_probes
from .sigma import ConeConditionError, sigma_profile

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_GEOMETRY = 3
EXIT_FLOW_ABORT = 4
EXIT_INTERNAL = 5


class InputError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _expression(src, what: str, top: int | None = None):
    """The expression ``src`` parsed, with ``what`` naming it in the error,
    and, given ``top``, no variable above x<top>."""
    try:
        tree = ex.parse(src)
    except ex.ParseError as err:
        raise InputError(f"{what}: {err}") from err
    if top is not None and ex.max_var(tree) > top:
        raise InputError(f"{what} references more than {top} "
                         f"variable{'s' if top > 1 else ''}")
    return tree


# -- metric-spec files -----------------------------------------------------


def load_spec_file(path: str):
    """Parse a metric-spec JSON document into a SolitonSpec."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: malformed JSON at offset {err.pos}: {err.msg}") from err
    return spec_from_document(doc, origin=path)


def spec_from_document(doc, origin="<spec>"):
    """A SolitonSpec from a parsed spec document, whose values their owners
    check (``ex.parse``, ``MetricChart``, ``SolitonSpec``)."""
    if not isinstance(doc, dict):
        raise InputError(f"{origin}: top level must be an object")
    missing = [key for key in ("dim", "metric", "k", "l") if key not in doc]
    if missing:
        raise InputError(f"{origin}: missing required field(s) {', '.join(missing)}")

    metric = doc["metric"]
    if not (isinstance(metric, list) and all(isinstance(row, list) for row in metric)):
        raise InputError(f"{origin}: metric must be an array of expression arrays")
    comps = [[_expression(src, f"{origin}: metric[{i}][{j}]") for j, src in enumerate(row)]
             for i, row in enumerate(metric)]
    dim = len(comps)  # MetricChart checks it against doc["dim"]
    potential, vector_field = None, [ex.parse("0")] * dim  # the zero field, if neither is given
    if "potential" in doc:
        potential = _expression(doc["potential"], f"{origin}: potential")
    elif "vector_field" in doc:
        raw = doc["vector_field"]
        if not (isinstance(raw, list) and len(raw) == dim):
            raise InputError(f"{origin}: vector_field needs {dim} components")
        vector_field = [_expression(s, f"{origin}: vector_field[{a}]") for a, s in enumerate(raw)]
    lam = _expression(doc["lambda"], f"{origin}: lambda") if "lambda" in doc else ex.parse("0")
    try:
        chart = MetricChart(doc["dim"], comps, doc.get("domain", [(-1.0, 1.0)] * dim))
        return soliton.SolitonSpec(chart, lam, doc["k"], doc["l"], potential, vector_field)
    except GeometryError as err:
        raise InputError(f"{origin}: {err}") from err


def _resolve(args):
    """The SolitonSpec of the builtin model or spec file named on the command line."""
    if args.builtin:
        try:
            return models.builtin(args.builtin)
        except ValueError as err:
            raise InputError(f"unknown builtin {args.builtin!r}: {err}") from err
    return load_spec_file(args.file)


def _parse_point(text):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as err:
        raise InputError(f"bad point {text!r}: {err}") from err


def _input_check(owner, *args, **kwargs):
    """``owner(*args, **kwargs)``, where a GeometryError is about the command's input."""
    try:
        return owner(*args, **kwargs)
    except GeometryError as err:
        raise InputError(str(err)) from err


# -- subcommands -----------------------------------------------------------


def cmd_curvature(args) -> int:
    source = _resolve(args)
    chart = source.chart
    x = _parse_point(args.point) if args.point else [0.5 * (lo + hi) for lo, hi in chart.domain]
    _input_check(chart.check_points, x)  # the coordinate count and the domain
    tc = curvature_at(chart, x)
    scalar, ricci, g = tc.scalar.value, values(tc.ricci), values(tc.g)
    report = {
        "dim": chart.dim,
        "point": x,
        "scalar_curvature": float(scalar),
        "ricci": ricci.tolist(),
        "riemann_sup": float(np.max(np.abs(values(tc.riemann)))),
        "ricci_minus_metric_sup": float(np.max(np.abs(ricci - g))),
        "ricci_plus_metric_sup": float(np.max(np.abs(ricci + g))),
    }
    prof = None
    if chart.dim >= 3:  # Schouten, Cotton and sigma_k need n >= 3
        report["schouten"] = values(tc.schouten).tolist()
        report["cotton_sup"] = float(np.max(np.abs(values(tc.cotton))))
        try:
            prof = sigma_profile(tc, source.k, source.l)
        except ConeConditionError as err:
            report["cone_violation"] = str(err)
        else:
            report["sigma"] = [float(s) for s in prof.sigmas]
            report["log_quotient"] = float(prof.log_quotient)
            report["cone_ok"] = True  # sigma_profile raised otherwise

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"dim = {chart.dim}, point = {x}")
        print(f"R = {scalar:.6f}")
        print(f"|Rm|_sup = {_fmt(report['riemann_sup'])}")
        if "cotton_sup" in report:
            print(f"|Cotton|_sup = {_fmt(report['cotton_sup'])}")
        if prof is not None:
            sig = ", ".join(_fmt(s) for s in prof.sigmas[1:])
            print(f"sigma_1..{chart.dim} = {sig}")
            print(f"log sigma_{source.k}/sigma_{source.l} = {_fmt(prof.log_quotient)}")
        elif "cone_violation" in report:
            print(f"cone condition fails: {report['cone_violation']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = soliton.SolitonSpec.from_model(_resolve(args))
    points = _input_check(chart_probes, spec.chart, args.probes, seed=args.seed)  # count and seed
    report = soliton.soliton_residual(spec, points, trivial_tol=args.trivial_tol)
    doc = report.to_dict()
    doc["tolerance"] = args.tolerance
    doc["pass"] = bool(report.sup < args.tolerance)
    if args.json:
        doc["cone_violation_points"] = [x.tolist() for x, _ in report.cone_violations]
        x, half_lie, psi = report.worst_probe  # where the residual is largest, and its parts
        doc["worst_probe"] = {"point": x.tolist(), "half_lie_norm": half_lie, "psi_abs": psi}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"residual sup = {_fmt(report.sup)} (mean {_fmt(report.mean)})")
        print(f"|L_X g|_sup = {_fmt(report.lie_sup)}")
        print(f"classification: {report.classification}"
              + (" (trivial)" if report.trivial else ""))
        if report.cone_violations:
            print(f"cone violations at {len(report.cone_violations)} probes")
        print("PASS" if doc["pass"] else
              f"FAIL (residual {_fmt(report.sup)} >= {_fmt(args.tolerance)})")
    return EXIT_OK if doc["pass"] else EXIT_VERIFY_FAIL


def cmd_flow(args) -> int:
    u0 = None
    if args.u0:
        tree = _expression(args.u0, "--u0", 1)  # x1 is the latitude
        u0 = lambda th: ex.eval_float(tree, [th])
    state = _input_check(flow.FlowState.from_function, args.n, args.k, args.l, args.grid, u0)
    final, diag = flow.run(state, args.t_end, dt=args.dt, cadence=args.cadence)
    if diag.energy_omitted:
        print(f"warning: E_{args.l} diagnostic omitted (l = n/2 path integral "
              "not implemented; column holds int sigma_l dv)", file=sys.stderr)

    rows = zip(diag.times, diag.energy, diag.log_r, diag.sup_dev, diag.volume)
    lines = ["t,E_l,log_r_kl,sup_dev,volume"] + [",".join(_fmt(v) for v in row) for row in rows]
    if args.csv:
        with open(args.csv, "w", newline="\r\n") as fh:  # the csv module's line ends
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    if args.state_json:
        with open(args.state_json, "w") as fh:
            json.dump({"n": final.n, "k": final.k, "l": final.l,
                       "grid": final.grid_size, "t": final.t,
                       "u": [float(v) for v in final.u]}, fh, indent=2)
    if diag.aborted:
        print(f"flow aborted: {diag.aborted}", file=sys.stderr)
        last = diag.times[-1] if diag.times else 0.0
        print(f"last good t = {_fmt(last)}", file=sys.stderr)
        return EXIT_FLOW_ABORT
    return EXIT_OK


def cmd_hodge(args) -> int:
    exprs = [part.strip() for part in args.field.split(";")]
    if len(exprs) != args.n:
        raise InputError(f"--field needs {args.n} component expressions")
    trees = [_expression(src, f"--field[{a}]", args.n) for a, src in enumerate(exprs)]

    field = hodge.TorusField.from_exprs(
        [lambda *grids, t=t: ex.eval_float(t, grids) for t in trees], (args.grid,) * args.n)
    y, h = hodge.hodge_decompose(field)
    doc = {
        "grid": args.grid,
        "dim": args.n,
        "Y_sup": float(max(np.max(np.abs(c)) for c in y.components)),
        "potential_sup": float(np.max(np.abs(h))),
        **hodge.decomposition_report(field, y, h),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key in sorted(doc):
            print(f"{key} = {_fmt(doc[key]) if isinstance(doc[key], float) else doc[key]}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def _positive(kind):
    """argparse type for the numbers only the CLI reads: a finite ``kind`` > 0."""
    def convert(text):
        value = kind(text)  # a ValueError reads "invalid positive int value"
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
        return value
    convert.__name__ = f"positive {kind.__name__}"
    return convert


def build_parser():
    p = argparse.ArgumentParser(
        prog="sigmaflow",
        description="sigma_k curvature computation, soliton verification, "
                    "quotient flow integration, torus Hodge splitting.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--file", help="metric-spec JSON file")
        grp.add_argument("--builtin",
                         help="builtin model, e.g. sphere:4 or warped:sinh:sphere:3")

    c = sub.add_parser("curvature", help="curvature tensors and sigma_k at a point")
    add_source(c)
    c.add_argument("--point", help="comma-separated chart coordinates "
                                   "(default: the centre of the chart domain)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_curvature)

    v = sub.add_parser("verify", help="check the soliton equation at probe points")
    add_source(v)
    v.add_argument("--probes", type=_positive(int), default=40)
    v.add_argument("--tolerance", type=_positive(float), default=1e-7)
    v.add_argument("--trivial-tol", type=_positive(float), default=soliton.TRIVIAL_TOL)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("flow", help="rotationally symmetric quotient flow")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--l", type=int, required=True)
    f.add_argument("--grid", type=int, default=64)
    f.add_argument("--u0", help="initial exponent as an expression in x1 = theta")
    f.add_argument("--t-end", type=_positive(float), required=True)
    f.add_argument("--dt", type=_positive(float), default=None)
    f.add_argument("--cadence", type=_positive(int), default=10)
    f.add_argument("--csv", help="write diagnostics to this path")
    f.add_argument("--state-json", help="write the final state to this path")
    f.set_defaults(func=cmd_flow)

    h = sub.add_parser("hodge", help="Helmholtz-Hodge splitting on a flat torus")
    h.add_argument("--n", type=int, choices=(2, 3), required=True)
    h.add_argument("--grid", type=int, required=True)
    h.add_argument("--field", required=True,
                   help="semicolon-separated component expressions in x1..xn "
                        "on [0, 2pi), e.g. 'cos(x1)*cos(x2); -sin(x1)*sin(x2)'")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=cmd_hodge)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, ex.EvalError, hodge.HodgeError, flow.StepLimitError,
            MemoryError) as err:  # MemoryError: input too large
        print(f"input error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as err:
        print(f"geometry error: {err}", file=sys.stderr)
        return EXIT_GEOMETRY
    except Exception as err:  # a program fault, not a failed verification
        print(" ".join(f"internal error: {type(err).__name__}: {err}".split()),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
