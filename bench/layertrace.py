"""Per-layer tracing of sigmaflow from outside the package.

``Tracer.install`` replaces each traced function at every place callers
resolve it: the defining module attribute, every other ``sigmaflow`` module
that imported it by name (``curvature_taylor`` is also bound in ``soliton``,
``sigma``, ``models`` and the package), module-level dispatch tables such
as ``expr._TAYLOR_FN``, and class attributes for methods.
``Tracer.uninstall`` puts the originals back; nothing under ``src/``
changes.

A span group records, per pass: ``calls`` (outermost calls only, so the
recursive ``eval_float`` counts once per evaluation), ``total`` time, and
``self`` time, the span minus the child spans inside it.  Groups of kind
``count`` only count calls.  Spans of the coarse layers are also kept in
memory as records ``(op, id, parent, group, start, end)``, where ``op``
identifies the benchmark operation that caused them; ``write_spans`` writes
them out at exit.

``taylor.mul`` also sums the work its product-pair table implies:
flops_computed = 2 P per call (one multiply, one accumulate per pair) and
bytes_computed = 8 (7 P + C) per call (two operand gathers, three index
reads, the product write and re-read, C output coefficients), where P is
the context's pair count and C its coefficient count.  These are computed
from the tables, not measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

_TAYLOR_ELEMENTARY = ("recip", "exp", "log", "log_abs", "sqrt", "sin", "cos",
                      "sinh", "cosh", "tanh", "power")
_COVARIANT = ("cov_deriv_02", "grad_scalar", "hessian_scalar", "laplacian_scalar",
              "lie_metric", "div_vector", "div_endomorphism")

# (group, module, attribute, kind); kind "span", "count", "mul" (span plus
# pair-table work), "scalar" (span only when the other operand is a number),
# "pipeline" (span plus the distinct (chart, point) pairs seen)
TARGETS = [
    ("taylor.mul", "taylor", "TaylorContext.mul", "mul"),
    ("taylor.context", "taylor", "TaylorContext.__init__", "span"),
    *[("taylor.linear", "taylor", f"TaylorScalar.{m}", "span")
      for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")],
    *[("taylor.linear", "taylor", f"TaylorScalar.{m}", "scalar")
      for m in ("__mul__", "__rmul__", "__truediv__")],
    ("taylor.deriv", "taylor", "TaylorScalar.deriv", "count"),
    *[("taylor.elementary", "taylor", f, "span") for f in _TAYLOR_ELEMENTARY],
    ("expr.eval_taylor", "expr", "eval_taylor", "span"),
    ("expr.eval_float", "expr", "eval_float", "span"),
    ("expr.parse", "expr", "parse", "span"),
    ("tensor.sym_eigenvalues", "tensor", "sym_eigenvalues", "span"),
    ("tensor.sigmas_from_power_sums", "tensor", "sigmas_from_power_sums", "span"),
    ("curvature.curvature_taylor", "curvature", "curvature_taylor", "pipeline"),
    ("curvature.taylor_inverse", "curvature", "taylor_inverse", "span"),
    *[("curvature.covariant", "curvature", f"TaylorCurvature.{m}", "span")
      for m in _COVARIANT],
    ("curvature.values", "curvature", "values", "span"),
    ("curvature.MetricChart", "curvature", "MetricChart.__init__", "span"),
    ("sigma.sigma_taylor", "sigma", "sigma_taylor", "span"),
    ("sigma.sigma_profile", "sigma", "sigma_profile", "span"),
    ("sigma.newton_tensor_taylor", "sigma", "newton_tensor_taylor", "span"),
    *[("sigma.conformal", "sigma", f, "span")
      for f in ("conformal_schouten", "conformal_ricci", "_conformal_schouten_taylor")],
    ("models.builtin", "models", "builtin", "span"),
    ("models.check_golden", "models", "check_golden", "span"),
    ("soliton.soliton_residual", "soliton", "soliton_residual", "span"),
    *[("soliton.structural", "soliton", f, "span")
      for f in ("lemma_structural_check", "obata_check")],
    ("flow.step", "flow", "step", "span"),
    ("flow.flow_rhs", "flow", "flow_rhs", "span"),
    ("flow.quadrature", "flow", "quadrature", "count"),
    ("flow.stable_dt", "flow", "stable_dt", "count"),
    ("hodge.from_exprs", "hodge", "TorusField.from_exprs", "span"),
    ("hodge.hodge_decompose", "hodge", "hodge_decompose", "span"),
    ("hodge.decomposition_report", "hodge", "decomposition_report", "span"),
    ("cli.main", "cli", "main", "span"),
    ("cli.spec_from_document", "cli", "spec_from_document", "span"),
]

# groups whose spans are kept as records; the rest are only aggregated
RECORDED = {
    "cli.main", "cli.spec_from_document", "models.builtin", "models.check_golden",
    "soliton.soliton_residual", "soliton.structural", "curvature.curvature_taylor",
    "curvature.MetricChart", "sigma.sigma_profile", "sigma.newton_tensor_taylor",
    "sigma.conformal", "flow.step", "hodge.from_exprs", "hodge.hodge_decompose",
    "hodge.decomposition_report",
}

# per-layer metrics: (name, unit, group, field); field is an index into a
# group's [calls, total_s, self_s] or a derived quantity
PER_LAYER = [
    ("taylor.mul.calls", "count", "taylor.mul", "calls"),
    ("taylor.mul.self_s", "s", "taylor.mul", "self"),
    ("taylor.mul.flops_computed", "flop", "taylor.mul", "flops"),
    ("taylor.mul.bytes_computed", "B", "taylor.mul", "bytes"),
    ("taylor.linear.calls", "count", "taylor.linear", "calls"),
    ("taylor.linear.self_s", "s", "taylor.linear", "self"),
    ("taylor.elementary.calls", "count", "taylor.elementary", "calls"),
    ("taylor.elementary.self_s", "s", "taylor.elementary", "self"),
    ("taylor.deriv.calls", "count", "taylor.deriv", "calls"),
    ("taylor.context.build_s", "s", "taylor.context", "total"),
    ("expr.eval_taylor.calls", "count", "expr.eval_taylor", "calls"),
    ("expr.eval_taylor.self_s", "s", "expr.eval_taylor", "self"),
    ("expr.eval_float.calls", "count", "expr.eval_float", "calls"),
    ("expr.eval_float.self_s", "s", "expr.eval_float", "self"),
    ("expr.parse.calls", "count", "expr.parse", "calls"),
    ("expr.parse.self_s", "s", "expr.parse", "self"),
    ("tensor.sym_eigenvalues.calls", "count", "tensor.sym_eigenvalues", "calls"),
    ("tensor.sym_eigenvalues.self_s", "s", "tensor.sym_eigenvalues", "self"),
    ("tensor.sigmas_from_power_sums.calls", "count",
     "tensor.sigmas_from_power_sums", "calls"),
    ("tensor.sigmas_from_power_sums.self_s", "s",
     "tensor.sigmas_from_power_sums", "self"),
    ("curvature.curvature_taylor.calls", "count", "curvature.curvature_taylor",
     "calls"),
    ("curvature.curvature_taylor.self_s", "s", "curvature.curvature_taylor", "self"),
    ("curvature.recompute_ratio", "1", "curvature.curvature_taylor", "recompute"),
    ("curvature.taylor_inverse.self_s", "s", "curvature.taylor_inverse", "self"),
    ("curvature.covariant.calls", "count", "curvature.covariant", "calls"),
    ("curvature.covariant.self_s", "s", "curvature.covariant", "self"),
    ("curvature.values.calls", "count", "curvature.values", "calls"),
    ("curvature.values.self_s", "s", "curvature.values", "self"),
    ("curvature.MetricChart.init_s", "s", "curvature.MetricChart", "total"),
    ("sigma.sigma_taylor.calls", "count", "sigma.sigma_taylor", "calls"),
    ("sigma.sigma_taylor.self_s", "s", "sigma.sigma_taylor", "self"),
    ("sigma.sigma_profile.calls", "count", "sigma.sigma_profile", "calls"),
    ("sigma.sigma_profile.self_s", "s", "sigma.sigma_profile", "self"),
    ("sigma.newton_tensor_taylor.self_s", "s", "sigma.newton_tensor_taylor", "self"),
    ("sigma.conformal.self_s", "s", "sigma.conformal", "self"),
    ("models.builtin.calls", "count", "models.builtin", "calls"),
    ("models.builtin.s", "s", "models.builtin", "total"),
    ("models.check_golden.self_s", "s", "models.check_golden", "self"),
    ("soliton.soliton_residual.self_s", "s", "soliton.soliton_residual", "self"),
    ("soliton.structural.self_s", "s", "soliton.structural", "self"),
    ("flow.step.calls", "count", "flow.step", "calls"),
    ("flow.step.self_s", "s", "flow.step", "self"),
    ("flow.flow_rhs.calls", "count", "flow.flow_rhs", "calls"),
    ("flow.flow_rhs.self_s", "s", "flow.flow_rhs", "self"),
    ("flow.quadrature.calls", "count", "flow.quadrature", "calls"),
    ("flow.stable_dt.calls", "count", "flow.stable_dt", "calls"),
    ("hodge.from_exprs.s", "s", "hodge.from_exprs", "total"),
    ("hodge.hodge_decompose.calls", "count", "hodge.hodge_decompose", "calls"),
    ("hodge.hodge_decompose.self_s", "s", "hodge.hodge_decompose", "self"),
    ("hodge.decomposition_report.self_s", "s", "hodge.decomposition_report", "self"),
    ("cli.main.self_s", "s", "cli.main", "self"),
    ("cli.spec_from_document.s", "s", "cli.spec_from_document", "total"),
]
_FIELD = {"calls": 0, "total": 1, "self": 2}


class Tracer:
    def __init__(self):
        # group -> [calls, total_s, self_s, active]
        self.stats = {group: [0, 0.0, 0.0, 0] for group, *_ in TARGETS}
        self._stack = []            # child-time accumulators of open spans
        self._pairs = [0, 0]        # summed pair and coefficient counts of mul
        self._points = {}           # (id(chart), point bytes) -> chart
        self._patches = []          # (container, key, original)
        self.records = []
        self._record = False
        self._op = None
        self._current = None        # id of the innermost recorded span
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, group, fn, on_enter=None):
        st = self.stats[group]
        stack = self._stack
        clock = time.perf_counter
        recorded = group in RECORDED

        def wrapper(*args, **kwargs):
            if st[3]:               # nested call of the same group
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            st[3] = 1
            frame = [0.0]
            stack.append(frame)
            if recorded and self._record:
                parent, sid = self._current, self._new_id()
                self._current = sid
            else:
                sid = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                st[3] = 0
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if sid is not None:
                    self._current = parent
                    self.records.append((self._op, sid, parent, group, t0, t1))
        return wrapper

    def _count(self, group, fn):
        st = self.stats[group]

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, group, kind, fn):
        if kind == "count":
            return self._count(group, fn)
        if kind == "mul":
            pairs = self._pairs

            def on_mul(args):
                ctx = args[0]
                pairs[0] += ctx._mul_a.size
                pairs[1] += ctx.ncoef
            return self._span(group, fn, on_mul)
        if kind == "pipeline":
            points = self._points

            def on_pipeline(args):
                try:
                    key = (id(args[0]), _point_bytes(args[1]))
                except (IndexError, TypeError, ValueError):
                    return          # malformed call: the program reports it
                points.setdefault(key, args[0])
            return self._span(group, fn, on_pipeline)
        if kind == "scalar":
            from sigmaflow.taylor import TaylorScalar
            span = self._span(group, fn)

            def dispatch(a, b):
                return fn(a, b) if isinstance(b, TaylorScalar) else span(a, b)
            return dispatch
        return self._span(group, fn)

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    # -- installation ---------------------------------------------------------------

    def install(self):
        if self._patches:
            return
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "sigmaflow" or name.startswith("sigmaflow.")}
        for group, modname, attr, kind in TARGETS:
            module = mods[f"sigmaflow.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(group, kind, raw.__func__))
                else:
                    new = self._wrap(group, kind, raw)
                self._patch(cls, meth, new)
                continue
            original = getattr(module, attr)
            new = self._wrap(group, kind, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, new)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((value, dkey, dvalue))
                                value[dkey] = new

    def _patch(self, obj, key, new):
        self._patches.append((obj, key, vars(obj)[key]))
        setattr(obj, key, new)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patches = []

    # -- passes -----------------------------------------------------------------------

    def reset(self, record: bool = False):
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        self._pairs[:] = [0, 0]
        self._points.clear()
        self._record = record

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; its index is the trace id."""
        if not self._record:
            yield
            return
        self._op, self._current = name, self._new_id()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, self._current, None, "op", t0,
                                 time.perf_counter()))
            self._op = self._current = None

    def snapshot(self) -> dict:
        snap = {group: tuple(st[:3]) for group, st in self.stats.items()}
        calls = self.stats["curvature.curvature_taylor"][0]
        snap["flops"] = 2 * self._pairs[0]
        snap["bytes"] = 8 * (7 * self._pairs[0] + self._pairs[1])
        snap["recompute"] = calls / len(self._points) if self._points else 0.0
        return snap

    def write_spans(self, path):
        rows = [{"op": op, "id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1}
                for op, sid, parent, name, t0, t1 in self.records]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def _point_bytes(x) -> bytes:
    import numpy as np
    return np.asarray(x, dtype=float).tobytes()


def layer_metrics(snaps: list[dict], setup: dict | None = None) -> dict:
    """Per-layer metrics from the snapshots of repeated traced passes.

    Counts come from the first pass (``exact_counts`` checks they repeat);
    times are medians over the passes.  ``taylor.context.build_s`` adds the
    context builds of the traced set-up, since contexts are cached after it.
    """
    out = {}
    for name, unit, group, field in PER_LAYER:
        if field in ("flops", "bytes", "recompute"):
            value = snaps[0][field]
        elif field == "calls":
            value = snaps[0][group][0]
        else:
            value = statistics.median(s[group][_FIELD[field]] for s in snaps)
            if name == "taylor.context.build_s" and setup is not None:
                value += setup[group][1]
        out[name] = {"value": value, "unit": unit}
    return out


def exact_counts(snap: dict) -> tuple:
    return tuple((g, snap[g][0]) for g in sorted(snap) if isinstance(snap[g], tuple)) \
        + tuple(snap[f] for f in ("flops", "bytes", "recompute"))
