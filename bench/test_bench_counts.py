"""Self-test of the benchmark's tracer: exact counts that repeat run to run.

Run with ``python3 -m pytest bench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sigmaflow import curvature, expr, models, soliton, taylor  # noqa: E402
from sigmaflow.probes import chart_probes  # noqa: E402


def traced(fn):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.reset()
        fn()
        return tracer.snapshot()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("n, muls", [(3, 564), (4, 2014), (6, 13539), (8, 54444)])
def test_jet_multiplies_per_point(n, muls):
    chart = models.sphere(n).chart
    point = 0.1 * np.arange(1, n + 1) / n
    snap = traced(lambda: curvature.curvature_taylor(chart, point))
    assert snap["taylor.mul"][0] == muls
    # ordered pairs with |a| + |b| <= 4 in n variables, coefficients |a| <= 4
    pairs, coefs = math.comb(2 * n + 4, 4), math.comb(n + 4, 4)
    assert snap["flops"] == 2 * pairs * muls
    assert snap["bytes"] == 8 * (7 * pairs + coefs) * muls


def test_check_golden_reruns_the_pipeline():
    model = models.sphere(4)
    points = chart_probes(model.chart, 10)
    snap = traced(lambda: models.check_golden(model, points))
    assert snap["curvature.curvature_taylor"][0] == 60
    assert snap["recompute"] == 6.0


def test_uninstall_restores_every_binding():
    originals = (curvature.curvature_taylor, soliton.curvature_taylor,
                 expr._TAYLOR_FN["log"], taylor.TaylorScalar.__add__,
                 vars(sys.modules["sigmaflow.hodge"].TorusField)["from_exprs"])
    tracer = layertrace.Tracer()
    tracer.install()
    assert soliton.curvature_taylor is curvature.curvature_taylor
    assert soliton.curvature_taylor is not originals[0]
    assert expr._TAYLOR_FN["log"] is taylor.log
    tracer.uninstall()
    assert (curvature.curvature_taylor, soliton.curvature_taylor,
            expr._TAYLOR_FN["log"], taylor.TaylorScalar.__add__,
            vars(sys.modules["sigmaflow.hodge"].TorusField)["from_exprs"]) == originals


def test_benchmark_json_lists_what_the_harness_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, workloads.WHY[name]) for name in run.WORKLOAD_NAMES]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, unit) for name, unit, *_ in layertrace.PER_LAYER] \
        + [("trace.overhead_s", "s")]
