"""Property tests over metric-spec documents: whatever a document holds,
``curvature --file`` ends in exit 0, 2 (input error) or 3 (geometry error),
``verify --file`` in 0 to 3 (1: the residual check failed), an error exit
prints one stderr line, and no exception leaves ``cli.main``."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigmaflow import expr as ex
from sigmaflow.cli import main
from test_rings import TREES

ABSENT = object()

WRONG = st.sampled_from([None, True, 0, 2.5, -1, math.nan, "", "(", "abc", [], {}])
EXPRS = st.sampled_from(["0", "1", "x1", "0.1*x2", "exp(x1)", "cosh(x2)^2", "log(x1)",
                         "1/0", "x9"])
NUMBERS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))


def mostly(valid, wrong):
    """``valid`` five times in six, else ``wrong``, so that about a quarter of
    the documents are valid throughout and reach the curvature pipeline."""
    return st.integers(0, 5).flatmap(lambda i: valid if i else wrong)


def optional(strategy):
    return st.one_of(st.just(ABSENT), strategy)


@st.composite
def documents(draw):
    n = draw(st.integers(2, 4))
    sphere = "4/(1 + " + " + ".join(f"x{i}^2" for i in range(1, n + 1)) + ")^2"
    diagonal = st.sampled_from(["1", "2", "exp(0.1*x1)", sphere]).map(
        lambda d: [[d if i == j else "0" for j in range(n)] for i in range(n)])
    square = st.lists(st.lists(st.one_of(EXPRS, WRONG), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    ragged = st.lists(st.lists(EXPRS, max_size=4), max_size=4)
    box = st.floats(0.1, 0.9).map(lambda r: [[-r, r]] * n)
    pair = st.one_of(st.tuples(NUMBERS, NUMBERS).map(list),
                     st.lists(st.one_of(NUMBERS, WRONG), max_size=3))
    index = st.one_of(st.integers(-1, 9), st.floats(allow_nan=True),
                      st.sampled_from([float(n), str(n)]), WRONG)
    expr = mostly(EXPRS, WRONG)
    doc = {
        "dim": draw(mostly(st.just(n), st.one_of(st.sampled_from([n + 0.5, float(n),
                                                                   str(n), 9]), WRONG))),
        "metric": draw(mostly(diagonal, st.one_of(square, ragged, WRONG))),
        "domain": draw(optional(mostly(box, st.one_of(st.lists(pair, max_size=4), WRONG)))),
        "k": draw(mostly(st.integers(0, n), index)),
        "l": draw(mostly(st.integers(0, n), index)),
        "potential": draw(optional(expr)),
        "vector_field": draw(optional(mostly(st.lists(expr, min_size=n, max_size=n),
                                             WRONG))),
        "lambda": draw(optional(expr)),
    }
    return {key: value for key, value in doc.items() if value is not ABSENT}


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_curvature_exit_code_on_any_spec_document(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["curvature", "--file", path])
    assert code in (0, 2, 3), (doc, code, err.getvalue())
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def assert_exit(argv, codes, doc):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in codes, (doc, argv, code, err.getvalue())
    # an error exit prints one line; a pass or a failed residual check none
    assert err.getvalue().count("\n") == (code >= 2), (doc, argv, err.getvalue())


SPHERE3 = "4/(1 + x1^2 + x2^2 + x3^2)^2"


@st.composite
def tree_documents(draw):
    """The round 3-sphere's spec with one random expression tree (the ring
    test's) in a metric component, the potential, a vector-field component
    or lambda."""
    metric = [[SPHERE3 if i == j else "0" for j in range(3)] for i in range(3)]
    doc = {"dim": 3, "metric": metric, "domain": [[-0.9, 0.9]] * 3, "k": 2, "l": 1,
           "potential": "x1", "lambda": "0"}
    src = ex.unparse(draw(TREES))
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    slot = draw(st.sampled_from(("metric", "potential", "vector_field", "lambda")))
    if slot == "metric":
        metric[i][j] = metric[j][i] = src
    elif slot == "vector_field":
        del doc["potential"]
        doc["vector_field"] = ["0"] * 3
        doc["vector_field"][i] = src
    else:
        doc[slot] = src
    return doc


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree_documents())
def test_exit_codes_on_random_expressions(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert_exit(["curvature", "--file", path], (0, 2, 3), doc)
        assert_exit(["verify", "--file", path, "--probes", "5"], (0, 1, 2, 3), doc)
