import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import differentiate
from sigmaflow import expr as ex
from sigmaflow import taylor


def test_parse_numbers_and_arithmetic():
    e = ex.parse("2 + 3*4 - 10/4")
    assert ex.eval_float(e, []) == pytest.approx(2 + 12 - 2.5)


def test_power_binds_tighter_than_unary_minus():
    assert ex.eval_float(ex.parse("-2^2"), []) == pytest.approx(-4.0)
    assert ex.eval_float(ex.parse("(-2)^2"), []) == pytest.approx(4.0)


def test_power_right_associative():
    assert ex.eval_float(ex.parse("2^3^2"), []) == pytest.approx(512.0)


def test_variables_and_constants():
    e = ex.parse("pi * x1 + e * x2")
    assert ex.eval_float(e, [2.0, -1.0]) == pytest.approx(2 * math.pi - math.e)
    assert ex.max_var(e) == 2
    assert ex.parse("x1 ") == ex.parse("x1")  # trailing whitespace ends the tokens


@pytest.mark.parametrize("name,fn", [
    ("exp", math.exp), ("log", math.log), ("sin", math.sin), ("cos", math.cos),
    ("sinh", math.sinh), ("cosh", math.cosh), ("tanh", math.tanh),
    ("sqrt", math.sqrt), ("abs", abs),
])
def test_function_calls(name, fn):
    e = ex.parse(f"{name}(x1)")
    assert ex.eval_float(e, [0.7]) == pytest.approx(fn(0.7), rel=1e-15)


def test_parse_error_carries_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("log(")
    assert err.value.offset == 4
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ex.ParseError):
        ex.parse("frob(x1)")
    with pytest.raises(ex.ParseError):
        ex.parse("x1 x2")
    with pytest.raises(ex.ParseError) as err:
        ex.parse("2 * 1e999")
    assert err.value.offset == 4
    for source, message, offset in [("", "empty expression", 0),
                                    ("   ", "empty expression", 0),
                                    ("x1 @ 2", "unexpected character '@'", 3),
                                    ("(x1 + 1", "expected ')'", 7),
                                    ("exp(x1, x2)", "exp takes exactly one argument", 6)]:
        with pytest.raises(ex.ParseError) as err:
            ex.parse(source)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset, source


def test_unparse_round_trips_structurally():
    rng = np.random.default_rng(17)
    sources = [
        "x1 + x2*x3 - 4",
        "-(x1 + 2)^2 / (3 - x2)",
        "exp(-x1^2/2) * cos(pi*x2)",
        "sqrt(abs(x1 - x2)) + tanh(x3)",
        "1/(1 + x1^2)^2",
        "2^-x1",
    ]
    for src in sources:
        e = ex.parse(src)
        again = ex.parse(ex.unparse(e))
        assert ex.unparse(again) == ex.unparse(e)
        for _ in range(5):
            x = rng.uniform(0.1, 0.9, size=3).tolist()
            assert ex.eval_float(again, x) == pytest.approx(
                ex.eval_float(e, x), rel=1e-15)
        # one call over stacked points agrees with pointwise evaluation
        pts = rng.uniform(0.1, 0.9, size=(3, 4, 5))
        grid = ex.eval_float(e, pts)
        assert grid.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert grid[idx] == pytest.approx(
                ex.eval_float(e, pts[(slice(None), *idx)]), rel=1e-15)
    # the printer and the evaluator refuse what is not an Expr, a source string too
    for refused in (lambda: ex.unparse(object()), lambda: ex.eval_float("x1", [1.0])):
        with pytest.raises(TypeError, match="not an Expr"):
            refused()


def test_symbolic_derivative_matches_taylor():
    rng = np.random.default_rng(23)
    src = "exp(x1*x2) * sin(x1 + 2*x2) + log(3 + x1^2)"
    e = ex.parse(src)
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=2).tolist()
        t = ex.eval_taylor(e, x)
        for var in (1, 2):
            d = differentiate(e, var)
            alpha = [0, 0]
            alpha[var - 1] = 1
            assert ex.eval_float(d, x) == pytest.approx(
                t.derivative(tuple(alpha)), rel=1e-12, abs=1e-12)


def test_eval_taylor_against_finite_differences():
    e = ex.parse("cos(x1) * exp(x2) + x1^3 * x2")
    x = [0.4, -0.3]
    t = ex.eval_taylor(e, x)

    def f(u, v):
        return math.cos(u) * math.exp(v) + u ** 3 * v

    h = 1e-3
    fd = (f(x[0] + h, x[1]) - f(x[0] - h, x[1])) / (2 * h)
    assert t.derivative((1, 0)) == pytest.approx(fd, rel=1e-5)
    fd2 = (f(x[0], x[1] + h) - 2 * f(*x) + f(x[0], x[1] - h)) / h ** 2
    assert t.derivative((0, 2)) == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def test_shift_vars():
    e = ex.parse("x1 + sin(x2)")
    shifted = ex.shift_vars(e, 2)
    assert ex.eval_float(shifted, [9, 9, 1.0, 0.5]) == pytest.approx(
        1.0 + math.sin(0.5))
    assert ex.max_var(shifted) == 4


def test_domain_violation_raises_eval_error():
    # both rings share one set of domain rules, and overflow is an EvalError
    cases = [("log(x1)", -1.0), ("log(x1)", 0.0), ("sqrt(x1)", 0.0),
             ("1/x1", 0.0), ("x1^-1", 0.0), ("x1^0.5", -1.0),
             ("exp(1000*x1)", 1.0)]
    for src, x in cases:
        for evaluate in (ex.eval_float, ex.eval_taylor):
            with pytest.raises(ex.EvalError):
                evaluate(ex.parse(src), [x])


def test_a_literal_exponent_equals_the_constant_exponent_path():
    # a literal exponent is read as its float: the same bytes as the power
    # of the base by the exponent's constant, in the float ring and the jet ring
    x = np.array([[0.7, -0.2], [1.3, 0.4], [0.05, 1.1]])
    for base in ("x1", "(1 + x1 * x2)"):
        for p in (0, 1, 2, 3, 0.5, 2.5):
            e = ex.parse(f"{base}^{p}")
            b = e.left
            for pts in (x[0], x):
                want = np.power(ex.eval_float(b, pts.T), np.float64(p))
                assert np.asarray(ex.eval_float(e, pts.T)).tobytes() == \
                    np.asarray(want).tobytes(), (base, p, pts.shape)
                for order in (2, 3, 4):
                    s = ex.eval_taylor(b, pts, order=order)
                    want = taylor.power(s, s.ctx.constant(float(p)))
                    got = ex.eval_taylor(e, pts, order=order)
                    what = (base, p, pts.shape, order)
                    assert got.trusted == want.trusted, what
                    # x^0 is the constant 1, which eval_taylor spreads over a batch
                    assert got.c.tobytes() == np.broadcast_to(want.c, got.c.shape).tobytes(), what


def test_missing_variable_is_an_error():
    with pytest.raises(ex.EvalError):
        ex.eval_float(ex.parse("x3"), [1.0, 2.0])


def test_only_the_float_ring_is_defined_without_a_derivative():
    # abs at 0 and a variable exponent at a non-positive base have a value
    # but no derivative: floats evaluate them, jets name which one they met
    cases = [("abs(x1)", [0.0, 2.0], 0.0, "abs has no derivative at 0"),
             ("x1^x2", [-1.0, 2.0], 1.0, "variable exponent has no derivative at base -1"),
             ("x1^x2", [0.0, 2.0], 0.0, "variable exponent has no derivative at base 0")]
    for src, x, value, message in cases:
        e = ex.parse(src)
        assert ex.eval_float(e, x) == value
        with pytest.raises(ex.EvalError, match=message) as err:
            ex.eval_taylor(e, x)
        assert err.value.probe is None
        # in a batch, the first failing probe is named
        batch = [[1.5, 2.0], x, [-2.0, 3.0]]
        assert list(ex.eval_float(e, np.array(batch).T)) == \
            [ex.eval_float(e, p) for p in batch]
        with pytest.raises(ex.EvalError, match=re.escape(f"{message} at {x}")) as err:
            ex.eval_taylor(e, batch)
        assert err.value.probe == 1
    # away from those points both rings agree, probe by probe
    e = ex.parse("abs(x1) + x1^x2")
    batch = np.array([[0.5, 2.0], [1.5, -0.5], [2.0, 3.0]])
    jets = ex.eval_taylor(e, batch)
    assert jets.c.shape == (3, jets.ctx.ncoef)
    for p, x in enumerate(batch):
        assert np.array_equal(jets.c[p], ex.eval_taylor(e, x).c)
        assert jets.value[p] == pytest.approx(ex.eval_float(e, x), rel=1e-15)


def test_a_domain_error_reads_the_same_in_either_ring():
    # <subexpression>: <rule> <value> at <point>, the first failing probe of a
    # batch or the one point, with the probe's index in .probe; abs at 0 fails
    # the jet ring alone
    batch = np.array([[0.5, 1.0], [-1.0, 2.0], [0.0, 0.0]])
    cases = [("log(x1)", "log(x1): log of non-positive value -1", 1, True),
             ("x1/x2", "x1 / x2: division by 0", 2, True),
             ("abs(x1)", "abs(x1): abs has no derivative at 0", 2, False)]
    for src, message, probe, shared in cases:
        e = ex.parse(src)
        rings = [lambda x: ex.eval_taylor(e, x)]
        if shared:
            rings.append(lambda x: ex.eval_float(e, x.T))
        for evaluate in rings:
            with pytest.raises(ex.EvalError) as err:
                evaluate(batch)
            at = f"{message} at {batch[probe].tolist()}"
            assert (str(err.value), err.value.probe) == (at, probe)
            with pytest.raises(ex.EvalError) as err:
                evaluate(batch[probe])
            assert (str(err.value), err.value.probe) == (at, None)


def test_one_point_names_itself_and_a_batch_its_failing_probe():
    # the evaluator names the one point in either ring, also where the failing
    # subexpression is a constant; in a batch only a probe that fails first is
    # named, so a constant's failure names none
    e = ex.parse("x2 + log(0)")
    point, batch = [0.5, 2.0], np.array([[0.5, 2.0], [1.5, 3.0]])
    message = "log(0): log of non-positive value 0"
    for evaluate in (ex.eval_taylor, lambda e, x: ex.eval_float(e, np.transpose(x))):
        with pytest.raises(ex.EvalError) as err:
            evaluate(e, point)
        assert (str(err.value), err.value.probe) == (f"{message} at [0.5, 2.0]", None)
        with pytest.raises(ex.EvalError) as err:
            evaluate(e, batch)
        assert (str(err.value), err.value.probe) == (message, None)


def test_a_probe_counts_in_the_points_that_sparse_grids_broadcast_to():
    # log(1 - x1) fails first at row 2 of its own (8, 1) shape, x1 = pi/2;
    # of the 8 x 8 points the two grids make, that is probe 16
    axes = [np.arange(8) * (2 * math.pi / 8)] * 2
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    with pytest.raises(ex.EvalError) as err:
        ex.eval_float(ex.parse("log(1 - x1)"), grids)
    assert (str(err.value), err.value.probe) == (
        "log(1 - x1): log of non-positive value -0.570796 at [1.5707963267948966, 0.0]", 16)


def test_an_overflow_names_the_first_probe_that_leaves_the_double_range():
    # exp(1000 x1) underflows at x1 = -1, which is no failure, is finite with
    # its derivatives at 0.5, and overflows at 1: probe 2, in either ring
    e = ex.parse("exp(1000*x1)")
    x = np.array([-1.0, 0.5, 1.0])
    cases = [(lambda: ex.eval_taylor(e, x[:, None], order=2),
              "exp(1000 * x1): a jet coefficient left the double range at [1.0]", 2),
             (lambda: ex.eval_float(e, [x]), "exp(1000 * x1): overflow encountered in exp at [1.0]", 2),
             (lambda: ex.eval_float(e, [1.0]), "exp(1000 * x1): overflow encountered in exp at [1.0]", None),
             # a non-finite coordinate passes every node and fails the result
             (lambda: ex.eval_float(ex.parse("x1"), [np.inf]), "result is not finite at [inf]", None),
             (lambda: ex.eval_float(ex.parse("x1 + 1"), [[0.0, np.inf]]),
              "result is not finite at [inf]", 1),
             (lambda: ex.eval_taylor(ex.parse("x1"), [[0.0], [np.nan]], order=2),
              "result is not finite at [nan]", 1)]
    for evaluate, message, probe in cases:
        with pytest.raises(ex.EvalError) as err:
            evaluate()
        assert (str(err.value), err.value.probe) == (message, probe)


def test_constant_expression_is_broadcast_over_a_batch():
    t = ex.eval_taylor(ex.parse("2 + pi"), np.zeros((4, 3)), order=2)
    assert t.c.shape == (4, t.ctx.ncoef)
    assert np.all(t.value == 2 + math.pi)


M = ex.MAX_DEPTH
# the deepest input of each kind that parse accepts, and one a level deeper
DEEPEST = {"parentheses": ("(" * (M - 1) + "x1" + ")" * (M - 1), "(" * M + "x1" + ")" * M),
           "unary minus": ("-" * (M - 1) + "x1", "-" * M + "x1"),
           "function calls": ("sin(" * (M - 1) + "x1" + ")" * (M - 1),
                              "sin(" * M + "x1" + ")" * M),
           "power chain": ("^".join(["x1"] * M), "^".join(["x1"] * (M + 1))),
           "sum chain": ("+".join(["x1"] * M), "+".join(["x1"] * (M + 1)))}


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(DEEPEST)))
def test_the_deepest_accepted_input_evaluates_and_unparses(kind):
    # every tree walk recurses once a level, so MAX_DEPTH must leave room
    # for the walks under pytest and hypothesis
    source, deeper = DEEPEST[kind]
    e = ex.parse(source)
    value = ex.eval_float(e, [0.5])
    assert np.isfinite(value)
    assert ex.eval_taylor(e, [0.5]).value == pytest.approx(value, rel=1e-12)
    assert ex.eval_taylor(e, np.full((3, 1), 0.5), order=2).c.shape[0] == 3
    assert ex.parse(ex.unparse(e)) == e
    assert ex.max_var(e) == 1
    assert ex.max_var(ex.shift_vars(e, 2)) == 3
    with pytest.raises(ex.ParseError, match=f"nested deeper than {M} levels"):
        ex.parse(deeper)


def test_deep_inputs_are_parse_errors():
    # a chain that parses without recursion, and nesting that the parser
    # refuses before it recurses
    sources = {"+".join(["0*x1"] * 1499 + ["1"]): 0, "-" * 990 + "x1": 200,
               "(" * 250 + "x1" + ")" * 250: 200}
    for source, offset in sources.items():
        with pytest.raises(ex.ParseError) as err:
            ex.parse(source)
        assert err.value.offset == offset
