"""Ring agreement: the float ring and the jet ring evaluate one expression
tree alike.

Random trees over x1..x3 use every operator, function and constant of the
language, at random points of [-2, 2]^3 (subnormals included) or of
[-1e100, 1e100]^3 and jet orders 2, 3 and 4, with no filtering of what the
generator draws:
- when both succeed, the jet's value is == the float result;
- the float ring refuses if and only if the jet ring does, with the same
  text apart from the sign of a printed zero;
- the only exceptions are the jet-only refusals that ``expr`` lists, where
  no jet exists.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigmaflow import expr as ex

JET_ONLY = ("abs has no derivative at",
            "a variable exponent has no derivative at base",
            "a jet coefficient left the double range")

LEAVES = st.one_of(st.integers(1, 3).map(ex.Var),
                   st.sampled_from(sorted(ex.CONSTANTS)).map(ex.Const),
                   st.floats(-4.0, 4.0).map(ex.Num))
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(sub.map(ex.Neg),
                          st.builds(ex.Bin, st.sampled_from("+-*/^"), sub, sub),
                          st.builds(ex.Call, st.sampled_from(ex.FUNCTIONS), sub)),
    max_leaves=8)
COORDS = st.one_of(st.floats(-2.0, 2.0, allow_subnormal=True), st.floats(-1e100, 1e100))
POINTS = st.lists(COORDS, min_size=3, max_size=3)


def outcome(evaluate):
    try:
        return evaluate(), None
    except ex.EvalError as err:
        return None, re.sub(r"-0(?![.\d])", "0", str(err))  # a printed zero's sign


def assert_rings_agree(e, x, order):
    want, float_err = outcome(lambda: ex.eval_float(e, x))
    got, jet_err = outcome(lambda: ex.eval_taylor(e, x, order=order).value)
    case = (ex.unparse(e), x, order)
    if jet_err is not None and any(stated in jet_err for stated in JET_ONLY):
        return  # no jet exists: the float ring may accept or refuse
    assert jet_err == float_err, case
    if float_err is None:
        assert got == want or (math.isnan(got) and math.isnan(want)), (case, got, want)


@settings(derandomize=True, database=None, max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TREES, POINTS, st.sampled_from((2, 3, 4)))
def test_float_and_jet_rings_agree(e, x, order):
    assert_rings_agree(e, x, order)


# a quotient and a power that rounded apart when the jet ring formed a/b as
# a * (1/b) and integer powers by squaring
@pytest.mark.parametrize("src, x", [("x1/x2", [0.3, 0.1]), ("x2/x2", [0.3, 0.18]),
                                     ("x1^3", [0.3]), ("x1^5", [1.3]),
                                     ("10/log((x2/x2)^2)", [0.3, 1e-5])])
def test_quotients_and_powers_agree(src, x):
    for order in (2, 3, 4):
        assert_rings_agree(ex.parse(src), x, order)


def test_a_quotient_of_equal_values_refuses_in_both_rings():
    e = ex.parse("10/log((x2/x2)^2)")
    for order in (2, 3, 4):
        with pytest.raises(ex.EvalError, match=r"division by 0 at \[0.3, 1e-05\]"):
            ex.eval_taylor(e, [0.3, 1e-5], order=order)
    with pytest.raises(ex.EvalError, match=r"division by 0 at \[0.3, 1e-05\]"):
        ex.eval_float(e, [0.3, 1e-5])


@pytest.mark.parametrize("src, x", [("1/x1", [1e-100]), ("x2/x2", [1.0, 5e-216]),
                                     ("sqrt(x1)", [1e-200])])
def test_a_jet_coefficient_out_of_range_is_named(src, x):
    e = ex.parse(src)
    assert math.isfinite(ex.eval_float(e, x))
    with pytest.raises(ex.EvalError, match="a jet coefficient left the double range"):
        ex.eval_taylor(e, x)


# far from 0 every coefficient of 1/v and log v is a double or underflows to
# 0, and a series in w / v forms no power of v or of a large w, so the jet
# ring accepts what the float ring does and agrees on the value
@pytest.mark.parametrize("src, x", [("1/x1", 1e70), ("log(x1)", 1e80), ("x1^-2", 1e100),
                                     ("1/exp(300*x1)", 1.0)])
def test_a_large_value_keeps_its_jet(src, x):
    e = ex.parse(src)
    want = ex.eval_float(e, [x])
    for order in (2, 3, 4):
        assert ex.eval_taylor(e, [x], order=order).value == want, order


# an integral exponent, however large, is an integer in both rings and takes
# any base; the hypothesis trees above draw exponents from [-4, 4] only
@pytest.mark.parametrize("src, x", [("x1^65", -1.01), ("x1^100", -1.1), ("x1^-65", -1.01),
                                     ("x1^1e300", 0.5)])
def test_an_integral_exponent_takes_any_base_in_both_rings(src, x):
    e = ex.parse(src)
    want = ex.eval_float(e, [x])
    for order in (2, 3, 4):
        assert ex.eval_taylor(e, [x], order=order).value == want, order


@pytest.mark.parametrize("src, x", [("x1^1e300", -1.01), ("x1^-1e300", 0.5)])
def test_an_integral_exponent_out_of_range_fails_in_both_rings(src, x):
    e = ex.parse(src)
    with pytest.raises(ex.EvalError, match="overflow"):
        ex.eval_float(e, [x])
    with pytest.raises(ex.EvalError, match="a jet coefficient left the double range"):
        ex.eval_taylor(e, [x])
