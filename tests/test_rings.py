"""Ring agreement: the float ring and the jet ring evaluate one expression
tree alike.

Random trees over x1..x3 use every operator, function and constant of the
language, at random points of [-2, 2]^3 (subnormals included) and jet
orders 2, 3 and 4, with no filtering of what the generator draws:
- on the drawn examples, a float ``EvalError`` implies a jet ``EvalError``
  (``expr`` names a tree where rounding breaks this);
- when both succeed, the jet's value is the float's to 1e-12 relative;
- a failure of the jet ring alone is one of the cases ``expr`` lists.
"""

import math

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
POINTS = st.lists(st.floats(-2.0, 2.0, allow_subnormal=True), min_size=3, max_size=3)


def outcome(evaluate):
    try:
        return evaluate(), None
    except ex.EvalError as err:
        return None, err


@settings(derandomize=True, database=None, max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TREES, POINTS, st.sampled_from((2, 3, 4)))
def test_float_and_jet_rings_agree(e, x, order):
    want, float_err = outcome(lambda: ex.eval_float(e, x))
    got, jet_err = outcome(lambda: ex.eval_taylor(e, x, order=order).value)
    case = (ex.unparse(e), x, order)
    if float_err is not None:
        assert jet_err is not None, case
    elif jet_err is not None:
        assert any(stated in str(jet_err) for stated in JET_ONLY), (case, jet_err)
    else:
        assert math.isclose(got, want, rel_tol=1e-12), (case, got, want)


@pytest.mark.parametrize("src, x", [("1/x1", [1e-100]), ("x2/x2", [1.0, 5e-216]),
                                     ("sqrt(x1)", [1e-200])])
def test_a_jet_coefficient_out_of_range_is_named(src, x):
    e = ex.parse(src)
    assert math.isfinite(ex.eval_float(e, x))
    with pytest.raises(ex.EvalError, match="a jet coefficient left the double range"):
        ex.eval_taylor(e, x)


# far from 0 every coefficient of 1/v and log v is a double or underflows to
# 0, so the jet ring accepts what the float ring does and agrees on the value
@pytest.mark.parametrize("src, x", [("1/x1", 1e70), ("log(x1)", 1e80), ("x1^-2", 1e100)])
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
        assert math.isclose(ex.eval_taylor(e, [x], order=order).value, want, rel_tol=1e-12)


@pytest.mark.parametrize("src, x", [("x1^1e300", -1.01), ("x1^-1e300", 0.5)])
def test_an_integral_exponent_out_of_range_fails_in_both_rings(src, x):
    e = ex.parse(src)
    with pytest.raises(ex.EvalError, match="overflow"):
        ex.eval_float(e, [x])
    with pytest.raises(ex.EvalError, match="a jet coefficient left the double range"):
        ex.eval_taylor(e, [x])
