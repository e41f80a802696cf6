"""Parser and evaluator tests, including round-trip and fuzz properties.

Single points are evaluated as one-point arrays: ``evaluate_array`` is the
one evaluator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splayer.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    EvaluationError,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnknownIdentifierError,
    Var,
    evaluate_array,
    parse,
    unparse,
)


def at(expression, x: float) -> float:
    """Value of ``expression`` at one point."""
    return float(evaluate_array(expression, np.array([x]))[0])


def test_example_source_terms():
    assert at(parse("-(14*x+1)"), 0.5) == -8.0
    assert at(parse("2+x^2"), 1.0) == 3.0
    assert at(parse("2-2*x"), 1.0) == 0.0


def test_identity_and_constants():
    assert at(parse("x"), 0.25) == 0.25
    assert at(parse("pi"), 0.0) == math.pi
    assert at(parse("e"), 0.0) == math.e


def test_power_right_associative():
    assert at(parse("2^3^2"), 0.0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert at(parse("-2^2"), 0.0) == -4.0
    assert at(parse("2^-2"), 0.0) == 0.25


def test_precedence_and_whitespace():
    assert at(parse(" 1 + 2*3 ^ 2 "), 0.0) == 19.0
    assert at(parse("(1+2)*3"), 0.0) == 9.0
    assert at(parse("4/2/2"), 0.0) == 1.0  # left associative
    assert at(parse("1-2-3"), 0.0) == -4.0


def test_functions():
    assert at(parse("sin(0)"), 0.0) == 0.0
    assert at(parse("exp(log(2))"), 0.0) == pytest.approx(2.0, rel=1e-15)
    assert at(parse("abs(-3)"), 0.0) == 3.0
    assert at(parse("sqrt(x)"), 4.0) == 2.0


def test_domain_violation_reports_x():
    with pytest.raises(EvaluationError) as err:
        at(parse("sqrt(x)"), -1.0)
    assert err.value.x == -1.0


def test_division_by_zero_is_evaluation_error():
    with pytest.raises(EvaluationError):
        at(parse("1/x"), 0.0)


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(1+2")
    assert err.value.offset == 4


def test_no_implicit_multiplication():
    with pytest.raises(ExpressionSyntaxError):
        parse("2x")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("y + 1")
    with pytest.raises(ExpressionSyntaxError):
        parse("sin + 1")  # function without parentheses


def test_unexpected_character():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("1 @ 2")
    assert err.value.offset == 2


def test_evaluate_array_matches_scalar():
    # a whole-array evaluation equals the one-point evaluations bit for bit
    for source in ("sin(x) + x^2", "-(14*x+1)", "exp(-abs(x)/0.001)", "2+x^2", "4"):
        expr = parse(source)
        xs = np.linspace(-2.0, 2.0, 17)
        per_point = np.array([at(expr, x) for x in xs])
        assert evaluate_array(expr, xs).tobytes() == per_point.tobytes(), source


def test_evaluate_array_reports_first_bad_point():
    with pytest.raises(EvaluationError) as err:
        evaluate_array(parse("sqrt(x)"), np.array([1.0, 4.0, -9.0]))
    assert err.value.x == -9.0


# map(abs) keeps -0.0 out: its repr would reparse as a negation node
_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(abs)),
    st.just(Var()),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
    ),
    max_leaves=20,
)


@given(tree=_trees)
@settings(max_examples=300, deadline=None)
def test_unparse_parse_round_trip(tree):
    assert parse(unparse(tree)) == tree


@given(tree=_trees)
@settings(max_examples=150, deadline=None)
def test_extra_parentheses_are_neutral(tree):
    source = unparse(tree)
    assert parse(f"({source})") == parse(source)


@given(tree=_trees, x=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_fuzz_evaluation_never_crashes(tree, x):
    try:
        value = at(tree, x)
    except EvaluationError:
        return
    assert math.isfinite(value)
