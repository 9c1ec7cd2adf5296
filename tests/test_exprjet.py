"""Expression parsing and Taylor-jet arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausslab.exprjet import (
    DomainError,
    EvalContext,
    ExpressionError,
    JetValue,
    antiderivative_jet,
    eval_jet,
    extract_partial,
    parse_expression,
    shift_variables,
    to_source,
)

from conftest import central_partial


def jet_of(src, names, point, order=5):
    return eval_jet(parse_expression(src, names), EvalContext(point, order=order))


def test_constants_and_integer_pow():
    assert jet_of("2^10", ("x",), (0.0,)).value == 1024.0
    assert jet_of("pi", ("x",), (0.0,)).value == math.pi
    assert jet_of("e", ("x",), (0.0,)).value == math.e
    # unary minus binds tighter than '^'
    assert jet_of("-x^2", ("x",), (3.0,)).value == 9.0


def test_pow_exponent_must_be_constant():
    with pytest.raises(ExpressionError, match="constant"):
        parse_expression("x^x", ("x",))
    # '^' does not chain
    with pytest.raises(ExpressionError, match="offset 3"):
        parse_expression("x^2^3", ("x",))


@pytest.mark.parametrize("src,offset", [
    ("1 + * 2", 4),
    ("cos(u)*", 7),
    ("cos(q)", 4),
    ("(1+2", 4),
    ("1 2", 2),
])
def test_parse_error_offsets(src, offset):
    with pytest.raises(ExpressionError, match=f"offset {offset}"):
        parse_expression(src, ("u",))


def test_cotangent_jet():
    j = jet_of("cos(x)/sin(x)", ("x",), (math.pi / 4,), order=3)
    assert j.value == pytest.approx(1.0, abs=1e-14)
    # d/dx cot = -csc^2, at pi/4 that is -2
    assert j.partial((1,)) == pytest.approx(-2.0, abs=1e-13)
    assert j.partial((2,)) == pytest.approx(4.0, abs=1e-13)


def test_exp_sin_composition_partials():
    j = jet_of("exp(sin(x))", ("x",), (0.0,))
    assert [j.partial((k,)) for k in range(6)] == pytest.approx(
        [1.0, 1.0, 1.0, 0.0, -3.0, -8.0], abs=1e-12)


def test_quotient_rule():
    j = jet_of("x/(1+x^2)", ("x",), (0.5,), order=2)
    assert j.value == pytest.approx(0.4)
    assert j.partial((1,)) == pytest.approx(0.48)


def test_mixed_partial():
    j = jet_of("exp(u*v)", ("u", "v"), (0.3, 0.7), order=3)
    want = math.exp(0.21) * (1 + 0.21)
    assert j.partial((1, 1)) == pytest.approx(want, rel=1e-13)
    assert extract_partial(j, (1, 1)) == j.partial((1, 1))


@pytest.mark.parametrize("src,msg", [
    ("log(0-1)", "log"),
    ("sqrt(0-x)", "sqrt"),
    ("(0-2)^0.5", "log"),
])
def test_domain_errors(src, msg):
    with pytest.raises(DomainError, match=msg):
        jet_of(src, ("x",), (2.0,), order=2)


@pytest.mark.parametrize("n", range(-4, 8))
def test_integer_power_matches_repeated_products(n):
    x = jet_of("1.3 + sin(u) - 0.5*u*v", ("u", "v"), (0.4, -0.3))
    base = x if n > 0 else 1.0 / x
    expected = base if n != 0 else JetValue.constant(1.0, 2, 5)
    for _ in range(abs(n) - 1):
        expected = expected * base
    got = x.ipow(n)
    assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-13 * np.max(np.abs(expected.coeffs))
    if abs(n) <= 3:  # the same products in the same order
        assert np.array_equal(got.coeffs, expected.coeffs)


def test_integer_power_overflow_is_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        jet_of("x^(0-1e300)", ("x",), (0.5,))
    assert jet_of("x^1e10", ("x",), (0.5,)).value == 0.0


def test_to_source_round_trip():
    src = "u^2*cos(v) - 3/(1 + sin(u*v)) + sqrt(1 + u^2)"
    a1 = parse_expression(src, ("u", "v"))
    a2 = parse_expression(to_source(a1), ("u", "v"))
    p = (0.4, -0.2)
    j1 = eval_jet(a1, EvalContext(p, order=4))
    j2 = eval_jet(a2, EvalContext(p, order=4))
    assert np.array_equal(np.asarray(j1.coeffs), np.asarray(j2.coeffs))


def test_shift_variables_embeds_chart_coordinates():
    a = parse_expression("u*sin(v)", ("u", "v"))
    b = shift_variables(a, 1, ("w", "u", "v"))
    ja = eval_jet(a, EvalContext((0.5, 0.25), order=2))
    jb = eval_jet(b, EvalContext((9.0, 0.5, 0.25), order=2))
    assert jb.value == ja.value
    assert jb.partial((0, 1, 0)) == ja.partial((1, 0))
    assert jb.partial((1, 0, 0)) == 0.0


def test_antiderivative_inverts_derivative():
    F = jet_of("sin(x) + x^3", ("x",), (0.3,), order=5)
    dF = jet_of("cos(x) + 3*x^2", ("x",), (0.3,), order=4)
    G = antiderivative_jet(dF, 0, F.value)
    assert G.order == 5
    assert np.asarray(G.coeffs) == pytest.approx(np.asarray(F.coeffs), abs=1e-14)


def test_antiderivative_shifts_partials_in_two_variables():
    # the integration constant is scalar, so only derivatives that touch the
    # integrated variable are recovered
    dF = jet_of("cos(u)*v + 3*u^2", ("u", "v"), (0.3, 0.8), order=3)
    G = antiderivative_jet(dF, 0, 7.0)
    assert G.value == 7.0
    for alpha in [(1, 0), (2, 0), (1, 1), (1, 2), (3, 0), (2, 1)]:
        shifted = (alpha[0] + 1, alpha[1])
        assert G.partial(shifted) == pytest.approx(dF.partial(alpha), rel=1e-13)


def test_jetvalue_constant_and_variable():
    c = JetValue.constant(5.0, m=2, order=3)
    assert c.value == 5.0 and c.partial((1, 0)) == 0.0
    x = JetValue.variable(0, 2.5, m=2, order=3)
    assert x.value == 2.5 and x.partial((1, 0)) == 1.0 and x.partial((2, 0)) == 0.0
    y = (x * x).truncate(2)
    assert y.order == 2 and y.partial((2, 0)) == pytest.approx(2.0)


_CORPUS = (
    "sin(u)*cos(v) + u^2*v",
    "exp(u - v^2)",
    "sqrt(4 + u^2 + v^2)",
    "u/(2 + cos(v))",
    "log(3 + sin(u*v))",
    "atan(u) + tan(v/2)",
    "cosh(u)*sinh(v) - tanh(u*v)",
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_CORPUS),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.sampled_from([0, 1]),
)
def test_first_partials_match_finite_differences(src, u, v, i):
    ast = parse_expression(src, ("u", "v"))
    j = eval_jet(ast, EvalContext((u, v), order=2))
    alpha = (1, 0) if i == 0 else (0, 1)

    def value_at(p):
        return eval_jet(ast, EvalContext(tuple(p), order=0)).value

    fd = central_partial(value_at, (u, v), i)
    assert j.partial(alpha) == pytest.approx(fd, rel=1e-6, abs=1e-8)
