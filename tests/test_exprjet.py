"""Expression parsing and Taylor-jet arithmetic."""

import ast
import gc
import inspect
import itertools
import math
import types
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import gausslab.exprjet as exprjet
from gausslab.exprjet import (
    BinOp,
    Call,
    DomainError,
    FUNCTIONS,
    EvalContext,
    ExpressionError,
    JetProgram,
    JetValue,
    Neg,
    Pow,
    Var,
    _TABLES,
    _contract_slots,
    _deriv_tables,
    _exponents,
    _int32,
    _mul_tables,
    _pair_slots,
    _scale_of,
    _series,
    _subtrees,
    antiderivative_jet,
    contract,
    eval_jet,
    Num,
    parse_expression,
    shift_variables,
)
from gausslab.geometry import _sum, chart_from_strings

from conftest import central_partial
from test_cli import CONFIGS, _NUMBERS, _balanced


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


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_every_function_folds_in_a_constant_exponent(fn):
    # `math` has no cot, so the fold must not look it up there
    want = 1.0 / math.tan(0.5) if fn == "cot" else getattr(math, fn)(0.5)
    assert parse_expression(f"x^{fn}(0.5)", ("x",)).exponent == pytest.approx(want, rel=1e-15)


# constants as the parser reads them and as hand-made sub-trees that bypass it
_CONSTANTS = [(f"{fn}(0.5)", Call(fn, Num(0.5))) for fn in FUNCTIONS] + [
    ("1/3", BinOp("/", Num(1.0), Num(3.0))),
    ("2^3", Pow(Num(2.0), 3.0)),
    ("2^0.5", Pow(Num(2.0), 0.5)),
    ("-(1/7)", Neg(BinOp("/", Num(1.0), Num(7.0)))),
    ("(1/3)^(1/3)", Pow(BinOp("/", Num(1.0), Num(3.0)), 1 / 3)),
]


def test_parsing_folds_each_constant_node_with_one_operation(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("parsing compiled a JetProgram")

    monkeypatch.setattr(JetProgram, "__init__", refuse)
    operations = _counted(monkeypatch, exprjet, "_operation")
    tree = parse_expression("(cos(u1)*sin(u2))*sqrt(1/3)", ("u1", "u2"))
    # one operation per folded node: 1/3, then sqrt of it
    assert len(operations) == 2
    assert tree == BinOp("*", BinOp("*", Call("cos", Var(0, "u1")), Call("sin", Var(1, "u2"))),
                         Num(math.sqrt(1 / 3)))


@pytest.mark.parametrize("src, tree", _CONSTANTS, ids=[src for src, _ in _CONSTANTS])
def test_a_folded_constant_keeps_the_bits_of_its_jet(src, tree):
    # the parser folds a constant with the jet operations a point runs on
    # it, so the constant keeps its bits, and every coefficient of a jet
    # that reads it its value
    folded = parse_expression(f"({src})*u", ("u",))
    assert isinstance(folded.left, Num) and folded.right == Var(0, "u")
    assert folded.left.value.hex() == JetProgram((tree,), 1)((0.5,), 5)[0].value.hex()
    unfolded = BinOp("*", tree, Var(0, "u"))
    for point in ((0.5,), (np.array([0.5, -0.25, 1.5]),)):
        got, want = (JetProgram((root,), 1)(point, 5)[0].coeffs for root in (folded, unfolded))
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("src, offset", [
    ("2\u00b2*u", 1),  # superscript two: str.isdigit, but float() rejects it
    ("\u0663*u", 0),   # Arabic-Indic three: a decimal digit of another script
])
def test_number_tokens_take_ascii_digits_only(src, offset):
    with pytest.raises(ExpressionError, match="unexpected character") as info:
        parse_expression(src, ("u",))
    assert info.value.offset == offset


@pytest.mark.parametrize("src, offset", [
    ("(" * 3000 + "u" + ")" * 3000, 100),  # parser nesting
    ("-" * 5000 + "u", 100),               # parser nesting
    ("+".join(["u"] * 20000), 0),          # AST depth of a left-deep sum
])
def test_parse_rejects_expressions_nested_deeper_than_100(src, offset):
    with pytest.raises(ExpressionError, match=rf"deeper than 100 levels \(at offset {offset}\)"):
        parse_expression(src, ("u",))


def test_a_deep_constant_exponent_folds_as_it_is_parsed():
    # each sum folds as the parser builds it, so the exponent never nests
    assert parse_expression("u^(" + "+".join(["1"] * 300) + ")", ("u",)) == \
        Pow(Var(0, "u"), 300.0)
    with pytest.raises(ExpressionError, match=r"exponent must be a finite constant \(at offset 2\)"):
        parse_expression("u^(" + "+".join(["u"] * 300) + ")", ("u",))


def test_parse_accepts_nesting_up_to_100():
    assert jet_of("-" * 99 + "u", ("u",), (0.5,)).value == -0.5  # AST depth 100
    assert jet_of("(" * 99 + "u" + ")" * 99, ("u",), (0.5,)).value == 0.5
    assert jet_of("+".join(["u"] * 100), ("u",), (0.5,)).value == 50.0
    with pytest.raises(ExpressionError, match="deeper than 100"):
        parse_expression("+".join(["u"] * 101), ("u",))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("src, same", [
    ("log(1e-62*u)", "log(u) + log(1e-62)"),
    ("1/(1e-80*u)", "1e80*(1/u)"),
    ("sqrt(1e-70*u)", "sqrt(1e-70)*sqrt(u)"),
])
@pytest.mark.parametrize("point", [(0.5,), (np.array([0.5, 0.7, 1.9]),)], ids=["point", "batch"])
def test_composition_with_a_tiny_argument_stays_finite(src, same, point):
    # the series of log, 1/x and sqrt at 5e-63 (5e-81, 5e-71) overflow past
    # their fourth term; scaled to the argument's size they do not
    got = eval_jet(parse_expression(src, ("u",)), EvalContext(point, order=5)).coeffs
    want = eval_jet(parse_expression(same, ("u",)), EvalContext(point, order=5)).coeffs
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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


def test_antiderivative_then_derivative_returns_the_input():
    rng = np.random.default_rng(3)
    dF = JetValue(3, 4, rng.uniform(-1.0, 1.0, len(_exponents(3, 4)[0])))
    for var in range(3):
        back = antiderivative_jet(dF, var, 0.5).derivative(var)
        assert back.order == 4
        assert np.max(np.abs(back.coeffs - dF.coeffs)) <= 1e-15 * np.max(np.abs(dF.coeffs))


# ---------------------------------------------------------------------------
# multi-index tables against a brute-force reference


def _reference_tables(m, order):
    """The exponents sorted by (degree, tuple), and the product and
    derivative tables by dictionary lookup."""
    exps = sorted((a for a in itertools.product(range(order + 1), repeat=m)
                   if sum(a) <= order), key=lambda a: (sum(a), a))
    pos = {a: i for i, a in enumerate(exps)}
    pairs = [(i, j, pos[tuple(x + y for x, y in zip(a, b))])
             for i, a in enumerate(exps) for j, b in enumerate(exps)
             if sum(a) + sum(b) <= order]
    derivs = []
    for var in range(m):
        lowered = [b for b in exps if sum(b) < order]
        derivs.append(([pos[b[:var] + (b[var] + 1,) + b[var + 1:]] for b in lowered],
                       [float(b[var] + 1) for b in lowered]))
    return exps, pairs, derivs


def _assert_identical(got, want, dtype):
    assert got.dtype == dtype and got.tolist() == want


_PAIR_DTYPES = (np.int32, np.int32, np.intp)  # li, lj, lo of `_mul_tables`


@pytest.mark.parametrize("m", range(1, 7))
def test_tables_equal_the_brute_force_reference(m):
    for order in range(6):
        exps, pairs, derivs = _reference_tables(m, order)
        assert [tuple(row) for row in _exponents(m, order)[0].tolist()] == exps
        for got, want, dtype in zip(_mul_tables(m, order, -1, -1), zip(*pairs), _PAIR_DTYPES):
            _assert_identical(got, list(want), dtype)
        src, fac = _deriv_tables(m, order)
        for var in range(m if order else 0):
            _assert_identical(src[:, var], derivs[var][0], np.intp)
            _assert_identical(fac[:, var], derivs[var][1], np.float64)


def test_slot_tables_are_int32_and_narrowing_refuses_to_wrap():
    assert _pair_slots(3, 4, -1, -1, 5).dtype == np.int32
    assert _contract_slots(3, 4, True, 2, 3, 1)[1].dtype == np.int32
    assert _contract_slots(3, 4, False, 1, 2, 2)[1].dtype == np.int32
    top = np.array([0, 2 ** 31 - 1])
    narrowed = _int32(top)
    assert narrowed.dtype == np.int32 and narrowed.tolist() == top.tolist()
    with pytest.raises(OverflowError, match="int32"):
        _int32(np.array([0, 2 ** 31]))
    assert _int32(np.array([], dtype=np.intp)).dtype == np.int32


def test_order5_tables_at_dimension_12():
    exps = _exponents(12, 5)[0]
    li, lj, lo = _mul_tables(12, 5, -1, -1)
    assert len(li) == math.comb(29, 5) == 118755
    assert np.array_equal(exps[lo], exps[li] + exps[lj])


def test_tables_past_the_key_bound_raise_overflow():
    # keys are numbers in base order + 1: 2^62 and 6^24 fit in 2^63 - 1,
    # 2^63 and 6^25 do not
    assert len(_exponents(62, 1)[0]) == 63
    with pytest.raises(OverflowError, match="dimension 63 at order 1"):
        _exponents(63, 1)
    with pytest.raises(OverflowError, match="dimension 25 at order 5"):
        _mul_tables(25, 5, -1, -1)


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


# ---------------------------------------------------------------------------
# tensor-valued jets


def _tensor_jet(shape, rng, m=3, order=3, points=None):
    """A jet with random coefficients, tensor axes `shape` and optionally a
    batch of `points` base points."""
    n = len(_exponents(m, order)[0])
    tail = (points,) if points else ()
    return JetValue(m, order, rng.uniform(-1.0, 1.0, (n,) + shape + tail), len(shape))


def _assert_relative(got, want, rtol=1e-14):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("points", [None, 5])
def test_contraction_matches_sums_of_scalar_products(points):
    rng = np.random.default_rng(11)
    T = _tensor_jet((3, 4), rng, points=points)  # [i, a]
    A = _tensor_jet((3, 3), rng, order=2, points=points)
    v = rng.uniform(-1.0, 1.0, (4, points) if points else (4,))
    g = contract("ia,ja->ij", T, T)
    AT = contract("il,la->ia", A, T)
    norm_sq = contract("ij,ji->", A, A)
    Tv = contract("ia,a->i", T, v)
    outer = contract("i,ja->ija", Tv, T)  # no summed axis
    assert (g.rank, AT.rank, norm_sq.rank, Tv.rank) == (2, 2, 0, 1)
    assert AT.order == 2
    for i in range(3):
        for j in range(3):
            _assert_relative(g[i][j].coeffs, _sum([T[i][a] * T[j][a] for a in range(4)]).coeffs)
        for a in range(4):
            _assert_relative(AT[i][a].coeffs, _sum([A[i][l] * T[l][a] for l in range(3)]).coeffs)
        _assert_relative(Tv[i].coeffs, _sum([T[i][a] * v[a] for a in range(4)]).coeffs)
        for j in range(3):
            for a in range(4):
                assert np.array_equal(outer[i][j][a].coeffs, (Tv[i] * T[j][a]).coeffs)
    _assert_relative(norm_sq.coeffs, _sum([A[i][j] * A[j][i]
                                           for i in range(3) for j in range(3)]).coeffs)


def _per_pass_contract(spec, a, b):
    """The contraction kernel `contract` replaced, kept as the reference:
    one pass per index of the first summed axis, each gathering the
    coefficient pairs of `_mul_tables` and forming their outer product with
    einsum, and the terms added left to right in row-major order over the
    summed axes, as a sum of scalar jet products written out would be."""
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    summed = "".join(dict.fromkeys(c for c in sa + sb if c not in out))
    first, rest = summed[:1], summed[1:]
    jet = isinstance(b, JetValue)
    k = min(a.order, b.order) if jet else a.order
    n = math.comb(a.m + k, a.m)
    x, y = a.coeffs[:n], (b.coeffs[:n] if jet else np.asarray(b))
    cuts = [(c, start + s.index(first) if first and first in s else None)
            for c, s, start in ((x, sa, 1), (y, sb, 1 if jet else 0))]
    count = next((c.shape[axis] for c, axis in cuts if axis is not None), 1)
    product = (f"Z{sa.replace(first, '')}...,{'Z' if jet else ''}{sb.replace(first, '')}..."
               f"->Z{out}{rest}...")
    li, lj, lo = _mul_tables(a.m, k, -1, -1)
    lead = 1 + len(out)
    total = None
    for index in range(count):
        xs, ys = (c if axis is None else c.take(index, axis=axis) for c, axis in cuts)
        if jet:
            pairs = np.einsum(product, xs.take(li, axis=0), ys.take(lj, axis=0))
            size = pairs.size // len(lo)
            slots = (lo[:, None] * size + np.arange(size)).ravel()
            terms = np.bincount(slots, weights=pairs.ravel(), minlength=n * size)
            terms = terms.reshape((n,) + pairs.shape[1:])
        else:
            terms = np.einsum(product, xs, ys)
        terms = terms.reshape(terms.shape[:lead] + (-1,) + terms.shape[lead + len(rest):])
        for r in range(terms.shape[lead]):
            term = terms[(slice(None),) * lead + (r,)]
            total = term if total is None else total + term
    return total


def _assert_within_sum_bound(spec, a, b):
    """contract(spec, a, b) against the per-pass reference, entry by entry,
    to within 2 gamma_N times the same contraction of |a| and |b|, where N
    is the most terms one output entry sums (coefficient pairs times summed
    entries) and gamma_N = N eps / (1 - N eps) bounds the forward error of
    any order of summing N products (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.1). Both kernels meet that bound
    against the exact sum, so they differ by at most twice it."""
    def magnitude(c):
        if isinstance(c, JetValue):
            return JetValue(c.m, c.order, np.abs(c.coeffs), c.rank)
        return np.abs(c)

    got = contract(spec, a, b)
    want = _per_pass_contract(spec, a, b)
    scale = _per_pass_contract(spec, magnitude(a), magnitude(b))
    operands, out = spec.split("->")
    summed = {c for c in operands if c not in out and c != ","}
    sizes = dict(zip(operands.split(",")[0], a.coeffs.shape[1:]))
    pairs = np.bincount(_mul_tables(a.m, got.order, -1, -1)[2]).max() if isinstance(b, JetValue) else 1
    n = int(pairs * math.prod(sizes[c] for c in summed))
    eps = np.finfo(float).eps
    gamma = n * eps / (1 - n * eps)
    assert got.coeffs.shape == want.shape
    assert np.all(np.abs(got.coeffs - want) <= 2 * gamma * scale)


@pytest.mark.parametrize("points", [None, 4])
def test_contraction_is_within_the_sum_bound_of_the_per_pass_kernel(points):
    # two summed axes: the per-pass kernel takes a pass per index of a, and
    # the terms of b inside it, as the scalar products below add them
    rng = np.random.default_rng(15)
    A = _tensor_jet((3, 4, 2), rng, points=points)
    B = _tensor_jet((4, 2, 3), rng, points=points)
    want = _per_pass_contract("iab,abj->ij", A, B)
    for i in range(3):
        for j in range(3):
            terms = [A[i][a][b] * B[a][b][j] for a in range(4) for b in range(2)]
            assert np.array_equal(want[:, i, j], _sum(terms).coeffs)
    _assert_within_sum_bound("iab,abj->ij", A, B)


# every spec geometry.py contracts (and "ij,ji->", which |A|^2 was), and a
# length for each of its letters
_GEOMETRY_SPECS = ["ia,ja->ij", "lj,il->ij", "il,lj->ij", "ij,j->i", "ia,a->i",
                   "ia,i->a", "kl,lij->kij", "a,a->", "pa,a->p", "ij,ji->", "il,li->"]
_AXIS_SIZES = {"i": 3, "j": 2, "k": 2, "l": 3, "a": 4, "p": 3}


@pytest.mark.parametrize("order, m", [(3, m) for m in range(1, 13)]
                         + [(5, m) for m in range(1, 8)])
@pytest.mark.parametrize("points", [None, 3])
def test_contraction_kernel_against_the_per_pass_reference(order, m, points):
    rng = np.random.default_rng(100 * order + m)
    for spec in _GEOMETRY_SPECS:
        shape_a, shape_b = (tuple(_AXIS_SIZES[c] for c in s)
                            for s in spec.split("->")[0].split(","))
        A = _tensor_jet(shape_a, rng, m=m, order=order, points=points)
        B = _tensor_jet(shape_b, rng, m=m, order=order, points=points)
        _assert_within_sum_bound(spec, A, B)
        if points:  # a one-point jet acts as a constant across the batch
            _assert_within_sum_bound(spec, A, _tensor_jet(shape_b, rng, m=m, order=order))
        # a constant second operand, one value per point over a batch
        tail = (points,) if points else ()
        _assert_within_sum_bound(spec, A, rng.uniform(-1.0, 1.0, shape_b + tail))


@pytest.mark.parametrize("m, order", [(1, 3), (3, 3), (4, 5), (12, 3)])
@pytest.mark.parametrize("points", [None, 3])
def test_contraction_skips_the_zero_rows_below_the_lowest_degrees_bit_for_bit(m, order, points):
    # rows below a jet's lowest degree are not read: where they are exactly
    # zero, skipping them leaves every sum of the full product as it was
    rng = np.random.default_rng(10 * m + order)
    below = [math.comb(m + d - 1, m) if d else 0 for d in range(order + 2)]
    for low_a, low_b in [(1, 1), (2, 1), (1, 2), (3, 0), (0, 2), (order, 1), (order + 1, 0)]:
        A = _tensor_jet((3, 2), rng, m=m, order=order, points=points)
        B = _tensor_jet((2, 3), rng, m=m, order=order, points=points)
        A.coeffs[:below[low_a]] = 0.0
        B.coeffs[:below[low_b]] = 0.0
        for spec in ("il,lj->ij", "ij,ji->", "il,lj->ji"):
            full = contract(spec, A, B)
            A.lowest, B.lowest = low_a, low_b
            skipped = contract(spec, A, B)
            A.lowest = B.lowest = 0
            assert skipped.lowest == low_a + low_b
            assert skipped.coeffs.shape == full.coeffs.shape
            assert skipped.coeffs.tobytes() == full.coeffs.tobytes()
        # a constant operand is one block, which no lowest degree cuts
        v = rng.uniform(-1.0, 1.0, (2, points) if points else (2,))
        A.lowest = low_a
        assert contract("il,l->i", A, v).coeffs.tobytes() == contract(
            "il,l->i", JetValue(m, order, A.coeffs, 2), v).coeffs.tobytes()


@pytest.mark.parametrize("points", [None, 3])
def test_contractions_reuse_their_workspaces_and_return_none_of_them(points):
    # each spec twice at the same shapes: the second call finds every buffer
    # it needs and allocates none, and neither result is a view of one
    rng = np.random.default_rng(31)
    for spec in _GEOMETRY_SPECS:
        shape_a, shape_b = (tuple(_AXIS_SIZES[c] for c in s)
                            for s in spec.split("->")[0].split(","))
        A = _tensor_jet(shape_a, rng, m=4, order=3, points=points)
        B = _tensor_jet(shape_b, rng, m=4, order=3, points=points)
        first = contract(spec, A, B)
        held = dict(vars(exprjet._WORKSPACES))
        second = contract(spec, A, B)
        now = vars(exprjet._WORKSPACES)
        assert now.keys() == held.keys() and all(now[r] is buf for r, buf in held.items())
        assert "terms" in held
        assert first.coeffs.tobytes() == second.coeffs.tobytes()
        for buf in held.values():
            assert not np.shares_memory(first.coeffs, buf)
            assert not np.shares_memory(second.coeffs, buf)
    # the operands of these specs need a laid-out copy, so both roles are held
    assert {"a", "b"} <= set(held)


def test_batched_contraction_matches_its_columns():
    rng = np.random.default_rng(12)
    T = _tensor_jet((3, 4), rng, points=6)
    g = contract("ia,ja->ij", T, T)
    for c in range(6):
        column = JetValue(T.m, T.order, T.coeffs[..., c].copy(), 2)
        assert np.array_equal(g.coeffs[..., c], contract("ia,ja->ij", column, column).coeffs)


def test_entrywise_products_broadcast_tensor_axes():
    rng = np.random.default_rng(13)
    X = _tensor_jet((4,), rng, points=3)
    s = _tensor_jet((), rng, order=2)  # one point: a constant across the batch
    prod = X * s
    assert prod.rank == 1 and prod.order == 2 and prod.coeffs.shape[1:] == (4, 3)
    for a in range(4):
        for c in range(3):
            column = JetValue(X.m, X.order, X.coeffs[:, a, c].copy())
            assert np.array_equal(prod[a].coeffs[:, c], (column * s).coeffs)


def test_tensor_jet_indexing_and_iteration():
    rng = np.random.default_rng(14)
    A = _tensor_jet((2, 3), rng)
    row = A[1]
    assert row.rank == 1 and len(row) == 3 and np.array_equal(row.coeffs, A.coeffs[:, 1])
    entry = A[1][2]
    assert entry.rank == 0 and isinstance(entry.value, float)
    assert entry.value == A.coeffs[0, 1, 2]
    rows = list(A)
    assert len(rows) == len(A) == 2 and [r.rank for r in rows] == [1, 1]
    assert [e.value for e in A[0]] == list(A.coeffs[0, 0])
    with pytest.raises(IndexError):
        A[2]
    with pytest.raises(TypeError):
        entry[0]
    with pytest.raises(TypeError):
        len(entry)
    # over a batch the point axis stays last
    B = _tensor_jet((2, 3), rng, points=4)
    assert B[1].value.shape == (3, 4) and B[1][2].value.shape == (4,)
    assert len(list(B)) == 2


def test_gradient_stacks_the_partial_derivatives():
    jet = jet_of("sin(u)*v^2 + u*w", ("u", "v", "w"), (0.3, -0.7, 1.1), order=4)
    grad = jet.gradient()
    assert grad.rank == 1 and grad.order == 3
    for var in range(3):
        assert np.array_equal(grad[var].coeffs, jet.derivative(var).coeffs)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("points", [None, 3])
def test_gradient_at_each_order_is_the_truncated_derivatives_bit_for_bit(m, points):
    rng = np.random.default_rng(m)
    for shape in ((), (2,)):
        jet = _tensor_jet(shape, rng, m=m, order=5, points=points)
        for k in range(jet.order):
            grad = jet.gradient(k)
            want = np.stack([jet.derivative(i).truncate(k).coeffs for i in range(m)], axis=1)
            assert grad.order == k and grad.rank == len(shape) + 1
            assert grad.coeffs.shape == want.shape and grad.coeffs.tobytes() == want.tobytes()
        assert jet.gradient().coeffs.tobytes() == jet.gradient(4).coeffs.tobytes()
        with pytest.raises(ValueError, match="no gradient at order 5"):
            jet.gradient(5)


# ---------------------------------------------------------------------------
# composition against the full-order Horner loop


def _full_order_horner(jet, series):
    """Horner's rule with every step at the jet's full order: the reference
    that the order-graded composition must reproduce bit for bit."""
    w = JetValue(jet.m, jet.order, jet.coeffs.copy(), jet.rank)
    w.coeffs[0] = 0.0
    result = JetValue.constant(series[-1], jet.m, jet.order, jet.rank)
    for a in reversed(series[:-1]):
        result = result * w + a
    return result


def _reciprocal_series(c, order):
    series = [1.0 / c]
    for _ in range(order):
        series.append(-series[-1] / c)
    return series


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape, points", [((), None), ((), 4), ((3,), None), ((3,), 2)])
def test_composition_equals_the_full_order_horner_loop(m, order, shape, points):
    rng = np.random.default_rng(100 * m + 10 * order + len(shape))
    n = len(_exponents(m, order)[0])
    tail = (points,) if points else ()
    coeffs = rng.uniform(-1.0, 1.0, (n,) + shape + tail)
    # base values inside the domain of every function, asin and acos included
    coeffs[0] = rng.uniform(0.1, 0.9, shape + tail)
    jet = JetValue(m, order, coeffs.copy(), len(shape))
    for fn in FUNCTIONS:
        want = _full_order_horner(jet, _series(fn, jet.value, order))
        assert np.array_equal(jet.compose(fn).coeffs, want.coeffs), fn
    want = _full_order_horner(jet, _reciprocal_series(jet.value, order)) * 1.0
    assert np.array_equal((1.0 / jet).coeffs, want.coeffs)
    assert np.array_equal(jet.coeffs, coeffs)  # the operand is not written


def _counted(monkeypatch, owner, name):
    """Patch `owner.name` with a wrapper that counts its calls."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


def _reachable(obj):
    """Every object reachable from `obj` through containers, slots and
    bound arguments, but not through functions, classes or modules."""
    seen, stack = {}, [obj]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_program_evaluates_each_equal_sub_tree_once(monkeypatch):
    names = ("u", "v")
    roots = [parse_expression(src, names)
             for src in ("cos(u)*sin(v) + cos(u)", "cos(u)*sin(v)", "u*u")]
    # one instruction per class: cos(u), sin(v), their product, its sum with
    # cos(u), u and u*u, where walking each root alone would make 11
    program = JetProgram(roots, 2)
    assert len(program.steps) == 6
    # past the point's two slots, three: sin(v) frees its slot at the
    # product, cos(u) at the sum and u at u*u
    assert program.size == 2 + 3
    on_variable = _counted(monkeypatch, exprjet, "_on_variable")
    seeds = _counted(monkeypatch, JetValue, "variable")
    products = _counted(monkeypatch, JetValue, "__mul__")
    jets = program((0.3, -0.7), 3)
    # cos(u)*sin(v), cos(u) and u each evaluated once
    assert (len(on_variable), len(products), len(seeds)) == (2, 2, 1)
    monkeypatch.undo()
    for root, jet in zip(roots, jets):
        assert np.array_equal(jet.coeffs, eval_jet(root, EvalContext((0.3, -0.7), 3)).coeffs)
    # a number is known by its hex form: 0.0 and -0.0 are two slots
    zeros = JetProgram([Num(0.0), Num(-0.0)], 1)
    assert len(zeros.steps) == 2 and len(set(zeros.outputs)) == 2
    assert [math.copysign(1.0, jet.value) for jet in zeros((0.5,), 2)] == [1.0, -1.0]
    same = JetProgram([Num(0.0), Num(0.0)], 1)
    assert len(same.steps) == 1 and len(set(same.outputs)) == 1


def test_a_chart_compiles_once_and_keeps_no_jet(monkeypatch):
    chart = chart_from_strings("twin", ("u", "v"),
                               ["cos(u)*sin(v)", "cos(u)*sin(v)", "sin(v)*cos(u)+cos(u)"],
                               [(-1.0, 1.0), (-1.0, 1.0)])
    compiles = _counted(monkeypatch, JetProgram, "__init__")
    bindings = _counted(monkeypatch, exprjet, "_operation")
    point = (0.25, -0.5)
    first = chart.component_jets(point, 5)
    # the chart compiles once, and binds its five instructions once per order
    assert (len(compiles), len(bindings)) == (1, 5)
    second = chart.component_jets(point, 5)
    assert (len(compiles), len(bindings)) == (1, 5)
    chart.component_jets(point, 2)
    chart.component_jets(point, 2)
    assert (len(compiles), len(bindings)) == (1, 10)
    # the two calls share no memory, and neither shares any with what the
    # program keeps
    kept = _reachable(chart._program)
    assert not any(isinstance(obj, JetValue) for obj in kept)
    arrays = [obj for obj in kept if isinstance(obj, np.ndarray)]
    for jet in first + second:
        assert not any(np.shares_memory(jet.coeffs, array) for array in arrays)
    assert not any(np.shares_memory(a.coeffs, b.coeffs) for a in first for b in second)
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(first, second))


# a function of a coordinate binds one operation per (function, coordinate,
# m, order), with the rows of the coordinate's powers: charts share it
def test_charts_share_the_operation_of_a_coordinate_function():
    charts = [chart_from_strings(name, ("u", "v"), components, [(-1.0, 1.0), (-1.0, 1.0)])
              for name, components in (("a", ["u", "v", "sin(v)"]),
                                       ("b", ["cos(u)", "v", "u*sin(v)"]))]
    for chart in charts:
        chart.component_jets((0.25, -0.5), 3)
    sin_v = [[op for op in chart._program.operations[3] if getattr(op, "fn", None) == "sin"]
             for chart in charts]
    assert len(sin_v[0]) == len(sin_v[1]) == 1
    assert sin_v[0][0] is sin_v[1][0]
    assert [_exponents(2, 3)[0][row].tolist() for row in sin_v[0][0].rows] == [
        [0, k] for k in range(4)]


def _catalog_chart(label):
    from gausslab.cli import build_chart, load_config
    from gausslab.hypercone import (build_cone_chart, clifford_link_chart, clifford_link_solver,
                                    sphere_link_chart, sphere_link_solver)

    if label.endswith(".json"):
        return build_chart(load_config(str(CONFIGS / label))[1])
    if label == "clifford_link_chart(1, 3)":
        return clifford_link_chart(1, 3, clifford_link_solver(4, 1)[0].r1_sq)
    if label == "sphere_link_chart(12)":
        return sphere_link_chart(12, sphere_link_solver(12).a_sq_exact)
    m = int(label[-1])  # a cone over S^m
    return build_cone_chart(sphere_link_chart(m, sphere_link_solver(m).a_sq_exact))


# the radii sqrt(p/q) and sqrt(1 - r^2) of the links fold at parse time, so
# no step of a catalog program computes a constant
@pytest.mark.parametrize("label, steps", [
    ("cone over S^3", 22), ("cone over S^6", 50), ("clifford_link_chart(1, 3)", 21),
    ("sphere_link_chart(12)", 116), ("cone_S3.json", 22), ("sphere_link_S3.json", 16),
    ("torus_link.json", 10), ("sphere_S2.json", 6)])
def test_catalog_programs_run_no_constant_step(label, steps):
    program = _catalog_chart(label)._program
    assert [node for node, _, _ in program.steps
            if _subtrees(node) and all(isinstance(sub, Num) for sub in _subtrees(node))] == []
    assert len(program.steps) == steps


# ---------------------------------------------------------------------------
# support masks: products skip only the pairs with an exactly zero factor


def _rows_of(m, order, support):
    """Which rows of the layout have no exponent outside the mask, read one
    multi-index at a time."""
    return np.array([all(e == 0 or support >> i & 1 for i, e in enumerate(alpha))
                     for alpha in _exponents(m, order)[0].tolist()], dtype=bool)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_filtered_tables_are_the_dense_table_filtered_by_support(m):
    for order in range(6):
        dense = _mul_tables(m, order, -1, -1)
        rows = [_rows_of(m, order, v) for v in range(1 << m)]
        for va, vb in itertools.product(range(1 << m), repeat=2):
            keep = rows[va][dense[0]] & rows[vb][dense[1]]
            for got, want, dtype in zip(_mul_tables(m, order, va, vb), dense, _PAIR_DTYPES):
                _assert_identical(got, want[keep].tolist(), dtype)
        # masks of every variable key the dense table itself
        assert _mul_tables(m, order, -1, -1) is dense


def test_products_of_full_support_read_the_dense_table(monkeypatch):
    import gausslab.exprjet as exprjet

    calls = []
    tables = exprjet._mul_tables
    monkeypatch.setattr(exprjet, "_mul_tables", lambda *args: calls.append(args) or tables(*args))
    x, y, z = (JetValue.variable(i, 0.5, 3, 4) for i in range(3))
    (x + y + z) * (x * y * z)  # both operands reach every variable
    assert calls[-1] == (3, 4, -1, -1)


def test_support_follows_the_operations():
    m, order = 4, 3
    x = [JetValue.variable(i, 0.3 + 0.1 * i, m, order) for i in range(m)]
    c = JetValue.constant(2.0, m, order)
    assert c.support == 0 and [v.support for v in x] == [1, 2, 4, 8]
    assert (x[0] + x[2]).support == (x[0] - x[2]).support == 0b101
    assert (x[1] * x[3]).support == (x[1] / x[3]).support == 0b1010
    assert (x[1] * c + 1.0).support == (-x[1] / 2.0).support == 0b10
    assert (c * c).support == c.compose("exp").support == (1.0 / c).support == 0
    y = (x[0] * x[1]).compose("sin").ipow(3)
    assert y.support == y.derivative(2).support == y.truncate(1).support == 0b11
    assert JetValue(m, order, y.coeffs).support == -1  # any other construction
    assert contract(",->", y, y).support == -1
    # the composition of a constant is the constant series[0]
    assert np.array_equal(c.compose("exp").coeffs,
                          JetValue.constant(math.exp(2.0), m, order).coeffs)


def _dense_pair_sum(m, order, x, y, *masks):
    """The product kernel without support masks: every pair of the dense
    table, summed in table order."""
    li, lj, lo = _mul_tables(m, order, -1, -1)
    terms = x.take(li, axis=0) * y.take(lj, axis=0)
    n = len(x)
    if terms.ndim == 1:
        return np.bincount(lo, weights=terms, minlength=n)
    size = terms.size // len(lo)
    slots = (lo[:, None] * size + np.arange(size)).ravel()
    return np.bincount(slots, weights=terms.ravel(),
                       minlength=n * size).reshape((n,) + terms.shape[1:])


def _dense_horner(jet, series_of):
    """The order-graded Horner composition, scaled as `JetValue._horner`
    scales it, with no shortcut for a constant."""
    m, n = jet.m, jet.order
    w = jet.coeffs.copy()
    w[0] = 0.0
    h = _scale_of(w)
    w /= h
    series = series_of(h)
    result = JetValue.constant(series[n], m, 0, jet.rank)
    for k in range(n - 1, -1, -1):
        size = math.comb(m + n - k, m)
        r = np.zeros((size,) + result.coeffs.shape[1:])
        r[:len(result.coeffs)] = result.coeffs
        result = JetValue(m, n - k, r, jet.rank) * JetValue(m, n - k, w[:size], jet.rank) \
            + series[k]
    return result


def _evaluated(evaluate, *args):
    """What `evaluate(*args)` gives (the jet of an AST, or the component
    jets of a chart), or the class of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return evaluate(*args)
    except (ValueError, ArithmeticError) as exc:  # DomainError is a ValueError
        return type(exc)


_VARIABLES = tuple(f"u{i}" for i in range(7))


def _fuzzed_expressions(m):
    """Expressions of the grammar fuzz of `verify` in m variables: two to
    five of its sub-expressions, parenthesised and joined by + - * /, with
    variables three times as likely as numbers among the leaves, so that
    most expressions reach several variables."""
    names = st.sampled_from(_VARIABLES[:m])
    parts = st.recursive(st.one_of(_NUMBERS, names, names, names), _balanced, max_leaves=6)
    joined = st.lists(st.tuples(st.sampled_from("+-*/"), parts), min_size=2, max_size=5).map(
        lambda terms: "".join(f"{op}({part})" for op, part in terms)[1:])
    return st.tuples(st.just(m), joined)


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 7).flatmap(_fuzzed_expressions), batched=st.booleans(),
       values=st.lists(st.floats(0.1, 0.9), min_size=7, max_size=7))
def test_support_is_sound_and_products_equal_the_dense_kernel(case, batched, values):
    import gausslab.exprjet as exprjet

    m, source = case
    try:
        ast = parse_expression(source, _VARIABLES[:m])
    except ExpressionError:
        event("not an expression")
        return
    point = tuple(np.array([v, 1.0 - v, v / 2]) if batched else v for v in values[:m])
    ctx = EvalContext(point, order=5)
    got = _evaluated(eval_jet, ast, ctx)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exprjet, "_pair_sum", _dense_pair_sum)
        patch.setattr(JetValue, "_horner", _dense_horner)
        patch.setattr(exprjet, "_on_variable", lambda fn, i, m, order, rows, x:
                      JetValue.variable(i, x, m, order).compose(fn))
        want = _evaluated(eval_jet, ast, ctx)
    # every coefficient outside the rows of the support is exactly zero
    if not isinstance(got, type):
        assert not got.coeffs[~_rows_of(m, 5, got.support)].any(), source
    # where the dense kernel gives a finite jet, the same one, bit for bit
    # (only zeros may differ in sign); it can fail where the masks do not,
    # as an infinite series term times an exact zero is NaN there: the
    # exponent of 1e-62^1.5 reads log(1e-62), whose fifth term is infinite
    if not isinstance(want, type) and np.isfinite(want.coeffs).all():
        event(f"compared, support {bin(got.support).count('1')} of {m}")
        assert not isinstance(got, type), source
        assert np.array_equal(got.coeffs, want.coeffs), source


# ---------------------------------------------------------------------------
# plans: a call shape's layouts are derived once, kept under the table budget


class _Insertions(OrderedDict):
    """The table cache's entries, keeping the key of each insertion made
    once `inserted` is a list."""

    inserted = None

    def __setitem__(self, key, value):
        if self.inserted is not None:
            self.inserted.append(key)
        super().__setitem__(key, value)


def _recorded_insertions(monkeypatch) -> list:
    """The keys the table cache inserts from now on; its entries and byte
    count return to their state before this at the test's end."""
    entries = _Insertions(_TABLES.entries)
    entries.inserted = []
    monkeypatch.setattr(_TABLES, "entries", entries)
    monkeypatch.setattr(_TABLES, "bytes", _TABLES.bytes)
    return entries.inserted


def _catalog_shaped_chart(kind, dim):
    """A curvature cylinder (dimension 2), or a cone over a round sphere or
    a Clifford product of link dimension dim - 1."""
    from gausslab.hypercone import (build_cone_chart, clifford_link_chart,
                                    polynomial_curvature_cylinder, sphere_link_chart)

    if kind == "cylinder":
        return polynomial_curvature_cylinder((1.0, 1.0, 1.0))
    m = dim - 1
    link = (sphere_link_chart(m, 0.36) if kind == "sphere cone"
            else clifford_link_chart(m // 2, m - m // 2, 0.3))
    return build_cone_chart(link)


def _interior_points(chart, count):
    return [tuple(lo + (hi - lo) * (0.3 + 0.1 * k + 0.03 * i)
                  for i, (lo, hi) in enumerate(chart.domain)) for k in range(count)]


def _batch_shaped(key) -> bool:
    """Whether a cache key names a plan or slot table of a 2-point batch: a
    contraction with an operand past its spec's rank, the contraction slots
    of 2 points, or product slots of an even count of entries."""
    if key[0] == "_contract_plan":
        spec, jet, xshape, yshape = key[1], key[4], key[5], key[6]
        sa, sb = spec.split("->")[0].split(",")
        return len(xshape) > 1 + len(sa) or len(yshape) > jet + len(sb)
    if key[0] == "_pair_slots":
        return key[5] % 2 == 0
    return key[0] == "_contract_slots" and key[4] == 2


@pytest.mark.parametrize("kind, dim", [("cylinder", 2)] + [
    (kind, dim) for dim in range(3, 8) for kind in ("sphere cone", "clifford cone")])
def test_a_warm_lone_residual_builds_nothing(monkeypatch, kind, dim):
    from gausslab.biharmonic import hypersurface_residual

    chart = _catalog_shaped_chart(kind, dim)
    first, second, third = _interior_points(chart, 3)
    hypersurface_residual(chart, points=[first])
    inserted = _recorded_insertions(monkeypatch)
    hypersurface_residual(chart, points=[second])
    assert inserted == []
    # a batch builds the plans of its own shapes and the slot tables of its
    # points, and no other table
    hypersurface_residual(chart, points=[second, third])
    assert inserted and all(_batch_shaped(key) for key in inserted)


@pytest.mark.parametrize("budget", [0, _TABLES.budget])
def test_plans_survive_eviction(monkeypatch, budget):
    # from an empty cache; under a budget of 0 it keeps only its newest
    # entry, so nearly every table and plan is built for the call that reads
    # it, and a plan's slot table is rebuilt under it: the rows are those of
    # a warm cache, and the plans hold no array the byte count misses
    from gausslab.biharmonic import hypersurface_residual

    charts = [_catalog_shaped_chart(*case) for case in
              (("cylinder", 2), ("sphere cone", 4), ("clifford cone", 5))]
    want = []
    for chart in charts:
        points = _interior_points(chart, 3)
        want += [repr(hypersurface_residual(chart, points=points[:1]).points),
                 repr(hypersurface_residual(chart, points=points).points)]
    monkeypatch.setattr(_TABLES, "budget", budget)
    monkeypatch.setattr(_TABLES, "entries", OrderedDict())
    monkeypatch.setattr(_TABLES, "bytes", 0)
    got = []
    for chart in charts:
        points = _interior_points(chart, 3)
        for sample in (points[:1], points):
            got.append(repr(hypersurface_residual(chart, points=sample).points))
            assert _TABLES.bytes == sum(size for _, size in _TABLES.entries.values())
            assert _TABLES.bytes <= budget or len(_TABLES.entries) == 1
            assert not any(isinstance(v, np.ndarray) for key, (plan, _) in _TABLES.entries.items()
                           if key[0] == "_contract_plan" for v in plan)
    assert got == want


def test_one_builder_caches_every_table_and_plan_read_only(empty_tables):
    # every table and plan of a lone residual and a 2-point batch, at chart
    # dimensions 2 to 7, is kept by the one builder: its arrays read-only,
    # its bytes counted, its key the builder's whole argument list
    import gausslab.geometry as geometry
    from gausslab.biharmonic import hypersurface_residual

    for kind, dim in [("cylinder", 2)] + [(kind, dim) for dim in range(3, 8)
                                          for kind in ("sphere cone", "clifford cone")]:
        chart = _catalog_shaped_chart(kind, dim)
        first, second, third = _interior_points(chart, 3)
        hypersurface_residual(chart, points=[first])
        hypersurface_residual(chart, points=[second, third])
    entries = empty_tables.entries
    arrays = [v for value, _ in entries.values()
              for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert empty_tables.bytes == sum(size for _, size in entries.values())
    assert all(len(key) == 5 for key in entries if key[0] == "_mul_tables")
    assert {"_contract_plan", "_variable_operation", "_symmetric_index"} <= {key[0] for key in entries}
    # and no other cache in either module
    for module in (exprjet, geometry):
        tree = ast.parse(inspect.getsource(module))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names} | {node.attr for node in ast.walk(tree)
                                             if isinstance(node, ast.Attribute)}
        assert not names & {"cache", "lru_cache"}, module.__name__


@pytest.mark.parametrize("points", [None, 3])
def test_each_block_range_has_a_plan_of_its_own(empty_tables, points):
    # one spec at one pair of shapes, with lowest degrees that skip fewer
    # blocks from call to call: each call reads the plan of its own range
    # and gives the bits of a plan built for it alone (rows below a lowest
    # degree are not zero here, so a plan of another range shows)
    rng = np.random.default_rng(44)
    A = _tensor_jet((3, 2), rng, m=3, order=4, points=points)
    B = _tensor_jet((2, 3), rng, m=3, order=4, points=points)
    ranges = [(3, 1), (2, 2), (2, 0), (1, 1), (0, 3), (0, 0)]

    def product(low_a, low_b):
        A.lowest, B.lowest = low_a, low_b
        return contract("il,lj->ij", A, B).coeffs.tobytes()

    warm = [product(*lows) for lows in ranges]
    for lows, bits in zip(ranges, warm):
        empty_tables.entries.clear()
        empty_tables.bytes = 0
        assert product(*lows) == bits, lows
