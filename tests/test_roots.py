"""Exact Sturm-chain root isolation."""

import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gausslab import roots as roots_module
from gausslab.roots import (
    NEG_INF,
    POS_INF,
    Polynomial,
    _int_coeffs,
    _pdiv,
    _square_free,
    _sturm,
    count_real_roots_in,
    isolate_and_refine,
)


def poly(*coeffs):
    return Polynomial.from_coeffs(coeffs)


def mul(*polys):
    """Product of polynomials, by convolution of their coefficients."""
    out = [Fraction(1)]
    for p in polys:
        prod = [Fraction(0)] * (len(out) + len(p.coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p.coeffs):
                prod[i + j] += a * b
        out = prod
    return Polynomial.from_coeffs(out)


def horner(cs, x):
    """Value at x of the coefficients `cs`, low degree first."""
    acc = 0 * x
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def test_cubic_with_known_roots():
    # (x-1)(x-2)(x-3) = -6 + 11x - 6x^2 + x^3
    p = poly(-6, 11, -6, 1)
    roots = isolate_and_refine(p)
    assert [r.value for r in roots] == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    for r in roots:
        assert r.certified
        assert r.lo <= Fraction(r.value).limit_denominator(10 ** 15) <= r.hi \
            or float(r.lo) <= r.value <= float(r.hi)


def test_half_open_interval_semantics():
    # roots of x^2 - x are 0 and 1; (0, 1] keeps only the right endpoint
    p = poly(0, -1, 1)
    assert count_real_roots_in(p, 0, 1) == 1
    assert count_real_roots_in(p, -1, 1) == 2
    assert count_real_roots_in(p, 0, Fraction(1, 2)) == 0
    roots = isolate_and_refine(p, 0, 1)
    assert len(roots) == 1
    assert roots[0].lo == roots[0].hi == 1
    assert roots[0].value == 1.0


def test_endpoint_root_at_left_is_excluded():
    p = poly(0, 1)  # x
    assert count_real_roots_in(p, 0, 5) == 0
    assert isolate_and_refine(p, 0, 5) == []
    assert count_real_roots_in(p, -1, 0) == 1


def test_repeated_roots_counted_once():
    # x^5 - 2x^4 + x^3 = x^3 (x-1)^2
    p = poly(0, 0, 0, 1, -2, 1)
    roots = isolate_and_refine(p)
    assert len(roots) == 2
    assert [r.value for r in roots] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_no_real_roots():
    assert isolate_and_refine(poly(1, 0, 1)) == []
    assert count_real_roots_in(poly(1, 0, 1), NEG_INF, POS_INF) == 0


def test_rational_coefficients():
    # x^2 - 1/9
    p = poly(Fraction(-1, 9), 0, 1)
    roots = isolate_and_refine(p)
    assert [r.value for r in roots] == pytest.approx([-1 / 3, 1 / 3], abs=1e-13)


def test_content_normalized():
    p = poly(Fraction(-2, 3), 0, Fraction(4, 3))
    q = p.content_normalized()
    assert q.coeffs == (Fraction(-1), Fraction(0), Fraction(2))
    neg = poly(2, 0, -4).content_normalized()
    assert neg.leading > 0
    assert neg.coeffs == (Fraction(-1), Fraction(0), Fraction(2))


def test_wilkinson_style_product_on_subranges():
    p = mul(*(poly(-k, 1) for k in range(1, 8)))
    assert count_real_roots_in(p, NEG_INF, POS_INF) == 7
    assert count_real_roots_in(p, Fraction(5, 2), Fraction(11, 2)) == 3
    roots = isolate_and_refine(p, Fraction(5, 2), Fraction(11, 2))
    assert [r.value for r in roots] == pytest.approx([3.0, 4.0, 5.0], abs=1e-11)


def test_sturm_chain_ends_in_constant_for_square_free():
    # integer tuples, highest degree first: x^2 - 2, its derivative and -2
    chain = _sturm((1, 0, -2))
    assert chain[0] == (1, 0, -2)
    assert len(chain) == 3
    assert len(chain[-1]) == 1


def test_zero_and_constant_polynomials():
    assert Polynomial.from_coeffs([0, 0]).is_zero
    assert Polynomial.from_coeffs([0, 0]).degree == -1
    assert isolate_and_refine(poly(5)) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
def test_isolation_agrees_with_count(coeffs):
    p = Polynomial.from_coeffs(coeffs)
    if p.is_zero or p.degree < 1:
        return
    roots = isolate_and_refine(p)
    assert len(roots) == count_real_roots_in(p, NEG_INF, POS_INF)
    values = [r.value for r in roots]
    assert values == sorted(values)
    for r in roots:
        if r.lo == r.hi:
            assert p.eval_exact(r.lo) == 0
        else:
            # residual at the polished estimate is tiny at the local scale
            scale = max(abs(float(c)) for c in p.coeffs)
            value = horner([float(c) for c in p.coeffs], r.value)
            assert abs(value) <= 1e-6 * scale * (
                1.0 + abs(r.value)) ** p.degree


# ---------------------------------------------------------------------------
# certified intervals, and agreement with bisection by Sturm counts

WIDTH = Fraction(1, 10 ** 12)


def reference_intervals(p, a=NEG_INF, b=POS_INF):
    """(lo, hi] of every root in (a, b], bisected on Fractions by full Sturm
    counts from the Cauchy bound down to WIDTH. Every step is Euclid on
    Fraction coefficients, low degree first (the helpers below), so the
    reference shares no code with the integer kernel."""
    q = square_free(list(p.coeffs))
    out = []
    if a != NEG_INF and horner(q, a) == 0:
        q = fraction_divmod(q, [-a, 1])[0]
    if b != POS_INF and horner(q, b) == 0:
        q = fraction_divmod(q, [-b, 1])[0]
        out.append((b, b))
    if len(q) <= 1:
        return out
    bound = 1 + max(abs(c) for c in q[:-1]) / abs(q[-1])
    chain = euclid_chain(q)

    def variations(x):
        signs = [v > 0 for v in (horner(r, x) for r in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    stack = [(-bound if a == NEG_INF else a, bound if b == POS_INF else b)]
    while stack:
        x, y = stack.pop()
        n = variations(x) - variations(y)
        if n > 1:
            mid = (x + y) / 2
            stack += [(x, mid), (mid, y)]
        elif n == 1:
            while y - x > WIDTH:
                mid = (x + y) / 2
                if variations(x) - variations(mid) == 1:
                    y = mid
                else:
                    x = mid
            out.append((x, y))
    return sorted(out)


def assert_certified(p, a=NEG_INF, b=POS_INF):
    roots = isolate_and_refine(p, a, b)
    for r in roots:
        if r.lo != r.hi:
            assert count_real_roots_in(p, r.lo, r.hi) == 1
            assert r.hi - r.lo <= WIDTH
    assert sorted((r.lo, r.hi) for r in roots) == reference_intervals(p, a, b)
    return roots


def test_midpoint_on_a_root_during_isolation():
    # the whole-line search (-2, 2] splits at 0, a root; the interval right
    # of it starts at that root
    roots = assert_certified(poly(0, -1, 1))
    assert len(roots) == 2
    assert [r.value for r in roots] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert roots[1].lo > 0


def test_root_at_a_dyadic_midpoint():
    # 1/2 is the first refinement midpoint of (0, 1], so it stays the right end
    roots = assert_certified(poly(-1, 2), 0, 1)
    assert len(roots) == 1
    assert roots[0].hi == Fraction(1, 2)
    assert roots[0].lo < Fraction(1, 2)
    # the same root found from the whole line, with a second root at 3/8
    assert_certified(mul(poly(-1, 2), poly(-3, 8)))


def test_roots_at_range_endpoints():
    p = poly(-6, 11, -6, 1)  # roots 1, 2, 3
    roots = assert_certified(p, 1, 3)
    assert [(r.lo == r.hi) for r in roots] == [False, True]
    assert roots[1].lo == 3
    assert roots[0].value == pytest.approx(2.0, abs=1e-12)
    assert_certified(p, 2, Fraction(5, 2))
    assert_certified(p, Fraction(1, 2), 1)


@pytest.mark.parametrize("a, b", [
    (0, float("-inf")), (float("-inf"), float("-inf")), (2, 2), (3, 2),
    (Fraction(5, 2), Fraction(3, 2)),
])
def test_a_range_must_have_a_below_b(a, b):
    for p in (poly(-6, 11, -6, 1), poly(5)):  # roots 1, 2, 3; a constant
        with pytest.raises(ValueError, match="need a < b"):
            isolate_and_refine(p, a, b)
        with pytest.raises(ValueError, match="need a < b"):
            count_real_roots_in(p, a, b)


def test_float_coefficients_and_endpoints_are_taken_exactly():
    assert poly(1e-16, 1).coeffs == (Fraction(1e-16), 1) != (0, 1)
    (root,) = isolate_and_refine(poly(-1e-20, 1), 0, 1)
    assert root.lo < Fraction(1e-20) <= root.hi
    assert root.value == pytest.approx(1e-20, rel=1e-6)
    (root,) = isolate_and_refine(poly(-1, 1), 0.5, 1.25)
    assert root.lo < 1 < root.hi and root.value == 1.0
    assert count_real_roots_in(poly(-1, 1), 0.5, 1.0) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_coefficient_or_a_nan_end_is_named(bad):
    with pytest.raises(ValueError, match=f"not a finite rational: {bad!r}"):
        poly(bad, 1)
    if bad != bad:
        p = poly(-1, 1)
        for a, b in ((bad, 2), (0, bad)):
            with pytest.raises(ValueError, match="not a finite rational: nan"):
                isolate_and_refine(p, a, b)
            with pytest.raises(ValueError, match="not a finite rational: nan"):
                count_real_roots_in(p, a, b)


@pytest.mark.parametrize("coeffs", [
    (-10 ** 3990, 0, 1),            # roots +-10^1995
    (-10 ** 3990, 0, 0, 1),         # root 10^1330
    (10 ** 3990, 1),                # root -10^3990
    (1, Fraction(1, 10 ** 400)),    # root -10^400
    (-10 ** 700, 0, 1),
])
def test_a_root_past_the_float_range_is_reported_without_bisecting_to_it(monkeypatch, coeffs):
    # one exact sign test at each float-range edge an isolating interval
    # spans tells that its root lies past it; bisecting there from the
    # Cauchy bound took thousands of sign tests
    calls = []
    sign_at = roots_module._sign_at
    monkeypatch.setattr(roots_module, "_sign_at", lambda *args: calls.append(args) or sign_at(*args))
    with pytest.raises(OverflowError, match="outside the float range"):
        isolate_and_refine(poly(*coeffs))
    assert len(calls) <= 20


def test_roots_inside_the_float_range_past_a_huge_cauchy_bound():
    # the isolating intervals of x^2 - 10^616 reach past 2^1024, but the
    # edge tests find the roots +-10^308 inside it; they are refined as before
    roots = isolate_and_refine(poly(-10 ** 616, 0, 1))
    assert [r.value for r in roots] == [-1e308, 1e308]
    for r, root in zip(roots, (-10 ** 308, 10 ** 308)):
        assert r.lo < root <= r.hi and r.hi - r.lo <= WIDTH


def test_clifford_quadratics_match_the_reference(monkeypatch):
    from gausslab import hypercone

    calls = []
    isolate = roots_module._isolate

    def recording(cs, lo, hi, *lead):
        calls.append((cs, lo, hi))
        return isolate(cs, lo, hi, *lead)

    monkeypatch.setattr(hypercone, "_isolate", recording)
    hypercone.clifford_link_solver(4, 1)
    assert calls
    for cs, lo, hi in calls:
        assert len(cs) == 3
        assert_certified(poly(*cs[::-1]), Fraction(*lo), Fraction(*hi))


def test_a_clifford_solve_compares_no_fraction_with_an_endpoint(monkeypatch):
    # the solver hands integers to the integer core, and x = m1/m is tested
    # as a root by an integer sign: no Fraction is compared, about 1 us a call
    from gausslab import hypercone

    callers = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: callers.append(
        sys._getframe(1).f_code.co_name) or eq(a, b))
    for m1 in range(1, 12):
        assert hypercone.clifford_link_solver(12, m1)
    assert any(r.minimal for r in hypercone.clifford_link_solver(3, 1))  # x = m1/m is a root
    assert callers == []
    assert Fraction(1, 2) == Fraction(2, 4) and callers  # the spy sees a comparison


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6),
       st.integers(-12, 12), st.integers(1, 12), st.booleans())
def test_intervals_are_certified_and_match_the_reference(coeffs, lo, span, whole):
    p = Polynomial.from_coeffs(coeffs)
    if p.is_zero or p.degree < 1:
        return
    if whole:
        assert_certified(p)
    else:
        assert_certified(p, Fraction(lo, 4), Fraction(lo + span, 4))


# ---------------------------------------------------------------------------
# the integer chain against Euclid on Fractions


def fraction_divmod(a, b):
    """Euclidean quotient and remainder over Fractions, low degree first."""
    a = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        quo[k] = a[-1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= quo[k] * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return quo, a


def derivative(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def euclid_chain(cs):
    chain = [cs, derivative(cs)]
    while len(chain[-1]) > 1:
        rem = fraction_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def square_free(cs):
    """cs / gcd(cs, cs'), with the gcd made monic."""
    g, rem = cs, derivative(cs)
    while rem:
        g, rem = rem, fraction_divmod(g, rem)[1]
    q, rem = fraction_divmod(cs, [c / g[-1] for c in g])
    assert not rem
    return q


def is_positive_multiple(a, b):
    """Whether `a` is a positive multiple of `b`; both low degree first."""
    return (len(a) == len(b) and a[-1] * b[-1] > 0
            and all(x * b[-1] == y * a[-1] for x, y in zip(a, b)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_integer_chain_is_a_positive_multiple_of_fraction_euclid(factors, cofactor):
    # p = cofactor * prod (x - n/d)^k, so repeated roots are common
    p = mul(poly(*cofactor), *(poly(Fraction(-n, d), 1)
                               for n, d, k in factors for _ in range(k)))
    if p.degree < 1:
        return
    cs = list(p.coeffs)
    ints = _int_coeffs(p)  # highest degree first
    assert is_positive_multiple(ints[::-1], cs)
    chain = _sturm(ints)
    want = euclid_chain(cs)
    assert len(chain) == len(want)
    for got, ref in zip(chain, want):
        assert is_positive_multiple(got[::-1], ref)
    assert is_positive_multiple(_square_free(ints)[::-1], square_free(cs))
    root = Fraction(factors[0][0], factors[0][1])
    q, rem = fraction_divmod(cs, [-root, 1])
    assert not rem
    got, got_rem = _pdiv(ints, (root.denominator, -root.numerator))
    assert not got_rem
    assert is_positive_multiple(got[::-1], q)


# ---------------------------------------------------------------------------
# refinement: the final cell named by an estimate and certified by two sign
# tests, against the halving of reference_intervals


def dyadic_and_quadratic(dyadic, pairs):
    """Product of x - a/2^k for each (a, k) and of the quadratic with roots
    a/b +- sqrt(c) for each (a, b, c)."""
    factors = [poly(Fraction(-a, 2 ** k), 1) for a, k in dyadic]
    factors += [poly(Fraction(a, b) ** 2 - c, Fraction(-2 * a, b), 1) for a, b, c in pairs]
    return mul(*factors)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 6)), max_size=3),
       st.lists(st.tuples(st.integers(-8, 8), st.sampled_from((1, 2, 4)),
                          st.sampled_from((2, 3, 5, 7))), max_size=1),
       st.none() | st.tuples(st.integers(-64, 64), st.integers(1, 128), st.integers(0, 4)))
def test_cell_search_matches_the_halving_reference(dyadic, pairs, window):
    # roots a/2^k fall on cell edges of the final level wherever the range
    # has power-of-two endpoints; the half-open rule puts each in the cell
    # it closes, as halving does
    p = dyadic_and_quadratic(dyadic, pairs)
    if p.degree < 1:
        return
    if window is None:
        assert_certified(p)
    else:
        lo, span, k = window
        assert_certified(p, Fraction(lo, 2 ** k), Fraction(lo + span, 2 ** k))


def count_sign_tests_past_isolation(monkeypatch):
    """Counter of the sign tests made outside the Sturm counts of isolation:
    the sign right of each isolating interval's left end, the float-range
    edges and the refinement."""
    counts = {"past_isolation": 0}
    in_chain = []
    sign_at, variations = roots_module._sign_at, roots_module._variations

    def counted_variations(*args):
        in_chain.append(True)
        try:
            return variations(*args)
        finally:
            in_chain.pop()

    def counted_sign_at(*args):
        counts["past_isolation"] += not in_chain
        return sign_at(*args)

    monkeypatch.setattr(roots_module, "_variations", counted_variations)
    monkeypatch.setattr(roots_module, "_sign_at", counted_sign_at)
    return counts


def test_refinement_makes_a_few_sign_tests_per_root(monkeypatch, capsys):
    # halving made one sign test per level, about 40 per root here
    from gausslab import cli, hypercone, isoparametric

    counts = count_sign_tests_past_isolation(monkeypatch)
    returned = []
    isolate = roots_module._isolate

    def counting(cs, lo, hi, *lead):
        out = isolate(cs, lo, hi, *lead)
        returned.append(len(out))
        return out

    for module in (roots_module, hypercone, isoparametric):
        monkeypatch.setattr(module, "_isolate", counting)
    assert cli.main(["solve", "takagi", "--n", "17"]) == 0
    for m1 in range(1, 12):
        hypercone.clifford_link_solver(12, m1)
    assert cli.main(["roots", "--coeffs", "-6,11,-6,1", "--range", "0,5/2"]) == 0
    capsys.readouterr()
    assert sum(returned) >= 20
    # per call: the range ends; per root: the sign right of the left end
    # (and of q' where that end is a root), and two tests for the cell
    assert counts["past_isolation"] <= 2 * len(returned) + 4 * sum(returned)


def wrong_estimates():
    """Replacements of roots._estimate that name the wrong cell: either end
    of the bracket, and the cells next to the root's."""
    estimate = roots_module._estimate
    return {
        "left end": lambda u, du, lo, hi, pos, tol: lo,
        "right end": lambda u, du, lo, hi, pos, tol: hi,
        # tol is a quarter of the cell width
        "cell left": lambda *args: estimate(*args) - 4 * args[-1],
        "cell right": lambda *args: estimate(*args) + 4 * args[-1],
    }


# cubics, as quadratics name their cells in closed form and never reach the
# estimate
@pytest.mark.parametrize("case", ["left end", "right end", "cell left", "cell right"])
@pytest.mark.parametrize("p, a, b", [
    (mul(poly(-2, 0, 1), poly(-3, 1)), NEG_INF, POS_INF),
    (poly(-6, 11, -6, 1), 0, Fraction(5, 2)),  # roots 1 and 2 close cells
    (dyadic_and_quadratic([(3, 3), (-5, 2)], [(1, 1, 3)]), Fraction(-3, 2), 4),
    # roots +-1e20: exact Newton steps
    (mul(poly(-10 ** 40, 0, 1), poly(-1, 1)), NEG_INF, POS_INF),
])
def test_a_wrong_estimate_gallops_to_the_same_cell(monkeypatch, case, p, a, b):
    monkeypatch.setattr(roots_module, "_estimate", wrong_estimates()[case])
    assert_certified(p, a, b)


def test_a_nan_float_layer_still_certifies(monkeypatch):
    # every float value NaN: the estimate wanders the bracket, and the
    # cell search and the Newton step's guard still hold
    monkeypatch.setattr(roots_module, "_float_at", lambda cs, x: float("nan"))
    assert_certified(poly(-6, 11, -6, 1), 0, Fraction(5, 2))
    assert_certified(mul(poly(-10 ** 40, 0, 1), poly(-1, 1)))


@pytest.mark.parametrize("coeffs, values", [
    ((-10 ** 616, 0, 1), [-1e308, 1e308]),
    ((-10 ** 300, 0, 0, 1), [1e100]),
    ((-10 ** 616, 0, 0, 1), [2.1544346900318836e+205]),  # 10^(616/3)
])
def test_huge_roots_are_refined_in_a_few_exact_evaluations(monkeypatch, coeffs, values):
    # halving took 4,187 and 1,045 sign tests; every exact Horner sum counts
    # here, the sign tests and the exact Newton steps alike. The quadratic
    # names its cells in closed form; the cubics take the exact Newton steps
    calls = []
    value_at = roots_module._value_at
    monkeypatch.setattr(roots_module, "_value_at",
                        lambda *args: calls.append(args) or value_at(*args))
    roots = isolate_and_refine(poly(*coeffs))
    assert [r.value for r in roots] == values
    assert len(calls) <= 20 * len(roots)


# ---------------------------------------------------------------------------
# quadratics: each root's cell in closed form, against the bisection path


def isolate_or_error(p, a, b):
    try:
        return isolate_and_refine(p, a, b)
    except OverflowError as exc:
        return str(exc)


@st.composite
def quadratic_cases(draw):
    """(p, a, b): integer quadratics with coefficients up to 10^400, or
    c (x - r1)(x - r2) with r1 dyadic, so that roots fall on cell edges, and
    r2 - r1 dyadic or a power of ten, down to roots closer than a cell; over
    the whole line, a half line, a rational range (dyadic around r1, or
    not), or a range with a root on one end."""
    if draw(st.integers(0, 2)) == 0:
        big = st.integers(-10 ** 400, 10 ** 400)
        p, ends = poly(draw(big), draw(big), draw(big.filter(bool))), None
    else:
        r1 = Fraction(draw(st.integers(-64, 64)), 2 ** draw(st.integers(0, 44)))
        r2 = r1 + draw(st.builds(Fraction, st.integers(1, 64), st.integers(0, 44).map(lambda k: 2 ** k))
                       | st.builds(Fraction, st.integers(1, 9), st.integers(0, 12).map(lambda k: 10 ** k))
                       | st.builds(Fraction, st.integers(1, 9), st.integers(13, 18).map(lambda k: 10 ** k)))
        c = draw(st.sampled_from((1, -1, 3, -7)))
        p, ends = poly(c * r1 * r2, -c * (r1 + r2), c), (r1, r2)
    span = Fraction(draw(st.integers(1, 256)), draw(st.sampled_from((1, 2, 3, 8, 64))))
    kind = draw(st.sampled_from(("whole", "left", "right", "range", "range", "root at a",
                                 "root at b")))
    if kind == "whole":
        return p, NEG_INF, POS_INF
    if kind == "root at a" and ends:
        return p, ends[0], draw(st.just(POS_INF) | st.just(ends[0] + span))
    if kind == "root at b" and ends:
        return p, draw(st.just(NEG_INF) | st.just(ends[1] - span)), ends[1]
    if kind == "range" and ends and draw(st.booleans()):
        a = ends[0] - Fraction(draw(st.integers(1, 64)), 2 ** draw(st.integers(0, 6)))
    else:
        a = Fraction(draw(st.integers(-64, 64)), draw(st.sampled_from((1, 2, 3, 4, 8, 10))))
    return p, NEG_INF if kind == "left" else a, POS_INF if kind == "right" else a + span


@settings(max_examples=200, deadline=None)
@given(quadratic_cases())
@example((mul(poly(Fraction(-1, 3), 1), poly(Fraction(-1, 3) - Fraction(1, 10 ** 14), 1)),
          NEG_INF, POS_INF))                                      # roots in one cell
@example((mul(poly(Fraction(-1, 2), 1), poly(Fraction(-3, 4), 1)), 0, 1))  # on cell edges
@example((mul(poly(-1, 1), poly(2, 1)), 1, POS_INF))             # a root on a range end
@example((poly(-10 ** 800, 0, 1), NEG_INF, POS_INF))             # roots past the floats
def test_quadratic_cells_match_the_bisection_path(case):
    # the closed form declines exactly where both roots lie in one cell of
    # the final level, where bisection goes on past it to narrower cells
    p, a, b = case
    cells, declined = roots_module._quadratic_cells, []

    def recording(*args):
        found = cells(*args)
        declined.append(found is None)
        return found

    with mock.patch.object(roots_module, "_quadratic_cells", recording):
        got = isolate_or_error(p, a, b)
    with mock.patch.object(roots_module, "_quadratic_cells", lambda *args: None):
        want = isolate_or_error(p, a, b)
    assert repr(got) == repr(want)
    if isinstance(want, list):
        shared = any(WIDTH / 2 >= r.hi - r.lo > 0 for r in want)
        assert any(declined) == shared


def test_quadratic_solvers_build_no_sturm_chain(monkeypatch, capsys):
    from gausslab import cli, hypercone

    chains = []
    sturm = roots_module._sturm
    monkeypatch.setattr(roots_module, "_sturm", lambda cs: chains.append(cs) or sturm(cs))
    for m1 in range(1, 12):
        assert hypercone.clifford_link_solver(12, m1)
    assert cli.main(["solve", "takagi", "--n", "17"]) == 0
    # type 4 with multiplicities (15, 2): the lambda-quadratic of n = 17
    assert cli.main(["solve", "isoparametric", "--l", "4", "--m1", "15", "--m2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count('"cot_sq_theta"') == 2 and out.count('"variable": "lambda"') == 2
    assert chains == []
