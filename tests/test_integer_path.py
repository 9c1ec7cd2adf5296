"""The exact layer on integers against the Fraction path it replaced.

The functions below are the package's earlier top level of root isolation
and its three polynomial solvers, kept as the reference: each solver built a
`Polynomial` of `Fraction` coefficients and handed it, with `Fraction`
endpoints, to an `isolate_and_refine` that turned both back into integers.
The integer core (`roots._isolate` and `roots._count`) must give the same
rows, intervals and float estimates, bit for bit, and the catalog commands
must build no `Fraction` on the way in."""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gausslab import cli, hypercone, isoparametric, roots
from gausslab.hypercone import (
    FLAG_EXCLUDED,
    FLAG_MINIMAL,
    FLAG_PAPER_RANGE,
    FLAG_VALID,
    CliffordRoot,
    clifford_shape_norm_sq,
)
from gausslab.isoparametric import (
    ClassifiedRoot,
    IsoparametricSpec,
    TakagiSolution,
    condition_polynomial,
    principal_curvatures,
    shape_norm_squared,
)
from gausslab.roots import (
    _PAST_FLOATS,
    NEG_INF,
    POS_INF,
    Polynomial,
    RootInterval,
    _bisect,
    _derivative,
    _discriminant,
    _float_at,
    _int_coeffs,
    _pdiv,
    _quadratic_cells,
    _refine,
    _root_past_floats,
    _scaled,
    _sign_at,
    _square_free,
    _sturm,
    _variations,
)

# ---------------------------------------------------------------------------
# the reference: Fraction endpoints and Polynomial arguments


def _as_endpoint(x):
    if isinstance(x, float) and math.isinf(x):
        return POS_INF if x > 0 else NEG_INF
    return Fraction(x)


def _projective(x):
    if x is POS_INF:
        return 1, 0
    if x is NEG_INF:
        return -1, 0
    return x.numerator, x.denominator


def _open_part(p, a, b):
    q = _square_free(_int_coeffs(p))
    if a is not NEG_INF and _sign_at(q, a.numerator, a.denominator) == 0:
        q = _pdiv(q, (a.denominator, -a.numerator))[0]
    b_is_root = b is not POS_INF and _sign_at(q, b.numerator, b.denominator) == 0
    if b_is_root:
        q = _pdiv(q, (b.denominator, -b.numerator))[0]
    return q, b_is_root


def reference_count(p, a, b):
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    a, b = _as_endpoint(a), _as_endpoint(b)
    if not a < b:
        raise ValueError("need a < b")
    q, b_is_root = _open_part(p, a, b)
    if len(q) <= 1:
        return int(b_is_root)
    if len(q) == 3:
        if _discriminant(q) < 0:
            return b_is_root + 0
        sa, sb = _sign_at(q, *_projective(a)), _sign_at(q, *_projective(b))
        if sa != sb:
            return 1 + b_is_root
        inside = (sa > 0) == (q[0] > 0) and a < Fraction(-q[1], 2 * q[0]) < b
        return 2 * inside + b_is_root
    chain = _sturm(q)
    return (_variations(chain, *_projective(a))
            - _variations(chain, *_projective(b)) + b_is_root)


def reference_isolate(p, a=NEG_INF, b=POS_INF):
    if p.is_zero or p.degree == 0:
        return []
    a, b = _as_endpoint(a), _as_endpoint(b)
    if not a < b:
        raise ValueError("need a < b")
    q, b_is_root = _open_part(p, a, b)
    results = []
    if b_is_root:
        try:
            results.append(RootInterval(b, b, float(b)))
        except OverflowError:
            raise OverflowError(_PAST_FLOATS) from None
    if len(q) <= 1:
        return results
    bound = 1 + Fraction(max(abs(c) for c in q[1:]), abs(q[0]))
    lo = a if a is not NEG_INF else -bound
    hi = b if b is not POS_INF else bound
    if not lo < hi:
        return results
    d = math.lcm(lo.denominator, hi.denominator)
    x, y = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    dq = _derivative(q)
    cells = _quadratic_cells(q, dq, x, y, d) if len(q) == 3 else None
    scaled = None
    if cells is None:
        cells = [(x, y, d, _sign_at(q, x, d) or _sign_at(dq, x, d))
                 for x, y, d in _bisect(q, x, y, d)]
        scaled = _scaled(q)
    num, den = p.leading.numerator, p.leading.denominator * q[0]
    try:
        q_f = [c * num / den for c in q]
        dq_f = [c * num / den for c in dq]
    except OverflowError:
        q_f = dq_f = None
    for x, y, d, s in cells:
        if _root_past_floats(q, x, y, d, s):
            raise OverflowError(_PAST_FLOATS)
        if scaled is not None:
            x, y, d = _refine(q, dq, x, y, d, s, scaled)
        try:
            est = (x + y) / (2 * d)
        except OverflowError:
            raise OverflowError(_PAST_FLOATS) from None
        deriv = 0.0 if dq_f is None else _float_at(dq_f, est)
        if deriv != 0.0:
            newton = est - _float_at(q_f, est) / deriv
            if x / d <= newton <= y / d and \
                    abs(_float_at(q_f, newton)) <= abs(_float_at(q_f, est)):
                est = newton
        results.append(RootInterval(Fraction(x, d), Fraction(y, d), est))
    results.sort(key=lambda r: r.value)
    return results


def reference_clifford(m, m1):
    m2 = m - m1
    coeffs = (4 * m - 6, -(4 * m - 6 + m1 - m2), m1)
    poly = Polynomial.from_coeffs(coeffs[::-1])
    minimal_x = Fraction(m1, m1 + m2)
    minimal_is_root = _sign_at(coeffs, m1, m1 + m2) == 0
    intervals = reference_isolate(poly, 0, 1)
    if not intervals:
        raise ValueError(f"no real solutions in (0, 1) for m={m}, m1={m1}")
    out = []
    for r in intervals:
        x = r.value
        norm_sq = clifford_shape_norm_sq(m1, m2, x)
        minimal = minimal_is_root and abs(x - float(minimal_x)) <= 1e-9
        theorem_ok = (m > 2 and not minimal
                      and abs(norm_sq - 3.0 * (m - 2)) <= hypercone._CONDITION_TOL * (1 + norm_sq))
        if minimal:
            flag = FLAG_MINIMAL
        elif theorem_ok and m > 3:
            flag = FLAG_VALID
        elif theorem_ok:
            flag = FLAG_PAPER_RANGE
        else:
            flag = FLAG_EXCLUDED
        out.append(CliffordRoot(m, m1, m2, x, 1.0 - x, norm_sq, math.sqrt((1.0 - x) / x),
                                math.asin(math.sqrt(x)), minimal, theorem_ok, m > 3, flag))
    return out


def reference_takagi(n):
    poly = Polynomial.from_coeffs([2 * (n - 2), -(6 * n - 11), 4 * n - 3])
    disc = 4 * n * n - 44 * n + 73
    if disc < 0:
        return []
    if reference_count(poly, 0, 1) != reference_count(poly, NEG_INF, POS_INF):
        raise ArithmeticError("a root escaped (0, 1); x = sin^2(2 theta) invalid")
    isq = math.isqrt(disc)
    exact_roots = None
    if isq * isq == disc:
        exact_roots = sorted(
            (Fraction(6 * n - 11 + s * isq, 2 * (4 * n - 3)) for s in (1, -1)))
    out = []
    vplus = (math.sqrt(n) + math.sqrt(2.0)) / (math.sqrt(n) - math.sqrt(2.0))
    for i, r in enumerate(reference_isolate(poly, 0, 1)):
        x = r.value
        theta = 0.5 * math.asin(math.sqrt(x))
        lam = 4.0 * (1.0 - x) / x
        residual = (n - 2) * lam * lam - (4 * n - 6) * lam + 32.0
        cot_sq = (math.cos(theta) / math.sin(theta)) ** 2
        minimal = (abs(cot_sq - vplus) <= 1e-9 * (1 + vplus)
                   or abs(cot_sq - 1.0 / vplus) <= 1e-9 * (1 + 1.0 / vplus))
        out.append(TakagiSolution(n, x, exact_roots[i] if exact_roots else None, theta,
                                  lam, residual, cot_sq, minimal))
    return out


def reference_classify(spec):
    """`classify_type` for l = 3, 4 and 6."""
    poly = condition_polynomial(spec).content_normalized()
    tol = isoparametric._MINIMAL_TOL
    out = []
    if spec.ell == 3:
        half = Polynomial.from_coeffs(poly.coeffs[::2])
        for r in reference_isolate(half, Fraction(1, 3)):
            x = math.sqrt(r.value)
            theta = math.atan(1.0 / x)
            tr = principal_curvatures(3, theta).trace(spec.multiplicities)
            norm = shape_norm_squared(spec, theta)
            minimal = abs(tr) <= tol * (1.0 + math.sqrt(abs(norm.direct)))
            out.append(ClassifiedRoot(3, spec.multiplicities, "k1", x, x, theta, norm.direct,
                                      minimal, FLAG_MINIMAL if minimal else FLAG_VALID))
        return out
    if spec.ell == 4:
        m1, m2 = spec.multiplicities[:2]
        minimal_lam = Fraction(4 * m2, m1)
        minimal_is_root = poly.eval_exact(minimal_lam) == 0
        for r in reference_isolate(poly, 0):
            lam = r.value
            k1 = 0.5 * (math.sqrt(lam) + math.sqrt(lam + 4.0))
            theta = math.atan(1.0 / k1)
            norm = shape_norm_squared(spec, theta)
            minimal = minimal_is_root and abs(lam - float(minimal_lam)) <= tol
            out.append(ClassifiedRoot(4, spec.multiplicities, "lambda", lam, k1, theta,
                                      norm.direct, minimal,
                                      FLAG_MINIMAL if minimal else FLAG_VALID))
        return out
    count = reference_count(poly, NEG_INF, POS_INF)
    if count != 0:
        raise ArithmeticError(f"type 6 condition unexpectedly has {count} roots")
    return []


# ---------------------------------------------------------------------------
# the solvers


def outcome(fn, *args):
    """`repr` of what fn returns, or of the error it raises."""
    try:
        return repr(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return repr(exc)


def test_clifford_rows_match_the_fraction_path():
    for m in range(3, 61):
        for m1 in range(1, m):
            assert outcome(hypercone.clifford_link_solver, m, m1) == \
                outcome(reference_clifford, m, m1), (m, m1)


def test_takagi_rows_match_the_fraction_path():
    for n in range(5, 202, 2):
        assert outcome(isoparametric.takagi_solver, n) == outcome(reference_takagi, n), n


def test_classified_rows_match_the_fraction_path():
    specs = [*(IsoparametricSpec.type3(q) for q in range(4)),
             *(IsoparametricSpec.type4(m1, m2) for m1 in range(1, 21) for m2 in range(1, 21)),
             *(IsoparametricSpec.type6(k) for k in (1, 2))]
    for spec in specs:
        assert outcome(isoparametric.classify_type, spec) == \
            outcome(reference_classify, spec), spec


def test_condition_coefficients_are_the_content_normalized_polynomial():
    specs = [*(IsoparametricSpec.type3(q) for q in range(4)),
             *(IsoparametricSpec.type4(a, b) for a in range(1, 9) for b in range(1, 9)),
             *(IsoparametricSpec.type6(k) for k in (1, 2))]
    for spec in specs:
        want = condition_polynomial(spec).content_normalized().coeffs
        assert isoparametric.condition_coefficients(spec) == tuple(
            int(c) for c in reversed(want))


# ---------------------------------------------------------------------------
# isolation and counting

ENDS = st.one_of(st.just("inf"), st.tuples(st.integers(-40, 40), st.integers(1, 12)))


def as_end(drawn, inf):
    return inf if drawn == "inf" else Fraction(*drawn)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=8), ENDS, ENDS)
def test_isolation_matches_the_fraction_path_bit_for_bit(coeffs, a, b):
    p = Polynomial.from_coeffs(coeffs)
    a, b = as_end(a, NEG_INF), as_end(b, POS_INF)
    if p.is_zero or not a < b:
        return
    got, want = roots.isolate_and_refine(p, a, b), reference_isolate(p, a, b)
    assert repr(got) == repr(want)
    assert [r.value.hex() for r in got] == [r.value.hex() for r in want]
    assert roots.count_real_roots_in(p, a, b) == reference_count(p, a, b)


def test_rational_coefficients_keep_the_polish_of_their_leading_coefficient():
    # the Newton polish reads q scaled to the caller's leading coefficient,
    # here a Fraction, so the estimates keep every bit
    rng = random.Random(5)
    for _ in range(300):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                  for _ in range(rng.randint(2, 7))]
        p = Polynomial.from_coeffs(coeffs)
        if p.degree >= 1:
            assert repr(roots.isolate_and_refine(p)) == repr(reference_isolate(p))


# ---------------------------------------------------------------------------
# the catalog builds no Fraction on the way in

CATALOG_LINES = [
    ["report", "--all"], ["report", "--all", "--format", "csv"],
    ["report", "--all", "--n-max", "17"],
    *(["solve", "isoparametric", "--l", "1", "--m1", str(m)] for m in (2, 3, 4, 5)),
    *(["solve", "isoparametric", "--l", "2", "--m1", str(a), "--m2", str(b)]
      for a, b in ((1, 2), (2, 3), (3, 3), (1, 5))),
    *(["solve", "isoparametric", "--l", "3", "--q", str(q)] for q in range(4)),
    *(["solve", "isoparametric", "--l", "4", "--m1", str(a), "--m2", str(b)]
      for a, b in ((2, 2), (4, 5), (1, 2), (3, 4))),
    *(["solve", "isoparametric", "--l", "6", "--mult", str(k)] for k in (1, 2)),
    *(["solve", "takagi", "--n", str(n)] for n in (9, 11, 13, 15, 17, 19)),
    ["solve", "sphere-cone", "--m", "3"], ["solve", "clifford-cone", "--m", "4", "--m1", "1"],
]


@pytest.mark.parametrize("argv", CATALOG_LINES, ids=" ".join)
def test_catalog_commands_convert_no_coefficient_to_a_fraction(monkeypatch, argv):
    calls = []
    to_fraction = roots._to_fraction
    monkeypatch.setattr(roots, "_to_fraction", lambda x: calls.append(x) or to_fraction(x))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls == []
    # the counter is live: the roots command converts its coefficients
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["roots", "--coeffs", "-6,11,-6,1"]) == 0
    assert calls
