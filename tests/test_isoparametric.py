"""Isoparametric families: curvature structure, condition polynomials,
classification, homogeneous solver."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gausslab.isoparametric import (
    CurvatureSet,
    IsoparametricSpec,
    classify_type,
    condition_polynomial,
    principal_curvatures,
    shape_norm_squared,
    takagi_solver,
)
from gausslab.roots import NEG_INF, POS_INF, count_real_roots_in


# ---------------------------------------------------------------------------
# spec validation


def test_spec_accepts_known_families():
    assert IsoparametricSpec.type1(4).m == 4
    assert IsoparametricSpec.type2(2, 3).m == 5
    assert IsoparametricSpec.type3(2).multiplicities == (4, 4, 4)
    assert IsoparametricSpec.type4(7, 2).multiplicities == (7, 2, 7, 2)
    assert IsoparametricSpec.type6(2).m == 12


@pytest.mark.parametrize("bad", [
    lambda: IsoparametricSpec(5, (1, 1, 1, 1, 1)),
    lambda: IsoparametricSpec(2, (1,)),
    lambda: IsoparametricSpec(1, (0,)),
    lambda: IsoparametricSpec(3, (3, 3, 3)),
    lambda: IsoparametricSpec(3, (1, 2, 4)),
    lambda: IsoparametricSpec(4, (1, 2, 2, 1)),
    lambda: IsoparametricSpec(6, (3,) * 6),
    lambda: IsoparametricSpec.type3(4),
])
def test_spec_rejects_invalid_multiplicities(bad):
    with pytest.raises(ValueError):
        bad()


# ---------------------------------------------------------------------------
# principal curvatures


def test_principal_curvatures_match_cotangents():
    ks = principal_curvatures(3, 0.5)
    want = [math.cos(0.5 + a * math.pi / 3) / math.sin(0.5 + a * math.pi / 3)
            for a in range(3)]
    assert list(ks.values) == pytest.approx(want, rel=1e-15)
    assert ks.values[0] > ks.values[1] > ks.values[2]


def test_principal_curvatures_range_guard():
    with pytest.raises(ValueError, match="theta"):
        principal_curvatures(4, 0.0)
    with pytest.raises(ValueError, match="theta"):
        principal_curvatures(4, math.pi / 4)
    with pytest.raises(ValueError, match="type"):
        principal_curvatures(5, 0.3)


def test_curvature_set_requires_decreasing_values():
    with pytest.raises(ValueError, match="decrease"):
        CurvatureSet((1.0, 2.0), 0.3)


def test_trace_and_norm_aggregation():
    ks = principal_curvatures(2, 0.9)
    mults = (1, 2)
    k1, k2 = ks.values
    assert ks.trace(mults) == pytest.approx(k1 + 2 * k2)
    assert ks.norm_sq(mults) == pytest.approx(k1 * k1 + 2 * k2 * k2)


# ---------------------------------------------------------------------------
# |A|^2 closed forms


@pytest.mark.parametrize("spec,theta", [
    (IsoparametricSpec.type1(3), 0.7),
    (IsoparametricSpec.type2(1, 2), 0.9),
    (IsoparametricSpec.type3(1), 0.5),
    (IsoparametricSpec.type4(2, 2), 0.41),
    (IsoparametricSpec.type6(1), 0.3),
])
def test_shape_norm_closed_form_matches_direct_sum(spec, theta):
    sn = shape_norm_squared(spec, theta)
    assert sn.closed == pytest.approx(sn.direct, rel=1e-9)


_THETA_FRACTIONS = st.floats(0.02, 0.98)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6]), _THETA_FRACTIONS)
def test_shape_norm_agreement_across_theta(ell, frac):
    spec = {1: IsoparametricSpec.type1(5),
            2: IsoparametricSpec.type2(2, 3),
            3: IsoparametricSpec.type3(3),
            4: IsoparametricSpec.type4(4, 5),
            6: IsoparametricSpec.type6(2)}[ell]
    theta = frac * math.pi / ell
    try:
        sn = shape_norm_squared(spec, theta)
    except ValueError:
        return  # closed-form pole or theta-margin guard
    assert sn.closed == pytest.approx(sn.direct, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# condition polynomials


def test_condition_polynomial_coefficients():
    assert condition_polynomial(IsoparametricSpec.type3(2)).coeffs == tuple(
        Fraction(c) for c in (-2, 0, 120, 0, -90, 0, 12))
    assert condition_polynomial(
        IsoparametricSpec.type3(2)).content_normalized().coeffs == tuple(
        Fraction(c) for c in (-1, 0, 60, 0, -45, 0, 6))
    assert condition_polynomial(IsoparametricSpec.type3(0)).coeffs == tuple(
        Fraction(c) for c in (1, 0, 21, 0, -9, 0, 3))
    assert condition_polynomial(IsoparametricSpec.type4(2, 2)).coeffs == tuple(
        Fraction(c) for c in (32, -10, 2))
    p6 = condition_polynomial(IsoparametricSpec.type6(1))
    assert p6.degree == 12
    assert p6.coeffs[::2] == tuple(
        Fraction(c) for c in (1, -12, 135, -216, 135, -12, 1))
    assert all(c == 0 for c in p6.coeffs[1::2])


def test_type2_condition_matches_product_link_quadratic():
    spec = IsoparametricSpec.type2(1, 3)
    p = condition_polynomial(spec)
    assert p.coeffs == (Fraction(1), Fraction(-8), Fraction(10))


# ---------------------------------------------------------------------------
# classification


def test_classify_type3_counts_and_values():
    assert classify_type(IsoparametricSpec.type3(0)) == []
    q1 = classify_type(IsoparametricSpec.type3(1))
    assert len(q1) == 1 and q1[0].minimal
    assert q1[0].k1 == pytest.approx(math.sqrt(3.0), rel=1e-9)

    q2 = classify_type(IsoparametricSpec.type3(2))
    assert [r.flag for r in q2] == ["valid", "valid"]
    assert sorted(r.k1 for r in q2) == pytest.approx(
        [1.3078250005515815, 2.4026472659075817], rel=1e-9)
    for r in q2:
        assert r.shape_norm_sq == pytest.approx(30.0, abs=1e-8)

    q3 = classify_type(IsoparametricSpec.type3(3))
    assert len(q3) == 2
    for r in q3:
        assert not r.minimal
        assert r.shape_norm_sq == pytest.approx(66.0, abs=1e-7)


def test_classify_back_substitutes_shape_norm():
    # every admissible root must hit |A|^2 = 3(m-2) on the nose
    for spec in (IsoparametricSpec.type3(2), IsoparametricSpec.type3(3),
                 IsoparametricSpec.type4(7, 2)):
        target = 3.0 * (spec.m - 2)
        for r in classify_type(spec):
            if not r.minimal:
                assert r.shape_norm_sq == pytest.approx(target, rel=1e-9)


def test_classify_type4_lambda_roots():
    roots = classify_type(IsoparametricSpec.type4(7, 2))
    assert sorted(r.value for r in roots) == pytest.approx([2.0, 16.0 / 7.0],
                                                           rel=1e-12)
    assert all(r.flag == "valid" for r in roots)
    # homogeneous-admissible small pairs have no solutions at all
    assert classify_type(IsoparametricSpec.type4(2, 2)) == []
    assert classify_type(IsoparametricSpec.type4(4, 5)) == []


def test_classify_type6_certifies_zero_roots():
    assert classify_type(IsoparametricSpec.type6(1)) == []
    assert classify_type(IsoparametricSpec.type6(2)) == []
    for mult in (1, 2):
        p = condition_polynomial(IsoparametricSpec.type6(mult))
        assert count_real_roots_in(p, NEG_INF, POS_INF) == 0


def test_classify_delegates_to_link_solvers():
    one = classify_type(IsoparametricSpec.type1(3))
    assert len(one) == 1
    assert one[0].variable == "a_sq"
    assert one[0].value == pytest.approx(0.5)
    assert classify_type(IsoparametricSpec.type1(2)) == []

    two = classify_type(IsoparametricSpec.type2(1, 2))
    assert {r.flag for r in two} == {"minimal", "paper-range conflict"}
    assert all(r.variable == "r1_sq" for r in two)


# ---------------------------------------------------------------------------
# homogeneous family


def test_takagi_small_n_has_no_solutions():
    assert takagi_solver(5) == []
    assert takagi_solver(7) == []


def test_takagi_rejects_even_or_tiny_n():
    with pytest.raises(ValueError, match="odd"):
        takagi_solver(8)
    with pytest.raises(ValueError, match="odd"):
        takagi_solver(3)


def test_takagi_n9_exact_roots():
    sols = takagi_solver(9)
    assert [s.exact for s in sols] == [Fraction(7, 11), Fraction(2, 3)]
    assert [s.sin_sq_2theta for s in sols] == pytest.approx(
        [7 / 11, 2 / 3], rel=1e-12)
    for s in sols:
        assert abs(s.quartic_residual) < 1e-9
        assert not s.minimal
        assert 0.0 < s.theta < math.pi / 4


def test_takagi_n9_matches_type4_lambda():
    # x = 4/(4 + lambda) maps the type-4 (7,2) roots onto the homogeneous ones
    lams = sorted(r.value for r in classify_type(IsoparametricSpec.type4(7, 2)))
    xs = sorted(4.0 / (4.0 + lam) for lam in lams)
    got = sorted(s.sin_sq_2theta for s in takagi_solver(9))
    assert got == pytest.approx(xs, rel=1e-12)


def test_takagi_residuals_up_to_13():
    for n in (9, 11, 13):
        sols = takagi_solver(n)
        assert len(sols) == 2
        for s in sols:
            assert 0.0 < s.sin_sq_2theta < 1.0
            assert abs(s.quartic_residual) < 1e-9
            assert s.lam == pytest.approx(
                4.0 * (1.0 - s.sin_sq_2theta) / s.sin_sq_2theta, rel=1e-12)
            assert not s.minimal


@pytest.mark.parametrize("n", range(9, 21, 2))
def test_takagi_lambda_is_the_type4_root_with_multiplicities_n_minus_2_and_2(n):
    # the lambda-quadratic of the homogeneous family is the type-4 condition
    # for (n-2, 2): a hypersurface of dimension 2n in S^(2n+1)
    spec = IsoparametricSpec.type4(n - 2, 2)
    assert spec.m == 2 * n
    lams = sorted(r.value for r in classify_type(spec))
    got = sorted(s.lam for s in takagi_solver(n))
    assert len(got) == 2
    assert got == pytest.approx(lams, rel=1e-12)
