"""Residual classification, Grassmannian curvature, and the low-dimension
obstructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausslab.biharmonic import (
    HARMONIC,
    INCONCLUSIVE,
    NOT_BIHARMONIC,
    PROPER_BIHARMONIC,
    GrassmannTangent,
    Tolerances,
    corollary_necessary_condition,
    grassmann_curvature,
    hypersurface_residual,
    link_residual_system,
    r4_obstruction,
)
from gausslab.exprjet import JetValue
from gausslab.geometry import (
    GeometryError,
    ImmersionChart,
    SamplingSpec,
    chart_from_strings,
    fundamental_data,
    gradient_of_mean_curvature,
    shape_data_euclidean,
    shape_data_spherical,
)
from gausslab.hypercone import (
    clifford_link_chart,
    polynomial_curvature_cylinder,
    r3_ode_check,
    sphere_link_chart,
)

from conftest import graph_chart, unit_sphere_chart

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# verdicts


def test_plane_gauss_map_is_harmonic():
    flat = chart_from_strings("plane", ("u", "v"), ("u", "v", "0"),
                              ((-1, 1), (-1, 1)),
                              sampling=SamplingSpec(counts=(3, 3)))
    rep = hypersurface_residual(flat)
    assert rep.verdict == HARMONIC
    assert rep.failed_points == 0


def test_sphere_gauss_map_is_harmonic():
    rep = hypersurface_residual(unit_sphere_chart(counts=(4, 3)))
    assert rep.verdict == HARMONIC
    assert rep.max_grad_f < rep.gradient_threshold
    # CMC but not minimal: no points are excluded
    assert rep.excluded_points == 0


def test_catenoid_is_harmonic_with_all_points_excluded():
    cat = chart_from_strings(
        "catenoid", ("u", "v"),
        ("cosh(u)*cos(v)", "cosh(u)*sin(v)", "u"),
        ((-1.0, 1.0), (0.0, TWO_PI)), sampling=SamplingSpec(counts=(4, 5)))
    rep = hypersurface_residual(cat)
    assert rep.verdict == HARMONIC
    assert rep.excluded_points == len(rep.points) == 20
    assert rep.failed_points == 0


def test_generic_graph_is_not_biharmonic():
    g = chart_from_strings("bump", ("u", "v"),
                           ("u", "v", "u^2 - v^2 + u*v^2"),
                           ((-0.8, 0.8), (-0.8, 0.8)),
                           sampling=SamplingSpec(counts=(4, 4)))
    rep = hypersurface_residual(g)
    assert rep.verdict == NOT_BIHARMONIC
    assert rep.max_residual > rep.residual_threshold


def test_singular_column_yields_inconclusive():
    # u = 0 kills the first tangent vector on a 5-point axis; 4 of 20
    # points fail, above the 10% budget
    inc = chart_from_strings("pinch", ("u", "v"), ("u^3", "v", "0"),
                             ((-1.0, 1.0), (-1.0, 1.0)),
                             sampling=SamplingSpec(counts=(5, 4)))
    rep = hypersurface_residual(inc)
    assert rep.verdict == INCONCLUSIVE
    assert rep.failed_points == 4
    assert len(rep.points) == 20
    errors = [p.error for p in rep.points if not p.ok]
    assert all("positive definite" in e for e in errors)


def test_report_as_dict_round_trip():
    rep = hypersurface_residual(unit_sphere_chart(counts=(3, 3)))
    d = rep.as_dict()
    assert d["verdict"] == rep.verdict
    assert d["sample_count"] == 9
    assert len(d["points"]) == 9


def test_tolerances_override():
    t = Tolerances()
    assert t.as_dict() == {"eps_abs": 1e-8, "eps_rel": 1e-6,
                           "grad_rel": 1e-7, "near_minimal_f": 1e-10}
    # a sloppy residual tolerance flips a generic graph to "proper"
    g = graph_chart("u^2 - v^2 + u*v^2")
    loose = hypersurface_residual(
        g, points=[(0.3, 0.2), (0.1, -0.4)],
        tolerances=Tolerances(eps_abs=1e9))
    assert loose.verdict == PROPER_BIHARMONIC


class FailingComponent:
    """Chart component whose jet raises a non-numerical error; it counts
    its calls."""

    def __init__(self):
        self.calls = 0

    def jet(self, point, dim, order):
        self.calls += 1
        raise RuntimeError("component bug")


def test_worker_exception_propagates_without_serial_rerun():
    # a fault of the program is not a failed point: the batch pass raises
    # it at its first component jet, and no point-by-point pass follows
    component = FailingComponent()
    chart = ImmersionChart("failing", 2, "euclidean", ("u", "v"),
                           (component,) * 3, ((-1.0, 1.0), (-1.0, 1.0)),
                           SamplingSpec(counts=(12, 12)))
    with pytest.raises(RuntimeError, match="component bug"):
        hypersurface_residual(chart)
    assert component.calls == 1


# ---------------------------------------------------------------------------
# tension of the Gauss map


def grad_f_norm(chart, point):
    return hypersurface_residual(chart, points=[point]).points[0].grad_f_norm


def test_tension_norm_of_cmc_is_roundoff():
    # k = 2: |grad f| = 0 exactly, and the row's scale (test_oracles.py) is
    # S = max(1, |A|^2, scale_term) = |A|^2 = 4; the jets leave 9.8e-17 =
    # 0.11 eps S at this point, which is bounded by 4 eps S
    cyl = polynomial_curvature_cylinder((2.0,))
    assert grad_f_norm(cyl, (0.1, 0.7)) <= 4 * np.finfo(float).eps * 4.0
    rep = hypersurface_residual(cyl, points=[(0.0, 0.2), (0.1, 0.5)])
    assert rep.verdict == HARMONIC


def test_tension_norm_linear_curvature_cylinder():
    # k(s) = s: f = k/2, so |grad f| = 1/2
    cyl = polynomial_curvature_cylinder((0.0, 1.0))
    assert grad_f_norm(cyl, (0.5, 0.0)) == pytest.approx(0.5, rel=1e-12)
    assert grad_f_norm(cyl, (1.2, 0.3)) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Grassmannian curvature


def test_grassmann_standard_plane_example():
    r1 = GrassmannTangent.rank_one((1.0, 0.0), (1.0,))
    r2 = GrassmannTangent.rank_one((0.0, 1.0), (1.0,))
    out = grassmann_curvature(r1, r2, r2)
    assert np.array_equal(out.matrix, r1.matrix)
    sec = out.inner(r1) / (r1.inner(r1) * r2.inner(r2) - r1.inner(r2) ** 2)
    assert sec == 1.0


def test_grassmann_orthogonal_planes_commute():
    # X1*eta1 and X2*eta2 with all four vectors mutually orthogonal
    r1 = GrassmannTangent.rank_one((1.0, 0.0), (1.0, 0.0))
    r2 = GrassmannTangent.rank_one((0.0, 1.0), (0.0, 1.0))
    out = grassmann_curvature(r1, r2, r2)
    assert np.array_equal(out.matrix, np.zeros((2, 2)))


def test_grassmann_dimension_mismatch():
    r1 = GrassmannTangent(np.zeros((2, 1)))
    r2 = GrassmannTangent(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="dimensions"):
        grassmann_curvature(r1, r2, r2)


matrices = st.lists(st.floats(-2, 2), min_size=6, max_size=6).map(
    lambda v: GrassmannTangent(np.asarray(v).reshape(2, 3)))


@settings(max_examples=40, deadline=None)
@given(matrices, matrices, matrices, matrices)
def test_grassmann_curvature_symmetries(r1, r2, r3, r4):
    R = grassmann_curvature
    # antisymmetry in the first slots holds exactly by construction
    a = R(r1, r2, r3).matrix
    b = R(r2, r1, r3).matrix
    assert np.array_equal(a, -b)
    # pair symmetry <R(r1,r2)r3, r4> = <R(r3,r4)r1, r2>
    lhs = R(r1, r2, r3).inner(r4)
    rhs = R(r3, r4, r1).inner(r2)
    scale = 1.0 + max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale
    # first Bianchi identity
    cyc = R(r1, r2, r3).matrix + R(r2, r3, r1).matrix + R(r3, r1, r2).matrix
    assert np.max(np.abs(cyc)) <= 1e-12 * (1.0 + np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# link system


def test_small_sphere_link_is_proper_biharmonic():
    rep = link_residual_system(sphere_link_chart(3, 0.5))
    assert rep.verdict == PROPER_BIHARMONIC
    assert rep.max_vector_residual < rep.vector_threshold
    assert rep.max_scalar_residual < rep.scalar_threshold


def test_wrong_radius_sphere_link_scalar_residual():
    # S^2(0.8) in S^3: vector equation holds, scalar residual is exactly
    # 3*2*f + (3*2-6-|A|^2) f with f = -3/4, |A|^2 = 9/8 ... = 27/32
    rep = link_residual_system(sphere_link_chart(2, 0.64))
    assert rep.verdict == NOT_BIHARMONIC
    assert rep.max_vector_residual < 1e-12
    assert rep.max_scalar_residual == pytest.approx(0.84375, abs=1e-12)


def test_minimal_link_reports_harmonic():
    rep = link_residual_system(clifford_link_chart(1, 1, 0.5))
    assert rep.verdict == HARMONIC
    assert rep.max_abs_f < 1e-12


@pytest.mark.parametrize("check, chart", [
    (hypersurface_residual, unit_sphere_chart()),
    (link_residual_system, sphere_link_chart(3, 0.5)),
], ids=["hypersurface", "link"])
def test_empty_sample_is_rejected(check, chart):
    for points in ([], np.empty((0, chart.dim))):
        with pytest.raises(GeometryError, match="empty sample set"):
            check(chart, points=points)


@pytest.mark.parametrize("check, chart", [
    (hypersurface_residual, unit_sphere_chart()),
    (link_residual_system, sphere_link_chart(3, 0.5)),
], ids=["hypersurface", "link"])
def test_an_array_sample_reads_as_its_points(check, chart):
    # an (n, dim) array, or a list of its rows, gives the rows of the same
    # points as float tuples, the points included
    points = [tuple(lo + (hi - lo) * (0.3 + 0.2 * k + 0.05 * i)
                    for i, (lo, hi) in enumerate(chart.domain)) for k in range(3)]
    want = check(chart, points=points).points
    assert repr(check(chart, points=np.array(points)).points) == repr(want)
    assert repr(check(chart, points=list(np.array(points))).points) == repr(want)


def test_link_system_requires_sphere_ambient():
    with pytest.raises(GeometryError, match="sphere"):
        link_residual_system(unit_sphere_chart())


@pytest.mark.parametrize("check, chart", [
    (hypersurface_residual, unit_sphere_chart()),
    (link_residual_system, sphere_link_chart(3, 0.5)),
], ids=["hypersurface", "link"])
@pytest.mark.parametrize("orientation", [0, 2, -2])
def test_invalid_orientation_raises_before_any_jet_pass(check, chart, orientation, monkeypatch):
    # it failed every point, and the sweep halved each batch down to lone
    # points before it returned Inconclusive
    import gausslab.biharmonic as biharmonic
    import gausslab.geometry as geometry

    calls = []
    for module in (biharmonic, geometry):
        counted = module.fundamental_data
        monkeypatch.setattr(module, "fundamental_data",
                            lambda *args, counted=counted, **kw: calls.append(args)
                            or counted(*args, **kw))
    with pytest.raises(GeometryError, match="orientation must be"):
        check(chart, orientation=orientation)
    shape = shape_data_euclidean if chart.ambient == "euclidean" else shape_data_spherical
    with pytest.raises(GeometryError, match="orientation must be"):
        shape(chart, (0.3,) * chart.dim, orientation)
    assert calls == []


# ---------------------------------------------------------------------------
# necessary condition via the Ricci operator


class _StubShape:
    """Duck-typed shape data: identity shape operator in dimension m."""

    def __init__(self, m, f, norm_sq):
        self.dim = m
        self.mean_curvature = JetValue.constant(f, m, 2)
        self.shape_norm_sq = JetValue.constant(norm_sq, m, 2)
        self.shape_operator = JetValue.constant(np.eye(m), m, 2, rank=2)


def test_corollary_closed_form_for_identity_shape_operator():
    # A = Id: expression collapses to (2 - m f - (2/3)|A|^2) grad f
    m, f = 2, 5.0
    sd = _StubShape(m, f, float(m))
    v = np.array([1.0, -2.0])
    out = corollary_necessary_condition(sd, v)
    want = (2.0 - m * f - (2.0 / 3.0) * m) * v
    assert out == pytest.approx(want, rel=1e-14)


def test_corollary_vanishes_on_proper_biharmonic_link():
    chart = sphere_link_chart(3, 0.5)
    points = chart.sample_points(default_count=5)
    assert len(points) == 125
    for p in points:
        fd = fundamental_data(chart, p)
        sd = shape_data_spherical(chart, p, 1, fd)
        assert sd.shape_norm_sq.value == pytest.approx(3.0, rel=1e-12)
        v = gradient_of_mean_curvature(fd, sd).value
        assert fd.norm(corollary_necessary_condition(sd, v)) < 1e-12


# ---------------------------------------------------------------------------
# planar cones: prolongation certificate


def test_r3_trivial_data_is_consistent():
    r = r3_ode_check(0.0, 0.0)
    assert r.consistent
    assert r.prolongation1 == r.prolongation2 == r.prolongation3 == 0.0


def test_r3_nonzero_curvature_fails_first_prolongation():
    r = r3_ode_check(1.0, 0.5)
    assert not r.consistent
    assert r.prolongation1 == pytest.approx(0.5)


def test_r3_flat_slope_fails_second_prolongation():
    r = r3_ode_check(2.0, 0.0, -14.0 / 3.0)
    assert not r.consistent
    assert r.second_eq_residual == pytest.approx(0.0, abs=1e-14)
    assert r.prolongation1 == 0.0
    assert r.prolongation2 == pytest.approx(-56.0 / 3.0)


def test_r3_pure_slope_fails_third_prolongation():
    r = r3_ode_check(0.0, 1.0)
    assert not r.consistent
    assert r.prolongation1 == r.prolongation2 == 0.0
    assert r.prolongation3 == pytest.approx(2.0)


def test_r3_auto_second_derivative_solves_second_equation():
    r = r3_ode_check(1.5, 0.2)
    assert r.k0_ddot == pytest.approx(-1.5 * (3.0 + 2.25) / 3.0)
    assert r.second_eq_residual == 0.0


# ---------------------------------------------------------------------------
# cones in R^4: integral obstruction


def _global_sphere_link(a, swapped=False, v_range=(-HALF_PI, HALF_PI)):
    """S^2(a) at height sqrt(1 - a^2), periodic in u and pole-capped in v;
    `swapped` puts v first."""
    b = math.sqrt(1.0 - a * a)
    variables, domain = ("u", "v"), ((0.0, TWO_PI), v_range)
    if swapped:
        variables, domain = variables[::-1], domain[::-1]
    return chart_from_strings(
        f"s2_{a}", variables,
        (f"{a}*cos(u)*cos(v)", f"{a}*sin(u)*cos(v)", f"{a}*sin(v)", f"{b}"),
        domain, ambient="sphere")


def test_r4_obstruction_on_torus_link():
    torus = chart_from_strings(
        "torus", ("u", "v"),
        ("0.8*cos(u)", "0.8*sin(u)", "0.6*cos(v)", "0.6*sin(v)"),
        ((0.0, TWO_PI), (0.0, TWO_PI)), ambient="sphere")
    r4 = r4_obstruction(torus)
    assert r4.closures == ("periodic", "periodic")
    assert r4.obstruction_holds
    assert abs(r4.integral_laplacian) <= 1e-8 * max(r4.area, 1.0)
    assert r4.integral_weighted_f > 0.0
    assert r4.area == pytest.approx(4.0 * math.pi ** 2 * 0.8 * 0.6, rel=1e-9)


def test_r4_obstruction_on_pole_capped_sphere_link():
    r4 = r4_obstruction(_global_sphere_link(0.8))
    assert r4.closures == ("periodic", "capped")
    assert r4.obstruction_holds
    # midpoint rule on a capped chart: area converges to 4 pi a^2
    assert r4.area == pytest.approx(4.0 * math.pi * 0.64, rel=5e-3)
    assert abs(r4.integral_laplacian) < 1e-10


def test_r4_obstruction_with_the_cap_in_the_first_variable():
    r4 = r4_obstruction(_global_sphere_link(0.8, swapped=True))
    assert r4.closures == ("capped", "periodic")
    assert r4.obstruction_holds
    assert r4.area == pytest.approx(4.0 * math.pi * 0.64, rel=5e-3)


def test_r4_rejects_a_half_sphere():
    # v = 0 is the equator: neither periodic nor a pole
    with pytest.raises(GeometryError, match="close up"):
        r4_obstruction(_global_sphere_link(0.8, v_range=(-HALF_PI, 0.0)))


def test_r4_minimal_link_has_no_obstruction():
    c = math.sqrt(0.5)
    minimal = chart_from_strings(
        "torus_min", ("u", "v"),
        (f"{c}*cos(u)", f"{c}*sin(u)", f"{c}*cos(v)", f"{c}*sin(v)"),
        ((0.0, TWO_PI), (0.0, TWO_PI)), ambient="sphere")
    r4 = r4_obstruction(minimal)
    assert not r4.obstruction_holds
    assert abs(r4.mean_f) < 1e-12


def test_r4_rejects_charts_with_boundary():
    box = chart_from_strings(
        "box", ("u", "v"),
        ("cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)", "0"),
        ((0.0, 1.0), (0.0, 1.0)), ambient="sphere")
    with pytest.raises(GeometryError, match="close up"):
        r4_obstruction(box)


def test_r4_rejects_wrong_dimension():
    with pytest.raises(GeometryError, match="2d"):
        r4_obstruction(sphere_link_chart(3, 0.5))
