"""First/second fundamental data and curvature operators on charts."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausslab.exprjet import EvalContext, JetValue, contract, eval_jet, parse_expression
from gausslab.geometry import (
    GeometryError,
    SamplingSpec,
    SingularImmersionError,
    SphereConstraintError,
    chart_from_strings,
    fundamental_data,
    generalized_cylinder,
    gradient_of_mean_curvature,
    ricci_via_gauss_equation,
    rough_laplacian,
    scalar_laplacian,
    shape_data_euclidean,
    shape_data_spherical,
)
from gausslab.hypercone import (
    _sphere_components,
    build_cone_chart,
    sphere_link_chart,
    sphere_link_solver,
)

from conftest import graph_chart, unit_sphere_chart

TWO_PI = 2.0 * math.pi


def test_plane_is_totally_geodesic():
    flat = chart_from_strings("plane", ("u", "v"), ("u", "v", "0"),
                              ((-1, 1), (-1, 1)))
    sd = shape_data_euclidean(flat, (0.3, -0.4))
    assert sd.mean_curvature.value == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(sd.shape_operator.value, 0.0, atol=1e-14)


def test_unit_sphere_shape_data():
    sd = shape_data_euclidean(unit_sphere_chart(), (0.7, 0.4))
    assert abs(sd.mean_curvature.value) == pytest.approx(1.0, rel=1e-12)
    assert sd.shape_norm_sq.value == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(sd.shape_operator.value,
                       sd.mean_curvature.value * np.eye(2), atol=1e-10)


def test_radius_two_sphere_halves_curvature():
    s2 = chart_from_strings(
        "r2", ("u", "v"),
        ("2*cos(u)*cos(v)", "2*sin(u)*cos(v)", "2*sin(v)"),
        ((0.0, TWO_PI), (-1.2, 1.2)))
    sd = shape_data_euclidean(s2, (0.7, 0.4))
    assert abs(sd.mean_curvature.value) == pytest.approx(0.5, rel=1e-12)


def test_circular_cylinder_eigenvalues():
    cc = chart_from_strings("cc", ("u", "v"), ("cos(u)", "sin(u)", "v"),
                            ((0.0, TWO_PI), (-1, 1)))
    sd = shape_data_euclidean(cc, (0.3, 0.2))
    eigs = np.sort(np.linalg.eigvals(sd.shape_operator.value).real)
    assert eigs == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert abs(sd.mean_curvature.value) == pytest.approx(0.5, rel=1e-12)


def test_paraboloid_at_critical_point():
    g = graph_chart("(u^2+v^2)/2")
    sd = shape_data_euclidean(g, (0.0, 0.0))
    assert sd.mean_curvature.value == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(sd.shape_operator.value, np.eye(2), atol=1e-12)
    fd = fundamental_data(g, (0.0, 0.0))
    V = gradient_of_mean_curvature(fd, sd)
    assert np.allclose(V.value, 0.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_orientation_flip_negates_shape_but_not_metric(a, b, c, d, e):
    g = graph_chart(f"({a})*u^2 + ({b})*u*v + ({c})*v^2 + ({d})*u + ({e})*v")
    p = (0.0, 0.0)
    plus = shape_data_euclidean(g, p, orientation=1)
    minus = shape_data_euclidean(g, p, orientation=-1)
    assert minus.mean_curvature.value == pytest.approx(
        -plus.mean_curvature.value, abs=1e-12)
    assert np.allclose(minus.shape_operator.value,
                       -plus.shape_operator.value, atol=1e-10)
    # the metric never sees the orientation flag
    gmat = fundamental_data(g, p).metric.value
    assert np.allclose(gmat, gmat.T, atol=1e-14)
    assert np.all(np.linalg.eigvalsh(gmat) > 0)
    assert minus.shape_norm_sq.value == pytest.approx(
        plus.shape_norm_sq.value, rel=1e-10)


def test_singular_immersion_rejected():
    sing = chart_from_strings("sing", ("u", "v"), ("u+v", "u+v", "0"),
                              ((-1, 1), (-1, 1)))
    with pytest.raises(SingularImmersionError, match="positive definite"):
        fundamental_data(sing, (0.0, 0.0))


@pytest.mark.parametrize("components, point, cause", [
    # g0 = diag(1, 0): a degenerate chart
    (("u", "v^3", "0"), (0.3, 0.0), "not positive definite"),
    # g0 = diag(2e217, 1): finite and positive definite, but ill-conditioned
    (("u", "v", "exp(exp(u))"), (5.5, 0.0), "condition number exceeds 1e10"),
    # g0 = 1e-14 I: well conditioned, but below the spectral floor
    (("1e-7*u", "1e-7*v", "0"), (0.3, 0.2), "numerically singular"),
])
def test_metric_gates_name_the_cause(components, point, cause):
    chart = chart_from_strings("gate", ("u", "v"), components, ((-10, 10), (-10, 10)))
    with pytest.raises(SingularImmersionError, match=f"metric {cause} at"):
        fundamental_data(chart, point)


def test_failed_normal_svd_is_a_singular_immersion(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SingularImmersionError, match="SVD did not converge"):
        shape_data_euclidean(unit_sphere_chart(), (0.7, 0.4))
    circle = chart_from_strings("circle", ("u",), ("cos(u)", "sin(u)", "0"),
                                ((0.0, TWO_PI),), ambient="sphere")
    with pytest.raises(SingularImmersionError, match="SVD did not converge"):
        shape_data_spherical(circle, (0.3,))


def test_sphere_constraint_enforced():
    bad = chart_from_strings("bad", ("u",),
                             ("0.9*cos(u)", "0.9*sin(u)", "0.1"),
                             ((0.0, TWO_PI),), ambient="sphere")
    with pytest.raises(SphereConstraintError, match="0.82"):
        shape_data_spherical(bad, (0.3,))


def _height_function_on_sphere(m):
    """The chart of S^m in R^(m+1) that the link charts use, and phi, its
    first coordinate, at a lone point and at a batch of three points: fd,
    the jet of phi and the jet of grad phi at each."""
    names = tuple(f"u{i + 1}" for i in range(m))
    comps = _sphere_components(names)
    sphere = chart_from_strings(f"S^{m}", names, comps, [(-0.6, 0.6)] * m)
    batch = tuple(np.random.default_rng(m).uniform(-0.5, 0.5, (m, 3)))
    for point in (tuple(float(x[0]) for x in batch), batch):
        fd = fundamental_data(sphere, point)
        phi = eval_jet(parse_expression(comps[0], names), EvalContext(fd.point))
        yield fd, phi, contract("ij,j->i", fd.inverse_metric, phi.gradient())


@pytest.mark.parametrize("m", range(2, 8))
def test_scalar_laplacian_sphere_eigenfunction(m):
    # a height function on the unit sphere S^m: Delta = -trace Hess, eigenvalue m
    for fd, phi, _ in _height_function_on_sphere(m):
        assert np.allclose(scalar_laplacian(fd, phi), m * phi.value, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m", range(2, 8))
def test_rough_laplacian_sphere_gradient_field(m):
    # Bochner: Delta(grad phi) = grad(Delta phi) - Ric(grad phi), and on S^m
    # Ric = (m - 1) g, so the gradient of a height function is fixed
    for fd, _, grad in _height_function_on_sphere(m):
        lap = rough_laplacian(fd, grad)
        assert lap.shape == grad.value.shape
        assert np.abs(lap - grad.value).max() <= 1e-12 * np.abs(grad.value).max()


def test_rough_laplacian_of_constant_field_on_flat_chart():
    flat = chart_from_strings("plane", ("u", "v"), ("u", "v", "0"),
                              ((-1, 1), (-1, 1)))
    fd = fundamental_data(flat, (0.1, -0.2))
    out = rough_laplacian(fd, JetValue.constant(np.array((2.0, 3.0)), 2, 3, rank=1))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_ricci_of_great_sphere_and_small_sphere_link():
    X = np.array((1.0, 0.5))
    gs = chart_from_strings(
        "great", ("u", "v"),
        ("cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)", "0"),
        ((0.0, TWO_PI), (-1.2, 1.2)), ambient="sphere")
    sd = shape_data_spherical(gs, (0.7, 0.4))
    # totally geodesic: Ric(X) = (m-1) X
    assert ricci_via_gauss_equation(sd, X) == pytest.approx(
        [1.0, 0.5], abs=1e-10)

    a = math.sqrt(0.5)
    link = chart_from_strings(
        "link", ("u", "v"),
        (f"{a}*cos(u)*cos(v)", f"{a}*sin(u)*cos(v)", f"{a}*sin(v)", f"{a}"),
        ((0.0, TWO_PI), (-1.2, 1.2)), ambient="sphere")
    sdl = shape_data_spherical(link, (0.7, 0.4))
    assert sdl.shape_norm_sq.value == pytest.approx(2.0, rel=1e-10)
    assert ricci_via_gauss_equation(sdl, X) == pytest.approx(
        [2.0, 1.0], abs=1e-10)


def test_generalized_cylinder_structure():
    sph = unit_sphere_chart()
    cyl = generalized_cylinder(sph)
    assert cyl.dim == 3 and cyl.ambient_dim == 4
    assert cyl.variables == ("w", "u", "v")
    sd_base = shape_data_euclidean(sph, (0.7, 0.4))
    sd_cyl = shape_data_euclidean(cyl, (0.0, 0.7, 0.4))
    # flat direction scales mean curvature by m/(m+1); normal sign is the
    # chart's own business
    assert abs(sd_cyl.mean_curvature.value) == pytest.approx(
        abs(sd_base.mean_curvature.value) * 2.0 / 3.0, rel=1e-10)
    assert sd_cyl.shape_norm_sq.value == pytest.approx(
        sd_base.shape_norm_sq.value, rel=1e-10)


def test_generalized_cylinder_needs_euclidean_chart():
    circle = chart_from_strings("c", ("u",), ("cos(u)", "sin(u)", "0"),
                                ((0.0, TWO_PI),), ambient="sphere")
    with pytest.raises(GeometryError, match="euclidean"):
        generalized_cylinder(circle)


@pytest.mark.parametrize("counts", [(3,), (3, 3, 3)])
def test_sample_counts_must_match_the_chart_dimension(counts):
    # one count too few failed every point; one too many was dropped
    with pytest.raises(GeometryError, match="do not match dimension 2"):
        chart_from_strings("plane", ("u", "v"), ("u", "v", "0"), ((-1, 1), (-1, 1)),
                           sampling=SamplingSpec(counts=counts))


def test_sampling_validation_and_cap():
    with pytest.raises(ValueError, match=">= 2"):
        SamplingSpec(counts=(1, 5))
    big = chart_from_strings("big", ("u", "v"), ("u", "v", "0"),
                             ((-1, 1), (-1, 1)),
                             sampling=SamplingSpec(counts=(200, 200)))
    assert len(big.sample_points()) <= 10_000


@pytest.mark.parametrize("dim", range(2, 8))
def test_inverse_metric_times_metric_is_the_identity_jet(dim):
    # graph of a seeded cubic: g^(-1) g = I in every Taylor coefficient
    rng = np.random.default_rng(dim)
    names = tuple(f"x{i}" for i in range(dim))
    height = " + ".join(f"({rng.uniform(-0.8, 0.8)})*{a}*{b}" for a, b in zip(
        names, names[1:] + names[:1])) + f" + ({rng.uniform(-0.4, 0.4)})*{names[0]}^3"
    chart = chart_from_strings("graph", names, names + (height,), [(-0.5, 0.5)] * dim)
    fd = fundamental_data(chart, tuple(rng.uniform(-0.3, 0.3, dim)))
    product = contract("ij,jk->ik", fd.inverse_metric, fd.metric)
    identity = np.zeros_like(product.coeffs)
    identity[0] = np.eye(dim)
    assert product.order == 3
    assert np.max(np.abs(product.coeffs - identity)) < 1e-12


# ---------------------------------------------------------------------------
# component jets of charts whose components repeat sub-expressions


def _twin_chart():
    """Two identical components next to a third that repeats their factors."""
    return chart_from_strings("twin", ("u", "v"),
                              ["cos(u)*sin(v)", "cos(u)*sin(v)", "sin(v)*cos(u)+cos(u)"],
                              [(-1.0, 1.0), (-1.0, 1.0)])


@pytest.mark.parametrize("chart", [
    build_cone_chart(sphere_link_chart(5, sphere_link_solver(5).a_sq_exact)), _twin_chart()],
    ids=["cone-over-S5", "twin"])
@pytest.mark.parametrize("batched", [False, True])
def test_component_jets_equal_each_component_alone(chart, batched):
    rng = np.random.default_rng(chart.dim)
    point = (np.linspace(0.7, 1.4, 3),) + tuple(rng.uniform(-0.4, 0.4, (chart.dim - 1, 3)))
    if not batched:
        point = tuple(float(x[1]) for x in point)
    for order in (5, 2):
        jets = chart.component_jets(point, order)
        for comp, jet in zip(chart.components, jets):
            assert np.array_equal(jet.coeffs, eval_jet(comp, EvalContext(point, order)).coeffs)
        # the same again, and from a copy sent to another process: a second
        # call reads nothing the first one left
        for again in (chart.component_jets(point, order),
                      pickle.loads(pickle.dumps(chart)).component_jets(point, order)):
            assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(jets, again))
