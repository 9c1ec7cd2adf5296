"""Cone catalog: link solvers, cone charts, cylinders, composition energy."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausslab.biharmonic import HARMONIC, PROPER_BIHARMONIC, hypersurface_residual
from gausslab.exprjet import parse_expression
from gausslab.geometry import (
    fundamental_data,
    shape_data_euclidean,
    shape_data_spherical,
)
from gausslab.hypercone import (
    FLAG_MINIMAL,
    FLAG_PAPER_RANGE,
    FLAG_VALID,
    build_cone_chart,
    clifford_link_chart,
    clifford_link_solver,
    clifford_shape_norm_sq,
    composition_energy_check,
    cone_shape_from_link,
    polynomial_curvature_cylinder,
    sphere_link_chart,
    sphere_link_solver,
)


# ---------------------------------------------------------------------------
# sphere links


def test_sphere_link_solution_m3():
    s = sphere_link_solver(3)
    assert s.a_sq_exact == Fraction(1, 2)
    assert s.a == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert s.shape_norm_sq == 3.0
    assert s.f_value == pytest.approx(1.0)
    assert s.identity_exact


def test_sphere_link_low_dimensions_have_no_solution():
    assert sphere_link_solver(2) is None
    assert sphere_link_solver(1) is None
    with pytest.raises(ValueError, match="positive"):
        sphere_link_solver(0)


def test_sphere_link_identity_exact_for_a_range():
    for m in range(3, 40):
        s = sphere_link_solver(m)
        assert s.a_sq_exact == Fraction(m, 4 * m - 6)
        assert s.identity_exact
        assert 0.0 < s.a < 1.0


# ---------------------------------------------------------------------------
# Clifford links


def test_clifford_roots_m4():
    roots = clifford_link_solver(4, 1)
    assert [r.flag for r in roots] == [FLAG_VALID, FLAG_VALID]
    got = sorted(r.r1_sq for r in roots)
    want = sorted([(8 - math.sqrt(24)) / 20, (8 + math.sqrt(24)) / 20])
    assert got == pytest.approx(want, rel=1e-12)
    for r in roots:
        assert r.shape_norm_sq == pytest.approx(6.0, abs=1e-12)
        assert 1.0 * (1 - r.r1_sq) / r.r1_sq + 3.0 * r.r1_sq / (
            1 - r.r1_sq) == pytest.approx(6.0, abs=1e-10)
        assert not r.minimal


def test_clifford_m3_hits_minimal_and_range_conflict():
    roots = clifford_link_solver(3, 1)
    assert sorted(r.r1_sq for r in roots) == pytest.approx([1 / 3, 1 / 2],
                                                           rel=1e-12)
    flags = {r.flag for r in roots}
    assert flags == {FLAG_MINIMAL, FLAG_PAPER_RANGE}
    by_flag = {r.flag: r for r in roots}
    assert by_flag[FLAG_MINIMAL].r1_sq == pytest.approx(1 / 3, rel=1e-12)
    assert by_flag[FLAG_PAPER_RANGE].theorem_ok
    assert not by_flag[FLAG_PAPER_RANGE].proposition_ok


def test_clifford_argument_validation():
    with pytest.raises(ValueError, match="m1"):
        clifford_link_solver(4, 0)
    with pytest.raises(ValueError, match="m1"):
        clifford_link_solver(4, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 20), st.integers(1, 19))
def test_clifford_roots_satisfy_defining_identity(m, m1):
    if m1 >= m:
        m1 = m - 1
    for r in clifford_link_solver(m, m1):
        assert 0.0 < r.r1_sq < 1.0
        assert r.r2_sq == pytest.approx(1.0 - r.r1_sq, rel=1e-14)
        lhs = m1 / r.r1_sq + (m - m1) / r.r2_sq
        assert lhs == pytest.approx(4.0 * m - 6.0, rel=1e-12)
        assert r.shape_norm_sq == pytest.approx(
            clifford_shape_norm_sq(m1, m - m1, r.r1_sq), rel=1e-14)


# ---------------------------------------------------------------------------
# charts


def test_sphere_link_chart_stays_on_unit_sphere():
    chart = sphere_link_chart(3, 0.5)
    for p in chart.sample_points(default_count=3):
        fd = fundamental_data(chart, p)
        X = np.array([j.value for j in fd.position])
        assert X @ X == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r_sq, r_src, rest_src", [
    (Fraction(1, 3), "sqrt(1/3)", "sqrt(2/3)"),
    (0.25, "sqrt(0.25)", "sqrt(0.75)"),
], ids=["fraction", "float"])
def test_link_charts_spell_the_radius_sources(r_sq, r_src, rest_src):
    # an exact r^2 gives exact quotients, a float its repr
    sphere = sphere_link_chart(2, r_sq)
    want = [f"(cos(u1)*cos(u2))*{r_src}", f"(sin(u1)*cos(u2))*{r_src}",
            f"(sin(u2))*{r_src}", rest_src]
    assert list(sphere.components) == [parse_expression(c, ("u1", "u2")) for c in want]
    clifford = clifford_link_chart(1, 1, r_sq)
    want = [f"(cos(u1))*{r_src}", f"(sin(u1))*{r_src}",
            f"(cos(v1))*{rest_src}", f"(sin(v1))*{rest_src}"]
    assert list(clifford.components) == [parse_expression(c, ("u1", "v1")) for c in want]


def link_shape_values(chart):
    """(f, |A|^2) at each of the chart's default sample points."""
    sds = [shape_data_spherical(chart, p) for p in chart.sample_points(default_count=5)]
    return ([sd.mean_curvature.value for sd in sds],
            [sd.shape_norm_sq.value for sd in sds])


def test_link_summary_small_sphere():
    fs, norms = link_shape_values(sphere_link_chart(3, 0.5))
    assert [abs(f) for f in fs] == pytest.approx([1.0] * len(fs), rel=1e-10)
    assert norms == pytest.approx([3.0] * len(norms), rel=1e-10)


def test_link_summary_minimal_torus():
    fs, norms = link_shape_values(clifford_link_chart(1, 1, 0.5))
    assert max(abs(f) for f in fs) < 1e-12
    assert norms == pytest.approx([2.0] * len(norms), rel=1e-10)


def test_cmc_condition_tracks_shape_norm():
    # a^2 = m/(m + |A|^2), so |A|^2 = m(1 - a^2)/a^2 on S^m(a)
    m = 3
    for target in (3.0, 2.5, 3.5):
        a_sq = m / (m + target)
        _, norms = link_shape_values(sphere_link_chart(m, a_sq))
        assert norms == pytest.approx([m * (1 - a_sq) / a_sq] * len(norms), rel=1e-10)


def test_cone_shape_from_link_scales_like_one_over_t():
    sd = shape_data_spherical(sphere_link_chart(3, 0.5), (0.2, -0.1, 0.3))
    cs = cone_shape_from_link(sd, 2.0)
    assert cs.eigenvalues[0] == 0.0
    assert cs.eigenvalues[1:] == pytest.approx([0.5, 0.5, 0.5], rel=1e-10)
    assert cs.mean_curvature == pytest.approx(3.0 / 8.0, rel=1e-10)
    assert cs.shape_norm_sq == pytest.approx(0.75, rel=1e-10)
    with pytest.raises(ValueError, match="positive"):
        cone_shape_from_link(sd, 0.0)


def test_build_cone_chart_warped_metric_and_curvatures():
    link = sphere_link_chart(3, 0.5)
    cone = build_cone_chart(link)
    assert cone.variables == ("t", "u1", "u2", "u3")
    assert cone.ambient_dim == 5
    p = (0.2, -0.1, 0.3)
    t = 1.3
    g = fundamental_data(cone, (t,) + p).metric.value
    gbar = fundamental_data(link, p).metric.value
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    want[1:, 1:] = t * t * gbar
    assert np.max(np.abs(g - want)) < 1e-10

    sd_link = shape_data_spherical(link, p)
    sd_cone = shape_data_euclidean(cone, (t,) + p)
    assert sd_cone.mean_curvature.value == pytest.approx(
        (3.0 / 4.0) * sd_link.mean_curvature.value / t, rel=1e-9)
    assert sd_cone.shape_norm_sq.value == pytest.approx(
        sd_link.shape_norm_sq.value / (t * t), rel=1e-9)


def test_cone_over_correct_link_is_proper_biharmonic():
    cone = build_cone_chart(sphere_link_chart(3, 0.5), t_count=3)
    rep = hypersurface_residual(cone, points=[(0.7, 0.1, -0.2, 0.3),
                                              (1.0, 0.0, 0.2, -0.1),
                                              (1.6, -0.3, 0.1, 0.2)])
    assert rep.verdict == PROPER_BIHARMONIC


def test_residual_scales_like_t_to_minus_4():
    # wrong radius: nonzero residual with exact t^-4 homogeneity
    cone = build_cone_chart(sphere_link_chart(3, 0.64))
    p = (0.1, -0.2, 0.3)
    r1 = hypersurface_residual(cone, points=[(1.0,) + p]).max_residual
    r2 = hypersurface_residual(cone, points=[(2.0,) + p]).max_residual
    assert r1 > 1e-3
    assert r2 == pytest.approx(r1 / 16.0, rel=1e-6)


# ---------------------------------------------------------------------------
# cylinders over plane curves


def test_unit_speed_directrix():
    cyl = polynomial_curvature_cylinder((1.5, -0.2, 0.3))
    for s in (0.0, 0.4, -0.8):
        g = fundamental_data(cyl, (s, 0.2)).metric.value
        assert np.max(np.abs(g - np.eye(2))) < 1e-10


def test_constant_curvature_directrix_position_is_the_circle():
    # k = 2: the curve is (sin 2s / 2, (1 - cos 2s) / 2), radius 1/2; the
    # jets are defined past the chart's box s in [-1, 1]
    cyl = polynomial_curvature_cylinder((2.0,))
    for s in (-3.0, -1.0, -0.3, 0.0, 0.5, 1.0, 3.0):
        x, y, _ = (j.value for j in cyl.component_jets((s, 0.0), order=1))
        assert abs(x - math.sin(2 * s) / 2) <= 1e-13
        assert abs(y - (1 - math.cos(2 * s)) / 2) <= 1e-13


def test_cylinder_check_runs_without_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gausslab.cli\n"
        "from gausslab.biharmonic import hypersurface_residual\n"
        "from gausslab.hypercone import polynomial_curvature_cylinder\n"
        "rep = hypersurface_residual(polynomial_curvature_cylinder((1.0, 1.0, 1.0)),\n"
        "                            points=[(0.0, 0.0), (0.3, 0.1), (-0.5, 0.4)])\n"
        "print(rep.verdict)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PROPER_BIHARMONIC


def test_constant_curvature_cylinder_is_harmonic():
    rep = hypersurface_residual(polynomial_curvature_cylinder((2.0,)),
                                points=[(0.0, 0.2), (0.1, 0.5), (-0.2, 0.8)])
    assert rep.verdict == HARMONIC


def test_quadratic_curvature_cylinder_is_proper_biharmonic():
    rep = hypersurface_residual(
        polynomial_curvature_cylinder((1.0, 1.0, 1.0)),
        points=[(0.0, 0.0), (0.3, 0.1), (-0.5, 0.4)])
    assert rep.verdict == PROPER_BIHARMONIC


def test_cubic_curvature_cylinder_residual_norm():
    # k = s^3: the curvature terms cancel (A^2 grad f = |A|^2 grad f on a
    # cylinder) and the residual reduces to |k'''|/2 = 3
    rep = hypersurface_residual(polynomial_curvature_cylinder((0.0, 0.0, 0.0, 1.0)),
                                points=[(1.0, 0.0)])
    assert rep.verdict != PROPER_BIHARMONIC
    assert rep.max_residual == pytest.approx(3.0, rel=1e-6)


# ---------------------------------------------------------------------------
# composition energy


def test_composition_energy_examples():
    ce = composition_energy_check(3, 2.0)
    assert ce.energy == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert ce.laplacian == 0.0
    assert ce.laplacian_numeric == pytest.approx(0.0, abs=1e-9)
    assert ce.harmonic

    ce = composition_energy_check(4, 1.0)
    assert ce.laplacian == pytest.approx(4.0)
    assert ce.laplacian_numeric == pytest.approx(4.0, rel=1e-9)
    assert not ce.harmonic

    ce = composition_energy_check(3, 1.0)
    assert ce.energy == pytest.approx(1.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.floats(0.3, 3.0))
def test_composition_numeric_matches_closed_form(m, t):
    ce = composition_energy_check(m, t)
    assert ce.laplacian_numeric == pytest.approx(ce.laplacian, rel=1e-9,
                                                 abs=1e-9)
    assert ce.harmonic is (m == 3)


def test_composition_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        composition_energy_check(0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        composition_energy_check(3, 0.0)
