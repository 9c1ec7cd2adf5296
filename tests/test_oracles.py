"""Closed-form oracles for the residual pipeline: the accuracy contract.

A kernel may add its terms in any order, so outputs are judged by their
error against closed forms, not by the bits of an earlier kernel. On the
sphere and Clifford links in the unit sphere, their cones and the curvature
cylinders, f, |A|^2 and |grad f| are known exactly, and on every catalog row
the residual is exactly 0. Each error is measured in units of eps * S, with
S = max(1, |A|^2, scale_term) the row's scale: the residual's term
magnitudes, floored at the squared curvature and at the unit sphere's, as
the residual terms all vanish on a link.

The gate compares with `RECORDED`, the errors of the product kernel that
added every sum in a fixed order, before the degree-blocked `contract`:
- no error of a row grows past twice its recorded value, or past 16 units
  where that is more. Reordering a sum re-draws its roundoff, and the
  maximum over two points is noisy: over 40 random points per row, the
  recorded kernel's own residual errors reach 13.5 units on the m = 4
  sphere cone and 12.2 on the m = 5, m1 = 2 Clifford link, whose two-point
  records are 2.9 and 3.3.
- the sum of each error over all rows grows by no more than half.

Run as a script to print the table of errors (maxima over each row's
points): PYTHONPATH=src python tests/test_oracles.py
"""

import math

import numpy as np
import pytest

from gausslab.biharmonic import NOT_BIHARMONIC, hypersurface_residual, link_residual_system
from gausslab.geometry import chart_from_strings, shape_data_spherical
from gausslab.hypercone import (
    build_cone_chart,
    clifford_link_chart,
    clifford_link_solver,
    polynomial_curvature_cylinder,
    sphere_link_chart,
    sphere_link_solver,
)
from gausslab.isoparametric import (
    IsoparametricSpec,
    classify_type,
    principal_curvatures,
    shape_norm_squared,
)

EPS = np.finfo(float).eps


def _interior_points(chart):
    """Two fixed points inside the chart's box, off its centre and corners."""
    return [tuple(lo + (hi - lo) * (0.35 if (i + k) % 2 else 0.6)
                  for i, (lo, hi) in enumerate(chart.domain)) for k in range(2)]


def _sphere_link(m):
    a_sq = sphere_link_solver(m).a_sq_exact
    k_sq = (1.0 - float(a_sq)) / float(a_sq)  # every principal curvature is k
    return sphere_link_chart(m, a_sq), math.sqrt(k_sq), m * k_sq


def _clifford_link(m, m1):
    root = next(r for r in clifford_link_solver(m, m1) if r.flag == "valid")
    r1_sq, m2 = float(root.r1_sq), m - m1
    # principal curvatures r2/r1 (m1 times) and -r1/r2 (m2 times)
    ratio_sq = (1.0 - r1_sq) / r1_sq
    f = (m1 * math.sqrt(ratio_sq) - m2 / math.sqrt(ratio_sq)) / m
    return (clifford_link_chart(m1, m2, root.r1_sq), abs(f),
            m1 * ratio_sq + m2 / ratio_sq)


def _link_row(chart, f, shape_sq):
    report = link_residual_system(chart, points=_interior_points(chart))
    return [(r, f, shape_sq, 0.0,
             max(r.residual_norm, abs(r.scalar_residual))) for r in report.points]


def _cone_row(link, f, shape_sq):
    # at radius t the cone has the link's curvatures over t and a zero one,
    # so f = m f_link / ((m + 1) t), a function of the radius alone
    m = link.dim
    cone = build_cone_chart(link)
    points = [(t,) + p for t, p in zip((0.6, 1.6), _interior_points(link))]
    report = hypersurface_residual(cone, points=points)
    rows = []
    for r, (t, *_) in zip(report.points, points):
        cone_f = m * f / ((m + 1) * t)
        rows.append((r, cone_f, shape_sq / t ** 2, cone_f / t, r.residual_norm))
    return rows


def _cylinder_row(k_coeffs, biharmonic):
    # a plane curve of curvature k(s) times a line: f = k / 2, |A|^2 = k^2
    # and |grad f| = |k'(s)| / 2, with s the first chart variable
    k = np.polynomial.Polynomial(k_coeffs)
    points = [(0.0, 0.0), (0.4, 0.3), (-0.6, -0.2)]
    report = hypersurface_residual(polynomial_curvature_cylinder(k_coeffs),
                                   points=points)
    return [(r, abs(k(s)) / 2, k(s) ** 2, abs(k.deriv()(s)) / 2,
             r.residual_norm if biharmonic else None)
            for r, (s, _) in zip(report.points, points)]


def _rows():
    """Label and builder of every oracle row."""
    rows = [(f"sphere link m={m}", lambda m=m: _link_row(*_sphere_link(m)))
            for m in range(3, 13)]
    for m in range(4, 13):
        for m1 in sorted({1, m // 2}):
            rows.append((f"clifford link m={m} m1={m1}",
                         lambda m=m, m1=m1: _link_row(*_clifford_link(m, m1))))
    rows += [(f"sphere cone m={m}", lambda m=m: _cone_row(*_sphere_link(m)))
             for m in range(3, 8)]
    rows += [(f"clifford cone m={m} m1={m1}",
              lambda m=m, m1=m1: _cone_row(*_clifford_link(m, m1)))
             for m, m1 in ((4, 1), (5, 2), (6, 3), (7, 3))]
    rows += [(f"cylinder k={k}", lambda k=k, b=b: _cylinder_row(k, b))
             for k, b in (((1.0, 1.0, 1.0), True), ((2.0,), True),
                          ((0.0, 0.0, 0.0, 1.0), False), ((0.0, 1.0), False))]
    return rows


ROWS = _rows()


def oracle_units(build) -> tuple:
    """The largest error over a row's points of f, |A|^2, |grad f| and the
    residual (None where it has no closed form), in units of eps * S."""
    worst = [0.0, 0.0, 0.0, None]
    for r, f, shape_sq, grad, residual in build():
        assert r.ok, r.error
        unit = EPS * max(1.0, shape_sq, r.scale_term)
        errors = (abs(abs(r.f) - f), abs(r.shape_norm_sq - shape_sq),
                  abs(r.grad_f_norm - grad), residual)
        worst = [w if e is None else max(w or 0.0, e / unit) for w, e in zip(worst, errors)]
    return tuple(worst)


# errors in units of eps * S before the degree-blocked kernel, as printed by
# this file run as a script on that tree
RECORDED = {
    'sphere link m=3': (0.5, 3.33, 0.2, 7.82),
    'sphere link m=4': (0.167, 0.667, 0.167, 3.66),
    'sphere link m=5': (0.111, 0.889, 0.138, 5.08),
    'sphere link m=6': (0.25, 3.33, 0.14, 12.9),
    'sphere link m=7': (0.0667, 1.07, 0.0714, 12.6),
    'sphere link m=8': (0.111, 1.78, 0.154, 4.33),
    'sphere link m=9': (0.19, 5.33, 0.095, 12),
    'sphere link m=10': (0.0417, 2.67, 0.108, 9.18),
    'sphere link m=11': (0.111, 2.37, 0.0884, 8.75),
    'sphere link m=12': (0.1, 2.13, 0.0856, 8.53),
    'clifford link m=4 m1=1': (0.25, 2, 0.173, 6.7),
    'clifford link m=4 m1=2': (0.0833, 1.33, 0.134, 7.45),
    'clifford link m=5 m1=1': (0.139, 3.56, 0.0406, 9.48),
    'clifford link m=5 m1=2': (0.0556, 0, 0.0938, 3.28),
    'clifford link m=6 m1=1': (0.0208, 1.33, 0.00996, 9.13),
    'clifford link m=6 m1=3': (0.0833, 1.33, 0.0741, 6.86),
    'clifford link m=7 m1=1': (0.117, 2.13, 0.0124, 8.98),
    'clifford link m=7 m1=3': (0, 1.07, 0.072, 5.26),
    'clifford link m=8 m1=1': (0.0417, 3.56, 0.0956, 4.78),
    'clifford link m=8 m1=4': (0.139, 3.56, 0.0744, 4.8),
    'clifford link m=9 m1=1': (0.0595, 0.762, 0.074, 5.63),
    'clifford link m=9 m1=4': (0.0476, 1.52, 0.0378, 6.65),
    'clifford link m=10 m1=1': (0.0313, 1.33, 0.0111, 10.8),
    'clifford link m=10 m1=5': (0.0208, 4, 0.104, 4.76),
    'clifford link m=11 m1=1': (0.0278, 1.19, 0.0824, 15.2),
    'clifford link m=11 m1=5': (0.0185, 2.96, 0.0471, 5.67),
    'clifford link m=12 m1=1': (0.025, 1.6, 0.0533, 13.8),
    'clifford link m=12 m1=6': (0.05, 3.2, 0.0512, 5.55),
    'sphere cone m=3': (0.853, 3.41, 1.07, 11.2),
    'sphere cone m=4': (0.022, 0.176, 0.32, 2.91),
    'sphere cone m=5': (0.00644, 2.28, 0, 4.63),
    'sphere cone m=6': (0.00891, 0.853, 0.0535, 3.89),
    'sphere cone m=7': (0.0853, 2.05, 0.0853, 5.54),
    'clifford cone m=4 m1=1': (0.16, 1.71, 0.0515, 20.9),
    'clifford cone m=5 m1=2': (0.142, 2.28, 0.249, 2.29),
    'clifford cone m=6 m1=3': (0.16, 0.57, 0.0533, 5.16),
    'clifford cone m=7 m1=3': (0.0853, 2.05, 0.064, 2.7),
    'cylinder k=(1.0, 1.0, 1.0)': (0, 0, 0.822, 6.57),
    'cylinder k=(2.0,)': (0, 0, 0.25, 3),
    'cylinder k=(0.0, 0.0, 0.0, 1.0)': (0.0207, 0.0103, 0.0417, None),
    'cylinder k=(0.0, 1.0)': (0.25, 0.5, 0.25, None),
}


_NAMES = ("f", "|A|^2", "|grad f|", "residual")


@pytest.fixture(scope="module")
def units():
    return {label: oracle_units(build) for label, build in ROWS}


@pytest.mark.parametrize("label", [label for label, _ in ROWS])
def test_oracle_errors_stay_within_twice_the_recorded(units, label):
    for name, got, before in zip(_NAMES, units[label], RECORDED[label]):
        if before is None:
            assert got is None, name
        else:
            assert got <= max(2.0 * before, 16.0), (name, got, before)


def test_oracle_error_sums_grow_by_no_more_than_half(units):
    assert sorted(units) == sorted(RECORDED)
    for i, name in enumerate(_NAMES):
        got = sum(u[i] for u in units.values() if u[i] is not None)
        before = sum(u[i] for u in RECORDED.values() if u[i] is not None)
        assert got <= 1.5 * before, (name, got, before)


# ---------------------------------------------------------------------------
# an explicit orbit chart against the isoparametric closed forms


def cartan_chart(t):
    """Cartan's (1,1,1) family in S^4: R diag(d1, d2, d3) R^T with
    d_j = sqrt(2/3) cos(t - 2 pi j / 3) and R = R_z(a) R_y(b) R_z(c), a
    traceless symmetric matrix of unit norm, written in the orthonormal basis
    (e11 - e22)/sqrt(2), (e11 + e22 - 2 e33)/sqrt(6) and (e_ij + e_ji)/sqrt(2),
    i < j. The ZYZ angles are a chart of SO(3) away from b = 0 and pi."""
    R = (("cos(a)*cos(b)*cos(c) - sin(a)*sin(c)", "-cos(a)*cos(b)*sin(c) - sin(a)*cos(c)",
          "cos(a)*sin(b)"),
         ("sin(a)*cos(b)*cos(c) + cos(a)*sin(c)", "-sin(a)*cos(b)*sin(c) + cos(a)*cos(c)",
          "sin(a)*sin(b)"),
         ("-sin(b)*cos(c)", "sin(b)*sin(c)", "cos(b)"))
    d = [math.sqrt(2 / 3) * math.cos(t - 2 * math.pi * j / 3) for j in (1, 2, 3)]
    M = [[" + ".join(f"{d[k]!r}*({R[i][k]})*({R[j][k]})" for k in range(3))
          for j in range(3)] for i in range(3)]
    components = (f"(({M[0][0]}) - ({M[1][1]}))/sqrt(2)",
                  f"(({M[0][0]}) + ({M[1][1]}) - 2*({M[2][2]}))/sqrt(6)",
                  *(f"sqrt(2)*({M[i][j]})" for i, j in ((0, 1), (0, 2), (1, 2))))
    return chart_from_strings(f"cartan(t={t})", ("a", "b", "c"), components,
                              ((0.2, 1.2), (0.4, 1.3), (0.3, 1.1)), ambient="sphere")


@pytest.mark.parametrize("t", [0.15, 0.4, 0.7, 0.9])
def test_cartan_family_matches_the_type_3_closed_forms(t):
    chart, theta, spec = cartan_chart(t), math.pi / 3 - t, IsoparametricSpec.type3(0)
    k = np.array(principal_curvatures(3, theta).values)
    norm_sq = shape_norm_squared(spec, theta).closed
    for point in _interior_points(chart):
        sd = shape_data_spherical(chart, point)
        eigenvalues = np.sort(np.linalg.eigvals(sd.shape_operator.value).real)
        error = min(np.abs(eigenvalues - np.sort(sign * k)).max() for sign in (1, -1))
        assert error <= 1e-12 * np.abs(k).max(), (point, eigenvalues, k)
        assert abs(sd.shape_norm_sq.value - norm_sq) <= 1e-12 * norm_sq
    # the condition |A|^2 = 3m - 6 has no root on the family
    assert classify_type(spec) == []
    report = link_residual_system(chart)
    assert len(report.points) == 125 and report.failed_points == 0
    assert report.verdict == NOT_BIHARMONIC


# ---------------------------------------------------------------------------
# a metamorphic check: scaling the ambient


def _cubic_graph(dim, rng, scale=None):
    """The graph of a cubic polynomial with seeded coefficients over a small
    box, each component multiplied by `scale` where one is given."""
    names = tuple(f"x{i + 1}" for i in range(dim))
    poly = " + ".join(f"({rng.uniform(-0.8, 0.8)})*{x}^2 + ({rng.uniform(-0.4, 0.4)})*{x}^3"
                      f" + ({rng.uniform(-0.8, 0.8)})*{x}*{names[(i + 1) % dim]}"
                      for i, x in enumerate(names))
    components = names + (poly,)
    if scale is not None:
        components = tuple(f"{scale}*({c})" for c in components)
    return chart_from_strings(f"graph{dim}", names, components, [(-0.5, 0.5)] * dim)


@pytest.mark.parametrize("dim", range(2, 7))
def test_scaling_the_ambient_by_two_scales_the_residual_exactly(dim):
    # X -> 2 X takes g to 4 g, A to A / 2, f and the Laplacian to f / 2 and
    # Delta / 4, so grad f = g^-1 df to grad f / 8 and each term of R to
    # R / 32, and |R|_g to |R|_g / 16. Scaling by a power of two is exact in
    # every operation, so the ratios are exact.
    chart, scaled = (_cubic_graph(dim, np.random.default_rng(dim), scale) for scale in (None, 2))
    points = [tuple(p) for p in np.random.default_rng(20261021).uniform(-0.3, 0.3, (3, dim))]
    rows, scaled_rows = (hypersurface_residual(c, points=points).points for c in (chart, scaled))
    for row, scaled_row in zip(rows, scaled_rows):
        assert row.ok and scaled_row.ok and row.residual_norm > 0.0
        assert scaled_row.residual == tuple(r / 32 for r in row.residual)
        assert scaled_row.residual_norm == row.residual_norm / 16


if __name__ == "__main__":
    for label, build in ROWS:
        units = oracle_units(build)
        print(f"    {label!r}: ({', '.join('None' if u is None else f'{u:.3g}' for u in units)}),")
