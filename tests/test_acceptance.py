"""Acceptance gate: eight end-to-end criteria, one test and one printed
PASS/FAIL line each. Run with -s to see the lines on success."""

import json
import math
import time

import numpy as np
import pytest

from gausslab.biharmonic import (
    HARMONIC,
    NOT_BIHARMONIC,
    PROPER_BIHARMONIC,
    GrassmannTangent,
    grassmann_curvature,
    hypersurface_residual,
    r4_obstruction,
)
from gausslab.cli import main as cli_main
from gausslab.exprjet import EvalContext, eval_jet, parse_expression
from gausslab.geometry import (
    chart_from_strings,
    fundamental_data,
    generalized_cylinder,
    shape_data_euclidean,
    shape_data_spherical,
)
from gausslab.hypercone import (
    build_cone_chart,
    clifford_link_solver,
    composition_energy_check,
    cone_shape_from_link,
    polynomial_curvature_cylinder,
    r3_ode_check,
    sphere_link_chart,
    sphere_link_solver,
)
from gausslab.isoparametric import (
    IsoparametricSpec,
    classify_type,
    shape_norm_squared,
    takagi_solver,
)

from conftest import central_partial


def _finish(n, budget, started, checks):
    elapsed = time.perf_counter() - started
    failed = [label for label, ok in checks if not ok]
    ok = not failed and elapsed < budget
    detail = f"{len(checks)} checks, {elapsed:.2f} s"
    if failed:
        detail += " — failed: " + ", ".join(failed)
    if elapsed >= budget:
        detail += f" — over budget {budget} s"
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_sphere_cone(capsys):
    t0 = time.perf_counter()
    checks = []

    code, payload = _cli_json(capsys, "solve", "sphere-cone", "--m", "3")
    res = payload["results"]
    checks.append(("exit 0", code == 0))
    checks.append(("a to 1e-12", abs(res["a"] - 1.0 / math.sqrt(2.0)) < 1e-12))
    checks.append(("|A|^2 = 3(m-2)", res["shape_norm_sq"] == 3.0
                   and res["identity_exact"] is True))

    code2, payload2 = _cli_json(capsys, "solve", "sphere-cone", "--m", "2")
    checks.append(("m=2 none", code2 == 0
                   and payload2["results"]["solution"] is None))

    pts = [(t, u1, u2, u3)
           for t in (0.6, 1.0, 1.5, 1.9)
           for u1 in (-0.3, 0.25) for u2 in (-0.3, 0.25)
           for u3 in (-0.3, 0.25)]
    assert len(pts) >= 32
    good = hypersurface_residual(build_cone_chart(sphere_link_chart(3, 0.5)),
                                 points=pts)
    checks.append(("cone verdict", good.verdict == PROPER_BIHARMONIC))
    checks.append(("cone rel residual < 1e-6",
                   good.max_residual / good.scale < 1e-6))

    bad = hypersurface_residual(build_cone_chart(sphere_link_chart(3, 0.64)),
                                points=pts)
    checks.append(("a=0.8 rel residual > 1e-2",
                   bad.max_residual / bad.scale > 1e-2))
    _finish(1, 60.0, t0, checks)


def test_criterion_2_cylinder_curvatures():
    t0 = time.perf_counter()
    checks = []
    pts = [(0.0, 0.0), (0.3, 0.2), (-0.5, 0.6), (0.8, -0.4)]

    quad = hypersurface_residual(polynomial_curvature_cylinder((1.0, 1.0, 1.0)),
                                 points=pts)
    checks.append(("quadratic verdict", quad.verdict == PROPER_BIHARMONIC))
    checks.append(("quadratic residual < 1e-8", quad.max_residual < 1e-8))

    cubic = hypersurface_residual(polynomial_curvature_cylinder((0.0, 0.0, 0.0, 1.0)),
                                  points=pts)
    norms = [p.residual_norm for p in cubic.points]
    checks.append(("cubic residual = 3 pointwise",
                   max(abs(r - 3.0) for r in norms) < 1e-6 * 3.0))
    checks.append(("cubic verdict", cubic.verdict == NOT_BIHARMONIC))

    const = hypersurface_residual(polynomial_curvature_cylinder((2.0,)),
                                  points=pts)
    checks.append(("constant verdict", const.verdict == HARMONIC))
    _finish(2, 5.0, t0, checks)


def test_criterion_3_isoparametric_tables():
    t0 = time.perf_counter()
    checks = []

    l3 = {q: classify_type(IsoparametricSpec.type3(q)) for q in range(4)}
    checks.append(("l3 q=0 count", len(l3[0]) == 0))
    checks.append(("l3 q=1 count", len(l3[1]) == 1))
    checks.append(("l3 q=1 minimal sqrt3",
                   l3[1][0].minimal
                   and abs(l3[1][0].k1 - math.sqrt(3.0)) < 1e-9))
    checks.append(("l3 q=2 count", len(l3[2]) == 2))
    checks.append(("l3 q=3 count", len(l3[3]) == 2))

    checks.append(("l4 (2,2) empty",
                   classify_type(IsoparametricSpec.type4(2, 2)) == []))
    checks.append(("l4 (4,5) empty",
                   classify_type(IsoparametricSpec.type4(4, 5)) == []))
    checks.append(("l6 empty",
                   classify_type(IsoparametricSpec.type6(1)) == []
                   and classify_type(IsoparametricSpec.type6(2)) == []))

    back = []
    for spec in (IsoparametricSpec.type3(2), IsoparametricSpec.type3(3)):
        target = 3.0 * (spec.m - 2)
        for r in classify_type(spec):
            back.append(abs(r.shape_norm_sq - target) <= 1e-9 * (1 + target))
    checks.append(("back-substitution 1e-9", all(back) and back))
    _finish(3, 5.0, t0, checks)


def test_criterion_4_takagi_family():
    t0 = time.perf_counter()
    checks = []

    sols = takagi_solver(9)
    got = sorted(s.sin_sq_2theta for s in sols)
    want = sorted([2.0 / 3.0, 7.0 / 11.0])
    checks.append(("n=9 roots to 1e-12",
                   len(got) == 2
                   and max(abs(a - b) for a, b in zip(got, want)) < 1e-12))
    checks.append(("discriminant exactly 1",
                   4 * 81 - 44 * 9 + 73 == 1
                   and all(s.exact is not None for s in sols)))
    checks.append(("n=5,7 empty", takagi_solver(5) == [] and takagi_solver(7) == []))
    checks.append(("non-minimal", all(not s.minimal for s in sols)))
    _finish(4, 1.0, t0, checks)


def test_criterion_5_clifford_cones():
    t0 = time.perf_counter()
    checks = []

    roots = clifford_link_solver(4, 1)
    vals = sorted(r.r1_sq for r in roots)
    want = sorted([(8 - math.sqrt(24)) / 20, (8 + math.sqrt(24)) / 20])
    checks.append(("m=4 roots", len(roots) == 2
                   and max(abs(a - b) for a, b in zip(vals, want)) < 1e-12))
    idents = [abs(1.0 / r.r1_sq + 3.0 / r.r2_sq - 10.0) for r in roots]
    checks.append(("identity to 1e-12", max(idents) < 1e-12))
    checks.append(("|A|^2 = 6",
                   max(abs(r.shape_norm_sq - 6.0) for r in roots) < 1e-12))

    m3_flags = {r.flag for r in clifford_link_solver(3, 1)}
    checks.append(("m=3 paper-range conflict", "paper-range conflict" in m3_flags))
    _finish(5, 1.0, t0, checks)


_CORPUS_20 = (
    "sin(u)*cos(v)", "exp(u - v^2)", "sqrt(4 + u^2 + v^2)", "u/(2 + cos(v))",
    "log(3 + sin(u*v))", "atan(u) + tan(v/2)", "cosh(u)*sinh(v)",
    "tanh(u*v) + 1", "u^3 - 2*u*v + v^2", "cos(u*v)/(2 + sin(u))",
    "exp(sin(u) + cos(v))", "asin(u/2) + acos(v/2)", "1/(1 + u^2 + v^2)",
    "u*exp(-v^2)", "sin(u)^2 + cos(u)^2 + v", "sqrt(1 + sin(u*v)^2)",
    "(u + v)^4", "log(2 + u^2)*cos(v)", "atan(u*v) - u/3",
    "sinh(u)/(3 + cosh(v))",
)


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(20260814)

    # (a) jets vs central differences over the 20-expression corpus
    worst = 0.0
    for src in _CORPUS_20:
        ast = parse_expression(src, ("u", "v"))
        u, v = rng.uniform(-0.7, 0.7, size=2)
        jet = eval_jet(ast, EvalContext((u, v), order=2))

        def value(p, ast=ast):
            return eval_jet(ast, EvalContext(tuple(p), order=0)).value

        for i, alpha in ((0, (1, 0)), (1, (0, 1))):
            fd = central_partial(value, (u, v), i)
            err = abs(jet.partial(alpha) - fd) / (1.0 + abs(fd))
            worst = max(worst, err)
    checks.append((f"(a) AD vs FD {worst:.1e}", worst < 1e-6))

    # (b) orientation parity and verdict invariance on 10 random charts
    parity_ok = True
    for _ in range(10):
        c = rng.uniform(-0.6, 0.6, size=5)
        expr = (f"({c[0]})*u^2 + ({c[1]})*u*v + ({c[2]})*v^2"
                f" + ({c[3]})*u^3 + ({c[4]})*v^3")
        chart = chart_from_strings("rand", ("u", "v"), ("u", "v", expr),
                                   ((-0.7, 0.7), (-0.7, 0.7)))
        pts = [(0.1, -0.2), (0.0, 0.3), (-0.4, 0.25)]
        plus = hypersurface_residual(chart, points=pts, orientation=1)
        minus = hypersurface_residual(chart, points=pts, orientation=-1)
        parity_ok &= plus.verdict == minus.verdict
        for a, b in zip(plus.points, minus.points):
            parity_ok &= abs(a.f + b.f) <= 1e-10 * (1 + abs(a.f))
            parity_ok &= abs(a.residual_norm - b.residual_norm) <= 1e-8 * (
                1 + a.residual_norm)
    checks.append(("(b) orientation parity", parity_ok))

    # (c) generalized cylinder: residuals match after undoing the
    # mean-curvature normalization m/(m+1)
    base = chart_from_strings("bump", ("u", "v"),
                              ("u", "v", "u^2 - v^2 + u*v^2"),
                              ((-0.8, 0.8), (-0.8, 0.8)))
    cyl = generalized_cylinder(base)
    cyl_ok = True
    for p in [(0.3, -0.2), (0.1, 0.4), (-0.5, 0.2)]:
        rb = hypersurface_residual(base, points=[p])
        rc = hypersurface_residual(cyl, points=[(0.4,) + p])
        scaled = rc.max_residual * 3.0 / 2.0
        cyl_ok &= abs(scaled - rb.max_residual) <= 1e-8 * (1 + rb.max_residual)
        cyl_ok &= rb.verdict == rc.verdict
    checks.append(("(c) cylinder invariance", cyl_ok))

    # (d) Grassmann curvature symmetries
    g_ok = True
    r1 = GrassmannTangent.rank_one((1.0, 0.0), (1.0,))
    r2 = GrassmannTangent.rank_one((0.0, 1.0), (1.0,))
    out = grassmann_curvature(r1, r2, r2)
    g_ok &= np.array_equal(out.matrix, r1.matrix) and out.inner(r1) == 1.0
    for _ in range(20):
        a, b, c, d = (GrassmannTangent(rng.uniform(-1, 1, size=(2, 3)))
                      for _ in range(4))
        g_ok &= np.array_equal(grassmann_curvature(a, b, c).matrix,
                               -grassmann_curvature(b, a, c).matrix)
        lhs = grassmann_curvature(a, b, c).inner(d)
        rhs = grassmann_curvature(c, d, a).inner(b)
        g_ok &= abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))
        bianchi = (grassmann_curvature(a, b, c).matrix
                   + grassmann_curvature(b, c, a).matrix
                   + grassmann_curvature(c, a, b).matrix)
        g_ok &= np.max(np.abs(bianchi)) <= 1e-12 * (
            1.0 + np.max(np.abs(grassmann_curvature(a, b, c).matrix)))
    checks.append(("(d) Grassmann symmetries", g_ok))

    # (e) closed form vs direct curvature sums, 200 random theta per type
    specs = {1: IsoparametricSpec.type1(5), 2: IsoparametricSpec.type2(2, 3),
             3: IsoparametricSpec.type3(3), 4: IsoparametricSpec.type4(4, 5),
             6: IsoparametricSpec.type6(2)}
    norm_ok = True
    for ell, spec in specs.items():
        thetas = rng.uniform(0.02, 0.98, size=200) * math.pi / ell
        for theta in thetas:
            try:
                sn = shape_norm_squared(spec, theta)
            except ValueError:
                continue
            norm_ok &= abs(sn.closed - sn.direct) <= 1e-9 * (1 + abs(sn.closed))
    checks.append(("(e) closed vs direct", norm_ok))

    # (f) warped-product chart against the 1/t formulas
    link = sphere_link_chart(3, 0.5)
    cone = build_cone_chart(link)
    p = (0.2, -0.1, 0.3)
    sd_link = shape_data_spherical(link, p)
    warp_ok = True
    for t in (0.5, 1.0, 2.0):
        sd_cone = shape_data_euclidean(cone, (t,) + p)
        formula = cone_shape_from_link(sd_link, t)
        warp_ok &= abs(sd_cone.mean_curvature.value
                       - formula.mean_curvature) <= 1e-8
        warp_ok &= abs(sd_cone.shape_norm_sq.value
                       - formula.shape_norm_sq) <= 1e-8
        eigs = np.sort(np.linalg.eigvals(sd_cone.shape_operator.value).real)
        warp_ok &= np.max(np.abs(eigs - np.sort(formula.eigenvalues))) <= 1e-8
    checks.append(("(f) warped-product agreement", warp_ok))

    # (g) residual homogeneity t^-4 on a wrong-radius cone
    off = build_cone_chart(sphere_link_chart(3, 0.64))
    q = (0.1, -0.2, 0.3)
    r1v = hypersurface_residual(off, points=[(1.0,) + q]).max_residual
    r2v = hypersurface_residual(off, points=[(2.0,) + q]).max_residual
    checks.append(("(g) t^-4 homogeneity",
                   abs(r2v - r1v / 16.0) <= 1e-6 * r1v))
    _finish(6, 120.0, t0, checks)


def test_criterion_7_nonexistence_checks(capsys):
    t0 = time.perf_counter()
    checks = []

    code, payload = _cli_json(capsys, "check", "cone-r3")
    cert = payload["results"]["certificate"]
    checks.append(("r3 exit 0", code == 0))
    checks.append(("r3 elimination line",
                   any("k' * k^2 = 0" in line or "k' k^2 = 0" in line
                       for line in cert["eliminations"])))
    checks.append(("r3 conclusion", "k == 0" in cert["conclusion"]))
    checks.append(("r3 trivial only",
                   payload["results"]["only_trivial_consistent"] is True))
    checks.append(("r3 probes",
                   r3_ode_check(0.0, 0.0).consistent
                   and not r3_ode_check(1.0, 0.5).consistent))

    torus = chart_from_strings(
        "torus", ("u", "v"),
        ("0.8*cos(u)", "0.8*sin(u)", "0.6*cos(v)", "0.6*sin(v)"),
        ((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)), ambient="sphere")
    r4 = r4_obstruction(torus)
    checks.append(("r4 laplacian integral",
                   abs(r4.integral_laplacian) < 1e-8 * max(r4.area, 1.0)))
    checks.append(("r4 weighted integral", r4.integral_weighted_f > 0.0))
    checks.append(("r4 holds", r4.obstruction_holds))
    _finish(7, 10.0, t0, checks)


def test_criterion_8_composition_cross_check():
    t0 = time.perf_counter()
    checks = []
    agree = True
    harmonic_iff = True
    for m in (2, 3, 4, 5):
        for t in (0.5, 1.0, 2.0):
            ce = composition_energy_check(m, t)
            agree &= abs(ce.laplacian_numeric - ce.laplacian) <= 1e-9 * (
                1.0 + abs(ce.laplacian))
            harmonic_iff &= ce.harmonic is (m == 3)
            harmonic_iff &= (ce.laplacian == 0.0) is (m == 3)
    checks.append(("laplacian to 1e-9", agree))
    checks.append(("harmonic iff m=3", harmonic_iff))
    _finish(8, 1.0, t0, checks)
