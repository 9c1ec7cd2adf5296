#!/usr/bin/env python3
"""Verdict table for a gallery of cones and cylinders: every catalog cone of
`report --all` with link dimension m <= 7 (sphere links m = 3..7, valid
Clifford roots m = 4..7) should come out ProperBiharmonicGauss, the
wrong-radius controls should not. Exits 1 when a row has the wrong verdict.

With --full it also runs the link system on the rest of the catalog: every
sphere link and valid Clifford root of `report --all` with 8 <= m <= 12 (95
rows), at two fixed interior points each, next to wrong-radius sphere
controls at m = 8 and m = 12. Budget: 30 s wall and 90 MB peak RSS on a
2-core x86-64 machine, the m <= 7 rows included; measured 2.2-2.7 s and
72 MB. Every sweep runs in this process, in batched jet passes.

Usage: python3 scripts/verify_cone_gallery.py [--full]
"""

import argparse
import sys

from gausslab.biharmonic import (
    PROPER_BIHARMONIC,
    hypersurface_residual,
    link_residual_system,
)
from gausslab.hypercone import (
    build_cone_chart,
    clifford_link_chart,
    clifford_link_solver,
    polynomial_curvature_cylinder,
    sphere_link_chart,
    sphere_link_solver,
)


def cone_points(dim, t_values=(0.6, 1.0, 1.6)):
    """Corners of a box at three radii up to cone dimension 5; three fixed
    points above that, where the corner count doubles with each dimension."""
    if dim >= 6:
        return [(t,) + tuple(x * (-1) ** (i + k) for i in range(dim - 1))
                for k, (t, x) in enumerate(zip(t_values, (-0.3, 0.25, 0.15)))]
    box = [(-0.3, 0.25)] * (dim - 1)
    pts = [()]
    for lo_hi in box:
        pts = [p + (x,) for p in pts for x in lo_hi]
    return [(t,) + p for t in t_values for p in pts]


def cone_row(label, link, proper):
    cone = build_cone_chart(link, t_count=3)
    rep = hypersurface_residual(cone, points=cone_points(cone.dim))
    return label, rep.verdict, rep.max_residual, (rep.verdict == PROPER_BIHARMONIC) == proper


def link_row(label, link, proper, points=None):
    rep = link_residual_system(link, points=points)
    return (label, rep.verdict, max(rep.max_vector_residual, rep.max_scalar_residual),
            (rep.verdict == PROPER_BIHARMONIC) == proper)


def interior_points(chart):
    """Two fixed points inside the chart's box, off its centre and corners."""
    return [tuple(lo + (hi - lo) * (0.35 if (i + k) % 2 else 0.6)
                  for i, (lo, hi) in enumerate(chart.domain)) for k in range(2)]


def full_rows():
    """Link-system rows for every catalog link with 8 <= m <= 12."""
    rows = []
    for m in range(8, 13):
        sol = sphere_link_solver(m)
        link = sphere_link_chart(m, sol.a_sq_exact)
        rows.append(link_row(f"link S^{m}(sqrt({sol.a_sq_exact}))", link, True,
                             interior_points(link)))
    # controls: wrong sphere radius
    for m in (8, 12):
        link = sphere_link_chart(m, 0.5)
        rows.append(link_row(f"link S^{m}(sqrt(0.5))", link, False, interior_points(link)))
    for m in range(8, 13):
        for m1 in range(1, m):
            for root in clifford_link_solver(m, m1):
                if root.flag == "valid":
                    link = clifford_link_chart(m1, m - m1, root.r1_sq)
                    rows.append(link_row(f"link S^{m1} x S^{m - m1}, r1^2={root.r1_sq:.6f}",
                                         link, True, interior_points(link)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="also run the link system on the catalog links with 8 <= m <= 12")
    args = parser.parse_args(argv)
    rows = []

    for m in range(3, 8):
        sol = sphere_link_solver(m)
        rows.append(cone_row(f"cone over S^{m}(sqrt({sol.a_sq_exact}))",
                             sphere_link_chart(m, sol.a_sq_exact), True))

    # controls: wrong sphere radius
    rows.append(cone_row("cone over S^3(0.8)", sphere_link_chart(3, 0.64), False))
    rows.append(cone_row("cone over S^7(sqrt(0.5))", sphere_link_chart(7, 0.5), False))

    for m in range(4, 8):
        for m1 in range(1, m):
            for root in clifford_link_solver(m, m1):
                if root.flag != "valid":
                    continue
                rows.append(cone_row(
                    f"cone over S^{m1} x S^{m - m1}, r1^2={root.r1_sq:.6f}",
                    clifford_link_chart(m1, m - m1, root.r1_sq), True))

    # link-level confirmation for the first Clifford case
    link = clifford_link_chart(1, 3, clifford_link_solver(4, 1)[0].r1_sq)
    rows.append(link_row("  link system for S^1 x S^3", link, True))

    cyl_pts = [(0.0, 0.0), (0.4, 0.3), (-0.6, -0.2)]
    for coeffs, label, proper in (((1.0, 1.0, 1.0), "cylinder, k = 1 + s + s^2", True),
                                  ((2.0,), "cylinder, k = 2", False),
                                  ((0.0, 0.0, 0.0, 1.0), "cylinder, k = s^3", False)):
        rep = hypersurface_residual(polynomial_curvature_cylinder(coeffs),
                                    points=cyl_pts)
        rows.append((label, rep.verdict, rep.max_residual,
                     (rep.verdict == PROPER_BIHARMONIC) == proper))
    if args.full:
        rows += full_rows()

    width = max(len(r[0]) for r in rows)
    print(f"{'surface':<{width}}  {'verdict':<22}  max residual")
    for name, verdict, res, ok in rows:
        print(f"{name:<{width}}  {verdict:<22}  {res:.3e}{'' if ok else '  UNEXPECTED'}")
    wrong = sum(1 for r in rows if not r[3])
    if wrong:
        print(f"{wrong} row(s) with an unexpected verdict", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
