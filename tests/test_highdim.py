"""Checks at the chart dimensions the catalog needs (5 to 8): the projection
normal and the shape operator against an independent numeric path, the
orientation parity, and every catalog cone with m <= 7 pointwise, with the
link system's verdict against the cone's; and the bound on the jet-table
caches over a sweep to dimension 12, which hold one link residual's tables
up to dimension 14."""

from collections import OrderedDict

import numpy as np
import pytest

from gausslab.biharmonic import (
    NOT_BIHARMONIC,
    PROPER_BIHARMONIC,
    hypersurface_residual,
    link_residual_system,
)
from gausslab.exprjet import _TABLES
from gausslab.geometry import (
    chart_from_strings,
    fundamental_data,
    shape_data_euclidean,
    shape_data_spherical,
)
from gausslab.hypercone import (
    build_cone_chart,
    clifford_link_chart,
    clifford_link_solver,
    sphere_link_chart,
    sphere_link_solver,
)

from conftest import central_partial


def _random_graph(dim, rng):
    """Graph of a cubic polynomial with seeded coefficients over a small box."""
    names = tuple(f"x{i + 1}" for i in range(dim))
    terms = []
    for i in range(dim):
        terms.append(f"({rng.uniform(-0.8, 0.8)})*{names[i]}^2")
        terms.append(f"({rng.uniform(-0.4, 0.4)})*{names[i]}^3")
        j = (i + 1) % dim
        terms.append(f"({rng.uniform(-0.8, 0.8)})*{names[i]}*{names[j]}")
    poly = " + ".join(terms)
    return chart_from_strings(f"graph{dim}", names, names + (poly,),
                              [(-0.5, 0.5)] * dim)


def _charts():
    rng = np.random.default_rng(20261018)
    charts = [(_random_graph(dim, rng), tuple(rng.uniform(-0.3, 0.3, dim)))
              for dim in (5, 5, 6, 6)]
    charts.append((clifford_link_chart(3, 4, 0.4), (0.2, -0.1, 0.15, 0.1, -0.2, 0.05, 0.3)))
    return charts


CHARTS = _charts()
IDS = [f"{c.name}" for c, _ in CHARTS]


def _shape(chart, point, orientation=1):
    shape = shape_data_euclidean if chart.ambient == "euclidean" else shape_data_spherical
    return shape(chart, point, orientation)


def _frame(chart, point):
    """Value rows of the frame whose Hodge dual orients the normal: the
    tangents, with the position first on a sphere chart."""
    jets = chart.component_jets(point, order=1)
    rows = [[j.derivative(i).value for j in jets] for i in range(chart.dim)]
    if chart.ambient == "sphere":
        rows = [[j.value for j in jets]] + rows
    return np.array(rows)


def _svd_normal(chart, point):
    """Numeric unit normal from an SVD of the frame, oriented like the
    Hodge dual: an independent path from the jet normal."""
    frame = _frame(chart, point)
    n = np.linalg.svd(frame)[2][-1]
    return n if np.linalg.det(np.vstack([n, frame])) > 0.0 else -n


@pytest.mark.parametrize("chart, point", CHARTS, ids=IDS)
def test_normal_is_unit_orthogonal_and_oriented(chart, point):
    sd = _shape(chart, point)
    n = np.array([c.value for c in sd.normal])
    frame = _frame(chart, point)
    assert abs(n @ n - 1.0) < 1e-12
    assert np.max(np.abs(frame @ n)) < 1e-12
    assert np.linalg.det(np.vstack([n, frame])) > 0.0
    # and as jets: every Taylor coefficient of <n, n> - 1, <n, X_i> and, on a
    # sphere, <n, X> vanishes to the normal's order
    fd = fundamental_data(chart, point)
    rows = list(fd.frame) + ([fd.position] if chart.ambient == "sphere" else [])
    products = [sum((a * b for a, b in zip(sd.normal, row)), 0.0) for row in rows]
    products.append(sum((a * a for a in sd.normal), -1.0))
    assert max(np.max(np.abs(p.coeffs)) for p in products) < 1e-10


@pytest.mark.parametrize("chart, point", CHARTS, ids=IDS)
def test_orientation_flip_negates_f_and_shape_operator(chart, point):
    plus, minus = _shape(chart, point, 1), _shape(chart, point, -1)
    A = plus.shape_operator.value
    scale = 1.0 + np.max(np.abs(A))
    assert np.max(np.abs(A + minus.shape_operator.value)) < 1e-12 * scale
    assert abs(plus.mean_curvature.value + minus.mean_curvature.value) < 1e-12 * scale
    assert abs(plus.shape_norm_sq.value - minus.shape_norm_sq.value) < 1e-12 * scale ** 2


@pytest.mark.parametrize("chart, point", CHARTS, ids=IDS)
def test_shape_operator_matches_finite_differences_of_svd_normal(chart, point):
    # Weingarten: d_j n = -A^i_j X_i, so A^i_j = -g^(ik) <X_k, d_j n>
    m = chart.dim
    frame = _frame(chart, point)
    tangents = frame[-m:]
    ginv = np.linalg.inv(tangents @ tangents.T)
    dn = np.array([central_partial(lambda p: _svd_normal(chart, p), point, j, h=1e-4)
                   for j in range(m)])
    A_fd = -ginv @ tangents @ dn.T
    A = _shape(chart, point).shape_operator.value
    assert np.max(np.abs(A - A_fd)) < 1e-6 * (1.0 + np.max(np.abs(A)))


@pytest.mark.parametrize("chart, point", CHARTS, ids=IDS)
def test_fundamental_data_jet_orders(chart, point):
    fd = fundamental_data(chart, point)
    assert fd.metric[0][0].order == 3
    assert fd.inverse_metric[0][0].order == 3
    assert fd.christoffels[0][0][0].order == 1
    assert fd.frame[0][0].order == 3
    sd = _shape(chart, point)
    assert sd.normal[0].order == 3 and sd.mean_curvature.order == 3


# ---------------------------------------------------------------------------
# every catalog cone of `report --all` with link dimension m <= 7


def _catalog_links():
    links = [(f"S^{m}", sphere_link_chart(m, sphere_link_solver(m).a_sq_exact))
             for m in range(3, 8)]
    for m in range(4, 8):
        for m1 in range(1, m):
            for k, root in enumerate(clifford_link_solver(m, m1)):
                if root.flag == "valid":
                    links.append((f"S^{m1}xS^{m - m1}#{k}",
                                  clifford_link_chart(m1, m - m1, root.r1_sq)))
    return links


CATALOG = _catalog_links()


def _seeded_point(dim, seed):
    rng = np.random.default_rng(seed)
    return (float(rng.uniform(0.6, 1.6)),) + tuple(rng.uniform(-0.3, 0.3, dim - 1))


def test_catalog_covers_every_report_row_up_to_m7():
    assert len(CATALOG) == 5 + sum(
        1 for m in range(4, 8) for m1 in range(1, m)
        for r in clifford_link_solver(m, m1) if r.flag == "valid")
    assert max(link.dim for _, link in CATALOG) == 7


@pytest.mark.parametrize("name, link", CATALOG, ids=[n for n, _ in CATALOG])
def test_catalog_cone_is_proper_biharmonic_pointwise(name, link):
    cone = build_cone_chart(link)
    rep = hypersurface_residual(cone, points=[_seeded_point(cone.dim, cone.dim)])
    assert rep.verdict == PROPER_BIHARMONIC, (name, rep.max_residual, rep.residual_threshold)


def test_wrong_radius_cone_over_s7_is_not_biharmonic():
    cone = build_cone_chart(sphere_link_chart(7, 0.5))
    rep = hypersurface_residual(cone, points=[_seeded_point(8, 8)])
    assert rep.verdict == NOT_BIHARMONIC


# ---------------------------------------------------------------------------
# the two reductions agree: the cone residual at chart dimension m + 1 and
# the link system at the link part of the same point


def _both_verdicts(link):
    cone = build_cone_chart(link)
    point = _seeded_point(cone.dim, cone.dim)
    cone_rep = hypersurface_residual(cone, points=[point])
    link_rep = link_residual_system(link, points=[point[1:]])
    return cone_rep.verdict, link_rep.verdict


@pytest.mark.parametrize("name, link", CATALOG, ids=[n for n, _ in CATALOG])
def test_link_system_verdict_equals_the_cone_verdict(name, link):
    cone_verdict, link_verdict = _both_verdicts(link)
    assert link_verdict == cone_verdict == PROPER_BIHARMONIC, name


@pytest.mark.parametrize("m", [3, 5, 7])
def test_wrong_radius_sphere_fails_both_reductions(m):
    # a^2 = 0.6 is off the catalog radius m / (4m - 6) at every m
    assert sphere_link_solver(m).a_sq_exact != 0.6
    assert _both_verdicts(sphere_link_chart(m, 0.6)) == (NOT_BIHARMONIC, NOT_BIHARMONIC)


@pytest.mark.parametrize("name, link", CATALOG, ids=[name for name, _ in CATALOG])
def test_cone_component_jets_make_no_dense_product(monkeypatch, name, link):
    # the cone charts are products of one-variable factors, so every product
    # of their component jets has a factor of narrower support than the chart
    import gausslab.exprjet as exprjet

    masks = []
    tables = exprjet._mul_tables
    monkeypatch.setattr(exprjet, "_mul_tables", lambda *args: masks.append(args[2:]) or tables(*args))
    cone = build_cone_chart(link)
    cone.component_jets(_seeded_point(cone.dim, 5), 5)
    assert masks and (-1, -1) not in masks


class _CountingEntries(OrderedDict):
    """The table cache's entries, counting every insertion."""

    inserted = 0

    def __setitem__(self, key, value):
        self.inserted += 1
        super().__setitem__(key, value)


def test_table_caches_hold_one_residual_after_a_sweep_over_dimensions(monkeypatch):
    # the jet tables of m = 3..12 share one byte budget: after a sweep the
    # cache is within it, and it holds every table one m = 12 residual
    # reads, so that a second such residual builds none
    for m in range(3, 13):
        link = sphere_link_chart(m, sphere_link_solver(m).a_sq_exact)
        point = [tuple(0.2 * (-1) ** i for i in range(m))]
        link_residual_system(link, points=point)
        assert _TABLES.bytes <= _TABLES.budget
        assert _TABLES.bytes == sum(size for _, size in _TABLES.entries.values())
    kept = set(_TABLES.entries)
    entries = _CountingEntries(_TABLES.entries)
    entries.inserted = 0
    monkeypatch.setattr(_TABLES, "entries", entries)
    link_residual_system(link, points=point)
    assert entries.inserted == 0 and set(_TABLES.entries) == kept
    # and the oldest dimensions' tables went first: those left are of a run
    # of dimensions that ends at 12, and m = 3 is not among them
    dims = sorted({key[1] for key in kept if key[0] == "_mul_tables"})
    assert dims == list(range(dims[0], 13)) and dims[0] > 3


@pytest.mark.parametrize("m", [13, 14])
def test_a_warm_lone_link_point_builds_nothing_up_to_dimension_14(monkeypatch, m):
    # the tables of one sphere-link residual fit the budget with 1 MiB to
    # spare, so from an empty cache a first point evicts none of them and a
    # second builds no table or plan
    link = sphere_link_chart(m, sphere_link_solver(m).a_sq_exact)
    point = [tuple(0.2 * (-1) ** i for i in range(m))]
    entries = _CountingEntries()
    monkeypatch.setattr(_TABLES, "entries", entries)
    monkeypatch.setattr(_TABLES, "bytes", 0)
    link_residual_system(link, points=point)
    assert entries.inserted == len(entries)
    assert _TABLES.bytes <= _TABLES.budget - 2 ** 20
    link_residual_system(link, points=point)
    assert entries.inserted == len(entries)
