"""The batched jet pass: a batch of sample points carried through one jet
sweep must give the rows, errors and integrals of one-point evaluation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gausslab.biharmonic import (
    INCONCLUSIVE,
    PointResidual,
    _batch_size,
    _residual_fields,
    _r4_rows,
    _residual_rows,
    _sweep_rows,
    hypersurface_residual,
    link_residual_system,
    r4_obstruction,
)
from gausslab.exprjet import FUNCTIONS, DomainError, JetValue, _exponents
from gausslab.geometry import (
    SphereConstraintError,
    chart_from_strings,
    fundamental_data,
    scalar_laplacian,
    shape_data_spherical,
)
from gausslab.hypercone import clifford_link_chart, polynomial_curvature_cylinder

SRC = Path(__file__).resolve().parent.parent / "src"
TWO_PI = 6.283185307179586


def _names(dim):
    return tuple(f"x{i + 1}" for i in range(dim))


def _cubic(names, rng):
    terms = []
    for i, x in enumerate(names):
        y = names[(i + 1) % len(names)]
        terms.append(f"({rng.uniform(-0.8, 0.8)})*{x}^2")
        terms.append(f"({rng.uniform(-0.4, 0.4)})*{x}^3")
        terms.append(f"({rng.uniform(-0.8, 0.8)})*{x}*{y}")
    return " + ".join(terms)


def _euclidean_graph(dim, rng):
    names = _names(dim)
    return chart_from_strings(f"graph{dim}", names, names + (_cubic(names, rng),),
                              [(-0.5, 0.5)] * dim)


def _sphere_graph(dim, rng):
    """Y / |Y| for Y = (x, 1 + cubic(x), 0.3 + x1 x2 / 5): a link in the unit
    sphere with non-constant mean curvature."""
    names = _names(dim)
    p = f"1 + {_cubic(names, rng)}"
    q = f"0.3 + 0.2*{names[0]}*{names[1 % dim]}"
    norm = "sqrt(" + " + ".join(f"{x}^2" for x in names) + f" + ({p})^2 + ({q})^2)"
    comps = tuple(f"{x} / {norm}" for x in names) + (f"({p}) / {norm}", f"({q}) / {norm}")
    return chart_from_strings(f"sphere_graph{dim}", names, comps, [(-0.5, 0.5)] * dim,
                              ambient="sphere")


def _charts():
    rng = np.random.default_rng(5150)
    charts = []
    for dim in (2, 3, 4, 5):
        charts.append(_euclidean_graph(dim, rng))
        charts.append(_sphere_graph(dim, rng))
    charts.append(clifford_link_chart(1, 3, 0.25))
    # quadrature components: evaluated point by point and stacked
    charts.append(polynomial_curvature_cylinder((1.0, 1.0, 1.0)))
    return charts


CHARTS = _charts()


def _points(chart, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
                  for lo, hi in chart.domain) for _ in range(count)]


def _worker(chart):
    """The sweep's runner over a whole sample as one batch."""
    return lambda points: _sweep_rows(
        lambda p: _residual_fields(chart, p, 1, 1e-10), _residual_rows, points, len(points),
        lambda p, exc: PointResidual(p, False, error=str(exc)))


def _single_rows(worker, points):
    return [worker([p])[0] for p in points]


_FLOATS = ("f", "grad_f_norm", "residual_norm", "scale_term", "shape_norm_sq",
           "scalar_residual", "scalar_scale")


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    big = max(abs(a), abs(b))
    return big < 1e-10 or abs(a - b) <= 1e-12 * big


def _assert_rows_close(batch, single):
    assert len(batch) == len(single)
    for got, want in zip(batch, single):
        assert got.point == want.point
        assert (got.ok, got.error, got.near_minimal) == (want.ok, want.error, want.near_minimal)
        assert len(got.residual) == len(want.residual)
        for name in _FLOATS:
            assert _close(getattr(got, name), getattr(want, name)), (name, got, want)
        for a, b in zip(got.residual, want.residual):
            assert _close(a, b), (got.residual, want.residual)


# ---------------------------------------------------------------------------
# (a) batch rows against one-point rows


@pytest.mark.parametrize("chart", CHARTS, ids=[c.name for c in CHARTS])
def test_batch_rows_match_single_point_rows(chart):
    worker = _worker(chart)
    points = _points(chart, 7, seed=chart.dim)
    batch = worker(points)
    assert all(r.ok for r in batch)
    _assert_rows_close(batch, _single_rows(worker, points))
    # the sweep cuts the sample at the derived batch size
    check = hypersurface_residual if chart.ambient == "euclidean" else link_residual_system
    report = check(chart, points=points)
    _assert_rows_close(report.points, batch)


def test_batch_sizes_follow_the_product_tables():
    assert [_batch_size(d, 5) for d in range(2, 10)] == [520, 141, 50, 21, 10, 5, 3, 1]
    assert [_batch_size(d, 5) for d in (12, 24)] == [1, 1]
    # the R^4 grid's 576 cells are one pass
    assert _batch_size(2, 4) == 936


# ---------------------------------------------------------------------------
# (b) one bad point in a batch


def _bad_cases():
    rng = np.random.default_rng(77)
    log_graph = chart_from_strings("log_graph", ("u", "v", "w"),
                                   ("u", "v", "w", "log(u + 0.5) + v*w^2"),
                                   [(-0.4, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
    log_points = _points(log_graph, 5, seed=3)
    log_points.insert(2, (-0.7, 0.1, 0.2))
    # off the sphere except at u = 1, where (u - 1)^6 vanishes to order 5
    bump = "(1 + (u - 1)^6)"
    off_sphere = chart_from_strings(
        "bumped_torus", ("u", "v"),
        tuple(f"{c}*{bump}" for c in ("0.8*cos(u)", "0.8*sin(u)", "0.6*cos(v)", "0.6*sin(v)")),
        [(0.0, TWO_PI)] * 2, ambient="sphere")
    sphere_points = [(1.0, float(v)) for v in rng.uniform(0.0, TWO_PI, 5)]
    sphere_points.insert(3, (1.5, 0.4))
    singular = chart_from_strings("cusp", ("u", "v"), ("u^3", "v", "v^2 + u^3"),
                                  [(-1.0, 1.0)] * 2)
    singular_points = [(float(u), float(v)) for u, v in rng.uniform(0.2, 0.9, (5, 2))]
    singular_points.insert(1, (0.0, 0.3))
    return [(log_graph, log_points, "log of non-positive value"),
            (off_sphere, sphere_points, "|X|^2 ="),
            (singular, singular_points, "metric not positive definite")]


@pytest.mark.parametrize("chart, points, error", _bad_cases(),
                         ids=["off-domain-log", "off-sphere", "singular-metric"])
def test_one_bad_point_gives_point_by_point_rows(chart, points, error):
    worker = _worker(chart)
    batch = worker(points)
    single = _single_rows(worker, points)
    assert repr(batch) == repr(single)
    failed = [r for r in batch if not r.ok]
    assert len(failed) == 1 and error in failed[0].error
    check = hypersurface_residual if chart.ambient == "euclidean" else link_residual_system
    assert repr(check(chart, points=points).points) == repr(single)


def test_finiteness_gates_fail_their_own_points():
    # 1e150 exp(340 u) overflows at u = 2 (a component value) and at u = 0.5
    # (the metric, through its squared derivative); it is below 1e-70 for
    # u <= -1.2, where the surface is the cubic graph
    chart = chart_from_strings("overflow", ("u", "v"),
                               ("u", "v", "u*v^2 + v^3 + 1e150*exp(340*u)"),
                               [(-2.0, 2.0), (-1.0, 1.0)])
    good = [(-1.5, 0.3), (-1.8, -0.4), (-1.3, 0.6), (-2.0, -0.1)]
    points = good[:1] + [(2.0, 0.2)] + good[1:3] + [(0.5, 0.1)] + good[3:]
    # each gate trips for the whole batch pass
    for batch, gate in ((points, "component jets are"), (good + [(0.5, 0.1)], "metric is")):
        with pytest.raises(DomainError, match=f"^{gate} not finite at"):
            _residual_fields(chart, tuple(np.array(batch).T.copy()), 1, 1e-10)
    worker = _worker(chart)
    rows = worker(points)
    assert repr(rows) == repr(_single_rows(worker, points))
    assert [r.error for r in rows if not r.ok] == [
        "component jets are not finite at (2.0, 0.2)",
        "metric is not finite at (0.5, 0.1)"]
    assert [r.point for r in rows if r.ok] == good
    assert all(math.isfinite(r.residual_norm) for r in rows if r.ok)
    report = hypersurface_residual(chart, points=points)
    assert repr(report.points) == repr(rows)
    assert (report.verdict, report.failed_points) == (INCONCLUSIVE, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_row_that_is_not_finite_fails_its_own_point():
    # 1 / (u - 0.5) divides by zero at u = 0.5 alone, with no numpy warning
    def evaluate(p):
        return (1.0 / (np.asarray(p[0]) - 0.5),)

    points = [(0.25,), (0.5,), (0.75,)]
    rows = _sweep_rows(evaluate, _r4_rows, points, len(points), lambda p, exc: str(exc))
    assert rows == [(-4.0,), "row fields are not finite at (0.5,)", (4.0,)]
    # with no row for a failed point, as the R^4 grid runs, the error propagates
    with pytest.raises(DomainError, match=r"^row fields are not finite at \(0\.5,\)$"):
        _sweep_rows(evaluate, _r4_rows, points, len(points))


# ---------------------------------------------------------------------------
# (c) the R^4 obstruction


def _r4_reference(chart, grid):
    """The per-cell loop of the obstruction, one point at a time."""
    (u_lo, u_hi), (v_lo, v_hi) = chart.domain
    nu, nv = grid
    du, dv = (u_hi - u_lo) / nu, (v_hi - v_lo) / nv
    sums = [0.0, 0.0, 0.0, 0.0]
    for i in range(nu):
        for j in range(nv):
            p = (u_lo + (i + 0.5) * du, v_lo + (j + 0.5) * dv)
            fd = fundamental_data(chart, p, order=4)
            sd = shape_data_spherical(chart, p, 1, fd)
            w = math.sqrt(max(np.linalg.det(fd.metric.value), 0.0)) * du * dv
            f = sd.mean_curvature.value
            sums[0] += 3.0 * scalar_laplacian(fd, sd.mean_curvature) * w
            sums[1] += sd.shape_norm_sq.value * f * w
            sums[2] += f * w
            sums[3] += w
    return sums


def _torus(components, name="torus"):
    return chart_from_strings(name, ("u", "v"), components, [(0.0, TWO_PI)] * 2,
                              ambient="sphere")


TORUS = ("0.8*cos(u)", "0.8*sin(u)", "0.6*cos(v)", "0.6*sin(v)")
WAVY = ("0.8*cos(u + 0.3*sin(v))", "0.8*sin(u + 0.3*sin(v))", "0.6*cos(v)", "0.6*sin(v)")


@pytest.mark.parametrize("components", [TORUS, WAVY], ids=["torus", "wavy"])
def test_r4_obstruction_equals_per_point_loop(components):
    chart = _torus(components)
    r4 = r4_obstruction(chart)
    lap, weighted, fw, area = _r4_reference(chart, (24, 24))
    sign = -1.0 if r4.orientation_flipped else 1.0
    assert _close(r4.area, area)
    assert _close(r4.integral_laplacian, sign * lap)
    assert _close(r4.integral_weighted_f, sign * weighted)
    assert _close(r4.mean_f, sign * fw / area)


def test_r4_first_failing_cell_raises_its_own_error():
    # leaves the sphere for |u - 4| < 0.6 and nowhere near the box edges
    bump = "(1 + exp(0 - 60*(u - 4)^2))"
    chart = _torus(tuple(f"{c}*{bump}" for c in TORUS), name="bumped")
    with pytest.raises(SphereConstraintError) as info:
        r4_obstruction(chart)
    assert type(info.value) is SphereConstraintError
    # the first cell in grid order with |X|^2 - 1 > 1e-10
    du = TWO_PI / 24
    first = next(i for i in range(24) if math.exp(-60 * ((i + 0.5) * du - 4) ** 2) > 1e-10)
    assert f"at ({(first + 0.5) * du!r}, {0.5 * du!r})" in str(info.value)


# ---------------------------------------------------------------------------
# (d) batched jet arithmetic against one column at a time


def _batch(m, order, values, rng):
    """A batch jet with the given base values and random higher coefficients,
    and its columns as one-point jets."""
    n = len(_exponents(m, order)[0])
    coeffs = rng.uniform(-1.0, 1.0, (n, len(values)))
    coeffs[0] = values
    return JetValue(m, order, coeffs), [JetValue(m, order, coeffs[:, c].copy())
                                        for c in range(len(values))]


def _assert_columns(batch, columns, exact=False):
    assert batch.coeffs.shape == (len(columns[0].coeffs), len(columns))
    for c, jet in enumerate(columns):
        if exact:
            assert np.array_equal(batch.coeffs[:, c], jet.coeffs)
        else:
            np.testing.assert_allclose(batch.coeffs[:, c], jet.coeffs, rtol=1e-12, atol=1e-13)


_BASES = {"log": (0.3, 2.5), "sqrt": (0.3, 2.5), "asin": (-0.7, 0.7), "acos": (-0.7, 0.7),
          "tan": (-1.0, 1.0), "cot": (0.4, 2.6)}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_batched_products_and_quotients_match_columns(m):
    rng = np.random.default_rng(m)
    a, cols_a = _batch(m, 4, rng.uniform(-2.0, 2.0, 6), rng)
    b, cols_b = _batch(m, 3, rng.uniform(0.5, 2.0, 6), rng)
    _assert_columns(a * b, [x * y for x, y in zip(cols_a, cols_b)], exact=True)
    _assert_columns(a / b, [x / y for x, y in zip(cols_a, cols_b)])
    _assert_columns(a - b + 2.0, [x - y + 2.0 for x, y in zip(cols_a, cols_b)], exact=True)
    # a one-point jet is a constant across the batch, both ways round
    _assert_columns(a * cols_b[0], [x * cols_b[0] for x in cols_a], exact=True)
    _assert_columns(cols_b[0] * a, [cols_b[0] * x for x in cols_a], exact=True)
    _assert_columns(cols_b[1] - a, [cols_b[1] - x for x in cols_a], exact=True)
    # an ndarray of per-point values defers to the jet's operators
    s = rng.uniform(0.5, 1.5, 6)
    _assert_columns(s * a, [x * float(v) for x, v in zip(cols_a, s)], exact=True)
    _assert_columns(s - a, [float(v) - x for x, v in zip(cols_a, s)], exact=True)
    _assert_columns(cols_b[2] + s, [cols_b[2] + float(v) for v in s], exact=True)
    np.testing.assert_array_equal(a.value, [x.value for x in cols_a])
    alpha = (1,) + (0,) * (m - 2) + (2,)
    np.testing.assert_array_equal(a.partial(alpha), [x.partial(alpha) for x in cols_a])
    for var in range(m):
        _assert_columns(a.derivative(var), [x.derivative(var) for x in cols_a], exact=True)


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_batched_compose_matches_columns(fn):
    rng = np.random.default_rng(len(fn))
    lo, hi = _BASES.get(fn, (-1.5, 1.5))
    a, cols = _batch(3, 5, rng.uniform(lo, hi, 5), rng)
    _assert_columns(a.compose(fn), [x.compose(fn) for x in cols])


@pytest.mark.parametrize("fn, value", [("log", -1.0), ("sqrt", 0.0), ("asin", 1.5),
                                       ("exp", 800.0), ("cosh", 900.0)])
def test_batched_compose_raises_where_one_point_leaves_the_domain(fn, value):
    rng = np.random.default_rng(1)
    a, cols = _batch(2, 3, [0.5, value, 0.4], rng)
    with pytest.raises(DomainError):
        a.compose(fn)
    with pytest.raises(DomainError):
        cols[1].compose(fn)
    cols[0].compose(fn)


# ---------------------------------------------------------------------------
# start-up


def test_cli_import_does_not_load_the_process_pool(tmp_path):
    # every sweep runs in the calling process: neither the import nor a
    # 144-point verify, a link system or the R^4 grid loads a pool
    configs = SRC.parent / "configs"
    cfg = json.loads((configs / "sphere_S2.json").read_text())
    cfg["samples"] = {"u": 12, "v": 12}
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps(cfg))
    runs = [["verify", "--config", str(sphere)],
            ["verify-link", "--config", str(configs / "sphere_link_S3.json")],
            ["check", "cone-r4", "--config", str(configs / "torus_link.json")]]
    code = ("import contextlib, io, sys\n"
            "import gausslab.cli\n"
            "pool = ('concurrent.futures.process', 'multiprocessing')\n"
            "print([m for m in pool if m in sys.modules])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [gausslab.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, [m for m in pool if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0] []"]
