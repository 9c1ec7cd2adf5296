"""Bitension residual of the Gauss map and derived verdicts.

For an oriented non-minimal hypersurface, the Gauss map into the Grassmannian
is proper biharmonic exactly when

    R = Delta(grad f) + A^2(grad f) - |A|^2 grad f = 0   with grad f != 0,

where f is the signed mean curvature, A the shape operator and Delta the
(geometer-sign) rough Laplacian. This module evaluates R pointwise over a
sample set, classifies the outcome, and implements the reductions used for
cones: the link system on M in S^(m+1), its algebraic consequence through the
Ricci operator, and the integral obstruction for cones in R^4 (the exact
prolongation certificate for cones in R^3 lives in `hypercone`).

Every sweep, over a residual sample or the R^4 grid, runs through
`_sweep_rows` as batched jet passes in the calling process; a row has the
same bits whatever batch computed it.

Verdicts: HarmonicGauss (grad f vanishes on the sample), ProperBiharmonicGauss
(residual vanishes at scale, grad f does not), NotBiharmonic, Inconclusive
(too many failed sample points). Points where |f| < 1e-10 are reported but
excluded from the residual classification, since the equation's hypothesis
(nowhere-zero mean curvature) fails there.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exprjet import DomainError, JetValue
from .geometry import (
    GeometryError,
    ImmersionChart,
    ShapeData,
    _apply,
    _check_orientation,
    _points_first,
    fundamental_data,
    gradient_of_mean_curvature,
    ricci_via_gauss_equation,
    rough_laplacian,
    scalar_laplacian,
    shape_data_euclidean,
    shape_data_spherical,
)

__all__ = [
    "HARMONIC",
    "PROPER_BIHARMONIC",
    "NOT_BIHARMONIC",
    "INCONCLUSIVE",
    "Tolerances",
    "PointResidual",
    "ResidualReport",
    "hypersurface_residual",
    "GrassmannTangent",
    "grassmann_curvature",
    "LinkSystemReport",
    "link_residual_system",
    "corollary_necessary_condition",
    "R4Obstruction",
    "r4_obstruction",
]

HARMONIC = "HarmonicGauss"
PROPER_BIHARMONIC = "ProperBiharmonicGauss"
NOT_BIHARMONIC = "NotBiharmonic"
INCONCLUSIVE = "Inconclusive"

_FAIL_FRACTION = 0.10
# Sample points per variable of a chart without sampling counts: a
# hypersurface chart, and a link chart.
_GRID_COUNT = 20
_LINK_COUNT = 5


def __getattr__(name: str):
    """`R3CheckResult` and `r3_ode_check` of `hypercone`, for the benchmark's
    tracer, which still looks `r3_ode_check` up in this module. Resolved on
    first use rather than imported, so that a jet command loads neither
    `hypercone` nor `roots`. Kept only until the benchmark change of ROADMAP
    item 5."""
    if name in ("R3CheckResult", "r3_ode_check"):
        from . import hypercone

        return getattr(hypercone, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Tolerances(NamedTuple):
    """Residual-zero test: max |R| < eps_abs + eps_rel * S where S is the
    largest sampled term magnitude |A|^2 |grad f| + |Delta grad f|. The
    gradient-zero test compares against grad_rel * (1 + max |f|)."""

    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    grad_rel: float = 1e-7
    near_minimal_f: float = 1e-10

    def as_dict(self) -> dict:
        return self._asdict()


def _batch_size(dim: int, order: int) -> int:
    """Points per jet pass: a dense product's pairs times the points stay
    within 65,536. A dense product has C(2 dim + order, order) pairs, the
    multi-indices of both factors at once, so that is 520 points at
    dimension 2, 50 at 4, 5 at 7 and one from 9 up, and 936 for the order-4
    R^4 grid (its 576 cells in one pass). Larger batches cost less per point
    until the fixed cost of a pass is spread thin: on a 2-core x86-64
    machine one dimension-4 residual point took 2.55 ms alone, 0.38 ms in a
    batch of 16 and 0.29-0.31 ms in batches of 32-128; at dimension 7,
    4.44 ms alone and 2.61 ms in a batch of 16."""
    return max(1, 65536 // math.comb(2 * dim + order, order))


_NUMERICAL = (DomainError, GeometryError)


def _sweep_rows(evaluate: Callable, rows: Callable, points: Sequence, batch: int,
                failed: Callable | None = None) -> list:
    """Rows over the sample, in sample order. The sample is cut into batches
    of `batch` points, and `evaluate` runs one jet pass per batch on one
    array per variable; `rows(points, out)` reads the pass's output into
    rows. A row has the same bits whatever batch computed it, so a pass
    that raises a numerical error runs again as two halves, and so on down
    to lone points on one-point jets, whose errors name them: one bad
    point among n costs at most 2 log2(n) + 1 passes. A pass runs with
    numpy's floating-point warnings off, and an output value that is not
    finite raises DomainError, so that such a row fails as its own point.
    A failing point gives the row `failed(point, exc)`, or its error
    propagates when `failed` is None."""

    def run(chunk):
        p = chunk[0] if len(chunk) == 1 else tuple(np.array(chunk, dtype=float).T.copy())
        try:
            with np.errstate(all="ignore"):
                value = evaluate(p)
            fields = value.values() if isinstance(value, dict) else value
            if not np.isfinite(np.concatenate([np.ravel(v) for v in fields])).all():
                raise DomainError(f"row fields are not finite at {p}")
        except _NUMERICAL as exc:
            if len(chunk) > 1:
                return run(chunk[:len(chunk) // 2]) + run(chunk[len(chunk) // 2:])
            if failed is None:
                raise
            return [failed(p, exc)]
        return rows(chunk, value)

    return [row for start in range(0, len(points), batch)
            for row in run(points[start:start + batch])]


# ---------------------------------------------------------------------------
# Pointwise residuals: the bitension of the Gauss map, and the link system


class PointResidual(NamedTuple):
    """One sample point. On a euclidean chart `residual` is the bitension R;
    on a sphere chart it is the vector link equation, and the scalar link
    equation fills `scalar_residual` and `scalar_scale`."""

    point: tuple[float, ...]
    ok: bool
    f: float = math.nan
    grad_f_norm: float = math.nan
    residual: tuple[float, ...] = ()
    residual_norm: float = math.nan
    scale_term: float = math.nan  # sum of the magnitudes of the terms of `residual`
    near_minimal: bool = False
    error: str | None = None
    shape_norm_sq: float = math.nan
    scalar_residual: float = math.nan
    scalar_scale: float = math.nan


def _residual_fields(chart: ImmersionChart, point, orientation: int,
                     near_minimal_f: float) -> dict:
    """The fields of the residual rows: floats at one point, arrays over a
    batch (the residual vectors then have shape (m, N))."""
    fd = fundamental_data(chart, point)
    shape = shape_data_euclidean if chart.ambient == "euclidean" else shape_data_spherical
    sd = shape(chart, point, orientation, fd)
    V = gradient_of_mean_curvature(fd, sd)
    lap = rough_laplacian(fd, V)
    A = sd.shape_operator.value
    v = V.value
    AAv = _apply(A, _apply(A, v))
    norm_sq = sd.shape_norm_sq.value
    f = sd.mean_curvature.value
    grad_norm = fd.norm(v)
    out = {"f": f, "grad_f_norm": grad_norm, "shape_norm_sq": norm_sq,
           "near_minimal": abs(f) < near_minimal_f}
    if chart.ambient == "euclidean":
        residual = lap + AAv - norm_sq * v
        out["scale_term"] = abs(norm_sq) * grad_norm + fd.norm(lap)
    else:
        m = chart.dim
        coef = 2 * m - 3 - norm_sq
        residual = lap + AAv + coef * v
        out["scale_term"] = (fd.norm(lap) + abs(norm_sq) * grad_norm
                             + abs(coef) * grad_norm + fd.norm(AAv))
        lap_f = scalar_laplacian(fd, sd.mean_curvature)
        out["scalar_residual"] = 3.0 * lap_f + (3 * m - 6 - norm_sq) * f
        out["scalar_scale"] = 3.0 * abs(lap_f) + abs(3 * m - 6 - norm_sq) * abs(f)
    out["residual"] = residual
    out["residual_norm"] = fd.norm(residual)
    return out


def _residual_rows(points, fields: dict) -> list[PointResidual]:
    residual = fields.pop("residual")
    vectors = residual.reshape(len(residual), -1).T.tolist()
    columns = {k: np.ravel(v).tolist() for k, v in fields.items()}
    return [PointResidual(p, True, residual=tuple(r),
                          **{k: col[i] for k, col in columns.items()})
            for i, (p, r) in enumerate(zip(points, vectors))]


def _sweep(chart: ImmersionChart, points: Sequence | None, orientation: int,
           tol: Tolerances, default_count: int):
    """Rows over the sample (the chart's default grid when `points` is None),
    read once as tuples of floats (from a list or an (n, dim) array), the
    rows that evaluated, the failed count, and whether too many points
    failed to decide."""
    _check_orientation(orientation)
    if points is None:
        points = chart.sample_points(default_count=default_count)
    points = [tuple(map(float, p)) for p in points]
    if not points:
        raise GeometryError("empty sample set")
    rows = _sweep_rows(lambda p: _residual_fields(chart, p, orientation, tol.near_minimal_f),
                       _residual_rows, points, _batch_size(chart.dim, 5),
                       lambda p, exc: PointResidual(p, False, error=str(exc)))
    ok_rows = [r for r in rows if r.ok]
    failed = len(rows) - len(ok_rows)
    return rows, ok_rows, failed, failed > _FAIL_FRACTION * len(rows) or not ok_rows


# ---------------------------------------------------------------------------
# Hypersurface residual


class ResidualReport(NamedTuple):
    chart: str
    verdict: str
    tolerances: Tolerances
    scale: float
    residual_threshold: float
    gradient_threshold: float
    max_residual: float
    max_grad_f: float
    max_abs_f: float
    points: list[PointResidual]
    failed_points: int
    excluded_points: int

    def as_dict(self) -> dict:
        return {
            "chart": self.chart,
            "verdict": self.verdict,
            "tolerances": self.tolerances.as_dict(),
            "scale": self.scale,
            "residual_threshold": self.residual_threshold,
            "gradient_threshold": self.gradient_threshold,
            "max_residual": self.max_residual,
            "max_grad_f": self.max_grad_f,
            "max_abs_f": self.max_abs_f,
            "sample_count": len(self.points),
            "failed_points": self.failed_points,
            "excluded_points": self.excluded_points,
            "points": [
                {
                    "point": list(p.point),
                    "ok": p.ok,
                    "f": p.f,
                    "grad_f_norm": p.grad_f_norm,
                    "residual_norm": p.residual_norm,
                    "near_minimal": p.near_minimal,
                    "error": p.error,
                }
                for p in self.points
            ],
        }


def hypersurface_residual(chart: ImmersionChart,
                          points: Sequence[tuple] | None = None,
                          orientation: int = 1,
                          tolerances: Tolerances | None = None,
                          workers: int | None = None) -> ResidualReport:
    """Evaluate the bitension residual of the Gauss map over sample points
    and classify. The verdict is orientation-independent. Every sweep runs
    in the calling process; `workers` is accepted and ignored, as the
    benchmark still passes `workers=1`."""
    if chart.ambient != "euclidean":
        raise GeometryError("hypersurface residual needs a euclidean chart")
    tol = tolerances or Tolerances()
    rows, ok_rows, failed, inconclusive = _sweep(chart, points, orientation, tol, _GRID_COUNT)
    classified = [r for r in ok_rows if not r.near_minimal]
    scale = max((r.scale_term for r in ok_rows), default=0.0)
    max_res = max((r.residual_norm for r in classified), default=0.0)
    max_grad = max((r.grad_f_norm for r in ok_rows), default=0.0)
    max_f = max((abs(r.f) for r in ok_rows), default=0.0)
    res_thr = tol.eps_abs + tol.eps_rel * scale
    grad_thr = tol.grad_rel * (1.0 + max_f)
    if inconclusive:
        verdict = INCONCLUSIVE
    elif max_grad < grad_thr:
        verdict = HARMONIC
    elif not classified:
        verdict = INCONCLUSIVE
    elif max_res < res_thr:
        verdict = PROPER_BIHARMONIC
    else:
        verdict = NOT_BIHARMONIC
    return ResidualReport(chart.name, verdict, tol, scale, res_thr, grad_thr,
                          max_res, max_grad, max_f, rows, failed,
                          len(ok_rows) - len(classified))


# ---------------------------------------------------------------------------
# Grassmannian curvature


class GrassmannTangent(NamedTuple):
    """Tangent vector to the Grassmannian of m-planes in R^(m+n), stored as
    the m x n coefficient matrix against a split orthonormal frame; the
    rank-one element X* (x) eta has matrix X eta^T."""

    matrix: np.ndarray

    @classmethod
    def rank_one(cls, X: Sequence[float], eta: Sequence[float]) -> "GrassmannTangent":
        x = np.asarray(X, dtype=float)
        n = np.asarray(eta, dtype=float)
        return cls(np.outer(x, n))

    def inner(self, other: "GrassmannTangent") -> float:
        return float(np.sum(self.matrix * other.matrix))

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.matrix * self.matrix)))


def grassmann_curvature(r1: GrassmannTangent, r2: GrassmannTangent,
                        r3: GrassmannTangent) -> GrassmannTangent:
    """Curvature tensor R(r1, r2) r3 of the Grassmannian.

    On rank-one elements Xi* (x) eta_i this is the four-term expression
    <X1,X2><eta2,eta3> X3*eta1 - <X1,X2><eta1,eta3> X3*eta2
    + <X2,X3><eta1,eta2> X1*eta3 - <X1,X3><eta1,eta2> X2*eta3; the matrix
    form below is its trilinear extension. The two difference groupings keep
    antisymmetry in (r1, r2) exact in floating point."""
    C1, C2, C3 = r1.matrix, r2.matrix, r3.matrix
    if C1.shape != C2.shape or C1.shape != C3.shape:
        raise ValueError("mixed Grassmannian dimensions")
    t12 = (C3 @ C2.T) @ C1 - (C3 @ C1.T) @ C2
    t34 = C1 @ (C2.T @ C3) - C2 @ (C1.T @ C3)
    return GrassmannTangent(t12 + t34)


# ---------------------------------------------------------------------------
# Link system for cones


class LinkSystemReport(NamedTuple):
    chart: str
    verdict: str
    tolerances: Tolerances
    vector_threshold: float
    scalar_threshold: float
    max_vector_residual: float
    max_scalar_residual: float
    max_abs_f: float
    points: list[PointResidual]
    failed_points: int

    def as_dict(self) -> dict:
        return {
            "chart": self.chart,
            "verdict": self.verdict,
            "tolerances": self.tolerances.as_dict(),
            "vector_threshold": self.vector_threshold,
            "scalar_threshold": self.scalar_threshold,
            "max_vector_residual": self.max_vector_residual,
            "max_scalar_residual": self.max_scalar_residual,
            "max_abs_f": self.max_abs_f,
            "sample_count": len(self.points),
            "failed_points": self.failed_points,
            "points": [
                {
                    "point": list(p.point),
                    "ok": p.ok,
                    "f": p.f,
                    "vector_norm": p.residual_norm,
                    "scalar_residual": p.scalar_residual,
                    "error": p.error,
                }
                for p in self.points
            ],
        }


def link_residual_system(chart: ImmersionChart,
                         points: Sequence[tuple] | None = None,
                         orientation: int = 1,
                         tolerances: Tolerances | None = None,
                         workers: int | None = None) -> LinkSystemReport:
    """Evaluate the coupled link system deciding whether the cone over the
    link has proper biharmonic Gauss map:

        Delta(grad f) + A^2(grad f) + (2m - 3 - |A|^2) grad f = 0
        3 Delta f + (3m - 6 - |A|^2) f = 0

    A minimal link (f == 0) satisfies it trivially: verdict HarmonicGauss.
    `workers` is ignored, as in `hypersurface_residual`."""
    if chart.ambient != "sphere":
        raise GeometryError("the link system needs a sphere-ambient chart")
    tol = tolerances or Tolerances()
    rows, ok_rows, failed, inconclusive = _sweep(chart, points, orientation, tol, _LINK_COUNT)
    max_vec = max((r.residual_norm for r in ok_rows), default=0.0)
    max_scal = max((abs(r.scalar_residual) for r in ok_rows), default=0.0)
    max_f = max((abs(r.f) for r in ok_rows), default=0.0)
    shape_scale = math.sqrt(max((r.shape_norm_sq for r in ok_rows), default=0.0))
    vec_thr = tol.eps_abs + tol.eps_rel * max((r.scale_term for r in ok_rows), default=0.0)
    scal_thr = tol.eps_abs + tol.eps_rel * max((r.scalar_scale for r in ok_rows), default=0.0)
    if inconclusive:
        verdict = INCONCLUSIVE
    elif max_f < tol.grad_rel * (1.0 + shape_scale):
        verdict = HARMONIC
    elif max_vec < vec_thr and max_scal < scal_thr:
        verdict = PROPER_BIHARMONIC
    else:
        verdict = NOT_BIHARMONIC
    return LinkSystemReport(chart.name, verdict, tol, vec_thr, scal_thr,
                            max_vec, max_scal, max_f, rows, failed)


# ---------------------------------------------------------------------------
# Necessary condition through the Ricci operator


def corollary_necessary_condition(sd: ShapeData, v: np.ndarray) -> np.ndarray:
    """Value of 2 A^2(v) - m f A(v) - (2/3)|A|^2 v at v = grad f (its
    components at the base point), assembled by eliminating the rough
    Laplacian between the two link equations and substituting the Ricci
    operator from the Gauss equation."""
    A = sd.shape_operator.value
    norm_sq = sd.shape_norm_sq.value
    return (_apply(A, _apply(A, v)) - ricci_via_gauss_equation(sd, v)
            + (sd.dim - 1 - (2.0 / 3.0) * norm_sq) * v)


# ---------------------------------------------------------------------------
# R^4: integral obstruction


class R4Obstruction(NamedTuple):
    chart: str
    grid: tuple[int, int]
    closures: tuple[str, str]  # per-variable: "periodic" | "capped"
    area: float
    integral_laplacian: float  # integral of 3 Delta f dA
    integral_weighted_f: float  # integral of |A|^2 f dA
    mean_f: float
    orientation_flipped: bool
    obstruction_holds: bool

    def as_dict(self) -> dict:
        return self._asdict()


_R4_GRID = (24, 24)
_R4_TOLERANCE = 1e-8
# Interior points per box edge at which closure is tested, and the gap in
# position or det g that counts as zero there.
_EDGE_POINTS = 5
_CLOSURE_TOL = 1e-8


def r4_obstruction(chart: ImmersionChart) -> R4Obstruction:
    """Integral obstruction on a compact 2d link: integrating the scalar link
    equation 3 Delta f = |A|^2 f (the m = 2 case) over the closed surface
    kills the left side by the divergence theorem, so a non-minimal link with
    f of one sign cannot solve it; no cone in R^4 has proper biharmonic Gauss
    map. Integration is the equal-weight rule on a uniform 24 x 24 grid with
    the area element sqrt(det g); the grid is offset by half a step so that
    chart degeneracies at the box edges (poles) are never evaluated.
    Orientation is normalized so that the integral of f is >= 0.

    Each variable direction of the domain box must close up: either the chart
    is periodic in it, or the area element vanishes at both edges (a pole
    cap). Anything else raises GeometryError, since the surface would have a
    boundary and the divergence identity fails.
    """
    if chart.ambient != "sphere" or chart.dim != 2:
        raise GeometryError("the obstruction applies to 2d sphere-ambient links")
    (u_lo, u_hi), (v_lo, v_hi) = chart.domain
    nu, nv = _R4_GRID
    closures = (_closure_kind(chart, 0), _closure_kind(chart, 1))
    du = (u_hi - u_lo) / nu
    dv = (v_hi - v_lo) / nv
    cells = [(u_lo + (i + 0.5) * du, v_lo + (j + 0.5) * dv)
             for i in range(nu) for j in range(nv)]
    lap_sum = 0.0
    weighted_sum = 0.0
    f_sum = 0.0
    area = 0.0
    # the first failing cell raises its own error
    for lap, weighted, fw, w in _sweep_rows(lambda p: _r4_terms(chart, p, du, dv),
                                            _r4_rows, cells, _batch_size(2, 4)):
        lap_sum += lap
        weighted_sum += weighted
        f_sum += fw
        area += w
    flipped = f_sum < 0.0
    if flipped:
        lap_sum, weighted_sum, f_sum = -lap_sum, -weighted_sum, -f_sum
    # positivity must hold at scale: a minimal link gives a roundoff-size
    # second integral and no contradiction
    gate = _R4_TOLERANCE * max(area, 1.0)
    holds = abs(lap_sum) <= gate and weighted_sum > gate
    return R4Obstruction(chart.name, _R4_GRID, closures, float(area),
                         float(lap_sum), float(weighted_sum),
                         float(f_sum / area), flipped, holds)


def _r4_terms(chart: ImmersionChart, point, du: float, dv: float) -> tuple:
    """Per grid cell of the R^4 obstruction: (3 Delta f w, |A|^2 f w, f w, w)
    with w = sqrt(det g) du dv."""
    fd = fundamental_data(chart, point, order=4)
    sd = shape_data_spherical(chart, point, 1, fd)
    det = np.linalg.det(_points_first(fd.metric.value, 2))
    w = np.sqrt(np.maximum(det, 0.0)) * du * dv
    f = sd.mean_curvature.value
    return (3.0 * scalar_laplacian(fd, sd.mean_curvature) * w,
            sd.shape_norm_sq.value * f * w, f * w, w)


def _r4_rows(points, terms) -> list[tuple]:
    return list(zip(*(np.ravel(t).tolist() for t in terms)))


def _edge_frame(chart, var: int, at_hi: bool):
    """Positions [a, N] and frames [i, a, N] at _EDGE_POINTS interior points
    of one edge of the domain box (variable `var` at its low or high end),
    from one batched jet pass."""
    fixed = np.full(_EDGE_POINTS, chart.domain[var][1 if at_hi else 0])
    run = np.linspace(*chart.domain[1 - var], _EDGE_POINTS + 2)[1:-1]
    jets = chart.component_jets((fixed, run) if var == 0 else (run, fixed), order=1)
    X = JetValue(2, 1, np.stack([j.coeffs for j in jets], axis=1), 1)
    return X.value, X.gradient().value


def _closure_kind(chart, var: int) -> str:
    """How variable `var` closes up: "periodic" when its two edges carry
    the same positions, "capped" when det g vanishes along both."""
    X_lo, T_lo = _edge_frame(chart, var, False)
    X_hi, T_hi = _edge_frame(chart, var, True)
    if not np.any(np.abs(X_lo - X_hi) > _CLOSURE_TOL):
        return "periodic"
    T = np.concatenate([T_lo, T_hi], axis=-1)
    if np.any(np.abs(np.linalg.det(np.einsum("ia...,ja...->...ij", T, T))) > _CLOSURE_TOL):
        raise GeometryError(
            f"chart does not close up in variable {chart.variables[var]!r}"
            " (neither periodic nor pole-capped)")
    return "capped"
