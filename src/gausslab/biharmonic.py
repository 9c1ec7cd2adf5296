"""Bitension residual of the Gauss map and derived verdicts.

For an oriented non-minimal hypersurface, the Gauss map into the Grassmannian
is proper biharmonic exactly when

    R = Delta(grad f) + A^2(grad f) - |A|^2 grad f = 0   with grad f != 0,

where f is the signed mean curvature, A the shape operator and Delta the
(geometer-sign) rough Laplacian. This module evaluates R pointwise over a
sample set, classifies the outcome, and implements the reductions used for
cones: the link system on M in S^(m+1), its algebraic consequence through the
Ricci operator, and the two low-dimension non-existence certificates (the ODE
prolongation in R^3 and the integral obstruction in R^4).

Verdicts: HarmonicGauss (grad f vanishes on the sample), ProperBiharmonicGauss
(residual vanishes at scale, grad f does not), NotBiharmonic, Inconclusive
(too many failed sample points). Points where |f| < 1e-10 are reported but
excluded from the residual classification, since the equation's hypothesis
(nowhere-zero mean curvature) fails there.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprjet import DomainError, JetValue, _mul_tables
from .geometry import (
    GeometryError,
    ImmersionChart,
    ShapeData,
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
    "check_corollary_on_chart",
    "R3CheckResult",
    "r3_ode_check",
    "R4Obstruction",
    "r4_obstruction",
    "worker_count",
]

HARMONIC = "HarmonicGauss"
PROPER_BIHARMONIC = "ProperBiharmonicGauss"
NOT_BIHARMONIC = "NotBiharmonic"
INCONCLUSIVE = "Inconclusive"

_FAIL_FRACTION = 0.10
_POOL_MIN_POINTS = 64


@dataclass(frozen=True)
class Tolerances:
    """Residual-zero test: max |R| < eps_abs + eps_rel * S where S is the
    largest sampled term magnitude |A|^2 |grad f| + |Delta grad f|. The
    gradient-zero test compares against grad_rel * (1 + max |f|)."""

    eps_abs: float = 1e-8
    eps_rel: float = 1e-6
    grad_rel: float = 1e-7
    near_minimal_f: float = 1e-10

    def as_dict(self) -> dict:
        return {"eps_abs": self.eps_abs, "eps_rel": self.eps_rel,
                "grad_rel": self.grad_rel, "near_minimal_f": self.near_minimal_f}


def worker_count() -> int:
    """Worker pool size: GAUSSLAB_THREADS when set, else the core count."""
    env = os.environ.get("GAUSSLAB_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"GAUSSLAB_THREADS must be a positive integer, got {env!r}") from None
        if n < 1:
            raise ValueError("GAUSSLAB_THREADS must be a positive integer")
        return n
    return os.cpu_count() or 1


def _batch_size(dim: int, order: int) -> int:
    """Points per jet pass: the gathered pairs of one product at this
    dimension and order (8 bytes a pair and point) stay within 128 KiB. That
    is 130 points at dimension 2 and one at dimension 7, where order-5
    products cost the same per point batched or not."""
    return max(1, 16384 // len(_mul_tables(dim, order)[0]))


def _map_points(fn: Callable, points: Sequence, workers: int | None,
                batch: int) -> list:
    """Rows of `fn` over the sample, in sample order. The sample is cut into
    batches of `batch` points first; `fn` maps a batch to its rows. The
    batches then run serially or, with at least _POOL_MIN_POINTS points and
    more than one worker and one batch, through a pool of one process per
    batch up to n (concurrent.futures is imported only then). The batch
    boundaries are the same either way, so pooled rows equal serial rows. A
    pool that cannot start or ship work falls back to the serial path; an
    exception raised by `fn` propagates once."""
    batches = [points[i:i + batch] for i in range(0, len(points), batch)]
    n = min(workers if workers is not None else worker_count(), len(batches))
    if n > 1 and len(points) >= _POOL_MIN_POINTS:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=n) as pool:
                chunk = max(1, len(batches) // (4 * n))
                return [row for rows in pool.map(fn, batches, chunksize=chunk)
                        for row in rows]
        except (OSError, NotImplementedError, pickle.PicklingError, BrokenProcessPool):
            pass  # the pool could not start or ship work: run serially
    return [row for b in batches for row in fn(b)]


class _BatchWorker:
    """Picklable worker over one batch of sample points. It evaluates the
    whole batch in one jet pass; when that raises a numerical error, it
    evaluates the batch again one point at a time, so that rows and errors
    are exactly those of one-point evaluation. A single point runs on
    one-point jets."""

    def __call__(self, points) -> list:
        points = [tuple(p) for p in points]
        if len(points) > 1:
            try:
                batch = tuple(np.array(points, dtype=float).T.copy())
                return self._rows(points, self._evaluate(batch))
            except (DomainError, GeometryError, FloatingPointError):
                pass
        return [self._single(p) for p in points]


# ---------------------------------------------------------------------------
# Pointwise residuals: the bitension of the Gauss map, and the link system


@dataclass
class PointResidual:
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


class _PointWorker(_BatchWorker):
    """Residual rows of a batch of sample points."""

    def __init__(self, chart, orientation, near_minimal_f):
        self.chart = chart
        self.orientation = orientation
        self.near_minimal_f = near_minimal_f

    def _single(self, point) -> PointResidual:
        try:
            fields = self._evaluate(point)
        except (DomainError, GeometryError, FloatingPointError) as exc:
            return PointResidual(point=point, ok=False, error=str(exc))
        residual = tuple(float(x) for x in fields.pop("residual"))
        return PointResidual(point, True, residual=residual, **fields)

    def _evaluate(self, point) -> dict:
        """The fields of the residual rows: floats at one point, arrays over
        a batch (the residual vectors then have shape (m, N))."""
        chart = self.chart
        fd = fundamental_data(chart, point)
        shape = shape_data_euclidean if chart.ambient == "euclidean" else shape_data_spherical
        sd = shape(chart, point, self.orientation, fd)
        V = gradient_of_mean_curvature(fd, sd)
        lap = rough_laplacian(fd, V)
        A = sd.shape_operator.value
        v = V.value
        AAv = _apply(A, _apply(A, v))
        norm_sq = sd.shape_norm_sq.value
        f = sd.mean_curvature.value
        grad_norm = fd.norm(v)
        out = {"f": f, "grad_f_norm": grad_norm, "shape_norm_sq": norm_sq,
               "near_minimal": abs(f) < self.near_minimal_f}
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

    @staticmethod
    def _rows(points, fields: dict) -> list[PointResidual]:
        residual = fields.pop("residual")
        columns = {k: v.tolist() for k, v in fields.items()}
        return [PointResidual(p, True, residual=tuple(r),
                              **{k: col[i] for k, col in columns.items()})
                for i, (p, r) in enumerate(zip(points, residual.T.tolist()))]


def _apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for one point; over a batch, per point (A of shape (m, m, N))."""
    return A @ v if v.ndim == 1 else np.einsum("ij...,j...->i...", A, v)


def _sweep(chart: ImmersionChart, points: Sequence, orientation: int,
           tol: Tolerances, workers: int | None):
    """Rows over the sample, the rows that evaluated, the failed count, and
    whether too many points failed to decide."""
    rows = _map_points(_PointWorker(chart, orientation, tol.near_minimal_f),
                       points, workers, _batch_size(chart.dim, 5))
    ok_rows = [r for r in rows if r.ok]
    failed = len(rows) - len(ok_rows)
    return rows, ok_rows, failed, failed > _FAIL_FRACTION * len(rows) or not ok_rows


# ---------------------------------------------------------------------------
# Hypersurface residual


@dataclass
class ResidualReport:
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

    def as_dict(self, include_points: bool = True) -> dict:
        out = {
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
        }
        if include_points:
            out["points"] = [
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
            ]
        return out


def hypersurface_residual(chart: ImmersionChart,
                          points: Sequence[tuple] | None = None,
                          orientation: int = 1,
                          tolerances: Tolerances | None = None,
                          workers: int | None = None) -> ResidualReport:
    """Evaluate the bitension residual of the Gauss map over sample points
    and classify. The verdict is orientation-independent."""
    if chart.ambient != "euclidean":
        raise GeometryError("hypersurface residual needs a euclidean chart")
    tol = tolerances or Tolerances()
    if points is None:
        points = chart.sample_points()
    if not points:
        raise GeometryError("empty sample set")
    rows, ok_rows, failed, inconclusive = _sweep(chart, points, orientation, tol, workers)
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


@dataclass(frozen=True)
class GrassmannTangent:
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


@dataclass
class LinkSystemReport:
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

    def as_dict(self, include_points: bool = True) -> dict:
        out = {
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
        }
        if include_points:
            out["points"] = [
                {
                    "point": list(p.point),
                    "ok": p.ok,
                    "f": p.f,
                    "vector_norm": p.residual_norm,
                    "scalar_residual": p.scalar_residual,
                    "error": p.error,
                }
                for p in self.points
            ]
        return out


def link_residual_system(chart: ImmersionChart,
                         points: Sequence[tuple] | None = None,
                         orientation: int = 1,
                         tolerances: Tolerances | None = None,
                         workers: int | None = None) -> LinkSystemReport:
    """Evaluate the coupled link system deciding whether the cone over the
    link has proper biharmonic Gauss map:

        Delta(grad f) + A^2(grad f) + (2m - 3 - |A|^2) grad f = 0
        3 Delta f + (3m - 6 - |A|^2) f = 0

    A minimal link (f == 0) satisfies it trivially: verdict HarmonicGauss."""
    if chart.ambient != "sphere":
        raise GeometryError("the link system needs a sphere-ambient chart")
    tol = tolerances or Tolerances()
    if points is None:
        points = chart.sample_points(default_count=5)
    rows, ok_rows, failed, inconclusive = _sweep(chart, points, orientation, tol, workers)
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
    return (A @ (A @ v) - ricci_via_gauss_equation(sd, v)
            + (sd.dim - 1 - (2.0 / 3.0) * norm_sq) * v)


def check_corollary_on_chart(chart: ImmersionChart,
                             points: Sequence[tuple] | None = None,
                             orientation: int = 1) -> dict:
    """Max norm of the necessary condition over sample points. Precondition:
    |A|^2 constant across the sample (checked to 1e-8 relative)."""
    if points is None:
        points = chart.sample_points(default_count=5)
    norms = []
    values = []
    for p in points:
        fd = fundamental_data(chart, p)
        sd = shape_data_spherical(chart, p, orientation, fd)
        norms.append(sd.shape_norm_sq.value)
        v = gradient_of_mean_curvature(fd, sd).value
        values.append(fd.norm(corollary_necessary_condition(sd, v)))
    spread = max(norms) - min(norms)
    if spread > 1e-8 * (1.0 + max(norms)):
        raise GeometryError("|A|^2 is not constant across the sample")
    return {"max_condition_norm": float(max(values)),
            "shape_norm_sq": float(np.mean(norms)),
            "sample_count": len(values)}


# ---------------------------------------------------------------------------
# R^3: prolongation certificate


@dataclass
class R3CheckResult:
    k0: float
    k0_dot: float
    k0_ddot: float
    second_eq_residual: float
    prolongation1: float  # k' k^2
    prolongation2: float  # k'' k^2 + 2 k k'^2
    prolongation3: float  # k''' k^2 + 6 k k' k'' + 2 k'^3, with k''' = -k'
    consistent: bool
    message: str


def r3_ode_check(k0: float, k0_dot: float, k0_ddot: float | None = None) -> R3CheckResult:
    """Consistency of curvature initial data with the planar-cone system
    k''' + k' = 0 and k(3 + k^2) + 3k'' = 0.

    Eliminating k''' between the first equation and the derivative of the
    second yields k' k^2 = 0; differentiating again (and once more, using
    k''' = -k') closes the certificate: the only consistent data is
    k0 = k0' = 0, i.e. k == 0 and the cone's Gauss map is harmonic, never
    proper biharmonic."""
    if k0_ddot is None:
        k0_ddot = -k0 * (3.0 + k0 * k0) / 3.0
        second_residual = 0.0
    else:
        second_residual = k0 * (3.0 + k0 * k0) + 3.0 * k0_ddot
    p1 = k0_dot * k0 * k0
    p2 = k0_ddot * k0 * k0 + 2.0 * k0 * k0_dot * k0_dot
    k0_dddot = -k0_dot
    p3 = k0_dddot * k0 * k0 + 6.0 * k0 * k0_dot * k0_ddot + 2.0 * k0_dot ** 3
    scale = 1.0 + abs(k0) + abs(k0_dot) + abs(k0_ddot)
    tolerance = 1e-12 * scale ** 3
    consistent = (abs(second_residual) <= tolerance and abs(p1) <= tolerance
                  and abs(p2) <= tolerance and abs(p3) <= tolerance)
    message = ("only k = 0 admissible: data consistent with the system and "
               "its prolongations" if consistent else
               "inconsistent initial data: the prolongation chain forces k = 0")
    return R3CheckResult(float(k0), float(k0_dot), float(k0_ddot),
                         float(second_residual), float(p1), float(p2),
                         float(p3), consistent, message)


# ---------------------------------------------------------------------------
# R^4: integral obstruction


@dataclass
class R4Obstruction:
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
        return {
            "chart": self.chart,
            "grid": list(self.grid),
            "closures": list(self.closures),
            "area": self.area,
            "integral_laplacian": self.integral_laplacian,
            "integral_weighted_f": self.integral_weighted_f,
            "mean_f": self.mean_f,
            "orientation_flipped": self.orientation_flipped,
            "obstruction_holds": self.obstruction_holds,
        }


def r4_obstruction(chart: ImmersionChart, grid: tuple[int, int] = (24, 24),
                   tolerance: float = 1e-8) -> R4Obstruction:
    """Integral obstruction on a compact 2d link: integrating the scalar link
    equation 3 Delta f = |A|^2 f (the m = 2 case) over the closed surface
    kills the left side by the divergence theorem, so a non-minimal link with
    f of one sign cannot solve it; no cone in R^4 has proper biharmonic Gauss
    map. Integration is the equal-weight rule on a uniform grid with the area
    element sqrt(det g); the grid is offset by half a step so that chart
    degeneracies at the box edges (poles) are never evaluated. Orientation is
    normalized so that the integral of f is >= 0.

    Each variable direction of the domain box must close up: either the chart
    is periodic in it, or the area element vanishes at both edges (a pole
    cap). Anything else raises GeometryError, since the surface would have a
    boundary and the divergence identity fails.
    """
    if chart.ambient != "sphere" or chart.dim != 2:
        raise GeometryError("the obstruction applies to 2d sphere-ambient links")
    (u_lo, u_hi), (v_lo, v_hi) = chart.domain
    nu, nv = grid
    if nu < 4 or nv < 4:
        raise GeometryError("grid too coarse for the integral rule")
    closures = (_closure_kind(chart, 0), _closure_kind(chart, 1))
    du = (u_hi - u_lo) / nu
    dv = (v_hi - v_lo) / nv
    cells = [(u_lo + (i + 0.5) * du, v_lo + (j + 0.5) * dv)
             for i in range(nu) for j in range(nv)]
    lap_sum = 0.0
    weighted_sum = 0.0
    f_sum = 0.0
    area = 0.0
    for lap, weighted, fw, w in _map_points(_R4Worker(chart, du, dv), cells, None,
                                            _batch_size(2, 4)):
        lap_sum += lap
        weighted_sum += weighted
        f_sum += fw
        area += w
    flipped = f_sum < 0.0
    if flipped:
        lap_sum, weighted_sum, f_sum = -lap_sum, -weighted_sum, -f_sum
    # positivity must hold at scale: a minimal link gives a roundoff-size
    # second integral and no contradiction
    holds = (abs(lap_sum) <= tolerance * max(area, 1.0)
             and weighted_sum > tolerance * max(area, 1.0))
    return R4Obstruction(chart.name, (nu, nv), closures, float(area),
                         float(lap_sum), float(weighted_sum),
                         float(f_sum / area), flipped, holds)


class _R4Worker(_BatchWorker):
    """Per grid cell of the R^4 obstruction: (3 Delta f w, |A|^2 f w, f w, w)
    with w = sqrt(det g) du dv. A failing cell raises its own error."""

    def __init__(self, chart, du, dv):
        self.chart = chart
        self.du = du
        self.dv = dv

    def _single(self, point) -> tuple:
        return tuple(float(c) for c in self._evaluate(point))

    def _evaluate(self, point) -> tuple:
        fd = fundamental_data(self.chart, point, order=4)
        sd = shape_data_spherical(self.chart, point, 1, fd)
        det = np.linalg.det(_points_first(fd.metric.value, 2))
        w = np.sqrt(np.maximum(det, 0.0)) * self.du * self.dv
        f = sd.mean_curvature.value
        return (3.0 * scalar_laplacian(fd, sd.mean_curvature) * w,
                sd.shape_norm_sq.value * f * w, f * w, w)

    @staticmethod
    def _rows(points, columns) -> list[tuple]:
        return list(zip(*(c.tolist() for c in columns)))


def _edge_frame(chart, var: int, at_hi: bool, count: int = 5):
    """Positions [a, N] and frames [i, a, N] at `count` interior points of
    one edge of the domain box (variable `var` at its low or high end), from
    one batched jet pass."""
    fixed = np.full(count, chart.domain[var][1 if at_hi else 0])
    run = np.linspace(*chart.domain[1 - var], count + 2)[1:-1]
    jets = chart.component_jets((fixed, run) if var == 0 else (run, fixed), order=1)
    X = JetValue(2, 1, np.stack([j.coeffs for j in jets], axis=1), 1)
    return X.value, X.gradient().value


def _closure_kind(chart, var: int, tol: float = 1e-8) -> str:
    """How variable `var` closes up: "periodic" when its two edges carry
    the same positions, "capped" when det g vanishes along both."""
    X_lo, T_lo = _edge_frame(chart, var, False)
    X_hi, T_hi = _edge_frame(chart, var, True)
    if not np.any(np.abs(X_lo - X_hi) > tol):
        return "periodic"
    T = np.concatenate([T_lo, T_hi], axis=-1)
    if np.any(np.abs(np.linalg.det(np.einsum("ia...,ja...->...ij", T, T))) > tol):
        raise GeometryError(
            f"chart does not close up in variable {chart.variables[var]!r}"
            " (neither periodic nor pole-capped)")
    return "capped"
