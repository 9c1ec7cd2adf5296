"""Differential geometry of parametrized hypersurfaces from Taylor jets.

A chart is an immersion X: U -> R^(m+1) (euclidean ambient) or X: U -> S^(m+1)
inside R^(m+2) (sphere ambient, for links of cones). All first- and
second-order data (metric, Christoffel symbols, unit normal, shape operator,
mean curvature) are carried as truncated jets so that the rough Laplacian of
the mean-curvature gradient can be evaluated pointwise without any finite
differencing.

Each quantity is carried only to the jet order the residual reads (a Taylor
order budget; Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
From component jets at order p (5 by default): tangents at p - 1, metric,
inverse metric and unit normal at p - 2, Christoffel symbols at order 1,
second fundamental form, shape operator and f at p - 2. The unit normal is
the numeric normal e at the base point projected off the tangent frame,
e - T^T g^(-1) T e (and off the position on a sphere), so it costs O(m^2)
jet products.

Index conventions: i, j, k, l label chart variables (0..m-1); a, b label
ambient coordinates. The shape operator A = g^(-1) h is stored as A[i][j]
meaning A^i_j, and the mean curvature is the signed trace f = (1/m) tr A.
Sign convention for Laplacians is the geometer's: Delta = -trace(Hess).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exprjet import (
    DomainError,
    EvalContext,
    ExprAst,
    JetValue,
    eval_jet,
    parse_expression,
    shift_variables,
    Var,
    _index_tables,
)

__all__ = [
    "GeometryError",
    "SingularImmersionError",
    "SphereConstraintError",
    "SamplingSpec",
    "ImmersionChart",
    "chart_from_strings",
    "generalized_cylinder",
    "FundamentalData",
    "ShapeData",
    "TangentField",
    "fundamental_data",
    "shape_data_euclidean",
    "shape_data_spherical",
    "gradient_of_mean_curvature",
    "rough_laplacian",
    "scalar_laplacian",
    "ricci_via_gauss_equation",
]

# Relative spectral floor and condition ceiling for accepting g at a point.
_METRIC_EIG_FLOOR = 1e-12
_METRIC_COND_CEIL = 1e10
_SPHERE_TOL = 1e-10


class GeometryError(ValueError):
    pass


class SingularImmersionError(GeometryError):
    """Induced metric not positive definite / too ill-conditioned."""


class SphereConstraintError(GeometryError):
    """A sphere-ambient chart left the unit sphere."""


# ---------------------------------------------------------------------------
# Charts


@dataclass(frozen=True)
class SamplingSpec:
    """Either per-variable counts or explicit per-variable grid values."""

    counts: tuple[int, ...] | None = None
    values: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if (self.counts is None) == (self.values is None):
            raise GeometryError("sampling spec needs counts or values, not both")
        if self.counts is not None and any(c < 2 for c in self.counts):
            raise GeometryError("per-variable sample counts must be >= 2")


@dataclass(frozen=True)
class ImmersionChart:
    """Declarative chart. Components are expression ASTs; constructors that
    need quadrature-backed components may pass any object with a
    ``jet(point, dim, order)`` method instead."""

    name: str
    dim: int
    ambient: str  # "euclidean" | "sphere"
    variables: tuple[str, ...]
    components: tuple[object, ...]
    domain: tuple[tuple[float, float], ...]
    sampling: SamplingSpec | None = None

    def __post_init__(self):
        if self.ambient not in ("euclidean", "sphere"):
            raise GeometryError(f"unknown ambient {self.ambient!r}")
        if len(self.variables) != self.dim:
            raise GeometryError("variable count does not match dimension")
        if len(self.components) != self.ambient_dim:
            raise GeometryError(
                f"{self.ambient} ambient over dimension {self.dim} needs "
                f"{self.ambient_dim} components, got {len(self.components)}")
        if len(self.domain) != self.dim:
            raise GeometryError("domain box does not match dimension")
        for lo, hi in self.domain:
            if not lo < hi:
                raise GeometryError("domain intervals must satisfy lo < hi")

    @property
    def ambient_dim(self) -> int:
        return self.dim + (1 if self.ambient == "euclidean" else 2)

    def component_jets(self, point: Sequence, order: int = 5) -> list[JetValue]:
        """Jets of the components at a point (one float per variable), or at
        a batch of points (one array per variable). Components with a `jet`
        method are evaluated point by point and stacked."""
        if len(point) != self.dim:
            raise GeometryError("point dimension does not match chart")
        pt, batched = _as_point(point)
        ctx = EvalContext(pt, order)
        jets = []
        for comp in self.components:
            if not hasattr(comp, "jet"):
                jet = eval_jet(comp, ctx)
            elif not batched:
                jet = comp.jet(pt, self.dim, order)
            else:
                cols = [comp.jet(p, self.dim, order).coeffs
                        for p in zip(*(x.tolist() for x in pt))]
                jet = JetValue(self.dim, order, np.stack(cols, axis=1))
            if batched and jet.coeffs.ndim == 1:  # a constant component
                jet = JetValue(self.dim, order,
                               np.repeat(jet.coeffs[:, None], len(pt[0]), axis=1))
            jets.append(jet)
        return jets

    def grid_axes(self, default_count: int = 20, cap: int = 10_000) -> list[np.ndarray]:
        spec = self.sampling
        if spec is not None and spec.values is not None:
            return [np.asarray(v, dtype=float) for v in spec.values]
        counts = list(spec.counts) if spec is not None else [default_count] * self.dim
        total = math.prod(counts)
        if total > cap:
            per = max(2, int(cap ** (1.0 / self.dim)))
            counts = [min(c, per) for c in counts]
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, counts)]

    def sample_points(self, default_count: int = 20, cap: int = 10_000) -> list[tuple[float, ...]]:
        axes = self.grid_axes(default_count, cap)
        grids = np.meshgrid(*axes, indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=-1)
        return [tuple(row) for row in stacked]


def chart_from_strings(name: str, variables: Sequence[str],
                       components: Sequence[str],
                       domain: Sequence[tuple[float, float]],
                       ambient: str = "euclidean",
                       sampling: SamplingSpec | None = None) -> ImmersionChart:
    """Convenience constructor parsing component expression strings."""
    varnames = tuple(variables)
    asts = tuple(parse_expression(src, varnames) for src in components)
    return ImmersionChart(name, len(varnames), ambient, varnames, asts,
                          tuple((float(a), float(b)) for a, b in domain), sampling)


def generalized_cylinder(chart: ImmersionChart,
                         w_interval: tuple[float, float] = (-1.0, 1.0),
                         w_name: str = "w") -> ImmersionChart:
    """Product immersion (w, p) -> (w, X(p)) in R^(n+1) over a euclidean chart."""
    if chart.ambient != "euclidean":
        raise GeometryError("generalized cylinder needs a euclidean chart")
    for comp in chart.components:
        if hasattr(comp, "jet"):
            raise GeometryError("generalized cylinder needs expression components")
    names = (w_name,) + chart.variables
    shifted = tuple(shift_variables(c, 1, names) for c in chart.components)
    components = (Var(0, w_name),) + shifted
    sampling = chart.sampling
    if sampling is not None and sampling.counts is not None:
        sampling = SamplingSpec(counts=(3,) + sampling.counts)
    elif sampling is not None and sampling.values is not None:
        w_vals = tuple(np.linspace(*w_interval, 3))
        sampling = SamplingSpec(values=(w_vals,) + sampling.values)
    return ImmersionChart(f"cylinder({chart.name})", chart.dim + 1, "euclidean",
                          names, components, (w_interval,) + chart.domain, sampling)


def _as_point(point: Sequence) -> tuple[tuple, bool]:
    """A point as a tuple of floats, or a batch as a tuple of float arrays
    (one per variable); and whether it is a batch."""
    if isinstance(point[0], np.ndarray):
        return tuple(np.asarray(x, dtype=float) for x in point), True
    return tuple(float(x) for x in point), False


# ---------------------------------------------------------------------------
# Jet linear algebra helpers (matrices of jets as nested lists)


def _values(rows) -> np.ndarray:
    """Values of a matrix of jets; over a batch the point axis comes last."""
    return np.array([[x.value for x in row] for row in rows])


def _points_first(a: np.ndarray, rank: int) -> np.ndarray:
    """A value array of tensor rank `rank` with the point axis of a batch
    moved to the front, as stacked numpy.linalg calls expect."""
    return np.moveaxis(a, -1, 0) if a.ndim > rank else a


def _points_last(a: np.ndarray, rank: int) -> np.ndarray:
    return np.moveaxis(a, 0, -1) if a.ndim > rank else a


@lru_cache(maxsize=None)
def _partial_slots(m: int):
    """Coefficient positions of the first partials (first[i]) and of the
    second partials (second[i, j]) in a jet of order >= 2, and alpha! for
    every coefficient up to order 2 (raw partial = coefficient * alpha!)."""
    ordered, pos = _index_tables(m, 2)
    unit = [tuple(int(a == i) for a in range(m)) for i in range(m)]
    first = np.array([pos[e] for e in unit])
    second = np.array([[pos[tuple(a + b for a, b in zip(ei, ej))] for ej in unit]
                       for ei in unit])
    fac = np.array([float(math.prod(math.factorial(a) for a in alpha))
                    for alpha in ordered])
    return first, second, fac


def _jet_matrix_inverse(g: list[list[JetValue]], g0_inv: np.ndarray) -> list[list[JetValue]]:
    """Truncated Neumann series around the numeric inverse of the value part
    (over a batch g0_inv[i, j] holds one value per point)."""
    m = len(g)
    order = g[0][0].order
    # M = I - g0_inv @ g has zero constant part, so M^(order+1) truncates away.
    M = [[(-sum(g0_inv[i, l] * g[l][j] for l in range(m))) + (1.0 if i == j else 0.0)
          for j in range(m)] for i in range(m)]
    S = [[M[i][j] + (1.0 if i == j else 0.0) for j in range(m)] for i in range(m)]
    P = M
    for _ in range(order - 1):
        P = [[_dot(P[i], [M[l][j] for l in range(m)]) for j in range(m)]
             for i in range(m)]
        S = [[S[i][j] + P[i][j] for j in range(m)] for i in range(m)]
    return [[_dot(S[i], g0_inv[:, j]) for j in range(m)] for i in range(m)]


def _dot(row: list[JetValue], col) -> JetValue:
    """Sum of row[i] * col[i], left to right; col holds jets or floats."""
    acc = row[0] * col[0]
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# Data containers


@dataclass
class FundamentalData:
    """First-order data of a chart at one point, or at a batch of points
    (entries are jets; `point` then holds one array per variable)."""

    point: tuple
    metric: list[list[JetValue]]
    inverse_metric: list[list[JetValue]]
    christoffels: list[list[list[JetValue]]]  # [k][i][j] = Gamma^k_ij
    component_jets: list[JetValue] = field(repr=False, default=None)
    tangents: list[list[JetValue]] = field(repr=False, default=None)  # [i][a]

    @property
    def dim(self) -> int:
        return len(self.metric)

    def metric_values(self) -> np.ndarray:
        return _values(self.metric)

    def inverse_metric_values(self) -> np.ndarray:
        return _values(self.inverse_metric)

    def norm(self, vec: np.ndarray):
        """|vec|_g: a float, or an array over a batch (vec of shape (m, N))."""
        g = self.metric_values()
        if vec.ndim == 1:
            return float(math.sqrt(max(vec @ g @ vec, 0.0)))
        return np.sqrt(np.maximum(np.einsum("i...,ij...,j...->...", vec, g, vec), 0.0))


@dataclass
class ShapeData:
    """Second-order data: unit normal, second fundamental form, shape
    operator, signed mean curvature, |A|^2 (entries are jets, at one point or
    over a batch)."""

    point: tuple
    orientation: int
    normal: list[JetValue]
    second_fundamental: list[list[JetValue]]
    shape_operator: list[list[JetValue]]  # A^i_j
    mean_curvature: JetValue
    shape_norm_sq: JetValue

    @property
    def dim(self) -> int:
        return len(self.shape_operator)

    def shape_operator_values(self) -> np.ndarray:
        return _values(self.shape_operator)


@dataclass
class TangentField:
    """Vector field value carried as per-component jets in chart coordinates."""

    components: tuple[JetValue, ...]

    @classmethod
    def from_values(cls, values: Sequence[float], m: int, order: int = 0) -> "TangentField":
        return cls(tuple(JetValue.constant(float(v), m, order) for v in values))

    @property
    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.components])

    def __len__(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# Core computations


def fundamental_data(chart: ImmersionChart, point: Sequence,
                     order: int = 5) -> FundamentalData:
    """Metric, inverse metric and Christoffel symbols at `point`: one float
    per variable, or one array per variable for a batch of points carried
    through one jet pass (the gates then test every point of the batch).

    Each quantity is carried only to the jet order the residual reads:
    component jets at `order`, tangents at `order - 1`, the metric and its
    inverse at `order - 2`, the Christoffel symbols at order 1.

    Raises DomainError when a component jet or the metric is not finite,
    SingularImmersionError when g fails the positive-definiteness or
    conditioning check, SphereConstraintError when a sphere-ambient chart is
    off the unit sphere by more than 1e-10.
    """
    pt, _ = _as_point(point)
    m = chart.dim
    # overflow is reported as DomainError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        cjets = chart.component_jets(pt, order)
        if not all(np.isfinite(j.coeffs).all() for j in cjets):
            raise DomainError(f"component jets are not finite at {pt}")
        if chart.ambient == "sphere":
            radius_sq = sum(j.value * j.value for j in cjets)
            if np.any(abs(radius_sq - 1.0) > _SPHERE_TOL):
                raise SphereConstraintError(
                    f"|X|^2 = {radius_sq!r} at {pt} (must be 1 within {_SPHERE_TOL})")
        tangents = [[j.derivative(i) for j in cjets] for i in range(m)]
        low = [[t.truncate(order - 2) for t in row] for row in tangents]
        metric = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                metric[i][j] = metric[j][i] = _dot(low[i], low[j])
        g0 = _values(metric)
    if not np.isfinite(g0).all():
        raise DomainError(f"metric is not finite at {pt}")
    g0 = _points_first(g0, 2)
    eigs = np.linalg.eigvalsh(g0)
    lowest, highest = eigs[..., 0], eigs[..., -1]
    if np.any((lowest <= _METRIC_EIG_FLOOR * np.maximum(highest, 1.0)) | (lowest <= 0.0)):
        raise SingularImmersionError(f"metric not positive definite at {pt}")
    if np.any(highest / lowest > _METRIC_COND_CEIL):
        raise SingularImmersionError(f"metric condition number exceeds 1e10 at {pt}")
    ginv = _jet_matrix_inverse(metric, _points_last(np.linalg.inv(g0), 2))
    # the Laplacians read only the values and first derivatives of Gamma
    c_order = min(1, order - 3)
    ginv_c = [[x.truncate(c_order) for x in row] for row in ginv]
    dg = [[[metric[i][j].derivative(l).truncate(c_order) for j in range(m)]
           for i in range(m)] for l in range(m)]
    # first-kind symbols [ij, l] = d_i g_jl + d_j g_il - d_l g_ij
    first = [[[dg[i][j][l] + dg[j][i][l] - dg[l][i][j] for j in range(m)]
              for i in range(m)] for l in range(m)]
    christoffels = [[[None] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(i, m):
                gam = _dot(ginv_c[k], [first[l][i][j] for l in range(m)]) * 0.5
                christoffels[k][i][j] = christoffels[k][j][i] = gam
    return FundamentalData(pt, metric, ginv, christoffels, cjets, tangents)


def _shape_from_normal(chart: ImmersionChart, fd: FundamentalData,
                       normal: list[JetValue], orientation: int) -> ShapeData:
    m = chart.dim
    h = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            h[i][j] = h[j][i] = _dot([t.derivative(j) for t in fd.tangents[i]], normal)
    A = [[_dot(fd.inverse_metric[i], [h[l][j] for l in range(m)])
          for j in range(m)] for i in range(m)]
    f = A[0][0]
    for i in range(1, m):
        f = f + A[i][i]
    f = f * (1.0 / m)
    norm_sq = None
    for i in range(m):
        for j in range(m):
            term = A[i][j] * A[j][i]
            norm_sq = term if norm_sq is None else norm_sq + term
    return ShapeData(fd.point, orientation, normal, h, A, f, norm_sq)


def shape_data_euclidean(chart: ImmersionChart, point: Sequence[float],
                         orientation: int = 1,
                         fd: FundamentalData | None = None) -> ShapeData:
    """Shape data with the unit normal projected off the tangent frame and
    oriented so that det([n; X_1; ...; X_m]) > 0."""
    if chart.ambient != "euclidean":
        raise GeometryError("chart is not euclidean-ambient")
    if fd is None:
        fd = fundamental_data(chart, point)
    return _finish_normal(chart, fd, _normal_direction(fd, None), orientation)


def shape_data_spherical(chart: ImmersionChart, point: Sequence[float],
                         orientation: int = 1,
                         fd: FundamentalData | None = None) -> ShapeData:
    """Shape data of a link inside the unit sphere: the unit normal is
    projected off the tangent frame and the position X, and oriented so that
    det([n; X; X_1; ...; X_m]) > 0."""
    if chart.ambient != "sphere":
        raise GeometryError("chart is not sphere-ambient")
    if fd is None:
        fd = fundamental_data(chart, point)
    return _finish_normal(chart, fd, _normal_direction(fd, fd.component_jets),
                          orientation)


def _off_tangents(T: list[list[JetValue]], ginv: list[list[JetValue]], v: list) -> list[JetValue]:
    """v - T^T g^(-1) (T v): the part of v orthogonal to the rows of T, with
    g = T T^T; v holds floats or jets."""
    Tv = [_dot(t, v) for t in T]
    c = [_dot(row, Tv) for row in ginv]
    return [va - _dot([t[a] for t in T], c) for a, va in enumerate(v)]


def _normal_direction(fd: FundamentalData, position: list[JetValue] | None) -> list[JetValue]:
    """A normal field w at the order of g^(-1): the numeric unit normal e at
    the base point, projected off the tangents (and off X on a sphere)."""
    k = fd.inverse_metric[0][0].order
    T = [[t.truncate(k) for t in row] for row in fd.tangents]
    frame = fd.tangents if position is None else [position] + fd.tangents
    R0 = _points_first(_values(frame), 2)
    try:
        e = np.linalg.svd(R0)[2][..., -1, :]
    except np.linalg.LinAlgError as exc:
        raise SingularImmersionError(f"no normal at {fd.point}: {exc}") from exc
    # the orientation of the Hodge dual of the frame
    det = np.linalg.det(np.concatenate([e[..., None, :], R0], axis=-2))
    e = np.where((np.asarray(det) < 0.0)[..., None], -e, e)
    w = _off_tangents(T, fd.inverse_metric,
                      list(e.T) if e.ndim == 2 else [float(x) for x in e])
    if position is not None:
        X = _off_tangents(T, fd.inverse_metric, [x.truncate(k) for x in position])
        s = _dot(X, w) / _dot(X, X)
        w = [wa - xa * s for wa, xa in zip(w, X)]
    return w


def _finish_normal(chart, fd, w, orientation):
    norm_sq = _dot(w, w)
    if np.any(norm_sq.value <= 0.0):
        raise SingularImmersionError(f"degenerate tangent frame at {fd.point}")
    inv_norm = 1.0 / norm_sq.compose("sqrt")
    normal = [wi * inv_norm for wi in w]
    if orientation == -1:
        normal = [-n for n in normal]
    elif orientation != 1:
        raise GeometryError("orientation must be +1 or -1")
    return _shape_from_normal(chart, fd, normal, orientation)


def gradient_of_mean_curvature(fd: FundamentalData, sd: ShapeData) -> TangentField:
    """grad f = g^(ij) df_j as a tangent field (jets, two orders below f)."""
    m = fd.dim
    df = [sd.mean_curvature.derivative(j) for j in range(m)]
    comps = tuple(_dot(fd.inverse_metric[i], df) for i in range(m))
    return TangentField(comps)


def rough_laplacian(fd: FundamentalData, V: TangentField) -> np.ndarray:
    """Connection Laplacian Delta V = -trace_g(nabla^2 V) at the base point.

    Needs V carried to jet order >= 2 and Christoffels to order >= 1; returns
    the coordinate components of Delta V as floats (shape (m, N) over a
    batch). The partials are read as coefficient gathers.
    """
    m = fd.dim
    first, second, fac = _partial_slots(m)
    ginv = _points_first(fd.inverse_metric_values(), 2)
    C = _points_first(np.array([[[c.coeffs[: m + 1] for c in row] for row in plane]
                                for plane in fd.christoffels]), 4)
    Gam = C[..., 0]  # Gam[k, i, j] = Gamma^k_ij
    dGam = np.moveaxis(C[..., first], -1, -4)  # dGam[i, k, j, r] = d_i Gamma^k_jr
    Vc = _points_first(np.array([c.coeffs[: len(fac)] for c in V.components]), 2) * fac
    Vv = Vc[..., 0]
    dV = np.swapaxes(Vc[..., first], -1, -2)  # dV[i, k] = d_i V^k
    ddV = np.moveaxis(Vc[..., second], -3, -1)  # ddV[i, j, k] = d_i d_j V^k
    # nabla_i nabla_j V - nabla_(Gamma^l_ij d_l) V, then minus the g-trace
    term = (ddV
            + np.einsum("...ikjr,...r->...ijk", dGam, Vv)
            + np.einsum("...kjr,...ir->...ijk", Gam, dV)
            + np.einsum("...kir,...jr->...ijk", Gam, dV)
            + np.einsum("...kir,...rjs,...s->...ijk", Gam, Gam, Vv)
            - np.einsum("...lij,...lk->...ijk", Gam, dV)
            - np.einsum("...lij,...klr,...r->...ijk", Gam, Gam, Vv))
    return _points_last(-np.einsum("...ij,...ijk->...k", ginv, term), 1)


def scalar_laplacian(fd: FundamentalData, f: JetValue):
    """Laplace-Beltrami with the geometer's sign: Delta f = -trace_g Hess f
    (a float, or an array over a batch)."""
    m = fd.dim
    first, second, fac = _partial_slots(m)
    ginv = _points_first(fd.inverse_metric_values(), 2)
    Gam = _points_first(np.array([[[c.value for c in row] for row in plane]
                                  for plane in fd.christoffels]), 3)
    fc = _points_first(f.coeffs[: len(fac)], 1) * fac
    hess = fc[..., second] - np.einsum("...lij,...l->...ij", Gam, fc[..., first])
    out = -np.einsum("...ij,...ij->...", ginv, hess)
    return float(out) if out.ndim == 0 else out


def ricci_via_gauss_equation(sd: ShapeData, X: TangentField) -> TangentField:
    """Ricci operator of a link in the unit sphere applied to X:
    Ric(X) = (m-1) X + m f A(X) - A^2(X)."""
    m = sd.dim
    AX = [_dot(row, X.components) for row in sd.shape_operator]
    AAX = [_dot(row, AX) for row in sd.shape_operator]
    f = sd.mean_curvature
    comps = []
    for i in range(m):
        comps.append(X.components[i] * float(m - 1) + f * AX[i] * float(m) - AAX[i])
    return TangentField(tuple(comps))
