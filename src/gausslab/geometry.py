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

    def component_jets(self, point: Sequence[float], order: int = 5) -> list[JetValue]:
        if len(point) != self.dim:
            raise GeometryError("point dimension does not match chart")
        ctx = EvalContext(tuple(float(x) for x in point), order)
        jets = []
        for comp in self.components:
            if hasattr(comp, "jet"):
                jets.append(comp.jet(ctx.point, self.dim, order))
            else:
                jets.append(eval_jet(comp, ctx))
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


# ---------------------------------------------------------------------------
# Jet linear algebra helpers (matrices of jets as nested lists)


def _jet_matrix_inverse(g: list[list[JetValue]], g0_inv: np.ndarray) -> list[list[JetValue]]:
    """Truncated Neumann series around the numeric inverse of the value part."""
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
    """First-order data of a chart at one point (entries are jets)."""

    point: tuple[float, ...]
    metric: list[list[JetValue]]
    inverse_metric: list[list[JetValue]]
    christoffels: list[list[list[JetValue]]]  # [k][i][j] = Gamma^k_ij
    component_jets: list[JetValue] = field(repr=False, default=None)
    tangents: list[list[JetValue]] = field(repr=False, default=None)  # [i][a]

    @property
    def dim(self) -> int:
        return len(self.metric)

    def metric_values(self) -> np.ndarray:
        m = self.dim
        return np.array([[self.metric[i][j].value for j in range(m)] for i in range(m)])

    def inverse_metric_values(self) -> np.ndarray:
        m = self.dim
        return np.array([[self.inverse_metric[i][j].value for j in range(m)]
                         for i in range(m)])

    def norm(self, vec: np.ndarray) -> float:
        g = self.metric_values()
        return float(math.sqrt(max(vec @ g @ vec, 0.0)))


@dataclass
class ShapeData:
    """Second-order data: unit normal, second fundamental form, shape
    operator, signed mean curvature, |A|^2 (entries are jets)."""

    point: tuple[float, ...]
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
        m = self.dim
        return np.array([[self.shape_operator[i][j].value for j in range(m)]
                         for i in range(m)])


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


def fundamental_data(chart: ImmersionChart, point: Sequence[float],
                     order: int = 5) -> FundamentalData:
    """Metric, inverse metric and Christoffel symbols at `point`.

    Each quantity is carried only to the jet order the residual reads:
    component jets at `order`, tangents at `order - 1`, the metric and its
    inverse at `order - 2`, the Christoffel symbols at order 1.

    Raises SingularImmersionError when g fails the positive-definiteness or
    conditioning check, SphereConstraintError when a sphere-ambient chart is
    off the unit sphere by more than 1e-10.
    """
    pt = tuple(float(x) for x in point)
    cjets = chart.component_jets(pt, order)
    if chart.ambient == "sphere":
        radius_sq = sum(j.value * j.value for j in cjets)
        if abs(radius_sq - 1.0) > _SPHERE_TOL:
            raise SphereConstraintError(
                f"|X|^2 = {radius_sq!r} at {pt} (must be 1 within {_SPHERE_TOL})")
    m = chart.dim
    tangents = [[j.derivative(i) for j in cjets] for i in range(m)]
    low = [[t.truncate(order - 2) for t in row] for row in tangents]
    metric = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            metric[i][j] = metric[j][i] = _dot(low[i], low[j])
    g0 = np.array([[metric[i][j].value for j in range(m)] for i in range(m)])
    eigs = np.linalg.eigvalsh(g0)
    if eigs[0] <= _METRIC_EIG_FLOOR * max(eigs[-1], 1.0) or eigs[0] <= 0.0:
        raise SingularImmersionError(f"metric not positive definite at {pt}")
    if eigs[-1] / eigs[0] > _METRIC_COND_CEIL:
        raise SingularImmersionError(f"metric condition number exceeds 1e10 at {pt}")
    ginv = _jet_matrix_inverse(metric, np.linalg.inv(g0))
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
    R0 = np.array([[x.value for x in row] for row in frame])
    try:
        e = np.linalg.svd(R0)[2][-1]
    except np.linalg.LinAlgError as exc:
        raise SingularImmersionError(f"no normal at {fd.point}: {exc}") from exc
    # the orientation of the Hodge dual of the frame
    if np.linalg.det(np.vstack([e, R0])) < 0.0:
        e = -e
    w = _off_tangents(T, fd.inverse_metric, [float(x) for x in e])
    if position is not None:
        X = _off_tangents(T, fd.inverse_metric, [x.truncate(k) for x in position])
        s = _dot(X, w) / _dot(X, X)
        w = [wa - xa * s for wa, xa in zip(w, X)]
    return w


def _finish_normal(chart, fd, w, orientation):
    norm_sq = _dot(w, w)
    if norm_sq.value <= 0.0:
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
    the coordinate components of Delta V as floats.
    """
    m = fd.dim
    ginv = fd.inverse_metric_values()
    Gam = np.array([[[fd.christoffels[k][i][j].value for j in range(m)]
                     for i in range(m)] for k in range(m)])
    dGam = np.array([[[[fd.christoffels[k][j][r].derivative(i).value
                        for r in range(m)] for j in range(m)]
                      for k in range(m)] for i in range(m)])
    Vv = V.values
    dV = np.array([[V.components[k].derivative(i).value for k in range(m)]
                   for i in range(m)])
    unit = [0] * m
    ddV = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            alpha = unit[:]
            alpha[i] += 1
            alpha[j] += 1
            for k in range(m):
                ddV[i, j, k] = V.components[k].partial(tuple(alpha))
    # nabla_i nabla_j V - nabla_(Gamma^l_ij d_l) V, then minus the g-trace
    term = (ddV
            + np.einsum("ikjr,r->ijk", dGam, Vv)
            + np.einsum("kjr,ir->ijk", Gam, dV)
            + np.einsum("kir,jr->ijk", Gam, dV)
            + np.einsum("kir,rjs,s->ijk", Gam, Gam, Vv)
            - np.einsum("lij,lk->ijk", Gam, dV)
            - np.einsum("lij,klr,r->ijk", Gam, Gam, Vv))
    return -np.einsum("ij,ijk->k", ginv, term)


def scalar_laplacian(fd: FundamentalData, f: JetValue) -> float:
    """Laplace-Beltrami with the geometer's sign: Delta f = -trace_g Hess f."""
    m = fd.dim
    ginv = fd.inverse_metric_values()
    Gam = np.array([[[fd.christoffels[k][i][j].value for j in range(m)]
                     for i in range(m)] for k in range(m)])
    df = np.array([f.derivative(i).value for i in range(m)])
    ddf = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            alpha = [0] * m
            alpha[i] += 1
            alpha[j] += 1
            ddf[i, j] = f.partial(tuple(alpha))
    hess = ddf - np.einsum("lij,l->ij", Gam, df)
    return float(-np.einsum("ij,ij->", ginv, hess))


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
