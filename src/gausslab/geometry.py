"""Differential geometry of parametrized hypersurfaces from Taylor jets.

A chart is an immersion X: U -> R^(m+1) (euclidean ambient) or X: U -> S^(m+1)
inside R^(m+2) (sphere ambient, for links of cones). All first- and
second-order data (metric, Christoffel symbols, unit normal, shape operator,
mean curvature) are carried as truncated jets so that the rough Laplacian of
the mean-curvature gradient can be evaluated pointwise without any finite
differencing.

Each quantity is carried only to the jet order the residual reads (a Taylor
order budget; Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
From component jets at order p (5 by default): tangents, metric, inverse
metric, unit normal, second fundamental form and f at p - 2, Christoffel
symbols at order 1, and the shape operator A and |A|^2 at order 0, as the
residual reads only their values. The unit normal is the numeric normal e
at the base point, the last column of a complete QR of the frame's
transpose, projected off the tangent frame, e - T^T g^(-1) T e (and off the
position on a sphere).

Every tensor is one `JetValue` with tensor axes (see `exprjet`), and each of
g = T T^T, the Neumann series for g^(-1), Gamma, h, the projected normal and
grad f is one `contract` over those axes; so is f = (1/m) g^il h_li, one
trace contraction that builds no A. h reads the packed second partials
d_i d_j X, i <= j, and the Neumann products skip their zero blocks. One
Laplacian serves functions and vector fields; it, A, |A|^2 and the other
algebra on values add their terms in one order (`_sum`), so a point alone
and in a batch of any size gets the same bits.

Index conventions: i, j, k, l label chart variables (0..m-1); a, b label
ambient coordinates. Tensor axes follow the index order written: the frame
T has axes [i, a] (T[i] = d_i X), the Christoffel symbols [k, i, j] =
Gamma^k_ij, and the shape operator A = g^(-1) h has axes [i, j] = A^i_j.
The mean curvature is the signed trace f = (1/m) tr A. Sign convention for
Laplacians is the geometer's: Delta = -trace(Hess).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .exprjet import (
    DomainError,
    JetProgram,
    JetValue,
    _TABLES,
    _any,
    _gathered,
    _second_tables,
    contract,
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
# Most points of a chart's sample grid.
_SAMPLE_CAP = 10_000


class GeometryError(ValueError):
    pass


class SingularImmersionError(GeometryError):
    """Induced metric not positive definite / too ill-conditioned."""


class SphereConstraintError(GeometryError):
    """A sphere-ambient chart left the unit sphere."""


# ---------------------------------------------------------------------------
# Charts


class _SamplingFields(NamedTuple):
    counts: tuple[int, ...]


class SamplingSpec(_SamplingFields):
    """Per-variable sample counts of a uniform grid."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if any(c < 2 for c in counts):
            raise GeometryError("per-variable sample counts must be >= 2")
        return super().__new__(cls, counts)


class ImmersionChart:
    """Declarative chart. Components are expression ASTs; constructors that
    need quadrature-backed components may pass any object with a
    ``jet(point, dim, order)`` method instead."""

    def __init__(self, name: str, dim: int, ambient: str, variables: tuple[str, ...],
                 components: tuple[object, ...], domain: tuple[tuple[float, float], ...],
                 sampling: SamplingSpec | None = None):
        self.name = name
        self.dim = dim
        self.ambient = ambient  # "euclidean" | "sphere"
        self.variables = variables
        self.components = components
        self.domain = domain
        self.sampling = sampling
        if ambient not in ("euclidean", "sphere"):
            raise GeometryError(f"unknown ambient {ambient!r}")
        if len(variables) != dim:
            raise GeometryError("variable count does not match dimension")
        if len(components) != self.ambient_dim:
            raise GeometryError(
                f"{ambient} ambient over dimension {dim} needs "
                f"{self.ambient_dim} components, got {len(components)}")
        if len(domain) != dim:
            raise GeometryError("domain box does not match dimension")
        for lo, hi in domain:
            if not lo < hi:
                raise GeometryError("domain intervals must satisfy lo < hi")
        if sampling is not None and len(sampling.counts) != dim:
            raise GeometryError(
                f"sample counts {sampling.counts} do not match dimension {dim}")

    @property
    def ambient_dim(self) -> int:
        return self.dim + (1 if self.ambient == "euclidean" else 2)

    @cached_property
    def _program(self) -> JetProgram:
        """The expression components, compiled once per chart."""
        return JetProgram([c for c in self.components if not hasattr(c, "jet")], self.dim)

    def component_jets(self, point: Sequence, order: int = 5) -> list[JetValue]:
        """Jets of the components at a point (one float per variable), or at
        a batch of points (one array per variable). The expressions run as the
        chart's `JetProgram`, so a sub-expression that occurs more than once
        is evaluated once per call. Components with a `jet` method are
        evaluated point by point and stacked."""
        if len(point) != self.dim:
            raise GeometryError("point dimension does not match chart")
        pt, batched = _as_point(point)
        expressions = iter(self._program(pt, order))
        jets = []
        for comp in self.components:
            if not hasattr(comp, "jet"):
                jet = next(expressions)
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

    def grid_counts(self, default_count: int = 20) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-variable counts of the sample grid, as requested (the sampling
        counts, or `default_count` per variable without them) and as sampled.
        A grid of more than _SAMPLE_CAP points is cut to at most
        _SAMPLE_CAP^(1/dim) points per variable. From dimension 14 up even 2
        per variable is past the cap, and it raises GeometryError."""
        requested = (self.sampling.counts if self.sampling is not None
                     else (default_count,) * self.dim)
        if math.prod(requested) <= _SAMPLE_CAP:
            return requested, requested
        if 2 ** self.dim > _SAMPLE_CAP:
            raise GeometryError(
                f"a sample grid at dimension {self.dim} holds at least 2^{self.dim}"
                f" points, more than the cap of {_SAMPLE_CAP}; give explicit samples")
        per = int(_SAMPLE_CAP ** (1.0 / self.dim))
        return requested, tuple(min(c, per) for c in requested)

    def sample_points(self, default_count: int = 20) -> list[tuple[float, ...]]:
        """The uniform grid over the domain box, edges included, with the
        sampled counts of `grid_counts`."""
        _, counts = self.grid_counts(default_count)
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, counts)]
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


def generalized_cylinder(chart: ImmersionChart) -> ImmersionChart:
    """Product immersion (w, p) -> (w, X(p)) in R^(n+1) over a euclidean
    chart, w in [-1, 1], sampled at 3 values of w."""
    if chart.ambient != "euclidean":
        raise GeometryError("generalized cylinder needs a euclidean chart")
    for comp in chart.components:
        if hasattr(comp, "jet"):
            raise GeometryError("generalized cylinder needs expression components")
    names = ("w",) + chart.variables
    shifted = tuple(shift_variables(c, 1, names) for c in chart.components)
    components = (Var(0, "w"),) + shifted
    sampling = None if chart.sampling is None else SamplingSpec((3,) + chart.sampling.counts)
    return ImmersionChart(f"cylinder({chart.name})", chart.dim + 1, "euclidean",
                          names, components, ((-1.0, 1.0),) + chart.domain, sampling)


def _as_point(point: Sequence) -> tuple[tuple, bool]:
    """A point as a tuple of floats, or a batch as a tuple of float arrays
    (one per variable); and whether it is a batch."""
    if isinstance(point[0], np.ndarray):
        return tuple(np.asarray(x, dtype=float) for x in point), True
    return tuple(float(x) for x in point), False


# ---------------------------------------------------------------------------
# Array layout helpers


def _points_first(a: np.ndarray, rank: int) -> np.ndarray:
    """A value array of tensor rank `rank` with the point axis of a batch
    moved to the front, as stacked numpy.linalg calls expect."""
    return np.moveaxis(a, -1, 0) if a.ndim > rank else a


def _points_last(a: np.ndarray, rank: int) -> np.ndarray:
    return np.moveaxis(a, 0, -1) if a.ndim > rank else a


def _sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the leading axis, term after term: einsum and np.sum
    order their additions by the array's layout, which a batch changes."""
    return sum(terms[1:], terms[0])


@_TABLES
def _symmetric_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per entry (i, j) of an m x m matrix: the row and column (min, max) of
    the upper-triangle entry that mirrors it, and that entry's place among
    the pairs i <= j in np.triu_indices order; a matrix read through them is
    symmetric to the last bit."""
    lo, hi = np.minimum.outer(range(m), range(m)), np.maximum.outer(range(m), range(m))
    return lo, hi, lo * (2 * m - lo - 1) // 2 + hi


def _inverse(g: JetValue, g0_inv: np.ndarray) -> JetValue:
    """Truncated Neumann series around the numeric inverse of the value part
    (over a batch g0_inv has shape (m, m, N)). M = I - g0^(-1) g has zero
    constant part, set exactly (not the roundoff of I - g0^(-1) g0), so M^k
    starts at degree k, below which each product reads nothing (`lowest`),
    and M^(order+1) truncates away."""
    M = np.eye(len(g)) - contract("lj,il->ij", g, g0_inv)
    M.coeffs[0] = 0.0
    M.lowest = 1
    S = M + np.eye(len(g))
    P = M
    for _ in range(g.order - 1):
        P = contract("il,lj->ij", P, M)
        S = S + P
    return contract("il,lj->ij", S, g0_inv)


def _off_tangents(T: JetValue, ginv: JetValue, v) -> JetValue:
    """v - T^T g^(-1) (T v): the part of v orthogonal to the rows of the
    frame T, with g = T T^T; v is a vector jet or a constant vector."""
    c = contract("ij,j->i", ginv, contract("ia,a->i", T, v))
    return v - contract("ia,i->a", T, c)


# ---------------------------------------------------------------------------
# Data containers


class FundamentalData(NamedTuple):
    """First-order data of a chart at one point, or at a batch of points
    (`point` then holds one array per variable). Every field is one jet
    with tensor axes."""

    point: tuple
    metric: JetValue  # [i, j] = g_ij
    inverse_metric: JetValue  # [i, j] = g^ij
    christoffels: JetValue  # [k, i, j] = Gamma^k_ij
    position: JetValue  # [a] = X_a
    frame: JetValue  # [i, a] = d_i X_a

    def norm(self, vec: np.ndarray):
        """|vec|_g at one point, or per point over a batch (vec of shape
        (m, N))."""
        return np.sqrt(np.maximum(_sum(vec * _apply(self.metric.value, vec)), 0.0))


class ShapeData(NamedTuple):
    """Second-order data: unit normal, shape operator, signed mean
    curvature, |A|^2 (jets, at one point or over a batch)."""

    normal: JetValue  # [a], at the order of g^(-1)
    shape_operator: JetValue  # [i, j] = A^i_j, order 0: the value alone
    mean_curvature: JetValue  # f = (1/m) tr A, at the order of g^(-1)
    shape_norm_sq: JetValue  # |A|^2 = tr A^2, order 0

    @property
    def dim(self) -> int:
        return len(self.shape_operator)


# ---------------------------------------------------------------------------
# Core computations


def fundamental_data(chart: ImmersionChart, point: Sequence,
                     order: int = 5) -> FundamentalData:
    """Metric, inverse metric and Christoffel symbols at `point`: one float
    per variable, or one array per variable for a batch of points carried
    through one jet pass (the gates then test every point of the batch).

    Each quantity is carried only to the jet order the residual reads:
    component jets at `order`, the tangents, the metric and its inverse at
    `order - 2`, the Christoffel symbols at order 1.

    Raises GeometryError for an order below 3, before any jet work;
    DomainError when a component jet or the metric is not finite,
    SingularImmersionError when g fails the positive-definiteness or
    conditioning check, SphereConstraintError when a sphere-ambient chart is
    off the unit sphere by more than 1e-10.
    """
    if order < 3:
        raise GeometryError(f"fundamental data need jets of order 3 or more, not {order}")
    pt, _ = _as_point(point)
    # overflow is reported as DomainError below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        cjets = chart.component_jets(pt, order)
        X = JetValue(chart.dim, order, np.stack([j.coeffs for j in cjets], axis=1), 1)
        if not np.isfinite(X.coeffs).all():
            raise DomainError(f"component jets are not finite at {pt}")
        if chart.ambient == "sphere":
            radius_sq = sum(j.value * j.value for j in cjets)
            if _any(abs(radius_sq - 1.0) > _SPHERE_TOL):
                raise SphereConstraintError(
                    f"|X|^2 = {radius_sq!r} at {pt} (must be 1 within {_SPHERE_TOL})")
        T = X.gradient(order - 2)
        g = contract("ia,ja->ij", T, T)
        lo, hi, _ = _symmetric_index(chart.dim)
        metric = JetValue(g.m, g.order, g.coeffs[:, lo, hi], 2)
        g0 = metric.value
    if not np.isfinite(g0).all():
        raise DomainError(f"metric is not finite at {pt}")
    g0 = _points_first(g0, 2)
    eigs = np.linalg.eigvalsh(g0)
    lowest, highest = eigs[..., 0], eigs[..., -1]
    if _any(lowest <= 0.0):
        raise SingularImmersionError(f"metric not positive definite at {pt}")
    if _any(highest / lowest > _METRIC_COND_CEIL):
        raise SingularImmersionError(f"metric condition number exceeds 1e10 at {pt}")
    if _any(lowest <= _METRIC_EIG_FLOOR * np.maximum(highest, 1.0)):
        raise SingularImmersionError(f"metric numerically singular at {pt}")
    ginv = _inverse(metric, _points_last(np.linalg.inv(g0), 2))
    # the Laplacians read only the values and first derivatives of Gamma
    c_order = min(1, order - 3)
    dg = metric.gradient(c_order).coeffs  # [l, i, j] = d_l g_ij
    swapped = np.moveaxis(dg, 3, 1)  # [l, i, j] = d_i g_jl
    # first-kind symbols [l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    first = JetValue(chart.dim, c_order, swapped + swapped.swapaxes(2, 3) - dg, 3)
    christoffels = contract("kl,lij->kij", ginv.truncate(c_order), first) * 0.5
    return FundamentalData(pt, metric, ginv, christoffels, X, T)


def shape_data_euclidean(chart: ImmersionChart, point: Sequence[float],
                         orientation: int = 1,
                         fd: FundamentalData | None = None) -> ShapeData:
    """Shape data with the unit normal projected off the tangent frame and
    oriented so that det([n; X_1; ...; X_m]) > 0."""
    return _shape_data(chart, point, orientation, fd, "euclidean")


def shape_data_spherical(chart: ImmersionChart, point: Sequence[float],
                         orientation: int = 1,
                         fd: FundamentalData | None = None) -> ShapeData:
    """Shape data of a link inside the unit sphere: the unit normal is
    projected off the tangent frame and the position X, and oriented so that
    det([n; X; X_1; ...; X_m]) > 0."""
    return _shape_data(chart, point, orientation, fd, "sphere")


def _shape_data(chart: ImmersionChart, point, orientation: int,
                fd: FundamentalData | None, ambient: str) -> ShapeData:
    if chart.ambient != ambient:
        raise GeometryError(f"chart is not {ambient}-ambient")
    _check_orientation(orientation)
    if fd is None:
        fd = fundamental_data(chart, point)
    w = _normal_direction(fd, on_sphere=ambient == "sphere")
    norm_sq = contract("a,a->", w, w)
    if _any(norm_sq.value <= 0.0):
        raise SingularImmersionError(f"degenerate tangent frame at {fd.point}")
    normal = w * (1.0 / norm_sq.compose("sqrt"))
    if orientation == -1:
        normal = -normal
    ginv, h = fd.inverse_metric, _second_form(fd, normal)
    m = chart.dim
    f = contract("il,li->", ginv, h) * (1.0 / m)
    # A0^i_j = g0^il h0_lj over l, and |A|^2 = A0^i_j A0^j_i over i, then j
    A0 = _sum(ginv.value.swapaxes(0, 1)[:, :, None] * h.value[:, None])
    norm_sq_A = _sum(_sum(A0 * A0.swapaxes(0, 1)))
    return ShapeData(normal, JetValue(m, 0, A0[None], 2), f,
                     JetValue(m, 0, np.asarray(norm_sq_A)[None]))


def _check_orientation(orientation: int) -> None:
    """Raise GeometryError unless `orientation` is +1 or -1."""
    if orientation not in (1, -1):
        raise GeometryError("orientation must be +1 or -1")


def _second_form(fd: FundamentalData, normal: JetValue) -> JetValue:
    """h_ij = <d_i d_j X, n> at the order of the normal: the second partials
    of the position for i <= j, gathered in one pass and contracted with n,
    then unpacked to both triangles, so that h is exactly symmetric."""
    X = fd.position
    second = JetValue(X.m, X.order - 2, _gathered(X.coeffs, *_second_tables(X.m, X.order)), 2)
    packed = contract("pa,a->p", second, normal)
    return JetValue(packed.m, packed.order, packed.coeffs[:, _symmetric_index(packed.m)[2]], 2)


def _normal_direction(fd: FundamentalData, on_sphere: bool) -> JetValue:
    """A normal field w at the order of g^(-1): the numeric unit normal e at
    the base point, projected off the tangents (and off X on a sphere)."""
    T, k = fd.frame, fd.inverse_metric.order  # the frame is at the order of g^(-1)
    R0 = T.value
    if on_sphere:
        R0 = np.concatenate([fd.position.value[None], R0])
    R0 = _points_first(R0, 2)
    try:  # the last column of a complete Q is orthogonal to the rows of R0
        e = np.linalg.qr(R0.swapaxes(-1, -2), mode="complete")[0][..., -1]
    except np.linalg.LinAlgError as exc:
        raise SingularImmersionError(f"no normal at {fd.point}: {exc}") from exc
    # the orientation of the Hodge dual of the frame
    det = np.linalg.det(np.concatenate([e[..., None, :], R0], axis=-2))
    e = np.where((np.asarray(det) < 0.0)[..., None], -e, e)
    w = _off_tangents(T, fd.inverse_metric, e.T)
    if on_sphere:
        X = _off_tangents(T, fd.inverse_metric, fd.position.truncate(k))
        w = w - X * (contract("a,a->", X, w) / contract("a,a->", X, X))
    return w


def gradient_of_mean_curvature(fd: FundamentalData, sd: ShapeData) -> JetValue:
    """grad f = g^(ij) df_j, a vector jet two orders below f."""
    return contract("ij,j->i", fd.inverse_metric, sd.mean_curvature.gradient())


def rough_laplacian(fd: FundamentalData, F: JetValue):
    """Delta F = -trace_g(nabla^2 F) at the base point of a function (a
    scalar jet) or a vector field (a vector jet, [k] = F^k) carried to order
    >= 2, with the Christoffels to order >= 1.

    W = nabla F is carried as a jet of order 1, W[j, k] = d_j F^k +
    Gamma^k_jr F^r, and (nabla^2 F)_ij^k = d_i W_j^k + Gamma^k_ir W_j^r -
    Gamma^l_ij W_l^k reads its partials; a function has no k and no Gamma W
    term. Each product broadcasts over k and the point axis of a batch:
    the result has shape (), (m,), (N,) or (m, N).
    """
    W = F.gradient(1)
    if F.rank:
        W = W + contract("kjr,r->jk", fd.christoffels, F)
    Gam, Wv = fd.christoffels.value, W.value  # Gam[k, i, j] = Gamma^k_ij
    lift = (slice(None),) * 3 + (None,) * F.rank  # a unit axis for k after [l, i, j]
    hess = W.gradient().value - _sum(Gam[lift] * Wv[:, None, None])  # over l
    if F.rank:  # [r, i, j, k] = Gamma^k_ir W_j^r, over r
        hess = hess + _sum(Gam.swapaxes(0, 2)[:, :, None] * Wv.swapaxes(0, 1)[:, None, :, None])
    return -_sum(_sum(fd.inverse_metric.value[lift[1:]] * hess))  # over i, j


# the name the scalar callers use, so that a tracer times them apart
scalar_laplacian = rough_laplacian


def _apply(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v at one point, or per point over a batch (A of shape (m, m, N))."""
    return _sum(A.swapaxes(0, 1) * v[:, None])


def ricci_via_gauss_equation(sd: ShapeData, x: np.ndarray) -> np.ndarray:
    """Ricci operator of a link in the unit sphere applied to the vector x
    (its components at the base point): Ric(x) = (m-1) x + m f A(x) - A^2(x)."""
    m, A = sd.dim, sd.shape_operator.value
    Ax = _apply(A, x)
    return (m - 1) * x + m * sd.mean_curvature.value * Ax - _apply(A, Ax)
