"""Hypercones over links in the unit sphere, and cylinder constructions.

The cone over a link M in S^(m+1) is the warped product (0, inf) x M with
immersion (t, p) -> t * X(p). Its shape operator kills the radial direction
and scales the link's by 1/t, so mean curvature and |A|^2 obey

    f_cone = m * f_link / ((m+1) t),    |A_cone|^2 = |A_link|^2 / t^2,

with m the link dimension. The radial coefficient of the cone Laplacian on
radial functions is likewise m: Delta(t^a) = -a(a-1) t^(a-2) - m a t^(a-2)
(cross-validated against the jet pipeline in the tests).

Solvers for the constant-|A|^2 links: small spheres S^m(a) (a^2 = m/(4m-6)),
and products S^m1(r1) x S^m2(r2) with m1/r1^2 + m2/r2^2 = 4m - 6. Each root
is certified exactly and flagged: "minimal" links give a harmonic Gauss map,
and the m = 3 product solution satisfies the curvature condition while
falling outside the m > 3 range of the catalog statement, so it is flagged
"paper-range conflict" rather than dropped.

The planar-cone certificate (cones in R^3) is exact too: the curvature ODE
system of the link and its prolongations admit only k = 0.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .roots import _isolate, _sign_at

# The solvers and the R^3 certificate are exact and need no numpy. The
# chart, cone-data and quadrature builders import numpy and the jet modules
# where they run, so that the exact commands load neither.
if TYPE_CHECKING:
    import numpy as np

    from .exprjet import JetValue
    from .geometry import ImmersionChart, ShapeData

__all__ = [
    "ConeShapeValues",
    "cone_shape_from_link",
    "SphereConeSolution",
    "sphere_link_solver",
    "CliffordRoot",
    "clifford_link_solver",
    "clifford_shape_norm_sq",
    "build_cone_chart",
    "polynomial_curvature_cylinder",
    "CompositionEnergy",
    "composition_energy_check",
    "sphere_link_chart",
    "clifford_link_chart",
    "R3CheckResult",
    "r3_ode_check",
]

_CONDITION_TOL = 1e-9

FLAG_VALID = "valid"
FLAG_MINIMAL = "minimal"
FLAG_EXCLUDED = "excluded"
FLAG_PAPER_RANGE = "paper-range conflict"


# ---------------------------------------------------------------------------
# Pointwise cone data


class ConeShapeValues(NamedTuple):
    """Shape invariants of the cone at radius t from link shape data."""

    t: float
    eigenvalues: tuple[float, ...]  # includes the radial 0
    mean_curvature: float
    shape_norm_sq: float


def cone_shape_from_link(link_sd: ShapeData, t: float) -> ConeShapeValues:
    """A(d_t) = 0 and A = A_link / t on the slice directions."""
    import numpy as np

    if t <= 0.0:
        raise ValueError("cone radius t must be positive")
    m = link_sd.dim
    eigs = np.linalg.eigvals(link_sd.shape_operator.value)
    eigs = np.sort(eigs.real)
    values = (0.0,) + tuple(float(e) / t for e in eigs)
    f = m * link_sd.mean_curvature.value / ((m + 1) * t)
    norm_sq = link_sd.shape_norm_sq.value / (t * t)
    return ConeShapeValues(float(t), values, float(f), float(norm_sq))


# ---------------------------------------------------------------------------
# Catalog solvers


class SphereConeSolution(NamedTuple):
    m: int
    a: float
    a_sq_exact: Fraction
    shape_norm_sq: float
    f_value: float
    theta: float
    identity_exact: bool  # m (1 - a^2)/a^2 == 3(m-2) in exact arithmetic


def sphere_link_solver(m: int) -> SphereConeSolution | None:
    """Radius of the small-sphere link S^m(a) whose cone has proper
    biharmonic Gauss map; None when no such radius exists (m <= 2)."""
    if m < 1:
        raise ValueError("link dimension must be positive")
    if m <= 2:
        return None
    a_sq = Fraction(m, 4 * m - 6)
    identity = (m * (1 - a_sq) / a_sq == 3 * (m - 2))
    a = math.sqrt(a_sq)
    k1 = math.sqrt(3.0 * (m - 2) / m)  # = sqrt(1-a^2)/a
    return SphereConeSolution(m, a, a_sq, float(3 * (m - 2)), k1,
                              math.asin(a), identity)


def clifford_shape_norm_sq(m1: int, m2: int, r1_sq: float) -> float:
    """|A|^2 of S^m1(r1) x S^m2(r2) in the unit sphere, r2^2 = 1 - r1^2."""
    r2_sq = 1.0 - r1_sq
    return m1 * r2_sq / r1_sq + m2 * r1_sq / r2_sq


class CliffordRoot(NamedTuple):
    m: int
    m1: int
    m2: int
    r1_sq: float
    r2_sq: float
    shape_norm_sq: float
    k1: float
    theta: float
    minimal: bool
    theorem_ok: bool       # m > 2, non-minimal, |A|^2 = 3(m-2)
    proposition_ok: bool   # stated catalog range m > 3
    flag: str


def clifford_link_solver(m: int, m1: int) -> list[CliffordRoot]:
    """Product-link radii solving m1/r1^2 + m2/r2^2 = 4m - 6 with
    r1^2 + r2^2 = 1; both theorem-level and catalog-range conditions are
    reported per root."""
    if not 1 <= m1 <= m - 1:
        raise ValueError("need 1 <= m1 <= m-1")
    m2 = m - m1
    # quadratic in x = r1^2, integer coefficients highest degree first
    coeffs = (4 * m - 6, -(4 * m - 6 + m1 - m2), m1)
    minimal_is_root = _sign_at(coeffs, m1, m) == 0
    cells = _isolate(coeffs, (0, 1), (1, 1))
    if not cells:
        raise ValueError(f"no real solutions in (0, 1) for m={m}, m1={m1}")
    roots = []
    for *_, x in cells:
        r2_sq = 1.0 - x
        norm_sq = clifford_shape_norm_sq(m1, m2, x)
        minimal = minimal_is_root and abs(x - m1 / m) <= 1e-9
        theorem_ok = (m > 2 and not minimal
                      and abs(norm_sq - 3.0 * (m - 2)) <= _CONDITION_TOL * (1 + norm_sq))
        proposition_ok = m > 3
        if minimal:
            flag = FLAG_MINIMAL
        elif theorem_ok and proposition_ok:
            flag = FLAG_VALID
        elif theorem_ok:
            flag = FLAG_PAPER_RANGE
        else:
            flag = FLAG_EXCLUDED
        k1 = math.sqrt(r2_sq / x)
        roots.append(CliffordRoot(m, m1, m2, x, r2_sq, norm_sq, k1,
                                  math.asin(math.sqrt(x)), minimal,
                                  theorem_ok, proposition_ok, flag))
    return roots


# ---------------------------------------------------------------------------
# Chart constructors


def _sphere_components(variables: Sequence[str]) -> list[str]:
    """Pole-free box chart of S^m in R^(m+1): iteratively append cos factors."""
    comps = [f"cos({variables[0]})", f"sin({variables[0]})"]
    for v in variables[1:]:
        comps = [f"{c}*cos({v})" for c in comps] + [f"sin({v})"]
    return comps


_LINK_BOX = 0.6  # half-width of a link chart's box in a non-periodic variable


def _radius_sources(r_sq) -> list[str]:
    """The `sqrt(...)` sources of r and of sqrt(1 - r^2): exact quotients
    for an exact r^2 (a Fraction or int), float literals for a float."""
    if isinstance(r_sq, float):
        return [f"sqrt({x!r})" for x in (r_sq, 1.0 - r_sq)]
    r_sq = Fraction(r_sq)
    return [f"sqrt({x.numerator}/{x.denominator})" for x in (r_sq, 1 - r_sq)]


def sphere_link_chart(m: int, a_sq) -> ImmersionChart:
    """Small sphere S^m(a) at constant height in S^(m+1); `a_sq` may be a
    Fraction/int pair-friendly exact value or a float."""
    from .geometry import chart_from_strings

    a_src, c_src = _radius_sources(a_sq)
    variables = tuple(f"u{i+1}" for i in range(m))
    comps = [f"({c})*{a_src}" for c in _sphere_components(variables)] + [c_src]
    if m == 1:
        domain = [(0.0, 2 * math.pi)]
    else:
        domain = [(-_LINK_BOX, _LINK_BOX)] * m
    return chart_from_strings(f"sphere_link(m={m})", variables, comps,
                              domain, ambient="sphere")


def clifford_link_chart(m1: int, m2: int, r1_sq) -> ImmersionChart:
    """Product link S^m1(r1) x S^m2(r2) in the unit sphere, r2^2 = 1 - r1^2."""
    from .geometry import chart_from_strings

    r1_src, r2_src = _radius_sources(r1_sq)
    u_vars = tuple(f"u{i+1}" for i in range(m1))
    v_vars = tuple(f"v{i+1}" for i in range(m2))
    comps = [f"({c})*{r1_src}" for c in _sphere_components(u_vars)]
    comps += [f"({c})*{r2_src}" for c in _sphere_components(v_vars)]
    domain = [(0.0, 2 * math.pi) if m1 == 1 else (-_LINK_BOX, _LINK_BOX)] * m1
    domain += [(0.0, 2 * math.pi) if m2 == 1 else (-_LINK_BOX, _LINK_BOX)] * m2
    return chart_from_strings(f"clifford_link({m1},{m2})",
                              u_vars + v_vars, comps, domain, ambient="sphere")


def build_cone_chart(link: ImmersionChart, t_count: int = 5) -> ImmersionChart:
    """Euclidean chart (t, p) -> t * X(p) over a sphere-ambient link chart
    for t in [0.5, 2], sampled at `t_count` radii when the link has sample
    counts."""
    from .exprjet import BinOp, Var, shift_variables
    from .geometry import GeometryError, ImmersionChart, SamplingSpec

    if link.ambient != "sphere":
        raise GeometryError("cone links must be sphere-ambient charts")
    if "t" in link.variables:
        raise GeometryError("link chart already uses variable 't'")
    for comp in link.components:
        if hasattr(comp, "jet"):
            raise GeometryError("cone links need expression components")
    names = ("t",) + link.variables
    components = tuple(BinOp("*", Var(0, "t"), shift_variables(c, 1, names))
                       for c in link.components)
    sampling = (None if link.sampling is None
                else SamplingSpec((t_count,) + link.sampling.counts))
    return ImmersionChart(f"cone({link.name})", link.dim + 1, "euclidean",
                          names, components, ((0.5, 2.0),) + link.domain, sampling)


# ---------------------------------------------------------------------------
# Quadratic-curvature cylinders


_GAUSS_NODES = 20
_QUADRATURE_TOL = 1e-13
_MAX_DOUBLINGS = 12


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    return np.polynomial.legendre.leggauss(_GAUSS_NODES)


class _QuadratureCurveComponent(NamedTuple):
    """Plane-curve coordinate of the arc-length curve with polynomial signed
    curvature: tangent angle theta(s) = sum k_i s^(i+1)/(i+1). Derivatives
    come from jets of cos/sin(theta); the position value from composite
    20-node Gauss-Legendre quadrature, with the panel count doubled until two
    successive sums agree to 1e-13."""

    kind: str  # "cos" | "sin"
    k_coeffs: tuple[float, ...]  # curvature coefficients, low degree first

    @property
    def _theta_coeffs(self) -> tuple[float, ...]:
        return tuple(k / (i + 1) for i, k in enumerate(self.k_coeffs))

    def _integrand(self, s: np.ndarray) -> np.ndarray:
        import numpy as np

        theta = sum((t * s ** (i + 1) for i, t in enumerate(self._theta_coeffs)),
                    np.zeros_like(s))
        return np.cos(theta) if self.kind == "cos" else np.sin(theta)

    def _position(self, s: float) -> float:
        import numpy as np

        from .geometry import GeometryError

        nodes, weights = _gauss_legendre()
        previous = math.nan
        for doubling in range(_MAX_DOUBLINGS):
            half = 0.5 * s / 2 ** doubling
            mids = half * (2 * np.arange(2 ** doubling) + 1)
            total = float(half * np.sum(weights * self._integrand(mids[:, None] + half * nodes)))
            if abs(total - previous) <= _QUADRATURE_TOL:
                return total
            previous = total
        raise GeometryError(f"curve position at s = {s!r} did not converge")

    def jet(self, point: tuple[float, ...], dim: int, order: int) -> JetValue:
        from .exprjet import antiderivative_jet

        djet = _tangent_program(self.kind, self._theta_coeffs, dim)(point, max(order - 1, 0))[0]
        return antiderivative_jet(djet, 0, self._position(point[0]))


@functools.lru_cache(maxsize=256)  # shared by charts rebuilt with equal curvature
def _tangent_program(kind: str, theta_coeffs: tuple[float, ...], dim: int):
    """The `JetProgram` of `kind` (cos or sin) of theta, in the first of `dim` variables."""
    from .exprjet import Call, JetProgram, parse_expression

    names = tuple(f"_x{i}" for i in range(dim))
    terms = [f"{t!r}*{names[0]}^{i + 1}" for i, t in enumerate(theta_coeffs) if t != 0.0]
    theta = parse_expression(" + ".join(terms) if terms else "0", names)
    return JetProgram((Call(kind, theta),), dim)


def polynomial_curvature_cylinder(k_coeffs: Sequence[float]) -> ImmersionChart:
    """Right cylinder (s, w) -> (x(s), y(s), w), s and w in [-1, 1], over
    the arc-length plane curve with signed curvature k(s) = sum k_i s^i
    (coefficients low degree first). |sigma'| = 1 by construction, since the
    curve is reconstructed from its tangent angle."""
    from .exprjet import Var
    from .geometry import ImmersionChart

    ks = tuple(float(k) for k in k_coeffs)
    variables = ("s", "w")
    components = (
        _QuadratureCurveComponent("cos", ks),
        _QuadratureCurveComponent("sin", ks),
        Var(1, "w"),
    )
    return ImmersionChart(f"curvature_cylinder{ks}", 2, "euclidean", variables,
                          components, ((-1.0, 1.0), (-1.0, 1.0)))


# ---------------------------------------------------------------------------
# Composition energy


class CompositionEnergy(NamedTuple):
    m: int
    t: float
    energy: float            # e = m / (2 t^2)
    laplacian: float         # closed form m(m-3)/t^4
    laplacian_numeric: float # radial cone Laplacian applied by jets
    harmonic: bool           # Delta e = 0, i.e. m == 3


def composition_energy_check(m: int, t: float) -> CompositionEnergy:
    """Energy density e = m/(2 t^2) of the cone's Gauss map and its cone
    Laplacian, computed both in closed form m(m-3)/t^4 and by applying the
    radial Laplacian -d^2/dt^2 - (m/t) d/dt to a jet of e."""
    from .exprjet import EvalContext, eval_jet, parse_expression

    if m < 1:
        raise ValueError("link dimension must be positive")
    if t <= 0.0:
        raise ValueError("t must be positive")
    ast = parse_expression(f"{m}/(2*t^2)", ("t",))
    jet = eval_jet(ast, EvalContext((float(t),), order=2))
    numeric = -jet.partial((2,)) - (m / t) * jet.partial((1,))
    closed = m * (m - 3.0) / t ** 4
    return CompositionEnergy(m, float(t), jet.value, closed, float(numeric),
                             m == 3)


# ---------------------------------------------------------------------------
# R^3: prolongation certificate


class R3CheckResult(NamedTuple):
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
