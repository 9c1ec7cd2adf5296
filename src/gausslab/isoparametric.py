"""Isoparametric hypersurfaces of spheres: curvature structure and the
proper-biharmonic-Gauss condition per type.

A type-l isoparametric hypersurface of S^(m+1) has l distinct constant
principal curvatures k_alpha = cot(theta + (alpha-1) pi/l), theta in
(0, pi/l), with constant multiplicities; l is 1, 2, 3, 4 or 6. For each type
the condition |A|^2 = 3(m-2) reduces to an integer polynomial in a single
variable (k1 for l = 3, 6; lambda = (k1 - 1/k1)^2 for l = 4; a^2 resp. r1^2
for the sphere and product families l = 1, 2). This module builds those
polynomials exactly, classifies their admissible roots with certified
counts, and covers the homogeneous (Takagi) family solved through
sin^2(2 theta).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .hypercone import (
    FLAG_MINIMAL,
    FLAG_VALID,
    clifford_link_solver,
    sphere_link_solver,
)
from .roots import Polynomial, _count, _isolate, _primitive, _sign_at

__all__ = [
    "IsoparametricSpec",
    "CurvatureSet",
    "principal_curvatures",
    "ShapeNorm",
    "shape_norm_squared",
    "condition_polynomial",
    "condition_coefficients",
    "ClassifiedRoot",
    "classify_type",
    "TakagiSolution",
    "takagi_solver",
]

_THETA_MARGIN = 1e-9
_IDENTITY_TOL = 1e-12
_DENOM_GUARD = 1e-3
_MINIMAL_TOL = 1e-9

_VALID_ELLS = (1, 2, 3, 4, 6)


class _SpecFields(NamedTuple):
    ell: int
    multiplicities: tuple[int, ...]


class IsoparametricSpec(_SpecFields):
    """Type number and multiplicities of an isoparametric family."""

    __slots__ = ()

    def __new__(cls, ell: int, multiplicities):
        if ell not in _VALID_ELLS:
            raise ValueError(f"type must be one of {_VALID_ELLS}, got {ell}")
        mults = tuple(int(v) for v in multiplicities)
        if len(mults) != ell:
            raise ValueError("need one multiplicity per curvature")
        if any(v < 1 for v in mults):
            raise ValueError("multiplicities must be positive")
        if ell == 3:
            if len(set(mults)) != 1 or mults[0] not in (1, 2, 4, 8):
                raise ValueError("type 3 multiplicities are all 2^q, q in 0..3")
        if ell == 4:
            if mults[0] != mults[2] or mults[1] != mults[3]:
                raise ValueError("type 4 needs m1 = m3 and m2 = m4")
        if ell == 6:
            if len(set(mults)) != 1 or mults[0] not in (1, 2):
                raise ValueError("type 6 multiplicities are all 1 or all 2")
        return super().__new__(cls, ell, mults)

    @property
    def m(self) -> int:
        return sum(self.multiplicities)

    @classmethod
    def type1(cls, m: int) -> "IsoparametricSpec":
        return cls(1, (m,))

    @classmethod
    def type2(cls, m1: int, m2: int) -> "IsoparametricSpec":
        return cls(2, (m1, m2))

    @classmethod
    def type3(cls, q: int) -> "IsoparametricSpec":
        if q not in (0, 1, 2, 3):
            raise ValueError("q must be 0..3")
        return cls(3, (2 ** q,) * 3)

    @classmethod
    def type4(cls, m1: int, m2: int) -> "IsoparametricSpec":
        return cls(4, (m1, m2, m1, m2))

    @classmethod
    def type6(cls, multiplicity: int) -> "IsoparametricSpec":
        return cls(6, (multiplicity,) * 6)


class _CurvatureFields(NamedTuple):
    values: tuple[float, ...]
    theta: float


class CurvatureSet(_CurvatureFields):
    """The l cotangent values at a given theta, strictly decreasing."""

    __slots__ = ()

    def __new__(cls, values: tuple[float, ...], theta: float):
        if any(a <= b for a, b in zip(values, values[1:])):
            raise ValueError("principal curvatures must strictly decrease")
        return super().__new__(cls, values, theta)

    def trace(self, multiplicities: tuple[int, ...]) -> float:
        return sum(m * k for m, k in zip(multiplicities, self.values))

    def norm_sq(self, multiplicities: tuple[int, ...]) -> float:
        return sum(m * k * k for m, k in zip(multiplicities, self.values))


def principal_curvatures(ell: int, theta: float) -> CurvatureSet:
    """k_alpha = cot(theta + (alpha-1) pi/ell) for theta in (0, pi/ell),
    kept 1e-9 away from the endpoints where cotangents blow up. The
    cotangent-addition identities between the k_alpha are re-verified to
    1e-12 (away from their denominators' zeros)."""
    if ell not in _VALID_ELLS:
        raise ValueError(f"type must be one of {_VALID_ELLS}, got {ell}")
    hi = math.pi / ell
    if not _THETA_MARGIN <= theta <= hi - _THETA_MARGIN:
        raise ValueError(f"theta must lie in ({_THETA_MARGIN}, pi/{ell} - {_THETA_MARGIN})")
    values = []
    for alpha in range(ell):
        arg = theta + alpha * math.pi / ell
        values.append(math.cos(arg) / math.sin(arg))
    ks = tuple(values)
    _verify_cotangent_identities(ell, ks)
    return CurvatureSet(ks, theta)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _IDENTITY_TOL * (1.0 + abs(a) + abs(b))


def _verify_cotangent_identities(ell: int, k: tuple[float, ...]):
    ok = True
    if ell % 2 == 0:
        # cot(x + pi/2) = -1/cot(x)
        half = ell // 2
        for a in range(half):
            if abs(k[a]) >= _DENOM_GUARD:
                ok = ok and _close(k[a + half], -1.0 / k[a])
    if ell == 3:
        s3 = math.sqrt(3.0)
        if abs(1.0 + s3 * k[0]) >= _DENOM_GUARD:
            ok = ok and _close(k[1], (k[0] - s3) / (1.0 + s3 * k[0]))
        if abs(1.0 - s3 * k[0]) >= _DENOM_GUARD:
            ok = ok and _close(k[2], (k[0] + s3) / (1.0 - s3 * k[0]))
    if not ok:
        raise ArithmeticError("cotangent addition identities violated")


class ShapeNorm(NamedTuple):
    """|A|^2 evaluated two independent ways."""

    closed: float
    direct: float


def shape_norm_squared(spec: IsoparametricSpec, theta: float) -> ShapeNorm:
    """|A|^2 at theta: the type-specific closed form in k1 alongside the
    direct sum over curvatures. The two must agree to 1e-6 relative; closed
    forms have poles only at the theta-range endpoints, guarded here."""
    ks = principal_curvatures(spec.ell, theta)
    direct = ks.norm_sq(spec.multiplicities)
    k1 = ks.values[0]
    ell = spec.ell
    if ell == 1:
        closed = spec.m * k1 * k1
    elif ell == 2:
        m1, m2 = spec.multiplicities
        closed = m1 * k1 * k1 + m2 / (k1 * k1)
    elif ell == 3:
        den = 1.0 - 3.0 * k1 * k1
        if abs(den) < 1e-9:
            raise ValueError("closed form pole: 3 k1^2 = 1")
        num = 9.0 * k1 ** 6 + 45.0 * k1 ** 2 + 6.0
        closed = spec.multiplicities[0] * num / (den * den)
    elif ell == 4:
        m1, m2 = spec.multiplicities[0], spec.multiplicities[1]
        lam = (k1 - 1.0 / k1) ** 2
        if lam < 1e-12:
            raise ValueError("closed form pole: lambda = 0")
        closed = m1 * lam + 16.0 * m2 / lam + 2.0 * (m1 + m2)
    else:
        den = k1 * k1 * (3.0 * k1 ** 4 - 10.0 * k1 ** 2 + 3.0) ** 2
        if abs(den) < 1e-9:
            raise ValueError("closed form pole: k1^2 in {0, 3, 1/3}")
        num = 9.0 * k1 ** 12 + 495.0 * k1 ** 8 - 528.0 * k1 ** 6 + 495.0 * k1 ** 4 + 9.0
        closed = spec.multiplicities[0] * num / den
    if abs(closed - direct) > 1e-6 * (1.0 + abs(closed)):
        raise ArithmeticError(
            f"closed form {closed!r} disagrees with direct sum {direct!r}")
    return ShapeNorm(closed, direct)


def _condition_coeffs(spec: IsoparametricSpec) -> tuple[int, ...]:
    """`condition_polynomial`'s integer coefficients, highest degree first."""
    ell = spec.ell
    m = spec.m
    if ell == 1:
        return 4 * m - 6, -m
    if ell == 2:
        m1, m2 = spec.multiplicities
        return 4 * m - 6, -(4 * m - 6 + m1 - m2), m1
    if ell == 3:
        w = spec.multiplicities[0]  # 2^q
        return 3 * w, 0, 18 - 27 * w, 0, -12 + 33 * w, 0, 2 - w
    if ell == 4:
        m1, m2 = spec.multiplicities[0], spec.multiplicities[1]
        return m1, -(4 * (m1 + m2) - 6), 16 * m2
    if spec.multiplicities[0] == 1:
        coeffs = [1, -12, 135, -216, 135, -12, 1]
    else:
        coeffs = [3, -45, 465, -766, 465, -45, 3]
    out = [0] * 13
    out[::2] = coeffs
    return tuple(out)


def condition_polynomial(spec: IsoparametricSpec) -> Polynomial:
    """Integer polynomial whose admissible roots are exactly the parameter
    values with |A|^2 = 3(m-2).

    Variable by type: x = a^2 (l=1), x = r1^2 (l=2), x = k1 (l=3 and 6,
    even polynomials), lambda = (k1 - 1/k1)^2 (l=4). Coefficients are the
    raw instantiations; content normalization happens at root isolation.
    """
    return Polynomial.from_coeffs(_condition_coeffs(spec)[::-1])


def condition_coefficients(spec: IsoparametricSpec) -> tuple[int, ...]:
    """`condition_polynomial(spec).content_normalized()`'s integer
    coefficients for l = 3, 4 and 6, highest degree first."""
    return _primitive(_condition_coeffs(spec))


class ClassifiedRoot(NamedTuple):
    """One admissible solution of the condition polynomial."""

    ell: int
    multiplicities: tuple[int, ...]
    variable: str  # "a_sq" | "r1_sq" | "k1" | "lambda"
    value: float
    k1: float
    theta: float
    shape_norm_sq: float
    minimal: bool
    flag: str


def classify_type(spec: IsoparametricSpec) -> list[ClassifiedRoot]:
    """All roots of the condition polynomial in the type's admissible range,
    each tagged minimal (trace of A vanishes; the Gauss map is then harmonic,
    not proper biharmonic) or valid. Types 1 and 2 delegate to the cone-link
    solvers; type 6 certifies zero roots over all of R."""
    ell = spec.ell
    out: list[ClassifiedRoot] = []
    if ell == 1:
        sol = sphere_link_solver(spec.m)
        if sol is None:
            return []
        return [ClassifiedRoot(1, spec.multiplicities, "a_sq", float(sol.a_sq_exact),
                               sol.f_value, sol.theta, sol.shape_norm_sq,
                               False, FLAG_VALID)]
    if ell == 2:
        m1 = spec.multiplicities[0]
        for r in clifford_link_solver(spec.m, m1):
            out.append(ClassifiedRoot(2, spec.multiplicities, "r1_sq", r.r1_sq,
                                      r.k1, r.theta, r.shape_norm_sq,
                                      r.minimal, r.flag))
        return out
    cs = condition_coefficients(spec)
    if ell == 3:
        for *_, k1_sq in _isolate(cs[::2], (1, 3), (1, 0)):  # the even cs in k1^2
            x = math.sqrt(k1_sq)
            theta = math.atan(1.0 / x)
            ks = principal_curvatures(3, theta)
            tr = ks.trace(spec.multiplicities)
            norm = shape_norm_squared(spec, theta)
            minimal = abs(tr) <= _MINIMAL_TOL * (1.0 + math.sqrt(abs(norm.direct)))
            out.append(ClassifiedRoot(3, spec.multiplicities, "k1", x, x, theta,
                                      norm.direct, minimal,
                                      FLAG_MINIMAL if minimal else FLAG_VALID))
        return out
    if ell == 4:
        m1, m2 = spec.multiplicities[0], spec.multiplicities[1]
        minimal_is_root = _sign_at(cs, 4 * m2, m1) == 0
        for *_, lam in _isolate(cs, (0, 1), (1, 0)):
            k1 = 0.5 * (math.sqrt(lam) + math.sqrt(lam + 4.0))
            theta = math.atan(1.0 / k1)
            norm = shape_norm_squared(spec, theta)
            minimal = minimal_is_root and abs(lam - 4 * m2 / m1) <= _MINIMAL_TOL
            out.append(ClassifiedRoot(4, spec.multiplicities, "lambda", lam, k1,
                                      theta, norm.direct, minimal,
                                      FLAG_MINIMAL if minimal else FLAG_VALID))
        return out
    # type 6: both multiplicity cases have no real roots at all; certify.
    count = _count(cs, (-1, 0), (1, 0))
    if count != 0:
        raise ArithmeticError(f"type 6 condition unexpectedly has {count} roots")
    return []


class TakagiSolution(NamedTuple):
    """One root of the homogeneous-family condition, x = sin^2(2 theta)."""

    n: int
    sin_sq_2theta: float
    exact: Fraction | None  # set when the discriminant is a perfect square
    theta: float
    lam: float  # lambda = 4(1-x)/x
    quartic_residual: float  # (n-2) lam^2 - (4n-6) lam + 32
    cot_sq_theta: float
    minimal: bool


def takagi_solver(n: int) -> list[TakagiSolution]:
    """Roots of (4n-3) x^2 - (6n-11) x + 2(n-2) = 0 in x = sin^2(2 theta)
    for the homogeneous family on S^(2n+1), n odd >= 5: its lambda-quadratic
    (n-2) lam^2 - (4n-6) lam + 32 is the type-4 condition for multiplicities
    (n-2, 2), so m = 2n. The discriminant
    4n^2 - 44n + 73 is negative exactly for n < 9, so n in {5, 7} returns
    empty. Each root is certified inside (0, 1), back-substituted through
    lambda = 4(1-x)/x into the lambda-quadratic, and cross-checked against
    the minimality values cot^2(theta) = (sqrt(n) +- sqrt(2)) /
    (sqrt(n) -+ sqrt(2))."""
    if n % 2 == 0 or n < 5:
        raise ValueError("n must be odd and >= 5")
    cs = (4 * n - 3, -(6 * n - 11), 2 * (n - 2))
    disc = 4 * n * n - 44 * n + 73
    if disc < 0:
        return []
    # disc is odd, so positive here: two distinct real roots, both due in (0, 1]
    cells = _isolate(cs, (0, 1), (1, 1))
    if len(cells) < 2:
        raise ArithmeticError("a root escaped (0, 1); x = sin^2(2 theta) invalid")
    isq = math.isqrt(disc)
    exact_roots = None
    if isq * isq == disc:
        exact_roots = sorted(
            (Fraction(6 * n - 11 + s * isq, 2 * (4 * n - 3)) for s in (1, -1)))
    out = []
    vplus = (math.sqrt(n) + math.sqrt(2.0)) / (math.sqrt(n) - math.sqrt(2.0))
    for i, (*_, x) in enumerate(cells):
        theta = 0.5 * math.asin(math.sqrt(x))
        lam = 4.0 * (1.0 - x) / x
        residual = (n - 2) * lam * lam - (4 * n - 6) * lam + 32.0
        cot_sq = (math.cos(theta) / math.sin(theta)) ** 2
        minimal = (abs(cot_sq - vplus) <= 1e-9 * (1 + vplus)
                   or abs(cot_sq - 1.0 / vplus) <= 1e-9 * (1 + 1.0 / vplus))
        exact = exact_roots[i] if exact_roots is not None else None
        if exact is not None and abs(x - float(exact)) > 1e-9:
            raise ArithmeticError("refined root disagrees with exact root")
        out.append(TakagiSolution(n, x, exact, theta, lam, residual,
                                  cot_sq, minimal))
    return out
