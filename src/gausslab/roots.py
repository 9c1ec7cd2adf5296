"""Exact univariate root counting and certified isolation.

Polynomials carry `fractions.Fraction` coefficients, so Sturm chains, square-
free parts and endpoint handling are exact. Counting uses the half-open
convention: count_real_roots_in(p, a, b) is the number of distinct real roots
in (a, b]. Roots landing exactly on an endpoint are divided out by synthetic
division before the chain is evaluated (exact, unlike an epsilon nudge) and
re-added when the convention includes them; isolation reports such roots as
degenerate [r, r] intervals.

Every exact sign is evaluated on integers: q and each Sturm-chain member are
scaled once by a positive integer to integer coefficients, and the sign at
p/d is that of the homogeneous Horner sum of c_i p^i d^(n-i). Isolation
bisects on integer endpoints over one power-of-two multiple of a common
denominator per interval, carrying the sign variations of both ends so each
split evaluates the chain only at the midpoint. Once an interval holds one
root of the square-free q, refinement to the requested width needs only the
sign of q at each midpoint against its sign just right of the left end (the
sign of q' there when that end is itself a root). A single guarded Newton
step polishes the float estimate; Fractions are built only for the returned
intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "Polynomial",
    "RootInterval",
    "sturm_sequence",
    "count_real_roots_in",
    "isolate_and_refine",
    "NEG_INF",
    "POS_INF",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

Rational = Union[int, Fraction, str]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 15) if not x.is_integer() else Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class Polynomial:
    """Exact-coefficient polynomial, coefficients low degree first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational]) -> "Polynomial":
        cs = [_to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial.from_coeffs([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial.from_coeffs([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lc = other.leading
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lc
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial.from_coeffs(quo), Polynomial.from_coeffs(rem)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:])

    # --- evaluation ---------------------------------------------------------

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    # --- normal forms -------------------------------------------------------

    def content_normalized(self) -> "Polynomial":
        """Primitive integer form with positive leading coefficient."""
        if self.is_zero:
            return self
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c * denom for c in self.coeffs]
        g = 0
        for c in ints:
            g = math.gcd(g, abs(int(c)))
        sign = 1 if ints[-1] > 0 else -1
        return Polynomial.from_coeffs([int(c) * sign // g for c in ints])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero:
            _, r = a.divmod(b)
            a, b = b, r
        if a.is_zero:
            return a
        return a * (1 / a.leading)

    def square_free_part(self) -> "Polynomial":
        if self.degree <= 1:
            return self
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        q, r = self.divmod(g)
        assert r.is_zero
        return q

    def deflate_root(self, r: Fraction) -> "Polynomial":
        """Divide out (x - r); requires r to be an exact root."""
        q, rem = self.divmod(Polynomial.from_coeffs([-r, 1]))
        if not rem.is_zero:
            raise ValueError(f"{r} is not a root")
        return q

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}*x^{i}" if i else f"{c}")
        return " + ".join(parts)


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Canonical chain p0 = p, p1 = p', p_(i+1) = -rem(p_(i-1), p_i)."""
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p]
    if p.degree == 0:
        return chain
    chain.append(p.derivative())
    while chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    return chain


def _int_coeffs(poly: Polynomial) -> tuple[int, ...]:
    """Integer coefficients of a positive multiple of `poly`, highest degree
    first; the scale keeps every sign."""
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in reversed(poly.coeffs)]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def _sign_at(cs: tuple[int, ...], p: int, d: int) -> int:
    """Sign at p/d of the polynomial with integer coefficients `cs`, highest
    degree first: the sign of sum c_i p^i d^(n-i), by Horner. d > 0, or d = 0
    and p = +-1 for +-inf, where the sum is c_n (+-1)^n."""
    acc = cs[0]
    dk = 1
    for c in cs[1:]:
        dk *= d
        acc = acc * p + c * dk
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[tuple[int, ...]], p: int, d: int) -> int:
    """Sign variations of an integer Sturm chain at p/d."""
    count = last = 0
    for cs in chain:
        s = _sign_at(cs, p, d)
        if s:
            count += s == -last
            last = s
    return count


def _projective(x) -> tuple[int, int]:
    """Integers (p, d) with x = p/d; +-inf is (+-1, 0)."""
    if x == POS_INF:
        return 1, 0
    if x == NEG_INF:
        return -1, 0
    return x.numerator, x.denominator


def _as_endpoint(x):
    if x == POS_INF or x == NEG_INF:
        return x
    return _to_fraction(x)


def _is_root(q: Polynomial, x: Fraction) -> bool:
    return _sign_at(_int_coeffs(q), x.numerator, x.denominator) == 0


def _open_part(p: Polynomial, a, b) -> tuple[Polynomial, bool]:
    """Square-free part of p with roots at the finite endpoints a and b
    divided out, and whether b was such a root."""
    q = p.square_free_part()
    if a != NEG_INF and _is_root(q, a):
        q = q.deflate_root(a)  # a itself is excluded from (a, b]
    b_is_root = b != POS_INF and _is_root(q, b)
    if b_is_root:
        q = q.deflate_root(b)  # b belongs to (a, b]; the caller re-adds it
    return q, b_is_root


def _int_chain(q: Polynomial) -> list[tuple[int, ...]]:
    return [_int_coeffs(r) for r in sturm_sequence(q)]


def count_real_roots_in(p: Polynomial, a, b) -> int:
    """Distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    a = _as_endpoint(a)
    b = _as_endpoint(b)
    if not a < b:
        raise ValueError("need a < b")
    q, b_is_root = _open_part(p, a, b)
    if q.degree <= 0:
        return int(b_is_root)
    chain = _int_chain(q)
    return (_variations(chain, *_projective(a))
            - _variations(chain, *_projective(b)) + b_is_root)


@dataclass(frozen=True)
class RootInterval:
    """Certified isolating interval (lo, hi] with a refined float estimate."""

    lo: Fraction
    hi: Fraction
    value: float
    certified: bool = True


def _cauchy_bound(p: Polynomial) -> Fraction:
    lc = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lc


def isolate_and_refine(p: Polynomial, a=NEG_INF, b=POS_INF,
                       width: float = 1e-12) -> list[RootInterval]:
    """Isolating intervals for every distinct real root of p in (a, b],
    bisected to `width` and polished with one guarded Newton step."""
    if p.is_zero or p.degree == 0:
        return []
    a = _as_endpoint(a)
    b = _as_endpoint(b)
    q, b_is_root = _open_part(p, a, b)
    results = [RootInterval(b, b, float(b))] if b_is_root else []
    if q.degree <= 0:
        return results
    bound = _cauchy_bound(q)
    lo = a if a != NEG_INF else -bound
    hi = b if b != POS_INF else bound
    if not lo < hi:
        return results
    chain = _int_chain(q)

    # an endpoint x/d is kept as the integers (x, d), with d the common
    # denominator of lo and hi times a power of two; bisecting doubles d
    d = math.lcm(lo.denominator, hi.denominator)
    x, y = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    stack = [(x, y, d, _variations(chain, x, d), _variations(chain, y, d))]
    isolated: list[tuple[int, int, int]] = []
    while stack:
        x, y, d, vx, vy = stack.pop()
        n = vx - vy
        if n == 0:
            continue
        if n == 1:
            isolated.append((x, y, d))
            continue
        x, y, mid, d = 2 * x, 2 * y, x + y, 2 * d
        vm = _variations(chain, mid, d)
        stack.append((x, mid, d, vx, vm))
        stack.append((mid, y, d, vm, vy))
    w = _to_fraction(width) if width > 0 else Fraction(1, 10 ** 12)
    dq = q.derivative()
    q_cs, dq_cs = chain[0], _int_coeffs(dq)
    for x, y, d in isolated:
        # (x/d, y/d] holds one simple root, so q keeps the sign it has just
        # right of x/d up to that root (the sign of q' if x/d is a root too)
        s = _sign_at(q_cs, x, d) or _sign_at(dq_cs, x, d)
        # bisection keeps y - x and doubles d, so the width is (y - x)/d
        span = (y - x) * w.denominator
        while span > w.numerator * d:
            x, y, mid, d = 2 * x, 2 * y, x + y, 2 * d
            if _sign_at(q_cs, mid, d) == s:
                x = mid
            else:
                y = mid
        est = (x + y) / d / 2.0  # int / int rounds correctly, as float(Fraction)
        deriv = dq.eval_float(est)
        if deriv != 0.0:
            newton = est - q.eval_float(est) / deriv
            if x / d <= newton <= y / d and \
                    abs(q.eval_float(newton)) <= abs(q.eval_float(est)):
                est = newton
        results.append(RootInterval(Fraction(x, d), Fraction(y, d), est))
    results.sort(key=lambda r: r.value)
    return results
