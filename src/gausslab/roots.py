"""Exact univariate root counting and certified isolation.

`Polynomial` carries `fractions.Fraction` coefficients at the API edge; the
exact layer inside works on integer coefficient tuples, highest degree first.
One pseudo-division (Collins, "Subresultants and reduced polynomial remainder
sequences", J. ACM 14, 1967) builds the gcd, the square-free part, the
deflation of a root and the Sturm chain: each step scales by |lc| of the
divisor and each result is divided by its positive content, so every result
is a positive multiple of the Euclidean one and keeps its signs.

Counting uses the half-open convention: count_real_roots_in(p, a, b) is the
number of distinct real roots in (a, b]. Roots landing exactly on an endpoint
are divided out before the chain is evaluated (exact, unlike an epsilon
nudge) and re-added when the convention includes them; isolation reports
such roots as degenerate [r, r] intervals.

The sign at p/d of integer coefficients c is that of the homogeneous Horner
sum of c_i p^i d^(n-i). Isolation bisects on integer endpoints over one
power-of-two multiple of a common denominator per interval, carrying the
sign variations of both ends so each split evaluates the chain only at the
midpoint. Once an interval holds one root of the square-free q, refinement to
a width of 1e-12 needs only the sign of q at each midpoint against its
sign just right of the left end (the sign of q' there when that end is itself
a root). A single guarded Newton step polishes the float estimate; Fractions
are built only for the returned intervals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "Polynomial",
    "RootInterval",
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


class Polynomial(NamedTuple):
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

    # --- evaluation ---------------------------------------------------------

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # --- normal forms -------------------------------------------------------

    def content_normalized(self) -> "Polynomial":
        """Primitive integer form with positive leading coefficient."""
        cs = _int_coeffs(self)
        if cs and cs[0] < 0:
            cs = tuple(-c for c in cs)
        return Polynomial.from_coeffs(cs[::-1])


# ---------------------------------------------------------------------------
# Integer coefficient tuples, highest degree first


def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """`cs` without leading zeros, divided by its positive content."""
    i = 0
    while i < len(cs) and cs[i] == 0:
        i += 1
    g = math.gcd(*cs[i:])
    return tuple(c // g for c in cs[i:]) if g > 1 else tuple(cs[i:])


def _int_coeffs(poly: Polynomial) -> tuple[int, ...]:
    """Primitive integer coefficients of a positive multiple of `poly`."""
    den = math.lcm(*(c.denominator for c in poly.coeffs))
    return _primitive([c.numerator * (den // c.denominator)
                       for c in reversed(poly.coeffs)])


def _derivative(cs: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cs) - 1
    return tuple(c * (n - i) for i, c in enumerate(cs[:-1]))


def _pdiv(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positive multiples of the quotient and remainder of a by b, each
    primitive. A step that cancels a leading term first scales the partial
    remainder and quotient by |lc(b)| > 0, so that after k such steps
    |lc(b)|^k a = quotient * b + remainder, before the contents are divided
    out."""
    sgn = 1 if b[0] > 0 else -1
    s = sgn * b[0]
    r = list(a)
    quo: list[int] = []
    for k in range(len(a) - len(b) + 1):
        t = sgn * r[k]
        if t:
            quo = [s * c for c in quo]
            r[k:] = [s * c for c in r[k:]]
            for i, c in enumerate(b):
                r[k + i] -= t * c
        quo.append(t)
    return _primitive(quo), _primitive(r[max(len(a) - len(b) + 1, 0):])


def _square_free(cs: tuple[int, ...]) -> tuple[int, ...]:
    """Positive multiple of cs / gcd(cs, cs'), primitive."""
    if len(cs) <= 2:
        return cs
    g, r = cs, _derivative(cs)
    while r:
        g, r = r, _pdiv(g, r)[1]
    if len(g) == 1:
        return cs
    if g[0] < 0:
        g = tuple(-c for c in g)  # so the quotient keeps the sign of cs
    return _pdiv(cs, g)[0]


def _sturm(cs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sturm chain of `cs`, each member a positive multiple of the Euclidean
    one."""
    chain = [cs]
    if len(cs) > 1:
        chain.append(_primitive(_derivative(cs)))
    while len(chain[-1]) > 1:
        r = _pdiv(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return chain


def _float_at(cs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in cs:
        acc = acc * x + c
    return acc


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


def _open_part(p: Polynomial, a, b) -> tuple[tuple[int, ...], bool]:
    """Square-free part of p with roots at the finite endpoints a and b
    divided out, and whether b was such a root."""
    q = _square_free(_int_coeffs(p))
    if a != NEG_INF and _sign_at(q, a.numerator, a.denominator) == 0:
        q = _pdiv(q, (a.denominator, -a.numerator))[0]  # a is not in (a, b]
    b_is_root = b != POS_INF and _sign_at(q, b.numerator, b.denominator) == 0
    if b_is_root:
        # b belongs to (a, b]; the caller re-adds it
        q = _pdiv(q, (b.denominator, -b.numerator))[0]
    return q, b_is_root


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
    if len(q) <= 1:
        return int(b_is_root)
    chain = _sturm(q)
    return (_variations(chain, *_projective(a))
            - _variations(chain, *_projective(b)) + b_is_root)


class RootInterval(NamedTuple):
    """Certified isolating interval (lo, hi] with a refined float estimate."""

    lo: Fraction
    hi: Fraction
    value: float
    certified: bool = True


_WIDTH = Fraction(1, 10 ** 12)  # the width of a refined isolating interval
_PAST_FLOATS = "a root lies outside the float range (|x| > 1.8e308)"


def _cauchy_bound(cs: tuple[int, ...]) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in cs[1:]), abs(cs[0]))


def _root_past_floats(q: tuple[int, ...], x: int, y: int, d: int, s: int) -> bool:
    """Whether the one root of q in (x/d, y/d], right of x/d of which q has
    sign s, lies past the float range, |t| >= 2^1024: one exact sign test
    at each of the edges -2^1024 and 2^1024 inside the interval."""
    edge = d << 1024
    if x >= edge or y <= -edge:
        return True
    if x < -edge and _sign_at(q, -edge, d) != s:  # the root is in (x/d, -2^1024]
        return True
    # else q keeps the sign s up to the root, which lies in (2^1024, y/d] if
    # q keeps it at 2^1024 too, and at 2^1024 if q vanishes there
    return y > edge and _sign_at(q, edge, d) in (s, 0)


def isolate_and_refine(p: Polynomial, a=NEG_INF, b=POS_INF) -> list[RootInterval]:
    """Isolating intervals for every distinct real root of p in (a, b],
    bisected to width _WIDTH and polished with one guarded Newton step."""
    if p.is_zero or p.degree == 0:
        return []
    a = _as_endpoint(a)
    b = _as_endpoint(b)
    q, b_is_root = _open_part(p, a, b)
    results = [RootInterval(b, b, float(b))] if b_is_root else []
    if len(q) <= 1:
        return results
    bound = _cauchy_bound(q)
    lo = a if a != NEG_INF else -bound
    hi = b if b != POS_INF else bound
    if not lo < hi:
        return results
    chain = _sturm(q)

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
    dq = _derivative(q)
    # the Newton step reads q scaled to the leading coefficient of p, which
    # p divided by a monic gcd keeps, so the float polish does not depend on
    # the integer scale of q
    num, den = p.leading.numerator, p.leading.denominator * q[0]
    try:
        q_f = [c * num / den for c in q]
        dq_f = [c * num / den for c in dq]
    except OverflowError:  # a coefficient past the float range: no polish
        q_f = dq_f = None
    for x, y, d in isolated:
        # (x/d, y/d] holds one simple root, so q keeps the sign it has just
        # right of x/d up to that root (the sign of q' if x/d is a root too)
        s = _sign_at(q, x, d) or _sign_at(dq, x, d)
        if _root_past_floats(q, x, y, d, s):
            raise OverflowError(_PAST_FLOATS)
        # bisection keeps y - x and doubles d, so the width is (y - x)/d
        span = (y - x) * _WIDTH.denominator
        while span > _WIDTH.numerator * d:
            x, y, mid, d = 2 * x, 2 * y, x + y, 2 * d
            if _sign_at(q, mid, d) == s:
                x = mid
            else:
                y = mid
        try:
            est = (x + y) / (2 * d)  # int / int rounds correctly, as float(Fraction)
        except OverflowError:
            raise OverflowError(_PAST_FLOATS) from None
        deriv = 0.0 if dq_f is None else _float_at(dq_f, est)
        if deriv != 0.0:
            newton = est - _float_at(q_f, est) / deriv
            if x / d <= newton <= y / d and \
                    abs(_float_at(q_f, newton)) <= abs(_float_at(q_f, est)):
                est = newton
        results.append(RootInterval(Fraction(x, d), Fraction(y, d), est))
    results.sort(key=lambda r: r.value)
    return results
