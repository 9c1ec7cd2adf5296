"""Exact univariate root counting and certified isolation.

One integer core isolates (`_isolate`) and counts (`_count`) the roots of an
integer coefficient tuple, highest degree first, over a range whose ends are
integer pairs (p, d). The catalog solvers call it with integers; `Fraction`s
live only at the API edge, where `isolate_and_refine` and
`count_real_roots_in` convert a `Polynomial` and its range once and build
Fractions only for the returned intervals.

One pseudo-division (Collins, "Subresultants and reduced polynomial
remainder sequences", J. ACM 14, 1967) builds the gcd, the square-free part,
the deflation of a root and the Sturm chain: each step scales by |lc| of the
divisor and each result is divided by its positive content, so every result
is a positive multiple of the Euclidean one and keeps its signs. A quadratic
with a nonzero discriminant is its own square-free part. Counting evaluates
the Sturm chain at both ends, whatever the degree.

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
a width of 1e-12 ends where halving it would: in the one cell of a level set
by the width alone that holds the root. A float estimate, from a copy of q
scaled by a power of two and sharpened by exact Newton steps where a float
cannot tell the cells apart, names that cell; two signs of q against its sign
just right of the left end (the sign of q' there when that end is itself a
root) certify it, and a miss gallops over cell indices, then bisects.

So the output is the cell of one dyadic level over the search range (the
Cauchy bound or the finite range ends), whatever isolation found, unless two
roots share that cell. A quadratic names each root's cell of that level in
closed form, from one integer square root of the discriminant, certifies it
by the same two signs and skips the chain, the bisection and the refinement;
where both of its roots share a cell it bisects like any other polynomial. A
single guarded Newton step polishes the float estimate.
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
    """x as a Fraction, a finite float exactly."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"not a finite rational: {x!r}")
    if isinstance(x, (Fraction, int, str, float)):
        return Fraction(x)
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


def _discriminant(cs: tuple[int, ...]) -> int:
    """b^2 - 4ac of the quadratic (a, b, c)."""
    a, b, c = cs
    return b * b - 4 * a * c


def _square_free(cs: tuple[int, ...]) -> tuple[int, ...]:
    """Positive multiple of cs / gcd(cs, cs'), primitive."""
    if len(cs) <= 2 or len(cs) == 3 and _discriminant(cs):
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


def _value_at(cs: tuple[int, ...], p: int, d: int) -> int:
    """d^n times the value at p/d of the polynomial with integer coefficients
    `cs`, highest degree first: sum c_i p^i d^(n-i), by Horner. d > 0, or
    d = 0 and p = +-1 for +-inf, where the sum is c_n (+-1)^n."""
    acc = cs[0]
    dk = 1
    for c in cs[1:]:
        dk *= d
        acc = acc * p + c * dk
    return acc


def _sign_at(cs: tuple[int, ...], p: int, d: int) -> int:
    """Sign at p/d of the polynomial with integer coefficients `cs`, the
    sign of `_value_at`."""
    v = _value_at(cs, p, d)
    return (v > 0) - (v < 0)


def _variations(chain: Sequence[tuple[int, ...]], p: int, d: int) -> int:
    """Sign variations of an integer Sturm chain at p/d."""
    count = last = 0
    for cs in chain:
        s = _sign_at(cs, p, d)
        if s:
            count += s == -last
            last = s
    return count


def _endpoint(x) -> tuple[int, int]:
    """Integers (p, d) in lowest terms with x = p/d, d > 0, for a range end
    x; a float +-inf is (+-1, 0)."""
    if isinstance(x, float) and math.isinf(x):
        return (1 if x > 0 else -1), 0
    return _to_fraction(x).as_integer_ratio()


def _below(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the end a = p/d of `_endpoint` lies left of the end b."""
    return a[0] * b[1] < b[0] * a[1] if a[1] or b[1] else a[0] < b[0]


def _range(a, b) -> tuple[tuple[int, int], tuple[int, int]]:
    """The `_endpoint`s of the range (a, b], which must have a < b."""
    lo, hi = _endpoint(a), _endpoint(b)
    if not _below(lo, hi):
        raise ValueError("need a < b")
    return lo, hi


def _open_part(cs: tuple[int, ...], lo: tuple[int, int],
               hi: tuple[int, int]) -> tuple[tuple[int, ...], bool]:
    """Primitive square-free part of the integer coefficients cs with roots
    at the finite ends lo and hi (of `_endpoint`) divided out, and whether
    hi was such a root."""
    q = _square_free(_primitive(cs))
    if lo[1] and _sign_at(q, *lo) == 0:
        q = _pdiv(q, (lo[1], -lo[0]))[0]  # lo is not in (lo, hi]
    b_is_root = hi[1] != 0 and _sign_at(q, *hi) == 0
    if b_is_root:
        # hi belongs to (lo, hi]; the caller re-adds it
        q = _pdiv(q, (hi[1], -hi[0]))[0]
    return q, b_is_root


def _count(cs: tuple[int, ...], lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """Distinct real roots in (lo, hi] of the nonzero integer coefficients
    cs, highest degree first; lo < hi are `_endpoint`s."""
    q, b_is_root = _open_part(cs, lo, hi)
    if len(q) <= 1:
        return int(b_is_root)
    chain = _sturm(q)
    return _variations(chain, *lo) - _variations(chain, *hi) + b_is_root


def count_real_roots_in(p: Polynomial, a, b) -> int:
    """Distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    return _count(_int_coeffs(p), *_range(a, b))


class RootInterval(NamedTuple):
    """Certified isolating interval (lo, hi] with a refined float estimate."""

    lo: Fraction
    hi: Fraction
    value: float
    certified: bool = True


_WIDTH = Fraction(1, 10 ** 12)  # the width of a refined isolating interval
_PAST_FLOATS = "a root lies outside the float range (|x| > 1.8e308)"


def _cauchy_bound(cs: tuple[int, ...]) -> tuple[int, int]:
    """1 + max |c_i / c_0| over cs past its leading c_0, as (p, d) in lowest terms."""
    top, lead = max(abs(c) for c in cs[1:]), abs(cs[0])
    g = math.gcd(top, lead)
    return (top + lead) // g, lead // g


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


def _dyadic_float(p: int, d: int, e: int) -> float:
    """p / (d 2^e) as a float clamped to [-2, 2], for d > 0."""
    if e < 0:
        p <<= -e
    else:
        d <<= e
    return (2.0 if p > 0 else -2.0) if abs(p) >= 2 * d else p / d


def _bound_exponent(cs: Sequence[int]) -> int:
    """The least E with |c_i / c_0| < 2^(E i) for every coefficient c_i of
    cs, highest degree first: by Fujiwara's bound every root has |t| < 2^(E+1)."""
    lead = abs(cs[0]).bit_length()
    return max((-((lead - abs(c).bit_length() - 1) // i) for i, c in enumerate(cs) if c and i),
               default=0)


def _scaled(q: tuple[int, ...]) -> tuple[int, list[float], list[float]]:
    """e from `_bound_exponent`, so every root lies at |u| < 2 for t = 2^e u,
    and the float coefficients of q(2^e u) / 2^top, top the largest bit
    length among them, so each lies in [-1, 1], and of its derivative."""
    n, e = len(q) - 1, _bound_exponent(q)
    top = max(abs(c).bit_length() + e * (n - i) for i, c in enumerate(q))
    u = [_dyadic_float(c, 1, top - e * (n - i)) for i, c in enumerate(q)]
    return e, u, _derivative(u)


def _split(lo: float, hi: float) -> float:
    """A point of (lo, hi): 0 where the bracket holds it, else the midpoint,
    or on a bracket whose ends differ by more than a factor 16 the power of
    two halfway between their exponents (that of the least float for an end
    at 0), so a wide bracket narrows by the exponent first."""
    if lo < 0.0 < hi:
        return 0.0
    a, b = (lo, hi) if lo >= 0.0 else (-hi, -lo)
    if b <= 16.0 * a:
        return (lo + hi) / 2
    mid = math.ldexp(0.5, ((math.frexp(a)[1] if a else -1074) + math.frexp(b)[1]) // 2)
    return mid if lo >= 0.0 else -mid


_FLOAT_STEPS = 100


def _estimate(u: list[float], du: list[float], lo: float, hi: float, pos: bool,
              tol: float) -> float:
    """A float near the one root in (lo, hi] of the float polynomial u, with
    derivative du, which is positive just right of lo if pos, else negative:
    Newton steps kept inside the bracket its signs narrow, with a `_split`
    of the bracket for a step that leaves it or does not halve the step
    before. It stops at a Newton step or a bracket of at most tol."""
    t, step = hi, hi - lo  # a root at hi, an isolation midpoint, ends this at once
    for _ in range(_FLOAT_STEPS):
        f = _float_at(u, t)
        if f == 0.0:
            return t
        if (f > 0.0) == pos:
            lo = t
        else:
            hi = t
        if hi - lo <= tol:
            return t
        deriv = _float_at(du, t)
        nxt = t - f / deriv if deriv else math.nan
        if lo <= nxt <= hi and abs(nxt - t) <= tol:
            return nxt
        if not lo < nxt <= hi or abs(nxt - t) > step / 2:
            nxt = _split(lo, hi)
        step, t = abs(nxt - t), nxt
    return t


def _numerator(t: float, e: int, d: int) -> int:
    """The floor of t 2^e d."""
    tn, td = t.as_integer_ratio()
    return (tn * d << e) // td if e >= 0 else tn * d // (td << -e)


def _level(w: int, d: int) -> int:
    """The least K with w / (d 2^K) <= _WIDTH."""
    return (-(-w * _WIDTH.denominator // (_WIDTH.numerator * d)) - 1).bit_length()


def _refine(q: tuple[int, ...], dq: tuple[int, ...], x: int, y: int, d: int, s: int,
            scaled: tuple[int, list[float], list[float]]) -> tuple[int, int, int]:
    """The interval (x, y] / d of width at most _WIDTH that bisecting the
    isolating interval (x/d, y/d], right of x/d of which q has sign s, ends
    in. Bisection keeps y - x and doubles d, so after K = `_level` halvings,
    K fixed by the width alone, it is one of the 2^K cells (x 2^K + j w,
    x 2^K + (j+1) w] / (d 2^K), w = y - x: the cell j with q of sign s at its
    left end (or j = 0) and not at its right end (or j = 2^K - 1). A float
    estimate of the root, sharpened by exact Newton steps where a float
    cannot tell the cells apart, names j; two sign tests certify it, and a
    miss gallops from it over cell indices and then bisects."""
    w = y - x
    k = _level(w, d)
    if not k:
        return x, y, d
    e, u, du = scaled
    t = _estimate(u, du, _dyadic_float(x, d, e), _dyadic_float(y, d, e), s > 0,
                  _dyadic_float(w, d << k, e) / 4)
    cells = 1 << k
    x, d = x << k, d << k
    num = _numerator(t, e, d)  # the estimate as a numerator over d
    scale = e + d.bit_length() - w.bit_length()  # turns a float's exponent into bits in cells
    if math.frexp(t)[1] + scale > 53:
        # a float step spans more than a cell: exact Newton steps on
        # numerators over d, each a quotient of d^n q by d^(n-1) q', as many
        # as double the float's 50 or so good bits past those of t in cells
        for _ in range(((math.frexp(t)[1] + scale) // 50).bit_length()):
            deriv = _value_at(dq, num, d)
            if not deriv:
                break
            delta = _value_at(q, num, d) // deriv
            num -= delta
            if abs(delta) <= w:
                break
    m, step = max(min((num - x) // w, cells - 1), 1), 1
    lo, hi = 0, cells  # q has sign s at the left end of cell lo, not at that of cell hi
    while hi - lo > 1:
        if not lo < m < hi:
            m = (lo + hi) // 2
        if _sign_at(q, x + m * w, d) == s:
            lo, m = m, m + step
        else:
            hi, m = m, m - step
        step *= 2
    x += lo * w
    return x, x + w, d


def _quadratic_cells(q: tuple[int, ...], dq: tuple[int, ...], x: int, y: int,
                     d: int) -> list[tuple[int, int, int, int]] | None:
    """The refined cells (x', x' + w, d', s) of the roots in (x/d, y/d] of
    the square-free quadratic q, s the sign of q just right of x'/d', or
    None where both roots lie in one cell. Bisecting (x/d, y/d] keeps
    w = y - x, so a root whose cell of level K = `_level(w, d)` holds no
    other root ends in that cell, (x', x' + w] / d' with x' = x 2^K + j w
    and d' = d 2^K: j = ceil(z) - 1 for the root t at z = (t d' - x 2^K) / w,
    and a root with j outside [0, 2^K) lies outside the range. With
    t = (-b -+ sqrt(D)) / 2a, D the discriminant, z is (P -+ sqrt(Q)) / M for
    integers P, Q and M > 0, the smaller root first, and ceil(z) - 1 is
    (ceil(P -+ sqrt(Q)) - 1) // M, exact by one integer square root. Two
    sign tests per cell certify it: q has the sign s just right of its left
    end and not at its right end; a cell that fails them returns None."""
    a, b, _ = q
    disc = _discriminant(q)
    if disc < 0:
        return []
    w = y - x
    k = _level(w, d)
    x, d = x << k, d << k
    sa = 1 if a > 0 else -1
    p, m, sq = sa * (-b * d - 2 * a * x), 2 * abs(a) * w, disc * d * d
    r = math.isqrt(sq)
    j0, j1 = (p - r - 1) // m, (p + r + (r * r != sq) - 1) // m
    if j0 == j1 and 0 <= j0 < 1 << k:
        return None
    cells = []
    # q has the sign of a left of the smaller root and the other right of it
    for j, s in ((j0, sa), (j1, -sa)):
        if 0 <= j < 1 << k:
            left = x + j * w
            if (_sign_at(q, left, d) or _sign_at(dq, left, d)) != s \
                    or _sign_at(q, left + w, d) == s:
                return None
            cells.append((left, left + w, d, s))
    return cells


def _bisect(q: tuple[int, ...], x: int, y: int, d: int) -> list[tuple[int, int, int]]:
    """Isolating intervals (x', y', d') of the roots of q in (x/d, y/d], by
    Sturm counts: an interval holding more than one root is halved, and
    y' - x' = y - x always."""
    chain = _sturm(q)
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
    return isolated


def _isolate(cs: tuple[int, ...], lo: tuple[int, int], hi: tuple[int, int],
             lead=None) -> list[tuple[int, int, int, float]]:
    """The cell (x, y, d), meaning (x/d, y/d], of each distinct real root in
    (lo, hi] of the nonzero integer coefficients cs, highest degree first,
    and its float estimate, in the order of the estimates; lo < hi are
    `_endpoint`s, and a root at hi = p/d is (p, p, d). The other cells are
    those of width at most _WIDTH that bisecting from the Cauchy bound (or
    the finite range ends) ends in: a quadratic names them in closed form
    (`_quadratic_cells`); else Sturm counts isolate and `_refine` refines.
    A guarded Newton step polishes each estimate, on q scaled to `lead`, the
    leading coefficient of the caller's polynomial (default cs[0])."""
    q, b_is_root = _open_part(cs, lo, hi)
    results = []
    if b_is_root:
        try:
            results.append((hi[0], hi[0], hi[1], hi[0] / hi[1]))
        except OverflowError:
            raise OverflowError(_PAST_FLOATS) from None
    if len(q) <= 1:
        return results
    if not lo[1] or not hi[1]:
        bound = _cauchy_bound(q)
        lo, hi = lo if lo[1] else (-bound[0], bound[1]), hi if hi[1] else bound
    if not _below(lo, hi):
        return results
    # an endpoint x/d is kept as the integers (x, d), with d the common
    # denominator of lo and hi times a power of two; bisecting doubles d
    d = math.lcm(lo[1], hi[1])
    x, y = lo[0] * (d // lo[1]), hi[0] * (d // hi[1])
    dq = _derivative(q)
    cells = _quadratic_cells(q, dq, x, y, d) if len(q) == 3 else None
    scaled = None
    if cells is None:
        # (x/d, y/d] holds one simple root, so q keeps the sign it has just
        # right of x/d up to that root (the sign of q' if x/d is a root too)
        cells = [(x, y, d, _sign_at(q, x, d) or _sign_at(dq, x, d))
                 for x, y, d in _bisect(q, x, y, d)]
        scaled = _scaled(q)
    # the Newton step reads q scaled to the caller's leading coefficient,
    # which the caller's polynomial divided by a monic gcd keeps, so the
    # float polish does not depend on the integer scale of q
    lead = cs[0] if lead is None else lead
    num, den = lead.numerator, lead.denominator * q[0]
    try:
        q_f = [c * num / den for c in q]
        dq_f = [c * num / den for c in dq]
    except OverflowError:  # a coefficient past the float range: no polish
        q_f = dq_f = None
    for x, y, d, s in cells:
        if _root_past_floats(q, x, y, d, s):
            raise OverflowError(_PAST_FLOATS)
        if scaled is not None:
            x, y, d = _refine(q, dq, x, y, d, s, scaled)
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
        results.append((x, y, d, est))
    results.sort(key=lambda r: r[3])
    return results


def isolate_and_refine(p: Polynomial, a=NEG_INF, b=POS_INF) -> list[RootInterval]:
    """Certified isolating intervals of width at most _WIDTH, with float
    estimates, for the distinct real roots of p in (a, b] (`_isolate`)."""
    lo, hi = _range(a, b)
    if p.is_zero:
        return []
    return [RootInterval(Fraction(x, d), Fraction(y, d), est)
            for x, y, d, est in _isolate(_int_coeffs(p), lo, hi, p.leading)]
