"""Expression parsing and truncated multivariate Taylor arithmetic.

Charts are declared as elementary expressions in named variables. This module
turns an expression string into a small AST and evaluates it to a `JetValue`:
a dense truncated Taylor expansion at a base point, storing normalized
coefficients c_alpha = d^alpha F / alpha! for all multi-indices with
|alpha| <= order, at one base point or at each point of a batch. Order 5
suffices for every downstream quantity (the
bitension field consumes three derivatives of the mean curvature, which
itself consumes two derivatives of the immersion).

Grammar (no implicit multiplication, '^' takes a constant exponent and does
not chain):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' constant)?
    unary  := '-' unary | primary
    primary:= NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

`pi` and `e` are literals. Supported functions (unary): sin cos tan cot exp
log sqrt asin acos atan sinh cosh tanh. The parser folds each node it
builds from literals alone to a literal, with the jet operation a point runs
on it (`_folded`); one that does not fold to a finite number stays, to fail
where it is evaluated, but an exponent must fold.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import OrderedDict
from functools import partial, wraps
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "ExpressionError",
    "DomainError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ExprAst",
    "parse_expression",
    "shift_variables",
    "JetValue",
    "contract",
    "EvalContext",
    "eval_jet",
    "JetProgram",
    "FUNCTIONS",
]

FUNCTIONS = (
    "sin", "cos", "tan", "cot", "exp", "log", "sqrt",
    "asin", "acos", "atan", "sinh", "cosh", "tanh",
)

_CONSTANTS = {"pi": math.pi, "e": math.e}


class ExpressionError(ValueError):
    """Parse-time failure; `offset` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """Evaluation left the domain of an elementary function."""


# ---------------------------------------------------------------------------
# AST


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    index: int
    name: str


class Neg(NamedTuple):
    operand: "ExprAst"


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: "ExprAst"
    right: "ExprAst"


class Pow(NamedTuple):
    base: "ExprAst"
    exponent: float


class Call(NamedTuple):
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Neg, BinOp, Pow, Call]


def _subtrees(node: ExprAst) -> list[ExprAst]:
    """The direct sub-trees of a node: its fields that are nodes."""
    return [v for v in node if isinstance(v, tuple)]


# ---------------------------------------------------------------------------
# Tokenizer


class _Token(NamedTuple):
    kind: str  # NUMBER IDENT OP END
    text: str
    offset: int


_OPS = set("+-*/^()")
# ASCII only: str.isdigit also accepts digits that float() rejects, such as
# "²", and decimal digits of other scripts
_DIGITS = set("0123456789")


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            # exponent part only when followed by digits (else 'e' is an ident)
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            tokens.append(_Token("NUMBER", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", source[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


# Bound on the parser's nesting and on the depth of the folded AST: deeper
# input would exhaust the recursion of parsing and of compiling a
# `JetProgram` (a node folds as the parser builds it, and evaluation runs
# the compiled program, neither with recursion). The deepest chart shipped
# with the package has depth 10.
_MAX_DEPTH = 100


def _check_depth(node: ExprAst, offset: int) -> None:
    """Raise ExpressionError at `offset` if the AST is deeper than
    _MAX_DEPTH; walked with an explicit stack, as a deep AST would exhaust
    recursion."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {_MAX_DEPTH} levels", offset)
        stack.extend((sub, depth + 1) for sub in _subtrees(node))


class _Parser:
    def __init__(self, source: str, variables: tuple[str, ...]):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.m = len(variables)
        self.nesting = 0  # unary rules in progress; every recursion passes one

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExpressionError(f"expected {op!r}", tok.offset)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExpressionError(f"unexpected token {tok.text!r}", tok.offset)
        _check_depth(node, 0)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = _folded(BinOp(op, node, self.term()), self.m)
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = _folded(BinOp(op, node, self.factor()), self.m)
        return node

    def factor(self) -> ExprAst:
        node = self.unary()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            exponent = self.unary()
            if not isinstance(exponent, Num):
                raise ExpressionError("exponent must be a finite constant", exp_tok.offset)
            node = _folded(Pow(node, exponent.value), self.m)
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok.offset)
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            node = _folded(Neg(self.unary()), self.m)
        else:
            node = self.primary()
        self.nesting -= 1
        return node

    def primary(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "NUMBER":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExpressionError(f"number {tok.text} is not finite", tok.offset)
            return Num(value)
        if tok.kind == "IDENT":
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if name not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", tok.offset)
                self.advance()
                inner = self.peek()
                if inner.kind == "OP" and inner.text == ")":
                    raise ExpressionError(
                        f"{name} takes exactly one argument", inner.offset)
                arg = self.expr()
                stop = self.peek()
                if stop.kind == "OP" and stop.text != ")":
                    raise ExpressionError(f"expected ')'", stop.offset)
                if stop.kind not in ("OP",):
                    raise ExpressionError(
                        f"{name} takes exactly one argument", stop.offset)
                self.expect_op(")")
                return _folded(Call(name, arg), self.m)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in self.variables:
                return Var(self.variables[name], name)
            raise ExpressionError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "OP" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"unexpected token {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.offset)


def _folded(node: ExprAst, m: int) -> ExprAst:
    """The node, or the `Num` of its value where its operands are all `Num`:
    its jet at order 0 in the m variables (a constant's jet has that value
    at every order), from the operation a point's program runs on the same
    constant jets, so that every coefficient keeps its value and its bits,
    but for the sign of a zero (a negated constant's higher coefficients,
    -0.0 unfolded, read 0.0). A node whose evaluation raises, or whose value
    is not finite, is kept, to fail where it is evaluated."""
    operands = _subtrees(node)
    if not operands or not all(isinstance(sub, Num) for sub in operands):
        return node
    try:
        with np.errstate(all="ignore"):
            value = _operation(node, (m,) * len(operands), m, 0)(
                *[JetValue.constant(sub.value, m, 0) for sub in operands]).value
    except (ArithmeticError, ValueError):
        return node
    return Num(value) if math.isfinite(value) else node


def parse_expression(source: str, variables: tuple[str, ...] | list[str]) -> ExprAst:
    """Parse `source` over the given variable names; raises ExpressionError,
    also for an expression nested deeper than _MAX_DEPTH levels."""
    return _Parser(source, tuple(variables)).parse()


def shift_variables(node: ExprAst, offset: int, names: tuple[str, ...]) -> ExprAst:
    """Reindex variables by `offset` into a new name tuple (chart rebasing)."""
    if isinstance(node, Var):
        idx = node.index + offset
        return Var(idx, names[idx])
    subtrees = iter([shift_variables(sub, offset, names) for sub in _subtrees(node)])
    return type(node)(*[next(subtrees) if isinstance(v, tuple) else v for v in node])


# ---------------------------------------------------------------------------
# Multi-index bookkeeping (dense graded-lex layout, cached per (m, order))


class _TableCache:
    """The one builder of the jet layer's tables and plans: a decorator that
    keeps what its functions build, by function and arguments. A hit is one
    lookup; a miss builds the value, marks each of its arrays read-only (it
    is shared), stores it and drops the oldest entries while their bytes
    exceed `budget` (the newest is always kept). A plan holds no table's
    arrays, only the keys and ranges it reads them by, so it counts no bytes
    and outlives any table it reads.

    Threads share the cache: a store and its evictions take a lock, and a
    lookup, which takes none, returns what it found even where another
    thread evicts it meanwhile."""

    def __init__(self, budget: int):
        self.budget = budget
        self.bytes = 0
        self.entries: OrderedDict = OrderedDict()  # key -> (table or plan, bytes), oldest first
        self.lock = threading.Lock()

    def __call__(self, build):
        name = build.__name__

        @wraps(build)
        def cached(*args):
            key = (name, *args)
            entry = self.entries.get(key)
            if entry is not None:
                return entry[0]
            value, size = build(*args), 0
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, np.ndarray):
                    v.flags.writeable = False
                    size += v.nbytes
            with self.lock:  # in place of what another thread may have stored meanwhile
                old = self.entries.pop(key, None)
                self.bytes += size - (old[1] if old else 0)
                self.entries[key] = (value, size)
                while self.bytes > self.budget and len(self.entries) > 1:
                    self.bytes -= self.entries.popitem(last=False)[1][1]
            return value
        return cached


# The tables share one budget. With their pair rows and slots stored as
# int32 (`_int32`), the tables one residual reads take 6.2 MiB together at
# dimension 12, the largest in the catalog (9.0 MiB at 13, 12.7 MiB at 14),
# so a sweep over dimensions keeps the tables of about one residual up to
# dimension 14, not those of every dimension it met, and the tables of all
# the dimensions up to 8 fit at once. A plan counts no bytes: the plans of the
# gallery's 84 contraction shapes take about 180 KiB of small tuples, and
# they go, oldest first, with the tables when the tables overflow.
_TABLES = _TableCache(14 * 2 ** 20)


@_TABLES
def _exponents(m: int, order: int):
    """The multi-indices |alpha| <= order of m variables in the coefficient
    layout of a jet (by degree, lex inside a degree): the (ncoef, m) exponent
    table, the key of each row (alpha read in base order + 1, so that
    key(alpha + beta) = key(alpha) + key(beta) while |alpha + beta| <= order),
    the keys in ascending (lex) order and the row of each. Raises
    OverflowError, before any allocation, where a key would not fit intp."""
    base, bound = order + 1, np.iinfo(np.intp).max
    if base ** m > bound:
        raise OverflowError(f"jet tables of dimension {m} at order {order} need "
                            f"keys up to {base}^{m}, past the integer bound {bound}")
    # every index in lex order, one variable at a time: each row followed by
    # every exponent its remaining degree allows
    lex = np.zeros((1, 0), dtype=np.intp)
    for _ in range(m):
        room = base - lex.sum(axis=1)
        last = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        lex = np.column_stack([np.repeat(lex, room, axis=0), last])
    lex_keys = lex @ base ** np.arange(m - 1, -1, -1, dtype=np.intp)
    graded = np.argsort(lex.sum(axis=1), kind="stable")
    return lex[graded], lex_keys[graded], lex_keys, np.argsort(graded)


def _int32(index: np.ndarray) -> np.ndarray:
    """The row or slot numbers `index` (none negative) as int32, half the
    bytes of intp, for a table the cache holds; `take` and `bincount` cast
    it back as they read it. Raises OverflowError, rather than wrap, where
    an entry does not fit."""
    bound = np.iinfo(np.int32).max
    if index.size and index.max() > bound:
        raise OverflowError(f"jet table entries run to {index.max()}, past the int32 "
                            f"bound {bound}")
    return index.astype(np.int32)


def _rows(m: int, order: int, keys) -> np.ndarray:
    """Rows of the jet layout holding the multi-indices with these keys."""
    _, _, lex_keys, rows = _exponents(m, order)
    return rows[np.searchsorted(lex_keys, keys)]


@_TABLES
def _mul_tables(m: int, order: int, va: int, vb: int):
    """Every pair (i, j) of coefficients whose product lands at or below
    `order`, with i in the rows of the variable mask `va` and j in those of
    `vb` (the multi-indices with no exponent outside the mask), i-major, as
    int32, and the row lo of each product, as intp, which a lone scalar
    product hands to bincount as it is. A mask of -1 holds every variable,
    so masks of -1 give the dense table; `_pair_sum` sets the bits past the
    m variables, so that a mask of all of them keys it too."""
    table, keys, _, _ = _exponents(m, order)
    degree = table.sum(axis=1)
    ra, rb = np.flatnonzero(_in_support(table, va)), np.flatnonzero(_in_support(table, vb))
    # the partners of a degree-d row are the rows of degree <= order - d: a
    # prefix of the graded layout, and of the rows of a mask
    partners = np.searchsorted(degree[rb], order - degree[ra], side="right")
    li = np.repeat(ra, partners)
    lj = rb[np.arange(len(li)) - np.repeat(np.cumsum(partners) - partners, partners)]
    return _int32(li), _int32(lj), _rows(m, order, keys[li] + keys[lj])


def _in_support(table: np.ndarray, support: int) -> np.ndarray:
    """Which rows of the exponent table have no exponent outside the
    variables of the mask `support`."""
    outside = [i for i in range(table.shape[1]) if not support >> i & 1]
    return ~table[:, outside].any(axis=1)


@_TABLES
def _pair_slots(m: int, order: int, va: int, vb: int, size: int):
    """The output entry of every term of an entrywise product on the pairs
    of `_mul_tables(m, order, va, vb)` with `size` entries per coefficient:
    by pair, then entry, with the output laid out (coefficient, entry), as
    int32."""
    lo = _mul_tables(m, order, va, vb)[2]
    return _int32((lo[:, None] * size + np.arange(size)).ravel())


@_TABLES
def _deriv_tables(m: int, order: int):
    """Maps an order-k jet to the order-(k-1) jets of its partials: the
    source coefficient and factor of each lowered coefficient (row) and
    variable (column); the first rows serve any lower order, as its layout
    is a prefix. Raising the v exponent shifts a key by (order+1)^(m-1-v)."""
    table, keys, _, _ = _exponents(m, order)
    lowered = math.comb(m + order - 1, m)
    shift = (order + 1) ** np.arange(m - 1, -1, -1, dtype=np.intp)
    return _rows(m, order, keys[:lowered, None] + shift), (table[:lowered] + 1).astype(np.float64)


@_TABLES
def _second_tables(m: int, order: int):
    """The same for the second partials d_i d_j, i <= j in np.triu_indices
    order, of an order-k jet at order k - 2: d_j lands on the row alpha +
    e_j, then d_i on alpha + e_i + e_j, and the two factors multiply."""
    src, fac = _deriv_tables(m, order)
    n, (i, j) = math.comb(m + order - 2, m), np.triu_indices(m)
    inner = src[:n, j]
    return src[inner, i], fac[inner, i] * fac[:n, j]


def _gathered(c: np.ndarray, src: np.ndarray, fac: np.ndarray) -> np.ndarray:
    """The rows src of the coefficients c, times their factors fac."""
    out = c[src]
    out *= fac.reshape(fac.shape + (1,) * (out.ndim - fac.ndim))
    return out


# ---------------------------------------------------------------------------
# Univariate Taylor coefficient recurrences at a point


def _any(mask):
    """np.any, without the cost of first making a lone point's bool an array."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _poly_div(a: list, b: list, n: int) -> list:
    if _any(b[0] == 0.0):
        raise DomainError("division by zero constant term")
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = a[k] if k < len(a) else 0.0
        for j in range(k):
            acc = acc - out[j] * (b[k - j] if k - j < len(b) else 0.0)
        out[k] = acc / b[0]
    return out

def _poly_pow(s: list, a: float, n: int) -> list:
    if _any(s[0] <= 0.0):
        raise DomainError("fractional power of non-positive value")
    out = [0.0] * (n + 1)
    out[0] = _at(np.power, s[0], a)
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            sj = s[j] if j < len(s) else 0.0
            acc = acc + (a * j - (k - j)) * sj * out[k - j]
        out[k] = acc / (k * s[0])
    return out


def _at(f, c, *args):
    """numpy's f at c; a float for a float, whose recurrences then never warn."""
    v = f(c, *args)
    return float(v) if isinstance(c, float) else v


def _series(fn: str, c, n: int, h=1.0) -> list:
    """Taylor coefficients a_j h^j = fn^(j)(c) h^j / j! for j = 0..n, those of
    t -> fn(c + h t), at a base value c (a float) or per point (an array),
    with h a float or one per value. Both take numpy's functions, so a lone
    point gets its batch column's bits; a value that is not finite raises
    DomainError. A lone |c| < 709 (e^709 < 2^1023) overflows nowhere, so it
    skips numpy's error state, which costs about as much as the series."""
    lone = isinstance(c, float)
    finite = math.isfinite if lone else lambda x: np.isfinite(x).all()
    if not finite(c):
        raise DomainError(f"{fn} of a value that is not finite")
    if lone and abs(c) < 709.0:
        v = _series_of(fn, c, n, h)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            v = _series_of(fn, c, n, h)
    if not finite(v[0]):
        raise DomainError(f"{fn}({c!r}) is not finite" if lone
                          else f"{fn} is not finite at some point")
    return v


def _series_of(fn: str, c, n: int, h) -> list:
    """The series of `_series`. With h a power of two, each a_j h^j is
    a_j scaled exactly, as h enters every recurrence as one factor."""
    if fn == "exp":
        v = [_at(np.exp, c)]
        for k in range(1, n + 1):
            v.append(v[k - 1] * h / k)
        return v
    if fn == "log":
        if _any(c <= 0.0):
            raise DomainError("log of non-positive value")
        v = [_at(np.log, c), h / c]
        for k in range(2, n + 1):
            v.append(-(k - 1) * v[k - 1] * h / (k * c))
        return v[: n + 1]
    if fn == "sqrt":
        if _any(c <= 0.0):
            raise DomainError("sqrt of non-positive value")
        return _poly_pow([c, h], 0.5, n)
    if fn in ("sin", "cos", "sinh", "cosh"):  # s' = co, co' = -s or s
        hyp = fn[-1] == "h"
        s, co = [_at(np.sinh if hyp else np.sin, c)], [_at(np.cosh if hyp else np.cos, c)]
        for k in range(1, n + 1):
            s.append(co[k - 1] * h / k)
            co.append((s[k - 1] if hyp else -s[k - 1]) * h / k)
        return s if fn[:3] == "sin" else co
    if fn == "tan":
        return _poly_div(_series_of("sin", c, n, h), _series_of("cos", c, n, h), n)
    if fn == "cot":
        return _poly_div(_series_of("cos", c, n, h), _series_of("sin", c, n, h), n)
    if fn == "tanh":
        return _poly_div(_series_of("sinh", c, n, h), _series_of("cosh", c, n, h), n)
    if fn == "atan":
        w = [1.0 + c * c, 2.0 * c * h, h * h]
        g = _poly_div([1.0], w, max(n - 1, 0))
        v = [_at(np.arctan, c)]
        for k in range(1, n + 1):
            v.append(g[k - 1] * h / k)
        return v
    if fn in ("asin", "acos"):
        if _any(abs(c) >= 1.0):
            raise DomainError(f"{fn} outside (-1, 1)")
        w = _poly_pow([1.0 - c * c, -2.0 * c * h, -h * h], 0.5, max(n - 1, 0))
        g = _poly_div([1.0], w, max(n - 1, 0))
        sign = 1.0 if fn == "asin" else -1.0
        v = [_at(np.arcsin if fn == "asin" else np.arccos, c)]
        for k in range(1, n + 1):
            v.append(sign * g[k - 1] * h / k)
        return v
    raise ValueError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# JetValue


class JetValue:
    """Dense truncated Taylor expansion of a scalar or tensor field:
    coeffs[c] = d^alpha F / alpha! for the c-th multi-index alpha.

    `coeffs` has shape (ncoef, *tensor, [N]): the coefficient axis, `rank`
    tensor axes, then optionally a point axis of N base points carried
    through one pass (the vector forward mode of Griewank & Walther,
    Evaluating Derivatives, 2nd ed., ch. 13). `value` and `partial` drop the
    coefficient axis (a float for a scalar at one point). Indexing and
    iteration run over the first tensor axis. `+ - *` act entry by entry,
    broadcasting tensor axes as numpy does; `contract` sums over them. A
    one-point jet or a float combined with a batch acts as a constant
    across it; an array laid out like `value` is a constant per entry (and
    per point). Operands of different orders truncate to the lower order;
    mixing dimensions is an error.

    `support` is a bit mask of the variables the coefficients may depend
    on: every coefficient of a multi-index with an exponent outside it is
    exactly zero (-1, the default, holds every variable). A constant has
    support 0 and variable i has 1 << i; `+ - * /` take the union, and
    derivatives, truncation, indexing, composition and powers keep it.
    Products skip the coefficient pairs with a factor outside the support
    (Griewank & Walther, ch. 13, on sparsity in the independent variables).

    `lowest` is a degree below which every coefficient is exactly zero (0
    claims nothing); `contract` skips those rows and gives its product the
    sum of the two, and every other operation resets it to 0.
    """

    __slots__ = ("m", "order", "coeffs", "rank", "support", "lowest")
    __array_ufunc__ = None  # ndarray <op> jet defers to the jet's operator

    def __init__(self, m: int, order: int, coeffs: np.ndarray, rank: int = 0,
                 support: int = -1, lowest: int = 0):
        self.m = m
        self.order = order
        self.coeffs = coeffs
        self.rank = rank
        self.support = support
        self.lowest = lowest

    # construction ----------------------------------------------------------

    @classmethod
    def constant(cls, value, m: int, order: int, rank: int = 0) -> "JetValue":
        coeffs = np.zeros((math.comb(m + order, m),) + getattr(value, "shape", ()))
        coeffs[0] = value
        return cls(m, order, coeffs, rank, 0)

    @classmethod
    def variable(cls, index: int, value, m: int, order: int) -> "JetValue":
        if not 0 <= index < m:
            raise ValueError(f"variable index {index} out of range for dimension {m}")
        coeffs = np.zeros((math.comb(m + order, m),) + getattr(value, "shape", ()))
        coeffs[0] = value
        if order >= 1:  # the degree-1 rows follow the constant, x_(m-1) first
            coeffs[m - index] = 1.0
        return cls(m, order, coeffs, 0, 1 << index)

    # helpers ----------------------------------------------------------------

    @property
    def batched(self) -> bool:
        return self.coeffs.ndim > self.rank + 1

    @property
    def value(self):
        c = self.coeffs[0]
        return float(c) if self.coeffs.ndim == 1 else c

    def __len__(self) -> int:
        if not self.rank:
            raise TypeError("a scalar jet has no length")
        return self.coeffs.shape[1]

    def __getitem__(self, index: int) -> "JetValue":
        """The jet of entry `index` of the first tensor axis."""
        if not self.rank:
            raise TypeError("a scalar jet is not subscriptable")
        return JetValue(self.m, self.order, self.coeffs[:, index], self.rank - 1, self.support)

    def truncate(self, order: int) -> "JetValue":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a jet to higher order")
        n = math.comb(self.m + order, self.m)
        return JetValue(self.m, order, self.coeffs[:n].copy(), self.rank, self.support)

    def _truncated(self, other: "JetValue") -> tuple[int, np.ndarray, np.ndarray]:
        """The common order and both coefficient arrays truncated to it."""
        if self.m != other.m:
            raise ValueError("jet dimensions differ")
        k = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if self.order != other.order:
            n = math.comb(self.m + k, self.m)
            a, b = a[:n], b[:n]
        return k, a, b

    def _align(self, other: "JetValue") -> tuple[int, int, np.ndarray, np.ndarray]:
        """The common order, the rank of an entrywise result, and both
        coefficient arrays truncated and shaped to broadcast together."""
        k, a, b = self._truncated(other)
        if self.rank == other.rank and a.ndim == b.ndim:
            return k, self.rank, a, b
        rank = max(self.rank, other.rank)
        batched = self.batched or other.batched

        def shaped(jet, c):
            return c.reshape(c.shape[:1] + (1,) * (rank - jet.rank) + c.shape[1:]
                             + ((1,) if batched and not jet.batched else ()))

        return k, rank, shaped(self, a), shaped(other, b)

    def _against(self, other) -> tuple[np.ndarray, object]:
        """coeffs and a constant (a float, or an array laid out like
        `value`) shaped to broadcast together."""
        c, d = self.coeffs, getattr(other, "ndim", 0)
        if d > self.rank:  # one constant per point
            return (c if self.batched else c[..., None]), other
        return c, (other[..., None] if d and self.batched else other)

    def partial(self, alpha: tuple[int, ...]):
        """Raw partial derivative d^alpha F at the base point."""
        if len(alpha) != self.m:
            raise ValueError("multi-index length mismatch")
        if sum(alpha) > self.order:
            raise ValueError(
                f"requested order {sum(alpha)} exceeds jet order {self.order}")
        key, scale = 0, 1.0
        for a in alpha:  # factorial rejects a negative exponent
            key = key * (self.order + 1) + a
            scale *= math.factorial(a)
        c = self.coeffs[_rows(self.m, self.order, key)]
        return (float(c) if self.coeffs.ndim == 1 else c) * scale

    def derivative(self, var: int) -> "JetValue":
        """Jet of the partial derivative in variable `var`, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if not 0 <= var < self.m:
            raise ValueError("variable index out of range")
        src, fac = _deriv_tables(self.m, self.order)
        return JetValue(self.m, self.order - 1, _gathered(self.coeffs, src[:, var], fac[:, var]),
                        self.rank, self.support)

    def gradient(self, order: int | None = None) -> "JetValue":
        """Jet of all first partials at `order` (by default one below this
        jet's), one rank higher: gradient()[i] is derivative(i), and
        gradient(k)[i] its truncation to k, gathered in one pass."""
        k = self.order - 1 if order is None else order
        if not 0 <= k < self.order:
            raise ValueError(f"no gradient at order {k} of an order-{self.order} jet")
        src, fac = _deriv_tables(self.m, self.order)
        n = math.comb(self.m + k, self.m)
        return JetValue(self.m, k, _gathered(self.coeffs, src[:n], fac[:n]), self.rank + 1)

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, JetValue):
            k, rank, a, b = self._align(other)
            return JetValue(self.m, k, a + b, rank, self.support | other.support)
        c, v = self._against(other)
        # a one-point jet plus one constant per point grows a point axis
        out = c.copy() if c is self.coeffs else np.repeat(c, np.shape(v)[-1], axis=-1)
        out[0] += v
        return JetValue(self.m, self.order, out, self.rank, self.support)

    __radd__ = __add__

    def __neg__(self):
        return JetValue(self.m, self.order, -self.coeffs, self.rank, self.support)

    def __sub__(self, other):
        if isinstance(other, JetValue):
            k, rank, a, b = self._align(other)
            return JetValue(self.m, k, a - b, rank, self.support | other.support)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, JetValue):
            c, v = self._against(other)
            return JetValue(self.m, self.order, c * v, self.rank, self.support)
        k, rank, a, b = self._align(other)
        return JetValue(self.m, k, _pair_sum(self.m, k, a, b, self.support, other.support),
                        rank, self.support | other.support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, JetValue):
            if _any(other == 0.0):
                raise DomainError("division by zero constant")
            c, v = self._against(other)
            return JetValue(self.m, self.order, c / v, self.rank, self.support)
        if other.order > self.order:
            other = other.truncate(self.order)
        if _any(other.value == 0.0):
            raise DomainError("division by zero constant term")
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        if _any(self.value == 0.0):
            raise DomainError("division by zero constant term")
        return self._reciprocal() * other

    def _reciprocal(self) -> "JetValue":
        c = self.value

        def series(h):
            out = [1.0 / c]
            for _ in range(self.order):
                out.append(-out[-1] * h / c)
            return out

        return self._horner(series)

    def _horner(self, series_of: Callable) -> "JetValue":
        """Compose a univariate function with this jet, c + w with w of zero
        constant, as f(c + h t) at t = w / h. `series_of(h)` gives the Taylor
        series a_0..a_n (n = order) of t -> f(c + h t), and h is the largest
        power of two at most the largest |coefficient| of w, per entry and
        point: a tiny or huge argument keeps the a_k and w / h in range,
        where f's own series would overflow. Scaling by a power of two is
        exact, so elsewhere the composition keeps the bits of h = 1.

        Horner's rule gives r_k = a_k + (w / h) r_(k+1) from r_n = a_n down
        to r_0. As w vanishes at the base point, r_k is read only to order
        n - k, so step k runs at that order, r_(k+1) padded with zero
        coefficients. Each coefficient of r_0 sums the same pairs in the
        same order as a full-order step would; the pairs this skips multiply
        the zero constant of w. A jet of support 0 has w = 0, so its
        composition is the constant a_0."""
        m, n = self.m, self.order
        if not self.support:
            return JetValue.constant(series_of(1.0)[0], m, n, self.rank)
        w = self.coeffs.copy()
        w[0] = 0.0
        h = _scale_of(w)
        w /= h
        series = series_of(h)
        result = JetValue.constant(series[n], m, 0, self.rank)
        for k in range(n - 1, -1, -1):
            size = math.comb(m + n - k, m)
            r = np.zeros((size,) + result.coeffs.shape[1:])
            r[:len(result.coeffs)] = result.coeffs
            result = (JetValue(m, n - k, r, self.rank, result.support)
                      * JetValue(m, n - k, w[:size], self.rank, self.support) + series[k])
        return result

    def compose(self, fn: str) -> "JetValue":
        return self._horner(lambda h: _series(fn, self.value, self.order, h))

    def ipow(self, n: int) -> "JetValue":
        """Binary powering from the top bit down, O(log |n|) products; raises
        DomainError once a coefficient is no longer finite."""
        if n == 0:
            return JetValue.constant(1.0, self.m, self.order)
        base = self if n > 0 else self.__rtruediv__(1.0)
        result = base
        # an overflow is reported as DomainError below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for bit in bin(abs(n))[3:]:
                result = result * result
                if bit == "1":
                    result = result * base
                if not np.isfinite(result.coeffs).all():
                    raise DomainError("integer power overflows")
        return result

    def __repr__(self):
        return f"JetValue(m={self.m}, order={self.order}, value={self.value!r})"


def _scale_of(w: np.ndarray):
    """The largest power of two at most the largest |coefficient| of the jet
    coefficients w, per entry and point (a float for one scalar)."""
    size = np.abs(w).max(axis=0)
    h = np.ldexp(1.0, np.frexp(size)[1] - 1)
    return h if h.ndim else float(h)


def _pair_sum(m: int, order: int, x: np.ndarray, y: np.ndarray, va: int, vb: int) -> np.ndarray:
    """The entrywise product kernel: the coefficients of the product of two
    jets of dimension m truncated to `order`, with coefficient arrays x and
    y shaped to broadcast together and zero outside the rows of the variable
    masks va and vb. It gathers the coefficient pairs of every output
    coefficient from `_mul_tables`, multiplies them entry by entry, and sums
    them with one bincount over the flattened tensor and point entries. Each
    output slot sums its pairs in table order, so every entry, and every
    point of a batch, is summed exactly as a one-point scalar product would
    be; the pairs the masks leave out have an exactly zero factor."""
    every = ~((1 << m) - 1)  # a mask that holds all m variables reads -1
    va, vb = va | every, vb | every
    li, lj, lo = _mul_tables(m, order, va, vb)
    p, q = x.take(li, axis=0), y.take(lj, axis=0)
    terms = np.multiply(p, q, out=p) if p.shape == q.shape else p * q
    n = len(x)
    if terms.ndim == 1:
        return np.bincount(lo, weights=terms, minlength=n)
    size = terms.size // len(lo)
    return np.bincount(_pair_slots(m, order, va, vb, size), weights=terms.ravel(),
                       minlength=n * size).reshape((n,) + terms.shape[1:])


# The large temporaries of `contract`, one buffer per role and thread, each
# as large as the largest request it has met: reused from call to call, they
# spare the allocator the maps and page faults of fresh ones.
_WORKSPACES = threading.local()


def _workspace(role: str, size: int) -> np.ndarray:
    """The first `size` floats of this thread's buffer for `role`, grown to
    at least that size. Its contents are whatever the last call left."""
    buf = getattr(_WORKSPACES, role, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size)
        setattr(_WORKSPACES, role, buf)
    return buf[:size]


def _laid_out(c: np.ndarray, axes: tuple, shape: tuple, role: str) -> np.ndarray:
    """The array c transposed to `axes` and reshaped to `shape`: c itself
    where it is laid out so, else a copy in the workspace `role`."""
    moved = c.transpose(axes)
    if not moved.flags.c_contiguous:
        out = _workspace(role, moved.size).reshape(moved.shape)
        np.copyto(out, moved)
        moved = out
    return moved.reshape(shape)


def _spec_axes(spec: str):
    """The letters of a `contract` spec: those of A, of B and of the
    output, the free letters of A and of B and the summed ones, in order."""
    operands, out = spec.split("->")
    sa, sb = operands.split(",")
    free_a = "".join(c for c in sa if c in out)
    free_b = "".join(c for c in sb if c in out)
    summed = "".join(c for c in sa if c not in out)
    if (len(set(sa)) < len(sa) or len(set(sb)) < len(sb) or len(set(out)) < len(out)
            or sorted(free_a + free_b) != sorted(out)
            or sorted(c for c in sb if c not in out) != sorted(summed)):
        raise ValueError(f"cannot contract {spec!r}: each output letter must occur in "
                         "one operand and each summed letter once in both")
    return sa, sb, out, free_a, free_b, summed


def contract(spec: str, a: JetValue, b) -> JetValue:
    """Jet of np.einsum(spec, A, B) for fields A (a jet) and B (a jet, or a
    constant array laid out like `value`). `spec` names the tensor axes
    only, in lower-case letters, e.g. "ia,ja->ij" for g = T T^T; the
    coefficient and point axes are carried along. Each output letter occurs
    in one operand and each summed letter once in both.

    The coefficient pairs (i, j) of a product form one dense block per
    degree d of i: its rows are the degree-d coefficients, and their
    partners are a prefix of the layout (`_mul_tables`). Both operands are
    laid out once, as (point, coefficient and free-a, summed) and (point,
    summed, coefficient and free-b) with each group of axes folded into
    one, so that each block is one matrix product per point of two slices:
    A's rows of degree d and B's rows of their partners. The products fill
    one buffer, and one bincount adds every term into its output entry,
    block after block, so that each output entry sums its pairs in table
    order. A constant B is one block with a single partner. The blocks
    below A's `lowest` degree, and those whose partners all lie below B's,
    multiply exactly zero rows and are skipped; the rest are the full
    product's.

    Every axis list, shape, block and slot range of a call follows from the
    spec, the operands' shapes and that block range, so a call reads them
    from its plan (`_contract_plan`), its slots from their table by the
    range the plan names, and runs only its numpy calls. The products'
    buffer and the operands' laid-out copies (an operand already laid out
    so is read in place) live in workspaces this thread keeps from call to
    call (`_workspace`); every entry read is written first in the same
    call, and the returned jet is a fresh array."""
    jet = isinstance(b, JetValue)
    k, x, y = a._truncated(b) if jet else (a.order, a.coeffs, np.asarray(b, dtype=float))
    low, stop = (a.lowest, max(k + 1 - b.lowest, 0)) if jet else (0, 1)
    x_axes, x_shape, y_axes, y_shape, blocks, count, table, used, length, out, axes, rank = (
        _contract_plan(spec, a.m, k, jet, x.shape, y.shape, low, stop))
    X = _laid_out(x, x_axes, x_shape, "a")
    Y = _laid_out(y, y_axes, y_shape, "b")
    terms = _workspace("terms", count)
    for rows, partners, at, shape in blocks:
        np.matmul(X[rows], Y[partners], out=terms[at].reshape(shape))
    slots = _contract_slots(*table)[1][used]
    total = np.bincount(slots, weights=terms, minlength=length).reshape(out)
    if axes is not None:
        total = np.ascontiguousarray(total.transpose(axes))
    return JetValue(a.m, k, total, rank, -1, a.lowest + (b.lowest if jet else 0))


_ALL = slice(None)


@_TABLES
def _contract_plan(spec: str, m: int, k: int, jet: bool, xshape: tuple, yshape: tuple,
                   low: int, stop: int):
    """The plan of a `contract` call: the transpose axes and laid-out shape
    of both operands, (point, coefficient and free-a, summed) and (point,
    summed, coefficient and free-b); per block from `low` to `stop`, the
    index of its rows in A and of their partners in B, its slice of the
    products' buffer and the shape of its products; the buffer's length;
    the arguments of the `_contract_slots` table and the range of its slots
    that holds the output entry of every product; the output length and
    shape, the axes that order the output as the spec does (None where it
    is so ordered) and the output rank. It holds no array, so that the
    slots count once, with their table, and the table can be evicted and
    rebuilt under a plan that stays."""
    sa, sb, out, free_a, free_b, summed = _spec_axes(spec)
    yt = 1 if jet else 0  # the first tensor axis of y
    xb, yb = len(xshape) > 1 + len(sa), len(yshape) > yt + len(sb)
    points = xshape[-1] if xb else yshape[-1] if yb else 1
    size = dict(zip(sa, xshape[1:]))
    size.update(zip(sb, yshape[yt:]))
    na = math.prod(size[c] for c in free_a)
    nb = math.prod(size[c] for c in free_b)
    ns = math.prod(size[c] for c in summed)
    n, xp, yp = xshape[0], xshape[-1] if xb else 1, yshape[-1] if yb else 1
    x_axes = (0, *(1 + sa.index(c) for c in free_a + summed))
    y_axes = (*(yt + sb.index(c) for c in summed), *((0,) if jet else ()),
              *(yt + sb.index(c) for c in free_b))
    table = (m, k, jet, points, na, nb)
    blocks = _contract_slots(*table)[0]
    counts = [points * rows * na * partners * nb for _, rows, partners in blocks]
    start, end = sum(counts[:low]), sum(counts[:stop])
    steps, at = [], 0
    for (first, rows, partners), count in zip(blocks[low:stop], counts[low:stop]):
        steps.append(((_ALL, slice(first * na, (first + rows) * na)),
                      (_ALL, _ALL, slice(partners * nb)),
                      slice(at, at + count), (points, rows * na, partners * nb)))
        at += count
    tail = (points,) if xb or yb else ()
    axes = None
    if free_a + free_b != out:
        axes = (0, *(1 + (free_a + free_b).index(c) for c in out), *(len(out) + 1,) * len(tail))
    return (((len(xshape) - 1,) if xb else ()) + x_axes, (xp, n * na, ns),
            ((len(yshape) - 1,) if yb else ()) + y_axes, (yp, ns, (n if jet else 1) * nb),
            tuple(steps), max(end - start, 0), table, slice(start, end), n * na * nb * points,
            (n,) + tuple(size[c] for c in free_a + free_b) + tail, axes, len(out))


@_TABLES
def _contract_slots(m: int, order: int, jet: bool, points: int, na: int, nb: int):
    """The blocks of a `contract` product, each as (first row, rows,
    partners), and the output entry of every term the blocks lay out: by
    block, then by point, row, free-a entry, partner and free-b entry, with
    the output laid out (coefficient, free-a, free-b, point), as int32. A
    constant operand is one block whose rows each have one partner,
    themselves."""
    n = math.comb(m + order, m)
    if jet:
        _, _, lo = _mul_tables(m, order, -1, -1)
        firsts = [math.comb(m + d - 1, m) if d else 0 for d in range(order + 2)]
        blocks = [(firsts[d], firsts[d + 1] - firsts[d], math.comb(m + order - d, m))
                  for d in range(order + 1)]
    else:
        lo, blocks = np.arange(n), [(0, n, 1)]
    entry = np.arange(na * nb).reshape(na, 1, nb)
    parts, at = [], 0
    for _, rows, partners in blocks:
        out_rows = lo[at:at + rows * partners].reshape(rows, 1, partners, 1)
        at += rows * partners
        slot = (out_rows * (na * nb) + entry) * points
        parts.append(_int32((slot + np.arange(points).reshape(-1, 1, 1, 1, 1)).ravel()))
    return tuple(blocks), np.concatenate(parts)


# ---------------------------------------------------------------------------
# Evaluation


class EvalContext(NamedTuple):
    """Base point and truncation order for jet evaluation. The point holds
    one float per variable, or one array per variable for a batch of points
    evaluated in one pass."""

    point: tuple
    order: int = 5


def eval_jet(node: ExprAst, ctx: EvalContext) -> JetValue:
    """Evaluate an AST to the jet of the expression at ctx.point, through a
    `JetProgram` of its own."""
    return JetProgram((node,), len(ctx.point))(ctx.point, ctx.order)[0]


class JetProgram:
    """The jets of expressions in m variables, compiled to a straight-line
    program (the evaluation procedure of Griewank & Walther, Evaluating
    Derivatives, ch. 2). Equal sub-trees, known by type, operands and own
    fields (a float by its hex form, so 0.0 and -0.0 are two), share one
    instruction (value numbering: Aho, Lam, Sethi & Ullman, Compilers, 2nd
    ed., 6.1.2). Slots 0..m-1 hold the point; any other slot takes a new
    value after its last reader. Instructions run post-order, left before
    right, a shared sub-tree at its first use, as a recursive walk would.
    The first call at an order binds each operation at that order. A call
    keeps no jet; sharing one is safe, as no operation writes into an operand."""

    __slots__ = ("m", "steps", "size", "outputs", "operations")

    def __init__(self, roots: Sequence[ExprAst], m: int):
        numbers: dict = {}  # the key of each class of equal sub-trees -> its value
        steps: list = []  # per value from m on: its node and operand values

        def number(node) -> int:
            if isinstance(node, Var):
                if node.index >= m:
                    raise ValueError(
                        f"variable {node.name!r} (index {node.index}) not seeded in context")
                operands = (node.index,)
            elif isinstance(node, Call) and isinstance(node.arg, Var) and node.arg.index < m:
                operands = (node.arg.index,)  # fn of a coordinate, with no seed jet
            else:
                operands = tuple([number(sub) for sub in _subtrees(node)])
            key = (type(node), operands, *[v.hex() if isinstance(v, float) else v
                                           for v in node if not isinstance(v, tuple)])
            value = numbers.get(key)
            if value is None:
                value = numbers[key] = m + len(steps)
                steps.append((node, operands))
            return value

        outputs = [number(root) for root in roots]
        last = {v: k for k, (_, operands) in enumerate(steps) for v in operands}
        last.update(dict.fromkeys(outputs, len(steps)))
        slot_of, free, fresh, self.steps = list(range(m)), [], itertools.count(m), []
        for k, (node, operands) in enumerate(steps):
            free += [slot_of[v] for v in set(operands) if v >= m and last[v] == k]
            slot_of.append(free.pop() if free else next(fresh))
            self.steps.append((node, slot_of[-1], tuple(slot_of[v] for v in operands)))
        self.m, self.size, self.outputs = m, next(fresh), [slot_of[v] for v in outputs]
        self.operations: dict = {}  # per order, one per step; racing threads bind equal ones

    def __call__(self, point: Sequence, order: int) -> list[JetValue]:
        """The jets of the roots at a point (one float per variable), or at a
        batch of points (one array per variable)."""
        operations = self.operations.get(order)
        if operations is None:
            operations = self.operations[order] = [_operation(node, operands, self.m, order)
                                                   for node, _, operands in self.steps]
        slots = [*point, *[None] * (self.size - len(point))]
        for operation, (_, target, operands) in zip(operations, self.steps):
            slots[target] = operation(*[slots[s] for s in operands])
        return [slots[s] for s in self.outputs]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _operation(node: ExprAst, operands: tuple, m: int, order: int) -> Callable:
    """The jet operation of a node on the values in its operand slots, with
    what (m, order, node) fixes bound. Products stay `*`, dispatched at each
    call."""
    if isinstance(node, Num):
        return partial(JetValue.constant, node.value, m, order)
    if isinstance(node, Var):
        return partial(JetValue.variable, node.index, m=m, order=order)
    if isinstance(node, Neg):
        return operator.neg
    if isinstance(node, BinOp):
        return _BINARY[node.op]
    if isinstance(node, Pow):
        exp = node.exponent
        if float(exp).is_integer():
            return operator.methodcaller("ipow", int(exp))
        # a non-integer exponent lowers to exp/log (positive base required)
        return lambda base: (base.compose("log") * exp).compose("exp")
    if isinstance(node, Call):
        if operands[0] >= m:
            return operator.methodcaller("compose", node.fn)
        return _variable_operation(node.fn, node.arg.index, m, order)
    raise TypeError(node)


class _VariableOperation(NamedTuple):
    """fn of the coordinate x_index, with the rows of x_index^k, k = 0..order.
    One per (fn, index, m, order), shared by every step that binds it; it
    reads `_on_variable` from the module at each call."""

    fn: str
    index: int
    m: int
    order: int
    rows: tuple

    def __call__(self, x) -> JetValue:
        return _on_variable(*self, x)


@_TABLES
def _variable_operation(fn: str, index: int, m: int, order: int) -> _VariableOperation:
    rows = _rows(m, order, np.arange(order + 1) * (order + 1) ** (m - 1 - index))
    return _VariableOperation(fn, index, m, order, tuple(rows.tolist()))


def _on_variable(fn: str, index: int, m: int, order: int, rows: tuple, x) -> JetValue:
    """The jet of fn(x_index) at x_index = x: its Taylor series a_k placed on
    `rows`, the rows of the pure powers x_index^k (the Horner composition with
    the variable's unit jet, whose products each copy one coefficient)."""
    value = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)  # as a seed holds it
    coeffs = np.zeros((math.comb(m + order, m),) + np.shape(value))
    for row, a in zip(rows, _series(fn, value, order)):
        coeffs[row] = a
    return JetValue(m, order, coeffs, 0, 1 << index)


def antiderivative_jet(djet: JetValue, var: int, value: float) -> JetValue:
    """Jet of a primitive F with dF/d(var) = djet and F(base) = value, one
    order higher. The integration constant is taken independent of the other
    variables, so this is only exact when the primitive depends on `var`
    alone up to an additive constant (the quadrature-curve use case)."""
    if not 0 <= var < djet.m:
        raise ValueError("variable index out of range")
    m, k = djet.m, djet.order + 1
    src, fac = _deriv_tables(m, k)
    out = np.zeros(math.comb(m + k, m))
    out[0] = value
    out[src[:, var]] = djet.coeffs / fac[:, var]
    return JetValue(m, k, out)
