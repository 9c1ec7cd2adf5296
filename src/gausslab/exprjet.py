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

`pi` and `e` fold to literals at parse time. Supported functions (unary):
sin cos tan cot exp log sqrt asin acos atan sinh cosh tanh.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from functools import lru_cache, wraps
from types import SimpleNamespace
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
    "repeated_subtrees",
    "JetValue",
    "contract",
    "EvalContext",
    "eval_jet",
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


_SUBTREE_FIELDS = ("operand", "left", "right", "base", "arg")


def _subtrees(node: ExprAst) -> list[ExprAst]:
    """The direct sub-trees of a node."""
    return [getattr(node, name) for name in _SUBTREE_FIELDS if hasattr(node, name)]


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


# Bound on the parser's nesting and on the AST depth: deeper input would
# exhaust the recursion of parsing and evaluation. The deepest chart shipped
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
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> ExprAst:
        node = self.unary()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            exp_node = self.unary()
            _check_depth(exp_node, exp_tok.offset)  # before the recursive fold
            try:
                value = _fold_constant(exp_node)
            except (ArithmeticError, ValueError) as exc:
                raise ExpressionError(f"bad constant exponent: {exc}",
                                      exp_tok.offset) from exc
            if value is None:
                raise ExpressionError("exponent must be a constant", exp_tok.offset)
            node = Pow(node, value)
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok.offset)
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            node = Neg(self.unary())
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
                return Call(name, arg)
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


def _fold_constant(node: ExprAst) -> float | None:
    """Value of a variable-free subtree, else None. Raises ArithmeticError or
    ValueError where a constant subtree is not a finite real number."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return None
    if isinstance(node, Neg):
        v = _fold_constant(node.operand)
        return None if v is None else -v
    if isinstance(node, BinOp):
        a = _fold_constant(node.left)
        b = _fold_constant(node.right)
        if a is None or b is None:
            return None
        if node.op == "+":
            value = a + b
        elif node.op == "-":
            value = a - b
        elif node.op == "*":
            value = a * b
        else:
            value = a / b
    elif isinstance(node, Pow):
        v = _fold_constant(node.base)
        if v is None:
            return None
        value = v ** node.exponent
    elif isinstance(node, Call):
        v = _fold_constant(node.arg)
        if v is None:
            return None
        value = (math.cos(v) / math.sin(v) if node.fn == "cot"
                 else getattr(math, node.fn)(v))
    else:
        raise TypeError(node)
    # a negative base to a fractional power gives a complex number
    if not isinstance(value, float) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite real number")
    return value


def parse_expression(source: str, variables: tuple[str, ...] | list[str]) -> ExprAst:
    """Parse `source` over the given variable names; raises ExpressionError,
    also for an expression nested deeper than _MAX_DEPTH levels."""
    return _Parser(source, tuple(variables)).parse()


def shift_variables(node: ExprAst, offset: int, names: tuple[str, ...]) -> ExprAst:
    """Reindex variables by `offset` into a new name tuple (chart rebasing)."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Var):
        idx = node.index + offset
        return Var(idx, names[idx])
    if isinstance(node, Neg):
        return Neg(shift_variables(node.operand, offset, names))
    if isinstance(node, BinOp):
        return BinOp(node.op,
                     shift_variables(node.left, offset, names),
                     shift_variables(node.right, offset, names))
    if isinstance(node, Pow):
        return Pow(shift_variables(node.base, offset, names), node.exponent)
    if isinstance(node, Call):
        return Call(node.fn, shift_variables(node.arg, offset, names))
    raise TypeError(node)


def repeated_subtrees(roots: Sequence[ExprAst]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The sub-trees of the expressions `roots` that an evaluation reaches
    more than once, each as the number of times and the ids of its equal
    copies. A sub-tree is reached once per root it is and once per place
    it holds in each unequal parent; a sub-tree met only inside one repeated
    sub-tree is reached once, through it. A number is known by its hex form,
    so 0.0 and -0.0 are two sub-trees."""
    classes: dict = {}  # a class of equal sub-trees by its key
    below: list[tuple[int, ...]] = []  # per class, the classes of its sub-trees
    met: list[ExprAst] = []  # every node, and its class at the same place
    met_class: list[int] = []
    reached = Counter(_classify(root, classes, below, met, met_class) for root in roots)
    for subs in below:
        reached.update(subs)
    copies: dict[int, list[int]] = {}
    for node, c in zip(met, met_class):
        if reached[c] > 1:
            copies.setdefault(c, []).append(id(node))
    return tuple((reached[c], tuple(ids)) for c, ids in copies.items())


def _classify(node: ExprAst, classes: dict, below: list, met: list, met_class: list) -> int:
    """The class of `node` among equal sub-trees, known by its type, the
    classes of its sub-trees and its own fields."""
    subs = tuple(_classify(sub, classes, below, met, met_class) for sub in _subtrees(node))
    own = (getattr(node, name) for name in _own_fields(type(node)))
    key = (type(node), subs, *(v.hex() if isinstance(v, float) else v for v in own))
    c = classes.setdefault(key, len(below))
    if c == len(below):
        below.append(subs)
    met.append(node)
    met_class.append(c)
    return c


@lru_cache(maxsize=None)
def _own_fields(cls: type) -> tuple[str, ...]:
    """The fields of a node type that hold no sub-tree."""
    return tuple(name for name in cls._fields if name not in _SUBTREE_FIELDS)


# ---------------------------------------------------------------------------
# Multi-index bookkeeping (dense graded-lex layout, cached per (m, order))


class _TableCache:
    """A decorator that keeps the tables its functions build, by function
    and arguments (omitted ones read as their defaults), and drops the least
    recently used while their bytes exceed `budget` (the newest is always
    kept)."""

    def __init__(self, budget: int):
        self.budget = budget
        self.bytes = 0
        self.entries: OrderedDict = OrderedDict()  # key -> (tables, bytes)

    def __call__(self, build):
        defaults, arity = build.__defaults__ or (), build.__code__.co_argcount

        @wraps(build)
        def cached(*args):
            args += defaults[len(args) + len(defaults) - arity:]
            key = (build.__name__,) + args
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry[0]
            value = build(*args)
            size = sum(getattr(v, "nbytes", 0)
                       for v in (value if isinstance(value, tuple) else (value,)))
            self.entries[key] = (value, size)
            self.bytes += size
            while self.bytes > self.budget and len(self.entries) > 1:
                self.bytes -= self.entries.popitem(last=False)[1][1]
            return value
        return cached


# The tables share one budget. The tables one residual reads at dimension
# 12, the largest in the catalog, take 11.3 MiB together, so a sweep over
# dimensions keeps about one high dimension's tables, not those of every
# dimension it met, and the tables of all the dimensions up to 8 fit at once.
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


def _rows(m: int, order: int, keys) -> np.ndarray:
    """Rows of the jet layout holding the multi-indices with these keys."""
    _, _, lex_keys, rows = _exponents(m, order)
    return rows[np.searchsorted(lex_keys, keys)]


@_TABLES
def _mul_tables(m: int, order: int, va: int = -1, vb: int = -1):
    """Every pair (i, j) of coefficients whose product lands at or below
    `order`, with i in the rows of the variable mask `va` and j in those of
    `vb` (the multi-indices with no exponent outside the mask), i-major, and
    the row lo of each product. A mask of -1 holds every variable, so the
    default is the dense table; `_pair_sum` sets the bits past the m
    variables, so that a mask of all of them keys it too."""
    table, keys, _, _ = _exponents(m, order)
    degree = table.sum(axis=1)
    ra, rb = np.flatnonzero(_in_support(table, va)), np.flatnonzero(_in_support(table, vb))
    # the partners of a degree-d row are the rows of degree <= order - d: a
    # prefix of the graded layout, and of the rows of a mask
    partners = np.searchsorted(degree[rb], order - degree[ra], side="right")
    li = np.repeat(ra, partners)
    lj = rb[np.arange(len(li)) - np.repeat(np.cumsum(partners) - partners, partners)]
    return li, lj, _rows(m, order, keys[li] + keys[lj])


def _in_support(table: np.ndarray, support: int) -> np.ndarray:
    """Which rows of the exponent table have no exponent outside the
    variables of the mask `support`."""
    outside = [i for i in range(table.shape[1]) if not support >> i & 1]
    return ~table[:, outside].any(axis=1)


@_TABLES
def _pair_slots(m: int, order: int, va: int, vb: int, size: int):
    """The output entry of every term of an entrywise product on the pairs
    of `_mul_tables(m, order, va, vb)` with `size` entries per coefficient:
    by pair, then entry, with the output laid out (coefficient, entry)."""
    lo = _mul_tables(m, order, va, vb)[2]
    return (lo[:, None] * size + np.arange(size)).ravel()


@_TABLES
def _deriv_tables(m: int, order: int, var: int):
    """Maps an order-k jet to the order-(k-1) jet of its `var` partial: the
    source coefficient and factor of each lowered coefficient, in order. The
    order-(k-1) layout is a prefix of the order-k one, and raising the `var`
    exponent shifts a key by (order + 1)^(m - 1 - var)."""
    table, keys, _, _ = _exponents(m, order)
    lowered = math.comb(m + order - 1, m)
    src = _rows(m, order, keys[:lowered] + (order + 1) ** (m - 1 - var))
    return src, (table[:lowered, var] + 1).astype(np.float64)


# ---------------------------------------------------------------------------
# Univariate Taylor coefficient recurrences at a point


def _poly_div(a: list, b: list, n: int) -> list:
    if np.any(b[0] == 0.0):
        raise DomainError("division by zero constant term")
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        acc = a[k] if k < len(a) else 0.0
        for j in range(k):
            acc = acc - out[j] * (b[k - j] if k - j < len(b) else 0.0)
        out[k] = acc / b[0]
    return out

def _poly_pow(s: list, a: float, n: int) -> list:
    if np.any(s[0] <= 0.0):
        raise DomainError("fractional power of non-positive value")
    out = [0.0] * (n + 1)
    out[0] = s[0] ** a
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            sj = s[j] if j < len(s) else 0.0
            acc = acc + (a * j - (k - j)) * sj * out[k - j]
        out[k] = acc / (k * s[0])
    return out


# elementary functions of an array of base values, one value per point
_ARRAY_FUNCTIONS = SimpleNamespace(
    exp=np.exp, log=np.log, sin=np.sin, cos=np.cos, sinh=np.sinh, cosh=np.cosh,
    atan=np.arctan, asin=np.arcsin, acos=np.arccos)


def _series(fn: str, c, n: int, h=1.0) -> list:
    """Taylor coefficients a_j h^j = fn^(j)(c) h^j / j! for j = 0..n, those of
    t -> fn(c + h t). The base value c is a float (math functions) or an
    array of per-point values (numpy functions), and h is a float or one per
    value; a value that is not finite raises DomainError."""
    if isinstance(c, float):
        if not math.isfinite(c):
            raise DomainError(f"{fn} of a value that is not finite")
        try:
            return _series_of(fn, c, n, math, h)
        except OverflowError:
            raise DomainError(f"{fn}({c!r}) is not finite") from None
    if not np.isfinite(c).all():
        raise DomainError(f"{fn} of a value that is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        v = _series_of(fn, c, n, _ARRAY_FUNCTIONS, h)
    if not np.isfinite(v[0]).all():
        raise DomainError(f"{fn} is not finite at some point")
    return v


def _series_of(fn: str, c, n: int, lib, h) -> list:
    """The series of `_series`. With h a power of two, each a_j h^j is
    a_j scaled exactly, as h enters every recurrence as one factor."""
    if fn == "exp":
        v = [lib.exp(c)]
        for k in range(1, n + 1):
            v.append(v[k - 1] * h / k)
        return v
    if fn == "log":
        if np.any(c <= 0.0):
            raise DomainError("log of non-positive value")
        v = [lib.log(c), h / c]
        for k in range(2, n + 1):
            v.append(-(k - 1) * v[k - 1] * h / (k * c))
        return v[: n + 1]
    if fn == "sqrt":
        if np.any(c <= 0.0):
            raise DomainError("sqrt of non-positive value")
        return _poly_pow([c, h], 0.5, n)
    if fn in ("sin", "cos"):
        s, co = [lib.sin(c)], [lib.cos(c)]
        for k in range(1, n + 1):
            s.append(co[k - 1] * h / k)
            co.append(-s[k - 1] * h / k)
        return s if fn == "sin" else co
    if fn in ("sinh", "cosh"):
        s, co = [lib.sinh(c)], [lib.cosh(c)]
        for k in range(1, n + 1):
            s.append(co[k - 1] * h / k)
            co.append(s[k - 1] * h / k)
        return s if fn == "sinh" else co
    if fn == "tan":
        return _poly_div(_series_of("sin", c, n, lib, h), _series_of("cos", c, n, lib, h), n)
    if fn == "cot":
        return _poly_div(_series_of("cos", c, n, lib, h), _series_of("sin", c, n, lib, h), n)
    if fn == "tanh":
        return _poly_div(_series_of("sinh", c, n, lib, h), _series_of("cosh", c, n, lib, h),
                         n)
    if fn == "atan":
        w = [1.0 + c * c, 2.0 * c * h, h * h]
        g = _poly_div([1.0], w, max(n - 1, 0))
        v = [lib.atan(c)]
        for k in range(1, n + 1):
            v.append(g[k - 1] * h / k)
        return v
    if fn in ("asin", "acos"):
        if np.any(abs(c) >= 1.0):
            raise DomainError(f"{fn} outside (-1, 1)")
        w = _poly_pow([1.0 - c * c, -2.0 * c * h, -h * h], 0.5, max(n - 1, 0))
        g = _poly_div([1.0], w, max(n - 1, 0))
        sign = 1.0 if fn == "asin" else -1.0
        v = [lib.asin(c) if fn == "asin" else lib.acos(c)]
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
    """

    __slots__ = ("m", "order", "coeffs", "rank", "support")
    __array_ufunc__ = None  # ndarray <op> jet defers to the jet's operator

    def __init__(self, m: int, order: int, coeffs: np.ndarray, rank: int = 0,
                 support: int = -1):
        self.m = m
        self.order = order
        self.coeffs = coeffs
        self.rank = rank
        self.support = support

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
        src, fac = _deriv_tables(self.m, self.order, var)
        c = self.coeffs[src]
        return JetValue(self.m, self.order - 1,
                        c * fac.reshape(fac.shape + (1,) * (c.ndim - 1)), self.rank,
                        self.support)

    def gradient(self) -> "JetValue":
        """Jet of all first partials, one order lower and one rank higher:
        gradient()[i] is derivative(i)."""
        return JetValue(self.m, self.order - 1,
                        np.stack([self.derivative(i).coeffs for i in range(self.m)], axis=1),
                        self.rank + 1)

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
            if np.any(other == 0.0):
                raise DomainError("division by zero constant")
            c, v = self._against(other)
            return JetValue(self.m, self.order, c / v, self.rank, self.support)
        if other.order > self.order:
            other = other.truncate(self.order)
        if np.any(other.value == 0.0):
            raise DomainError("division by zero constant term")
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        if np.any(self.value == 0.0):
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
    if size.ndim:
        return np.ldexp(1.0, np.frexp(size)[1] - 1)
    return math.ldexp(1.0, math.frexp(size)[1] - 1)


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


def _laid_out(c: np.ndarray, batched: bool, axes: list, shape: tuple) -> np.ndarray:
    """A contiguous copy of the array c with its point axis first (of size 1
    where it has none) and then its axes `axes`, reshaped to `shape` after
    the point axis."""
    moved = c.transpose([c.ndim - 1] + axes if batched else axes)
    return np.ascontiguousarray(moved).reshape((c.shape[-1] if batched else 1,) + shape)


@lru_cache(maxsize=64)
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
    laid out once, as (point, coefficient, free-a, summed) and (point,
    summed, coefficient, free-b) with every summed axis folded into one, so
    that each block is one matrix product per point. The products fill one
    buffer, and one bincount adds every term into its output entry, block
    after block, so that each output entry sums its pairs in table order. A
    constant B is one block with a single partner."""
    sa, sb, out, free_a, free_b, summed = _spec_axes(spec)
    jet = isinstance(b, JetValue)
    k, x, y = a._truncated(b) if jet else (a.order, a.coeffs, np.asarray(b, dtype=float))
    yt = 1 if jet else 0  # the first tensor axis of y
    xb, yb = x.ndim > 1 + len(sa), y.ndim > yt + len(sb)
    points = x.shape[-1] if xb else y.shape[-1] if yb else 1
    size = dict(zip(sa, x.shape[1:]))
    size.update(zip(sb, y.shape[yt:]))
    na = math.prod(size[c] for c in free_a)
    nb = math.prod(size[c] for c in free_b)
    ns = math.prod(size[c] for c in summed)
    n = len(x)
    X = _laid_out(x, xb, [0] + [1 + sa.index(c) for c in free_a + summed], (n, na, ns))
    Y = _laid_out(y, yb, [yt + sb.index(c) for c in summed] + ([0] if jet else [])
                  + [yt + sb.index(c) for c in free_b], (ns, n if jet else 1, nb))
    blocks, slots = _contract_slots(a.m, k, jet, points, na, nb)
    terms = np.empty(len(slots))
    at = 0
    for first, rows, partners in blocks:
        stop = at + points * rows * na * partners * nb
        np.matmul(X[:, first:first + rows].reshape(len(X), rows * na, ns),
                  Y[:, :, :partners].reshape(len(Y), ns, partners * nb),
                  out=terms[at:stop].reshape(points, rows * na, partners * nb))
        at = stop
    tail = (points,) if xb or yb else ()
    total = np.bincount(slots, weights=terms, minlength=n * na * nb * points).reshape(
        (n,) + tuple(size[c] for c in free_a + free_b) + tail)
    if free_a + free_b != out:
        axes = [0] + [1 + (free_a + free_b).index(c) for c in out] + [len(out) + 1] * len(tail)
        total = np.ascontiguousarray(total.transpose(axes))
    return JetValue(a.m, k, total, len(out))


@_TABLES
def _contract_slots(m: int, order: int, jet: bool, points: int, na: int, nb: int):
    """The blocks of a `contract` product, each as (first row, rows,
    partners), and the output entry of every term the blocks lay out: by
    block, then by point, row, free-a entry, partner and free-b entry, with
    the output laid out (coefficient, free-a, free-b, point). A constant
    operand is one block whose rows each have one partner, themselves."""
    n = math.comb(m + order, m)
    if jet:
        _, _, lo = _mul_tables(m, order)
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
        parts.append((slot + np.arange(points).reshape(-1, 1, 1, 1, 1)).ravel())
    return tuple(blocks), np.concatenate(parts)


# ---------------------------------------------------------------------------
# Evaluation


class EvalContext(NamedTuple):
    """Base point and truncation order for jet evaluation. The point holds
    one float per variable, or one array per variable for a batch of points
    evaluated in one pass."""

    point: tuple
    order: int = 5

    @property
    def dim(self) -> int:
        return len(self.point)

    def seed(self, index: int) -> JetValue:
        return JetValue.variable(index, self.point[index], self.dim, self.order)


def eval_jet(node: ExprAst, ctx: EvalContext, memo: dict | None = None) -> JetValue:
    """Evaluate an AST to the jet of the expression at ctx.point. `memo`
    maps the ids of the copies of each sub-tree that is reached more than
    once (`repeated_subtrees`) to one list [uses left] per sub-tree: the
    first use evaluates the sub-tree and keeps its jet there, later uses
    read it, and the last one drops it. Sharing a jet is safe as no
    operation writes into an operand."""
    cell = memo.get(id(node)) if memo else None
    if cell is None:
        return _eval_node(node, ctx, memo)
    if len(cell) == 1:
        cell.append(_eval_node(node, ctx, memo))
    cell[0] -= 1
    return cell[1] if cell[0] else cell.pop()


def _eval_node(node: ExprAst, ctx: EvalContext, memo: dict | None) -> JetValue:
    if isinstance(node, Num):
        return JetValue.constant(node.value, ctx.dim, ctx.order)
    if isinstance(node, Var):
        if node.index >= ctx.dim:
            raise ValueError(
                f"variable {node.name!r} (index {node.index}) not seeded in context")
        return ctx.seed(node.index)
    if isinstance(node, Neg):
        return -eval_jet(node.operand, ctx, memo)
    if isinstance(node, BinOp):
        left = eval_jet(node.left, ctx, memo)
        right = eval_jet(node.right, ctx, memo)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        base = eval_jet(node.base, ctx, memo)
        exp = node.exponent
        if float(exp).is_integer():
            return base.ipow(int(exp))
        # non-integer exponent lowers to exp/log (positive base required)
        return (base.compose("log") * exp).compose("exp")
    if isinstance(node, Call):
        if isinstance(node.arg, Var) and node.arg.index < ctx.dim:
            return _on_variable(node.fn, node.arg.index, ctx)
        return eval_jet(node.arg, ctx, memo).compose(node.fn)
    raise TypeError(node)


def _on_variable(fn: str, index: int, ctx: EvalContext) -> JetValue:
    """The jet of fn(x_index): its Taylor series a_k placed on the rows of
    the pure powers x_index^k. This is the Horner composition with w the
    variable's unit jet, whose products each copy one coefficient."""
    m, n = ctx.dim, ctx.order
    value = ctx.seed(index).value  # the base value as the seed jet holds it
    series = _series(fn, value, n)
    coeffs = np.zeros((math.comb(m + n, m),) + np.shape(value))
    rows = _rows(m, n, np.arange(n + 1) * (n + 1) ** (m - 1 - index))
    for row, a in zip(rows, series):
        coeffs[row] = a
    return JetValue(m, n, coeffs, 0, 1 << index)


def antiderivative_jet(djet: JetValue, var: int, value: float) -> JetValue:
    """Jet of a primitive F with dF/d(var) = djet and F(base) = value, one
    order higher. The integration constant is taken independent of the other
    variables, so this is only exact when the primitive depends on `var`
    alone up to an additive constant (the quadrature-curve use case)."""
    if not 0 <= var < djet.m:
        raise ValueError("variable index out of range")
    m, k = djet.m, djet.order + 1
    src, fac = _deriv_tables(m, k, var)
    out = np.zeros(math.comb(m + k, m))
    out[0] = value
    out[src] = djet.coeffs / fac
    return JetValue(m, k, out)
