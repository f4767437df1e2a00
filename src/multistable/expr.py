"""Arithmetic expression DSL for model functions of the time variable ``t``.

Configuration files define the stability index, the Hurst function and the
scale function as strings like ``"1.5+0.3*sin(2*pi*t)"``.  This module
tokenizes, parses, evaluates and pretty-prints those expressions.

Grammar, in decreasing binding power:

    ``^`` (right associative)  >  unary ``-``  >  ``* /``  >  binary ``+ -``

so ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  The function set is
closed: sin, cos, exp, log, abs, sqrt, min, max, pow.  ``pi`` and ``e`` are
the only named constants and ``t`` the only variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

__all__ = [
    "ExprError",
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprAst",
    "FuncSpec",
    "parse_expr",
    "eval_expr",
    "to_source",
    "validate_range",
    "RangeReport",
]


class ExprError(ValueError):
    """Base class for everything this module raises."""


class ParseError(ExprError):
    """Syntax error, unknown identifier or wrong arity; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Domain error or non-finite result during evaluation."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["ExprAst", ...]


ExprAst = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    offset: int
    value: float = 0.0


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                seen_dot = seen_dot or source[j] == "."
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", source[i:j], i, float(source[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Pratt parser

_BP_ADD = 10
_BP_MUL = 20
_BP_NEG = 25
_BP_POW = 30

_MAX_DEPTH = 100  # evaluation and printing recurse over the AST


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def deeper(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels",
                             self.peek().offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.offset)
        self.advance()

    def parse(self, min_bp: int = 0) -> ExprAst:
        entry = self.depth
        self.deeper()
        node = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in "+-*/^":
                break
            bp = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL,
                  "/": _BP_MUL, "^": _BP_POW}[tok.text]
            if bp < min_bp:
                break
            self.advance()
            self.deeper()  # node moves one level down the tree
            # right associativity for ^ only
            right = self.parse(bp if tok.text == "^" else bp + 1)
            node = BinOp(tok.text, node, right)
        self.depth = entry
        return node

    def parse_prefix(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            return Num(tok.value)
        if tok.kind == "name":
            if tok.text == "t":
                return Var()
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse(0)]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse(0))
                self.expect_op(")")
                if len(args) != _FUNCTIONS[tok.text]:
                    raise ParseError(
                        f"{tok.text} takes {_FUNCTIONS[tok.text]} argument(s), "
                        f"got {len(args)}", tok.offset)
                return Call(tok.text, tuple(args))
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "op":
            if tok.text == "-":
                return Neg(self.parse(_BP_NEG))
            if tok.text == "+":
                return self.parse(_BP_NEG)
            if tok.text == "(":
                node = self.parse(0)
                self.expect_op(")")
                return node
        raise ParseError("expected a value", tok.offset)


def parse_expr(source: str) -> ExprAst:
    """Parse ``source`` into an AST; raise :class:`ParseError` with offset."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# ---------------------------------------------------------------------------
# evaluation


def _power(base: float, exponent: float) -> float:
    if base < 0.0 and exponent != math.floor(exponent):
        raise EvalError(
            f"fractional power of negative base: {base!r}^{exponent!r}")
    if base == 0.0 and exponent < 0.0:
        raise EvalError("zero raised to a negative power")
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power failed: {base!r}^{exponent!r}: {exc}") from exc


def eval_expr(ast: ExprAst, t: float) -> float:
    """Evaluate ``ast`` at ``t``; any non-finite value raises :class:`EvalError`."""
    value = _eval(ast, float(t))
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r} at t={t!r}")
    return value


def _eval(ast: ExprAst, t: float) -> float:
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        return t
    if isinstance(ast, Neg):
        return -_eval(ast.child, t)
    if isinstance(ast, BinOp):
        a = _eval(ast.left, t)
        b = _eval(ast.right, t)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        return _power(a, b)
    # Call
    args = [_eval(child, t) for child in ast.args]
    name = ast.name
    try:
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
    except ValueError as exc:  # an infinite argument
        raise EvalError(f"{name} of {args[0]!r}") from exc
    if name == "exp":
        try:
            return math.exp(args[0])
        except OverflowError as exc:
            raise EvalError(f"exp overflow at {args[0]!r}") from exc
    if name == "log":
        if args[0] <= 0.0:
            raise EvalError(f"log of non-positive value {args[0]!r}")
        return math.log(args[0])
    if name == "abs":
        return abs(args[0])
    if name == "sqrt":
        if args[0] < 0.0:
            raise EvalError(f"sqrt of negative value {args[0]!r}")
        return math.sqrt(args[0])
    if name == "min":
        return min(args)
    if name == "max":
        return max(args)
    return _power(args[0], args[1])  # pow


# ---------------------------------------------------------------------------
# printing

def _prec(ast: ExprAst) -> int:
    if isinstance(ast, BinOp):
        return {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL,
                "/": _BP_MUL, "^": _BP_POW}[ast.op]
    if isinstance(ast, Neg):
        return _BP_NEG
    if isinstance(ast, Num) and (ast.value < 0.0 or math.copysign(1.0, ast.value) < 0):
        return _BP_NEG  # prints with a leading minus sign
    return 100


def to_source(ast: ExprAst) -> str:
    """Render an AST back to parseable text (round-trips exactly)."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return "t"
    if isinstance(ast, Neg):
        inner = to_source(ast.child)
        if _prec(ast.child) < _BP_NEG or isinstance(ast.child, Neg):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(ast, BinOp):
        lhs, rhs = to_source(ast.left), to_source(ast.right)
        p = _prec(ast)
        # left operand: parenthesize below own precedence (right-assoc ^ also
        # needs parens on an equal-precedence left child)
        if _prec(ast.left) < p or (ast.op == "^" and _prec(ast.left) == p):
            lhs = f"({lhs})"
        if _prec(ast.right) < p or (ast.op != "^" and _prec(ast.right) == p):
            rhs = f"({rhs})"
        return f"{lhs}{ast.op}{rhs}"
    return f"{ast.name}({','.join(to_source(a) for a in ast.args)})"


# ---------------------------------------------------------------------------
# model-function wrapper


@dataclass(frozen=True)
class FuncSpec:
    """A parsed model function with its declared domain interval."""

    source: str
    ast: ExprAst
    domain: tuple[float, float]

    def __call__(self, t: float) -> float:
        return eval_expr(self.ast, t)

    @classmethod
    def parse(cls, source: str, domain: tuple[float, float]) -> "FuncSpec":
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ExprError(f"empty domain ({lo}, {hi})")
        return cls(source=source, ast=parse_expr(source), domain=(lo, hi))

    @cached_property
    def grid_values(self) -> tuple[float, ...]:
        """Values on a uniform 257-point grid over the domain, evaluated
        once; raises :class:`EvalError` naming the grid point where
        evaluation fails."""
        n, (a, b) = 257, self.domain
        values = []
        for k in range(n):
            t = a + (b - a) * k / (n - 1)
            try:
                values.append(eval_expr(self.ast, t))
            except EvalError as exc:
                raise EvalError(f"evaluation failed at grid point t={t!r}: "
                                f"{exc}") from exc
        return tuple(values)


@dataclass(frozen=True)
class RangeReport:
    ok: bool
    vmin: float
    vmax: float


def validate_range(fs: FuncSpec, lo: float, hi: float) -> RangeReport:
    """Check the values of ``fs`` on its domain grid against [lo, hi];
    raises :class:`EvalError` naming the grid point where evaluation fails."""
    vmin, vmax = min(fs.grid_values), max(fs.grid_values)
    return RangeReport(ok=(lo <= vmin and vmax <= hi), vmin=vmin, vmax=vmax)
