"""Arithmetic expression DSL for model functions of the time variable ``t``.

Configuration files define the stability index, the Hurst function and the
scale function as strings like ``"1.5+0.3*sin(2*pi*t)"``.  This module
tokenizes and parses those expressions, and compiles each parsed tree
once into nested Python closures, one per node, that a run then calls.

Grammar, in decreasing binding power:

    ``^`` (right associative)  >  unary ``-``  >  ``* /``  >  binary ``+ -``

so ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  One table holds
the binary operators (``_BINARY``) and one the closed function set
(``_FUNCTIONS``); the tokenizer, the parser and the compiled closures all
read them.  ``pi`` and ``e`` are the only named constants and ``t`` the only
variable.  Digits and names are ASCII.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence, Union

import numpy as np

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
    op: str  # a key of _BINARY
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["ExprAst", ...]


ExprAst = Union[Num, Var, Neg, BinOp, Call]

# ---------------------------------------------------------------------------
# grammar tables: every operator and function, with its evaluation


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _power(base: float, exponent: float) -> float:
    # is_integer is False for an infinite or NaN exponent as well
    if base < 0.0 and not exponent.is_integer():
        raise EvalError(
            f"fractional power of negative base: {base!r}^{exponent!r}")
    if base == 0.0 and exponent < 0.0:
        raise EvalError("zero raised to a negative power")
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power failed: {base!r}^{exponent!r}: {exc}") from exc


def _trig(fn):
    def guarded(x: float) -> float:
        try:
            return fn(x)
        except ValueError as exc:  # an infinite argument
            raise EvalError(f"{fn.__name__} of {x!r}") from exc
    return guarded


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise EvalError(f"exp overflow at {x!r}") from exc


def _log(x: float) -> float:
    if x <= 0.0:  # a NaN argument passes through, as in math.log
        raise EvalError(f"log of non-positive value {x!r}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise EvalError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


# operator -> (binding power, right associative, function)
_BINARY = {
    "+": (10, False, operator.add),
    "-": (10, False, operator.sub),
    "*": (20, False, operator.mul),
    "/": (20, False, _divide),
    "^": (30, True, _power),
}
_BP_NEG = 25  # unary minus: below ^, above * and /

# name -> (arity, function)
_FUNCTIONS = {
    "sin": (1, _trig(math.sin)),
    "cos": (1, _trig(math.cos)),
    "exp": (1, _exp),
    "log": (1, _log),
    "abs": (1, abs),
    "sqrt": (1, _sqrt),
    "min": (2, min),
    "max": (2, max),
    "pow": (2, _power),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# tokenizer

# digits and names are ASCII; whitespace is any Unicode space
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<op>[{re.escape(''.join(_BINARY))}(),])"
    r"|(?P<bad>\S))")


_Token = namedtuple("_Token", "kind text offset")  # kind: num|name|op|end


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    # every character matches but trailing whitespace
    for m in _TOKEN.finditer(source):
        kind, offset = m.lastgroup, m.start(m.lastgroup)
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", offset)
        tokens.append(_Token(kind, m[kind], offset))
    tokens.append(_Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Pratt parser

_MAX_DEPTH = 100  # compilation and the compiled closures recurse over the AST


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
        if tok.text != text:  # only an op token has the text of an op
            raise ParseError(f"expected {text!r}", tok.offset)
        self.advance()

    def parse(self, min_bp: int = 0) -> ExprAst:
        entry = self.depth
        self.deeper()
        node = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.text not in _BINARY or _BINARY[tok.text][0] < min_bp:
                break
            bp, right_assoc, _ = _BINARY[tok.text]
            self.advance()
            self.deeper()  # node moves one level down the tree
            right = self.parse(bp if right_assoc else bp + 1)
            node = BinOp(tok.text, node, right)
        self.depth = entry
        return node

    def parse_prefix(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "t":
                return Var()
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text])
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse(0)]
                while self.peek().text == ",":
                    self.advance()
                    args.append(self.parse(0))
                self.expect_op(")")
                arity = _FUNCTIONS[tok.text][0]
                if len(args) != arity:
                    raise ParseError(f"{tok.text} takes {arity} argument(s), "
                                     f"got {len(args)}", tok.offset)
                return Call(tok.text, tuple(args))
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
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
# compilation


def _compile_node(ast: ExprAst) -> Callable[[float], float]:
    """One closure per node, applying the node's table function to its
    children's values, left before right."""
    if isinstance(ast, Num):
        value = ast.value
        return lambda t: value
    if isinstance(ast, Var):
        return lambda t: t
    if isinstance(ast, Neg):
        child = _compile_node(ast.child)
        return lambda t: -child(t)
    if isinstance(ast, BinOp):
        fn = _BINARY[ast.op][2]
        left, right = _compile_node(ast.left), _compile_node(ast.right)
        return lambda t: fn(left(t), right(t))
    fn = _FUNCTIONS[ast.name][1]
    if len(ast.args) == 1:
        arg = _compile_node(ast.args[0])
        return lambda t: fn(arg(t))
    first, second = map(_compile_node, ast.args)  # every other arity is 2
    return lambda t: fn(first(t), second(t))


def _compile(ast: ExprAst) -> Callable[[float], float]:
    """``ast`` as a function of ``t``; any non-finite value raises
    :class:`EvalError`."""
    node = _compile_node(ast)

    def evaluate(t: float) -> float:
        value = node(float(t))
        if not math.isfinite(value):
            raise EvalError(f"non-finite result {value!r} at t={t!r}")
        return value

    return evaluate


def eval_expr(ast: ExprAst, t: float) -> float:
    """Evaluate ``ast`` at ``t``; any non-finite value raises :class:`EvalError`."""
    return _compile(ast)(t)


# ---------------------------------------------------------------------------
# model-function wrapper


@dataclass(frozen=True)
class FuncSpec:
    """A parsed model function with its declared domain interval and the
    times a run evaluates it at besides the domain grid."""

    source: str
    ast: ExprAst
    domain: tuple[float, float]
    # an array, so it takes no part in == and hash
    times: np.ndarray = field(default_factory=lambda: np.empty(0),
                              compare=False, repr=False)
    # compiled once here, not on first use: runs call it from several threads
    compiled: Callable[[float], float] = field(init=False, compare=False,
                                               repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", _compile(self.ast))

    def __call__(self, t: float) -> float:
        return self.compiled(t)

    @classmethod
    def parse(cls, source: str, domain: tuple[float, float],
              times: Sequence[float] = ()) -> "FuncSpec":
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ExprError(f"empty domain ({lo}, {hi})")
        return cls(source=source, ast=parse_expr(source), domain=(lo, hi),
                   times=np.asarray(times, dtype=float))

    @cached_property
    def grid_values(self) -> np.ndarray:
        """Values on a uniform 257-point grid over the domain, then at the
        run's times, evaluated once into one float array; raises
        :class:`EvalError` naming the time where evaluation fails."""
        n, (a, b) = 257, self.domain
        grid = [a + (b - a) * k / (n - 1) for k in range(n)]
        values = np.empty(n + self.times.shape[0])
        for i, t in enumerate(itertools.chain(grid, map(float, self.times))):
            try:
                values[i] = self.compiled(t)
            except EvalError as exc:
                raise EvalError(f"evaluation failed at t={t!r}: "
                                f"{exc}") from exc
        return values
