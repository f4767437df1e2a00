"""Arithmetic expression DSL for model functions of the time variable ``t``.

Configuration files define the stability index, the Hurst function and the
scale function as strings like ``"1.5+0.3*sin(2*pi*t)"``.  This module
tokenizes and parses those expressions, and compiles each parsed tree
once into one Python function, kept on the tree, which a run then calls:
``+``, ``-``, ``*`` and unary minus are written inline, and every other
node calls its guarded table function.  A :class:`FuncSpec` is the
source, its tree and that function; ``ProcessSpec.at`` reads its values,
with the model rules checked, at the times a run evaluates.

Grammar, in decreasing binding power:

    ``^`` (right associative)  >  unary ``-``  >  ``* /``  >  binary ``+ -``

so ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  One table holds
the binary operators (``_BINARY``) and one the closed function set
(``_FUNCTIONS``); the tokenizer, the parser and the compiled functions all
read them.  ``pi`` and ``e`` are the only named constants and ``t`` the only
variable.  Digits and names are ASCII.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Union

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

# the most levels of nesting, parentheses included, and so the highest tree:
# compilation recurses over the tree, and the compiled function nests one
# Python expression per level, which compile() must accept
_MAX_DEPTH = 100


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

    def parse(self, min_bp: int = 0) -> tuple[ExprAst, int]:
        """The next expression and its tree's height.  Parsing at depth d
        returns a height of at most _MAX_DEPTH - d."""
        entry = self.depth
        self.deeper()
        node, height = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.text not in _BINARY or _BINARY[tok.text][0] < min_bp:
                break
            bp, right_assoc, _ = _BINARY[tok.text]
            self.advance()
            # node, of its height, moves one level down the tree
            self.depth = entry + height
            self.deeper()
            right, right_height = self.parse(bp if right_assoc else bp + 1)
            node = BinOp(tok.text, node, right)
            height = 1 + max(height, right_height)
        self.depth = entry
        return node, height

    def parse_prefix(self) -> tuple[ExprAst, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "name":
            if tok.text == "t":
                return Var(), 1
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text]), 1
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
                nodes, heights = zip(*args)
                return Call(tok.text, nodes), 1 + max(heights)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.text == "-":
            child, height = self.parse(_BP_NEG)
            return Neg(child), 1 + height
        if tok.text == "+":
            return self.parse(_BP_NEG)
        if tok.text == "(":
            inner = self.parse(0)
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", tok.offset)


def parse_expr(source: str) -> ExprAst:
    """Parse ``source`` into an AST; raise :class:`ParseError` with offset."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node, _ = parser.parse(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return node


# ---------------------------------------------------------------------------
# compilation


# the operators a compiled function writes inline, by table function: on
# floats each is the same IEEE operation; the rest call their function
_INLINE = {operator.add: "+", operator.sub: "-", operator.mul: "*"}


def _non_finite(value: float, t) -> None:
    raise EvalError(f"non-finite result {value!r} at t={t!r}")


def _compile(ast: ExprAst) -> Callable[[float], float]:
    """``ast`` as one Python function of ``t``; any non-finite value raises
    :class:`EvalError`.

    The function's body is one expression in ``x = float(t)``: ``+``, ``-``,
    ``*`` and unary minus inline, every other node a call of its table
    function, operands left before right, as the tree walk takes them.
    Constants and functions are globals of the function, named by their
    order, so the source holds no text of the expression and no string."""
    bound = {}

    def bind(obj) -> str:
        name = f"_{len(bound)}"
        bound[name] = obj
        return name

    def source(node: ExprAst) -> str:
        if isinstance(node, Num):
            return bind(node.value)
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Neg):
            return f"(-{source(node.child)})"
        if isinstance(node, BinOp):
            fn = _BINARY[node.op][2]
            left, right = source(node.left), source(node.right)
            if fn in _INLINE:
                return f"({left} {_INLINE[fn]} {right})"
            return f"{bind(fn)}({left}, {right})"
        fn = _FUNCTIONS[node.name][1]
        return f"{bind(fn)}({', '.join(map(source, node.args))})"

    code = ("def evaluate(t):\n"
            "    x = _float(t)\n"
            f"    value = {source(ast)}\n"
            "    if not _isfinite(value):\n"
            "        _non_finite(value, t)\n"
            "    return value\n")
    scope = {"__builtins__": {}, "_float": float, "_isfinite": math.isfinite,
             "_non_finite": _non_finite, **bound}
    exec(compile(code, "<model function>", "exec"), scope)
    return scope["evaluate"]


def _compiled(ast: ExprAst) -> Callable[[float], float]:
    """``ast``'s compiled function, made on first use and kept on the tree,
    which is frozen: a tree compiles once however often it is evaluated."""
    if "_compiled" not in vars(ast):
        object.__setattr__(ast, "_compiled", _compile(ast))
    return ast._compiled


def eval_expr(ast: ExprAst, t: float) -> float:
    """Evaluate ``ast`` at ``t``; any non-finite value raises :class:`EvalError`."""
    return _compiled(ast)(t)


# ---------------------------------------------------------------------------
# model-function wrapper


@dataclass(frozen=True)
class FuncSpec:
    """A parsed model function and its compiled form.  ProcessSpec.at reads
    it through the compiled form, with the model rules checked; only the
    lmmm kernel's exponent kappa(u) calls it."""

    source: str
    ast: ExprAst
    # compiled once here, not on first use: runs call it from several threads
    compiled: Callable[[float], float] = field(init=False, compare=False,
                                               repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", _compiled(self.ast))

    def __call__(self, t: float) -> float:
        return self.compiled(t)

    @classmethod
    def parse(cls, source: str) -> "FuncSpec":
        return cls(source=source, ast=parse_expr(source))
