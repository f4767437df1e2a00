import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multistable import expr
from multistable.expr import (BinOp, Call, EvalError, FuncSpec, Neg, Num,
                              ParseError, Var, eval_expr, parse_expr)

import oracles


def ev(src, t=0.0):
    return eval_expr(parse_expr(src), t)


class TestParsing:
    def test_number_forms(self):
        assert ev("2") == 2.0
        assert ev("2.5") == 2.5
        assert ev(".5") == 0.5
        assert ev("1e-3") == 1e-3
        assert ev("2.5E+2") == 250.0

    def test_variable_and_constants(self):
        assert ev("t", 0.3) == 0.3
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_constants_fold_to_numbers(self):
        ast = parse_expr("pi")
        assert isinstance(ast, Num)

    def test_precedence_mul_over_add(self):
        assert ev("2+3*4") == 14.0

    def test_precedence_pow_over_unary_minus(self):
        # exponentiation binds tighter than the leading minus
        assert ev("-2^2") == -4.0

    def test_pow_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_chains(self):
        assert ev("--2") == 2.0
        assert ev("3--2") == 5.0

    def test_division_and_subtraction_left_associative(self):
        assert ev("8/4/2") == 1.0
        assert ev("8-4-2") == 2.0

    def test_parens(self):
        assert ev("(2+3)*4") == 20.0

    def test_function_calls(self):
        assert ev("sin(0)") == 0.0
        assert ev("max(2, 3)") == 3.0
        assert ev("min(2, 3)") == 2.0
        assert ev("pow(2, 10)") == 1024.0
        assert abs(ev("exp(1)") - math.e) < 1e-15

    def test_whitespace_insensitive(self):
        assert ev(" 1 + 2 * t ", 2.0) == 5.0


class TestParseErrors:
    def test_truncated_input_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1.5+")
        assert exc.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("")
        assert exc.value.offset == 0

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_expr("foo(1)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_expr("sin(1, 2)")
        with pytest.raises(ParseError):
            parse_expr("max(1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(1+2")

    def test_stray_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1+$")
        assert exc.value.offset == 2

    def test_digits_are_ascii(self):
        # str.isdigit accepts a superscript two, which float() rejects
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_expr("1.5+\u00b2")
        assert exc.value.offset == 4

    @pytest.mark.parametrize("src,offset", [
        ("(" * 3000 + "1" + ")" * 3000, 100),
        ("-" * 3000 + "1", 100),
        ("1.5" + "^1" * 3000, 102),
        ("1" + "+1" * 3000, 198),
    ])
    def test_nesting_depth_is_capped(self, src, offset):
        # compilation recurses over the tree and the compiled function
        # nests one expression per level, so a deep one must stop here
        # instead of in a RecursionError
        with pytest.raises(ParseError, match="deeper") as exc:
            parse_expr(src)
        assert exc.value.offset == offset

    def test_chains_around_groups_are_capped(self):
        # each group is the left operand of a chain around it, so the tree
        # grows by a chain's length per group, not by one
        src = "t"
        for _ in range(40):
            src = "(" + src + "+1" * 40 + ")"
        with pytest.raises(ParseError, match="deeper"):
            parse_expr(src)
        src = "t"
        for _ in range(9):
            src = "(" + src + "+1" * 9 + ")"
        assert _height(parse_expr(src)) == 82
        assert eval_expr(parse_expr(src), 0.5) == 81.5

    def test_nesting_below_the_cap_parses(self):
        src = "1" + "+1" * 40 + "+" + "(" * 45 + "t" + ")" * 45
        assert eval_expr(parse_expr(src), 2.0) == 43.0


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/t", 0.0)

    def test_log_of_nonpositive(self):
        with pytest.raises(EvalError):
            ev("log(0)")
        with pytest.raises(EvalError):
            ev("log(0-1)")

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(0-1)")

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvalError):
            ev("(0-2)^0.5")

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            ev("0^(0-1)")

    @pytest.mark.parametrize("src", ["1.5+0*(0-1)^1e400",
                                     "(0-1)^(1e400-1e400)"])
    def test_non_finite_power_of_negative_base(self, src):
        # an infinite or NaN exponent is not an integer
        with pytest.raises(EvalError, match="fractional power"):
            ev(src)

    def test_integer_power_of_negative_base_is_fine(self):
        assert ev("(0-2)^3") == -8.0

    def test_overflow_surfaces_as_eval_error(self):
        with pytest.raises(EvalError):
            ev("exp(10000)")
        # an overflowed argument of sin or cos
        for src in ("sin(1e308*10)", "cos(1/1e-309)"):
            with pytest.raises(EvalError):
                ev(src)


# random ASTs for the compiled evaluator; weights keep trees small enough
# to evaluate but deep enough to mix every node kind
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=-4.0, max_value=4.0,
                             allow_nan=False, allow_infinity=False)),
    st.just(Var()),
)


def _node(children):
    unary = st.builds(Neg, children)
    binop = st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children)
    call1 = st.builds(lambda n, a: Call(n, (a,)),
                      st.sampled_from(["sin", "cos", "abs"]), children)
    call2 = st.builds(lambda n, a, b: Call(n, (a, b)),
                      st.sampled_from(["min", "max"]), children, children)
    return st.one_of(unary, binop, call1, call2)


_asts = st.recursive(_leaf, _node, max_leaves=12)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# both operands fail, each with its own message: the left one must win
_TWO_FAILURES = (BinOp("/", Num(1.0), Num(0.0)),
                 BinOp("^", Num(-2.0), Num(0.5)))


@settings(max_examples=300, deadline=None)
@given(ast=_asts, t=st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False))
@example(ast=BinOp("+", *_TWO_FAILURES), t=0.0)
@example(ast=Call("max", _TWO_FAILURES[::-1]), t=0.0)
@example(ast=Neg(BinOp("*", Var(), Num(0.0))), t=1.0)
def test_compiled_matches_the_tree_walk(ast, t):
    """The compiled function returns the tree walk's float bit for bit,
    sign of zero included, and raises the same EvalError on the same
    inputs."""
    _assert_matches_tree_walk(ast, t)


def _assert_matches_tree_walk(ast, t):
    try:
        want = oracles.eval_tree(ast, float(t), expr._BINARY,
                                 expr._FUNCTIONS)
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            eval_expr(ast, t)
        assert str(got.value) == str(exc)
        return
    if not math.isfinite(want):
        with pytest.raises(EvalError) as got:
            eval_expr(ast, t)
        assert str(got.value) == f"non-finite result {want!r} at t={t!r}"
        return
    assert _bits(eval_expr(ast, t)) == _bits(want)


def _height(ast):
    """Levels of the tree of ast."""
    if isinstance(ast, Neg):
        return 1 + _height(ast.child)
    if isinstance(ast, BinOp):
        return 1 + max(_height(ast.left), _height(ast.right))
    if isinstance(ast, Call):
        return 1 + max(map(_height, ast.args))
    return 1


def _deepest(opening, closing):
    """The tree of opening * n + "t" + closing * n at the largest n the
    parser admits."""
    deepest = None
    for n in range(1, 1000):
        try:
            deepest = parse_expr(opening * n + "t" + closing * n)
        except ParseError:
            return deepest
    raise AssertionError("no nesting cap")


@pytest.mark.parametrize("opening,closing", [
    ("(", ")"),
    ("-", ""),
    ("", "^1.0001"),
    ("", "+0.1*t"),
    ("sin(", ")"),
    ("min(", ",0.7-t)"),
])
def test_deepest_tree_compiles_and_matches_the_tree_walk(opening, closing):
    # the compiled function nests one Python expression per level of the
    # tree, and compile() must take the deepest tree the parser admits
    ast = _deepest(opening, closing)
    assert _height(ast) <= expr._MAX_DEPTH
    for t in (-0.3, -0.0, 0.0, 0.45, 1.7):
        _assert_matches_tree_walk(ast, t)


@pytest.mark.parametrize("src,message", [
    ("log(0)+sqrt(0-1)", "log of non-positive"),
    ("sqrt(0-1)-log(0)", "sqrt of negative"),
    ("(0-2)^0.5*(1/0)", "fractional power"),
    ("1/0/log(0)", "division by zero"),
    ("(0^(0-1))^(1/0)", "zero raised"),
    ("-sqrt(0-1)+1/0", "sqrt of negative"),
    ("min(log(0), 1/0)", "log of non-positive"),
    ("pow(1/0, sqrt(0-1))", "division by zero"),
])
def test_left_operand_raises_first(src, message):
    # both operands are invalid: the left guard's EvalError is raised, as
    # in the tree walk
    with pytest.raises(EvalError, match=message):
        ev(src)
    _assert_matches_tree_walk(parse_expr(src), 0.0)


class TestFuncSpec:
    def test_parse_and_call(self):
        fs = FuncSpec.parse("1.5+0.3*sin(2*pi*t)")
        assert abs(fs(0.25) - 1.8) < 1e-12

    def test_source_is_kept(self):
        fs = FuncSpec.parse("t+1")
        assert fs.source == "t+1"

    def test_a_tree_compiles_once(self, monkeypatch):
        compiles = []
        compile_ = expr._compile
        monkeypatch.setattr(expr, "_compile",
                            lambda ast: compiles.append(ast) or compile_(ast))
        fs = FuncSpec.parse("1.7+0.2*sin(2*pi*t)")
        for k in range(1000):
            assert eval_expr(fs.ast, k / 1000) == fs(k / 1000)
        assert compiles == [fs.ast]


def test_readme_lists_every_function():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(ln for ln in readme.read_text().splitlines()
                if ln.startswith("Functions: "))
    assert set(line.split("`")[1::2]) == set(expr._FUNCTIONS)
