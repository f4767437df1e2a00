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
        # compilation and the compiled closures recurse over the tree, so a
        # deep one must stop here instead of in a RecursionError
        with pytest.raises(ParseError, match="deeper") as exc:
            parse_expr(src)
        assert exc.value.offset == offset

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
    """The compiled closures return the tree walk's float bit for bit, sign
    of zero included, and raise the same EvalError on the same inputs."""
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


class TestFuncSpec:
    def test_parse_and_call(self):
        fs = FuncSpec.parse("1.5+0.3*sin(2*pi*t)", (0.0, 1.0))
        assert abs(fs(0.25) - 1.8) < 1e-12

    def test_source_is_kept(self):
        fs = FuncSpec.parse("t+1", (0.0, 1.0))
        assert fs.source == "t+1"

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            FuncSpec.parse("t", (1.0, 0.0))

    def test_grid_values_name_the_failing_point(self):
        fs = FuncSpec.parse("1/t", (0.0, 1.0))
        with pytest.raises(EvalError) as exc:
            fs.grid_values
        assert "t=" in str(exc.value)

    def test_grid_values_end_with_the_run_times(self):
        fs = FuncSpec.parse("2*t", (0.0, 1.0), [0.3, 0.7])
        values = fs.grid_values
        assert values.shape == (259,)
        assert values[256] == 2.0 and list(values[257:]) == [0.6, 1.4]

    def test_grid_values_name_the_failing_run_time(self):
        fs = FuncSpec.parse("1/(t-0.3)", (0.0, 1.0), [0.3])
        with pytest.raises(EvalError, match=r"at t=0\.3"):
            fs.grid_values


def test_readme_lists_every_function():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(ln for ln in readme.read_text().splitlines()
                if ln.startswith("Functions: "))
    assert set(line.split("`")[1::2]) == set(expr._FUNCTIONS)
