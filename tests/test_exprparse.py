import math

import numpy as np
import pytest

from gbspec.errors import ExprError
from gbspec.exprparse import (RESERVED_VARS, BinOp, Call, Const, Neg, Var,
                              differentiate, evaluate, parse)

CORPUS = [
    "2+3*x", "(1+2*x)/2", "x^2^3", "-x^2", "x^-2", "(x+1)*(x-1)",
    "sin(cos(x))/2", "1/(1+x^2)", "2*-x", "x-(x-1)", "sqrt(x)+log(x)",
    "x/2/3", "pi*x", "-(x+1)", "exp(2*x)", "sinh(x)-cosh(x)", "tan(x/4)",
    "x1+2*x2", "theta^2", "0.5*x+1.25", "1e-3*x", "3.0e2", ".5+x",
    "x*x*x", "x^2*x^3", "(x)", "((x+1))", "1-2-3", "1-(2-3)", "2^-x",
    "sin(x)^2+cos(x)^2", "x/(x+1)", "log(exp(x))", "sqrt(x^2)",
    "cosh(x)^2-sinh(x)^2", "x+x1+x2+x3", "-x*-x", "pi", "2*pi*x",
    "x^(1/2)", "1/2/x", "exp(-x^2/2)", "sin(pi*x)", "x-1e2",
    "(x+2)^3", "tan(x)*cos(x)", "1+2+3+x", "x*(1+x*(1+x))",
    "sqrt(1+x^2)", "log(1+exp(x))",
]


class TestParse:
    def test_basic_arithmetic(self):
        assert evaluate(parse("2+3*x"), {"x": 1.0}) == 5.0
        assert evaluate(parse("(1+2*x)/2"), {"x": 0.0}) == 0.5

    def test_double_star_rejected(self):
        with pytest.raises(ExprError) as err:
            parse("2**x")
        assert err.value.position == 2

    def test_unknown_identifier(self):
        with pytest.raises(ExprError):
            parse("2+y")

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            parse("erf(x)")

    def test_precedence(self):
        # ^ binds tighter than unary minus, right-associative
        assert evaluate(parse("-2^2"), {}) == -4.0
        assert evaluate(parse("2^3^2"), {}) == 512.0
        assert evaluate(parse("2^-1"), {}) == 0.5

    def test_syntax_error_offset(self):
        with pytest.raises(ExprError) as err:
            parse("1+ (2*)")
        assert err.value.position == 6

    @pytest.mark.parametrize("src", CORPUS)
    def test_corpus_parses_and_evaluates(self, src):
        value = evaluate(parse(src), dict.fromkeys(RESERVED_VARS, 0.5))
        assert math.isfinite(value)


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse("sin(x)"), {"x": 0.0}) == 0.0
        assert evaluate(parse("cosh(x)"), {"x": 2.0}) == pytest.approx(
            3.7621957, abs=1e-6)

    def test_division_by_zero(self):
        with pytest.raises(ExprError):
            evaluate(parse("1/x"), {"x": 0.0})

    def test_log_domain(self):
        with pytest.raises(ExprError):
            evaluate(parse("log(x)"), {"x": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(ExprError):
            evaluate(parse("x+1"), {})

    def test_array_input(self):
        xs = np.linspace(0.1, 0.9, 7)
        vals = evaluate(parse("x^2+sin(x)"), {"x": xs})
        assert np.allclose(vals, xs**2 + np.sin(xs))


class TestDifferentiate:
    def test_examples(self):
        assert evaluate(differentiate(parse("sin(x)"), "x"), {"x": 0.0}) == 1.0
        d = differentiate(parse("(x+x^2)/2"), "x")
        assert evaluate(d, {"x": 1.0}) == pytest.approx(1.5)
        assert evaluate(differentiate(parse("exp(2*x)"), "x"),
                        {"x": 0.0}) == pytest.approx(2.0)

    def test_other_variable(self):
        d = differentiate(parse("x1*x2"), "x2")
        assert evaluate(d, {"x1": 3.0, "x2": 9.9}) == 3.0

    def test_matches_finite_differences_on_random_asts(self):
        rng = np.random.default_rng(20240601)

        def rand_ast(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.6:
                    return Var("x")
                return Const(round(float(rng.uniform(0.5, 2.5)), 3))
            roll = rng.random()
            if roll < 0.55:
                op = str(rng.choice(["+", "-", "*", "/"]))
                return BinOp(op, rand_ast(depth - 1), rand_ast(depth - 1))
            if roll < 0.7:
                return BinOp("^", rand_ast(depth - 1),
                             Const(float(rng.integers(1, 4))))
            if roll < 0.8:
                return Neg(rand_ast(depth - 1))
            fn = str(rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt",
                                 "sinh", "cosh"]))
            return Call(fn, rand_ast(depth - 1))

        checked = 0
        for _ in range(400):
            ast = rand_ast(5)
            deriv = differentiate(ast, "x")
            for x in rng.uniform(0.1, 0.9, 3):
                h = 1e-6
                try:
                    with np.errstate(all="ignore"):
                        fd = (evaluate(ast, {"x": x + h})
                              - evaluate(ast, {"x": x - h})) / (2 * h)
                    sym = evaluate(deriv, {"x": float(x)})
                except ExprError:
                    continue
                if not np.isfinite(fd) or abs(sym) > 1e6:
                    continue
                assert sym == pytest.approx(fd, rel=1e-5, abs=2e-4)
                checked += 1
        assert checked > 300


def test_pi_constant():
    assert evaluate(parse("sin(pi)"), {}) == pytest.approx(0.0, abs=1e-15)
    assert evaluate(parse("pi/2"), {}) == math.pi / 2
