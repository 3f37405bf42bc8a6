"""Minimal arithmetic expression language for PDE coefficients and geometry maps.

Supports numbers, the constant ``pi``, declared variables, ``+ - * / ^``
(with ``^`` right-associative and binding tighter than unary minus), and the
single-argument functions sin cos tan exp log sqrt sinh cosh.  Expressions
parse to a small AST that can be evaluated on scalars or numpy arrays and
differentiated symbolically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
RESERVED_VARS = ("x", "x1", "x2", "x3", "theta")


class ExprAst:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(ExprAst):
    value: float


@dataclass(frozen=True)
class Var(ExprAst):
    name: str


@dataclass(frozen=True)
class Neg(ExprAst):
    arg: ExprAst


@dataclass(frozen=True)
class BinOp(ExprAst):
    op: str  # one of + - * / ^
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class Call(ExprAst):
    fn: str
    arg: ExprAst


_TOKEN_RE = re.compile(
    r"(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprError(f"unexpected character {src[pos]!r}", position=pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str, variables: tuple[str, ...]):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", position=len(self.src))
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ExprError(f"expected {op!r}", position=tok[2])

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected token {tok[1]!r}", position=tok[2])
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            node = BinOp(tok[1], node, self.unary())
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> ExprAst:
        tok = self.next()
        kind, text, at = tok
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "pi":
                return Const(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text in self.variables:
                return Var(text)
            raise ExprError(f"unknown identifier {text!r}", position=at)
        if text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {text!r}", position=at)


def parse(src: str, variables: tuple[str, ...] = RESERVED_VARS) -> ExprAst:
    """Parse an expression over the declared variable names."""
    return _Parser(src, variables).parse()


_NUMPY_FN = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh,
}


def evaluate(ast: ExprAst, env: dict):
    """Evaluate on scalars or numpy arrays bound in ``env``.

    Division by zero and domain violations (log of a non-positive value,
    sqrt of a negative one) raise :class:`ExprError` instead of producing
    infinities or NaNs.
    """
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        if ast.name not in env:
            raise ExprError(f"unbound variable {ast.name!r}")
        return env[ast.name]
    if isinstance(ast, Neg):
        return -evaluate(ast.arg, env)
    if isinstance(ast, Call):
        arg = evaluate(ast.arg, env)
        if ast.fn == "log" and np.any(np.asarray(arg) <= 0):
            raise ExprError("log of a non-positive value")
        if ast.fn == "sqrt" and np.any(np.asarray(arg) < 0):
            raise ExprError("sqrt of a negative value")
        with np.errstate(all="ignore"):
            return _NUMPY_FN[ast.fn](arg)
    left = evaluate(ast.left, env)
    right = evaluate(ast.right, env)
    with np.errstate(all="ignore"):
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if ast.op == "/":
            if np.any(np.asarray(right) == 0):
                raise ExprError("division by zero")
            return left / right
        out = left**right
    if np.any(np.isnan(np.asarray(out))):
        raise ExprError("invalid power (negative base with fractional exponent)")
    return out


def _is_const(ast: ExprAst, value: float) -> bool:
    return isinstance(ast, Const) and ast.value == value


def _add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def differentiate(ast: ExprAst, var: str | tuple[str, ...]) -> ExprAst:
    """Symbolic derivative with light zero/one folding (no general simplifier).

    ``var`` is one variable name, or a tuple of names bound to the same
    coordinate, whose derivative is then the sum over those names.
    """
    if isinstance(ast, Const):
        return Const(0.0)
    if isinstance(ast, Var):
        names = (var,) if isinstance(var, str) else var
        return Const(1.0 if ast.name in names else 0.0)
    if isinstance(ast, Neg):
        inner = differentiate(ast.arg, var)
        return Const(0.0) if _is_const(inner, 0.0) else Neg(inner)
    if isinstance(ast, Call):
        darg = differentiate(ast.arg, var)
        fn, arg = ast.fn, ast.arg
        if fn == "sin":
            outer = Call("cos", arg)
        elif fn == "cos":
            outer = Neg(Call("sin", arg))
        elif fn == "tan":
            outer = BinOp("/", Const(1.0), BinOp("^", Call("cos", arg), Const(2.0)))
        elif fn == "exp":
            outer = Call("exp", arg)
        elif fn == "log":
            outer = BinOp("/", Const(1.0), arg)
        elif fn == "sqrt":
            outer = BinOp("/", Const(1.0), _mul(Const(2.0), Call("sqrt", arg)))
        elif fn == "sinh":
            outer = Call("cosh", arg)
        else:  # cosh
            outer = Call("sinh", arg)
        return _mul(outer, darg)
    a, b = ast.left, ast.right
    da = differentiate(a, var)
    db = differentiate(b, var)
    if ast.op == "+":
        return _add(da, db)
    if ast.op == "-":
        return _sub(da, db)
    if ast.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if ast.op == "/":
        num = _sub(_mul(da, b), _mul(a, db))
        return BinOp("/", num, BinOp("^", b, Const(2.0)))
    # power: general rule d(a^b) = a^b * (db*log(a) + b*da/a); constant
    # exponents take the usual shortcut.
    if isinstance(b, Const):
        expo = b.value - 1.0
        if expo == 0.0:
            pw: ExprAst = Const(1.0)
        elif expo == 1.0:
            pw = a
        else:
            pw = BinOp("^", a, Const(expo))
        return _mul(_mul(b, pw), da)
    return _mul(BinOp("^", a, b),
                _add(_mul(db, Call("log", a)), BinOp("/", _mul(b, da), a)))

