"""Arithmetic expressions in a single variable ``x``.

Coefficient functions arrive as text (from JSON problem files or CLI
flags) and are parsed once into small immutable ASTs that are then
evaluated over whole arrays of mesh nodes.

Grammar, tightest binding first: ``^`` (right associative), unary minus,
``* /``, ``+ -``.  Calls to sin, cos, tan, exp, log, sqrt, abs and the
constants ``pi`` and ``e`` are recognised; ``log`` is the natural
logarithm.  There is no implicit multiplication: ``2x`` is a syntax
error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownIdentifierError",
    "EvaluationError",
    "parse",
    "evaluate_array",
    "unparse",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


class ExpressionError(ValueError):
    """Base class for expression parse and evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier that is not ``x``, a constant, or a known function."""


class EvaluationError(ExpressionError):
    """Expression produced a non-finite value; ``x`` is the offending point."""

    def __init__(self, message: str, x: float):
        super().__init__(message)
        self.x = x


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]

_TOKEN = re.compile(
    r"""(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ExpressionSyntaxError(f"unexpected character {source[pos]!r}", pos)
        tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _at_op(self, chars: str) -> bool:
        return self.current.kind == "op" and self.current.text in chars

    def parse(self) -> Expression:
        node = self._sum()
        if self.current.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected {self.current.text!r}", self.current.offset
            )
        return node

    def _sum(self) -> Expression:
        node = self._product()
        while self._at_op("+-"):
            op = self._advance().text
            node = BinOp(op, node, self._product())
        return node

    def _product(self) -> Expression:
        node = self._unary()
        while self._at_op("*/"):
            op = self._advance().text
            node = BinOp(op, node, self._unary())
        return node

    def _unary(self) -> Expression:
        if self._at_op("-"):
            self._advance()
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Expression:
        base = self._atom()
        if self._at_op("^"):
            self._advance()
            # right associative; the exponent may carry its own sign
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expression:
        token = self.current
        if token.kind == "num":
            self._advance()
            return Num(float(token.text))
        if token.kind == "name":
            self._advance()
            if token.text in FUNCTIONS:
                if not self._at_op("("):
                    raise ExpressionSyntaxError(
                        f"expected '(' after function {token.text!r}",
                        self.current.offset,
                    )
                self._advance()
                arg = self._sum()
                self._expect_close()
                return Call(token.text, arg)
            if token.text == "x":
                return Var()
            if token.text in CONSTANTS:
                return Num(CONSTANTS[token.text])
            raise UnknownIdentifierError(
                f"unknown identifier {token.text!r}", token.offset
            )
        if self._at_op("("):
            self._advance()
            node = self._sum()
            self._expect_close()
            return node
        raise ExpressionSyntaxError(
            "expected a number, identifier, or '('", token.offset
        )

    def _expect_close(self) -> None:
        if not self._at_op(")"):
            raise ExpressionSyntaxError("expected ')'", self.current.offset)
        self._advance()


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree.

    Raises :class:`ExpressionSyntaxError` (with a byte offset) on malformed
    input and :class:`UnknownIdentifierError` on names outside the fixed
    vocabulary.
    """
    return _Parser(source).parse()


def _eval(node: Expression, x):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.operand, x)
    if isinstance(node, Call):
        return FUNCTIONS[node.name](_eval(node.arg, x))
    left = _eval(node.left, x)
    right = _eval(node.right, x)
    op = node.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    return np.power(left, right)


def evaluate_array(expression: Expression, xs) -> np.ndarray:
    """Evaluate at every point of ``xs`` in IEEE double precision.

    Partial functions follow IEEE semantics internally; a non-finite result
    raises :class:`EvaluationError` carrying the first offending ``x``.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        values = _eval(expression, xs)
    if np.ndim(values) == 0:  # constant expression
        values = np.full(xs.shape, float(values))
    else:
        values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        x_bad = float(xs.flat[i])
        raise EvaluationError(
            f"expression is non-finite ({values.flat[i]}) at x = {x_bad}", x_bad
        )
    return values


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _prec(node: Expression) -> int:
    if isinstance(node, BinOp):
        return 4 if node.op == "^" else _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def unparse(node: Expression) -> str:
    """Render a tree back to source text; reparsing yields an identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Call):
        return f"{node.name}({unparse(node.arg)})"
    if isinstance(node, Neg):
        body = unparse(node.operand)
        if _prec(node.operand) < 3:
            body = f"({body})"
        return f"-{body}"
    left = unparse(node.left)
    right = unparse(node.right)
    if node.op == "^":
        # the base must be an atom; the exponent may be a signed power chain
        if _prec(node.left) < 5:
            left = f"({left})"
        if _prec(node.right) < 3:
            right = f"({right})"
        return f"{left}^{right}"
    level = _PRECEDENCE[node.op]
    if _prec(node.left) < level:
        left = f"({left})"
    if _prec(node.right) <= level:  # left associative: parenthesise equal level
        right = f"({right})"
    return f"{left}{node.op}{right}"
