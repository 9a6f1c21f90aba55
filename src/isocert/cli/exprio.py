"""Expression text I/O.

Grammar: decimal integers [0-9]+, rationals via '/', identifiers
[A-Za-z_][A-Za-z0-9_]* (ASCII, the registry's name rule), operators
+ - * / ^, parentheses, standard precedence, left associativity and unary
minus, which binds looser than '^' and tighter than '*' and '/'.  '^' takes
one optionally signed integer exponent with |n| <= MAX_EXPONENT and does not
chain.

`parse_expression` reads the text in one left-to-right pass into postfix
order with an operator stack (Dijkstra's shunting-yard); `evaluate` runs the
postfix list on a value stack.  Neither recurses, so no nesting depth or
length of a sum is limited by the interpreter's stack.  The postfix items
are ("num", Fraction), ("var", name), ("neg",), ("pow", n), ("add",),
("sub",), ("mul",) and ("div",); operands appear in text order, so they
are evaluated left to right.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from ..exactalg import ExactAlgError, RationalFunction
from ..exactalg.printing import _CHUNK, int_text
from ..exactalg.registry import NAME

# Largest |n| accepted in `^n`.  Powers are expanded densely, and the heuristic
# gcd on a power of degree n works on integers of about n^2 bits, so an
# unbounded exponent is unbounded work.  A single high-order pole no longer
# reaches that heuristic (its squarefree gcds are answered by exact division),
# but two of them still do, in the partial fractions: a cold
# `reduce 1/((x-t)^30*(x-1)^30)` takes 0.4 s, ^60 and ^60 3 s, and ^100 and
# ^100 about 30 s, 26 s of it in partial fractions (2-core x86-64, Python
# 3.11).  The corpora and fixtures use n <= 5.
MAX_EXPONENT = 100


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ExponentTooLarge(ExactAlgError):
    """A well-formed exponent beyond MAX_EXPONENT: unsupported, not malformed."""


class UnknownIdentifier(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


# A character outside the grammar's alphabet (whitespace, digits, name
# characters, operators), refused before any token is read.
_OUTSIDE = re.compile(r"[^\s0-9A-Za-z_+\-*/^()]")
# One token after optional whitespace: an integer, an identifier or a symbol.
_TOKEN = re.compile(rf"\s*(?:([0-9]+)|({NAME})|([-+*/^()]))")

# Binary operators: precedence and postfix item.  Unary minus has
# precedence 3; an open parenthesis on the operator stack has 0, so no
# operator is popped past it.
_BINARY = {"+": (1, ("add",)), "-": (1, ("sub",)), "*": (2, ("mul",)), "/": (2, ("div",))}
_NEG = (3, ("neg",))
_OPEN = (0, None)

# Parser states: an operand is expected; an operand ended and may take '^';
# an operator, ')' or the end is expected.
_OPERAND, _ATOM, _OPERATOR = range(3)


def parse_expression(text: str) -> list[tuple]:
    """The postfix list of an expression, or ExprSyntaxError with the
    offset of the first offending character or token."""
    bad = _OUTSIDE.search(text)
    if bad is not None:
        raise ExprSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    out: list[tuple] = []
    stack: list[tuple] = []
    depth = 0
    state = _OPERAND
    tokens = _TOKEN.finditer(text)
    for match in tokens:
        number, name, symbol = match.groups()
        pos = match.start(match.lastindex)
        if state == _OPERAND:
            if number is not None:
                out.append(("num", Fraction(_int(number))))
                state = _ATOM
            elif name is not None:
                out.append(("var", name))
                state = _ATOM
            elif symbol == "-":
                stack.append(_NEG)
            elif symbol == "(":
                stack.append(_OPEN)
                depth += 1
            elif symbol != "+":
                raise ExprSyntaxError(f"unexpected token {symbol!r}", pos)
            continue
        if state == _ATOM and symbol == "^":
            out.append(("pow", _exponent(text, tokens)))
            state = _OPERATOR
            continue
        if symbol in _BINARY:
            entry = _BINARY[symbol]
            while stack and stack[-1][0] >= entry[0]:
                out.append(stack.pop()[1])
            stack.append(entry)
            state = _OPERAND
        elif symbol == ")" and depth:
            while stack[-1] is not _OPEN:
                out.append(stack.pop()[1])
            stack.pop()
            depth -= 1
            state = _ATOM
        elif depth:
            raise ExprSyntaxError("expected ')'", pos)
        else:
            kind = "int" if number is not None else "ident" if name is not None else symbol
            raise ExprSyntaxError(f"unexpected token {kind!r}", pos)
    if state == _OPERAND:
        raise ExprSyntaxError("unexpected token 'end'", len(text))
    if depth:
        raise ExprSyntaxError("expected ')'", len(text))
    while stack:
        out.append(stack.pop()[1])
    return out


def _exponent(text: str, tokens) -> int:
    """The optionally signed integer after '^', read from the token stream."""
    match = next(tokens, None)
    sign = 1
    if match is not None and match.group(3) == "-":
        sign = -1
        match = next(tokens, None)
    if match is None or match.group(1) is None:
        raise ExprSyntaxError("exponent must be an integer",
                              len(text) if match is None else match.start(match.lastindex))
    value = _int(match.group(1))
    if value > MAX_EXPONENT:
        raise ExponentTooLarge(f"exponent {int_text(sign * value)} at offset {match.start(1)} "
                               f"is outside the supported bound |n| <= {MAX_EXPONENT}")
    return sign * value


def _int(digits: str) -> int:
    """The value of a literal of any length, read in chunks short enough for
    Python's limit on decimal text (see `printing.int_text`)."""
    value = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


_APPLY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv}


def evaluate(postfix: list[tuple], env, const):
    """Evaluate a postfix list against env(name) -> element and
    const(Fraction) -> element."""
    stack = []
    for item in postfix:
        kind = item[0]
        if kind == "num":
            stack.append(const(item[1]))
        elif kind == "var":
            stack.append(env(item[1]))
        elif kind == "neg":
            stack[-1] = -stack[-1]
        elif kind == "pow":
            stack[-1] = stack[-1] ** item[1]
        else:
            right = stack.pop()
            stack[-1] = _APPLY[kind](stack[-1], right)
    return stack.pop()


def parse_to_rational(expr: str | list[tuple], registry, resolver=None) -> RationalFunction:
    """Parse and evaluate into a RationalFunction over the registry; a
    resolver may map identifiers (e.g. lazy jets) to elements.  `expr` is
    the text or the postfix list `parse_expression` already made of it."""
    postfix = parse_expression(expr) if isinstance(expr, str) else expr

    def env(name: str):
        if resolver is not None:
            value = resolver(name)
            if value is not None:
                return value
        if name in registry:
            return RationalFunction.var(name, registry)
        raise UnknownIdentifier(name)

    return evaluate(postfix, env, lambda c: RationalFunction.const(c, registry))
