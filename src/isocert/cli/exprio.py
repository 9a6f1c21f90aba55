"""Expression text I/O.

Grammar: integers, rationals via '/', identifiers [A-Za-z_][A-Za-z0-9_]*,
operators + - * / ^ (integer exponents, |n| <= MAX_EXPONENT), parentheses,
standard precedence, left associativity, unary minus.  Trees are plain
tuples; printing is faithful with minimal parentheses, so
parse(print(parse(s))) == parse(s).
"""

from __future__ import annotations

from fractions import Fraction

from ..exactalg import ExactAlgError, RationalFunction

Node = tuple

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


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok


def parse_expression(text: str) -> Node:
    lex = _Lexer(text)
    node = _parse_sum(lex)
    kind, _, pos = lex.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected token {kind!r}", pos)
    return node


def _parse_sum(lex: _Lexer) -> Node:
    node = _parse_product(lex)
    while True:
        kind, _, _ = lex.peek()
        if kind == "+":
            lex.next()
            node = ("add", node, _parse_product(lex))
        elif kind == "-":
            lex.next()
            node = ("sub", node, _parse_product(lex))
        else:
            return node


def _parse_product(lex: _Lexer) -> Node:
    node = _parse_unary(lex)
    while True:
        kind, _, _ = lex.peek()
        if kind == "*":
            lex.next()
            node = ("mul", node, _parse_unary(lex))
        elif kind == "/":
            lex.next()
            node = ("div", node, _parse_unary(lex))
        else:
            return node


def _parse_unary(lex: _Lexer) -> Node:
    kind, _, _ = lex.peek()
    if kind == "-":
        lex.next()
        return ("neg", _parse_unary(lex))
    if kind == "+":
        lex.next()
        return _parse_unary(lex)
    return _parse_power(lex)


def _parse_power(lex: _Lexer) -> Node:
    base = _parse_atom(lex)
    kind, _, pos = lex.peek()
    if kind != "^":
        return base
    lex.next()
    sign = 1
    kind, _, _ = lex.peek()
    if kind == "-":
        lex.next()
        sign = -1
    kind, value, pos = lex.peek()
    if kind != "int":
        raise ExprSyntaxError("exponent must be an integer", pos)
    if value > MAX_EXPONENT:
        raise ExponentTooLarge(f"exponent {sign * value} at offset {pos} is outside "
                               f"the supported bound |n| <= {MAX_EXPONENT}")
    lex.next()
    return ("pow", base, sign * value)


def _parse_atom(lex: _Lexer) -> Node:
    kind, value, pos = lex.next()
    if kind == "int":
        return ("num", Fraction(value))
    if kind == "ident":
        return ("var", value)
    if kind == "(":
        node = _parse_sum(lex)
        kind, _, pos = lex.next()
        if kind != ")":
            raise ExprSyntaxError("expected ')'", pos)
        return node
    raise ExprSyntaxError(f"unexpected token {kind!r}", pos)


def evaluate(node: Node, env, const):
    """Evaluate against env(name) -> element and const(Fraction) -> element."""
    op = node[0]
    if op == "num":
        return const(node[1])
    if op == "var":
        return env(node[1])
    if op == "neg":
        return -evaluate(node[1], env, const)
    if op == "pow":
        return evaluate(node[1], env, const) ** node[2]
    a = evaluate(node[1], env, const)
    b = evaluate(node[2], env, const)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown node {op!r}")


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4,
         "num": 5, "var": 5}


def print_tree(node: Node) -> str:
    op = node[0]
    if op == "num":
        return str(node[1])
    if op == "var":
        return node[1]
    if op == "neg":
        inner = _wrap(node[1], _PREC["neg"], strict=False)
        return f"-{inner}"
    if op == "pow":
        base = _wrap(node[1], _PREC["pow"], strict=True)
        exp = node[2]
        return f"{base}^{exp}" if exp >= 0 else f"{base}^-{-exp}"
    a_strict = {"add": False, "sub": False, "mul": False, "div": False}[op]
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    left = _wrap(node[1], _PREC[op], strict=a_strict)
    right = _wrap(node[2], _PREC[op], strict=(op in ("sub", "div", "mul", "add")))
    return f"{left}{sym}{right}"


def _wrap(node: Node, parent_prec: int, strict: bool) -> str:
    text = print_tree(node)
    prec = _PREC[node[0]]
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def parse_to_rational(text: str, registry, resolver=None) -> RationalFunction:
    """Parse and evaluate into a RationalFunction over the registry; a
    resolver may map identifiers (e.g. lazy jets) to elements."""
    tree = parse_expression(text)

    def env(name: str):
        if resolver is not None:
            value = resolver(name)
            if value is not None:
                return value
        if name in registry:
            return RationalFunction.var(name, registry)
        raise UnknownIdentifier(name)

    return evaluate(tree, env, lambda c: RationalFunction.const(c, registry))
