"""Deterministic text rendering of polynomials and rational functions.

The output is valid input for the expression grammar (integers, rationals via
'/', identifiers, + - * / ^, parentheses), with terms ordered by descending
graded-lex so identical values always print identically.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, mono_items, mono_key_grlex
from .rational import RationalFunction
from .registry import VariableRegistry


def format_monomial(mono, registry: VariableRegistry) -> str:
    parts = []
    for idx, exp in mono_items(mono):
        name = registry.name(idx)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _format_term(coeff: Fraction, mono, registry: VariableRegistry) -> str:
    mono_s = format_monomial(mono, registry)
    if not mono_s:
        return str(coeff)
    if coeff == 1:
        return mono_s
    if coeff == -1:
        return f"-{mono_s}"
    return f"{coeff}*{mono_s}"


def format_poly(p: MultiPoly, registry: VariableRegistry) -> str:
    if p.is_zero():
        return "0"
    terms = p.rational_terms()
    parts: list[str] = []
    for mono in sorted(terms, key=mono_key_grlex, reverse=True):
        term = _format_term(terms[mono], mono, registry)
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts)


def _top_level_ops(text: str) -> set[str]:
    """The operators of `text` outside parentheses; a leading '-' is a sign."""
    ops: set[str] = set()
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+*/":
            ops.add(ch)
        elif depth == 0 and ch == "-" and i > 0:
            ops.add("-")
    return ops


def format_rational(f: RationalFunction) -> str:
    reg = f.registry
    if f.den.is_one():
        return format_poly(f.num, reg)
    num, den = f.num, f.den
    # Pull the numerator's rational content into the denominator so simple
    # values print as p/(q*(...)) instead of stacked fractions.
    prefix_den = 1
    if num.is_const():
        c = num.const_value()
        prefix_den = c.denominator
        num_s = str(c.numerator)
    else:
        num_s = format_poly(num, reg)
        if _top_level_ops(num_s) & {"+", "-", "/"} or num_s.startswith("-"):
            num_s = f"({num_s})"
    den_s = format_poly(den, reg)
    if _top_level_ops(den_s):
        den_s = f"({den_s})"
    if prefix_den != 1:
        den_s = f"({prefix_den}*{den_s})"
    return f"{num_s}/{den_s}"
