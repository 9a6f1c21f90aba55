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

# Python refuses to convert an int of more than sys.get_int_max_str_digits()
# digits (4300 by default, never set below 640) to decimal text, so larger
# values are written in chunks of _CHUNK digits.
_CHUNK = 600
_CHUNK_BASE = 10 ** _CHUNK


def int_text(n: int) -> str:
    """The decimal text of an integer of any size."""
    if -_CHUNK_BASE < n < _CHUNK_BASE:
        return str(n)
    rest, chunks = abs(n), []
    while rest >= _CHUNK_BASE:
        rest, low = divmod(rest, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(chunks))


def _fraction_text(c: Fraction) -> str:
    if c.denominator == 1:
        return int_text(c.numerator)
    return f"{int_text(c.numerator)}/{int_text(c.denominator)}"


def format_monomial(mono, registry: VariableRegistry) -> str:
    parts = []
    for idx, exp in mono_items(mono):
        name = registry.name(idx)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _format_term(coeff: Fraction, mono, registry: VariableRegistry) -> str:
    mono_s = format_monomial(mono, registry)
    if not mono_s:
        return _fraction_text(coeff)
    if coeff == 1:
        return mono_s
    if coeff == -1:
        return f"-{mono_s}"
    return f"{_fraction_text(coeff)}*{mono_s}"


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
        num_s = int_text(c.numerator)
    else:
        num_s = format_poly(num, reg)
        if _top_level_ops(num_s) & {"+", "-", "/"} or num_s.startswith("-"):
            num_s = f"({num_s})"
    den_s = format_poly(den, reg)
    if _top_level_ops(den_s):
        den_s = f"({den_s})"
    if prefix_den != 1:
        den_s = f"({int_text(prefix_den)}*{den_s})"
    return f"{num_s}/{den_s}"
