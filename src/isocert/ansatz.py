"""The bounded polynomial ansatz behind both equivalence searches: monomial
bases, derivatives of monomials, and one Leibniz row builder that turns
rational-function linear identities into Q-linear systems.

Every ansatz unknown is a parameter monomial x^m times a fixed shape S (a
flat list of entries: a matrix unit or constraint basis element for flatten,
a unit vector e_k for horizontal sections), so by Leibniz
nabla_s(m*S) = d_s(m)*S + m*nabla_s(S) and an equation is a sum of terms
z_k * x^shift * value in which the value depends on the shape (and the
equation) only.  The monomial never multiplies a rational function: it enters
as a shift of the exponent keys of the cleared value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactalg import ExactAlgError, MultiPoly, RationalFunction, VariableRegistry, lcm
from .exactalg.poly import (EMPTY_MONO, MAX_DEGREE, DegreeTooLarge, Mono,
                            exact_div, mono_from_items)
from .fields import FieldContext

_ZERO = Fraction(0)

# (unknown index, monomial shift, value): contributes z_k * x^shift * value.
Term = tuple[int, Mono, RationalFunction]

# The most ansatz unknowns (monomials times shapes) either search takes on.
# A cold `flatten` of a 3x3 system over Q(t1, t2) with one pole in each
# matrix, at degree bound 145 (96,579 unknowns, the largest admitted), ran
# 2.3-2.5 s with a 115 MB peak on one Intel Xeon core; time and memory grow
# with the count.
MAX_UNKNOWNS = 100_000


class AnsatzTooLarge(ExactAlgError):
    """An ansatz with more than MAX_UNKNOWNS unknowns."""

    def __init__(self, bound: int, unknowns: int):
        super().__init__(f"degree bound {bound} gives {unknowns} ansatz unknowns, outside "
                         f"the supported size <= {MAX_UNKNOWNS}")


def monomials_up_to(var_indices: list[int], bound: int, shapes: int = 1) -> list[Mono]:
    """All monomials in the given variables of total degree <= bound, in
    breadth-first order (the order fixes the order of ansatz unknowns).
    Raises AnsatzTooLarge, before any monomial is built, when the monomials
    times `shapes` pass MAX_UNKNOWNS."""
    if bound > MAX_DEGREE:
        raise DegreeTooLarge(bound)
    unknowns = math.comb(len(var_indices) + bound, bound) * shapes
    if unknowns > MAX_UNKNOWNS:
        raise AnsatzTooLarge(bound, unknowns)
    units = [mono_from_items(((idx, 1),)) for idx in var_indices]
    monos = [EMPTY_MONO]
    seen = {EMPTY_MONO}
    frontier = [EMPTY_MONO]
    for _ in range(bound):
        new_frontier = []
        for m in frontier:
            for unit in units:
                cand = m + unit
                if cand not in seen:
                    seen.add(cand)
                    monos.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    return monos


def monomial(m: Mono, registry: VariableRegistry) -> RationalFunction:
    return RationalFunction.from_poly(MultiPoly({m: 1}), registry)


def derivative_terms(field: FieldContext, m: Mono,
                     symbol: str) -> list[tuple[Mono, RationalFunction]]:
    """d_symbol(x^m) as (shift, value) pairs summing to it as sum x^shift *
    value: one pair per term, with a constant value, when the derivative is
    a polynomial; the whole derivative with the empty shift otherwise (a
    rebased derivation with rational coefficients)."""
    d = field.derive(monomial(m, field.registry), symbol)
    if not d.is_poly():
        return [(EMPTY_MONO, d)]
    return [(shift, RationalFunction.const(c, field.registry))
            for shift, c in d.num.rational_terms().items()]


def leibniz_rows(field: FieldContext, monomials: list[Mono], shapes: list[list],
                 stages: list[tuple[str, list[list], list]]
                 ) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """Q-linear rows of nabla_s(a) == rhs for each stage (s, nablas, rhs),
    where a = sum z_k * monomials[m] * shapes[j] with k = m * len(shapes) + j,
    nablas[j] is nabla_s(shapes[j]) entry by entry and rhs has one entry per
    shape entry.  Equation e of a stage gathers, per shape, m*nabla_s(S)[e]
    and d_s(m)*S[e], with d_s(m) taken once per monomial and stage."""
    count = len(shapes)
    equations: list[list[Term]] = []
    rhs: list[RationalFunction] = []
    for symbol, nablas, target in stages:
        d_monomials = [derivative_terms(field, m, symbol) for m in monomials]
        rhs += target
        for e in range(len(target)):
            terms: list[Term] = []
            for j, (S, nabla) in enumerate(zip(shapes, nablas)):
                value = nabla[e]
                if not value.is_zero():
                    terms += [(m * count + j, mono, value)
                              for m, mono in enumerate(monomials)]
                entry = S[e]
                if entry.is_zero():
                    continue
                terms += [(m * count + j, shift, d if entry.is_one() else d * entry)
                          for m, dm in enumerate(d_monomials) for shift, d in dm]
            equations.append(terms)
    return match_coefficients(equations, rhs)


def match_coefficients(equations: list[list[Term]], rhs: list[RationalFunction]
                       ) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """Turn the identities sum over (k, shift, value) of z_k * x^shift *
    value == rhs[e], one per equation e, into a Q-linear system: multiply
    each by the lcm D of its distinct denominators, clear every distinct
    value once, shift its terms and match monomial coefficients.  Rows are
    sparse: one dict from unknown index to nonzero coefficient per monomial.
    Any nonzero multiple of D gives the same solution set."""
    rows: list[dict[int, Fraction]] = []
    out_rhs: list[Fraction] = []
    for terms, target in zip(equations, rhs):
        den = target.den
        for d in dict.fromkeys(value.den for _, _, value in terms):
            if not d.is_one() and d != den:
                den = lcm(den, d)
        cleared: dict[RationalFunction, dict] = {}
        by_mono: dict[Mono, dict[int, Fraction]] = {}
        for k, shift, value in terms:
            c = cleared.get(value)
            if c is None:
                c = cleared[value] = (value.num * exact_div(den, value.den)).rational_terms()
            for mono, coeff in c.items():
                row = by_mono.setdefault(mono + shift, {})
                prev = row.get(k)
                row[k] = coeff if prev is None else prev + coeff
        cleared_rhs = (target.num * exact_div(den, target.den)).rational_terms()
        for mono in cleared_rhs:
            by_mono.setdefault(mono, {})
        for mono, row in by_mono.items():
            # Contributions to one unknown can cancel; keep only nonzeros.
            rows.append({k: c for k, c in row.items() if c})
            out_rhs.append(cleared_rhs.get(mono, _ZERO))
    return rows, out_rhs
