"""Shared bounded-ansatz utilities: monomial bases and conversion of
rational-function linear identities into Q-linear systems."""

from __future__ import annotations

from fractions import Fraction

from .exactalg import MultiPoly, RationalFunction, VariableRegistry, lcm
from .exactalg.poly import exact_div, mono_mul

_ZERO = Fraction(0)


def monomials_up_to(var_indices: list[int], bound: int,
                    registry: VariableRegistry) -> list[RationalFunction]:
    """All monomials in the given variables of total degree <= bound, in
    breadth-first order (the order fixes the order of ansatz unknowns)."""
    monos = [()]
    seen = {()}
    frontier = [()]
    for _ in range(bound):
        new_frontier = []
        for m in frontier:
            for idx in var_indices:
                cand = mono_mul(m, ((idx, 1),))
                if cand not in seen:
                    seen.add(cand)
                    monos.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    return [RationalFunction.from_poly(MultiPoly({m: Fraction(1)}), registry)
            for m in monos]


def match_coefficients(columns: list[list[RationalFunction]],
                       rhs: list[RationalFunction]
                       ) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """Turn sum_k z_k * columns[k] == rhs (componentwise rational-function
    identities) into a Q-linear system in len(columns) unknowns by clearing
    denominators and matching monomial coefficients.  Rows are sparse: one
    dict from unknown index to nonzero coefficient per monomial."""
    rows: list[dict[int, Fraction]] = []
    out_rhs: list[Fraction] = []
    for e in range(len(rhs)):
        entries = [(k, col[e]) for k, col in enumerate(columns) if not col[e].is_zero()]
        den = rhs[e].den
        for _, c in entries:
            den = lcm(den, c.den)
        by_mono: dict = {}
        for k, c in entries:
            for mono, coeff in (c.num * exact_div(den, c.den)).terms.items():
                by_mono.setdefault(mono, {})[k] = coeff
        cleared_rhs = (rhs[e].num * exact_div(den, rhs[e].den)).terms
        for mono in cleared_rhs:
            by_mono.setdefault(mono, {})
        for mono in sorted(by_mono):
            rows.append(by_mono[mono])
            out_rhs.append(cleared_rhs.get(mono, _ZERO))
    return rows, out_rhs
