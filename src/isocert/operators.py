"""Monic linear differential operators in one derivation over Q(parameters).

D = d^n - sum_{i<n} c_i d^i, applied through any field context, so the same
operator acts on rational functions, tower elements and curve elements.
`reduction_telescoper` is the ascending search for the minimal such D that
both telescopers (over k(x) and on genus-one curves) run on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import RationalFunction, VariableRegistry, linear_solve
from .fields import FieldContext


@dataclass(frozen=True)
class LinearDiffOperator:
    symbol: str
    coeffs: tuple[RationalFunction, ...]  # c_0, ..., c_{n-1}

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def apply(self, field: FieldContext, element):
        derivs = [element]
        for _ in range(self.order):
            derivs.append(field.derive(derivs[-1], self.symbol))
        total = derivs[self.order]
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                total = total - field.from_rational(c) * derivs[i]
        return total

    def scaled_coefficients(self, factor: RationalFunction) -> list[RationalFunction]:
        """Coefficients [a_0, ..., a_n] of factor * D as a non-monic operator."""
        out = [-(factor * c) for c in self.coeffs]
        out.append(factor)
        return out

    @staticmethod
    def from_dependence(symbol: str, relation: list[RationalFunction]) -> "LinearDiffOperator":
        """Build the monic operator sum relation[j] * d^j with relation[-1] == 1:
        coefficients c_i = -relation[i]."""
        if not relation or not relation[-1].is_one():
            raise ValueError("relation must be monic in its top coefficient")
        return LinearDiffOperator(symbol, tuple(-c for c in relation[:-1]))


def reduction_telescoper(first, step, coords, t_name: str, registry: VariableRegistry,
                         max_order: int):
    """Minimal monic D in d_t with D(b) = d_x(certificate), by reduction-based
    creative telescoping (Bostan-Chen-Chyzak-Li 2010; Chen-Kauers-Koutschan
    2016).

    `first` is the reduction of b: a result with a class `h1` and a
    `certificate` such that b = d_x(certificate) + class.  `step` maps the
    reduction of d_t^j b to that of d_t^(j+1) b, `coords` maps a reduction to
    the coordinates of its class (a dict key -> coefficient in Q(params)).
    For ascending n, one linear solve looks for the first Q(params)-linear
    dependence of the class vectors of orders 0..n; the first one found is
    minimal.  Returns (operator, certificate), or None when there is none up
    to max_order.  The caller checks the identity D(b) = d_x(certificate).
    """
    zero = RationalFunction.const(0, registry)
    one = RationalFunction.const(1, registry)
    reductions, vectors, keys = [], [], {}
    reduction = first
    for n in range(max_order + 1):
        if n:
            reduction = step(reduction)
        reductions.append(reduction)
        vector = coords(reduction)
        keys.update(dict.fromkeys(vector))
        rows = [{j: v[k] for j, v in enumerate(vectors) if k in v} for k in keys]
        rhs = [-vector.get(k, zero) for k in keys]
        vectors.append(vector)
        sol = linear_solve(rows, rhs, n, zero, one)
        if not sol.inconsistent:
            certificate = reduction.certificate
            for e_j, r_j in zip(sol.particular, reductions):
                if not e_j.is_zero():
                    certificate = certificate + r_j.certificate * e_j
            relation = list(sol.particular) + [one]
            return LinearDiffOperator.from_dependence(t_name, relation), certificate
    return None
