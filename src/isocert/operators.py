"""Monic linear differential operators in one derivation over Q(parameters).

D = d^n - sum_{i<n} c_i d^i, applied through any field context, so the same
operator acts on rational functions, tower elements and curve elements.
`reduction_telescoper` is the one telescoping path for both telescopers (over
k(x) and on genus-one curves): the ascending search for the minimal such D,
the identity check its caller passes in, one `TelescoperResult` and one
`TelescoperNotFound`.

The identity checks work on numerators over known products of factors:
`_derive_over` is the quotient rule over such a product, `_apply_over`
applies D through it, and `_over` puts a reduced rational function over a
product its denominator is claimed to divide.  None of them takes a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (ExactAlgError, MultiPoly, RationalFunction, VariableRegistry,
                       exact_div, lcm, linear_solve)
from .fields import FieldContext


class TelescoperNotFound(ExactAlgError):
    """No dependence among the reduced derivatives up to max_order."""

    def __init__(self, max_order: int):
        super().__init__(f"no telescoper up to order {max_order}")
        self.max_order = max_order


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


@dataclass(frozen=True)
class TelescoperResult:
    operator: LinearDiffOperator
    certificate: object  # a RationalFunction, or a CurveElement on a curve
    minimal_certified: bool


def reduction_telescoper(first, step, coords, check, t_name: str,
                         registry: VariableRegistry, max_order: int) -> TelescoperResult:
    """Minimal monic D in d_t with D(b) = d_x(certificate), by reduction-based
    creative telescoping (Bostan-Chen-Chyzak-Li 2010; Chen-Kauers-Koutschan
    2016).

    `first` is the reduction of b: a result with a class `h1` and a
    `certificate` such that b = d_x(certificate) + class.  `step` maps the
    reduction of d_t^j b to that of d_t^(j+1) b, `coords` maps a reduction to
    the coordinates of its class (a dict key -> coefficient in Q(params)).
    For ascending n, one linear solve looks for the first Q(params)-linear
    dependence of the class vectors of orders 0..n; the first one found is
    minimal.  `check(operator, certificate)` verifies D(b) = d_x(certificate)
    before the result is returned.  Raises TelescoperNotFound when there is
    no dependence up to max_order.
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
            operator = LinearDiffOperator.from_dependence(t_name, list(sol.particular) + [one])
            check(operator, certificate)
            return TelescoperResult(operator, certificate, minimal_certified=True)
    raise TelescoperNotFound(max_order)


def _product(factors: list[tuple]) -> MultiPoly:
    """prod F^e over the pairs (F, e), each e a non-negative int."""
    out = MultiPoly.one()
    for f, e in factors:
        out = out * f ** e
    return out


def _derive_over(num: MultiPoly, factors: list[tuple], v: int
                 ) -> tuple[MultiPoly, list[tuple], MultiPoly]:
    """The quotient rule over a known product, with no gcd.

    `factors` is a list of pairs (F, e), e an int or a Fraction, standing for
    P = prod F^e.  With R the product of the F that d_v moves and
    S = sum e*d_v(F)*R/F over them, d_v(num/P) = (d_v(num)*R - num*S)/(P*R).
    Returns that numerator, the factors with the exponent of each moved F
    raised by one, and R.
    """
    derivs = [f.derivative(v) for f, _ in factors]
    r = MultiPoly.one()
    for (f, _), df in zip(factors, derivs):
        if not df.is_zero():
            r = r * f
    s = MultiPoly.zero()
    for (f, e), df in zip(factors, derivs):
        if e and not df.is_zero():
            s = s + (df * exact_div(r, f)).scale(e)
    return (num.derivative(v) * r - num * s,
            [(f, e if df.is_zero() else e + 1) for (f, e), df in zip(factors, derivs)], r)


def _apply_over(operator: LinearDiffOperator, num: MultiPoly, factors: list[tuple], v: int
                ) -> tuple[MultiPoly, MultiPoly, list[tuple]]:
    """D(num/P) for the monic D = d_v^n - sum c_i d_v^i and P = prod F^e as in
    `_derive_over`.  With N_i/P_i = d_v^i(num/P) and R the product of the
    moved factors, D(num/P) = sum a_i N_i R^(n-i) / (M*P_n), where M is the
    lcm of the denominators of the c_i, a_n = M and a_i = -c_i*M.  Returns
    that numerator (summed by Horner's rule), M and the factors of P_n."""
    m = MultiPoly.one()
    for c in operator.coeffs:
        m = lcm(m, c.den)
    total = MultiPoly.zero()
    for i in range(operator.order + 1):
        if i:
            num, factors, r = _derive_over(num, factors, v)
            total = total * r
        if i == operator.order:
            total = total + m * num
        elif not (c := operator.coeffs[i]).is_zero():
            total = total - c.num * exact_div(m, c.den) * num
    return total, m, factors


def _over(value: RationalFunction, known: MultiPoly, x: int) -> tuple[MultiPoly, MultiPoly]:
    """(N, X) with value = N/(X*known) and X = lc_x(value.den), free of x.

    If value.den = D*P with D free of x and P primitive in x dividing known,
    then X*known/value.den = lc_x(P)*known/P is a polynomial; the one exact
    division that computes it checks that claim and raises ArithmeticError
    when it fails."""
    den = value.den
    lead = den.coefficient(x, den.degree(x))
    return value.num * exact_div(lead * known, den), lead
