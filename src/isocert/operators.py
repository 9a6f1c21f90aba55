"""Monic linear differential operators in one derivation over Q(parameters).

D = d^n - sum_{i<n} c_i d^i, applied through any field context, so the same
operator acts on rational functions, tower elements and curve elements.
`reduction_telescoper` is the one telescoping path for both telescopers (over
k(x) and on genus-one curves): the ascending search for the minimal such D,
the identity check its caller passes in, one `TelescoperResult` and one
`TelescoperNotFound`.

The certificate identities of both telescopers and of the reductions behind
them are checked here alone, each as one polynomial identity over a known
product, with no gcd in x.  A factor list [(F, e), ...] stands for
prod F^e.  With w = f^(1/2) on a curve w^2 = f, p*s for s = w lies over a
list in which f has a half-integer exponent (s = 1 when every exponent is
an integer), and p itself over prod F^ceil(e) (`_product`).
`_check_operator_identity` checks D(b*s) = d_x(g*s), and
`_check_exact_plus_class` checks v*s = d_x(g*s) + s * sum n_k/(d_k*F_k).
"""

from __future__ import annotations

import math
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
            operator = LinearDiffOperator(t_name, tuple(-c for c in sol.particular))
            check(operator, certificate)
            return TelescoperResult(operator, certificate, minimal_certified=True)
    raise TelescoperNotFound(max_order)


def _product(factors: list[tuple]) -> MultiPoly:
    """prod F^ceil(e) over the pairs (F, e): the product that p lies over
    when p*s lies over the factor list."""
    out = MultiPoly.one()
    for f, e in factors:
        out = out * f ** math.ceil(e)
    return out


def _sum_over_lcm(terms: list[tuple], m: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """(sum n_k*M/d_k, M) over the pairs (n_k, d_k), M the lcm of m and the
    d_k; every d_k is free of x, so M takes no gcd in x."""
    for _, d in terms:
        m = lcm(m, d)
    total = MultiPoly.zero()
    for n, d in terms:
        total = total + n * exact_div(m, d)
    return total, m


def _derive_over(num: MultiPoly, factors: list[tuple], v: int
                 ) -> tuple[MultiPoly, list[tuple], MultiPoly]:
    """The quotient rule over a known product, with no gcd.

    With P = prod F^e over `factors`, R the product of the F that d_v moves
    and S = sum e*d_v(F)*R/F over them, d_v(num/P) = (d_v(num)*R - num*S)/(P*R).
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


def _over(value: RationalFunction, known: MultiPoly, x: int) -> tuple[MultiPoly, MultiPoly]:
    """(N, X) with value = N/(X*known) and X = lc_x(value.den), free of x.

    If value.den = D*P with D free of x and P primitive in x dividing known,
    then X*known/value.den = lc_x(P)*known/P is a polynomial; the one exact
    division that computes it checks that claim and raises ArithmeticError
    when it fails."""
    den = value.den
    lead = den.coefficient(x, den.degree(x))
    return value.num * exact_div(lead * known, den), lead


def _check_operator_identity(operator: LinearDiffOperator, b: RationalFunction,
                             cert: RationalFunction, factors: list[tuple], x: int,
                             t: int) -> None:
    """D(b*s) = d_x(cert*s) for D in d_t, b*s over an x-free X times the
    factors.

    With N_i/P_i = d_t^i(b*s) and R the product of the factors d_t moves,
    D(b*s) = sum a_i N_i R^(n-i) / (M*P_n) by Horner's rule, M the lcm of
    the denominators of the c_i, a_n = M and a_i = -c_i*M; P_n is X^E times
    prod F^E_F, E_F = e_F + n if d_t moves F and e_F if not.  cert*s lies
    over an x-free X' times prod F^(E_F - 1), so d_x of it lies over the
    same x-part, and both sides are compared over the lcm of M*X^E and X'.
    Raises ArithmeticError when the identity fails.
    """
    num, lead = _over(b, _product(factors), x)
    factors = [(lead, 1)] + factors
    m = MultiPoly.one()
    for c in operator.coeffs:
        m = lcm(m, c.den)
    lhs = MultiPoly.zero()
    for i in range(operator.order + 1):
        if i:
            num, factors, r = _derive_over(num, factors, t)
            lhs = lhs * r
        if i == operator.order:
            lhs = lhs + m * num
        elif not (c := operator.coeffs[i]).is_zero():
            lhs = lhs - c.num * exact_div(m, c.den) * num
    (lead, e_lead), *raised = factors
    cert_factors = [(f, e - 1) for f, e in raised]
    num, cert_lead = _over(cert, _product(cert_factors), x)
    rhs, _, _ = _derive_over(num, cert_factors, x)
    lhs_den = m * lead ** e_lead
    common = lcm(lhs_den, cert_lead)
    if lhs * exact_div(common, lhs_den) != rhs * exact_div(common, cert_lead):
        raise ArithmeticError("the operator identity does not hold")


def _check_exact_plus_class(value: RationalFunction, cert: RationalFunction,
                            factors: list[tuple], classes: list[tuple], x: int) -> None:
    """value*s = d_x(cert*s) + s * sum n_k/(d_k*F_k), cert*s over an x-free
    X times the factors and each class term a triple (n_k, d_k, F_k), d_k
    free of x and F_k one of the factors.

    Both sides are multiplied by M * prod F^e * R, the denominator of
    d_x(cert*s) from `_derive_over` with M the lcm of X and the d_k in place
    of X; value.den is divided into it exactly.  Raises ArithmeticError when
    the identity fails.
    """
    known = _product(factors)
    num, lead = _over(cert, known, x)
    derivative, _, r = _derive_over(num, factors, x)
    total, m = _sum_over_lcm([(n * exact_div(r, f), d) for n, d, f in classes], lead)
    lhs = value.num * exact_div(m * known * r, value.den)
    if lhs != derivative * exact_div(m, lead) + known * total:
        raise ArithmeticError("the identity does not hold")
