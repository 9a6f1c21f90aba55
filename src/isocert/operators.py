"""Monic linear differential operators in one derivation over Q(parameters),
the one telescoping path both telescopers run on, and their certificates.

D = d^n - sum_{i<n} c_i d^i acts through any field context, on rational
functions, tower elements and curve elements alike.  `reduction_telescoper`
searches for the minimal D, runs its caller's identity check and returns
the one `TelescoperResult` or raises the one `TelescoperNotFound`.

A certificate (on a curve, each of its even and odd parts) is one
`Certificate`: a numerator N over an x-free denominator D and a factor list
[(F, e), ...] with c*s = N / (D * prod F^e).  Each F is q_p = b*x - a for a
pole p = a/b (`_pole_factor`) or, on a curve w^2 = f, f at a half-integer
exponent, so that s = w (s = 1 when every exponent is an integer); c lies
over D * prod F^ceil(e) (`_product`).  The reductions build the record,
`_derive_over` derives it and `_sum` adds records, none of them with a gcd
in x.  A `Reduction` keeps its records, and `Certificate.value`, the one
normalization, runs once per part, where a result's `certificate` is first
read.  `_check_identity` is the one check, D(b*s) = d_x(cert*s) + classes,
on the records as they stand; a reduction is its case D = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .exactalg import (ExactAlgError, MultiPoly, RationalFunction, VariableRegistry,
                       exact_div, gcd, lcm, linear_solve)
from .exactalg.factor import _q_adic
from .exactalg.rational import _monic_den
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
                total = total - c * derivs[i]
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


class Certificate:
    """A numerator over its x-free denominator and known factor list in x;
    see the module docstring.  `x` is the index of the integration variable."""

    __slots__ = ("num", "den", "factors", "x", "registry")

    def __init__(self, num: MultiPoly, den: MultiPoly, factors: list, x: int,
                 registry: VariableRegistry):
        self.num, self.den, self.factors, self.x, self.registry = num, den, factors, x, registry

    def derive(self, v: int) -> "Certificate":
        num, den, factors, _ = _derive_over(self.num, self.den, self.factors, v)
        return Certificate(num, den, factors, self.x, self.registry)

    def scaled(self, c: RationalFunction) -> "Certificate":
        """c times the value, for c free of x."""
        return Certificate(self.num * c.num, self.den * c.den, self.factors, self.x,
                           self.registry)

    def value(self) -> RationalFunction:
        """c in lowest terms with a monic denominator: N and D * prod F^ceil(e)
        divided exactly by their gcd, taken factor by factor (a linear q
        while N vanishes at its root, f by its gcd with N, D by its gcd with
        N's coefficients in x)."""
        num, x, common = self.num, self.x, MultiPoly.one()
        if num.is_zero():
            return RationalFunction(num, common, self.registry, _reduced=True)
        for f, e in self.factors:
            k = math.ceil(e)
            if f.degree(x) == 1:
                b, a = f.coefficient(x, 1), -f.coefficient(x, 0)
                while k > 0 and _q_adic(num, x, a, b, 1)[0].is_zero():
                    num, common, k = exact_div(num, f), common * f, k - 1
            elif k > 0 and not (g := gcd(num, f ** k)).is_one():
                num, common = exact_div(num, g), common * g
        g = _free_gcd(self.den, num, x)
        num, den = _monic_den(exact_div(num, g),
                              exact_div(self.den * _product(self.factors), common * g))
        return RationalFunction(num, den, self.registry, _reduced=True)


class Reduction:
    """A class `h1` and the records `parts` of its certificate, whose
    normalization `value(parts)` is `certificate`, made on first read."""

    def __init__(self, h1, *parts: Certificate):
        self.h1, self.parts = h1, parts

    @cached_property
    def certificate(self):
        return self.value(self.parts)

    def value(self, parts: tuple[Certificate, ...]):  # one record; a curve has two
        return parts[0].value()


def _free_gcd(free: MultiPoly, num: MultiPoly, x: int) -> MultiPoly:
    """gcd of the x-free `free` with the coefficients in x of num."""
    for c in () if free.is_const() else num.as_univariate(x).values():
        if (free := gcd(free, c)).is_one():
            break
    return free


def _pole_factor(pole: RationalFunction, x: int) -> MultiPoly:
    """q_p = b*x - a for the pole p = a/b, primitive in x."""
    return pole.den * MultiPoly.var(x) - pole.num


def _product(factors: list[tuple]) -> MultiPoly:
    """prod F^ceil(e) over the pairs (F, e): the product that c lies over
    when c*s lies over the factor list."""
    out = MultiPoly.one()
    for f, e in factors:
        out = out * f ** math.ceil(e)
    return out


def _sum(terms: list[Certificate]) -> Certificate:
    """The sum of the records, over the lcm M of their x-free denominators
    and the largest exponent of each factor (0 where a record lacks it);
    only the lcm takes a gcd, free of x.  A zero record adds only factors."""
    m, top = MultiPoly.one(), {}
    for term in terms:
        m = lcm(m, term.den)
        for f, e in term.factors:
            top[f] = max(e, top.get(f, e))
    total = MultiPoly.zero()
    for term in terms:
        if term.num.is_zero():
            continue
        have = dict(term.factors)
        missing = [(f, e - have.get(f, 0)) for f, e in top.items() if e != have.get(f, 0)]
        total = total + term.num * exact_div(m, term.den) * _product(missing)
    first = terms[0]
    return Certificate(total, m, list(top.items()), first.x, first.registry)


def reduction_telescoper(first, step, coords, check, t_name: str,
                         registry: VariableRegistry, max_order: int) -> TelescoperResult:
    """Minimal monic D in d_t with D(b) = d_x(certificate), by reduction-based
    creative telescoping (Bostan-Chen-Chyzak-Li 2010; Chen-Kauers-Koutschan
    2016).

    `first` is the `Reduction` of b: b = d_x(certificate) + class.  `step`
    maps the reduction of d_t^j b to that of d_t^(j+1) b, `coords` maps a
    reduction to the coordinates of its class (a dict key -> coefficient in
    Q(params)).  For ascending n, one linear solve looks for the first
    Q(params)-linear dependence of the class vectors of orders 0..n; the
    first one found is minimal.  `check(operator, *parts)` verifies
    D(b) = d_x(certificate) on the records sum e_j*certificate_j before
    their normalization is returned.  Raises TelescoperNotFound when there
    is no dependence up to max_order.
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
            terms = [(e, r) for e, r in zip([*sol.particular, one], reductions)
                     if not e.is_zero()]
            parts = [_sum([r.parts[i].scaled(e) for e, r in terms])
                     for i in range(len(first.parts))]
            operator = LinearDiffOperator(t_name, tuple(-c for c in sol.particular))
            check(operator, *parts)
            return TelescoperResult(operator, reduction.value(parts), minimal_certified=True)
    raise TelescoperNotFound(max_order)


def _derive_over(num: MultiPoly, den: MultiPoly, factors: list[tuple], v: int
                 ) -> tuple[MultiPoly, MultiPoly, list[tuple], MultiPoly]:
    """The quotient rule over a known product, with no gcd in x.

    With P = den * prod F^e over `factors`, R = R_D * prod R_F over the F
    that d_v moves and S the matching sum of e*d_v(F)*R/F, d_v(num/P) =
    (d_v(num)*R - num*S)/(P*R).  R_F = F, but the x-free den D has
    R_D = D/gcd(D, d_v D), so that a power in D does not double at each step.
    Returns that numerator, D*R_D, the factors with each moved F^e made
    F^(e+1), and R.
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
    if not (dd := den.derivative(v)).is_zero():
        g = gcd(den, dd)
        r_d = exact_div(den, g)
        s, r, den = exact_div(dd, g) * r + r_d * s, r_d * r, den * r_d
    raised = [(f, e if df.is_zero() else e + 1) for (f, e), df in zip(factors, derivs)]
    return num.derivative(v) * r - num * s, den, raised, r


def _over(value: RationalFunction, known: MultiPoly, x: int) -> tuple[MultiPoly, MultiPoly]:
    """(N, X) with value = N/(X*known) and X = lc_x(value.den), free of x.

    If value.den = D*P with D free of x and P primitive in x dividing known,
    then X*known/value.den = lc_x(P)*known/P is a polynomial; the one exact
    division that computes it checks that claim and raises ArithmeticError
    when it fails."""
    den = value.den
    lead = den.coefficient(x, den.degree(x))
    return value.num * exact_div(lead * known, den), lead


def _check_identity(operator: LinearDiffOperator, b: RationalFunction, factors: list[tuple],
                    cert: Certificate, classes=()) -> None:
    """D(b*s) = d_x(cert*s) + the sum of the class records, D in d_t for
    t = operator.symbol (a reduction is D = 1), b*s over an x-free X times
    the factors.  With N_i/P_i = d_t^i(b*s) and R_i the multiplier of step
    i, D(b*s) = sum a_i N_i R_i...R_(n-1) / (M*P_n) by Horner's rule, M the
    lcm of the denominators of the c_i, a_n = M and a_i = -c_i*M; that
    record minus the right side must be zero, or ArithmeticError is raised."""
    x, reg = cert.x, cert.registry
    t = reg.index(operator.symbol)
    num, den = _over(b, _product(factors), x)
    m = MultiPoly.one()
    for c in operator.coeffs:
        m = lcm(m, c.den)
    lhs = MultiPoly.zero()
    for i in range(operator.order + 1):
        if i:
            num, den, factors, r = _derive_over(num, den, factors, t)
            lhs = lhs * r
        if i == operator.order:
            lhs = lhs + m * num
        elif not (c := operator.coeffs[i]).is_zero():
            lhs = lhs - c.num * exact_div(m, c.den) * num
    if not _sum([Certificate(-lhs, m * den, factors, x, reg), cert.derive(x),
                 *classes]).num.is_zero():
        raise ArithmeticError("the identity does not hold")
