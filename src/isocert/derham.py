"""Reduction modulo d/dx in Q(params)(x), the induced parameter action on
canonical classes, minimal telescopers with certificates, and the bivariate
exactness decision used as a flattening obstruction.

Canonical form: every class in K/(d_x K) for K = k(x) has a unique
representative sum b_i/(x - c_i) with b_i, c_i in k; reduction produces that
representative together with a certificate g such that

    f = d_x(g) + sum b_i/(x - c_i)      (verified on every call).

Every identity is verified as one polynomial identity over a common multiple
built from the pole structure the reduction knows: each pole p = a/b gives
q_p = b*x - a, the certificate lies over an x-free D times prod q_p^e_p, and
the quotient rule over that product (`operators._derive_over`) raises each
exponent by one.  Each side is divided into the common multiple exactly and
no input denominator is multiplied in; the only gcds are those of x-free
lcms.  A telescoper D(b) = d_x(g) is checked the same way, with D applied to
b over prod q_p^m_p, m_p the order of b at p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import (MultiPoly, NonLinearFactor, RationalFunction, exact_div, gcd,
                       lcm, partial_fractions)
from .exactalg.factor import _q_adic, _rf_sort_key
from .exactalg.rational import _monic_den
from .operators import (LinearDiffOperator, TelescoperNotFound,  # noqa: F401
                        TelescoperResult, _apply_over, _derive_over, _over, _product,
                        reduction_telescoper)


class H1Class:
    """Finite map pole -> nonzero residue; the empty map is the zero class."""

    __slots__ = ("residues",)

    def __init__(self, residues: dict[RationalFunction, RationalFunction] | None = None):
        self.residues = {p: r for p, r in (residues or {}).items() if not r.is_zero()}

    def is_zero(self) -> bool:
        return not self.residues

    def poles(self) -> list[RationalFunction]:
        return sorted(self.residues, key=_rf_sort_key)

    def residue(self, pole: RationalFunction) -> RationalFunction | None:
        return self.residues.get(pole)

    def __add__(self, other: "H1Class") -> "H1Class":
        out = dict(self.residues)
        for p, r in other.residues.items():
            s = out.get(p)
            out[p] = r if s is None else s + r
        return H1Class(out)

    def scale(self, c: RationalFunction) -> "H1Class":
        return H1Class({p: c * r for p, r in self.residues.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, H1Class) and self.residues == other.residues

    def __hash__(self) -> int:
        return hash(frozenset(self.residues.items()))

    def __repr__(self) -> str:
        if not self.residues:
            return "H1Class(0)"
        bits = ", ".join(f"{p!r}: {r!r}" for p, r in sorted(
            self.residues.items(), key=lambda it: _rf_sort_key(it[0])))
        return f"H1Class({{{bits}}})"


@dataclass(frozen=True)
class ReductionResult:
    h1: H1Class
    certificate: RationalFunction
    # Pole -> e_p > 0 with certificate.den = D * prod q_p^e_p, D free of x.
    orders: dict[RationalFunction, int] = field(compare=False)


def reduce(f: RationalFunction, x_name: str) -> ReductionResult:
    """Canonical class of f in K/(d_x K) plus certificate.

    Poles of order >= 2 and the polynomial part move into the certificate;
    simple-pole residues form the class.  Requires x-linear poles.

    Every denominator is known in advance.  For a pole p = a/b of order
    e_p + 1 let q_p = b*x - a, so the term -c_m/((m-1)*(x - p)^(m-1)) is
    -c_m*b^(m-1)/((m-1)*q_p^(m-1)).  The certificate is N/(D*L) with
    L = prod q_p^e_p and D the lcm of the x-free denominators: each pole adds
    a Horner sum in q_p times the other poles' factors of L, and the
    polynomial part its antiderivative times L.  The top term at p is x-free
    and nonzero and the other factors are prime to q_p, so N is prime to L,
    and the only gcd left is the one of D with the x-coefficients of N.
    """
    reg = f.registry
    x = reg.index(x_name)
    pfd = partial_fractions(f, x_name)
    residues: dict[RationalFunction, RationalFunction] = {}
    higher: dict[RationalFunction, dict[int, RationalFunction]] = {}
    for term in pfd.terms:
        if term.order == 1:
            residues[term.pole] = term.coeff
        else:
            higher.setdefault(term.pole, {})[term.order] = term.coeff
    den = pfd.poly_part.den
    for coeffs in higher.values():
        for c in coeffs.values():
            den = lcm(den, c.den)
    num = pfd.poly_part.num.integral(x) * exact_div(den, pfd.poly_part.den)
    l_part = MultiPoly.one()
    orders: dict[RationalFunction, int] = {}
    for pole in sorted(higher, key=_rf_sort_key):
        coeffs = higher[pole]
        e = orders[pole] = max(coeffs) - 1
        q = pole.den * MultiPoly.var(x) - pole.num
        h = MultiPoly.zero()
        for j in range(1, e + 1):
            h = h * q
            if (c := coeffs.get(j + 1)) is not None:
                h = h + (c.num * exact_div(den, c.den) * pole.den ** j).scale(Fraction(-1, j))
        power = q ** e
        num = num * power + h * l_part
        l_part = l_part * power
    # N = 0 only when L = 1; then g = D and the certificate is 0/1.
    g = den
    for c in num.as_univariate(x).values():
        if g.is_one():
            break
        g = gcd(g, c)
    num, den = _monic_den(exact_div(num, g), exact_div(den, g) * l_part)
    result = ReductionResult(H1Class(residues), RationalFunction(num, den, reg, _reduced=True),
                             orders)
    _check_reduction(f, result, x_name, orders)
    return result


def _check_reduction(f: RationalFunction, result: ReductionResult, x_name: str,
                     orders: dict[RationalFunction, int]) -> None:
    """f = d_x(N/(D*L)) + sum r_p/(x - p) as one polynomial identity.

    `orders` maps each pole of the certificate N/(D*L) to e_p: L must be
    prod q_p^e_p and D free of x.  Over the factors q_p^e_p of every pole
    (e_p = 0 at a simple pole only), `_derive_over` gives
    d_x(N/(D*L)) = (N_x*R - N*S)/(D*L*R) with R = prod q_p, and
    r_p/(x - p) = r_p*b_p/q_p.  Both sides are multiplied by M*L*R, M the lcm
    of D and the residue denominators, which f.den divides if the identity
    holds; it is divided by f.den exactly rather than f.den multiplied in.  A
    division that leaves a remainder fails the check.
    """
    x = f.registry.index(x_name)
    residues = result.h1.residues
    q = {p: p.den * MultiPoly.var(x) - p.num for p in {*orders, *residues}}
    factors = [(qp, orders.get(p, 0)) for p, qp in q.items()]
    l_part = _product(factors)
    simple = MultiPoly.zero()
    try:
        m_part = d_part = exact_div(result.certificate.den, l_part)
        if d_part.degree(x) > 0:
            raise ArithmeticError("x left in the certificate's denominator")
        for r in residues.values():
            m_part = lcm(m_part, r.den)
        derivative, _, r_part = _derive_over(result.certificate.num, factors, x)
        for p, r in residues.items():
            simple = simple + (exact_div(r_part, q[p]) * p.den
                               * (r.num * exact_div(m_part, r.den)))
        lhs = f.num * exact_div(l_part * r_part * m_part, f.den)
        rhs = derivative * exact_div(m_part, d_part) + l_part * simple
    except ArithmeticError:
        raise AssertionError("reduction identity failed; this is a bug") from None
    if lhs != rhs:
        raise AssertionError("reduction identity failed; this is a bug")


def gm_derivative(cls: H1Class, d_name: str) -> H1Class:
    """Parameter action on canonical classes: differentiate residues, drop
    zeros.  Pole-motion terms are exact and disappear."""
    return H1Class({p: r.derive(d_name) for p, r in cls.residues.items()})


def derive_reduction(r: ReductionResult, x_name: str, t_name: str) -> ReductionResult:
    """The reduction of d_t f from the reduction r of f, with no partial
    fractions: if f = d_x(c) + sum r_p/(x-p), then
    d_t f = d_x(c' - sum r_p*p'/(x-p)) + sum r_p'/(x-p).  The certificate is
    the one `reduce(d_t f)` gives, since its normal form (a polynomial without
    constant term plus proper fractions in x) is closed under d_t.

    It is built over its known denominator, with no gcd in x.  With
    c = N/(D*L), L = prod q_p^e_p as r.orders says, `_derive_over` puts c'
    over D' * prod q_p^E_p, where E_p = e_p + 1 for each pole that d_t moves
    (a pole of the class alone enters with e_p = 0) and E_p = e_p for the
    others; each r_p*p'/(x-p) = r_p*p'*b_p/q_p goes over the same product.
    At a moving pole the numerator is nonzero mod q_p (its top term is
    -e_p*c_p*d_t(q_p), or -r_p*p'*b_p when e_p = 0), so E_p stays; at a
    pole d_t does not move, each factor q_p that divides the numerator is
    divided out.  The x-free part is reduced by its gcd with the
    numerator's coefficients in x.
    """
    reg = r.certificate.registry
    x, t = reg.index(x_name), reg.index(t_name)
    cert, residues = r.certificate, r.h1.residues
    poles = list({*r.orders, *residues})
    q = {p: p.den * MultiPoly.var(x) - p.num for p in poles}
    d_part = exact_div(cert.den, _product([(q[p], e) for p, e in r.orders.items()]))
    num, factors, _ = _derive_over(cert.num, [(d_part, 1)] + [
        (q[p], r.orders.get(p, 0)) for p in poles], t)
    (_, e_d), *raised = factors
    exps = {p: e for p, (_, e) in zip(poles, raised)}
    slopes = {p: res * dp for p, res in residues.items()
              if not (dp := p.derive(t_name)).is_zero()}
    den = d_power = d_part ** e_d
    for c in slopes.values():
        den = lcm(den, c.den)
    num = num * exact_div(den, d_power)
    full = _product([(q[p], e) for p, e in exps.items()])
    for p, c in slopes.items():
        num = num - c.num * exact_div(den, c.den) * p.den * exact_div(full, q[p])
    if num.is_zero():
        zero = RationalFunction(num, MultiPoly.one(), reg, _reduced=True)
        return ReductionResult(gm_derivative(r.h1, t_name), zero, {})
    for p in poles:
        if q[p].derivative(t).is_zero():
            while exps[p] and _q_adic(num, x, p.num, p.den, 1)[0].is_zero():
                num = exact_div(num, q[p])
                exps[p] -= 1
    g = den
    for c in () if den.is_const() else num.as_univariate(x).values():
        g = gcd(g, c)
        if g.is_one():
            break
    orders = {p: e for p, e in exps.items() if e}
    num, den = _monic_den(exact_div(num, g), exact_div(den, g) * _product(
        [(q[p], e) for p, e in orders.items()]))
    return ReductionResult(gm_derivative(r.h1, t_name),
                           RationalFunction(num, den, reg, _reduced=True), orders)


def telescoper(b: RationalFunction, x_name: str, t_name: str,
               max_order: int = 8) -> TelescoperResult:
    """Minimal monic D in d_t with D(b) = d_x(certificate).

    Reduces b once and gets the reduction of each d_t^j b from the previous
    one by `derive_reduction`; the ascending search for the first k-linear
    dependence of the residue vectors certifies minimality within the
    x-linear-pole domain.  The identity is checked before returning.
    """
    if t_name == x_name:
        raise ValueError(f"the parameter {t_name!r} is the integration variable")
    first = reduce(b, x_name)
    poles = dict.fromkeys(first.h1.residues, 1)
    poles.update((p, e + 1) for p, e in first.orders.items())
    return reduction_telescoper(
        first, lambda r: derive_reduction(r, x_name, t_name),
        lambda r: r.h1.residues,
        lambda op, cert: _check_telescoper(op, b, cert, x_name, t_name, poles),
        t_name, b.registry, max_order)


def _check_telescoper(operator: LinearDiffOperator, b: RationalFunction,
                      cert: RationalFunction, x_name: str, t_name: str,
                      poles: dict[RationalFunction, int]) -> None:
    """D(b) = d_x(cert) as one polynomial identity.

    `poles` maps each pole p of b to its order m_p (a larger m_p does as
    well), so b.den divides an x-free X times prod q_p^m_p.  `_apply_over`
    puts D(b) over M * X^E * prod q_p^E_p, with E_p = m_p + n where d_t
    moves q_p and E_p = m_p where it does not (n = order of D).  The certificate is a
    combination of the certificates of d_t^j b, j <= n, so its denominator
    divides an x-free X' times prod q_p^(E_p - 1), and d_x of it lies over
    X' * prod q_p^E_p.  The x-parts agree, so with L the lcm of M*X^E and X'
    the identity is the equality of two polynomials.  A division that leaves
    a remainder, here or in `_over`, fails the check.
    """
    reg = b.registry
    x, t = reg.index(x_name), reg.index(t_name)
    q = [(p.den * MultiPoly.var(x) - p.num, m) for p, m in poles.items()]
    try:
        num, lead = _over(b, _product(q), x)
        lhs, m_part, factors = _apply_over(operator, num, [(lead, 1)] + q, t)
        (lead, e_lead), *raised = factors
        cert_factors = [(qp, e - 1) for qp, e in raised]
        num, cert_lead = _over(cert, _product(cert_factors), x)
        rhs, _, _ = _derive_over(num, cert_factors, x)
        lhs_den = m_part * lead ** e_lead
        common = lcm(lhs_den, cert_lead)
        lhs = lhs * exact_div(common, lhs_den)
        rhs = rhs * exact_div(common, cert_lead)
    except ArithmeticError:
        raise AssertionError("telescoper identity failed; this is a bug") from None
    if lhs != rhs:
        raise AssertionError("telescoper identity failed; this is a bug")


# -- bivariate exactness: d_t2(f1) - d_t1(f2) = g ---------------------------


@dataclass(frozen=True)
class Exact2FormSolvable:
    f1: RationalFunction
    f2: RationalFunction


@dataclass(frozen=True)
class Exact2FormUnsolvable:
    pole: RationalFunction
    residue: RationalFunction
    residue_class: H1Class


@dataclass(frozen=True)
class Exact2FormUnsupported:
    reason: str


Exact2FormOutcome = Exact2FormSolvable | Exact2FormUnsolvable | Exact2FormUnsupported


def exact2form_solvable(g: RationalFunction, t1_name: str, t2_name: str) -> Exact2FormOutcome:
    """Decide existence of rational f1, f2 with d_t2(f1) - d_t1(f2) = g.

    The reduction of g in t1 gives g = d_t1(c) + sum r_p/(t1 - p), so
    f2 = -c takes the polynomial part and the higher-order t1-poles; each
    residue r_p must itself be a d_t2-derivative, which is the obstruction
    the residue witness reports.
    """
    reg = g.registry
    i1, i2 = reg.index(t1_name), reg.index(t2_name)
    if not g.variables() <= {i1, i2}:
        return Exact2FormUnsupported("input involves variables besides the two parameters")
    zero = RationalFunction.const(0, reg)
    if g.is_zero():
        return Exact2FormSolvable(zero, zero)
    try:
        red = reduce(g, t1_name)
    except NonLinearFactor as exc:
        return Exact2FormUnsupported(f"poles not linear in {t1_name}: {exc}")
    f1 = zero
    f2 = -red.certificate
    t1 = RationalFunction.var(t1_name, reg)
    for pole in red.h1.poles():
        residue = red.h1.residue(pole)
        try:
            rr = reduce(residue, t2_name)
        except NonLinearFactor as exc:
            return Exact2FormUnsupported(f"residue poles not linear in {t2_name}: {exc}")
        if not rr.h1.is_zero():
            return Exact2FormUnsolvable(pole, residue, rr.h1)
        h = rr.certificate
        f1 = f1 + h / (t1 - pole)
        dp = pole.derive(t2_name)
        if not dp.is_zero():
            f2 = f2 - h * dp / (t1 - pole)
    if f1.derive(t2_name) - f2.derive(t1_name) != g:
        raise AssertionError("two-form certificate identity failed; this is a bug")
    return Exact2FormSolvable(f1, f2)
