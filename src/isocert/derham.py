"""Reduction modulo d/dx in Q(params)(x), the induced parameter action on
canonical classes, minimal telescopers with certificates, and the bivariate
exactness decision used as a flattening obstruction.

Canonical form: every class in K/(d_x K) for K = k(x) has a unique
representative sum b_i/(x - c_i) with b_i, c_i in k; reduction produces that
representative together with a certificate g such that

    f = d_x(g) + sum b_i/(x - c_i)      (verified on every call).

Both identities are checked by `operators` (s = 1) over the pole structure
the reduction knows: each pole p = a/b gives q_p = b*x - a, and the
certificate lies over an x-free D times prod q_p^e_p.  The reduction
f = d_x(g) + sum r_p*b_p/q_p is checked by `_check_exact_plus_class`, and a
telescoper D(b) = d_x(g) by `_check_operator_identity` over prod q_p^m_p,
m_p the order of b at p.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import (MultiPoly, NonLinearFactor, RationalFunction, VariableRegistry,
                       exact_div, gcd, lcm, partial_fractions)
from .exactalg.factor import _q_adic, _rf_sort_key
from .exactalg.rational import _monic_den
from .operators import (LinearDiffOperator, TelescoperNotFound,  # noqa: F401
                        TelescoperResult, _check_exact_plus_class,
                        _check_operator_identity, _derive_over, _product,
                        _sum_over_lcm, reduction_telescoper)


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


class ReductionResult:
    """Equal results have equal classes and certificates; `orders`, which
    describes the certificate's denominator, does not take part."""

    __slots__ = ("h1", "certificate", "orders")

    def __init__(self, h1: H1Class, certificate: RationalFunction,
                 orders: dict[RationalFunction, int]):
        self.h1 = h1
        self.certificate = certificate
        # Pole -> e_p > 0 with certificate.den = D * prod q_p^e_p, D free of x.
        self.orders = orders

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReductionResult) and self.h1 == other.h1
                and self.certificate == other.certificate)

    def __hash__(self) -> int:
        return hash((self.h1, self.certificate))


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
    result = ReductionResult(H1Class(residues), _lowest_terms(num, den, l_part, x, reg),
                             orders)
    _check_reduction(f, result, x_name)
    return result


def _lowest_terms(num: MultiPoly, den: MultiPoly, l_part: MultiPoly, x: int,
                  reg: VariableRegistry) -> RationalFunction:
    """N/(D*L) in lowest terms with a monic denominator, for D free of x and
    N prime to L: the only gcd is the one of D with the x-coefficients of N.
    N = 0 only when L = 1; then the gcd is D and the result is 0/1."""
    g = den
    for c in () if den.is_const() else num.as_univariate(x).values():
        g = gcd(g, c)
        if g.is_one():
            break
    num, den = _monic_den(exact_div(num, g), exact_div(den, g) * l_part)
    return RationalFunction(num, den, reg, _reduced=True)


def _check_reduction(f: RationalFunction, result: ReductionResult, x_name: str) -> None:
    """f = d_x(N/(D*L)) + sum r_p/(x - p), by `_check_exact_plus_class` over
    the factors q_p^e_p of every pole (e_p = 0 at a simple pole only), with
    each r_p/(x - p) = r_p*b_p/q_p a class term.

    `result.orders` maps each pole of the certificate N/(D*L) to e_p, and
    must give L = prod q_p^e_p exactly: the certificate's denominator over L
    must be a polynomial free of x.  A division that leaves a remainder fails
    the check.
    """
    x = f.registry.index(x_name)
    residues, orders = result.h1.residues, result.orders
    q = {p: p.den * MultiPoly.var(x) - p.num for p in {*orders, *residues}}
    factors = [(qp, orders.get(p, 0)) for p, qp in q.items()]
    try:
        if exact_div(result.certificate.den, _product(factors)).degree(x) > 0:
            raise ArithmeticError("x left in the certificate's denominator")
        _check_exact_plus_class(f, result.certificate, factors, [
            (r.num * p.den, r.den, q[p]) for p, r in residues.items()], x)
    except ArithmeticError:
        raise AssertionError("reduction identity failed; this is a bug") from None


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
    factors = [(q[p], r.orders.get(p, 0)) for p in poles]
    d_part = exact_div(cert.den, _product(factors))
    num, factors, _ = _derive_over(cert.num, [(d_part, 1)] + factors, t)
    (_, e_d), *raised = factors
    exps = {p: e for p, (_, e) in zip(poles, raised)}
    slopes = {p: res * dp for p, res in residues.items()
              if not (dp := p.derive(t_name)).is_zero()}
    d_power = d_part ** e_d
    full = _product([(q[p], e) for p, e in exps.items()])
    moved, den = _sum_over_lcm([(c.num * p.den * exact_div(full, q[p]), c.den)
                                for p, c in slopes.items()], d_power)
    num = num * exact_div(den, d_power) - moved
    if num.is_zero():
        return ReductionResult(gm_derivative(r.h1, t_name), RationalFunction.const(0, reg), {})
    for p in poles:
        if q[p].derivative(t).is_zero():
            while exps[p] and _q_adic(num, x, p.num, p.den, 1)[0].is_zero():
                num = exact_div(num, q[p])
                exps[p] -= 1
    orders = {p: e for p, e in exps.items() if e}
    cert = _lowest_terms(num, den, _product([(q[p], e) for p, e in orders.items()]), x, reg)
    return ReductionResult(gm_derivative(r.h1, t_name), cert, orders)


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
    """D(b) = d_x(cert) over prod q_p^m_p: `poles` maps each pole p of b to
    its order m_p (a larger m_p does as well).  A division that leaves a
    remainder fails the check."""
    x = b.registry.index(x_name)
    q = [(p.den * MultiPoly.var(x) - p.num, m) for p, m in poles.items()]
    try:
        _check_operator_identity(operator, b, cert, q, x, b.registry.index(t_name))
    except ArithmeticError:
        raise AssertionError("telescoper identity failed; this is a bug") from None


# -- bivariate exactness: d_t2(f1) - d_t1(f2) = g ---------------------------


class Exact2FormSolvable:
    __slots__ = ("f1", "f2")

    def __init__(self, f1: RationalFunction, f2: RationalFunction):
        self.f1 = f1
        self.f2 = f2


class Exact2FormUnsolvable:
    __slots__ = ("pole", "residue", "residue_class")

    def __init__(self, pole: RationalFunction, residue: RationalFunction,
                 residue_class: H1Class):
        self.pole = pole
        self.residue = residue
        self.residue_class = residue_class


class Exact2FormUnsupported:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


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
