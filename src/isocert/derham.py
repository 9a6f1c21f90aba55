"""Reduction modulo d/dx in Q(params)(x), the induced parameter action on
canonical classes, minimal telescopers with certificates, and the bivariate
exactness decision used as a flattening obstruction.

Canonical form: every class in K/(d_x K) for K = k(x) has a unique
representative sum b_i/(x - c_i) with b_i, c_i in k; reduction produces that
representative together with a certificate g such that

    f = d_x(g) + sum b_i/(x - c_i)      (verified on every call).

The certificate is an `operators.Certificate` record (s = 1), over
q_p = b*x - a for each pole p = a/b of f.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import (MultiPoly, NonLinearFactor, RationalFunction, exact_div, lcm,
                       partial_fractions)
from .exactalg.factor import _rf_sort_key
from .operators import (Certificate, LinearDiffOperator, Reduction, TelescoperResult,
                        _check_exact_plus_class, _check_operator_identity, _pole_factor,
                        _sum, reduction_telescoper)


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


class ReductionResult(Reduction):
    """Equal results have equal classes and certificates."""

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
    e_p + 1 the term -c_m/((m-1)*(x - p)^(m-1)) is
    -c_m*b^(m-1)/((m-1)*q_p^(m-1)).  The certificate is N over D and the
    q_p^e_p, D the lcm of the x-free denominators: each pole, in the order
    of `partial_fractions`, adds a Horner sum in q_p times the other poles'
    factors, and the polynomial part its antiderivative times all of them.
    A simple pole goes through the same loop at e_p = 0, with an empty sum.
    """
    reg = f.registry
    x = reg.index(x_name)
    pfd = partial_fractions(f, x_name)
    den = pfd.poly_part.den
    for coeffs in pfd.principal.values():
        for order, c in coeffs.items():
            if order > 1:
                den = lcm(den, c.den)
    num = pfd.poly_part.num.integral(x) * exact_div(den, pfd.poly_part.den)
    l_part = MultiPoly.one()
    factors = [(den, 1)]
    residues: dict[RationalFunction, RationalFunction] = {}
    for pole, coeffs in pfd.principal.items():
        if (r := coeffs.get(1)) is not None:
            residues[pole] = r
        e = max(coeffs) - 1
        q = _pole_factor(pole, x)
        h = MultiPoly.zero()
        for j in range(1, e + 1):
            h = h * q
            if (c := coeffs.get(j + 1)) is not None:
                h = h + (c.num * exact_div(den, c.den) * pole.den ** j).scale(Fraction(-1, j))
        power = q ** e
        num = num * power + h * l_part
        l_part = l_part * power
        factors.append((q, e))
    result = ReductionResult(H1Class(residues), Certificate(num, factors, x, reg))
    _check_reduction(f, result)
    return result


def _check_reduction(f: RationalFunction, result: ReductionResult) -> None:
    """f = d_x(certificate) + sum r_p/(x - p) on the certificate's record,
    each r_p/(x - p) = r_p*b_p/q_p a class record.  A division that leaves a
    remainder fails the check."""
    x = result.parts[0].x
    classes = [Certificate(r.num * p.den, [(r.den, 1), (_pole_factor(p, x), 1)], x, f.registry)
               for p, r in result.h1.residues.items()]
    try:
        _check_exact_plus_class(f, result.parts[0], classes)
    except ArithmeticError:
        raise AssertionError("reduction identity failed; this is a bug") from None


def gm_derivative(cls: H1Class, d_name: str) -> H1Class:
    """Parameter action on canonical classes: differentiate residues, drop
    zeros.  Pole-motion terms are exact and disappear."""
    return H1Class({p: r.derive(d_name) for p, r in cls.residues.items()})


def derive_reduction(r: ReductionResult, t_name: str) -> ReductionResult:
    """The reduction of d_t f from the reduction r of f, with no partial
    fractions: if f = d_x(c) + sum r_p/(x-p), then
    d_t f = d_x(c' - sum r_p*p'/(x-p)) + sum r_p'/(x-p).  The certificate is
    the one `reduce(d_t f)` gives, since its normal form (a polynomial without
    constant term plus proper fractions in x) is closed under d_t.  Its
    record is that of c derived by `_derive_over` and summed with each
    -r_p*p'*b_p/q_p, with no gcd in x and no normalization.
    """
    [record] = r.parts
    x, reg = record.x, record.registry
    slopes = [Certificate(-(c.num * p.den), [(c.den, 1), (_pole_factor(p, x), 1)], x, reg)
              for p, res in r.h1.residues.items()
              if not (c := res * p.derive(t_name)).is_zero()]
    return ReductionResult(gm_derivative(r.h1, t_name),
                           _sum([record.derive(reg.index(t_name))] + slopes))


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
    # b lies over q_p^(e_p + 1) at each pole of the certificate's list.
    poles = [(q, e + 1) for q, e in first.parts[0].factors[1:]]
    return reduction_telescoper(
        first, lambda r: derive_reduction(r, t_name),
        lambda r: r.h1.residues,
        lambda op, cert: _check_telescoper(op, b, cert, t_name, poles),
        t_name, b.registry, max_order)


def _check_telescoper(operator: LinearDiffOperator, b: RationalFunction,
                      cert: Certificate, t_name: str, poles: list[tuple]) -> None:
    """D(b) = d_x(cert) on the certificate record, b over an x-free factor
    times `poles`, [(q_p, m_p), ...] with m_p at least b's order at p.  A
    division that leaves a remainder fails the check."""
    try:
        _check_operator_identity(operator, b, poles, cert, b.registry.index(t_name))
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
