"""Exact de Rham reduction on genus-one hyperelliptic curves w^2 = f(x)
and Picard-Fuchs operators with certificates.

Elements of the function field are p0 + p1*w with rational p0, p1 and w^2
eliminated eagerly.  Differential forms (q dx) reduce against the basis
{x^i dx/w : 0 <= i <= deg(f)-2}.  Poles away from the branch locus drop
through Hermite-style steps.  What is left is N/(D f^(m+1)) w dx with a
polynomial numerator N and an x-free denominator D, and the rest runs on N
and D alone: odd w-powers drop through the Bezout identity u*f + V*f' = 1
(a pseudo-remainder by f and one exact division per step), and x-degrees
drop through the exact forms d(x^j w).  D absorbs the denominator of V and
the powers of lc_x(f) the pseudo-division brings in, so these steps take no
gcd; each coordinate and the certificate are normalized once at the end.

Identities are verified as polynomial identities over known products, with
no gcd that involves x.  Writing w = f^(1/2), an odd part N/(D*f^a)*w is N
over D*f^(a - 1/2), so the quotient rule over a product of powers
(`operators._derive_over`) differentiates odd parts as well, with
dw = f_x*w/(2f) built in.  The even part of a reduction is the de Rham
identity with zero class (`derham._check_reduction`).  The odd part's
common multiple is f^a times the Hermite poles off the branch locus, each to
its order in the form, times an x-free lcm; a Picard-Fuchs identity D(b) =
d(certificate) is checked over f^(n + 1/2), n the order of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derham import H1Class, ReductionResult, _check_reduction
from .derham import reduce as derham_reduce
from .exactalg import (ExactAlgError, MultiPoly, NonLinearFactor,
                       RationalFunction, UPoly, VariableRegistry, exact_div, lcm,
                       partial_fractions, prem, upoly_xgcd)
from .exactalg.factor import _q_adic, _rf_sort_key
from .exactalg.poly import gcd as poly_gcd
from .fields import FieldContext
from .operators import (LinearDiffOperator, TelescoperResult, _apply_over, _derive_over,
                        _over, _product, reduction_telescoper)


class CurveError(ExactAlgError):
    pass


class UnsupportedPoles(CurveError):
    """The form has poles the reduction cannot move into the certificate
    (e.g. simple poles off the branch locus: third-kind differentials)."""


@dataclass
class CurveSpec:
    """w^2 = f(x; params) with f squarefree of degree 3 or 4 in x."""

    f: MultiPoly
    x_name: str
    registry: VariableRegistry

    def __post_init__(self):
        self.x_index = self.registry.index(self.x_name)
        d = self.f.degree(self.x_index)
        if d not in (3, 4):
            raise CurveError(f"curve degree must be 3 or 4, got {d}")
        self.degree = d
        self.fx = self.f.derivative(self.x_index)
        self.lc_x = self.f.coefficient(self.x_index, d)
        self.f_rf = RationalFunction.from_poly(self.f, self.registry)
        self.fx_rf = RationalFunction.from_poly(self.fx, self.registry)
        gg, _, v = upoly_xgcd(UPoly.from_rational(self.f_rf, self.x_index),
                              UPoly.from_rational(self.fx_rf, self.x_index))
        if gg.degree() != 0:
            raise CurveError("f must be squarefree in x")
        # V with u*f + V*f' = 1; its denominator is free of x.
        self.bezout_v = v.to_rational(self.x_index)

    def zero_element(self) -> "CurveElement":
        z = RationalFunction.const(0, self.registry)
        return CurveElement(z, z, self)

    def one_element(self) -> "CurveElement":
        return CurveElement(RationalFunction.const(1, self.registry),
                            RationalFunction.const(0, self.registry), self)

    def basis_size(self) -> int:
        return self.degree - 1

    def basis_form(self, i: int) -> "CurveElement":
        """The element whose dx-form is x^i dx/w."""
        x = RationalFunction.var(self.x_name, self.registry)
        zero = RationalFunction.const(0, self.registry)
        return CurveElement(zero, x ** i / self.f_rf, self)


class CurveElement:
    """p0 + p1*w with w^2 = f; arithmetic keeps w-degree <= 1."""

    __slots__ = ("even", "odd", "curve")

    def __init__(self, even: RationalFunction, odd: RationalFunction, curve: CurveSpec):
        self.even = even
        self.odd = odd
        self.curve = curve

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __add__(self, other):
        other = self._lift(other)
        return CurveElement(self.even + other.even, self.odd + other.odd, self.curve)

    __radd__ = __add__

    def __neg__(self):
        return CurveElement(-self.even, -self.odd, self.curve)

    def __sub__(self, other):
        other = self._lift(other)
        return CurveElement(self.even - other.even, self.odd - other.odd, self.curve)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        f = self.curve.f_rf
        even = self.even * other.even + self.odd * other.odd * f
        odd = self.even * other.odd + self.odd * other.even
        return CurveElement(even, odd, self.curve)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        f = self.curve.f_rf
        norm = other.even * other.even - other.odd * other.odd * f
        if norm.is_zero():
            raise ZeroDivisionError("division by zero on the curve")
        conj = CurveElement(other.even / norm, -other.odd / norm, self.curve)
        return self * conj

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveElement):
            other = self._lift(other)
        return self.even == other.even and self.odd == other.odd

    def __hash__(self):
        return hash((self.even, self.odd))

    def _lift(self, other) -> "CurveElement":
        if isinstance(other, CurveElement):
            return other
        if isinstance(other, RationalFunction):
            zero = RationalFunction.const(0, self.curve.registry)
            return CurveElement(other, zero, self.curve)
        if isinstance(other, (int, Fraction)):
            zero = RationalFunction.const(0, self.curve.registry)
            return CurveElement(RationalFunction.const(other, self.curve.registry),
                                zero, self.curve)
        raise TypeError(f"cannot coerce {other!r} onto the curve")

    def __repr__(self):
        return f"CurveElement({self.even!r} + ({self.odd!r})*w)"


def curve_w(curve: CurveSpec) -> CurveElement:
    return CurveElement(RationalFunction.const(0, curve.registry),
                        RationalFunction.const(1, curve.registry), curve)


def curve_derive(e: CurveElement, var_name: str) -> CurveElement:
    """d/dvar with dw = (df/dvar) * w / (2f), extended by Leibniz."""
    curve = e.curve
    df = curve.f_rf.derive(var_name)
    even = e.even.derive(var_name)
    odd = e.odd.derive(var_name)
    if not e.odd.is_zero() and not df.is_zero():
        odd = odd + e.odd * df / (curve.f_rf + curve.f_rf)
    return CurveElement(even, odd, curve)


class CurveContext(FieldContext):
    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self.registry = curve.registry
        self.zero = curve.zero_element()
        self.one = curve.one_element()

    def derive(self, element: CurveElement, symbol: str) -> CurveElement:
        return curve_derive(element, symbol)

    def from_rational(self, f: RationalFunction) -> CurveElement:
        zero = RationalFunction.const(0, self.curve.registry)
        return CurveElement(f, zero, self.curve)


@dataclass(frozen=True)
class CurveClass:
    """Coordinates in the basis {x^i dx/w : 0 <= i <= deg(f)-2}."""

    coords: tuple[RationalFunction, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


@dataclass(frozen=True)
class CurveReduction:
    h1: CurveClass
    certificate: CurveElement


def _split_f_level(p1: RationalFunction, curve: CurveSpec) -> tuple[int, RationalFunction]:
    """Write p1*w*dx = Q dx / w^(2m+1) with Q's denominator coprime to f:
    returns (m, Q), Q = p1 * f^(m+1).  Each factor f cancels g = gcd(den, f)
    by exact division, one gcd per level: num*(f/g) over den/g stays in
    lowest terms because gcd(f/g, den/g) = 1, and monic because gcd is."""
    f, x = curve.f, curve.x_index
    num, den = p1.num, p1.den
    g = poly_gcd(den, f)
    m = 0
    while True:
        if g.is_one():
            num = num * f
        else:
            num, den = num * exact_div(f, g), exact_div(den, g)
        if g.degree(x) <= 0 or (g := poly_gcd(den, f)).degree(x) <= 0:
            break
        m += 1
        if m >= 64:
            raise CurveError("cannot separate the branch-locus denominator")
    return m, RationalFunction(num, den, curve.registry, _reduced=True)


def _reduce_numerator(curve: CurveSpec, m: int, num: MultiPoly, den: MultiPoly
                      ) -> tuple[RationalFunction, tuple[RationalFunction, ...]]:
    """Reduce num/(den*f^(m+1)) * w dx with den free of x.  Every step
    works on the polynomial numerator; den absorbs the denominator of V and
    the powers of lc_x(f) that pseudo-division brings in, and nothing is
    normalized until the end.  Returns the odd certificate and the class
    coordinates."""
    x = curve.x_index
    f, fx, lc = curve.f, curve.fx, curve.lc_x
    v_num, v_den = curve.bezout_v.num, curve.bezout_v.den
    d = curve.degree
    f_pow = [MultiPoly.one()]
    for _ in range(m):
        f_pow.append(f_pow[-1] * f)
    cert = MultiPoly.zero()  # certificate numerator over den * f^m, den as it grows
    for level in range(m, 0, -1):
        # Bezout step: N = A f + B f' with B = N V mod f; then, with
        # s = 2/(1 - 2 level), N/f^(level+1) w dx = d(s B w / f^level)
        # + (A - s B')/f^level w dx.
        nv = num * v_num
        b = prem(nv, f, x)
        fold = v_den * lc ** max(nv.degree(x) - d + 1, 0)
        try:
            a = exact_div(num * fold - b * fx, f)
        except ArithmeticError:
            raise CurveError("Bezout division left a remainder; this is a bug") from None
        s = Fraction(2, 1 - 2 * level)
        cert = cert * fold + b.scale(s) * f_pow[m - level]
        den = den * fold
        num = a - b.derivative(x).scale(s)
    # Degree lowering with d(x^j w) = (j x^(j-1) f + x^j f'/2) dx / w.
    lc_inv = Fraction(1) / lc.const_value() if lc.is_const() else None
    while (n := num.degree(x)) >= d - 1:
        j = n - d + 1
        top = num.coefficient(x, n)
        if lc_inv is None:
            num, cert, den = num * lc, cert * lc, den * lc
        else:
            top = top.scale(lc_inv)
        lam = top.scale(Fraction(2, 2 * j + d))
        xj = MultiPoly.var(x, j)
        num = num - lam * (xj.derivative(x) * f + xj * fx.scale(Fraction(1, 2)))
        cert = cert + lam * xj * f_pow[m]
    reg = curve.registry
    parts = num.as_univariate(x)
    coords = tuple(RationalFunction(parts.get(i, MultiPoly.zero()), den, reg)
                   for i in range(curve.basis_size()))
    return RationalFunction(cert, den * f_pow[m], reg), coords


def curve_reduce(omega: CurveElement) -> CurveReduction:
    """Reduce the form omega*dx to the de Rham basis with an exact
    certificate: omega*dx = d(certificate) + sum coords_i * x^i dx/w."""
    curve = omega.curve
    reg = curve.registry
    x_name = curve.x_name
    x_idx = curve.x_index
    zero = RationalFunction.const(0, reg)
    cert = curve.zero_element()

    # Even part: an exact differential on the x-line, or unsupported.
    even_orders = {}
    if not omega.even.is_zero():
        try:
            rr = derham_reduce(omega.even, x_name)
        except NonLinearFactor as exc:
            raise UnsupportedPoles(str(exc)) from None
        if not rr.h1.is_zero():
            raise UnsupportedPoles("even part has simple poles (third-kind form)")
        cert = cert + CurveElement(rr.certificate, zero, curve)
        even_orders = rr.orders

    # The odd part's denominator divides an x-free factor times
    # f^level * prod q_c^j_c over its poles c off the branch locus, j_c the
    # order at c; each step below keeps to that product.
    remainder = omega.odd
    coords = (zero,) * curve.basis_size()
    x = RationalFunction.var(x_name, reg)
    level, poles = 1, {}
    guard = 0
    while not remainder.is_zero():
        guard += 1
        if guard > 200:
            raise CurveError("reduction did not terminate; this is a bug")
        m, Q = _split_f_level(remainder, curve)
        if guard == 1:
            level = m + 1
        if Q.den.degree(x_idx) == 0:
            odd, coords = _reduce_numerator(curve, m, Q.num, Q.den)
            cert = cert + CurveElement(zero, odd, curve)
            break
        # Hermite step at a pole off the branch locus.
        try:
            pfd = partial_fractions(Q, x_name)
        except NonLinearFactor as exc:
            raise UnsupportedPoles(str(exc)) from None
        if not poles:
            for term in pfd.terms:
                poles[term.pole] = max(poles.get(term.pole, 0), term.order)
        top = max(pfd.terms, key=lambda t: (t.order, _rf_sort_key(t.pole)))
        c, j, b = top.pole, top.order, top.coeff
        if j == 1:
            raise UnsupportedPoles(
                "simple pole off the branch locus (third-kind form)")
        f_at_c = RationalFunction(_q_adic(curve.f, x_idx, c.num, c.den, 1)[0],
                                  c.den ** curve.f.degree(x_idx), reg)
        kappa = b / (Fraction(-(j - 1)) * f_at_c)
        u = CurveElement(zero, kappa / (curve.f_rf ** m * (x - c) ** (j - 1)), curve)
        cert = cert + u
        remainder = remainder - curve_derive(u, x_name).odd
    result = CurveReduction(CurveClass(coords), cert)
    _check_curve_reduction(omega, result, even_orders, level, poles)
    return result


def _check_curve_reduction(omega: CurveElement, result: CurveReduction,
                           even_orders: dict[RationalFunction, int], level: int,
                           poles: dict[RationalFunction, int]) -> None:
    """omega dx = d(certificate) + sum coords_i x^i dx/w, part by part, as
    polynomial identities.

    Even part: omega.even = d_x(certificate.even), the de Rham identity with
    zero class; `even_orders` is the pole structure `derham.reduce` gave its
    certificate.  Odd part: omega.odd*w = d_x(certificate.odd*w) +
    sum c_i x^i/w, where `level` = a and `poles` = {c: j_c} say that
    omega.odd.den divides an x-free factor times f^a * H, H = prod q_c^j_c.
    The certificate's odd part then lies over X' * f^(a-1) * H', with
    H' = prod q_c^(j_c - 1), so its product with w lies over
    X' * f^(a - 3/2) * H', and `_derive_over` puts d_x of that over
    X' * f^(a - 1/2) * H.  Both sides are multiplied by M * f^(a - 1/2) * H, M
    the lcm of X' and the coordinate denominators; omega.odd.den is divided
    into M * f^a * H exactly.  A division that leaves a remainder fails the
    check.
    """
    curve = omega.curve
    cert = result.certificate
    if not (omega.even.is_zero() and cert.even.is_zero()):
        _check_reduction(omega.even, ReductionResult(H1Class(), cert.even, even_orders),
                         curve.x_name, even_orders)
    x, f = curve.x_index, curve.f
    q = [(c.den * MultiPoly.var(x) - c.num, j - 1) for c, j in poles.items()]
    known = _product([(f, level - 1)] + q)
    cls = MultiPoly.zero()
    try:
        num, lead = _over(cert.odd, known, x)
        derivative, _, r_part = _derive_over(num, [(f, level - Fraction(3, 2))] + q, x)
        m_part = lead
        for c in result.h1.coords:
            m_part = lcm(m_part, c.den)
        for i, c in enumerate(result.h1.coords):
            if not c.is_zero():
                cls = cls + c.num * exact_div(m_part, c.den) * MultiPoly.var(x, i)
        lhs = omega.odd.num * exact_div(m_part * known * r_part, omega.odd.den)
        rhs = (derivative * exact_div(m_part, lead)
               + known * exact_div(r_part, f) * cls)
    except ArithmeticError:
        raise AssertionError("curve reduction identity failed; this is a bug") from None
    if lhs != rhs:
        raise AssertionError("curve reduction identity failed; this is a bug")


def derive_curve_reduction(r: CurveReduction, t_name: str) -> CurveReduction:
    """The reduction of d_t omega from the reduction r of omega: if
    omega = d(C) + sum coords_k x^k/w, reduce d_t of the small representative
    sum coords_k x^k/w and add d_t(C) to its certificate.

    With the representative written R/(D*f) * w, R a polynomial and D the
    x-free lcm of the coordinate denominators,
    d_t(R/(D*f) * w) = (2f*(R_t*D - R*D_t) - R*D*f_t)/(2*D^2*f^2) * w, and
    that numerator goes to `_reduce_numerator` at level 1 as it stands.
    For forms without even part this is the certificate `curve_reduce`
    gives for d_t omega: it has no even part and its odd part is unique."""
    curve = r.certificate.curve
    x, t = curve.x_index, curve.registry.index(t_name)
    den = MultiPoly.one()
    for c in r.h1.coords:
        den = lcm(den, c.den)
    rep = MultiPoly.zero()
    for k, c in enumerate(r.h1.coords):
        if not c.is_zero():
            rep = rep + c.num * exact_div(den, c.den) * MultiPoly.var(x, k)
    f = curve.f
    num = ((rep.derivative(t) * den - rep * den.derivative(t)) * f.scale(2)
           - rep * den * f.derivative(t))
    odd, coords = _reduce_numerator(curve, 1, num, (den * den).scale(2))
    zero = RationalFunction.const(0, curve.registry)
    return CurveReduction(CurveClass(coords), CurveElement(zero, odd, curve)
                          + curve_derive(r.certificate, t_name))


def picard_fuchs(curve: CurveSpec, form_index: int, t_name: str,
                 max_order: int = 4) -> TelescoperResult:
    """Minimal monic operator D in d_t with D(x^i/w) dx = d(certificate).

    Reduces the basis form once and gets the reduction of each d_t^j of it
    from the previous one by `derive_curve_reduction`; the first linear
    dependence of the class vectors over the parameter field gives D.  The
    identity is checked before returning."""
    if t_name == curve.x_name:
        raise ValueError(f"the parameter {t_name!r} is the curve variable")
    if not 0 <= form_index < curve.basis_size():
        raise CurveError(f"form index {form_index} out of range")
    b = curve.basis_form(form_index)
    return reduction_telescoper(curve_reduce(b),
                                lambda r: derive_curve_reduction(r, t_name),
                                lambda r: dict(enumerate(r.h1.coords)),
                                lambda op, cert: _check_picard_fuchs(op, b, cert),
                                t_name, curve.registry, max_order)


def _check_picard_fuchs(operator: LinearDiffOperator, b: CurveElement,
                        cert: CurveElement) -> None:
    """D(b) dx = d(cert) for the basis form b = x^i/w, as one polynomial
    identity.

    b has no even part, so d_x(cert.even) must vanish: cert.even is free of
    x.  b.odd * w is N over X * f^(1/2) (`_over`), and `_apply_over` puts
    D(b) over M * X^E * f^(e + 1/2), where e = n (the order of D) if d_t
    moves f and e = 0 if it does not.  The certificate combines those of
    d_t^j b, j <= n, so cert.odd lies over X' * f^e and d_x(cert.odd * w)
    over X' * f^(e + 1/2).  The f-parts agree, and with L the lcm of
    M * X^E and X' the identity is the equality of two polynomials.  A
    division that leaves a remainder fails the check.
    """
    curve = b.curve
    x, t, f = curve.x_index, curve.registry.index(operator.symbol), curve.f
    even = cert.even
    try:
        if even.num.degree(x) > 0 or even.den.degree(x) > 0 or not b.even.is_zero():
            raise ArithmeticError("the even parts do not match")
        num, lead = _over(b.odd, f, x)
        lhs, m_part, factors = _apply_over(operator, num, [(lead, 1), (f, Fraction(1, 2))], t)
        (lead, e_lead), (_, e_f) = factors
        num, cert_lead = _over(cert.odd, f ** int(e_f - Fraction(1, 2)), x)
        rhs, _, _ = _derive_over(num, [(f, e_f - 1)], x)
        lhs_den = m_part * lead ** e_lead
        common = lcm(lhs_den, cert_lead)
        lhs = lhs * exact_div(common, lhs_den)
        rhs = rhs * exact_div(common, cert_lead)
    except ArithmeticError:
        raise AssertionError("Picard-Fuchs identity failed; this is a bug") from None
    if lhs != rhs:
        raise AssertionError("Picard-Fuchs identity failed; this is a bug")
