"""Exact de Rham reduction on genus-one hyperelliptic curves w^2 = f(x)
and Picard-Fuchs operators with certificates.

Elements of the function field are p0 + p1*w with rational p0, p1 and w^2
eliminated eagerly.  Differential forms (q dx) reduce against the basis
{x^i dx/w : 0 <= i <= deg(f)-2}.  Poles away from the branch locus move
into the certificate in one pass: one partial-fraction call gives every
principal part, and a triangular recurrence at each pole gives its share of
the certificate.  What is left is N/(D f^(m+1)) w dx with a polynomial
numerator N and an x-free denominator D, and the rest runs on N and D
alone: odd w-powers drop through the Bezout identity u*f + V*f' = 1 (a
pseudo-remainder by f and one exact division per step), and x-degrees drop
through the exact forms d(x^j w).  D absorbs the denominator of V and the
powers of lc_x(f) these steps bring in, so they take no gcd in x; each
coordinate is normalized at the end.

A certificate is a pair of `operators.Certificate` records: the even part,
a `derham` record, and the odd part, with f at a half-integer exponent
(s = w).  A reduction is checked part by part:
the even part as the de Rham identity with zero class, the odd part
omega.odd*w = d(cert.odd*w) + w*sum c_i x^i/f by `_check_exact_plus_class`.
A Picard-Fuchs identity D(b*w) = d(cert.odd*w) is checked by
`_check_operator_identity`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .derham import H1Class, ReductionResult, _check_reduction
from .derham import reduce as derham_reduce
from .exactalg import (ExactAlgError, MultiPoly, NonLinearFactor,
                       RationalFunction, UPoly, VariableRegistry, exact_div,
                       partial_fractions, prem, upoly_xgcd)
from .exactalg.factor import _q_adic
from .exactalg.poly import gcd as poly_gcd
from .fields import FieldContext
from .operators import (Certificate, LinearDiffOperator, Reduction, TelescoperResult,
                        _check_exact_plus_class, _check_operator_identity, _derive_over,
                        _free_gcd, _over, _pole_factor, _product, _sum, reduction_telescoper)


class CurveError(ExactAlgError):
    pass


class UnsupportedPoles(CurveError):
    """The form has poles the reduction cannot move into the certificate
    (e.g. simple poles off the branch locus: third-kind differentials)."""


class CurveSpec:
    """w^2 = f(x; params) with f squarefree of degree 3 or 4 in x."""

    __slots__ = ("f", "x_name", "registry", "x_index", "degree", "fx", "lc_x",
                 "f_rf", "fx_rf", "bezout_v")

    def __init__(self, f: MultiPoly, x_name: str, registry: VariableRegistry):
        self.f = f
        self.x_name = x_name
        self.registry = registry
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
    """d/dvar with dw = (df/dvar) * w / (2f), extended by Leibniz: the odd
    part p*w is p.num over p.den * f^(-1/2)."""
    curve = e.curve
    num, raised, _ = _derive_over(e.odd.num, [(MultiPoly.one(), 1), (e.odd.den, 1),
                                              (curve.f, Fraction(-1, 2))],
                                  curve.registry.index(var_name))
    odd = RationalFunction(num, _product(raised), curve.registry)
    return CurveElement(e.even.derive(var_name), odd, curve)


class CurveContext(FieldContext):
    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self.registry = curve.registry
        self.zero = curve.zero_element()
        self.one = curve.one_element()

    def derive(self, element: CurveElement, symbol: str) -> CurveElement:
        return curve_derive(element, symbol)


class CurveClass:
    """Coordinates in the basis {x^i dx/w : 0 <= i <= deg(f)-2}."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[RationalFunction, ...]):
        self.coords = coords

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


class CurveReduction(Reduction):
    """A class and the records (even, odd) of its certificate."""

    def __init__(self, h1: CurveClass, even: Certificate, odd: Certificate, curve: CurveSpec):
        super().__init__(h1, even, odd)
        self.curve = curve

    def value(self, parts: tuple[Certificate, ...]) -> CurveElement:
        return CurveElement(*(part.value() for part in parts), self.curve)


def _split_f_level(p1: RationalFunction, curve: CurveSpec) -> tuple[int, RationalFunction]:
    """Write p1*w*dx = Q dx / w^(2m+1) with Q's denominator coprime to f:
    returns (m, Q), Q = p1 * f^(m+1).  Each factor f cancels g = gcd(den, f)
    by exact division, one gcd per level: num*(f/g) over den/g stays in
    lowest terms because gcd(f/g, den/g) = 1, and monic because gcd is.
    The loop ends: each pass past the first divides den by a factor of
    positive degree in x."""
    f, x = curve.f, curve.x_index
    num, den = p1.num, p1.den
    g = poly_gcd(den, f)
    m = 0
    while True:
        num, den = num * exact_div(f, g), exact_div(den, g)
        if g.degree(x) <= 0 or (g := poly_gcd(den, f)).degree(x) <= 0:
            break
        m += 1
    return m, RationalFunction(num, den, curve.registry, _reduced=True)


def _reduce_numerator(curve: CurveSpec, m: int, num: MultiPoly, den: MultiPoly
                      ) -> tuple[Certificate, tuple[RationalFunction, ...]]:
    """Reduce num/(den*f^(m+1)) * w dx with den free of x.  Every step
    works on the polynomial numerator; den absorbs the denominator of V and
    the powers of lc_x(f) that pseudo-division and degree lowering bring
    in.  Returns the record of the odd certificate, over den*f^(m - 1/2),
    and the class coordinates, each normalized."""
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
    while (n := num.degree(x)) >= d - 1:
        j = n - d + 1
        lam = num.coefficient(x, n).scale(Fraction(2, 2 * j + d))
        num, cert, den = num * lc, cert * lc, den * lc
        xj = MultiPoly.var(x, j)
        num = num - lam * (xj.derivative(x) * f + xj * fx.scale(Fraction(1, 2)))
        cert = cert + lam * xj * f_pow[m]
    reg = curve.registry
    parts = num.as_univariate(x)
    coords = tuple(RationalFunction(parts.get(i, MultiPoly.zero()), den, reg)
                   for i in range(curve.basis_size()))
    g = _free_gcd(den, cert, x)  # the lc_x(f) and V factors mostly cancel
    cert, den = exact_div(cert, g), exact_div(den, g)
    return Certificate(cert, [(den, 1), (f, m - Fraction(1, 2))], x, reg), coords


def curve_reduce(omega: CurveElement) -> CurveReduction:
    """Reduce the form omega*dx to the de Rham basis with an exact
    certificate: omega*dx = d(certificate) + sum coords_i * x^i dx/w.

    The odd part is Q w dx / f^(m+1) with Q's denominator prime to f, and
    d(U w / f^m) = L(U) w dx / f^(m+1) with L(U) = U' f + (1/2 - m) U f'.
    At each pole c = a/b of Q, of order j, U_c = sum_{i<j} u_i / s^i with
    s = x - c matches Q's principal part down to order 2.  With
    f = sum phi_k s^k (phi_k = c_k b^(k-d) from the expansion of f in b*x - a)
    the s^(-n) coefficient of L(U_c) is -(n-1) phi_0 u_(n-1) plus
    sum_{i>=n} u_i phi_(i+1-n) ((1/2 - m)(i-n+1) - i), so the u_i follow
    from n = j down to 2 with pivot -(n-1) f(c), nonzero off the branch
    locus; what is left at n = 1 is a residue, a third-kind form.  Then
    Q - L(U) is a polynomial over an x-free denominator for
    `_reduce_numerator`."""
    curve = omega.curve
    reg = curve.registry
    x_name, x, f = curve.x_name, curve.x_index, curve.f
    zero = RationalFunction.const(0, reg)

    # Even part: an exact differential on the x-line, or unsupported.
    even = Certificate(MultiPoly.zero(), [(MultiPoly.one(), 1)], x, reg)
    if not omega.even.is_zero():
        try:
            rr = derham_reduce(omega.even, x_name)
        except NonLinearFactor as exc:
            raise UnsupportedPoles(str(exc)) from None
        if not rr.h1.is_zero():
            raise UnsupportedPoles("even part has simple poles (third-kind form)")
        [even] = rr.parts

    m, Q = _split_f_level(omega.odd, curve)
    try:
        pfd = partial_fractions(Q, x_name)
    except NonLinearFactor as exc:
        raise UnsupportedPoles(str(exc)) from None
    d, half = curve.degree, Fraction(1, 2) - m
    shares = []
    for c, q in pfd.principal.items():
        j = max(q)
        phi = [RationalFunction(ck, c.den ** max(d - k, 0), reg)
               for k, ck in enumerate(_q_adic(f, x, c.num, c.den, j))]
        u: dict[int, RationalFunction] = {}
        for n in range(j, 0, -1):
            rest = q.get(n, zero)
            for i in range(n, j):
                rest = rest - u[i] * phi[i + 1 - n] * (half * (i - n + 1) - i)
            if n > 1:
                u[n - 1] = rest / (phi[0] * (1 - n))
            elif not rest.is_zero():
                raise UnsupportedPoles("simple pole off the branch locus (third-kind form)")
        # u_i / s^i = u_i b^i q^(j-1-i) / q^(j-1) with q = b*x - a.
        qc = _pole_factor(c, x)
        shares += [Certificate(ui.num * c.den ** i * qc ** (j - 1 - i),
                               [(ui.den, 1), (qc, j - 1)], x, reg) for i, ui in u.items()]
    left_num, left_den, odd = Q.num, Q.den, []
    if shares:
        # Q - L(U) over the factors of d_x U: the principal parts cancel, so
        # prod q_c^j_c divides its numerator.
        U = _sum(shares)
        num, raised, r = _derive_over(U.num, U.factors, x)
        known = _product(raised[1:])
        q_num, lead = _over(Q, known, x)
        l_u = num * f + (U.num * r * curve.fx).scale(half)
        left = _sum([Certificate(q_num, [(lead, 1), *raised[1:]], x, reg),
                     Certificate(-l_u, raised, x, reg)])
        left_num, left_den = exact_div(left.num, known), left.factors[0][0]
        odd = [Certificate(U.num, U.factors + [(f, m - Fraction(1, 2))], x, reg)]
    rest, coords = _reduce_numerator(curve, m, left_num, left_den)
    result = CurveReduction(CurveClass(coords), even, _sum(odd + [rest]), curve)
    _check_curve_reduction(omega, result)
    return result


def _check_curve_reduction(omega: CurveElement, result: CurveReduction) -> None:
    """omega dx = d(certificate) + sum coords_i x^i dx/w, part by part, on
    the certificate's records.  A division that leaves a remainder fails."""
    curve = omega.curve
    even, odd = result.parts
    if not (omega.even.is_zero() and even.num.is_zero()):
        _check_reduction(omega.even, ReductionResult(H1Class(), even))
    x, f, reg = curve.x_index, curve.f, curve.registry
    classes = [Certificate(c.num * MultiPoly.var(x, i), [(c.den, 1), (f, Fraction(1, 2))],
                           x, reg) for i, c in enumerate(result.h1.coords) if not c.is_zero()]
    try:
        _check_exact_plus_class(omega.odd, odd, classes)
    except ArithmeticError:
        raise AssertionError("curve reduction identity failed; this is a bug") from None


def derive_curve_reduction(r: CurveReduction, t_name: str) -> CurveReduction:
    """The reduction of d_t omega from the reduction r of omega: if
    omega = d(C) + sum coords_k x^k/w, reduce d_t of the small representative
    sum coords_k x^k/w and add d_t(C) to its certificate.

    The representative is R over D * f^(1/2), D the x-free lcm of the
    coordinate denominators; d_t of it lies over D' * f^(a + 1/2), a = 1 if
    d_t moves f and 0 if not, and goes to `_reduce_numerator` at level a as
    it stands.  The records of C are derived and summed with no gcd in x and
    no normalization.  For forms without even part this is the certificate
    `curve_reduce` gives for d_t omega."""
    curve = r.curve
    x, reg = curve.x_index, curve.registry
    t = reg.index(t_name)
    w = (curve.f, Fraction(1, 2))
    rep = _sum([Certificate(c.num * MultiPoly.var(x, k), [(c.den, 1), w], x, reg)
                for k, c in enumerate(r.h1.coords)]).derive(t)
    [(den, e_den), (_, e_f)] = rep.factors
    odd, coords = _reduce_numerator(curve, math.ceil(e_f) - 1, rep.num, den ** e_den)
    even, prev = r.parts
    return CurveReduction(CurveClass(coords), even.derive(t), _sum([odd, prev.derive(t)]),
                          curve)


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
                                lambda op, even, odd: _check_picard_fuchs(op, b, even, odd),
                                t_name, curve.registry, max_order)


def _check_picard_fuchs(operator: LinearDiffOperator, b: CurveElement,
                        even: Certificate, odd: Certificate) -> None:
    """D(b) dx = d(cert) for the basis form b = x^i/w, part by part on the
    records of cert: d_x of the even record must vanish, and b.odd*w lies
    over f^(1/2).  A division that leaves a remainder fails the check."""
    curve = b.curve
    try:
        if not b.even.is_zero() or not even.derive(curve.x_index).num.is_zero():
            raise ArithmeticError("the even parts do not match")
        _check_operator_identity(operator, b.odd, [(curve.f, Fraction(1, 2))], odd,
                                 curve.registry.index(operator.symbol))
    except ArithmeticError:
        raise AssertionError("Picard-Fuchs identity failed; this is a bug") from None
