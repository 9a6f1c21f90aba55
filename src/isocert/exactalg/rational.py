"""Reduced rational functions over Q in registered variables.

Canonical form: gcd(num, den) = 1 and the denominator is monic under the
graded-lex leading term, so equality of values is equality of representations
and instances are hashable.  All operations are pure.  Making the denominator
monic scales both polynomials by one rational, which changes only their
contents (see `poly`), never their integer terms.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, exact_div, gcd
from .registry import ExactAlgError, VariableRegistry


class ZeroDenominator(ExactAlgError):
    pass


class RationalFunction:
    __slots__ = ("num", "den", "registry", "_hash")

    def __init__(self, num: MultiPoly, den: MultiPoly, registry: VariableRegistry,
                 _reduced: bool = False):
        if den.is_zero():
            raise ZeroDenominator("division by zero")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self.registry = registry
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_poly(p: MultiPoly, registry: VariableRegistry) -> "RationalFunction":
        return RationalFunction(p, MultiPoly.one(), registry, _reduced=True)

    @staticmethod
    def const(c, registry: VariableRegistry) -> "RationalFunction":
        return RationalFunction.from_poly(MultiPoly.const(Fraction(c)), registry)

    @staticmethod
    def var(name: str, registry: VariableRegistry) -> "RationalFunction":
        return RationalFunction.from_poly(MultiPoly.var(registry.index(name)), registry)

    def _lift(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction.from_poly(other, self.registry)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other, self.registry)
        return NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    def variables(self) -> set[int]:
        return self.num.variables() | self.den.variables()

    # -- field operations ------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den, self.registry)
        if self.den.is_one():
            return RationalFunction(self.num * other.den + other.num, other.den,
                                    self.registry, _reduced=True)
        if other.den.is_one():
            return RationalFunction(self.num + other.num * self.den, self.den,
                                    self.registry, _reduced=True)
        # Henrici: with reduced inputs a/b + c/d and g = gcd(b, d), the sum
        # (a*(d/g) + c*(b/g)) / (b*(d/g)) only needs reduction against g.
        g = gcd(self.den, other.den)
        if g.is_one():
            return RationalFunction(self.num * other.den + other.num * self.den,
                                    self.den * other.den, self.registry,
                                    _reduced=True)
        b1 = exact_div(self.den, g)
        d1 = exact_div(other.den, g)
        t = self.num * d1 + other.num * b1
        if t.is_zero():
            return RationalFunction(t, MultiPoly.one(), self.registry, _reduced=True)
        h = gcd(t, g)
        if h.is_one():
            return RationalFunction(t, b1 * other.den, self.registry, _reduced=True)
        den = b1 * exact_div(other.den, h)
        return RationalFunction(exact_div(t, h), den, self.registry, _reduced=True)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, self.registry, _reduced=True)

    def __sub__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalFunction.from_poly(MultiPoly.zero(), self.registry)
        if other.is_one():
            return self
        if self.is_one():
            return other
        # Cross-reduce, after which the product is already in lowest terms
        # (denominators stay monic under graded-lex).
        g1 = gcd(self.num, other.den)
        g2 = gcd(other.num, self.den)
        n1 = self.num if g1.is_one() else exact_div(self.num, g1)
        d2 = other.den if g1.is_one() else exact_div(other.den, g1)
        n2 = other.num if g2.is_one() else exact_div(other.num, g2)
        d1 = self.den if g2.is_one() else exact_div(self.den, g2)
        num, den = _monic_den(n1 * n2, d1 * d2)
        return RationalFunction(num, den, self.registry, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def _inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDenominator("division by zero")
        num, den = _monic_den(self.den, self.num)
        return RationalFunction(num, den, self.registry, _reduced=True)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n == 0:
            return RationalFunction.const(1, self.registry)
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("zero to a negative power")
            base = RationalFunction(self.den, self.num, self.registry)
            n = -n
        else:
            base = self
        return RationalFunction(base.num ** n, base.den ** n, self.registry, _reduced=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        from .printing import format_rational

        return f"<{format_rational(self)}>"

    # -- calculus ----------------------------------------------------------

    def derive(self, var_name: str) -> "RationalFunction":
        """Partial derivative with respect to a registered variable."""
        v = self.registry.index(var_name)
        return self.derive_index(v)

    def derive_index(self, v: int) -> "RationalFunction":
        dn = self.num.derivative(v)
        if self.den.is_one():
            return RationalFunction(dn, self.den, self.registry, _reduced=True)
        dd = self.den.derivative(v)
        if dd.is_zero():
            return RationalFunction(dn, self.den, self.registry)
        t = dn * self.den - self.num * dd
        if t.is_zero():
            return RationalFunction(t, MultiPoly.one(), self.registry, _reduced=True)
        h = gcd(t, self.den)
        if h.is_one():
            return RationalFunction(t, self.den * self.den, self.registry,
                                    _reduced=True)
        return RationalFunction(exact_div(t, h), self.den * exact_div(self.den, h),
                                self.registry)


def _reduce(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if num.is_zero():
        return MultiPoly.zero(), MultiPoly.one()
    if den.is_const():
        c = den.const_value()
        return (num if c == 1 else num.scale(Fraction(1) / c)), MultiPoly.one()
    g = gcd(num, den)
    if not g.is_one():
        num = exact_div(num, g)
        den = exact_div(den, g)
    return _monic_den(num, den)


def _monic_den(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num/den with den made monic: both scale by one rational, which only
    changes their contents."""
    monic = den.monic()
    if monic is den:
        return num, den
    return num.scale(monic.content / den.content), monic
