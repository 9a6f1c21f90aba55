"""Dense univariate polynomials with rational-function coefficients.

One variable is distinguished over the fraction field of the others.  The
one caller is `curve.CurveSpec`, whose Bezout cofactor V with u*f + V*f' = 1
comes from `upoly_xgcd`.  Coefficients are RationalFunction; index = power.
"""

from __future__ import annotations

from .poly import MultiPoly
from .rational import RationalFunction
from .registry import VariableRegistry


class UPoly:
    # __add__, __neg__, shift, derivative, eval and monic have no caller in
    # the library or its tests; perfbench/spans.py traces them by name, so
    # they stay until that list drops them.
    __slots__ = ("coeffs", "registry")

    def __init__(self, coeffs: list[RationalFunction], registry: VariableRegistry):
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = coeffs
        self.registry = registry

    @staticmethod
    def zero(registry: VariableRegistry) -> "UPoly":
        return UPoly([], registry)

    @staticmethod
    def const(c: RationalFunction) -> "UPoly":
        return UPoly([c], c.registry)

    @staticmethod
    def from_rational(f: RationalFunction, v: int) -> "UPoly":
        """View f as a polynomial in variable v; f's denominator must not
        involve v."""
        if f.den.degree(v) > 0:
            raise ValueError("denominator involves the distinguished variable")
        den = RationalFunction.from_poly(f.den, f.registry)
        parts = f.num.as_univariate(v)
        top = max(parts) if parts else -1
        coeffs = []
        for e in range(top + 1):
            p = parts.get(e)
            coeffs.append(RationalFunction.from_poly(p, f.registry) / den
                          if p is not None else RationalFunction.const(0, f.registry))
        return UPoly(coeffs, f.registry)

    def to_rational(self, v: int) -> RationalFunction:
        x = RationalFunction.from_poly(MultiPoly.var(v), self.registry)
        out = RationalFunction.const(0, self.registry)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, e: int) -> RationalFunction:
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        return RationalFunction.const(0, self.registry)

    def lc(self) -> RationalFunction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial")
        return self.coeffs[-1]

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] + other[i] for i in range(n)], self.registry)

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[i] - other[i] for i in range(n)], self.registry)

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs], self.registry)

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero() or other.is_zero():
            return UPoly.zero(self.registry)
        zero = RationalFunction.const(0, self.registry)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UPoly(out, self.registry)

    def scale(self, c: RationalFunction) -> "UPoly":
        return UPoly([a * c for a in self.coeffs], self.registry)

    def shift(self, k: int) -> "UPoly":
        """Multiply by v^k."""
        if self.is_zero():
            return self
        zero = RationalFunction.const(0, self.registry)
        return UPoly([zero] * k + list(self.coeffs), self.registry)

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        zero = RationalFunction.const(0, self.registry)
        q = [zero] * max(0, self.degree() - other.degree() + 1)
        r = list(self.coeffs)
        dlc = other.lc()
        dd = other.degree()
        while len(r) - 1 >= dd and r:
            if r[-1].is_zero():
                r.pop()
                continue
            k = len(r) - 1 - dd
            c = r[-1] / dlc
            q[k] = c
            for i in range(dd + 1):
                r[k + i] = r[k + i] - c * other.coeffs[i]
            r.pop()
        return UPoly(q, self.registry), UPoly(r, self.registry)

    def derivative(self) -> "UPoly":
        return UPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))],
                     self.registry)

    def eval(self, value: RationalFunction) -> RationalFunction:
        out = RationalFunction.const(0, self.registry)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        return self.scale(RationalFunction.const(1, self.registry) / self.lc())


def upoly_xgcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    registry = a.registry
    zero_rf = RationalFunction.const(0, registry)
    one_rf = RationalFunction.const(1, registry)
    r0, r1 = a, b
    s0, s1 = UPoly.const(one_rf), UPoly.zero(registry)
    t0, t1 = UPoly.zero(registry), UPoly.const(one_rf)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = one_rf / r0.lc()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)
