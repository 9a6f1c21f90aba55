"""Squarefree factorization, linear splitting and partial fractions.

Pole finding is complete for denominators whose squarefree parts split into
factors linear in the distinguished variable over the remaining fraction
field, located by content/primitive recursion over the parameter variables,
p-adic root finding (Loos: Newton lifting of the simple roots modulo a
prime, each candidate checked exactly) for univariate factors over Q, and
an exact discriminant square root for quadratics.  Anything richer raises
NonLinearFactor rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import (MultiPoly, ZeroPolynomial, content_wrt, exact_div, gcd,
                   mono_exponent, mono_key_grlex, poly_sqrt, prem,
                   squarefree_decomposition)
from .rational import RationalFunction
from .registry import ExactAlgError, VariableRegistry


class NonLinearFactor(ExactAlgError):
    """An irreducible factor of degree >= 2 in the distinguished variable
    remains; the base field extension it would need is unsupported."""


def squarefree_factor(p: MultiPoly, v: int) -> list[tuple[MultiPoly, int]]:
    """Squarefree decomposition of p in variable v over the fraction field of
    the remaining variables; factors primitive, monic, pairwise coprime."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial")
    _, factors = squarefree_decomposition(p, v)
    return factors


def rational_roots(coeffs) -> list[Fraction]:
    """Distinct rational roots of sum coeffs[i] * x^i in ascending order;
    [] for the zero polynomial.

    Loos's p-adic method.  With a(x) the primitive squarefree part (root 0
    peeled) of degree d and leading coefficient lc > 0, the roots of a are
    r/lc for the integer roots r of the monic h(y) = lc^(d-1) a(y/lc), and
    |r| <= B, the Cauchy bound of h.  At the first odd prime p at which every
    root of h mod p is simple, each integer root reduces to one of those
    roots and is its unique Newton lift, so the symmetric residues of the
    lifts modulo p^k > 2B are the only candidates; each is checked exactly.
    """
    terms = {i: Fraction(c) for i, c in enumerate(coeffs) if c}
    if not terms:
        return []
    low = min(terms)
    roots = [Fraction(0)] if low else []
    f = MultiPoly.from_univariate(0, {i - low: MultiPoly.const(c)
                                      for i, c in terms.items()})
    sqf = exact_div(f, gcd(f, f.derivative(0))).monic().as_univariate(0)
    d = max(sqf)
    if d == 0:
        return roots
    # Monic over Q, so scaling by the lcm of the denominators gives a
    # primitive integer polynomial with leading coefficient lc = that lcm.
    lc = math.lcm(*(c.const_value().denominator for c in sqf.values()))
    a = [int(sqf[i].const_value() * lc) if i in sqf else 0 for i in range(d + 1)]
    h = [c * lc ** (d - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    dh = [i * c for i, c in enumerate(h)][1:]
    p = 3
    while True:
        # Wilson's theorem: p is prime iff (p - 1)! = -1 mod p.
        if math.factorial(p - 1) % p == p - 1:
            lifts = [r for r in range(p) if _horner(h, r, p) == 0]
            if all(_horner(dh, r, p) for r in lifts):
                break
        p += 2
    bound = 2 * (1 + max(abs(c) for c in h[:-1]))
    m = p
    while m <= bound:
        m *= m
        lifts = [(r - _horner(h, r, m) * pow(_horner(dh, r, m), -1, m)) % m
                 for r in lifts]
    for r in lifts:
        s = r - m if 2 * r > m else r
        if _horner(h, s) == 0:
            roots.append(Fraction(s, lc))
    return sorted(roots)


def _horner(coeffs: list[int], x: int, m: int | None = None) -> int:
    """sum coeffs[i] * x^i, reduced mod m when m is given."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def _roots_of_squarefree(q: MultiPoly, v: int,
                         registry: VariableRegistry) -> list[RationalFunction]:
    """Roots in the remaining fraction field of a polynomial squarefree in v;
    raises NonLinearFactor unless q splits completely."""
    d = q.degree(v)
    if d <= 0:
        return []
    if d == 1:
        u = q.as_univariate(v)
        a0 = u.get(0, MultiPoly.zero())
        a1 = u[1]
        return [RationalFunction(-a0, a1, registry)]
    # Peel factors that differ in their dependence on some parameter.
    for other in sorted(q.variables() - {v}, reverse=True):
        cont = content_wrt(q, other)
        if cont.degree(v) >= 1:
            rest = exact_div(q, cont)
            return (_roots_of_squarefree(cont, v, registry)
                    + _roots_of_squarefree(rest, v, registry))
    if q.variables() <= {v}:
        u = q.as_univariate(v)
        roots = rational_roots([u[e].const_value() if e in u else 0
                                for e in range(d + 1)])
        if len(roots) != d:
            raise NonLinearFactor(f"univariate factor of degree {d} does not split over Q")
        return [RationalFunction.const(r, registry) for r in roots]
    if d == 2:
        u = q.as_univariate(v)
        a = u.get(2, MultiPoly.zero())
        b = u.get(1, MultiPoly.zero())
        c = u.get(0, MultiPoly.zero())
        disc = b * b - MultiPoly.const(4) * a * c
        s = poly_sqrt(disc)
        if s is not None:
            two_a = MultiPoly.const(2) * a
            return [RationalFunction(-b + s, two_a, registry),
                    RationalFunction(-b - s, two_a, registry)]
        if len(q.variables()) > 2:
            raise NonLinearFactor("irreducible quadratic factor")
    roots = _roots_by_newton_lifting(q, v, registry)
    if roots is not None:
        return roots
    raise NonLinearFactor(f"cannot split factor of degree {d} in the distinguished variable")


# -- one-parameter splitting by Newton lifting --------------------------------
#
# For q(v; u) over Q with a single remaining parameter u: specialize u to a
# generic rational point, lift each simple rational root to a power series in
# (u - tau) by Newton iteration, reconstruct a bounded-degree rational
# function, and verify the division exactly.  Verification makes the lifting
# choices sound; failure falls through to NonLinearFactor.

_LIFT_POINTS = (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, 11)


def _series_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _series_inv(a: list[Fraction], n: int) -> list[Fraction] | None:
    if not a or a[0] == 0:
        return None
    inv = [Fraction(0)] * n
    inv[0] = 1 / a[0]
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if j < len(a) and a[j] != 0:
                acc += a[j] * inv[k - j]
        inv[k] = -acc / a[0]
    return inv


def _poly_to_series(p: MultiPoly, u: int, tau: Fraction, n: int) -> list[Fraction]:
    """Expand p(u) around u = tau + s, truncated to order n:
    (tau + s)^e = sum_k C(e,k) tau^(e-k) s^k."""
    out = [Fraction(0)] * n
    for mono, c in p.rational_terms().items():
        e = mono_exponent(mono, u)
        for k in range(min(e, n - 1) + 1):
            out[k] += c * Fraction(math.comb(e, k)) * tau ** (e - k)
    return out


def _series_eval_poly(coeffs: dict[int, list[Fraction]], c: list[Fraction],
                      n: int) -> list[Fraction]:
    top = max(coeffs)
    acc = list(coeffs.get(top, [Fraction(0)] * n))
    for e in range(top - 1, -1, -1):
        acc = _series_mul(acc, c, n)
        add = coeffs.get(e)
        if add:
            acc = [x + (add[i] if i < len(add) else 0) for i, x in enumerate(acc)]
    return acc


def _newton_lift(coeffs: dict[int, list[Fraction]], rho: Fraction,
                 n: int) -> list[Fraction] | None:
    dcoeffs = {e - 1: [Fraction(e) * x for x in s]
               for e, s in coeffs.items() if e >= 1}
    c = [Fraction(0)] * n
    c[0] = rho
    for _ in range(max(4, n.bit_length() + 2)):
        val = _series_eval_poly(coeffs, c, n)
        if all(x == 0 for x in val):
            return c
        dval = _series_eval_poly(dcoeffs, c, n)
        inv = _series_inv(dval, n)
        if inv is None:
            return None
        corr = _series_mul(val, inv, n)
        c = [c[i] - corr[i] for i in range(n)]
    val = _series_eval_poly(coeffs, c, n)
    return c if all(x == 0 for x in val) else None


def _reconstruct_rational(series: list[Fraction], bound: int, u: int,
                          tau: Fraction, registry: VariableRegistry) -> RationalFunction | None:
    """Find C, D of degree <= bound with C(s) = series * D(s) mod s^len and
    D(0) = 1; return C(u - tau)/D(u - tau)."""
    n = len(series)
    from .linalg import linear_solve as _solve

    # unknowns: C_0..C_bound, D_1..D_bound  (D_0 = 1)
    n_c = bound + 1
    n_d = bound
    rows = []
    rhs = []
    for k in range(n):
        row = {}
        if k < n_c:
            row[k] = Fraction(-1)
        for j in range(1, min(k, n_d) + 1):
            row[n_c + j - 1] = series[k - j]
        rows.append(row)
        rhs.append(-series[k])
    sol = _solve(rows, rhs, n_c + n_d, Fraction(0), Fraction(1))
    if sol.inconsistent:
        return None
    vec = sol.particular
    s_poly = MultiPoly.var(u) - MultiPoly.const(tau)
    C = MultiPoly.zero()
    D = MultiPoly.one()
    for k in range(n_c):
        if vec[k]:
            C = C + s_poly ** k * MultiPoly.const(vec[k])
    for j in range(1, n_d + 1):
        if vec[n_c + j - 1]:
            D = D + s_poly ** j * MultiPoly.const(vec[n_c + j - 1])
    if D.is_zero():
        return None
    return RationalFunction(C, D, registry)


def _roots_by_newton_lifting(q: MultiPoly, v: int,
                             registry: VariableRegistry) -> list[RationalFunction] | None:
    rest = sorted(q.variables() - {v})
    if len(rest) != 1:
        return None
    u = rest[0]
    d = q.degree(v)
    bound = q.degree(u)
    n = 2 * bound + 3
    coeffs_poly = q.as_univariate(v)
    q_rf = RationalFunction.from_poly(q, registry)
    for point in _LIFT_POINTS:
        tau = Fraction(point)
        coeffs = {e: _poly_to_series(p, u, tau, n) for e, p in coeffs_poly.items()}
        lead = coeffs.get(d)
        if lead is None or lead[0] == 0:
            continue
        dense = [coeffs.get(e, [Fraction(0)])[0] for e in range(d + 1)]
        rhos = rational_roots(dense)
        if len(rhos) != d:
            continue
        roots = []
        for rho in rhos:
            series = _newton_lift(coeffs, rho, n)
            if series is None:
                break
            c = _reconstruct_rational(series, bound, u, tau, registry)
            if c is None or not q_rf.substitute(v, c).is_zero():
                break
            roots.append(c)
        if len(roots) == d:
            return roots
    return None


def linear_poles(den: MultiPoly, v: int,
                 registry: VariableRegistry) -> list[tuple[RationalFunction, int]]:
    """Poles (root, multiplicity) of 1/den in variable v, deterministically
    ordered; raises NonLinearFactor when den does not split v-linearly."""
    out: list[tuple[RationalFunction, int]] = []
    for factor, mult in squarefree_factor(den, v):
        roots = _roots_of_squarefree(factor, v, registry)
        if len(roots) != factor.degree(v):
            raise NonLinearFactor("incomplete splitting")
        out.extend((r, mult) for r in roots)
    out.sort(key=lambda pair: _rf_sort_key(pair[0]))
    return out


def _rf_sort_key(f: RationalFunction):
    def poly_key(p: MultiPoly):
        return tuple(sorted(((mono_key_grlex(m), c) for m, c in p.rational_terms().items()),
                            reverse=True))

    return (poly_key(f.den), poly_key(f.num))


@dataclass(frozen=True)
class PoleTerm:
    pole: RationalFunction
    order: int
    coeff: RationalFunction


@dataclass(frozen=True)
class PartialFractions:
    """f = poly_part + sum coeff/(v - pole)^order, exactly."""

    poly_part: RationalFunction
    terms: tuple[PoleTerm, ...]

    def recombine(self, v: int) -> RationalFunction:
        reg = self.poly_part.registry
        x = RationalFunction.from_poly(MultiPoly.var(v), reg)
        total = self.poly_part
        for t in self.terms:
            total = total + t.coeff / (x - t.pole) ** t.order
        return total


def partial_fractions(f: RationalFunction, v_name: str) -> PartialFractions:
    registry = f.registry
    v = registry.index(v_name)
    if f.den.degree(v) <= 0:
        return PartialFractions(f, ())
    # Pseudo-division: lc^e * num = q * den + prem(num, den) with lc the
    # v-free leading coefficient of den, so the polynomial part is q / lc^e.
    lc_e = f.den.coefficient(v, f.den.degree(v)) ** max(
        f.num.degree(v) - f.den.degree(v) + 1, 0)
    q = exact_div(f.num * lc_e - prem(f.num, f.den, v), f.den)
    poly_part = RationalFunction(q, lc_e, registry)
    proper = f - poly_part
    poles = linear_poles(f.den, v, registry)
    x = RationalFunction.from_poly(MultiPoly.var(v), registry)
    terms: list[PoleTerm] = []
    for pole, mult in poles:
        g = proper * (x - pole) ** mult
        h = g
        for s in range(mult):
            value = h.substitute(v, pole) / Fraction(math.factorial(s))
            if not value.is_zero():
                terms.append(PoleTerm(pole=pole, order=mult - s, coeff=value))
            if s + 1 < mult:
                h = h.derive_index(v)
    terms.sort(key=lambda t: (_rf_sort_key(t.pole), t.order))
    return PartialFractions(poly_part, tuple(terms))
