"""Squarefree factorization, linear splitting and partial fractions.

Yun's algorithm gives the squarefree factors.  Pole finding handles
denominators whose squarefree parts split into factors linear in the
distinguished variable over the remaining fraction field.  Factors that
differ in their dependence on some parameter are peeled apart by contents;
univariate factors over Q take their roots from p-adic root finding (Loos:
Newton lifting of the simple roots modulo a prime, each candidate checked
exactly); a factor with parameters left is evaluated at an integer point of
its last parameter, the roots of the image are found by recursion, and each
root is rebuilt from balanced xi-adic digits as in GCDHEU (Char, Geddes and
Gonnet, JSC 1989), with the leading coefficient multiplied in first (Wang,
Math. Comp. 1978).  Every root is checked by exact division.  Anything
richer raises NonLinearFactor rather than approximating.

At a pole a/b, `_q_adic` expands a polynomial in powers of q = b*x - a by
one truncated Horner pass over Q[params] (a Taylor shift, as in von zur
Gathen and Gerhard, ISSAC 1997).  Partial fractions read each principal part
from the expansions of the proper numerator and of the cofactor and one
series division (Bronstein, Symbolic Integration I), and return it grouped
by pole, {order: coeff} in `linear_poles` order, the one shape both
reductions consume; the curve reduction takes f(a/b) and the rational
solutions their Taylor coefficients from the same expansion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import (FIELD_BITS, FIELD_MASK, MultiPoly, ZeroPolynomial, _heu_points,
                   _int_degree, _int_div, _int_eval, _int_reconstruct, _normal, content_wrt,
                   exact_div, gcd, mono_from_items, mono_key_grlex, prem)
from .rational import RationalFunction
from .registry import ExactAlgError, VariableRegistry


class NonLinearFactor(ExactAlgError):
    """A factor of degree >= 2 in the distinguished variable is not split:
    an irreducible one remains, and the base field extension it would need
    is unsupported, or ("cannot split") no evaluation point tried was good."""


class _DoesNotSplit(NonLinearFactor):
    """A proof, valid when the factor passed in is squarefree, that it has an
    irreducible factor of degree >= 2; any other NonLinearFactor from the
    root finder may come from bad evaluation points."""


def squarefree_factor(p: MultiPoly, v: int) -> list[tuple[MultiPoly, int]]:
    """Yun's squarefree decomposition of p in variable v over the fraction
    field of the remaining variables: the [(q_i, i)] with p / prod q_i^i of
    degree zero in v, the q_i primitive in v, squarefree, pairwise coprime
    and monic under graded-lex.

    Yun runs on p itself, with no content pass first: for p = c*w with c
    free of v, gcd(p, p') = c*gcd(w, w'), so the content cancels from b and
    d at the first step and every factor is the same."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if p.degree(v) == 0:
        return []
    factors: list[tuple[MultiPoly, int]] = []
    dp = p.derivative(v)
    a0 = gcd(p, dp)
    b = exact_div(p, a0)
    d = exact_div(dp, a0) - b.derivative(v)
    i = 1
    while b.degree(v) > 0:
        ai = gcd(b, d)
        if ai.degree(v) > 0:
            factors.append((ai.monic(), i))
        b = exact_div(b, ai)
        d = exact_div(d, ai) - b.derivative(v)
        i += 1
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
    f = MultiPoly.from_terms((mono_from_items(((0, i - low),)), c)
                             for i, c in terms.items())
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
            raise _DoesNotSplit(f"univariate factor of degree {d} does not split over Q")
        return [RationalFunction.const(r, registry) for r in roots]
    return _roots_by_evaluation(q, v, registry)


def _roots_by_evaluation(q: MultiPoly, v: int,
                         registry: VariableRegistry) -> list[RationalFunction]:
    """Roots of q, squarefree of degree d >= 2 in v with parameters left,
    from the roots of its images at integer points xi of the last parameter u.

    Let L be lc_v of q's integer part.  By Gauss's lemma q splits iff
    q = L * prod (v - H_j/L) with integer polynomials H_j.  Where L(xi) != 0
    the image then has the roots H_j(xi)/L(xi), so L(xi) times a root of the
    image (found by recursion, down to `rational_roots`) is H_j(xi), and its
    balanced xi-adic digits give H_j once xi exceeds twice every coefficient
    (the GCDHEU reconstruction, with GCDHEU's points).  A root is kept only
    when den*v - num divides q exactly, and only d distinct kept roots are
    returned.  A vanishing lead, a repeated root or a failed reconstruction
    marks a bad point; a squarefree image that does not split proves that q
    does not split.
    """
    d = q.degree(v)
    u = max(q.variables() - {v})
    a = q.ints
    s = FIELD_BITS * v
    lead = {m - (d << s): c for m, c in a.items() if (m >> s) & FIELD_MASK == d}
    lc = _normal(lead, 1, 1)
    deg = _int_degree(a, u)
    bound = max(map(abs, a.values())) * max(map(abs, lead.values()))
    for xi, powers in _heu_points(bound, deg):
        lead_image = _int_eval(lead, u, powers)
        if lead_image:
            image = _normal(_int_eval(a, u, powers), 1, 1)
            try:
                rhos = _roots_of_squarefree(image, v, registry)
            except NonLinearFactor as exc:
                if (isinstance(exc, _DoesNotSplit)
                        and gcd(image, image.derivative(v)).degree(v) == 0):
                    params = ", ".join(map(registry.name, sorted(q.variables() - {v})))
                    raise _DoesNotSplit(f"factor of degree {d} in {registry.name(v)} "
                                        f"does not split over Q({params})") from None
                rhos = []
            scale = _normal(lead_image, 1, 1)
            roots = []
            for rho in rhos:
                try:
                    image_h = exact_div(scale * rho.num, rho.den)
                except ArithmeticError:
                    break
                c = image_h.content
                if c.denominator != 1:
                    break
                h = _int_reconstruct({m: c.numerator * k for m, k in image_h.ints.items()},
                                     u, xi, deg)
                if h is None:
                    break
                root = RationalFunction(_normal(h, 1, 1), lc, registry)
                if _int_div(a, (root.den * MultiPoly.var(v) - root.num).ints) is None:
                    break
                roots.append(root)
            if len(set(roots)) == d:
                return roots
    raise NonLinearFactor(f"cannot split factor of degree {d} in the distinguished variable")


def _q_adic(p: MultiPoly, v: int, a: MultiPoly, b: MultiPoly, n: int) -> list[MultiPoly]:
    """The first n coefficients c_k of b^d * p = sum_k c_k * (b*x_v - a)^k,
    d = deg_v p, for a and b free of x_v: one Horner pass in x_v = (a + s)/b
    over Q[params], truncated at s^n and free of gcds."""
    out = [MultiPoly.zero()] * n
    if p.is_zero():
        return out
    coeffs = p.as_univariate(v)
    d = max(coeffs)
    b_pow = MultiPoly.one()
    for e in range(d, -1, -1):
        # out <- out * (a + s) + p_e * b^(d - e); out has s-degree d - e - 1.
        for k in range(min(d - e, n - 1), 0, -1):
            out[k] = out[k] * a + out[k - 1]
        out[0] = out[0] * a
        if e in coeffs:
            out[0] = out[0] + coeffs[e] * b_pow
        b_pow = b_pow * b
    return out


def linear_poles(den: MultiPoly, v: int,
                 registry: VariableRegistry) -> list[tuple[RationalFunction, int]]:
    """Poles (root, multiplicity) of 1/den in variable v, deterministically
    ordered; raises NonLinearFactor when den does not split v-linearly."""
    out: list[tuple[RationalFunction, int]] = []
    for factor, mult in squarefree_factor(den, v):
        out.extend((r, mult) for r in _roots_of_squarefree(factor, v, registry))
    out.sort(key=lambda pair: _rf_sort_key(pair[0]))
    return out


def _rf_sort_key(f: RationalFunction):
    def poly_key(p: MultiPoly):
        return tuple(sorted(((mono_key_grlex(m), c) for m, c in p.rational_terms().items()),
                            reverse=True))

    return (poly_key(f.den), poly_key(f.num))


class PartialFractions:
    """f = poly_part + sum over poles p of sum_k principal[p][k]/(v - p)^k,
    exactly.  `principal` maps each pole, in `linear_poles` order, to its
    principal part {order: coeff} with nonzero coefficients only; the
    largest order is the pole's multiplicity."""

    __slots__ = ("poly_part", "principal")

    def __init__(self, poly_part: RationalFunction,
                 principal: dict[RationalFunction, dict[int, RationalFunction]]):
        self.poly_part = poly_part
        self.principal = principal

    def recombine(self, v: int) -> RationalFunction:
        reg = self.poly_part.registry
        x = RationalFunction.from_poly(MultiPoly.var(v), reg)
        total = self.poly_part
        for pole, part in self.principal.items():
            for order, coeff in part.items():
                total = total + coeff / (x - pole) ** order
        return total


def partial_fractions(f: RationalFunction, v_name: str) -> PartialFractions:
    """The polynomial part, then at each pole p = a/b of order m, in
    `linear_poles` order, the principal part {order: coeff} from the q-adic
    expansions in q = b*x - a of the proper numerator and of the cofactor
    den / q^m, and one truncated series division."""
    registry = f.registry
    v = registry.index(v_name)
    den = f.den
    if den.degree(v) <= 0:
        return PartialFractions(f, {})
    # Pseudo-division: lc^e * num = quo * den + r with lc the v-free leading
    # coefficient of den, so the polynomial part is quo / lc^e and the proper
    # part r / (lc^e * den).
    lc_e = den.coefficient(v, den.degree(v)) ** max(f.num.degree(v) - den.degree(v) + 1, 0)
    r = prem(f.num, den, v)
    quo = exact_div(f.num * lc_e - r, den)
    principal: dict[RationalFunction, dict[int, RationalFunction]] = {}
    for pole, m in linear_poles(den, v, registry):
        a, b = pole.num, pole.den
        cof = exact_div(den, (b * MultiPoly.var(v) - a) ** m)
        rs = _q_adic(r, v, a, b, m)
        ds = _q_adic(cof, v, a, b, m)
        # With b^deg(r) * r = sum r_k q^k and b^deg(cof) * cof = sum d_k q^k,
        # r / cof = b^(deg cof - deg r) * sum e_k q^k / d_0 for
        # e_k = r_k - sum_j (d_j / d_0) e_(k-j), and q^(k-m) = b^(k-m) (x - p)^(k-m).
        ratios = [RationalFunction(d, ds[0], registry) for d in ds[1:]]
        es: list[RationalFunction] = []
        part = principal[pole] = {}
        for k in range(m):
            e = RationalFunction.from_poly(rs[k], registry)
            for j in range(1, k + 1):
                e = e - ratios[j - 1] * es[k - j]
            es.append(e)
            if not e.is_zero():
                shift = cof.degree(v) - r.degree(v) - (m - k)
                b_shift = RationalFunction.from_poly(b, registry) ** shift
                part[m - k] = e * b_shift / (lc_e * ds[0])
    return PartialFractions(RationalFunction(quo, lc_e, registry), principal)
