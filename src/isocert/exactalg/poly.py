"""Sparse multivariate polynomials over Q with exact arithmetic.

A monomial is a packed exponent vector: a non-negative `int` whose bits
[16i, 16i+16) hold the exponent of registry variable i, so the empty
monomial is 0, a product of monomials is the sum of their ints and, since
2^16 = 1 modulo 0xFFFF, the total degree is the int modulo 0xFFFF.  Both
hold only while every total degree stays below 0xFFFF: `var`, `*` and `**`
refuse to build a polynomial of total degree above MAX_DEGREE
(DegreeTooLarge), so no exponent ever carries into the next variable.
Quotients test divisibility through the borrows of one subtraction, read
at the field boundaries; the borrow mask covers MAX_VARIABLES variables, and
a variable index past it is refused (TooManyVariables).  `mono_from_items`
and `mono_items` convert from and to (index, exponent) pairs.

A polynomial is one nonzero rational `content` times a primitive integer
polynomial `ints`: a dict from monomials to nonzero ints whose gcd is 1 and
whose coefficient at the largest packed monomial (as an int) is positive.
The zero polynomial has no terms and content 1.  Every value has exactly this
one representation, so equality and hashing are structural.  The content
carries the sign, so negation, `scale` and `monic` share the integer dict.
By Gauss's lemma products and exact quotients of such integer parts are
again primitive, and their coefficients at the largest packed monomial
multiply, so they need no normalization; sums, derivatives and coefficient
extraction take one `math.gcd` over the result.  `rational_terms` gives the
coefficients as Fractions.  All values are immutable.

Everything observable (leading monomials, `monic`, gcd normalization,
printing) uses the graded lexicographic order in the registry order, lower
index = more significant.  The heap division pops terms by (total degree,
packed int) instead: a graded order in which the higher index is more
significant.  An exact quotient is the same under every monomial order, and
a graded order keeps the early exit on a leading term that does not divide
bounded.

Also provides the polynomial toolbox the rest of the package is built on:
exact division, pseudo-remainders, gcd and contents.  Exact division and the
gcd both work on the integer parts: one heap division over Z (Monagan and
Pearce, JSC 2011), and the heuristic GCDHEU (Char, Geddes and Gonnet, JSC
1989) variable by variable, checking every candidate by that division.  A
candidate that fails its check moves on to the next evaluation point; there
is no cofactor rescue, which on the test suite and the benchmark corpora ran
thousands of times and never returned a gcd.  The subresultant PRS on the
top common variable is the complete last resort when six points fail.  The
parametric root finder in `factor` reuses GCDHEU's evaluation and
reconstruction kernels.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .registry import ExactAlgError

Mono = int

EMPTY_MONO: Mono = 0

FIELD_BITS = 16
FIELD_MASK = 0xFFFF
# The total degree is read as m % FIELD_MASK, exact below FIELD_MASK.
MAX_DEGREE = FIELD_MASK - 1
MAX_VARIABLES = 4096
# One bit at each field boundary 16, 32, ..., 16 * MAX_VARIABLES: the sum of
# 2^(16k) for k = 1..MAX_VARIABLES, in closed form.
BORROWS = ((1 << FIELD_BITS * (MAX_VARIABLES + 1)) - (1 << FIELD_BITS)) // FIELD_MASK


class ZeroPolynomial(ExactAlgError):
    pass


class DegreeTooLarge(ExactAlgError):
    """A polynomial of total degree past MAX_DEGREE."""

    def __init__(self, degree: int):
        super().__init__(f"total degree {degree} is outside the supported bound "
                         f"<= {MAX_DEGREE}")


class TooManyVariables(ExactAlgError):
    """A variable index at or past MAX_VARIABLES."""

    def __init__(self, index: int):
        super().__init__(f"variable index {index} is outside the supported bound "
                         f"< {MAX_VARIABLES}")


def mono_from_items(items) -> Mono:
    """The monomial with exponent e at variable i for each pair (i, e)."""
    m = 0
    degree = 0
    for i, e in items:
        if i >= MAX_VARIABLES:
            raise TooManyVariables(i)
        if e < 0:
            raise ValueError("negative exponent")
        m += e << FIELD_BITS * i
        degree += e
    if degree > MAX_DEGREE:
        raise DegreeTooLarge(degree)
    return m


def mono_items(m: Mono) -> tuple[tuple[int, int], ...]:
    """The (variable index, positive exponent) pairs of m, by index."""
    out = []
    while m:
        i = ((m & -m).bit_length() - 1) // FIELD_BITS
        e = (m >> FIELD_BITS * i) & FIELD_MASK
        out.append((i, e))
        m -= e << FIELD_BITS * i
    return tuple(out)


def mono_exponent(m: Mono, i: int) -> int:
    return (m >> FIELD_BITS * i) & FIELD_MASK


def mono_mul(a: Mono, b: Mono) -> Mono:
    return a + b


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when b does not divide a: some field of a - b borrowed."""
    d = a - b
    if d < 0 or (d ^ a ^ b) & BORROWS:
        return None
    return d


def mono_gcd(a: Mono, b: Mono) -> Mono:
    # Most calls peel a content that already divides the next term.
    d = b - a
    if d >= 0 and not (d ^ a ^ b) & BORROWS:
        return a
    out = 0
    while a:
        s = ((a & -a).bit_length() - 1) // FIELD_BITS * FIELD_BITS
        e = (a >> s) & FIELD_MASK
        out += min(e, (b >> s) & FIELD_MASK) << s
        a -= e << s
    return out


def mono_degree(a: Mono) -> int:
    return a % FIELD_MASK


def mono_key_grlex(a: Mono):
    """Sort key: larger key = larger monomial in graded lex order."""
    # Lex tie-break: scanning variables in registry order, the monomial whose
    # exponent is larger at the first difference wins.  Encoding each pair as
    # (-index, exponent) and comparing the padded sequence realizes this.
    return (a % FIELD_MASK, tuple((-i, e) for i, e in mono_items(a)))


def _leading(monos) -> Mono:
    """The graded-lex largest of a nonempty collection of monomials: the
    largest total degree, then the larger exponent at the lowest index where
    two candidates differ (the field of the lowest set bit of their xor)."""
    it = iter(monos)
    best = next(it)
    top = best % FIELD_MASK
    for m in it:
        d = m % FIELD_MASK
        if d > top:
            best, top = m, d
        elif d == top:
            x = best ^ m
            s = ((x & -x).bit_length() - 1) // FIELD_BITS * FIELD_BITS
            if (m >> s) & FIELD_MASK > (best >> s) & FIELD_MASK:
                best = m
    return best


IntTerms = dict[Mono, int]

_F1 = Fraction(1)


def _variables(monos) -> set[int]:
    acc = 0
    for m in monos:
        acc |= m
    return {i for i, _ in mono_items(acc)}


class MultiPoly:
    """Immutable sparse polynomial: `content` times the primitive integer
    polynomial `ints` (monomial -> nonzero int), in the canonical form of the
    module docstring."""

    __slots__ = ("content", "ints", "_hash")

    def __init__(self, ints: IntTerms | None = None, content: Fraction = _F1):
        # Trusts (ints, content) to be canonical; `from_terms` and `_normal`
        # build canonical values from anything else.
        self.ints: IntTerms = ints or {}
        self.content = content
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _ZERO

    @staticmethod
    def one() -> "MultiPoly":
        return _ONE

    @staticmethod
    def const(c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return _ZERO
        return MultiPoly({EMPTY_MONO: 1}, c)

    @staticmethod
    def var(idx: int, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return _ONE
        return MultiPoly({mono_from_items(((idx, exp),)): 1})

    @staticmethod
    def from_terms(items) -> "MultiPoly":
        """The sum of c * m over (monomial m, rational c) pairs."""
        terms: dict[Mono, Fraction] = {}
        for mono, coeff in items:
            c = terms.get(mono, Fraction(0)) + coeff
            if c == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = c
        if not terms:
            return _ZERO
        den = math.lcm(*[c.denominator for c in terms.values()])
        return _normal({m: c.numerator * (den // c.denominator) for m, c in terms.items()},
                       1, den)

    def rational_terms(self) -> dict[Mono, Fraction]:
        """The coefficients as a monomial -> nonzero Fraction dict."""
        c = self.content
        return {m: c * v for m, v in self.ints.items()}

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_const(self) -> bool:
        return not self.ints or (len(self.ints) == 1 and EMPTY_MONO in self.ints)

    def const_value(self) -> Fraction:
        if not self.ints:
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.content

    def is_one(self) -> bool:
        return self is _ONE or (self.content == 1 and self.ints == _ONE.ints)

    def variables(self) -> set[int]:
        return _variables(self.ints)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        a, b = self.ints, other.ints
        if not b:
            return self
        if not a:
            return other
        # Over the common denominator den: num * (fa * a + fb * b) / den,
        # with fa = 1 when the contents are equal.
        ca, cb = self.content, other.content
        na, da, nb, db = ca.numerator, ca.denominator, cb.numerator, cb.denominator
        num = math.gcd(na, nb) if na > 0 else -math.gcd(na, nb)
        den = da if da == db else math.lcm(da, db)
        fa, fb = na // num * (den // da), nb // num * (den // db)
        terms = dict(a) if fa == 1 else {m: c * fa for m, c in a.items()}
        for m, c in b.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c * fb
            else:
                s += c * fb
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return _normal(terms, num, den)

    def __neg__(self) -> "MultiPoly":
        if not self.ints:
            return self
        return MultiPoly(self.ints, -self.content)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        if len(b) == 1 and EMPTY_MONO in b:
            return self.scale(other.content)
        if len(a) == 1 and EMPTY_MONO in a:
            return other.scale(self.content)
        degree = self.total_degree() + other.total_degree()
        if degree > MAX_DEGREE:
            raise DegreeTooLarge(degree)
        terms: IntTerms = {}
        b_items = list(b.items())
        for m1, c1 in a.items():
            for m2, c2 in b_items:
                m = m1 + m2
                terms[m] = terms.get(m, 0) + c1 * c2
        if 0 in terms.values():
            terms = {m: c for m, c in terms.items() if c}
        # By Gauss's lemma the product of primitive polynomials is primitive,
        # and the coefficients at the largest packed monomials multiply, so
        # the product is canonical as it stands.
        return MultiPoly(terms, self.content * other.content)

    def scale(self, c) -> "MultiPoly":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c == 1:
            return self
        if c == 0 or not self.ints:
            return _ZERO
        return MultiPoly(self.ints, self.content * c)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        if n > 1 and (degree := n * self.total_degree()) > MAX_DEGREE:
            raise DegreeTooLarge(degree)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.content == other.content and \
            self.ints == other.ints

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.content, frozenset(self.ints.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self.ints:
            return "MultiPoly(0)"
        terms = self.rational_terms()
        bits = []
        for mono in sorted(terms, key=mono_key_grlex, reverse=True):
            mono_s = "*".join(f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in mono_items(mono))
            bits.append(f"{terms[mono]}" + (f"*{mono_s}" if mono_s else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"

    # -- calculus and structure --------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        s = FIELD_BITS * var
        unit = 1 << s
        c = self.content
        return _normal({m - unit: v * e for m, v in self.ints.items()
                        if (e := (m >> s) & FIELD_MASK)}, c.numerator, c.denominator)

    def integral(self, var: int) -> "MultiPoly":
        """The antiderivative in `var` without constant term."""
        if not self.ints:
            return _ZERO
        if (degree := self.total_degree() + 1) > MAX_DEGREE:
            raise DegreeTooLarge(degree)
        s = FIELD_BITS * var
        unit = mono_from_items(((var, 1),))
        den = math.lcm(*{((m >> s) & FIELD_MASK) + 1 for m in self.ints})
        c = self.content
        return _normal({m + unit: v * (den // (((m >> s) & FIELD_MASK) + 1))
                        for m, v in self.ints.items()}, c.numerator, c.denominator * den)

    def degree(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        s = FIELD_BITS * var
        return max((m >> s) & FIELD_MASK for m in self.ints)

    def total_degree(self) -> int:
        if not self.ints:
            return -1
        return max(m % FIELD_MASK for m in self.ints)

    def leading_monomial(self) -> Mono:
        if not self.ints:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return _leading(self.ints)

    def leading_coefficient(self) -> Fraction:
        return self.content * self.ints[self.leading_monomial()]

    def monic(self) -> "MultiPoly":
        if not self.ints:
            return self
        c = Fraction(1, self.ints[_leading(self.ints)])
        if c == self.content:
            return self
        return MultiPoly(self.ints, c)

    def as_univariate(self, var: int) -> dict[int, "MultiPoly"]:
        """Coefficients by power of `var`; coefficients do not involve `var`."""
        s = FIELD_BITS * var
        out: dict[int, IntTerms] = {}
        for mono, c in self.ints.items():
            e = (mono >> s) & FIELD_MASK
            out.setdefault(e, {})[mono - (e << s)] = c
        n, d = self.content.numerator, self.content.denominator
        return {e: _normal(terms, n, d) for e, terms in out.items()}

    def coefficient(self, var: int, power: int) -> "MultiPoly":
        return self.as_univariate(var).get(power, _ZERO)


def _normal(ints: IntTerms, num: int, den: int) -> MultiPoly:
    """The canonical form of (num / den) * ints: the integer content and the
    sign move into the rational content."""
    if not ints:
        return _ZERO
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
    return MultiPoly(ints, Fraction(num * g, den))


_ZERO = MultiPoly({})
_ONE = MultiPoly({EMPTY_MONO: 1})


# ---------------------------------------------------------------------------
# Division, gcd and factor structure
# ---------------------------------------------------------------------------


def _key_width(a, b) -> int:
    """Bit width of the monomial part of the heap keys of a / b.

    A heap key is (total degree << width) + monomial: the degree sits in a
    field of its own above every exponent, so keys add like monomials and
    integer order on keys is the graded order the heap divisions use.  Every
    term of the division has a variable of a or b and, in a graded order, a
    total degree no larger than that of a's largest term, so it fits.
    """
    top = (max(a) | max(b)).bit_length()
    return -(-top // FIELD_BITS) * FIELD_BITS


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a / b when b divides a exactly; raises ArithmeticError otherwise.

    The integer parts divide in `_int_div`: b's is primitive, so by Gauss's
    lemma an exact quotient is integral, and primitive with a positive
    coefficient at its largest packed monomial, so canonical as it stands.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return _ZERO
    if b.is_const():
        return a.scale(1 / b.content)
    q = _int_div(a.ints, b.ints)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return MultiPoly(q, a.content / b.content)


def prem(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of a by b in `var`: lc(b)^(da-db+1) * a mod b."""
    db = b.degree(var)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    da = a.degree(var)
    if da < db:
        return a
    lb = b.coefficient(var, db)
    r = a
    e = da - db + 1
    while not r.is_zero() and (dr := r.degree(var)) >= db:
        lr = r.coefficient(var, dr)
        r = r * lb - lr * MultiPoly.var(var, dr - db) * b
        e -= 1
    if e > 0:
        r = r * lb ** e
    return r


def _subresultant_prs_gcd(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Gcd of two polynomials primitive in `var`, both of positive degree."""
    if a.degree(var) < b.degree(var):
        a, b = b, a
    g = _ONE
    h = _ONE
    while True:
        delta = a.degree(var) - b.degree(var)
        r = prem(a, b, var)
        if r.is_zero():
            c = content_wrt(b, var)
            return b if c.is_one() else exact_div(b, c)
        if r.degree(var) == 0:
            return _ONE
        a, b = b, exact_div(r, g * h ** delta)
        g = a.coefficient(var, a.degree(var))
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div(g ** delta, h ** (delta - 1))


def content_wrt(p: MultiPoly, var: int) -> MultiPoly:
    """Gcd of the coefficients of p seen as univariate in `var` (monic)."""
    coeffs = list(p.as_univariate(var).values())
    if len(coeffs) == 1:
        return coeffs[0].monic()
    c = coeffs[0]
    for other in coeffs[1:]:
        c = gcd(c, other)
        if c.is_one():
            return _ONE
    return c


def gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Polynomial gcd over Q, normalized monic under graded-lex.

    Three routes, cheapest first.  Exact division: when one primitive integer
    part divides the other, that operand is the gcd by Gauss's lemma.  One
    heap division is tried, which stops at the first leading term that does
    not divide.  Its divisor is the operand with fewer terms or, on a tie,
    the one with the smaller largest packed monomial: a proper multiple with
    as many terms has a larger one, since packed-int order is a monomial
    order.  Otherwise the evaluation-reconstruction heuristic (GCDHEU)
    runs on the integer parts; every candidate it returns has been checked to
    divide both inputs exactly, so the answer is provably correct.  The
    subresultant PRS on the top common variable handles its rare failures.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_const() or b.is_const():
        return _ONE
    la, lb = len(a.ints), len(b.ints)
    if la < lb or la == lb and max(a.ints) <= max(b.ints):
        small, large = a, b
    else:
        small, large = b, a
    if _int_div(large.ints, small.ints) is not None:
        return small.monic()
    try:
        g = _heugcd(a.ints, b.ints)
    except _HeuristicFailure:
        return _prs_route(a, b, max(a.variables() & b.variables())).monic()
    return _normal(g, 1, 1).monic()


def _prs_route(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    ca = content_wrt(a, var)
    pa = a if ca.is_one() else exact_div(a, ca)
    cb = content_wrt(b, var)
    pb = b if cb.is_one() else exact_div(b, cb)
    cg = gcd(ca, cb)
    pg = _subresultant_prs_gcd(pa, pb, var)
    return cg * pg


class _HeuristicFailure(Exception):
    pass


# -- integer kernel of the heuristic gcd and of exact division ---------------
#
# Polynomials here are plain dicts from monomials to nonzero ints.  By Gauss's
# lemma a primitive integer polynomial that divides another over Q divides it
# over Z, so every divisibility check is an exact heap division over Z that
# gives up at the first non-integral quotient coefficient.


def _int_degree(p: IntTerms, var: int) -> int:
    s = FIELD_BITS * var
    return max(((m >> s) & FIELD_MASK for m in p), default=0)


def _peel_monomial(p: IntTerms) -> tuple[Mono, IntTerms]:
    """(m, p / m) for the largest monomial m dividing every term of p."""
    it = iter(p)
    m = next(it)
    for k in it:
        if not m:
            break
        m = mono_gcd(m, k)
    if not m:
        return m, p
    return m, {k - m: c for k, c in p.items()}


def _int_primitive(p: IntTerms) -> IntTerms:
    c = math.gcd(*p.values())
    return p if c == 1 else {m: v // c for m, v in p.items()}


def _int_eval(p: IntTerms, var: int, powers: list[int]) -> IntTerms:
    """p with `var` set to powers[1]; powers[e] is its e-th power."""
    s = FIELD_BITS * var
    out: IntTerms = {}
    for m, c in p.items():
        e = (m >> s) & FIELD_MASK
        if e:
            m -= e << s
            c *= powers[e]
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _int_reconstruct(gamma: IntTerms, var: int, xi: int, deg_cap: int) -> IntTerms | None:
    """Invert evaluation of `var` at xi via balanced xi-adic digits in
    (-xi/2, xi/2]; None when a coefficient needs more than deg_cap + 1, or
    a term would pass MAX_DEGREE (no such candidate divides anything)."""
    s = FIELD_BITS * var
    half = xi // 2
    out: IntTerms = {}
    for m, c in gamma.items():
        cap = min(deg_cap, MAX_DEGREE - m % FIELD_MASK)
        k = 0
        while c:
            if k > cap:
                return None
            c, r = divmod(c, xi)
            if r > half:
                r -= xi
                c += 1
            if r:
                out[m + (k << s)] = r
            k += 1
    return out


def _int_div(a: IntTerms, b: IntTerms) -> IntTerms | None:
    """a / b when the quotient exists with integer coefficients, else None.

    Leading-term elimination driven by a lazy-deletion heap (Monagan and
    Pearce, JSC 2011), so each step costs O(|b| log |r|) instead of a full
    scan of the remainder; it stops at the first leading term of the
    remainder that b does not divide over Z.
    """
    if len(b) == 1:
        [(mb, cb)] = b.items()
        q: IntTerms = {}
        for m, c in a.items():
            qm = mono_div(m, mb)
            qc, rem = divmod(c, cb)
            if qm is None or rem:
                return None
            q[qm] = qc
        return q
    width = _key_width(a, b)
    low = (1 << width) - 1
    kb = {((m % FIELD_MASK) << width) + m: c for m, c in b.items()}
    lk_b = max(kb)
    lc_b = kb.pop(lk_b)
    b_rest = list(kb.items())
    r = {((m % FIELD_MASK) << width) + m: c for m, c in a.items()}
    heap = [-k for k in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        k = -heapq.heappop(heap)
        c = r.pop(k, None)
        if c is None:
            continue
        qk = k - lk_b
        if qk < 0 or (qk ^ k ^ lk_b) & BORROWS:
            return None
        qc, rem = divmod(c, lc_b)
        if rem:
            return None
        q[qk & low] = qc
        for k_b, cb in b_rest:
            kk = qk + k_b
            prev = r.get(kk)
            if prev is None:
                r[kk] = -qc * cb
                heapq.heappush(heap, -kk)
            else:
                nxt = prev - qc * cb
                if nxt:
                    r[kk] = nxt
                else:
                    del r[kk]
    return q


def _heugcd(a: IntTerms, b: IntTerms) -> IntTerms:
    """Gcd over Z, up to sign, of two nonzero integer polynomials; raises
    _HeuristicFailure when six evaluation points do not give it.

    The monomial and integer contents are split off first (the gcd is the
    product of their gcds and the gcd of what is left), so the recursion on
    evaluated images keeps the content information that a specialized
    variable may carry.  At each point xi the gcd of the images is lifted
    back by xi-adic digits and kept only when it divides both inputs; any
    other outcome goes straight to the next, larger xi.
    """
    ma, a = _peel_monomial(a)
    mb, b = _peel_monomial(b)
    mono = mono_gcd(ma, mb)
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    ig = math.gcd(ca, cb)
    if ca != 1:
        a = {m: c // ca for m, c in a.items()}
    if cb != 1:
        b = {m: c // cb for m, c in b.items()}

    def scaled(h: IntTerms) -> IntTerms:
        if not mono:
            return h if ig == 1 else {m: c * ig for m, c in h.items()}
        return {m + mono: c * ig for m, c in h.items()}

    common = _variables(a) & _variables(b)
    if not common:
        return scaled({EMPTY_MONO: 1})
    if a == b:
        return scaled(a)
    var = max(common)
    deg_a, deg_b = _int_degree(a, var), _int_degree(b, var)
    # The divide-and-check loop is only guaranteed to return the full gcd for
    # evaluation points beyond twice the smaller max-norm.
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(6):
        powers = [1]
        for _ in range(max(deg_a, deg_b)):
            powers.append(powers[-1] * xi)
        fa = _int_eval(a, var, powers)
        fb = _int_eval(b, var, powers)
        if fa and fb:
            gamma = _heugcd(fa, fb)
            h = _int_reconstruct(gamma, var, xi, min(deg_a, deg_b) + 1)
            if h is not None:
                h = _int_primitive(h)
                if _int_div(a, h) is not None and _int_div(b, h) is not None:
                    return scaled(h)
        xi = xi * 73794 // 27011 + 1
    raise _HeuristicFailure


def lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    if a.is_zero() or b.is_zero():
        return _ZERO
    return (a * exact_div(b, gcd(a, b))).monic()
