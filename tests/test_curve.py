"""Genus-one curve reduction and Picard-Fuchs operators."""

import random
import sys
from fractions import Fraction

import pytest

from isocert import curve, derham
from isocert.cli.exprio import parse_to_rational
from isocert.curve import (CurveClass, CurveContext, CurveElement, CurveError,
                           CurveReduction, CurveSpec, UnsupportedPoles, _split_f_level,
                           curve_derive, curve_reduce, curve_w, picard_fuchs)
from isocert.exactalg import RationalFunction, UPoly, linear_solve
from isocert.exactalg.printing import format_poly, format_rational
from isocert.exactalg.poly import gcd as poly_gcd
from isocert.operators import Certificate, LinearDiffOperator, TelescoperNotFound

from conftest import plus
from test_acceptance import _CORPUS


@pytest.fixture
def legendre(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    f = (x * (x - one) * (x - t)).num
    return CurveSpec(f, "x", xt["reg"])


def test_curve_requires_squarefree(xt):
    x = xt["x"]
    with pytest.raises(CurveError):
        CurveSpec((x ** 2 * (x - xt["one"])).num, "x", xt["reg"])


def test_curve_derive_examples(xt, legendre):
    x, t, one = xt["x"], xt["t"], xt["one"]
    w = curve_w(legendre)
    dw = curve_derive(w, "x")
    assert dw.odd == legendre.fx_rf / (2 * legendre.f_rf)
    dwt = curve_derive(w, "t")
    assert dwt.odd == -x * (x - one) / (2 * legendre.f_rf)


def test_curve_derive_matches_sympy(xt, legendre):
    """curve_derive against sympy's derivative of p0 + p1*sqrt(f), for random
    even and odd parts on a cubic and a quartic, in x and in t, compared
    exactly at random rational points."""
    sympy = pytest.importorskip("sympy")
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    quartic = CurveSpec((x * (x - one) * (x - t) * (x + one)).num, "x", xt["reg"])
    names = {"x": sympy.Symbol("x"), "t": sympy.Symbol("t")}

    def to_sympy(r):
        return sympy.sympify(format_rational(r), locals=names)

    rnd = random.Random(29)
    nums = [zero, one, x, t, 3 * x - t, x * x + t, t * x - 2 * one]
    dens = [one, x - t, x + one, 2 * x - t, t, t * x - one]
    for spec in (legendre, quartic):
        root = sympy.sqrt(to_sympy(spec.f_rf))
        for _ in range(8):
            p0, p1 = (rnd.choice(nums) * rnd.choice(nums)
                      / (rnd.choice(dens + [spec.f_rf, spec.f_rf ** 2]) * rnd.choice(dens))
                      for _ in range(2))
            e = CurveElement(p0, p1, spec)
            for v in ("x", "t"):
                got = curve_derive(e, v)
                theirs = sympy.diff(to_sympy(p0) + to_sympy(p1) * root, names[v])
                mine = to_sympy(got.even) + to_sympy(got.odd) * root
                for _ in range(2):
                    # x > 1 > 0 > t keeps every pole and branch point away.
                    at = {names["x"]: sympy.Rational(rnd.randint(3, 60), rnd.randint(1, 2)),
                          names["t"]: sympy.Rational(-rnd.randint(1, 60), rnd.randint(1, 7))}
                    assert sympy.expand(mine.xreplace(at) - theirs.xreplace(at)) == 0, (e, v)


def test_curve_derive_leibniz_and_commutes(xt, legendre):
    rnd = random.Random(83)
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    pool = [x, t, one, one / (x - t), x * t, one / (x + one)]
    count = 0
    while count < 100:
        e1 = CurveElement(rnd.choice(pool), rnd.choice(pool), legendre)
        e2 = CurveElement(rnd.choice(pool), rnd.choice(pool), legendre)
        count += 1
        for v in ("x", "t"):
            lhs = curve_derive(e1 * e2, v)
            rhs = curve_derive(e1, v) * e2 + e1 * curve_derive(e2, v)
            assert (lhs - rhs).is_zero()
        ab = curve_derive(curve_derive(e1, "x"), "t")
        ba = curve_derive(curve_derive(e1, "t"), "x")
        assert (ab - ba).is_zero()


def test_curve_arithmetic_inverse(xt, legendre):
    x, t, one = xt["x"], xt["t"], xt["one"]
    e = CurveElement(x + t, one / (x - t), legendre)
    q = e / e
    assert q.even.is_one() and q.odd.is_zero()


def test_curve_reduce_exact_form(xt, legendre):
    zero = xt["zero"]
    omega = CurveElement(zero, legendre.fx_rf / (2 * legendre.f_rf), legendre)
    r = curve_reduce(omega)
    assert r.h1.is_zero()
    assert (r.certificate - curve_w(legendre)).odd.is_zero() or \
        r.certificate.odd == xt["one"]


def test_curve_reduce_x2_over_w(xt, legendre):
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    omega = CurveElement(zero, x * x / legendre.f_rf, legendre)
    r = curve_reduce(omega)
    # relation from d(w): 3x^2 - 2(1+t)x + t is exact over w, so
    # x^2/w ~ (2(1+t)x - t)/(3w)
    assert r.h1.coords[0] == -t / 3
    assert r.h1.coords[1] == 2 * (one + t) / 3
    # lc_x(f) = t is not a constant, so the degree lowering multiplies
    # through by lc_x instead of dividing by it.
    curve = CurveSpec(((t * x - one) * x * (x - one)).num, "x", xt["reg"])
    r = curve_reduce(CurveElement(zero, x * x / curve.f_rf, curve))
    assert r.h1.coords == (-one / (3 * t), 2 * (t + one) / (3 * t))
    assert r.certificate == CurveElement(zero, 2 / (3 * t), curve)
    r = curve_reduce(CurveElement(zero, x ** 4 / curve.f_rf, curve))
    assert r.h1.coords == (-(24 * t ** 2 + 23 * t + 24) / (105 * t ** 3),
                           (48 * t ** 3 + 40 * t ** 2 + 40 * t + 48) / (105 * t ** 3))
    assert r.certificate.odd == (30 * x ** 2 * t ** 2 + 36 * x * t ** 2 + 36 * x * t
                                 + 48 * t ** 2 + 46 * t + 48) / (105 * t ** 3)


def test_curve_reduce_w_cubed(xt, legendre):
    zero = xt["zero"]
    omega = CurveElement(zero, xt["one"] / legendre.f_rf ** 2, legendre)
    r = curve_reduce(omega)
    assert not r.h1.is_zero()


def _curve_check_args(monkeypatch):
    """Record the arguments of every curve reduction check; returns the
    unpatched check and the list it fills."""
    original = curve._check_curve_reduction
    seen = []
    monkeypatch.setattr(curve, "_check_curve_reduction",
                        lambda *args: seen.append(args) or original(*args))
    return original, seen


def _assert_curve_check_rejects_corruptions(check, args, xt):
    """The check rejects the certificate with x or x^2 added to its even
    record, or 1 to its odd record, and each class coordinate with 1
    added."""
    omega, result = args
    check(omega, result)
    x, one, spec = xt["x"], xt["one"], result.curve
    even, odd = result.parts
    coords = result.h1.coords
    bad_parts = [(plus(even, x, (one, 1)), odd), (plus(even, x * x, (one, 1)), odd),
                 (even, plus(odd, one, (one, 1), (spec.f_rf, Fraction(-1, 2))))]
    wrong = [CurveReduction(result.h1, e, o, spec) for e, o in bad_parts] + [
        CurveReduction(CurveClass(coords[:i] + (c + 1,) + coords[i + 1:]), even, odd, spec)
        for i, c in enumerate(coords)]
    for bad in wrong:
        with pytest.raises(AssertionError):
            check(omega, bad)


def test_curve_reduce_pole_off_branch_locus(xt, legendre, monkeypatch):
    x, t, one, zero = xt["x"], xt["one"], xt["one"], xt["zero"]
    t = xt["t"]
    check, seen = _curve_check_args(monkeypatch)
    # d(w/q) + x dx/w has poles at the root of q yet reduces exactly; a pole
    # a/b with b != 1 takes f(a/b) as c_0 / b^3 from the expansion in b*x - a
    for q in (x + one, 2 * x + one, t * x - one):
        u = CurveElement(zero, one / q, legendre)
        omega = curve_derive(u, "x") + legendre.basis_form(1)
        r = curve_reduce(omega)
        assert r.h1.coords[0].is_zero()
        assert r.h1.coords[1] == one
        _assert_curve_check_rejects_corruptions(check, seen[-1], xt)
    # a Hermite pole of order 3 next to f^2
    u = CurveElement(zero, (x + t) / ((t * x - one) ** 2 * legendre.f_rf), legendre)
    omega = curve_derive(u, "x") + legendre.basis_form(0) * (x - t) / legendre.f_rf
    r = curve_reduce(omega)
    omega_, _ = seen[-1]
    even, odd = r.parts
    assert dict(odd.factors[1:]) == {(t * x - one).num: 2, legendre.f: Fraction(1, 2)}
    _assert_curve_check_rejects_corruptions(check, seen[-1], xt)
    # a factor list whose exponents do not match the numerator
    low = Certificate(odd.num, [(q, e - 1 if q == (t * x - one).num else e)
                                for q, e in odd.factors], odd.x, odd.registry)
    with pytest.raises(AssertionError) as err:
        check(omega_, CurveReduction(r.h1, even, low, legendre))
    assert isinstance(err.value.__context__, ArithmeticError)
    # a bare double pole off the branch locus carries a residue: third kind
    with pytest.raises(UnsupportedPoles):
        curve_reduce(CurveElement(zero, one / ((x + one) ** 2 * legendre.f_rf),
                                  legendre))
    with pytest.raises(UnsupportedPoles):
        curve_reduce(CurveElement(zero, one / ((x + one) * legendre.f_rf), legendre))


def test_curve_reduce_planted_hermite_poles_match_sympy(xt):
    """Forms d(u*w) + sum c_i x^i dx/w with several Hermite poles of order
    2-8 (some at a/b with b != 1) and f-levels 0-3, on a monic cubic and a
    non-monic quartic: the coordinates are the planted c_i, and
    g' + g*f'/(2f) for g = certificate.odd is omega.odd - sum c_i x^i/f as
    sympy polynomials, cleared of denominators."""
    sympy = pytest.importorskip("sympy")
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    reg = xt["reg"]
    sx, st = sympy.symbols("x t")

    def to_sympy(p):
        return sympy.Poly(sympy.sympify(format_poly(p, reg), locals={"x": sx, "t": st}),
                          sx, st)

    curves = [CurveSpec((x * (x - one) * (x - t)).num, "x", reg),
              CurveSpec(((t * t + 1) * x ** 4 - 3 * x ** 3 + t * x + 2).num, "x", reg)]
    factors = [t * x - one, 2 * x + t, 3 * x - 2 * one, x + 2 * one]
    nums = [one, x + t, x * x - 2 * t, 3 * t * x + one]
    coeffs = [zero, one, t, (t + 1) / 3, one / (t - 2)]
    rnd = random.Random(41)
    for spec in curves:
        f, F = spec.f_rf, to_sympy(spec.f)
        for _ in range(6):
            den = f ** rnd.randint(0, 3)
            for q in rnd.sample(factors, rnd.randint(1, 3)):
                den = den * q ** rnd.randint(1, 7)
            u = rnd.choice(nums) / den
            planted = tuple(rnd.choice(coeffs) for _ in range(spec.basis_size()))
            klass = zero
            for i, c in enumerate(planted):
                klass = klass + c * x ** i / f
            odd = u.derive("x") + u * spec.fx_rf / (2 * f) + klass
            r = curve_reduce(CurveElement(zero, odd, spec))
            assert r.h1.coords == planted
            assert r.certificate.even.is_zero()
            # g = P/D and omega.odd - sum c_i x^i/f = A/B.
            P, D = to_sympy(r.certificate.odd.num), to_sympy(r.certificate.odd.den)
            A, B = to_sympy((odd - klass).num), to_sympy((odd - klass).den)
            lhs = B * (2 * F * (P.diff(sx) * D - P * D.diff(sx)) + P * D * F.diff(sx))
            assert (lhs - 2 * F * D ** 2 * A).is_zero
        # A residue left at a Hermite pole, a bare simple pole and a factor
        # that does not split are refused.
        u = (x + t) / (t * x - one) ** 3
        exact = u.derive("x") + u * spec.fx_rf / (2 * f)
        for bad, message in ((exact + one / ((t * x - one) * f), "third-kind"),
                             (one / ((3 * x - 2 * one) * f ** 2), "third-kind"),
                             (exact + one / ((x * x + t) ** 2 * f), "does not split")):
            with pytest.raises(UnsupportedPoles, match=message):
                curve_reduce(CurveElement(zero, bad, spec))


def test_curve_reduce_takes_every_hermite_pole_from_one_pass(xt, legendre, monkeypatch):
    """A Hermite pole of order 5 next to f^2: one partial-fraction call, and
    no derivative of a partial certificate."""
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    u = CurveElement(zero, (x + t) / ((t * x - one) ** 4 * (x + 2 * one) ** 2
                                      * legendre.f_rf), legendre)
    omega = curve_derive(u, "x") + legendre.basis_form(1)
    calls = []
    original = curve.partial_fractions
    monkeypatch.setattr(curve, "partial_fractions",
                        lambda *args: calls.append(args) or original(*args))

    def refuse(*args):
        raise AssertionError("curve_derive in curve_reduce")

    monkeypatch.setattr(curve, "curve_derive", refuse)
    r = curve_reduce(omega)
    assert len(calls) <= 1
    assert r.certificate.odd == u.odd
    assert r.h1.coords == (zero, one)


def test_curve_reduce_even_parts(xt, legendre, monkeypatch):
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    check, seen = _curve_check_args(monkeypatch)
    r = curve_reduce(CurveElement(x * x + one, zero, legendre))
    assert r.h1.is_zero()
    _assert_curve_check_rejects_corruptions(check, seen[-1], xt)
    # an even part with a double pole next to an odd part with a coordinate
    even = -3 * t / (2 * x - t) ** 2 - one / (x - one) ** 3
    omega = CurveElement(even, x ** 3 / legendre.f_rf, legendre)
    r = curve_reduce(omega)
    assert r.certificate.even.derive("x") == even
    assert dict(r.parts[0].factors[1:]) == {(x - t / 2).num: 1, (x - one).num: 2}
    _assert_curve_check_rejects_corruptions(check, seen[-1], xt)
    with pytest.raises(UnsupportedPoles):
        curve_reduce(CurveElement(one / (x - one), zero, legendre))


def test_picard_fuchs_legendre(xt, legendre):
    x, t, one = xt["x"], xt["t"], xt["one"]
    res = picard_fuchs(legendre, 0, "t")
    assert res.operator.order == 2
    assert res.operator.coeffs[1] == -(2 * t - one) / (t * (t - one))
    assert res.operator.coeffs[0] == -one / (4 * t * (t - one))
    factor = -2 * t * (t - one)
    scaled = res.operator.scaled_coefficients(factor)
    assert scaled[0] == RationalFunction.const(Fraction(-1, 2), xt["reg"])
    assert scaled[1] == -(4 * t - 2 * one)
    assert scaled[2] == factor
    # certificate: scaling the monic certificate by -2t(t-1) gives w/(x-t)^2
    scaled_cert = res.certificate * factor
    assert scaled_cert.even.is_zero()
    assert scaled_cert.odd == one / (x - t) ** 2


def test_picard_fuchs_identity_nonmonic(xt, legendre):
    x, t, one = xt["x"], xt["t"], xt["one"]
    ctx = CurveContext(legendre)
    b = legendre.basis_form(0)
    factor = -2 * t * (t - one)
    lhs = ctx.derive(ctx.derive(b, "t"), "t") * factor \
        + ctx.derive(b, "t") * (-(4 * t - 2 * one)) \
        + b * RationalFunction.const(Fraction(-1, 2), xt["reg"])
    a = CurveElement(xt["zero"], one / (x - t) ** 2, legendre)
    assert (lhs - curve_derive(a, "x")).is_zero()


def test_picard_fuchs_minimality_order1(xt, legendre):
    zero, one = xt["zero"], xt["one"]
    b = legendre.basis_form(0)
    r0 = curve_reduce(b)
    r1 = curve_reduce(curve_derive(b, "t"))
    rows = [{0: r0.h1.coords[i]} for i in range(2)]
    rhs = [-r1.h1.coords[i] for i in range(2)]
    assert linear_solve(rows, rhs, 1, zero, one).inconsistent


def test_picard_fuchs_t_independent(xt):
    x, one = xt["x"], xt["one"]
    curve = CurveSpec((x * (x - one) * (x - 2 * one)).num, "x", xt["reg"])
    res = picard_fuchs(curve, 0, "t")
    assert res.operator.order == 1
    assert res.operator.coeffs[0].is_zero()
    assert res.certificate.is_zero()


def test_picard_fuchs_second_form(xt, legendre):
    res = picard_fuchs(legendre, 1, "t", max_order=4)
    assert res.operator.order <= 4
    # identity is re-verified inside picard_fuchs; reaching here is the test


def test_quartic_curve_basis(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    f = (x * (x - one) * (x - t) * (x + one)).num
    curve = CurveSpec(f, "x", xt["reg"])
    assert curve.basis_size() == 3
    r = curve_reduce(CurveElement(xt["zero"], x ** 4 / curve.f_rf, curve))
    assert len(r.h1.coords) == 3
    res = picard_fuchs(curve, 0, "t", max_order=4)
    assert res.operator.order == 2


def test_picard_fuchs_not_found(xt, legendre):
    with pytest.raises(TelescoperNotFound):
        picard_fuchs(legendre, 0, "t", max_order=1)


def test_curve_reduction_is_fraction_free(xt, monkeypatch):
    """Past the Hermite branch, curve reduction works on numerators over one
    x-free denominator: a UPoly product or division there would stay
    correct but bring back a gcd per coefficient.  The curves are built
    first, because their Bezout identity still comes from upoly_xgcd."""
    x, t, one = xt["x"], xt["t"], xt["one"]
    curves = [CurveSpec((x * (x - one) * (x - t)).num, "x", xt["reg"]),
              CurveSpec(((x ** 2 - one) * (x ** 2 - t)).num, "x", xt["reg"])]

    def refuse(*args):
        raise AssertionError("UPoly arithmetic in curve reduction")

    monkeypatch.setattr(UPoly, "__mul__", refuse)
    monkeypatch.setattr(UPoly, "divmod", refuse)
    for curve in curves:
        for form in range(curve.basis_size()):
            assert picard_fuchs(curve, form, "t").operator.order >= 1


def _split_f_level_by_products(p1, curve):
    """The level split as a loop of RationalFunction products: multiply by
    f while the denominator still meets f in x, and at least once."""
    q, sigma = p1, 0
    while poly_gcd(q.den, curve.f).degree(curve.x_index) > 0:
        sigma += 1
        q = q * curve.f_rf
    if sigma == 0:
        return 0, q * curve.f_rf
    return sigma - 1, q


def test_split_f_level_matches_products(xt):
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    curves = [CurveSpec((x * (x - one) * (x - t)).num, "x", xt["reg"]),
              CurveSpec((t * (x ** 2 - one) * (2 * x ** 2 - t)).num, "x", xt["reg"])]
    for curve in curves:
        f = curve.f_rf
        forms = [
            zero, one, x, x ** 5 / 3,
            # poles on f
            one / f, (x + t) / f ** 3, x ** 2 / (3 * f ** 2 * (x - 2 * one)),
            # poles on a proper factor of f, alone and with the rest of f
            one / (x - one), one / (x - one) ** 4, x / ((x + one) ** 2 * f),
            # x-free denominators, some sharing f's content in t
            one / t, x ** 3 / (t * (t - one)), (x - t) / (2 * t ** 2),
            one / (t * (x - one) ** 2), (x + one) / ((t + one) * (x - 2 * one)),
        ]
        for p1 in forms:
            assert _split_f_level(p1, curve) == _split_f_level_by_products(p1, curve), p1


def test_split_f_level_has_no_level_cap(xt, legendre):
    # Each pass divides the denominator by a factor of positive degree in x,
    # so any power of f separates.
    assert _split_f_level(xt["one"] / legendre.f_rf ** 70, legendre) == (69, xt["one"])


def test_check_picard_fuchs_rejects_a_wrong_certificate_or_operator(xt, legendre,
                                                                    monkeypatch):
    x, t, one = xt["x"], xt["t"], xt["one"]
    quartic = CurveSpec((x * (x - one) * (x - t) * (x + one)).num, "x", xt["reg"])
    original = curve._check_picard_fuchs
    seen = []
    monkeypatch.setattr(curve, "_check_picard_fuchs",
                        lambda *args: seen.append(args) or original(*args))
    for spec, form in ((legendre, 0), (legendre, 1), (quartic, 2)):
        res = picard_fuchs(spec, form, "t")
        op, b, even, odd = seen[-1]
        assert (op, CurveElement(even.value(), odd.value(), spec)) == (
            res.operator, res.certificate)
        # The corruptions over powers of t change only terms of low total
        # degree, below the leading terms of both sides.  An odd part p*w
        # is p over f^(-1/2).
        w = (spec.f_rf, Fraction(-1, 2))
        bad_parts = [(plus(even, x, (one, 1)), odd), (plus(even, x * x, (one, 1)), odd),
                     (even, plus(odd, one, (one, 1), w)), (even, plus(odd, x, (one, 1), w)),
                     (even, plus(odd, one, (t ** 6, 1), w)),
                     (even, plus(odd, one, (t ** 2, 1), (spec.f_rf, Fraction(1, 2))))]
        bad_ops = [LinearDiffOperator(op.symbol, op.coeffs[:i] + (c + bump,) + op.coeffs[i + 1:])
                   for bump in (one, one / t ** 6) for i, c in enumerate(op.coeffs)]
        for bad_op, (e, o) in [(op, p) for p in bad_parts] + [(o, (even, odd)) for o in bad_ops]:
            with pytest.raises(AssertionError):
                original(bad_op, b, e, o)


def test_identity_checks_take_no_gcd_with_x(xt, legendre, monkeypatch):
    """The four identity checks, replayed on the arguments of real runs with
    every binding of `gcd` refusing an argument of positive degree in x: only
    the lcms of x-free denominators may take a gcd."""
    from isocert.exactalg import poly

    x, t, one = xt["x"], xt["t"], xt["one"]
    calls = []
    for module, name in ((derham, "_check_reduction"), (derham, "_check_telescoper"),
                         (curve, "_check_curve_reduction"), (curve, "_check_picard_fuchs")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=original: calls.append(
            (fn, args)) or fn(*args))
    reg = xt["reg"]
    quartic = CurveSpec((x * (x - one) * (x - t) * (x + one)).num, "x", reg)
    for text in _CORPUS:
        derham.telescoper(parse_to_rational(text, reg), "x", "t")
    for spec in (legendre, quartic):
        for form in range(spec.basis_size()):
            picard_fuchs(spec, form, "t")
    assert {fn.__name__ for fn, _ in calls} == {
        "_check_reduction", "_check_telescoper", "_check_curve_reduction",
        "_check_picard_fuchs"}

    x_index = reg.index("x")
    original_gcd = poly.gcd

    def guarded(a, b):
        if a.degree(x_index) > 0 or b.degree(x_index) > 0:
            raise RuntimeError("gcd of polynomials in x")
        return original_gcd(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("isocert"):
            for key, value in list(vars(module).items()):
                if value is original_gcd:
                    monkeypatch.setattr(module, key, guarded)
    with pytest.raises(RuntimeError):
        one / (x + one) + one / (x + 2)
    for fn, args in calls:
        fn(*args)


def test_derive_steps_take_no_gcd_with_x(xt, legendre, monkeypatch):
    """`derive_reduction` and `derive_curve_reduction`, replayed on the
    arguments of real runs with every binding of `gcd` refusing an argument
    of positive degree in x; and one `telescoper` or `picard_fuchs` call
    normalizes each part of its certificate once, where it returns it."""
    from isocert import operators
    from isocert.exactalg import poly

    x, t, one = xt["x"], xt["t"], xt["one"]
    steps = []
    for module, name in ((derham, "derive_reduction"), (curve, "derive_curve_reduction")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=original: steps.append(
            (fn, args)) or fn(*args))
    normalized = []
    value = operators.Certificate.value
    monkeypatch.setattr(operators.Certificate, "value",
                        lambda record: normalized.append(record) or value(record))
    reg = xt["reg"]
    quartic = CurveSpec((x * (x - one) * (x - t) * (x + one)).num, "x", reg)
    for text in _CORPUS:
        normalized.clear()
        derham.telescoper(parse_to_rational(text, reg), "x", "t")
        assert len(normalized) == 1, text
    for spec in (legendre, quartic):
        for form in range(spec.basis_size()):
            normalized.clear()
            picard_fuchs(spec, form, "t")
            assert len(normalized) == 2, (spec.f, form)  # the even and the odd record
    assert {fn.__name__ for fn, _ in steps} == {"derive_reduction", "derive_curve_reduction"}

    x_index = reg.index("x")
    original_gcd = poly.gcd

    def guarded(a, b):
        if a.degree(x_index) > 0 or b.degree(x_index) > 0:
            raise RuntimeError("gcd of polynomials in x")
        return original_gcd(a, b)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("isocert"):
            for key, value in list(vars(module).items()):
                if value is original_gcd:
                    monkeypatch.setattr(module, key, guarded)
    for fn, args in steps:
        fn(*args)
