"""Genus-one curve reduction and Picard-Fuchs operators."""

import random
from fractions import Fraction

import pytest

from isocert.curve import (CurveContext, CurveElement, CurveError, CurveSpec,
                           UnsupportedPoles, _split_f_level, curve_derive,
                           curve_reduce, curve_w, picard_fuchs)
from isocert.exactalg import RationalFunction, UPoly, linear_solve
from isocert.exactalg.poly import gcd as poly_gcd
from isocert.operators import TelescoperNotFound


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


def test_curve_reduce_pole_off_branch_locus(xt, legendre):
    x, t, one, zero = xt["x"], xt["one"], xt["one"], xt["zero"]
    t = xt["t"]
    # d(w/q) + x dx/w has poles at the root of q yet reduces exactly; a pole
    # a/b with b != 1 takes f(a/b) as c_0 / b^3 from the expansion in b*x - a
    for q in (x + one, 2 * x + one, t * x - one):
        u = CurveElement(zero, one / q, legendre)
        omega = curve_derive(u, "x") + legendre.basis_form(1)
        r = curve_reduce(omega)
        assert r.h1.coords[0].is_zero()
        assert r.h1.coords[1] == one
    # a bare double pole off the branch locus carries a residue: third kind
    with pytest.raises(UnsupportedPoles):
        curve_reduce(CurveElement(zero, one / ((x + one) ** 2 * legendre.f_rf),
                                  legendre))
    with pytest.raises(UnsupportedPoles):
        curve_reduce(CurveElement(zero, one / ((x + one) * legendre.f_rf), legendre))


def test_curve_reduce_even_parts(xt, legendre):
    x, one, zero = xt["x"], xt["one"], xt["zero"]
    r = curve_reduce(CurveElement(x * x + one, zero, legendre))
    assert r.h1.is_zero()
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
