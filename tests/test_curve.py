"""Genus-one curve reduction and Picard-Fuchs operators."""

import random
from fractions import Fraction

import pytest

from isocert.curve import (CurveContext, CurveElement, CurveError, CurveSpec,
                           PicardFuchsNotFound, UnsupportedPoles, curve_derive,
                           curve_reduce, curve_w, picard_fuchs)
from isocert.exactalg import RationalFunction, linear_solve


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


def test_curve_reduce_w_cubed(xt, legendre):
    zero = xt["zero"]
    omega = CurveElement(zero, xt["one"] / legendre.f_rf ** 2, legendre)
    r = curve_reduce(omega)
    assert not r.h1.is_zero()


def test_curve_reduce_pole_off_branch_locus(xt, legendre):
    x, t, one, zero = xt["x"], xt["one"], xt["one"], xt["zero"]
    t = xt["t"]
    # d(w/(x+1)) + x dx/w has poles at x = -1 yet reduces exactly
    u = CurveElement(zero, one / (x + one), legendre)
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
    with pytest.raises(PicardFuchsNotFound):
        picard_fuchs(legendre, 0, "t", max_order=1)
