"""Canonical reduction mod d/dx, the parameter action on classes, minimal
telescopers and the bivariate exactness decision."""

import random
import time
from fractions import Fraction

import pytest

from isocert import derham
from isocert.derham import (Exact2FormSolvable, Exact2FormUnsolvable,
                            Exact2FormUnsupported, H1Class, ReductionResult,
                            exact2form_solvable, gm_derivative, reduce, telescoper)
from isocert.exactalg import (NonLinearFactor, RationalFunction, gcd, linear_poles,
                              linear_solve, partial_fractions)
from isocert.fields import RationalFieldContext
from isocert.operators import (Certificate, LinearDiffOperator, TelescoperNotFound,
                               _pole_factor)

from conftest import plus, random_rational


def _random_linear_pole_integrand(rnd, env, max_poles=3):
    x, t, one, zero = env["x"], env["t"], env["one"], env["zero"]
    pole_pool = [t, one, zero, 2 * one, t + one, 2 * t, t - one]
    f = zero
    for _ in range(rnd.randint(1, max_poles)):
        p = rnd.choice(pole_pool)
        k = rnd.randint(1, 2)
        c = rnd.randint(-3, 3)
        if not c:
            continue
        num = RationalFunction.const(c, env["reg"])
        if rnd.random() < 0.5:
            num = num * t
        f = f + num / (x - p) ** k
    return f


def test_reduce_examples(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    r = reduce(one / (x - t) ** 2, "x")
    assert r.h1.is_zero()
    assert r.certificate == -one / (x - t)

    r = reduce(one / (x - t), "x")
    assert r.h1.residues == {t: one}
    assert r.certificate.is_zero()

    r = reduce(x / (x - one) ** 2, "x")
    assert r.h1.residues == {one: one}
    assert r.certificate == -one / (x - one)


def test_reduce_requires_linear_poles(xt):
    x, one = xt["x"], xt["one"]
    with pytest.raises(NonLinearFactor):
        reduce(one / (x * x + one), "x")


def test_reduce_of_exact_is_zero_class(xt):
    rnd = random.Random(31)
    for _ in range(60):
        g = _random_linear_pole_integrand(rnd, xt) + random_rational(
            rnd, xt["reg"], simple_den=False)
        r = reduce(g.derive("x"), "x")
        assert r.h1.is_zero()
        # certificate recovers g up to an additive x-constant
        diff = r.certificate - g
        assert diff.derive("x").is_zero()


def test_reduce_of_a_high_order_pole_is_quick(xt):
    # The squarefree decomposition of (x-t)^200 asks for gcd(w, w'), and w'
    # divides w, so gcd answers by exact division instead of running the
    # heuristic on images of about 200^2 bits.  The power is built in the
    # library, past the parser's exponent cap.
    x, t, one = xt["x"], xt["t"], xt["one"]
    f = one / (x - t) ** 200
    start = time.perf_counter()
    r = reduce(f, "x")
    assert time.perf_counter() - start < 2.0
    assert r.h1.is_zero()
    assert r.certificate == -one / (199 * (x - t) ** 199)


def test_reduce_is_k_linear(xt):
    rnd = random.Random(37)
    t = xt["t"]
    for _ in range(20):
        f = _random_linear_pole_integrand(rnd, xt)
        h = _random_linear_pole_integrand(rnd, xt)
        alpha = t + 1
        beta = RationalFunction.const(rnd.randint(-3, 3), xt["reg"])
        lhs = reduce(alpha * f + beta * h, "x").h1
        rhs = reduce(f, "x").h1.scale(alpha) + reduce(h, "x").h1.scale(beta)
        assert lhs == rhs


def test_gm_derivative_examples(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    c = reduce(one / (x - t), "x").h1
    assert gm_derivative(c, "t").is_zero()

    c2 = reduce(one / ((x - t) * (x - one)), "x").h1
    got = gm_derivative(c2, "t")
    assert got.residues == {t: -one / (t - one) ** 2, one: one / (t - one) ** 2}

    assert gm_derivative(H1Class({}), "t").is_zero()


def test_gm_derivative_commutes_with_reduce(xt):
    rnd = random.Random(41)
    for _ in range(40):
        f = _random_linear_pole_integrand(rnd, xt)
        lhs = gm_derivative(reduce(f, "x").h1, "t")
        rhs = reduce(f.derive("t"), "x").h1
        assert lhs == rhs


def test_telescoper_examples(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    res = telescoper(one / (x - t), "x", "t")
    assert res.operator.order == 1
    assert res.operator.coeffs == (xt["zero"],)
    assert res.certificate == -one / (x - t)

    res = telescoper(one / ((x - t) * (x - one)), "x", "t")
    assert res.operator.order == 1
    assert res.operator.coeffs[0] == -one / (t - one)

    res = telescoper(t / x, "x", "t")
    assert res.operator.order == 1
    assert res.operator.coeffs[0] == one / t
    assert res.certificate.is_zero()


def test_telescoper_identity_and_minimality(xt):
    rnd = random.Random(43)
    x, t, zero, one = xt["x"], xt["t"], xt["zero"], xt["one"]
    # Five moving poles: the certificate sum runs over more factors than the
    # benchmark corpus has.
    five = one
    for i in range(1, 6):
        five = five / (x - (i * t + i * i))
    for b in [_random_linear_pole_integrand(rnd, xt) for _ in range(12)] + [five]:
        if b.is_zero():
            continue
        res = telescoper(b, "x", "t")
        # identity
        derivs = [b]
        for _ in range(res.operator.order):
            derivs.append(derivs[-1].derive("t"))
        applied = derivs[res.operator.order]
        for i, c in enumerate(res.operator.coeffs):
            applied = applied - c * derivs[i]
        assert applied == res.certificate.derive("x")
        # brute-force minimality at order n-1
        n = res.operator.order
        if n > 0:
            reductions = [reduce(derivs[j], "x") for j in range(n)]
            poles = sorted({p for r in reductions for p in r.h1.residues},
                           key=lambda p: repr(p))
            rows = [dict(enumerate(r.h1.residues.get(p, zero) for r in reductions[:n - 1]))
                    for p in poles]
            rhs = [-reductions[n - 1].h1.residues.get(p, zero) for p in poles]
            assert linear_solve(rows, rhs, n - 1, zero, one).inconsistent


def test_telescoper_invariance_under_exact_shift(xt):
    rnd = random.Random(47)
    x, t = xt["x"], xt["t"]
    for _ in range(8):
        b = _random_linear_pole_integrand(rnd, xt)
        if b.is_zero() or reduce(b, "x").h1.is_zero():
            continue
        g = random_rational(rnd, xt["reg"], simple_den=False) / (x - t)
        b2 = b + g.derive("x")
        r1 = telescoper(b, "x", "t")
        r2 = telescoper(b2, "x", "t")
        assert r1.operator == r2.operator
        # certificate shifts by D(g) up to an x-constant
        derivs = [g]
        for _ in range(r1.operator.order):
            derivs.append(derivs[-1].derive("t"))
        dg = derivs[r1.operator.order]
        for i, c in enumerate(r1.operator.coeffs):
            dg = dg - c * derivs[i]
        assert (r2.certificate - r1.certificate - dg).derive("x").is_zero()


def test_telescoper_not_found(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    b = one / ((x - t) * (x - one) * x)
    with pytest.raises(TelescoperNotFound):
        telescoper(b, "x", "t", max_order=1)


def test_exact2form_examples(t1t2):
    t1, t2, one, zero = t1t2["t1"], t1t2["t2"], t1t2["one"], t1t2["zero"]
    out = exact2form_solvable(one / (t1 * t2), "t1", "t2")
    assert isinstance(out, Exact2FormUnsolvable)
    assert out.pole == zero
    assert out.residue == one / t2
    assert not out.residue_class.is_zero()

    out = exact2form_solvable(one / (t1 ** 2 * t2 ** 2), "t1", "t2")
    assert isinstance(out, Exact2FormSolvable)
    assert out.f1.derive("t2") - out.f2.derive("t1") == one / (t1 ** 2 * t2 ** 2)

    out = exact2form_solvable(zero, "t1", "t2")
    assert isinstance(out, Exact2FormSolvable)
    assert out.f1.is_zero() and out.f2.is_zero()

    # The pole t1 = t2 moves with t2; its motion term cancels the Hermite
    # part t2/(t1 - t2) of f2.
    g = (t2 / (t1 - t2)).derive("t2")
    out = exact2form_solvable(g, "t1", "t2")
    assert isinstance(out, Exact2FormSolvable)
    assert out.f1 == t2 / (t1 - t2)
    assert out.f2.is_zero()
    assert out.f1.derive("t2") - out.f2.derive("t1") == g


def test_exact2form_solvable_random(t1t2):
    rnd = random.Random(53)
    t1, t2, one = t1t2["t1"], t1t2["t2"], t1t2["one"]
    # exact inputs must come back solvable with verified certificates
    for _ in range(10):
        f1 = random_rational(rnd, t1t2["reg"], simple_den=True)
        f2 = random_rational(rnd, t1t2["reg"], simple_den=True)
        g = f1.derive("t2") - f2.derive("t1")
        out = exact2form_solvable(g, "t1", "t2")
        if isinstance(out, Exact2FormUnsupported):
            continue
        assert isinstance(out, Exact2FormSolvable)
        assert out.f1.derive("t2") - out.f2.derive("t1") == g


def test_exact2form_unsupported(xt1t2):
    # extra variable
    out = exact2form_solvable(xt1t2["x"] / (xt1t2["t1"] * xt1t2["t2"]), "t1", "t2")
    assert isinstance(out, Exact2FormUnsupported)


def test_integrate_poly(xt):
    # A polynomial in x reduces to the zero class, and its certificate is the
    # antiderivative without constant term, over the x-free denominator.
    x, t = xt["x"], xt["t"]
    f = 3 * x ** 2 + t * x + t
    r = reduce(f, "x")
    assert r.h1.is_zero()
    assert r.certificate == x ** 3 + t * x ** 2 / 2 + t * x
    r = reduce(f / (t + 1) + 1 / (x - t) ** 2, "x")
    assert r.certificate == (x ** 3 + t * x ** 2 / 2 + t * x) / (t + 1) - 1 / (x - t)


def _reference_reduce(f, x_name):
    """The reduction as a sum of normalized rational functions, one Hermite
    term -c/((m-1)*(x-p)^(m-1)) at a time: slow, but independent of the
    known-denominator construction."""
    pfd = partial_fractions(f, x_name)
    x = RationalFunction.var(x_name, f.registry)
    poly = pfd.poly_part
    cert = RationalFunction(poly.num.integral(f.registry.index(x_name)), poly.den, f.registry)
    residues = {}
    for pole, part in pfd.principal.items():
        for m, c in part.items():
            if m == 1:
                residues[pole] = residues.get(pole, 0) + c
            else:
                cert = cert - c / (Fraction(m - 1) * (x - pole) ** (m - 1))
    return H1Class(residues), cert


def test_reduce_matches_the_term_by_term_reference(xt):
    """Up to three x-linear poles b*x - a of order 1-6, some depending on t,
    some not monic in x, with or without a polynomial part: the one-pass
    certificate equals the term-by-term sum, and both are canonical."""
    from hypothesis import given, seed, settings, strategies as st

    x, t, one = xt["x"], xt["t"], xt["one"]
    tops = [-2 * one, -one, 0 * one, one, 3 * one, t, -t, t ** 2, t + 1, 2 * t - 1]
    bottoms = [one, one, 2 * one, 3 * one, t, t + 1]
    pole = st.tuples(st.sampled_from(tops), st.sampled_from(bottoms), st.integers(1, 6))
    term = st.tuples(st.integers(-3, 3), st.integers(0, 8), st.integers(0, 2))

    @seed(20261019)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(pole, min_size=1, max_size=3), st.lists(term, min_size=1, max_size=4))
    def inner(poles, terms):
        num = sum((c * x ** i * t ** j for c, i, j in terms), 0 * one)
        if num.is_zero():
            return
        den = one
        for a, b, k in poles:
            den = den * (b * x - a) ** k
        f = num / den
        h1, cert = _reference_reduce(f, "x")
        got = reduce(f, "x")
        assert got.h1 == h1
        assert got.certificate == cert
        assert got.certificate.den == got.certificate.den.monic()
        assert gcd(got.certificate.num, got.certificate.den).is_one()

    inner()


def test_principal_parts_are_grouped_by_pole_in_linear_poles_order(xt):
    """partial_fractions keys each principal part by its pole, in the order
    of linear_poles(den), up to the multiplicity and with no zero
    coefficient; reduce's record lists the same poles in the same order, at
    the largest order minus 1, simple poles at 0."""
    x, t = xt["x"], xt["t"]
    ix = xt["reg"].index("x")
    for f in [(x ** 3 + t) / ((x - t) ** 3 * (2 * x + 1) * (t * x - 1) ** 2) + x,
              1 / ((x - t) ** 2 * (x - 1)), (x + 1) / ((x - 2) * (x - t) ** 4 * x ** 2),
              1 / (x - 1) ** 2 + t / (x + 1) ** 2, x ** 2 / ((3 * x - t) * (x + t))]:
        pfd = partial_fractions(f, "x")
        poles = linear_poles(f.den, ix, xt["reg"])
        assert list(pfd.principal) == [p for p, _ in poles]
        for (_, m), part in zip(poles, pfd.principal.values()):
            assert max(part) == m
            assert all(1 <= k <= m and not c.is_zero() for k, c in part.items())
        assert pfd.recombine(ix) == f
        [record] = reduce(f, "x").parts
        assert record.factors[1:] == [(_pole_factor(p, ix), max(part) - 1)
                                      for p, part in pfd.principal.items()]


def test_hermite_at_f_one_is_the_closed_form(xt):
    """At f = 1 and m = 0 the recurrence gives u_i = -c_(i+1)/i at every
    pole, the record lists each pole at its largest order minus 1 (a simple
    pole at 0), and the residues are the order-1 coefficients."""
    x, t = xt["x"], xt["t"]
    reg, ix = xt["reg"], xt["reg"].index("x")
    for f in [(x ** 3 + t) / ((x - t) ** 3 * (2 * x + 1) * (t * x - 1) ** 2),
              (x + 1) / ((x - 2) * (x - t) ** 4 * x ** 2), 1 / (x - t) ** 9,
              1 / (x - 1) ** 2 + t / (x + 1) ** 2, x ** 2 / ((3 * x - t) * (x + t))]:
        principal = partial_fractions(f, "x").principal
        record, residues = derham._hermite(principal, ix, reg)
        closed = xt["zero"]
        for pole, part in principal.items():
            for n, c in part.items():
                if n > 1:
                    closed = closed - c / ((n - 1) * (x - pole) ** (n - 1))
        assert record.value() == closed
        assert record.factors[1:] == [(_pole_factor(p, ix), max(part) - 1)
                                      for p, part in principal.items()]
        assert residues == {p: part[1] for p, part in principal.items() if 1 in part}


def test_reduction_results_compare_by_class_and_certificate(xt):
    x, t, one, zero = xt["x"], xt["t"], xt["one"], xt["zero"]
    result = reduce(1 / ((x - t) ** 2 * (x - 1)), "x")
    [record] = result.parts
    # The same value over a longer factor list is the same certificate.
    same = ReductionResult(result.h1, plus(record, zero, (one, 1), (x + 5, 3)))
    assert same == result and hash(same) == hash(result)
    assert ReductionResult(result.h1, plus(record, x, (one, 1))) != result
    assert ReductionResult(H1Class(), record) != result


def test_check_reduction_rejects_a_wrong_certificate_or_class(xt, monkeypatch):
    x, t, one = xt["x"], xt["t"], xt["one"]
    f = (x ** 3 + t) / ((x - t) ** 3 * (2 * x + 1) * (t * x - 1) ** 2)
    original = derham._check_reduction
    seen = []
    monkeypatch.setattr(derham, "_check_reduction",
                        lambda *args: seen.append(args) or original(*args))
    reduce(f, "x")
    [(g, result)] = seen
    [record], h1 = result.parts, result.h1
    assert dict(record.factors[1:]) == {(x - t).num: 2, (t * x - 1).num: 1,
                                        (x + one / 2).num: 0}
    pole = h1.poles()[0]
    wrong = [
        ReductionResult(h1, Certificate(record.num + x.num, record.factors, record.x,
                                        record.registry)),
        ReductionResult(h1, plus(record, x, (one, 1))),
        ReductionResult(h1, plus(record, x * x, (one, 1))),
        ReductionResult(H1Class({**h1.residues, pole: h1.residue(pole) + t}), record),
        ReductionResult(H1Class({**h1.residues, pole: h1.residue(pole) + 1}), record),
    ]
    for bad in wrong:
        with pytest.raises(AssertionError):
            original(g, bad)
    # A division that leaves a remainder, or a sum that does not vanish,
    # fails the same way: a factor list whose exponents do not match the
    # numerator, or an integrand with a pole the identity does not produce.
    raised = Certificate(record.num, [record.factors[0]] + [
        (q, e + 1) for q, e in record.factors[1:]], record.x, record.registry)
    for args in ((g, ReductionResult(h1, raised)), (g / (x + 5), result)):
        with pytest.raises(AssertionError) as err:
            original(*args)
        assert isinstance(err.value.__context__, ArithmeticError)


def _bumped_operators(op, bumps):
    """The operator with each bump added to each of its coefficients in turn."""
    return [LinearDiffOperator(op.symbol, op.coeffs[:i] + (c + bump,) + op.coeffs[i + 1:])
            for bump in bumps for i, c in enumerate(op.coeffs)]


def _telescoper_check_args(b, monkeypatch):
    original = derham._check_telescoper
    seen = []
    monkeypatch.setattr(derham, "_check_telescoper",
                        lambda *args: seen.append(args) or original(*args))
    result = telescoper(b, "x", "t")
    [args] = seen
    assert (args[0], args[2].value()) == (result.operator, result.certificate)
    return original, args


def test_check_telescoper_rejects_a_wrong_certificate_or_operator(xt, monkeypatch):
    # Poles a/b with b = 1, 2 and t, one of them double and one free of t.
    x, t, one = xt["x"], xt["t"], xt["one"]
    b = (x + t) / ((x - t) ** 2 * (2 * x + 1) * (t * x - 1))
    original, (op, g, cert, t_name, poles) = _telescoper_check_args(b, monkeypatch)
    assert op.order == 2
    assert dict(poles) == {(x - t).num: 2, (x + one / 2).num: 1, (t * x - 1).num: 1}
    # The last certificate and bump change only terms of low total degree,
    # below the leading terms of both sides.
    wrong = [(op, plus(cert, x, (one, 1))), (op, plus(cert, x * x, (one, 1))),
             (op, plus(cert, one, (t ** 6, 1), (x - t, 2)))] + [
        (bad, cert) for bad in _bumped_operators(op, (one, one / t ** 6))]
    for bad_op, bad_cert in wrong:
        with pytest.raises(AssertionError):
            original(bad_op, g, bad_cert, t_name, poles)
    # A certificate with a pole the integrand does not have, or a pole order
    # below the integrand's, fails in an exact division or a sum that does
    # not vanish.
    low = [(q, 1) if q == (x - t).num else (q, m) for q, m in poles]
    for args in ((op, g, plus(cert, one, (one, 1), (x + 5, 1)), t_name, poles),
                 (op, g, cert, t_name, low)):
        with pytest.raises(AssertionError) as err:
            original(*args)
        assert isinstance(err.value.__context__, ArithmeticError)


def test_check_telescoper_on_two_poles_of_order_20(xt, monkeypatch):
    x, t, one = xt["x"], xt["t"], xt["one"]
    b = one / ((x - t) ** 20 * (x - one) ** 20)
    original, (op, g, cert, t_name, poles) = _telescoper_check_args(b, monkeypatch)
    assert dict(poles) == {(x - t).num: 20, (x - one).num: 20}
    # The identity holds as the normalized rational functions compute it.
    field = RationalFieldContext(xt["reg"])
    assert op.apply(field, b) == cert.value().derive("x")
    for bad_op, bad_cert in [(op, plus(cert, x, (one, 1))),
                             (op, plus(cert, x * x, (one, 1), (x - t, 20))),
                             (op, plus(cert, one, (t ** 6, 1), (x - t, 2)))] + [
            (bad, cert) for bad in _bumped_operators(op, (one, one / t ** 6))]:
        with pytest.raises(AssertionError):
            original(bad_op, g, bad_cert, t_name, poles)
