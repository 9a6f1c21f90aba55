"""Rational solutions, companion systems, descriptors, rebasing and
horizontal sections."""

import random
from fractions import Fraction

import pytest

from isocert.connection import ConnectionSystem, check_integrability
from isocert.curve import CurveContext, CurveElement, CurveSpec, curve_w, picard_fuchs
from isocert.derham import telescoper
from isocert.difftower import gamma_tower
from isocert.exactalg import (RationalFunction, UPoly, mat_eq, mat_inverse,
                              partial_fractions)
from isocert.fields import RationalFieldContext
from isocert.galois import (DerivationRebase, SingularRebase,
                            UnsupportedOperator, companion_system,
                            galois_descriptor, galois_descriptor_curve,
                            galois_descriptor_tower, horizontal_sections,
                            rational_solutions, rebase_derivations)
from isocert.operators import LinearDiffOperator



def test_rational_solutions_examples(xt):
    reg, one, zero, t = xt["reg"], xt["one"], xt["zero"], xt["t"]
    assert rational_solutions(LinearDiffOperator("t", (zero,)), reg) == [one]
    assert rational_solutions(LinearDiffOperator("t", (one,)), reg) == []
    got = rational_solutions(LinearDiffOperator("t", (-one / (t - one),)), reg)
    assert got == [one / (t - one)]


def test_rational_solutions_huge_indicial_constant(xt):
    # Euler operator t^2 y'' + a t y' + b y = 0 with indicial polynomial
    # (alpha - 2)(alpha - (2N+1)/2): constant term 2N+1 of 37 digits, one
    # integer exponent, so t^2 spans the rational solutions.
    reg, one, t = xt["reg"], xt["one"], xt["t"]
    n = 10**36
    b = 2 * n + 1
    a = -Fraction(2 * n + 3, 2)
    op = LinearDiffOperator("t", (-b * one / t ** 2, -a * one / t))
    assert rational_solutions(op, reg) == [t ** 2]


def test_rational_solutions_ansatz_crosscheck(xt):
    # d_t - 1 has no polynomial solution up to degree 10 either
    reg, one, t = xt["reg"], xt["one"], xt["t"]
    for deg in range(11):
        cand = t ** deg
        assert cand.derive("t") - cand != RationalFunction.const(0, reg) * cand \
            or deg < 0
    assert rational_solutions(LinearDiffOperator("t", (one,)), reg) == []


def test_rational_solutions_dimension_bound(xt):
    rnd = random.Random(89)
    reg, t, one, zero = xt["reg"], xt["t"], xt["one"], xt["zero"]
    pool = [zero, one, -one, one / t, -one / t, one / (t - one), t, t + one]
    for _ in range(20):
        order = rnd.randint(1, 2)
        coeffs = tuple(rnd.choice(pool) for _ in range(order))
        op = LinearDiffOperator("t", coeffs)
        try:
            basis = rational_solutions(op, reg)
        except UnsupportedOperator:
            continue
        assert len(basis) <= order
        for u in basis:
            assert op.apply(RationalFieldContext(reg), u).is_zero()


def test_rational_solutions_recovers_constructed_spaces(xt):
    """Build operators from prescribed rational solution bases and check the
    solver recovers spaces of the right dimension containing them."""
    import random as _random

    from isocert.exactalg import linear_solve

    rnd = _random.Random(111)
    reg, t, one, zero = xt["reg"], xt["t"], xt["one"], xt["zero"]
    f = RationalFieldContext(reg)
    pool = [t, t + one, t - one, t + 2 * one]

    def unit():
        # Poles of order 1 to 3, and numerators of up to degree 3 that can
        # exceed the pole order, so the degree bound at infinity needs the
        # shift by the degree of the denominator.
        u = RationalFunction.const(rnd.choice([1, 2, -1]), reg)
        for _ in range(rnd.randint(1, 2)):
            u = u * rnd.choice(pool) ** rnd.choice([1, -1, -2, -3])
        return u * rnd.choice(pool) ** rnd.randint(0, 3)

    for u in (t ** 3 / (t - one) ** 2, (t + one) ** 3 / (t * (t - one) ** 2)):
        op = LinearDiffOperator("t", (u.derive("t") / u,))
        basis = rational_solutions(op, reg)
        assert len(basis) == 1 and (u / basis[0]).derive("t").is_zero()

    done = 0
    while done < 10:
        u = unit()
        op = LinearDiffOperator("t", (u.derive("t") / u,))
        basis = rational_solutions(op, reg)
        assert len(basis) == 1
        # u lies in the span: u / basis[0] must be constant
        ratio = u / basis[0]
        assert ratio.derive("t").is_zero()
        done += 1

    done = 0
    while done < 6:
        u, v = unit(), unit()
        wronskian = u * v.derive("t") - v * u.derive("t")
        if wronskian.is_zero():
            continue
        # [u'', v''] = c1*[u', v'] + c0*[u, v] fixes the order-2 operator
        sol = linear_solve(
            [{0: u, 1: u.derive("t")}, {0: v, 1: v.derive("t")}],
            [u.derive("t").derive("t"), v.derive("t").derive("t")],
            2, zero, one)
        if sol.inconsistent:
            continue
        c0, c1 = sol.particular
        op = LinearDiffOperator("t", (c0, c1))
        ctx = RationalFieldContext(reg)
        assert op.apply(ctx, u).is_zero() and op.apply(ctx, v).is_zero()
        try:
            basis = rational_solutions(op, reg)
        except UnsupportedOperator:
            continue
        assert len(basis) == 2
        rows = [[b, b.derive("t")] for b in basis]
        for target in (u, v):
            chk = linear_solve([{0: rows[0][0], 1: rows[1][0]},
                                {0: rows[0][1], 1: rows[1][1]}],
                               [target, target.derive("t")], 2, zero, one)
            assert not chk.inconsistent
        done += 1


def test_rational_solutions_is_upoly_free(xt, monkeypatch):
    """Local data at a pole comes from a Taylor shift and the polynomial part
    of partial fractions from pseudo-division, so neither reaches UPoly."""
    reg, x, t, one = xt["reg"], xt["x"], xt["t"], xt["one"]

    def refuse(*args):
        raise AssertionError("UPoly arithmetic in rational solutions")

    monkeypatch.setattr(UPoly, "divmod", refuse)
    monkeypatch.setattr(UPoly, "eval", refuse)
    monkeypatch.setattr(UPoly, "from_rational", staticmethod(refuse))
    ctx = RationalFieldContext(reg)
    for u in (one / (t - one), t ** 3 / (t - one) ** 2, (t + 2 * one) / (t * t)):
        op = LinearDiffOperator("t", (u.derive("t") / u,))
        basis = rational_solutions(op, reg)
        assert len(basis) == 1 and (u / basis[0]).derive("t").is_zero()
    # (t - 1)^2 y'' - 2 y = 0 has the solutions (t - 1)^2 and 1/(t - 1).
    op = LinearDiffOperator("t", (2 * one / (t - one) ** 2, RationalFunction.const(0, reg)))
    basis = rational_solutions(op, reg)
    assert len(basis) == 2 and all(op.apply(ctx, u).is_zero() for u in basis)
    cases = [(x ** 3 / (x - t) ** 2, x + 2 * t),
             ((x * x + t) / (x - one), x + one),
             ((t * x ** 4 + one) / ((t * x - one) * (x + t)),
              x * x + (one / t - t) * x + t * t - one + one / (t * t))]
    for g, poly_part in cases:
        pfd = partial_fractions(g, "x")
        assert pfd.poly_part == poly_part
        assert pfd.recombine(reg.index("x")) == g


def test_rational_solutions_unsupported(xt):
    reg, one, t = xt["reg"], xt["one"], xt["t"]
    # leading singularity at t^2 + 1 = 0 needs an algebraic extension
    op = LinearDiffOperator("t", (one / (t * t + one),))
    with pytest.raises(UnsupportedOperator):
        rational_solutions(op, reg)


def test_companion_shapes(xt):
    reg, one, zero = xt["reg"], xt["one"], xt["zero"]
    x, t = xt["x"], xt["t"]
    f = RationalFieldContext(reg)
    b = one / (x - t)
    a = -one / (x - t)
    op = LinearDiffOperator("t", (one,))
    S = companion_system(op, b, a, f)
    assert S.size == 2
    assert S.matrices["x"][0] == [zero, zero]
    assert S.matrices["x"][1] == [b, zero]
    assert S.matrices["t"][0] == [zero, zero]
    assert S.matrices["t"][1] == [a, one]

    op2 = LinearDiffOperator("t", (one, t))
    S2 = companion_system(op2, b, a, f)
    assert S2.size == 3
    assert S2.matrices["t"][2] == [a, one, t]
    assert S2.matrices["t"][1] == [zero, zero, one]


def test_companion_flatness_equivalence(xt):
    rnd = random.Random(97)
    reg, one, zero = xt["reg"], xt["one"], xt["zero"]
    x, t = xt["x"], xt["t"]
    f = RationalFieldContext(reg)
    pole_pool = [t, one, zero, t + one]
    done = 0
    while done < 15:
        b = zero
        for _ in range(rnd.randint(1, 2)):
            c = rnd.randint(-2, 2)
            if c:
                b = b + RationalFunction.const(c, reg) / (x - rnd.choice(pole_pool))
        if b.is_zero():
            continue
        done += 1
        res = telescoper(b, "x", "t")
        op, a = res.operator, res.certificate
        S = companion_system(op, b, a, f)
        assert check_integrability(S, "full").flat
        bad = companion_system(op, b, a + x * t, f)
        assert not check_integrability(bad, "full").flat


def test_companion_flatness_on_a_curve(xt):
    # The operator's coefficients lie in Q(t); on a curve the bottom row
    # must hold them as curve elements, which the integrability check derives.
    x, t = xt["x"], xt["t"]
    curve = CurveSpec((x * (x - 1) * (x - t)).num, "x", xt["reg"])
    res = picard_fuchs(curve, 0, "t")
    ctx, b = CurveContext(curve), curve.basis_form(0)
    S = companion_system(res.operator, b, res.certificate, ctx)
    assert all(isinstance(c, CurveElement) for c in S.matrices["t"][-1])
    assert check_integrability(S, "full").flat
    bad = companion_system(res.operator, b, res.certificate + curve_w(curve) * x, ctx)
    assert not check_integrability(bad, "full").flat


def test_galois_descriptor_rational(xt):
    x, t = xt["x"], xt["t"]
    one = xt["one"]
    d = galois_descriptor(one / (x - t), "x", "t")
    assert d.operator.order == 1
    assert d.verdict == "constant"
    assert d.rational_basis == (one,)


def test_galois_descriptor_invariant_under_exact_shift(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    b = one / ((x - t) * (x - one))
    g = t / (x - t)
    d1 = galois_descriptor(b, "x", "t")
    d2 = galois_descriptor(b + g.derive("x"), "x", "t")
    assert d1.operator == d2.operator
    assert d1.verdict == d2.verdict


def test_galois_descriptor_tower_gamma():
    tower, v = gamma_tower()
    one = tower.one
    op = LinearDiffOperator("t", (one,))
    gm_t = tower.extend_jets("gm", {"t": 1})
    d = galois_descriptor_tower(tower, v["w"], op, gm_t - v["gm"], "x")
    assert d.verdict == "nonconstant-over-k"
    assert d.rational_basis == ()
    with pytest.raises(ValueError):
        galois_descriptor_tower(tower, v["w"], op, v["gm"], "x")


def test_galois_descriptor_curve_legendre(xt):
    from isocert.curve import CurveSpec

    x, t, one = xt["x"], xt["t"], xt["one"]
    curve = CurveSpec((x * (x - one) * (x - t)).num, "x", xt["reg"])
    d = galois_descriptor_curve(curve, 0, "t")
    assert d.operator.order == 2
    assert d.verdict == "nonconstant-over-k"


def test_rebase_identity_and_scaling(t1t2):
    f = t1t2["field"]
    one, zero, t1 = t1t2["one"], t1t2["zero"], t1t2["t1"]
    S = ConnectionSystem(f, 1, {"t1": [[t1]], "t2": [[one]]})
    R_id = DerivationRebase(("d1", "d2"), ("t1", "t2"),
                            ((one, zero), (zero, one)))
    S2 = rebase_derivations(S, R_id)
    assert mat_eq(S2.matrices["d1"], S.matrices["t1"])
    assert mat_eq(S2.matrices["d2"], S.matrices["t2"])
    lam = 3 * one
    R_scale = DerivationRebase(("d1", "d2"), ("t1", "t2"),
                               ((lam, zero), (zero, one)))
    S3 = rebase_derivations(S, R_scale)
    assert S3.matrices["d1"][0][0] == lam * t1


def test_rebase_example_and_roundtrip(t1t2):
    f = t1t2["field"]
    one, zero, t1 = t1t2["one"], t1t2["zero"], t1t2["t1"]
    S = ConnectionSystem(f, 1, {"t1": [[zero]], "t2": [[one]]})
    R = DerivationRebase(("d1", "d2"), ("t1", "t2"), ((t1, zero), (t1, one)))
    S2 = rebase_derivations(S, R)
    assert S2.matrices["d1"][0][0].is_zero()
    assert S2.matrices["d2"][0][0] == one
    inverse = mat_inverse([list(row) for row in R.matrix], zero, one)
    back = rebase_derivations(S2, DerivationRebase(("t1", "t2"), ("d1", "d2"),
                                                   tuple(map(tuple, inverse))))
    assert back.matrices["t1"][0][0] == S.matrices["t1"][0][0]
    assert back.matrices["t2"][0][0] == S.matrices["t2"][0][0]


def test_rebase_singular(t1t2):
    f = t1t2["field"]
    one, zero, t1 = t1t2["one"], t1t2["zero"], t1t2["t1"]
    S = ConnectionSystem(f, 1, {"t1": [[zero]], "t2": [[one]]})
    R = DerivationRebase(("d1", "d2"), ("t1", "t2"), ((t1, zero), (t1, zero)))
    with pytest.raises(SingularRebase):
        rebase_derivations(S, R)


def test_horizontal_sections_per_derivation(t1t2):
    f = t1t2["field"]
    one, zero, t1 = t1t2["one"], t1t2["zero"], t1t2["t1"]
    S = ConnectionSystem(f, 1, {"t1": [[zero]], "t2": [[one]]})
    R = DerivationRebase(("d1", "d2"), ("t1", "t2"), ((t1, zero), (t1, one)))
    Sr = rebase_derivations(S, R)
    sec1 = horizontal_sections(Sr, ["d1"], degree_bound=6)
    assert sec1  # anything from Q(t2) works; the ansatz finds polynomials
    sec2 = horizontal_sections(Sr, ["d2"], degree_bound=6)
    assert len(sec2) == 1 and sec2[0][0] == t1
    joint = horizontal_sections(Sr, ["d1", "d2"], degree_bound=6)
    assert joint == []


def test_horizontal_sections_matrix_case(t1t2):
    f = t1t2["field"]
    one, zero, t1, t2 = t1t2["one"], t1t2["zero"], t1t2["t1"], t1t2["t2"]
    # dY = A Y with A nilpotent constant: solutions are polynomial
    A1 = [[zero, one], [zero, zero]]
    A2 = [[zero, zero], [zero, zero]]
    S = ConnectionSystem(f, 2, {"t1": A1, "t2": A2})
    secs = horizontal_sections(S, degree_bound=3)
    assert len(secs) == 2
