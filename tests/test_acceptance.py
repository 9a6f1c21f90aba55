"""Acceptance suite: every criterion is an exact symbolic identity
(tolerance 0).  Each test prints one PASS/FAIL line; run with `pytest -s`
to see them live.
"""

import random
from contextlib import contextmanager

from isocert.cli.examples import (run_heisenberg, run_incomplete_gamma,
                                  run_iterated_integrals, run_legendre,
                                  run_per_derivation_triviality, run_replace_bi)
from isocert.cli.exprio import parse_to_rational
from isocert.connection import (ConnectionSystem, FlattenFound,
                                SingularGauge, bianchi_sum, centralizer,
                                check_integrability, defect, flatten, gauge)
from isocert import derham
from isocert.curve import (CurveSpec, curve_derive, curve_reduce,
                           derive_curve_reduction, picard_fuchs)
from isocert.derham import (derive_reduction, gm_derivative, reduce,
                            telescoper)
from isocert.difftower import DerivationSymbol, Tower
from isocert.exactalg import poly
from isocert.exactalg import (RationalFunction, VariableRegistry, VarKind,
                              identity, linear_solve, mat_eq, mat_inverse,
                              mat_is_zero, mat_mul, zeros)
from isocert.fields import RationalFieldContext
from isocert.galois import companion_system
from conftest import random_poly


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def _xt_registry():
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t", VarKind.PARAMETRIC)
    return reg


def test_criterion_01_heisenberg_obstruction():
    with criterion(1, "Heisenberg defect equals (1/(t1*t2))*E13 and flatten "
                      "proves the obstruction with residue witness 1/t2"):
        report = run_heisenberg()
        assert report.payload["status"] == "pass"
        assert report.payload["defect"][0][2] == "1/(t1*t2)"
        assert report.payload["witness"]["residue"] == "1/t2"
        assert report.payload["witness"]["residue_class_zero"] is False


def test_criterion_02_commutant():
    with criterion(2, "centralizer of the three unitriangular generators is "
                      "exactly span{Id, E13}"):
        reg = VariableRegistry()
        reg.add("t1", VarKind.PARAMETRIC)
        reg.add("t2", VarKind.PARAMETRIC)
        f = RationalFieldContext(reg)
        zero, one = f.zero, f.one
        I = identity(3, zero, one)
        gens = []
        for (i, j) in ((0, 1), (1, 2), (0, 2)):
            m = [row[:] for row in I]
            m[i][j] = one
            gens.append(m)
        basis = centralizer(gens, f)
        E13 = zeros(3, 3, zero)
        E13[0][2] = one
        targets = [I, E13]
        assert len(basis) == 2
        rows = [{k: basis[k][i][j] for k in range(2)} for i in range(3) for j in range(3)]
        for m in targets:
            rhs = [m[i][j] for i in range(3) for j in range(3)]
            assert not linear_solve(rows, rhs, 2, zero, one).inconsistent
        back = [{k: targets[k][i][j] for k in range(2)} for i in range(3) for j in range(3)]
        for m in basis:
            rhs = [m[i][j] for i in range(3) for j in range(3)]
            assert not linear_solve(back, rhs, 2, zero, one).inconsistent


def test_criterion_03_iterated_integrals():
    with criterion(3, "iterated-integral tower: pairwise conditions hold, the "
                      "joint defect is (1/(t1*t2))*E13, and the matrices arise "
                      "by gauging the constant pair"):
        report = run_iterated_integrals()
        assert report.payload["pairwise_flat"] is True
        assert report.payload["full_flat"] is False
        assert report.payload["defect"][0][2] == "1/(t1*t2)"
        assert report.payload["gauge_reproduces_system"] is True


def test_criterion_04_replace_bi():
    with criterion(4, "shifting the last matrix by diag(t1) keeps every "
                      "principal pair and fails exactly the (t1, td) pair"):
        report = run_replace_bi()
        assert report.payload["pairwise_flat"] is True
        assert report.payload["full_flat"] is False
        assert report.payload["failing_pair"] == ["t2", "t1"]
        assert report.payload["defect_t1_td"] == [["1", "0"], ["0", "1"]]


def test_criterion_05_legendre():
    with criterion(5, "Picard-Fuchs of dx/w on w^2=x(x-1)(x-t): order 2, the "
                      "-2t(t-1)-scaling reproduces the displayed operator and "
                      "certificate, order-1 search inconsistent"):
        report = run_legendre()
        assert report.payload["order"] == 2
        assert report.payload["scaled_coefficients"] == \
            ["-1/2", "-4*t+2", "-2*t^2+2*t"]
        assert report.payload["order_1_inconsistent"] is True


def test_criterion_06_incomplete_gamma():
    with criterion(6, "incomplete-Gamma tower: (d_t - 1) certificate identity "
                      "verified exactly and the group is nonconstant over Q(t)"):
        report = run_incomplete_gamma()
        assert report.payload["identity_holds"] is True
        assert report.payload["companion_flat"] is True
        assert report.payload["rational_solution_dimension"] == 0
        assert report.payload["verdict"] == "nonconstant-over-k"


_CORPUS = [
    "1/(x-t)",
    "1/(x-t)^2",
    "t/(x-t)",
    "t/x",
    "t^2/x",
    "1/((x-t)*(x-1))",
    "1/((x-t)*(x-2))",
    "x/((x-t)*(x-1))",
    "(x+t)/((x-t)*(x-1))",
    "1/((x-t)*(x-1)*(x-2))",
    "1/(x*(x-1))",
    "1/((x-t)*(x-2*t))",
    "1/((x-t)*(x-t-1))",
    "(x^2+1)/((x-t)*(x-1))",
    "1/(x-t)^3",
    "(t+1)/((x-t)^2*(x-1))",
    "1/((x-2*t)*(x+t))",
    "t/((x-t)*(x+1))",
    "(x-1)/((x-t)*(x+t))",
    "1/((x-t)*(x-1)) + t/x",
    "(2*x-t)/((x-t)^2*(x+2))",
    "1/(x*(x-t)*(x+t))",
]


def test_criterion_07_telescoper_corpus():
    with criterion(7, f"telescoper corpus ({len(_CORPUS)} integrands): every "
                      "(D, a) verifies D(b) = d_x(a) exactly and the order-"
                      "(n-1) system is inconsistent"):
        reg = _xt_registry()
        zero = RationalFunction.const(0, reg)
        one = RationalFunction.const(1, reg)
        assert len(_CORPUS) >= 20
        for text in _CORPUS:
            b = parse_to_rational(text, reg)
            res = telescoper(b, "x", "t")
            n = res.operator.order
            derivs = [b]
            for _ in range(n):
                derivs.append(derivs[-1].derive("t"))
            applied = derivs[n]
            for i, c in enumerate(res.operator.coeffs):
                applied = applied - c * derivs[i]
            assert applied == res.certificate.derive("x"), text
            if n > 0:
                reductions = [reduce(derivs[j], "x") for j in range(n)]
                poles = sorted({p for r in reductions for p in r.h1.residues},
                               key=lambda p: repr(p))
                rows = [dict(enumerate(r.h1.residues.get(p, zero)
                                       for r in reductions[:n - 1]))
                        for p in poles]
                rhs = [-reductions[n - 1].h1.residues.get(p, zero) for p in poles]
                assert linear_solve(rows, rhs, n - 1, zero, one).inconsistent, text


def test_heuristic_gcd_needs_no_prs_fallback(monkeypatch):
    """The integer heuristic gcd answers every gcd that the criterion-07
    telescopers and the Legendre Picard-Fuchs search ask for: a kernel that
    degrades into the subresultant PRS stays correct but loses its speed."""
    calls = {"heuristic": 0, "prs": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(poly, "_heugcd", counting("heuristic", poly._heugcd))
    monkeypatch.setattr(poly, "_prs_route", counting("prs", poly._prs_route))
    reg = _xt_registry()
    for text in _CORPUS:
        telescoper(parse_to_rational(text, reg), "x", "t")
    legendre = parse_to_rational("x*(x-1)*(x-t)", reg).num
    picard_fuchs(CurveSpec(legendre, "x", reg), 0, "t")
    assert calls["heuristic"] > 0
    assert calls["prs"] == 0


def _random_linear_pole_fn(rnd, reg):
    x = RationalFunction.var("x", reg)
    t = RationalFunction.var("t", reg)
    one = RationalFunction.const(1, reg)
    zero = RationalFunction.const(0, reg)
    pool = [t, one, zero, 2 * one, t + one, 2 * t, t - one, -t]
    f = zero
    for _ in range(rnd.randint(1, 3)):
        c = rnd.randint(-3, 3)
        if not c:
            continue
        num = RationalFunction.const(c, reg)
        if rnd.random() < 0.5:
            num = num * t
        f = f + num / (x - rnd.choice(pool)) ** rnd.randint(1, 2)
    if rnd.random() < 0.3:
        f = f + RationalFunction.const(rnd.randint(-2, 2), reg) * x
    return f


def test_criterion_08_reduction_properties():
    with criterion(8, "200 random instances: reduce(d_x g) has empty class and "
                      "gm_derivative(reduce(f)) = reduce(d_t f), exact"):
        rnd = random.Random(101)
        reg = _xt_registry()
        count = 0
        while count < 200:
            f = _random_linear_pole_fn(rnd, reg)
            if f.is_zero():
                continue
            count += 1
            assert reduce(f.derive("x"), "x").h1.is_zero()
            assert gm_derivative(reduce(f, "x").h1, "t") == \
                reduce(f.derive("t"), "x").h1


def _assert_stepped_reductions_match(b, orders=4):
    """derive_reduction reaches the same class and certificate as reducing
    d_t^j b directly, for every j <= orders."""
    stepped = reduce(b, "x")
    direct_input = b
    for j in range(1, orders + 1):
        stepped = derive_reduction(stepped, "t")
        direct_input = direct_input.derive("t")
        direct = reduce(direct_input, "x")
        assert stepped.h1 == direct.h1, (b, j)
        assert stepped.certificate == direct.certificate, (b, j)


def test_stepped_reduction_matches_direct_reduce():
    reg = _xt_registry()
    for text in _CORPUS:
        _assert_stepped_reductions_match(parse_to_rational(text, reg))
    rnd = random.Random(202)
    count = 0
    while count < 16:
        f = _random_linear_pole_fn(rnd, reg)
        if f.is_zero():
            continue
        count += 1
        _assert_stepped_reductions_match(f)


def test_stepped_curve_reduction_matches_direct_reduce():
    reg = _xt_registry()
    t = RationalFunction.var("t", reg)
    cases = []
    for text in ("x*(x-1)*(x-t)", "(x^2-1)*(x^2-t)"):
        curve = CurveSpec(parse_to_rational(text, reg).num, "x", reg)
        cases += [(text, form, curve.basis_form(form)) for form in range(curve.basis_size())]
    # On a t-free curve d_t does not move f, so each step enters
    # `_reduce_numerator` at level 0.
    text = "x*(x-1)*(x-2)"
    curve = CurveSpec(parse_to_rational(text, reg).num, "x", reg)
    cases += [(text, (form, k), curve.basis_form(form) * t ** k)
              for form in range(curve.basis_size()) for k in (1, 2, 5)]
    for text, form, omega in cases:
        stepped = curve_reduce(omega)
        for j in range(1, 5):
            stepped = derive_curve_reduction(stepped, "t")
            omega = curve_derive(omega, "t")
            direct = curve_reduce(omega)
            assert stepped.h1.coords == direct.h1.coords, (text, form, j)
            assert stepped.certificate.odd == direct.certificate.odd, (text, form, j)
            assert stepped.certificate.even.is_zero(), (text, form, j)
            assert direct.certificate.even.is_zero(), (text, form, j)


def test_telescoper_runs_partial_fractions_once(monkeypatch):
    """Each telescoper reduces its integrand once and steps every later
    order from that reduction: a driver that went back to reducing d_t^j b
    would stay correct but lose its speed."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = derham.partial_fractions
    monkeypatch.setattr(derham, "partial_fractions", counting)
    reg = _xt_registry()
    for text in _CORPUS:
        calls.clear()
        telescoper(parse_to_rational(text, reg), "x", "t")
        assert len(calls) == 1, text


def test_criterion_09_gauge_covariance_and_bianchi():
    with criterion(9, "defect conjugation under 100 random gauges and "
                      "bianchi_sum == 0 on random systems over 3 sizes x 3 "
                      "fields, exact"):
        rnd = random.Random(103)
        reg = VariableRegistry()
        reg.add("t1", VarKind.PARAMETRIC)
        reg.add("t2", VarKind.PARAMETRIC)
        f = RationalFieldContext(reg)
        zero, one = f.zero, f.one
        t1 = RationalFunction.var("t1", reg)

        def small_poly_entry():
            p = random_poly(rnd, reg, max_terms=2, max_deg=1)
            return RationalFunction.from_poly(p, reg)

        def small_matrix(n):
            return [[small_poly_entry() if rnd.random() < 0.6 else zero
                     for _ in range(n)] for _ in range(n)]

        done = 0
        while done < 100:
            n = 2
            mats = {s: small_matrix(n) for s in ("t1", "t2")}
            S = ConnectionSystem(f, n, mats)
            g = identity(n, zero, one)
            i, j = rnd.sample(range(n), 2)
            g[i][j] = small_poly_entry()
            if rnd.random() < 0.3:
                g[0][0] = t1
            try:
                Sg = gauge(S, g)
                ginv = mat_inverse(g, zero, one)
            except SingularGauge:
                continue
            done += 1
            lhs = defect(Sg, "t2", "t1")
            rhs = mat_mul(mat_mul(g, defect(S, "t2", "t1"), zero), ginv, zero)
            assert mat_eq(lhs, rhs)

        # Bianchi: sizes 1..3 over three coefficient fields, each with three
        # commuting derivations.
        reg_p3 = VariableRegistry()
        for name in ("t1", "t2", "t3"):
            reg_p3.add(name, VarKind.PARAMETRIC)
        f_p3 = RationalFieldContext(reg_p3)
        reg3 = VariableRegistry()
        reg3.add("x", VarKind.PRINCIPAL)
        reg3.add("t1", VarKind.PARAMETRIC)
        reg3.add("t2", VarKind.PARAMETRIC)
        f3 = RationalFieldContext(reg3)
        tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t1"),
                       DerivationSymbol("t2")])
        tower.add_generator("I1")
        jet = tower.extend_jets("I1", {"x": 1})
        fields = [
            ("parameters-only", f_p3, ("t1", "t2", "t3")),
            ("with-principal", f3, ("x", "t1", "t2")),
            ("tower", tower, ("x", "t1", "t2")),
        ]
        for label, ctx, syms in fields:
            for n in (1, 2, 3):
                def entry():
                    if label == "tower":
                        base = [tower.one, tower.element("t1"), jet,
                                tower.element("I1"), tower.zero]
                        return rnd.choice(base) * rnd.randint(-2, 2)
                    p = random_poly(rnd, ctx.registry, max_terms=2, max_deg=1)
                    return RationalFunction.from_poly(p, ctx.registry)

                mats = {s: [[entry() if rnd.random() < 0.6 else ctx.zero
                             for _ in range(n)] for _ in range(n)]
                        for s in syms}
                S = ConnectionSystem(ctx, n, mats)
                u, v, w = syms
                assert mat_is_zero(bianchi_sum(S, u, v, w), ctx.zero), (label, n)


def test_criterion_10_per_derivation_triviality():
    with criterion(10, "rank-1 rebased system: nonzero sections for each "
                       "derivation separately, empty joint basis within "
                       "degree bound 6"):
        report = run_per_derivation_triviality()
        assert report.payload["d1_section_count"] > 0
        assert report.payload["d2_sections"] == [["t1"]]
        assert report.payload["joint_section_count"] == 0
        assert report.payload["degree_bound"] == 6


def test_criterion_11_companion_equivalence():
    with criterion(11, "50 random (D, b, a): companion system is fully "
                       "integrable iff D(b) = d_x(a), exact"):
        rnd = random.Random(107)
        reg = _xt_registry()
        f = RationalFieldContext(reg)
        x = RationalFunction.var("x", reg)
        t = RationalFunction.var("t", reg)
        one = RationalFunction.const(1, reg)
        zero = RationalFunction.const(0, reg)
        pole_pool = [t, one, zero, t + one]
        done = 0
        while done < 50:
            b = zero
            for _ in range(rnd.randint(1, 2)):
                c = rnd.randint(-2, 2)
                if c:
                    b = b + RationalFunction.const(c, reg) / (x - rnd.choice(pole_pool))
            if b.is_zero():
                continue
            res = telescoper(b, "x", "t")
            op, a = res.operator, res.certificate
            if op.order == 0:
                continue
            done += 1
            make_valid = done % 2 == 0
            if make_valid:
                # shift by d_x of something keeps validity
                g = rnd.choice([zero, t / (x - t), one / (x - one)])
                b2, a2 = b + g.derive("x"), None
                derivs = [g]
                for _ in range(op.order):
                    derivs.append(derivs[-1].derive("t"))
                dg = derivs[op.order]
                for i, c in enumerate(op.coeffs):
                    dg = dg - c * derivs[i]
                a2 = a + dg
                S = companion_system(op, b2, a2, f)
                assert check_integrability(S, "full").flat
            else:
                bad = rnd.choice([x, x * t, one / (x - t) + x])
                S = companion_system(op, b, a + bad, f)
                assert not check_integrability(S, "full").flat


def test_criterion_12_scalar_flatten_success():
    with criterion(12, "scalar B1 = t2, B2 = 0 over Q(t1,t2): flatten returns "
                       "Found and the output re-verifies as fully integrable"):
        reg = VariableRegistry()
        reg.add("t1", VarKind.PARAMETRIC)
        reg.add("t2", VarKind.PARAMETRIC)
        f = RationalFieldContext(reg)
        t2 = RationalFunction.var("t2", reg)
        S = ConnectionSystem(f, 1, {"t1": [[t2]], "t2": [[f.zero]]})
        outcome = flatten(S, order=["t1", "t2"])
        assert isinstance(outcome, FlattenFound)
        assert check_integrability(outcome.system, "full").flat
