"""picard-fuchs: Picard-Fuchs operators of every basis form x^i dx/w on
genus-one curves w^2 = f(x; t).

Six classical curves plus seeded squarefree cubics and a quartic.  The work is
curve reduction, univariate polynomial arithmetic and gcd on dense powers of
f; derham does almost nothing here.
"""

from __future__ import annotations

import random

from harness import Item

CURVES = [
    "x*(x-1)*(x-t)",
    "x^3+t*x+1",
    "x^3-3*x+t",
    "x*(x-1)*(x-t)*(x+1)",
    "x^4+t*x^2+1",
    "(x^2-1)*(x^2-t)",
]
LEGENDRE = "x*(x-1)*(x-t)"
# t(1-t)y'' + (1-2t)y' - y/4 = 0, as the monic coefficients c_0, c_1 of
# y'' = c_1 y' + c_0 y.
LEGENDRE_CLASSICAL = ["1/(4*t*(1-t))", "-(1-2*t)/(t*(1-t))"]


def seeded_curves(seed: int) -> list[str]:
    """Two cubics (x-a)(x-b)(x-t) and one quartic (x^2-c)(x^2-d*t) with
    small distinct nonzero integers, so every seed gives squarefree curves
    of the same shape and a similar cost."""
    rnd = random.Random(seed)
    pool = [-3, -2, -1, 1, 2, 3]
    out = []
    while len(out) < 2:
        a, b = sorted(rnd.sample(pool, 2))
        text = f"(x-({a}))*(x-({b}))*(x-t)"
        if text not in out:
            out.append(text)
    c, d = rnd.sample(pool, 2)
    out.append(f"(x^2-({c}))*(x^2-({d})*t)")
    return out


def build(seed: int) -> list[Item]:
    import isocert.curve as curve_mod
    from isocert.cli.exprio import parse_to_rational
    from isocert.curve import CurveSpec
    from isocert.exactalg import VariableRegistry, VarKind, format_rational

    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t", VarKind.PARAMETRIC)
    curves = [(text, CurveSpec(parse_to_rational(text, reg).num, "x", reg))
              for text in CURVES + seeded_curves(seed)]

    def coeff_texts(res):
        return [format_rational(c) for c in res.operator.coeffs]

    items = []
    for text, curve in curves:
        for form in range(curve.basis_size()):
            def digest(res):
                return "|".join(coeff_texts(res) + [
                    format_rational(res.certificate.even),
                    format_rational(res.certificate.odd), str(res.minimal_certified)])

            def check(res, text=text, form=form):
                import symcheck

                symcheck.check_picard_fuchs(
                    text, form, symcheck.program_operator(coeff_texts(res)),
                    symcheck.sym(format_rational(res.certificate.even)),
                    symcheck.sym(format_rational(res.certificate.odd)))
                if text == LEGENDRE and form == 0:
                    got = [symcheck.sym(c) for c in coeff_texts(res)]
                    want = [symcheck.sym(c) for c in LEGENDRE_CLASSICAL]
                    symcheck.expect(len(got) == 2 and all(
                        symcheck.same(a, b) for a, b in zip(got, want)),
                        "Legendre operator differs from t(1-t)y'' + (1-2t)y' - y/4")

            items.append(Item(f"picard-fuchs[{text}] form {form}",
                              run=lambda _, curve=curve, form=form:
                                  curve_mod.picard_fuchs(curve, form, "t"),
                              digest=digest, check=check))
    return items
