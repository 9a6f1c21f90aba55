"""telescoper: minimal telescopers of rational integrands in Q(t)(x).

The corpus is the 22 integrands of acceptance criterion 07 plus 18 seeded
integrands with up to three x-linear poles of order one or two.  The work is
Gauss-Manin reduction (partial fractions, certificate re-verification) and
bivariate gcd; the curve and cli layers do nothing here.
"""

from __future__ import annotations

import random

from harness import Item

FIXED = [
    "1/(x-t)", "1/(x-t)^2", "t/(x-t)", "t/x", "t^2/x", "1/((x-t)*(x-1))",
    "1/((x-t)*(x-2))", "x/((x-t)*(x-1))", "(x+t)/((x-t)*(x-1))",
    "1/((x-t)*(x-1)*(x-2))", "1/(x*(x-1))", "1/((x-t)*(x-2*t))",
    "1/((x-t)*(x-t-1))", "(x^2+1)/((x-t)*(x-1))", "1/(x-t)^3",
    "(t+1)/((x-t)^2*(x-1))", "1/((x-2*t)*(x+t))", "t/((x-t)*(x+1))",
    "(x-1)/((x-t)*(x+t))", "1/((x-t)*(x-1)) + t/x", "(2*x-t)/((x-t)^2*(x+2))",
    "1/(x*(x-t)*(x+t))",
]
# Seeded integrands keep the shape of a template and draw its constants, so
# each seed gives the same mix of telescoper orders and a similar cost.
TEMPLATES = [
    "{c}/((x-(t+{a}))*(x-({b})))",
    "(x+{c})/((x-(t+{a}))*(x-({b})))",
    "{c}/((x-(t+{a}))*(x-({b}))*(x-({d})))",
    "({c}*t)/((x-(t+{a}))^2*(x-({b})))",
    "{c}/((x-(t+{a}))*(x-(2*t+{b})))",
    "{c}/((x-(t+{a}))*(x-({b}))) + ({d}*t)/x",
]
SEEDED_PER_TEMPLATE = 3


def seeded_integrands(seed: int) -> list[str]:
    """Constants a, b, d are distinct nonzero integers in [-3, 3] and c is a
    nonzero integer in [-3, 3], so no two poles coincide."""
    rnd = random.Random(seed)
    pool = [-3, -2, -1, 1, 2, 3]
    out: list[str] = []
    for template in TEMPLATES:
        made = 0
        while made < SEEDED_PER_TEMPLATE:
            a, b, d = rnd.sample(pool, 3)
            text = template.format(a=a, b=b, c=rnd.choice(pool), d=d)
            if text not in out:
                out.append(text)
                made += 1
    return out


def build(seed: int) -> list[Item]:
    import isocert.derham as derham
    from isocert.cli.exprio import parse_to_rational
    from isocert.exactalg import VariableRegistry, VarKind, format_rational

    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t", VarKind.PARAMETRIC)
    items = []
    for i, text in enumerate(FIXED + seeded_integrands(seed)):
        b = parse_to_rational(text, reg)

        def digest(res):
            return "|".join([format_rational(c) for c in res.operator.coeffs]
                            + [format_rational(res.certificate),
                               str(res.minimal_certified)])

        def check(res, text=text):
            import symcheck

            symcheck.check_telescoper(
                text, symcheck.program_operator([format_rational(c) for c in res.operator.coeffs]),
                symcheck.sym(format_rational(res.certificate)))

        items.append(Item(f"telescoper[{i}] {text}",
                          run=lambda _, b=b: derham.telescoper(b, "x", "t"),
                          digest=digest, check=check))
    return items
