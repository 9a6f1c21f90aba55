"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from isocert.exactalg import (MultiPoly, RationalFunction, VariableRegistry,
                              VarKind)
from isocert.exactalg.poly import mono_from_items
from isocert.fields import RationalFieldContext


@pytest.fixture
def xt():
    """Registry with principal x and parameter t, plus handy elements."""
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t", VarKind.PARAMETRIC)
    return {
        "reg": reg,
        "x": RationalFunction.var("x", reg),
        "t": RationalFunction.var("t", reg),
        "one": RationalFunction.const(1, reg),
        "zero": RationalFunction.const(0, reg),
    }


@pytest.fixture
def t1t2():
    reg = VariableRegistry()
    reg.add("t1", VarKind.PARAMETRIC)
    reg.add("t2", VarKind.PARAMETRIC)
    return {
        "reg": reg,
        "field": RationalFieldContext(reg),
        "t1": RationalFunction.var("t1", reg),
        "t2": RationalFunction.var("t2", reg),
        "one": RationalFunction.const(1, reg),
        "zero": RationalFunction.const(0, reg),
    }


@pytest.fixture
def xt1t2():
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t1", VarKind.PARAMETRIC)
    reg.add("t2", VarKind.PARAMETRIC)
    return {
        "reg": reg,
        "field": RationalFieldContext(reg),
        "x": RationalFunction.var("x", reg),
        "t1": RationalFunction.var("t1", reg),
        "t2": RationalFunction.var("t2", reg),
        "one": RationalFunction.const(1, reg),
        "zero": RationalFunction.const(0, reg),
    }


def random_poly(rnd: random.Random, registry, max_terms=3, max_deg=2,
                coeff_range=(-3, 3)) -> MultiPoly:
    p = MultiPoly.zero()
    nvars = len(registry)
    for _ in range(rnd.randint(1, max_terms)):
        mono = mono_from_items((i, e) for i in range(nvars)
                               if (e := rnd.randint(0, max_deg)) > 0)
        c = rnd.randint(*coeff_range)
        if c:
            p = p + MultiPoly.from_terms([(mono, Fraction(c))])
    return p


def random_rational(rnd: random.Random, registry, simple_den=True) -> RationalFunction:
    num = random_poly(rnd, registry)
    if simple_den and rnd.random() < 0.4:
        i = rnd.randrange(len(registry))
        den = MultiPoly.var(i) + MultiPoly.const(rnd.randint(1, 3))
    else:
        den = MultiPoly.one()
    return RationalFunction(num, den, registry)


def random_matrix(rnd: random.Random, registry, n, density=0.7, simple_den=False):
    zero = RationalFunction.const(0, registry)
    return [[random_rational(rnd, registry, simple_den) if rnd.random() < density
             else zero for _ in range(n)] for _ in range(n)]


def plus(record, num: RationalFunction, *factors):
    """The certificate record plus num / prod F^e, the factors (F, e) given
    as polynomial RationalFunctions, x-free first: a corrupted record, summed
    as the program sums its own."""
    from isocert.operators import Certificate, _sum

    term = Certificate(num.num, [(f.num, e) for f, e in factors], record.x, record.registry)
    return _sum([record, term])
