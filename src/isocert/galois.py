"""Galois-side tooling for integrals: rational solution spaces of monic
operators over Q(t), companion systems whose flatness encodes telescoper
certificates, constancy descriptors, derivation rebasing and horizontal
sections.

Constancy verdicts are relative to Q(t): "nonconstant-over-k" makes no claim
about extensions of the parameter field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ansatz import leibniz_rows, match_coefficients, monomial, monomials_up_to
from .connection import ConnectionSystem
from .curve import CurveSpec, picard_fuchs
from .derham import telescoper
from .difftower import Tower
from .exactalg import (ExactAlgError, MultiPoly, NonLinearFactor,
                       RationalFunction, SingularMatrix, VarKind, linear_poles,
                       linear_solve, lcm, mat_add, mat_inverse, mat_scale, zeros)
from .exactalg.factor import _q_adic, rational_roots
from .exactalg.linalg import Matrix
from .exactalg.poly import EMPTY_MONO, exact_div
from .fields import FieldContext, RationalFieldContext, RebasedFieldContext
from .operators import LinearDiffOperator


class UnsupportedOperator(ExactAlgError):
    """Rational-solution machinery needs singularities with t-linear factors."""


class SingularRebase(ExactAlgError):
    pass


def _integer_roots(coeffs: list[Fraction]) -> list[int]:
    """Integer roots of sum coeffs[i] * alpha^i, ascending."""
    return [int(r) for r in rational_roots(coeffs) if r.denominator == 1]


def _falling_factorial_poly(i: int) -> list[Fraction]:
    """Coefficients of alpha*(alpha-1)*...*(alpha-i+1)."""
    out = [Fraction(1)]
    for k in range(i):
        nxt = [Fraction(0)] * (len(out) + 1)
        for j, c in enumerate(out):
            nxt[j + 1] += c
            nxt[j] -= c * k
        out = nxt
    return out


def _indicial(data: list[tuple[int, int, Fraction]], pick) -> list[Fraction]:
    """Indicial polynomial (in alpha) from local data (i, e_i, c_i): the
    coefficient of d^i has exponent e_i and leading value c_i there.  With
    pick = min (valuations at a finite point) or max (degrees at infinity),
    the terms with e_i - i = pick(e - i) contribute c_i * alpha^(i falling)."""
    w = pick(e - i for i, e, _ in data)
    out = [Fraction(0)]
    for i, e, c in data:
        if e - i != w:
            continue
        ff = _falling_factorial_poly(i)
        out += [Fraction(0)] * (len(ff) - len(out))
        for j, a in enumerate(ff):
            out[j] += a * c
    return out


def rational_solutions(op: LinearDiffOperator, registry) -> list[RationalFunction]:
    """Basis of the rational solutions of op over Q(t).

    Complete when the cleared leading coefficient splits t-linearly over Q;
    richer singularities raise UnsupportedOperator.  The solutions are
    z/den with den from the negative integer exponents at the finite poles
    and z a polynomial whose degree bound comes from the exponents at
    infinity, shifted by deg den.  Every returned element is verified to
    satisfy op(u) = 0 exactly.
    """
    t_idx = registry.index(op.symbol)
    one = RationalFunction.const(1, registry)
    full = op.scaled_coefficients(one)
    for c in full:
        if not c.variables() <= {t_idx}:
            raise UnsupportedOperator("coefficients involve extra variables")
    cleared = MultiPoly.one()
    for c in full:
        cleared = lcm(cleared, c.den)
    poly_coeffs = [(i, c.num * exact_div(cleared, c.den))
                   for i, c in enumerate(full) if not c.is_zero()]
    lead = poly_coeffs[-1][1]
    t = RationalFunction.from_poly(MultiPoly.var(t_idx), registry)
    den = one
    if lead.degree(t_idx) > 0:
        try:
            poles = linear_poles(lead, t_idx, registry)
        except NonLinearFactor as exc:
            raise UnsupportedOperator(f"its leading coefficient does not split over Q "
                                      f"({exc})") from None
        # The coefficients lie in Q[t], so every pole is a rational constant,
        # whose canonical denominator is 1, and the Taylor coefficients there
        # give each valuation and value.
        for root, _ in poles:
            data = []
            for i, p in poly_coeffs:
                series = _q_adic(p, t_idx, root.num, root.den, p.degree(t_idx) + 1)
                v = next(k for k, c in enumerate(series) if not c.is_zero())
                data.append((i, v, series[v].const_value()))
            neg = [r for r in _integer_roots(_indicial(data, min)) if r < 0]
            if neg:
                den = den * (t - root) ** (-min(neg))
    # z = den * y is polynomial; y ~ t^alpha at infinity gives deg z = alpha + deg den.
    shift = den.num.degree(t_idx)
    data = [(i, p.degree(t_idx), p.coefficient(t_idx, p.degree(t_idx)).const_value())
            for i, p in poly_coeffs]
    degrees = [r + shift for r in _integer_roots(_indicial(data, max)) if r + shift >= 0]
    if not degrees:
        return []
    field = RationalFieldContext(registry)
    monos = [t ** k for k in range(max(degrees) + 1)]
    equation = [(k, EMPTY_MONO, op.apply(field, mono / den))
                for k, mono in enumerate(monos)]
    rows, rhs = match_coefficients([equation], [RationalFunction.const(0, registry)])
    sol = linear_solve(rows, rhs, len(monos), Fraction(0), Fraction(1))
    basis = []
    for vec in sol.nullspace:
        z = RationalFunction.const(0, registry)
        for coeff, mono in zip(vec, monos):
            if coeff:
                z = z + RationalFunction.const(coeff, registry) * mono
        u = z / den
        if not op.apply(field, u).is_zero():
            raise AssertionError("rational solution verification failed; this is a bug")
        basis.append(u)
    return basis


# -- companion systems -------------------------------------------------------


def companion_system(op: LinearDiffOperator, b, a, field: FieldContext,
                     x_name: str = "x") -> ConnectionSystem:
    """(n+1) x (n+1) system whose full integrability is exactly the
    certificate identity op(b) = d_x(a): the x-matrix carries b and its
    t-derivatives down the first column, the t-matrix is a shifted companion
    block with bottom row (a, c_0, ..., c_{n-1})."""
    n = op.order
    zero, one = field.zero, field.one
    A_x = zeros(n + 1, n + 1, zero)
    d = b
    for i in range(1, n + 1):
        A_x[i][0] = d
        d = field.derive(d, op.symbol)
    A_t = zeros(n + 1, n + 1, zero)
    for i in range(1, n):
        A_t[i][i + 1] = one
    A_t[n][0] = a
    for i, c in enumerate(op.coeffs):
        A_t[n][i + 1] = one * c  # on a curve the product lifts c
    return ConnectionSystem(field, n + 1, {x_name: A_x, op.symbol: A_t},
                            principal=x_name)


# -- descriptors -------------------------------------------------------------


@dataclass(frozen=True)
class GaloisDescriptor:
    operator: LinearDiffOperator
    verdict: str  # "constant" | "nonconstant-over-k"
    rational_basis: tuple[RationalFunction, ...]

    @property
    def constant(self) -> bool:
        return self.verdict == "constant"


def descriptor_from_operator(op: LinearDiffOperator, registry) -> GaloisDescriptor:
    basis = rational_solutions(op, registry)
    if len(basis) > op.order:
        raise AssertionError("solution space exceeds the order; this is a bug")
    verdict = "constant" if len(basis) == op.order else "nonconstant-over-k"
    return GaloisDescriptor(op, verdict, tuple(basis))


def galois_descriptor(b: RationalFunction, x_name: str, t_name: str,
                      max_order: int = 8) -> GaloisDescriptor:
    """Descriptor for the integral of a rational integrand: telescoper first,
    then the rational-solution test."""
    op = telescoper(b, x_name, t_name, max_order).operator
    try:
        return descriptor_from_operator(op, b.registry)
    except UnsupportedOperator as exc:
        raise UnsupportedOperator(f"telescoper of order {op.order}: {exc}") from None


def galois_descriptor_curve(curve: CurveSpec, form_index: int, t_name: str,
                            max_order: int = 4) -> GaloisDescriptor:
    result = picard_fuchs(curve, form_index, t_name, max_order)
    return descriptor_from_operator(result.operator, curve.registry)


def galois_descriptor_tower(tower: Tower, b, op: LinearDiffOperator, a,
                            x_name: str) -> GaloisDescriptor:
    """Descriptor from a user-supplied tower identity op(b) = d_x(a), which
    is verified exactly before the constancy test."""
    applied = op.apply(tower, b)
    if applied != tower.derive(a, x_name):
        raise ValueError("certificate identity fails in the tower")
    return descriptor_from_operator(op, tower.registry)


# -- derivation rebasing ------------------------------------------------------


class DerivationRebase:
    """New derivations as field-coefficient combinations of old ones:
    new_i = sum_j matrix[i][j] * old_j."""

    __slots__ = ("new_symbols", "old_symbols", "matrix")

    def __init__(self, new_symbols: tuple[str, ...], old_symbols: tuple[str, ...],
                 matrix: tuple[tuple[RationalFunction, ...], ...]):
        self.new_symbols = new_symbols
        self.old_symbols = old_symbols
        self.matrix = matrix


def rebase_derivations(system: ConnectionSystem, rebase: DerivationRebase) -> ConnectionSystem:
    """Connection matrices transform linearly: A_{new_i} = sum_j R_ij A_{old_j};
    the field context of the result knows how the new symbols act."""
    old = list(rebase.old_symbols)
    for name in old:
        system.matrix(name)
    if system.principal is not None and system.principal in old:
        raise SingularRebase("rebasing the principal symbol is not supported")
    try:
        mat_inverse([list(row) for row in rebase.matrix], system.field.zero,
                    system.field.one)
    except SingularMatrix:
        raise SingularRebase("rebase matrix is singular") from None
    zero = system.field.zero
    out: dict[str, Matrix] = {}
    if system.principal is not None:
        out[system.principal] = system.matrix(system.principal)
    for i, new_name in enumerate(rebase.new_symbols):
        acc = zeros(system.size, system.size, zero)
        for j, old_name in enumerate(old):
            coeff = rebase.matrix[i][j]
            if not coeff.is_zero():
                acc = mat_add(acc, mat_scale(system.matrix(old_name), coeff))
        out[new_name] = acc
    for name in system.symbols():
        if name not in old and name != system.principal:
            out[name] = system.matrix(name)
    combos = {new_name: [(rebase.matrix[i][j], old[j]) for j in range(len(old))
                         if not rebase.matrix[i][j].is_zero()]
              for i, new_name in enumerate(rebase.new_symbols)}
    field = RebasedFieldContext(system.field, combos)
    return ConnectionSystem(field, system.size, out, system.principal)


# -- horizontal sections -------------------------------------------------------


def horizontal_sections(system: ConnectionSystem, symbols: Optional[list[str]] = None,
                        degree_bound: int = 6) -> list[list[RationalFunction]]:
    """Q-basis of polynomial-ansatz solutions of dY = A_d Y for all chosen
    derivations simultaneously; complete only within the degree bound, and
    every returned vector is verified exactly.

    The unknowns are m*e_k, a parameter monomial times a unit vector, so
    `leibniz_rows` gets the shapes e_k with nabla_s(e_k) = -A_s*e_k (column k
    of A_s, its nonzero entries negated once per derivation) and takes d_s(m)
    once per monomial.  Each equation is multiplied by the lcm D of its
    distinct denominators, which leaves its solution set unchanged, and the
    kernel basis linear_solve returns is reduced row echelon, so it does not
    depend on D."""
    f = system.field
    reg = f.registry
    syms = symbols if symbols is not None else system.symbols()
    n = system.size
    zero = f.zero
    stages = []
    for s in syms:
        A = system.matrix(s)
        nablas = [[zero if A[r][k].is_zero() else -A[r][k] for r in range(n)]
                  for k in range(n)]
        stages.append((s, nablas, [zero] * n))
    monos = monomials_up_to([i for i in range(len(reg)) if reg.kind(i) == VarKind.PARAMETRIC],
                            degree_bound, n)
    units = [[f.one if r == k else zero for r in range(n)] for k in range(n)]
    rows, rhs_q = leibniz_rows(f, monos, units, stages)
    sol = linear_solve(rows, rhs_q, len(monos) * n, Fraction(0), Fraction(1))
    basis = []
    for vec in sol.nullspace:
        Y = [RationalFunction.const(0, reg) for _ in range(n)]
        for idx, coeff in enumerate(vec):
            if coeff:
                m, k = divmod(idx, n)
                Y[k] = Y[k] + RationalFunction.const(coeff, reg) * monomial(monos[m], reg)
        for s in syms:
            A = system.matrix(s)
            for r in range(n):
                lhs = f.derive(Y[r], s)
                rhs_val = zero
                for c in range(n):
                    rhs_val = rhs_val + A[r][c] * Y[c]
                if lhs != rhs_val:
                    raise AssertionError("horizontal section verification failed; "
                                         "this is a bug")
        basis.append(Y)
    return basis
