"""Differential tests of the shared Leibniz rows behind flatten and
horizontal sections: one nabla per shape, d(m) per monomial and monomials as
key shifts, against dense references that build one column per unknown (an
n x n matrix with mat_commutator for flatten, the vector
d_s(m*e_k) - A_s*m*e_k for horizontal sections) and clear it one entry at a
time."""

import random
from fractions import Fraction

from isocert.ansatz import monomial, monomials_up_to
from isocert.connection import (ConnectionSystem, _ansatz_matrices, _ansatz_rows,
                                defect, equivalence_move, gauge)
from isocert.difftower import DerivationSymbol, Tower
from isocert.exactalg import (MultiPoly, RationalFunction, VariableRegistry,
                              VarKind, lcm, linear_solve, mat_add,
                              mat_commutator, mat_neg, mat_scale, mat_sub, zeros)
from isocert.exactalg.linalg import mat_apply
from isocert.exactalg.poly import exact_div, mono_from_items
from isocert.fields import RationalFieldContext
from isocert.galois import DerivationRebase, horizontal_sections, rebase_derivations

from conftest import random_matrix


def _dense_rows(work, target, earlier, monomials, shapes):
    f = work.field
    n = work.size
    unknowns = [mat_scale(S, monomial(m, f.registry)) for m in monomials for S in shapes]
    columns = [[] for _ in unknowns]
    rhs = []
    for i_sym in earlier:
        rhs_mat = defect(work, target, i_sym) if i_sym != work.principal \
            else zeros(n, n, f.zero)
        rhs += [rhs_mat[r][c] for r in range(n) for c in range(n)]
        for k, U in enumerate(unknowns):
            nabla = mat_sub(mat_apply(lambda e: f.derive(e, i_sym), U),
                            mat_commutator(work.matrix(i_sym), U, f.zero))
            columns[k] += [nabla[r][c] for r in range(n) for c in range(n)]
    return _match_dense(columns, rhs)


def _match_dense(columns, rhs):
    """Q-linear rows of sum_k z_k * columns[k][e] == rhs[e], each equation
    cleared by the lcm of all its denominators."""
    rows, out = [], []
    for e, target_e in enumerate(rhs):
        entries = [(k, col[e]) for k, col in enumerate(columns) if not col[e].is_zero()]
        den = target_e.den
        for _, v in entries:
            den = lcm(den, v.den)
        by_mono = {}
        for k, v in entries:
            for mono, coeff in (v.num * exact_div(den, v.den)).rational_terms().items():
                by_mono.setdefault(mono, {})[k] = coeff
        cleared = (target_e.num * exact_div(den, target_e.den)).rational_terms()
        for mono in cleared:
            by_mono.setdefault(mono, {})
        for mono, row in by_mono.items():
            rows.append(row)
            out.append(cleared.get(mono, Fraction(0)))
    return rows, out


def _compare(work, target, earlier, constraint=None, degree_bound=2):
    monomials, shapes = _ansatz_matrices(work, constraint, degree_bound)
    ncols = len(monomials) * len(shapes)
    got = linear_solve(*_ansatz_rows(work, target, earlier, monomials, shapes),
                       ncols, Fraction(0), Fraction(1))
    want = linear_solve(*_dense_rows(work, target, earlier, monomials, shapes),
                        ncols, Fraction(0), Fraction(1))
    assert got.inconsistent == want.inconsistent
    assert got.particular == want.particular
    assert got.nullspace == want.nullspace
    return got


def _dense_sections(system, syms, degree_bound=2):
    """Horizontal sections from the dense rows: one column
    d_s(m*e_k) - A_s*(m*e_k) per unknown m*e_k and derivation s."""
    f = system.field
    reg = f.registry
    n = system.size
    monos = monomials_up_to([i for i in range(len(reg)) if reg.kind(i) == VarKind.PARAMETRIC],
                            degree_bound)
    columns = []
    for m in monos:
        for k in range(n):
            column = []
            for s in syms:
                A = system.matrix(s)
                dm = f.derive(monomial(m, reg), s)
                column += [(dm if r == k else f.zero) - A[r][k] * monomial(m, reg)
                           for r in range(n)]
            columns.append(column)
    sol = linear_solve(*_match_dense(columns, [f.zero] * (n * len(syms))),
                       len(columns), Fraction(0), Fraction(1))
    assert not sol.inconsistent
    basis = []
    for vec in sol.nullspace:
        Y = [f.zero] * n
        for idx, coeff in enumerate(vec):
            if coeff:
                m, k = divmod(idx, n)
                Y[k] = Y[k] + RationalFunction.const(coeff, reg) * monomial(monos[m], reg)
        basis.append(Y)
    return basis


def _compare_sections(system, syms=None, degree_bound=2):
    syms = syms if syms is not None else system.symbols()
    got = horizontal_sections(system, syms, degree_bound=degree_bound)
    assert got == _dense_sections(system, syms, degree_bound)
    return got


def _planted(work, target, rnd, constraint=None, degree_bound=2):
    """Move A_target by minus a random ansatz direction a.  For a flat
    `work` the moved defect(target, i) is nabla_i(a), so the stage equations
    have a solution."""
    monomials, shapes = _ansatz_matrices(work, constraint, degree_bound)
    reg = work.field.registry
    a = zeros(work.size, work.size, work.field.zero)
    for m in monomials:
        for S in shapes:
            c = rnd.randint(-2, 2)
            if c:
                scale = RationalFunction.const(c, reg) * monomial(m, reg)
                a = mat_add(a, mat_scale(S, scale))
    return equivalence_move(work, {target: mat_neg(a)})


def _poly(rnd, reg, names, max_deg=1):
    terms = []
    for _ in range(rnd.randint(1, 3)):
        mono = mono_from_items((reg.index(v), e) for v in names
                               if (e := rnd.randint(0, max_deg)) > 0)
        terms.append((mono, Fraction(rnd.randint(-3, 3))))
    return RationalFunction.from_poly(MultiPoly.from_terms(terms), reg)


def _gauge_flat(field, n, symbols, g, principal=None):
    """The flat system (d g) g^-1, the gauge of the zero system by g."""
    zero = ConnectionSystem(field, n, {s: zeros(n, n, field.zero) for s in symbols},
                            principal)
    return gauge(zero, g)


def _invertible(rnd, field, names):
    one = field.one
    return [[one, _poly(rnd, field.registry, names)],
            [_poly(rnd, field.registry, names), one + _poly(rnd, field.registry, names)]]


def _xt1t2():
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t1", VarKind.PARAMETRIC)
    reg.add("t2", VarKind.PARAMETRIC)
    return RationalFieldContext(reg)


def test_rows_random_systems_with_principal():
    rnd = random.Random(701)
    f = _xt1t2()
    for _ in range(4):
        mats = {s: random_matrix(rnd, f.registry, 2, simple_den=True)
                for s in ("x", "t1", "t2")}
        work = ConnectionSystem(f, 2, mats, principal="x")
        _compare(work, "t2", ["t1", "x"])
        _compare_sections(work)
        _compare_sections(work, ["t1"])


def test_rows_planted_with_principal():
    rnd = random.Random(702)
    f = _xt1t2()
    for _ in range(3):
        g = _invertible(rnd, f, ["t1", "t2"])
        flat = _gauge_flat(f, 2, ["x", "t1", "t2"], g, principal="x")
        # A scalar d_x(phi) in A_x and d_ti(phi) in A_ti keep the system flat
        # and make nabla_x nonzero on x-dependent entries.
        phi = _poly(rnd, f.registry, ["x", "t1", "t2"], 2) / (
            f.one + RationalFunction.var("x", f.registry))
        scalar = {s: mat_scale([[f.one, f.zero], [f.zero, f.one]], f.derive(phi, s))
                  for s in ("x", "t1", "t2")}
        flat = flat.with_matrices({s: mat_add(flat.matrix(s), scalar[s])
                                   for s in ("x", "t1", "t2")})
        work = _planted(flat, "t2", rnd)
        sol = _compare(work, "t2", ["t1", "x"])
        assert not sol.inconsistent and any(sol.particular)
        _compare_sections(work)


def test_rows_non_constant_constraint_shape():
    # d_i(S) != 0 here, a term that matrix units never produce.
    rnd = random.Random(703)
    f = _xt1t2()
    t1 = RationalFunction.var("t1", f.registry)
    t2 = RationalFunction.var("t2", f.registry)
    shape = [[t1, f.zero], [f.one, t1 * t2]]
    for _ in range(3):
        flat = _gauge_flat(f, 2, ["t1", "t2"], _invertible(rnd, f, ["t1", "t2"]))
        work = _planted(flat, "t2", rnd, constraint=[shape])
        sol = _compare(work, "t2", ["t1"], constraint=[shape])
        assert not sol.inconsistent and any(sol.particular)
        _compare_sections(work)
        # The columns of g are sections of the gauge of the zero system by g.
        assert _compare_sections(flat)
        _compare(flat.with_matrices({**flat.matrices, "t2": shape}), "t2", ["t1"],
                 constraint=[shape])


def test_rows_rebased_field_with_rational_monomial_derivatives():
    # d1 = (1/t1) d/dt1 and d2 = d/dt2 commute; d1(t1) = 1/t1 is not a
    # polynomial.
    rnd = random.Random(704)
    reg = VariableRegistry()
    reg.add("t1", VarKind.PARAMETRIC)
    reg.add("t2", VarKind.PARAMETRIC)
    f = RationalFieldContext(reg)
    t1 = RationalFunction.var("t1", reg)
    rebase = DerivationRebase(("d1", "d2"), ("t1", "t2"),
                              ((f.one / t1, f.zero), (f.zero, f.one)))
    for _ in range(3):
        flat = rebase_derivations(
            _gauge_flat(f, 2, ["t1", "t2"], _invertible(rnd, f, ["t1", "t2"])), rebase)
        monomials, _ = _ansatz_matrices(flat, None, 2)
        assert len(monomials) == 6
        work = _planted(flat, "d2", rnd)
        sol = _compare(work, "d2", ["d1"])
        assert not sol.inconsistent and any(sol.particular)
        _compare_sections(work)
        _compare_sections(flat)


def test_rows_tower_field():
    rnd = random.Random(705)
    tower = Tower([DerivationSymbol("t1"), DerivationSymbol("t2")])
    w = tower.add_generator("w")
    tower.set_rule("w", "t1", w)
    tower.set_rule("w", "t2", w)
    t2 = tower.element("t2")
    _compare(ConnectionSystem(tower, 1, {"t1": [[t2]], "t2": [[tower.zero]]}),
             "t2", ["t1"])
    for _ in range(2):
        g = _invertible(rnd, tower, ["t1", "t2"])
        g[0][0] = w
        flat = _gauge_flat(tower, 2, ["t1", "t2"], g)
        work = _planted(flat, "t2", rnd)
        sol = _compare(work, "t2", ["t1"])
        assert not sol.inconsistent and any(sol.particular)
        _compare_sections(work)
        _compare_sections(flat)
