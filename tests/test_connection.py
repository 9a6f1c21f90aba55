"""Connection systems: defects, integrability reports, gauge action,
commutants, Bianchi sums, equivalence moves and flattening."""

import random

import pytest

from isocert.connection import (ConnectionSystem, FlattenFound,
                                FlattenObstruction, SingularGauge,
                                UnknownDerivation, bianchi_sum, centralizer,
                                check_integrability, curvature, defect,
                                equivalence_move, flatten, gauge, moved_defect)
from isocert.difftower import DerivationSymbol, Tower
from isocert.exactalg import (RationalFunction, identity, mat_add, mat_eq,
                              mat_inverse, mat_is_zero, mat_mul, mat_neg,
                              mat_scale, linear_solve, zeros)
from isocert.fields import RationalFieldContext

from conftest import random_matrix


def _heisenberg(t1t2):
    f = t1t2["field"]
    one, zero = t1t2["one"], t1t2["zero"]
    t1, t2 = t1t2["t1"], t1t2["t2"]
    B1 = zeros(3, 3, zero)
    B1[0][1] = one / t1
    B2 = zeros(3, 3, zero)
    B2[1][2] = one / t2
    return ConnectionSystem(f, 3, {"t1": B1, "t2": B2})


def _e13(t1t2):
    m = zeros(3, 3, t1t2["zero"])
    m[0][2] = t1t2["one"]
    return m


def test_defect_heisenberg(t1t2):
    S = _heisenberg(t1t2)
    d = defect(S, "t2", "t1")
    expected = mat_scale(_e13(t1t2), t1t2["one"] / (t1t2["t1"] * t1t2["t2"]))
    assert mat_eq(d, expected)
    assert mat_eq(defect(S, "t1", "t2"), mat_neg(d))


def test_defect_zero_system(t1t2):
    f, zero = t1t2["field"], t1t2["zero"]
    S = ConnectionSystem(f, 2, {"t1": zeros(2, 2, zero), "t2": zeros(2, 2, zero)})
    assert mat_is_zero(defect(S, "t1", "t2"), zero)


def test_defect_antisymmetry_random(xt1t2):
    rnd = random.Random(61)
    f = xt1t2["field"]
    for _ in range(5):
        mats = {s: random_matrix(rnd, xt1t2["reg"], 3) for s in ("t1", "t2")}
        S = ConnectionSystem(f, 3, mats)
        assert mat_eq(defect(S, "t1", "t2"), mat_neg(defect(S, "t2", "t1")))


def test_unknown_derivation(t1t2):
    S = _heisenberg(t1t2)
    with pytest.raises(UnknownDerivation):
        defect(S, "t1", "nope")


def test_check_integrability_modes(xt1t2):
    f = xt1t2["field"]
    zero, one, t1 = xt1t2["zero"], xt1t2["one"], xt1t2["t1"]
    n = 2
    A_x = zeros(n, n, zero)
    A_1 = zeros(n, n, zero)
    B_2 = mat_scale(identity(n, zero, one), t1)
    S = ConnectionSystem(f, n, {"x": A_x, "t1": A_1, "t2": B_2}, principal="x")
    pairwise = check_integrability(S, "pairwise")
    assert pairwise.flat
    full = check_integrability(S, "full")
    assert not full.flat
    assert full.failing_pairs() == [("t2", "t1")]
    assert mat_eq(defect(S, "t1", "t2"), identity(n, zero, one))


def test_check_full_zero_system(t1t2):
    f, zero = t1t2["field"], t1t2["zero"]
    S = ConnectionSystem(f, 2, {"t1": zeros(2, 2, zero), "t2": zeros(2, 2, zero)})
    assert check_integrability(S, "full").flat


def test_gauge_identity(t1t2):
    S = _heisenberg(t1t2)
    g = identity(3, t1t2["zero"], t1t2["one"])
    S2 = gauge(S, g)
    assert all(mat_eq(S2.matrices[k], S.matrices[k]) for k in S.symbols())


def test_gauge_covariance_random(xt1t2):
    rnd = random.Random(67)
    f = xt1t2["field"]
    zero, one = xt1t2["zero"], xt1t2["one"]
    done = 0
    while done < 10:
        mats = {s: random_matrix(rnd, xt1t2["reg"], 2) for s in ("t1", "t2")}
        S = ConnectionSystem(f, 2, mats)
        g = mat_add(identity(2, zero, one), random_matrix(rnd, xt1t2["reg"], 2, density=0.4))
        try:
            Sg = gauge(S, g)
        except SingularGauge:
            continue
        done += 1
        ginv = mat_inverse(g, zero, one)
        lhs = defect(Sg, "t2", "t1")
        rhs = mat_mul(mat_mul(g, defect(S, "t2", "t1"), zero), ginv, zero)
        assert mat_eq(lhs, rhs)
        # verdicts are gauge-invariant
        assert check_integrability(S, "full").flat == \
            check_integrability(Sg, "full").flat


def test_gauge_cocycle(xt1t2):
    rnd = random.Random(71)
    f = xt1t2["field"]
    zero, one = xt1t2["zero"], xt1t2["one"]
    mats = {s: random_matrix(rnd, xt1t2["reg"], 2) for s in ("t1", "t2")}
    S = ConnectionSystem(f, 2, mats)
    g = mat_add(identity(2, zero, one), random_matrix(rnd, xt1t2["reg"], 2, density=0.4))
    h = mat_add(identity(2, zero, one), random_matrix(rnd, xt1t2["reg"], 2, density=0.4))
    lhs = gauge(gauge(S, g), h)
    rhs = gauge(S, mat_mul(h, g, zero))
    assert all(mat_eq(lhs.matrices[k], rhs.matrices[k]) for k in S.symbols())


def test_gauge_singular(t1t2):
    S = _heisenberg(t1t2)
    with pytest.raises(SingularGauge):
        gauge(S, zeros(3, 3, t1t2["zero"]))


def test_centralizer_unitriangular(t1t2):
    f = t1t2["field"]
    zero, one = t1t2["zero"], t1t2["one"]
    I = identity(3, zero, one)
    gens = []
    for (i, j) in ((0, 1), (1, 2), (0, 2)):
        m = [row[:] for row in I]
        m[i][j] = one
        gens.append(m)
    basis = centralizer(gens, f)
    assert len(basis) == 2
    # span == span{Id, E13}
    targets = [I, _e13(t1t2)]
    rows = [{k: basis[k][i][j] for k in range(2)} for i in range(3) for j in range(3)]
    for m in targets:
        rhs = [m[i][j] for i in range(3) for j in range(3)]
        assert not linear_solve(rows, rhs, 2, zero, one).inconsistent


def test_centralizer_identity_gives_everything(t1t2):
    f = t1t2["field"]
    basis = centralizer([identity(2, t1t2["zero"], t1t2["one"])], f)
    assert len(basis) == 4


def test_centralizer_distinct_diagonal(t1t2):
    f = t1t2["field"]
    zero, one = t1t2["zero"], t1t2["one"]
    d = zeros(3, 3, zero)
    for i in range(3):
        d[i][i] = RationalFunction.const(i + 1, t1t2["reg"])
    basis = centralizer([d], f)
    assert len(basis) == 3
    for m in basis:
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m[i][j].is_zero()


def test_bianchi_zero_system(xt1t2):
    f, zero = xt1t2["field"], xt1t2["zero"]
    mats = {s: zeros(2, 2, zero) for s in ("x", "t1", "t2")}
    S = ConnectionSystem(f, 2, mats, principal="x")
    assert mat_is_zero(bianchi_sum(S, "x", "t1", "t2"), zero)


def test_bianchi_zero_random(xt1t2):
    rnd = random.Random(73)
    f = xt1t2["field"]
    for n in (1, 2, 3):
        mats = {s: random_matrix(rnd, xt1t2["reg"], n) for s in ("x", "t1", "t2")}
        S = ConnectionSystem(f, n, mats, principal="x")
        assert mat_is_zero(bianchi_sum(S, "x", "t1", "t2"), f.zero)


def test_bianchi_zero_heisenberg_extended(t1t2):
    f, zero = t1t2["field"], t1t2["zero"]
    S = _heisenberg(t1t2)
    mats = dict(S.matrices)
    mats["x"] = zeros(3, 3, zero)
    # x as an extra commuting symbol acting by zero on Q(t1,t2)
    reg = t1t2["reg"]
    import isocert.exactalg as ea

    reg2 = ea.VariableRegistry()
    reg2.add("x", ea.VarKind.PRINCIPAL)
    reg2.add("t1", ea.VarKind.PARAMETRIC)
    reg2.add("t2", ea.VarKind.PARAMETRIC)
    f2 = RationalFieldContext(reg2)
    one2 = f2.one
    t1 = RationalFunction.var("t1", reg2)
    t2 = RationalFunction.var("t2", reg2)
    B1 = zeros(3, 3, f2.zero)
    B1[0][1] = one2 / t1
    B2 = zeros(3, 3, f2.zero)
    B2[1][2] = one2 / t2
    S2 = ConnectionSystem(f2, 3, {"x": zeros(3, 3, f2.zero), "t1": B1, "t2": B2},
                          principal="x")
    assert mat_is_zero(bianchi_sum(S2, "x", "t1", "t2"), f2.zero)


def test_curvature_canonical_orientation(t1t2):
    S = _heisenberg(t1t2)
    form = curvature(S)
    assert set(form.entries) == {("t2", "t1")}
    assert mat_eq(form.entries[("t2", "t1")], defect(S, "t2", "t1"))
    assert mat_eq(form.matrix("t1", "t2"),
                  mat_neg(defect(S, "t2", "t1")))


def test_equivalence_move_identity(t1t2):
    S = _heisenberg(t1t2)
    moved = equivalence_move(S, {})
    assert all(mat_eq(moved.matrices[k], S.matrices[k]) for k in S.symbols())


def test_equivalence_move_scalar_example(t1t2):
    f = t1t2["field"]
    zero, t1, t2 = t1t2["zero"], t1t2["t1"], t1t2["t2"]
    S = ConnectionSystem(f, 1, {"t1": [[t2]], "t2": [[zero]]})
    moved = equivalence_move(S, {"t2": [[t1]]})
    assert check_integrability(moved, "full").flat


def test_equivalence_move_predicted_curvature(xt1t2):
    rnd = random.Random(79)
    f = xt1t2["field"]
    for _ in range(6):
        mats = {s: random_matrix(rnd, xt1t2["reg"], 2) for s in ("t1", "t2")}
        S = ConnectionSystem(f, 2, mats)
        move = {"t1": random_matrix(rnd, xt1t2["reg"], 2, density=0.5),
                "t2": random_matrix(rnd, xt1t2["reg"], 2, density=0.5)}
        moved = equivalence_move(S, move)
        assert mat_eq(moved_defect(S, move, "t2", "t1"), defect(moved, "t2", "t1"))


def test_flatten_heisenberg_obstruction(t1t2):
    S = _heisenberg(t1t2)
    I = identity(3, t1t2["zero"], t1t2["one"])
    outcome = flatten(S, order=["t1", "t2"], constraint=[I, _e13(t1t2)])
    assert isinstance(outcome, FlattenObstruction)
    w = outcome.witness
    assert w.pole == t1t2["zero"]
    assert w.residue == t1t2["one"] / t1t2["t2"]
    assert w.residue_class is not None and not w.residue_class.is_zero()
    # The identity alone does not span the defect.
    outcome = flatten(S, order=["t1", "t2"], constraint=[I])
    assert isinstance(outcome, FlattenObstruction)
    assert outcome.witness.component == "span"


def test_flatten_already_flat(t1t2):
    f, zero = t1t2["field"], t1t2["zero"]
    S = ConnectionSystem(f, 2, {"t1": zeros(2, 2, zero), "t2": zeros(2, 2, zero)})
    outcome = flatten(S)
    assert isinstance(outcome, FlattenFound)
    assert outcome.moves == {}


def test_flatten_scalar_success(t1t2):
    f = t1t2["field"]
    zero, t1, t2 = t1t2["zero"], t1t2["t1"], t1t2["t2"]
    S = ConnectionSystem(f, 1, {"t1": [[t2]], "t2": [[zero]]})
    outcome = flatten(S, order=["t1", "t2"])
    assert isinstance(outcome, FlattenFound)
    assert check_integrability(outcome.system, "full").flat
    # the move differs from a_t2 = t1 at most by something killed by both
    # derivations; re-verification above is the contract


def test_flatten_computes_each_defect_once(xt1t2, monkeypatch):
    # One curvature of the input (three pairs) and one full re-check of the
    # moved system; the pairwise precondition and the bivariate solve read
    # the curvature instead of recomputing its pairs.
    import isocert.connection as connection

    f, zero, t2 = xt1t2["field"], xt1t2["zero"], xt1t2["t2"]
    S = ConnectionSystem(f, 1, {"x": [[zero]], "t1": [[t2]], "t2": [[zero]]},
                         principal="x")
    calls = []
    real = connection.defect

    def counted(system, u, v):
        calls.append((u, v))
        return real(system, u, v)

    monkeypatch.setattr(connection, "defect", counted)
    outcome = flatten(S, order=["t1", "t2"])
    assert isinstance(outcome, FlattenFound)
    assert len(calls) == 6


def _three_param_system():
    import isocert.exactalg as ea

    reg = ea.VariableRegistry()
    for name in ("t1", "t2", "t3"):
        reg.add(name, ea.VarKind.PARAMETRIC)
    f = RationalFieldContext(reg)
    t2 = RationalFunction.var("t2", reg)
    t3 = RationalFunction.var("t3", reg)
    # flat after moves: B2 needs +t1, B3 needs +t2 correction pattern
    return ConnectionSystem(f, 1, {"t1": [[t2]], "t2": [[f.zero]], "t3": [[t2 * t3]]})


def test_flatten_ansatz_route_three_params():
    S = _three_param_system()
    outcome = flatten(S, order=["t1", "t2", "t3"], degree_bound=4)
    assert isinstance(outcome, FlattenFound)
    assert check_integrability(outcome.system, "full").flat


def test_flatten_ansatz_after_identity_rebase():
    # The ansatz monomials range over the variables the parametric
    # derivations move, not over the derivation names: after renaming the
    # derivations to d1, d2, d3 the same moves are found.
    from isocert.galois import DerivationRebase, rebase_derivations

    S = _three_param_system()
    one, zero = S.field.one, S.field.zero
    ident = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    R = DerivationRebase(("d1", "d2", "d3"), ("t1", "t2", "t3"), ident)
    outcome = flatten(rebase_derivations(S, R), order=["d1", "d2", "d3"],
                      degree_bound=4)
    assert isinstance(outcome, FlattenFound)
    assert check_integrability(outcome.system, "full").flat
    direct = flatten(S, order=["t1", "t2", "t3"], degree_bound=4)
    assert mat_eq(outcome.moves["d2"], direct.moves["t2"])
    assert mat_eq(outcome.moves["d3"], direct.moves["t3"])


def test_flatten_over_tower_field():
    tower = Tower([DerivationSymbol("t1"), DerivationSymbol("t2")])
    t2 = tower.element("t2")
    t1 = tower.element("t1")
    S = ConnectionSystem(tower, 1, {"t1": [[t2]], "t2": [[tower.zero]]})
    outcome = flatten(S, order=["t1", "t2"], degree_bound=2)
    assert isinstance(outcome, FlattenFound)
    assert check_integrability(outcome.system, "full").flat
