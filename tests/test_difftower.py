"""Differential towers: rules, jets, prolongation consistency."""

import random

import pytest

from isocert.cli.examples import EXAMPLE_NAMES, fixture_path
from isocert.cli.files import load_problem
from isocert.connection import check_integrability
from isocert.difftower import (DerivationSymbol, NotFree, Tower, TowerError,
                               gamma_tower, InconsistentTower)
from isocert.exactalg import VariableRegistry



def test_gamma_tower_rules():
    tower, v = gamma_tower()
    lg, w = v["lg"], v["w"]
    assert tower.derive(w, "t") == lg * w
    assert tower.derive(lg, "x") == tower.one / v["x"]


def test_gamma_tower_commutes():
    tower, v = gamma_tower()
    assert tower.check_commutativity(2) == []
    # both orders give (lg*((t-1)/x - 1) + 1/x) * w
    w, lg, x, t = v["w"], v["lg"], v["x"], v["t"]
    one = tower.one
    expected = (lg * ((t - one) / x - one) + one / x) * w
    assert tower.derive(tower.derive(w, "x"), "t") == expected
    assert tower.derive(tower.derive(w, "t"), "x") == expected


def test_gamma_antiderivative_prolongation():
    tower, v = gamma_tower()
    gm_t = tower.extend_jets("gm", {"t": 1})
    # d_x(gm_t) is forced to d_t(w) by prolongation
    assert tower.derive(gm_t, "x") == tower.derive(v["w"], "t")
    lhs = tower.derive(v["w"], "t") - v["w"]
    rhs = tower.derive(gm_t - v["gm"], "x")
    assert lhs == rhs


def test_iterated_integral_rule():
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t1"),
                   DerivationSymbol("t2")])
    tower.add_generator("I1")
    I2 = tower.add_generator("I2")
    I = tower.add_generator("I12")
    f1 = tower.extend_jets("I1", {"x": 1})
    tower.set_rule("I12", "x", f1 * I2)
    assert tower.derive(I, "x") == f1 * I2
    fresh = tower.derive(I, "t1")
    assert fresh == tower.element("I12_t1")
    assert tower.check_commutativity(2) == []


def test_free_indeterminate_fresh_jet():
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t1")])
    i1 = tower.add_generator("I1")
    assert tower.derive(i1, "t1") == tower.element("I1_t1")


def test_jets_idempotent_and_canonical():
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t1")])
    tower.add_generator("I1")
    a = tower.extend_jets("I1", {"x": 1})
    b = tower.extend_jets("I1", {"x": 1})
    assert a == b
    ab = tower.extend_jets("I1", {"x": 1, "t1": 1})
    ba = tower.derive(tower.derive(tower.element("I1"), "t1"), "x")
    assert ab == ba


def test_extend_jets_not_free():
    tower, _ = gamma_tower()
    with pytest.raises(NotFree):
        tower.extend_jets("w", {"x": 1})


def test_bad_tower_witness():
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t")])
    tower.add_generator("g")
    tower.set_rule("g", "x", tower.element("t"))
    tower.set_rule("g", "t", tower.zero)
    witnesses = tower.check_commutativity(1)
    assert len(witnesses) == 1
    assert witnesses[0].element == "g"
    assert witnesses[0].pair == ("x", "t")
    assert witnesses[0].difference == tower.one
    with pytest.raises(InconsistentTower):
        tower.validate(depth=1)


def test_free_tower_commutes_depth3():
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t1"),
                   DerivationSymbol("t2")])
    tower.add_generator("I1")
    tower.add_generator("I2")
    assert tower.check_commutativity(3) == []


def test_derive_is_a_derivation():
    tower, v = gamma_tower()
    rnd = random.Random(9)
    pool = [v["x"], v["t"], v["lg"], v["w"], v["gm"], tower.one]
    for _ in range(40):
        f = rnd.choice(pool) + rnd.choice(pool) * rnd.choice(pool)
        g = rnd.choice(pool) - rnd.choice(pool)
        for sym in ("x", "t"):
            assert tower.derive(f * g, sym) == \
                tower.derive(f, sym) * g + f * tower.derive(g, sym)
            assert tower.derive(f + 3 * g, sym) == \
                tower.derive(f, sym) + 3 * tower.derive(g, sym)


def test_order_independence_on_random_elements():
    tower, v = gamma_tower()
    assert tower.check_commutativity(3) == []
    rnd = random.Random(13)
    pool = list(v.values()) + [tower.one]
    count = 0
    while count < 100:
        f = rnd.choice(pool) * rnd.choice(pool) + rnd.choice(pool)
        if rnd.random() < 0.5:
            g = rnd.choice(pool)
            if not g.is_zero():
                f = f / g if not (g.is_zero()) else f
        if f.is_const():
            continue
        count += 1
        assert tower.derive(tower.derive(f, "x"), "t") == \
            tower.derive(tower.derive(f, "t"), "x")


def test_parse_jet_inverts_jet_name():
    # Every jet the tower fixtures create (loading, which checks commutativity
    # at depth 2, and an integrability check) and every jet of gamma_tower up
    # to depth 3 parses back to its generator and directions, in any order.
    towers = []
    for name in EXAMPLE_NAMES:
        problem = load_problem(fixture_path(name))
        if problem.tower is None:
            continue
        if problem.system is not None:
            check_integrability(problem.system, "full")
        towers.append(problem.tower)
    tower, _ = gamma_tower()
    tower.validate(depth=3)
    towers.append(tower)
    assert len(towers) == 3
    for tower in towers:
        assert tower._jets
        for (generator, mi), name in tower._jets.items():
            assert tower.jet_name(generator, mi) == name
            assert tower.parse_jet(name) == (generator, dict(mi))
            swapped = tower.jet_name(generator, tuple(reversed(mi)))
            assert tower.parse_jet(swapped) == (generator, dict(mi))
            assert tower.jet(swapped) == tower.element(name)
    for name in ("x", "t", "lg", "gm", "gm_", "gm__t", "gm_y", "lgx_t"):
        assert tower.parse_jet(name) is None
    # A jet name in a defined direction parses, but names no element.
    assert tower.parse_jet("lg_x") == ("lg", {"x": 1})
    assert tower.jet("lg_x") is None


def test_tower_refuses_names_that_could_collide():
    with pytest.raises(TowerError, match="'t_1' contains '_'"):
        Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t_1")])
    with pytest.raises(TowerError, match="duplicate derivation symbol 't'"):
        Tower([DerivationSymbol("t"), DerivationSymbol("t")])
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t")])
    tower.add_generator("g")
    tower.set_rule("g", "x", tower.element("t"))
    # Even in a direction with a rule, a jet-like generator name is refused.
    with pytest.raises(TowerError, match="'g_x' reads as a jet of 'g'"):
        tower.add_generator("g_x")
    # A registry shared with the tower may already hold a jet name.
    registry = VariableRegistry()
    registry.add("h_t_x")
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t")], registry)
    with pytest.raises(TowerError, match="'h' has the jet name 'h_t_x'"):
        tower.add_generator("h")
