"""Coefficient-field handles: a uniform way to do arithmetic and apply named
derivations over Q(t,...), differential towers, rebased derivation bases and
function fields of curves.

A field context carries the zero/one elements and knows how to
differentiate elements by derivation-symbol name.  A coefficient from the
parameter field multiplies an element of every field as it stands; on a
curve the `CurveElement` product lifts it.
Connection systems, operators and solvers are written against this interface
so they run unchanged over every supported field.
"""

from __future__ import annotations

from .exactalg import RationalFunction, VariableRegistry


class FieldContext:
    """Base interface; concrete contexts define `derive`."""

    registry: VariableRegistry
    zero: object
    one: object

    def derive(self, element, symbol: str):
        raise NotImplementedError


class RationalFieldContext(FieldContext):
    """Q(variables) with one partial derivative per variable, named by it."""

    def __init__(self, registry: VariableRegistry):
        self.registry = registry
        self.zero = RationalFunction.const(0, registry)
        self.one = RationalFunction.const(1, registry)

    def derive(self, element: RationalFunction, symbol: str) -> RationalFunction:
        return element.derive(symbol)


class RebasedFieldContext(FieldContext):
    """Derivations that are field-coefficient combinations of a base context's
    derivations, e.g. d1 = t1*d/dt1, d2 = t1*d/dt1 + d/dt2."""

    def __init__(self, base: FieldContext, combos: dict[str, list[tuple[object, str]]]):
        self.base = base
        self.registry = base.registry
        self.zero = base.zero
        self.one = base.one
        self.combos = combos

    def derive(self, element, symbol: str):
        combo = self.combos.get(symbol)
        if combo is None:
            return self.base.derive(element, symbol)
        total = self.zero
        for coeff, base_sym in combo:
            total = total + coeff * self.base.derive(element, base_sym)
        return total
