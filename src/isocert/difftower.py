"""Differential field towers.

A tower extends Q(x, t1, ..., td) by named generators.  Each generator may
have a prescribed derivative rule per derivation symbol (a defined direction)
or none (a free direction, producing lazily created jet symbols in canonical
multi-index form).  Mixed generators are allowed: an abstract antiderivative
has one defined derivative and free jets in the remaining directions, with
consistency of mixed derivatives forced by prolongation.

Tower elements are plain RationalFunction values over the tower's registry;
only the derivation action distinguishes them.
"""

from __future__ import annotations

from collections import Counter

from .exactalg import (ExactAlgError, RationalFunction, VariableRegistry, VarKind)
from .fields import FieldContext

MultiIndex = tuple[tuple[str, int], ...]


class TowerError(ExactAlgError):
    pass


class MissingRule(TowerError):
    """A defined generator lacks a rule for the requested derivation."""


class NotFree(TowerError):
    """Jets can only be taken in free directions of a generator."""


class InconsistentTower(TowerError):
    pass


class DerivationSymbol:
    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str = "parametric"):
        self.name = name
        self.kind = kind  # "principal" | "parametric"


class CommutativityWitness:
    __slots__ = ("element", "pair", "difference")

    def __init__(self, element: str, pair: tuple[str, str], difference: RationalFunction):
        self.element = element
        self.pair = pair
        self.difference = difference


class Tower(FieldContext):
    """Differential field tower; also usable directly as a field context.

    Construction (add_generator/set_rule) and lazy jet extension mutate the
    tower and its registry, so they need exclusive access; all derivations and
    arithmetic on elements are pure.
    """

    def __init__(self, symbols: list[DerivationSymbol],
                 registry: VariableRegistry | None = None):
        names = [s.name for s in symbols]
        for name in names:
            if names.count(name) > 1:
                raise TowerError(f"duplicate derivation symbol {name!r}")
            if "_" in name:
                raise TowerError(f"derivation symbol {name!r} contains '_', the jet separator")
        self.symbols = list(symbols)
        self.registry = registry or VariableRegistry()
        for sym in self.symbols:
            if sym.name not in self.registry:
                kind = VarKind.PRINCIPAL if sym.kind == "principal" else VarKind.PARAMETRIC
                self.registry.add(sym.name, kind)
        self.zero = RationalFunction.const(0, self.registry)
        self.one = RationalFunction.const(1, self.registry)
        # var index -> symbol name -> derivative (None until computed)
        self._dtable: dict[int, dict[str, RationalFunction]] = {}
        # generator name -> {symbol name: rule element}
        self._rules: dict[str, dict[str, RationalFunction]] = {}
        # (generator, multi-index) -> jet variable name
        self._jets: dict[tuple[str, MultiIndex], str] = {}
        # jet variable name -> (generator, multi-index)
        self._jet_info: dict[str, tuple[str, MultiIndex]] = {}
        for sym in self.symbols:
            idx = self.registry.index(sym.name)
            self._dtable[idx] = {s.name: (self.one if s.name == sym.name else self.zero)
                                 for s in self.symbols}

    # -- construction --------------------------------------------------------

    def symbol(self, name: str) -> DerivationSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise TowerError(f"unknown derivation symbol {name!r}")

    def add_generator(self, name: str) -> RationalFunction:
        """Refuses a name that reads as a jet of an existing generator, and one
        with a jet name already in the registry: so every name has at most
        one reading, and no jet created later meets an existing name."""
        reading = self.parse_jet(name)
        if reading is not None:
            raise TowerError(f"generator {name!r} reads as a jet of {reading[0]!r}")
        for other in self.registry.names():
            if name in dict(self._readings(other)):
                raise TowerError(f"generator {name!r} has the jet name {other!r}, "
                                 f"which is already a variable")
        self.registry.add(name, VarKind.TOWER)
        self._rules[name] = {}
        return self.element(name)

    def set_rule(self, generator: str, symbol: str, value: RationalFunction) -> None:
        if generator not in self._rules:
            raise TowerError(f"{generator!r} is not a generator")
        self.symbol(symbol)
        self._rules[generator][symbol] = value

    def element(self, name: str) -> RationalFunction:
        return RationalFunction.var(name, self.registry)

    def is_free(self, generator: str, symbol: str) -> bool:
        return symbol not in self._rules[generator]

    # -- jets ----------------------------------------------------------------

    def _canonical_multiindex(self, generator: str, multiindex: dict[str, int]) -> MultiIndex:
        order = {s.name: i for i, s in enumerate(self.symbols)}
        items = []
        for sym, count in multiindex.items():
            if sym not in order:
                raise TowerError(f"unknown derivation symbol {sym!r}")
            if count < 0:
                raise TowerError("negative multi-index entry")
            if count > 0:
                if not self.is_free(generator, sym):
                    raise NotFree(f"{generator!r} has a defined derivative for {sym!r}")
                items.append((sym, count))
        items.sort(key=lambda it: order[it[0]])
        return tuple(items)

    def jet_name(self, generator: str, multiindex: MultiIndex) -> str:
        suffix = "_".join(sym for sym, count in multiindex for _ in range(count))
        return f"{generator}_{suffix}"

    def _readings(self, name: str):
        """Each (generator, {symbol: count}) whose jet name, directions in any
        order, is name; the generator need not exist."""
        parts = name.split("_")
        symbols = {s.name for s in self.symbols}
        k = len(parts)
        while k > 1 and parts[k - 1] in symbols:
            k -= 1
            yield "_".join(parts[:k]), dict(Counter(parts[k:]))

    def parse_jet(self, name: str) -> tuple[str, dict[str, int]] | None:
        """Inverse of jet_name: the generator and directions of a jet name,
        or None."""
        return next(((gen, mi) for gen, mi in self._readings(name)
                     if gen in self._rules), None)

    def jet(self, name: str) -> RationalFunction | None:
        """The element a jet name stands for, created on first use; None when
        name is no jet name or takes a direction that has a rule."""
        reading = self.parse_jet(name)
        if reading is None or not all(self.is_free(reading[0], s) for s in reading[1]):
            return None
        return self.extend_jets(*reading)

    def extend_jets(self, generator: str, multiindex: dict[str, int]) -> RationalFunction:
        """Idempotent creation of the canonical jet symbol; returns it as an
        element."""
        if generator not in self._rules:
            raise TowerError(f"{generator!r} is not a generator")
        mi = self._canonical_multiindex(generator, multiindex)
        if not mi:
            return self.element(generator)
        key = (generator, mi)
        name = self._jets.get(key)
        if name is None:
            name = self.jet_name(generator, mi)
            self.registry.add(name, VarKind.JET)
            self._jets[key] = name
            self._jet_info[name] = key
        return self.element(name)

    # -- derivation ----------------------------------------------------------

    def _var_derivative(self, idx: int, symbol: str) -> RationalFunction:
        cache = self._dtable.setdefault(idx, {})
        hit = cache.get(symbol)
        if hit is not None:
            return hit
        name = self.registry.name(idx)
        if name in self._rules:
            value = self._generator_derivative(name, (), symbol)
        elif name in self._jet_info:
            gen, mi = self._jet_info[name]
            value = self._generator_derivative(gen, mi, symbol)
        else:
            raise MissingRule(f"no derivation rule for variable {name!r}")
        cache[symbol] = value
        return value

    def _generator_derivative(self, generator: str, mi: MultiIndex,
                              symbol: str) -> RationalFunction:
        if self.is_free(generator, symbol):
            bumped = dict(mi)
            bumped[symbol] = bumped.get(symbol, 0) + 1
            return self.extend_jets(generator, bumped)
        rule = self._rules[generator].get(symbol)
        if rule is None:
            raise MissingRule(f"{generator!r} has no rule for {symbol!r}")
        # Defined direction applied to a jet: differentiate the base rule by
        # the free multi-index, which keeps mixed derivatives consistent.
        value = rule
        for free_sym, count in mi:
            for _ in range(count):
                value = self.derive(value, free_sym)
        return value

    def derive(self, element: RationalFunction, symbol: str) -> RationalFunction:
        """Chain rule through every variable of the element."""
        self.symbol(symbol)
        total = self.zero
        for idx in sorted(element.variables()):
            dvar = self._var_derivative(idx, symbol)
            if not dvar.is_zero():
                total = total + element.derive_index(idx) * dvar
        return total

    # -- consistency ---------------------------------------------------------

    def check_commutativity(self, depth: int = 1) -> list[CommutativityWitness]:
        """Verify mixed derivatives agree on every generator, prolonged
        through all derivative words up to the given depth."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        witnesses: list[CommutativityWitness] = []
        level = [(name, self.element(name)) for name in self._rules]
        for step in range(depth):
            for label, el in level:
                for i, si in enumerate(self.symbols):
                    for sj in self.symbols[i + 1:]:
                        lhs = self.derive(self.derive(el, si.name), sj.name)
                        rhs = self.derive(self.derive(el, sj.name), si.name)
                        if lhs != rhs:
                            witnesses.append(CommutativityWitness(
                                label, (si.name, sj.name), lhs - rhs))
            if step + 1 < depth:
                level = [(f"d{sym.name}({label})", self.derive(el, sym.name))
                         for label, el in level for sym in self.symbols]
        return witnesses

    def validate(self, depth: int = 2) -> list[CommutativityWitness]:
        witnesses = self.check_commutativity(depth)
        if witnesses:
            w = witnesses[0]
            raise InconsistentTower(
                f"tower derivations do not commute on {w.element} for pair {w.pair}")
        return witnesses


def gamma_tower() -> tuple[Tower, dict[str, RationalFunction]]:
    """The tower Q(t, x, lg, w) with lg' = 1/x (log-like) and w the
    exponential-integrand generator dw/dx = ((t-1)/x - 1) w, dw/dt = lg*w,
    plus an abstract antiderivative gm with dgm/dx = w and a free t-jet."""
    tower = Tower([DerivationSymbol("x", "principal"), DerivationSymbol("t", "parametric")])
    x = tower.element("x")
    t = tower.element("t")
    one = tower.one
    lg = tower.add_generator("lg")
    tower.set_rule("lg", "x", one / x)
    tower.set_rule("lg", "t", tower.zero)
    w = tower.add_generator("w")
    tower.set_rule("w", "x", ((t - one) / x - one) * w)
    tower.set_rule("w", "t", lg * w)
    gm = tower.add_generator("gm")
    tower.set_rule("gm", "x", w)
    return tower, {"x": x, "t": t, "lg": lg, "w": w, "gm": gm}
