"""Variable registry: the single source of truth for variable names and order.

Every polynomial and rational function refers to variables by registry index.
The registry is append-only: indices and the induced graded-lex term order
never change once a variable is registered.  Jets created lazily by towers are
appended at the end, so values built earlier remain valid.
"""

from __future__ import annotations

import enum
import re


class ExactAlgError(Exception):
    """Base class for exact-arithmetic errors."""


class UnknownVariable(ExactAlgError):
    pass


class DuplicateVariable(ExactAlgError):
    pass


class VarKind(enum.Enum):
    PRINCIPAL = "principal"
    PARAMETRIC = "parametric"
    TOWER = "tower-generator"
    JET = "jet"


# A variable name, ASCII only; the expression tokenizer reads identifiers
# with the same pattern.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_valid_name = re.compile(NAME).fullmatch


class VariableRegistry:
    """Ordered, append-only list of variables with kind tags."""

    __slots__ = ("_names", "_kinds", "_index")

    def __init__(self):
        self._names: list[str] = []
        self._kinds: list[VarKind] = []
        self._index: dict[str, int] = {}

    def add(self, name: str, kind: VarKind = VarKind.PARAMETRIC) -> int:
        if name in self._index:
            raise DuplicateVariable(f"variable {name!r} is declared twice")
        if not _valid_name(name):
            raise ValueError(f"invalid variable name: {name!r}")
        idx = len(self._names)
        self._names.append(name)
        self._kinds.append(kind)
        self._index[name] = idx
        return idx

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def name(self, idx: int) -> str:
        return self._names[idx]

    def kind(self, idx: int) -> VarKind:
        return self._kinds[idx]

    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)
