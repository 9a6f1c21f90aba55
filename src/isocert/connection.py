"""Connection systems: one square matrix per derivation symbol.

Convention, fixed once for the whole package: systems are written
dY = A_d * Y and the integrability defect of an ordered symbol pair is

    defect(u, v) = d_u(A_v) - d_v(A_u) - [A_u, A_v],

antisymmetric in (u, v); the system is flat (fully integrable) iff every
defect vanishes.  Stored curvature uses the canonical orientation
(later symbol first), so for a system over (t1, t2) the stored matrix for the
pair {t1, t2} is defect(t2, t1).

Also: gauge action, commutants, equivalence moves on the matrix curvature
formalism and the constructive curvature-flattening search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ansatz import leibniz_rows, monomial, monomials_up_to
from .derham import (Exact2FormUnsolvable, Exact2FormUnsupported, H1Class,
                     exact2form_solvable)
from .exactalg import (ExactAlgError, RationalFunction, SingularMatrix, VarKind,
                       identity, linear_solve, mat_add, mat_commutator,
                       mat_inverse, mat_is_zero, mat_mul, mat_neg, mat_scale,
                       mat_sub, zeros)
from .exactalg.linalg import Matrix, mat_apply
from .exactalg.poly import Mono, mono_from_items
from .fields import FieldContext, RationalFieldContext

__all__ = [
    "ConnectionSystemError", "UnknownDerivation", "SingularGauge",
    "ConnectionSystem", "CurvatureForm", "PairVerdict", "IntegrabilityReport",
    "FlattenFound", "FlattenObstruction", "FlattenNotFound", "ObstructionWitness",
    "defect", "curvature", "check_integrability", "gauge", "centralizer",
    "bianchi_sum", "equivalence_move", "moved_defect", "flatten",
]


class ConnectionSystemError(ExactAlgError):
    pass


class UnknownDerivation(ConnectionSystemError):
    pass


class SingularGauge(ConnectionSystemError):
    pass


class ConnectionSystem:
    __slots__ = ("field", "size", "matrices", "principal")

    def __init__(self, field: FieldContext, size: int, matrices: dict[str, Matrix],
                 principal: Optional[str] = None):
        for name, mat in matrices.items():
            if len(mat) != size or any(len(row) != size for row in mat):
                raise ValueError(f"matrix for {name!r} is not {size}x{size}")
        if principal is not None and principal not in matrices:
            raise UnknownDerivation(principal)
        self.field = field
        self.size = size
        self.matrices = matrices
        self.principal = principal

    def symbols(self) -> list[str]:
        return list(self.matrices)

    def parametric_symbols(self) -> list[str]:
        return [s for s in self.matrices if s != self.principal]

    def matrix(self, name: str) -> Matrix:
        try:
            return self.matrices[name]
        except KeyError:
            raise UnknownDerivation(name) from None

    def with_matrices(self, matrices: dict[str, Matrix]) -> "ConnectionSystem":
        return ConnectionSystem(self.field, self.size, matrices, self.principal)


def defect(system: ConnectionSystem, u: str, v: str) -> Matrix:
    """d_u(A_v) - d_v(A_u) - [A_u, A_v]; zero for all pairs iff flat."""
    f = system.field
    A_u = system.matrix(u)
    A_v = system.matrix(v)
    d_uAv = mat_apply(lambda e: f.derive(e, u), A_v)
    d_vAu = mat_apply(lambda e: f.derive(e, v), A_u)
    return mat_sub(mat_sub(d_uAv, d_vAu), mat_commutator(A_u, A_v, f.zero))


class CurvatureForm:
    """Defect matrices per unordered pair, stored in canonical orientation:
    the later symbol (in system order) differentiates first."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[str, str], Matrix]):
        self.entries = entries

    def matrix(self, u: str, v: str) -> Matrix:
        if (u, v) in self.entries:
            return self.entries[(u, v)]
        if (v, u) in self.entries:
            return mat_neg(self.entries[(v, u)])
        raise UnknownDerivation(f"({u}, {v})")

    def is_zero(self, zero) -> bool:
        return all(mat_is_zero(m, zero) for m in self.entries.values())


def _canonical_pairs(symbols: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for i, a in enumerate(symbols):
        for b in symbols[i + 1:]:
            pairs.append((b, a))
    return pairs


def curvature(system: ConnectionSystem) -> CurvatureForm:
    return CurvatureForm({(u, v): defect(system, u, v)
                          for (u, v) in _canonical_pairs(system.symbols())})


@dataclass(frozen=True)
class PairVerdict:
    pair: tuple[str, str]
    ok: bool
    defect_matrix: Optional[Matrix]


@dataclass(frozen=True)
class IntegrabilityReport:
    mode: str
    verdicts: tuple[PairVerdict, ...]

    @property
    def flat(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failing_pairs(self) -> list[tuple[str, str]]:
        return [v.pair for v in self.verdicts if not v.ok]


def check_integrability(system: ConnectionSystem, mode: str = "full") -> IntegrabilityReport:
    """mode 'pairwise': the pairs (principal, t_i) only; mode 'full': all
    pairs.  Full flatness implies the pairwise verdict."""
    zero = system.field.zero
    if mode == "pairwise":
        if system.principal is None:
            raise ConnectionSystemError("pairwise mode needs a designated principal symbol")
        pairs = [(t, system.principal) for t in system.parametric_symbols()]
    elif mode == "full":
        pairs = _canonical_pairs(system.symbols())
    else:
        raise ValueError(f"unknown mode {mode!r}")
    verdicts = []
    for (u, v) in pairs:
        d = defect(system, u, v)
        ok = mat_is_zero(d, zero)
        verdicts.append(PairVerdict((u, v), ok, None if ok else d))
    return IntegrabilityReport(mode, tuple(verdicts))


def gauge(system: ConnectionSystem, g: Matrix) -> ConnectionSystem:
    """A_d -> g A_d g^-1 + (d g) g^-1; defects conjugate by g."""
    f = system.field
    try:
        g_inv = mat_inverse(g, f.zero, f.one)
    except SingularMatrix:
        raise SingularGauge("gauge matrix is singular") from None
    out = {}
    for name, mat in system.matrices.items():
        dg = mat_apply(lambda e: f.derive(e, name), g)
        out[name] = mat_add(mat_mul(mat_mul(g, mat, f.zero), g_inv, f.zero),
                            mat_mul(dg, g_inv, f.zero))
    return system.with_matrices(out)


def centralizer(mats: list[Matrix], field: FieldContext) -> list[Matrix]:
    """Basis of {X : XM = MX for all M}, via the Kronecker-structured linear
    system on the n^2 entries of X."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = len(mats[0])
    zero, one = field.zero, field.one
    rows: list[list] = []
    for M in mats:
        for i in range(n):
            for j in range(n):
                row = {}
                for q in range(n):
                    row[i * n + q] = row.get(i * n + q, zero) + M[q][j]
                for p in range(n):
                    row[p * n + j] = row.get(p * n + j, zero) - M[i][p]
                rows.append(row)
    sol = linear_solve(rows, [zero] * len(rows), n * n, zero, one)
    basis = []
    for vec in sol.nullspace:
        basis.append([[vec[i * n + j] for j in range(n)] for i in range(n)])
    return basis


def bianchi_sum(system: ConnectionSystem, u: str, v: str, w: str) -> Matrix:
    """Cyclic sum of d_a(h_bc) - [A_a, h_bc] over (u,v,w); identically zero
    for every connection system over commuting derivations."""
    f = system.field
    total = zeros(system.size, system.size, f.zero)
    for (a, b, c) in ((u, v, w), (v, w, u), (w, u, v)):
        h = defect(system, b, c)
        term = mat_sub(mat_apply(lambda e: f.derive(e, a), h),
                       mat_commutator(system.matrix(a), h, f.zero))
        total = mat_add(total, term)
    return total


# An equivalence move is a one-form in coordinates: one matrix per derivation
# symbol, entries in the coefficient field.
EquivalenceMove = dict[str, Matrix]


def equivalence_move(system: ConnectionSystem, move: EquivalenceMove) -> ConnectionSystem:
    """A_d -> A_d + a_d for the supplied symbols; others unchanged."""
    out = {}
    for name, mat in system.matrices.items():
        a = move.get(name)
        out[name] = mat if a is None else mat_add(mat, a)
    return system.with_matrices(out)


def moved_defect(system: ConnectionSystem, move: dict[str, Matrix],
                 u: str, v: str) -> Matrix:
    """Predicted defect of the moved system:
    h + (d_u a_v - d_v a_u - [A_u, a_v] - [a_u, A_v]) - [a_u, a_v]."""
    f = system.field
    n = system.size
    zero_mat = zeros(n, n, f.zero)
    a_u = move.get(u, zero_mat)
    a_v = move.get(v, zero_mat)
    h = defect(system, u, v)
    lin = mat_sub(mat_apply(lambda e: f.derive(e, u), a_v),
                  mat_apply(lambda e: f.derive(e, v), a_u))
    lin = mat_sub(lin, mat_commutator(system.matrix(u), a_v, f.zero))
    lin = mat_sub(lin, mat_commutator(a_u, system.matrix(v), f.zero))
    quad = mat_commutator(a_u, a_v, f.zero)
    return mat_sub(mat_add(h, lin), quad)


# -- flattening ----------------------------------------------------------


@dataclass(frozen=True)
class ObstructionWitness:
    pair: tuple[str, str]
    component: str
    pole: Optional[RationalFunction]
    residue: Optional[RationalFunction]
    residue_class: Optional[H1Class]
    detail: str


class FlattenFound:
    __slots__ = ("moves", "system")

    def __init__(self, moves: dict[str, Matrix], system: ConnectionSystem):
        self.moves = moves
        self.system = system


class FlattenObstruction:
    __slots__ = ("witness",)

    def __init__(self, witness: ObstructionWitness):
        self.witness = witness


class FlattenNotFound:
    __slots__ = ("degree_bound", "detail")

    def __init__(self, degree_bound: int, detail: str):
        self.degree_bound = degree_bound
        self.detail = detail


FlattenResult = FlattenFound | FlattenObstruction | FlattenNotFound


def flatten(system: ConnectionSystem, order: Optional[list[str]] = None,
            constraint: Optional[list[Matrix]] = None,
            degree_bound: int = 4) -> FlattenResult:
    """Search for an equivalence move on the parametric symbols making the
    system fully integrable.

    Complete (Found / ProvenObstruction) for two rational parameters when the
    move is constrained to a commuting span; otherwise a bounded-degree ansatz
    decides Found / NotFoundWithinBounds.  The input's curvature is computed
    once; a Found move is always re-checked by check_integrability before
    being returned.
    """
    f = system.field
    syms = list(order) if order else system.parametric_symbols()
    for s in syms:
        if s == system.principal:
            raise ValueError("flatten moves are supported on parametric symbols only")
        system.matrix(s)
    curv = curvature(system)
    if system.principal is not None and not all(
            mat_is_zero(curv.matrix(t, system.principal), f.zero)
            for t in system.parametric_symbols()):
        raise ConnectionSystemError("system fails the pairwise principal check; "
                                    "flatten preconditions are violated")
    if curv.is_zero(f.zero):
        return FlattenFound({}, system)

    if len(syms) == 2:
        outcome = _flatten_bivariate(system, syms, constraint,
                                     curv.matrix(syms[1], syms[0]))
        if outcome is not None:
            return outcome
    return _flatten_ansatz(system, syms, constraint, degree_bound)


def _constraint_basis(system: ConnectionSystem,
                      constraint: Optional[list[Matrix]]) -> Optional[list[Matrix]]:
    f = system.field
    n = system.size
    if constraint is not None:
        basis = constraint
    elif n == 1:
        basis = [identity(1, f.zero, f.one)]
    else:
        return None
    # The split into scalar problems needs the basis to commute with itself
    # and with every system matrix, and to be constant for every derivation.
    for C in basis:
        for name in system.symbols():
            if not mat_is_zero(mat_commutator(C, system.matrix(name), f.zero), f.zero):
                return None
            if not mat_is_zero(mat_apply(lambda e: f.derive(e, name), C), f.zero):
                return None
        for D in basis:
            if not mat_is_zero(mat_commutator(C, D, f.zero), f.zero):
                return None
    return basis


def _flatten_bivariate(system: ConnectionSystem, syms: list[str],
                       constraint: Optional[list[Matrix]],
                       h: Matrix) -> Optional[FlattenResult]:
    """Complete decision for two rational parameters over a commuting span;
    h is the defect of the pair (syms[1], syms[0])."""
    f = system.field
    if not isinstance(f, RationalFieldContext):
        return None
    basis = _constraint_basis(system, constraint)
    if basis is None:
        return None
    u, v = syms
    n = system.size
    # Coordinates of h in the span.
    rows = [{m: basis[m][i][j] for m in range(len(basis))}
            for i in range(n) for j in range(n)]
    rhs = [h[i][j] for i in range(n) for j in range(n)]
    sol = linear_solve(rows, rhs, len(basis), f.zero, f.one)
    if sol.inconsistent:
        return FlattenObstruction(ObstructionWitness(
            (v, u), "span", None, None, None,
            "defect does not lie in the constrained commutant span"))
    lambdas = sol.particular
    move_u = zeros(n, n, f.zero)
    move_v = zeros(n, n, f.zero)
    for m, lam in enumerate(lambdas):
        if lam.is_zero():
            continue
        outcome = exact2form_solvable(lam, u, v)
        if isinstance(outcome, Exact2FormUnsupported):
            return None
        if isinstance(outcome, Exact2FormUnsolvable):
            return FlattenObstruction(ObstructionWitness(
                (v, u), f"span[{m}]", outcome.pole, outcome.residue,
                outcome.residue_class,
                "simple-pole residue of the defect coordinate has a nonzero "
                "class, so no rational move can kill the curvature"))
        # d_v(f1) - d_u(f2) = lam, and the move needs the negatives.
        move_u = mat_add(move_u, mat_scale(basis[m], -outcome.f1))
        move_v = mat_add(move_v, mat_scale(basis[m], -outcome.f2))
    moves = {u: move_u, v: move_v}
    moved = equivalence_move(system, moves)
    if not check_integrability(moved, "full").flat:
        return None
    return FlattenFound(moves, moved)


def _flatten_ansatz(system: ConnectionSystem, syms: list[str],
                    constraint: Optional[list[Matrix]],
                    degree_bound: int) -> FlattenResult:
    """One derivation at a time, following the filtration induction: at stage
    j solve the linear equations nabla_i(a_j) = defect(s_j, s_i) for i < j
    (and nabla_x(a_j) = 0) with polynomial-ansatz entries.

    Each unknown direction is m*S, a parameter monomial times a shape, and by
    Leibniz nabla_i(m*S) = d_i(m)*S + m*nabla_i(S) with nabla_i(S) =
    d_i(S) - [A_i, S]; so `_ansatz_rows` builds nabla_i(S) once per shape and
    `leibniz_rows` takes d_i(m) once per monomial.  Each equation is
    multiplied by the lcm D of its distinct denominators.  That leaves its
    solution set unchanged, and linear_solve returns the reduced-row-echelon
    particular solution and kernel, which depend only on the solution set, so
    the moves do not depend on D."""
    f = system.field
    n = system.size
    monomials, shapes = _ansatz_matrices(system, constraint, degree_bound)
    work = system
    moves: dict[str, Matrix] = {}
    for j in range(1, len(syms)):
        if not shapes:
            return FlattenNotFound(degree_bound, "empty ansatz")
        target = syms[j]
        earlier = syms[:j] + ([system.principal] if system.principal else [])
        rows, rhs = _ansatz_rows(work, target, earlier, monomials, shapes)
        sol = linear_solve(rows, rhs, len(monomials) * len(shapes),
                           Fraction(0), Fraction(1))
        if sol.inconsistent:
            return FlattenNotFound(degree_bound,
                                   f"no degree-{degree_bound} move for {target!r}")
        a_j = zeros(n, n, f.zero)
        for k, coeff in enumerate(sol.particular):
            if coeff:
                m, s = divmod(k, len(shapes))
                scale = RationalFunction.const(coeff, f.registry) * monomial(
                    monomials[m], f.registry)
                a_j = mat_add(a_j, mat_scale(shapes[s], scale))
        work = equivalence_move(work, {target: a_j})
        moves[target] = a_j
    if not check_integrability(work, "full").flat:
        return FlattenNotFound(degree_bound, "ansatz stages completed but the "
                                             "result is not flat")
    return FlattenFound(moves, work)


def _ansatz_rows(work: ConnectionSystem, target: str, earlier: list[str],
                 monomials: list[Mono], shapes: list[Matrix]
                 ) -> tuple[list[dict[int, Fraction]], list[Fraction]]:
    """Q-linear rows of nabla_i(a) = defect(target, i) for i in `earlier`
    (zero for the principal symbol), a = sum z_k * monomials[m] * shapes[s]
    with k = m * len(shapes) + s: `leibniz_rows` on the flattened shapes
    with nabla_i(S) = d_i(S) - [A_i, S]."""
    f = work.field
    n = work.size
    stages = []
    for i_sym in earlier:
        A = work.matrix(i_sym)
        nablas = [sum(mat_sub(mat_apply(lambda e: f.derive(e, i_sym), S),
                              mat_commutator(A, S, f.zero)), []) for S in shapes]
        rhs = sum(defect(work, target, i_sym), []) if i_sym != work.principal \
            else [f.zero] * (n * n)
        stages.append((i_sym, nablas, rhs))
    return leibniz_rows(f, monomials, [sum(S, []) for S in shapes], stages)


def _ansatz_matrices(system: ConnectionSystem, constraint: Optional[list[Matrix]],
                     degree_bound: int) -> tuple[list[Mono], list[Matrix]]:
    """Unknown directions m*S: the monomials m of degree <= degree_bound in
    the variables that some parametric derivation moves, and the shapes S
    (constraint basis elements, or else matrix units).  Tower generators and
    jets are field elements, not parameters, and stay out."""
    f = system.field
    n = system.size
    reg = f.registry
    params = system.parametric_symbols()
    param_vars = [i for i in range(len(reg))
                  if reg.kind(i) not in (VarKind.TOWER, VarKind.JET)
                  and any(not f.derive(monomial(mono_from_items(((i, 1),)), reg), s).is_zero()
                          for s in params)]
    shapes = constraint
    if shapes is None:
        shapes = []
        for i in range(n):
            for j in range(n):
                unit = zeros(n, n, f.zero)
                unit[i][j] = f.one
                shapes.append(unit)
    return monomials_up_to(param_vars, degree_bound, len(shapes)), shapes
