"""Exact linear algebra over any field-like element type.

Entries only need +, -, *, / and a zero test, resolved once per call from
the type of ``zero``, which every entry shares: the type's ``is_zero``
(RationalFunction, tower and curve elements), ``not e`` for int and
Fraction, ``e == zero`` otherwise.  Matrices are lists of lists; the rows of
a linear system are sparse dicts from column index to entry.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Sequence

Matrix = list[list[Any]]
SparseRow = dict[int, Any]


class LinearSolution:
    """Solution set of M x = rhs: a particular solution and a kernel basis,
    or inconsistent=True."""

    __slots__ = ("inconsistent", "particular", "nullspace")

    def __init__(self, inconsistent: bool, particular: list | None, nullspace: list[list]):
        self.inconsistent = inconsistent
        self.particular = particular
        self.nullspace = nullspace


def _zero_test(zero) -> Callable[[Any], bool]:
    is_zero = getattr(type(zero), "is_zero", None)
    if callable(is_zero):
        return is_zero
    return operator.not_ if type(zero) in (int, Fraction) else partial(operator.eq, zero)


def _eliminate(rows: list[SparseRow], rid: int, pivot: SparseRow, col: int,
               index: list[set[int]], zero, is_zero) -> None:
    """rows[rid] -= rows[rid][col] * pivot for a pivot row with pivot[col] == 1,
    deleting cancelled entries and keeping the column index up to date."""
    row = rows[rid]
    f = row.pop(col)
    index[col].discard(rid)
    for j, v in pivot.items():
        if j == col:
            continue
        e = row.get(j)
        if e is None:
            row[j] = zero - f * v
            index[j].add(rid)
        else:
            e = e - f * v
            if is_zero(e):
                del row[j]
                index[j].discard(rid)
            else:
                row[j] = e


def linear_solve(rows: Sequence[SparseRow], rhs: Sequence, ncols: int,
                 zero, one) -> LinearSolution:
    """Exact sparse Gauss-Jordan elimination for the system
    sum_j rows[i][j] * x_j = rhs[i] in the unknowns x_0..x_{ncols-1}.

    Rows map column indices to entries (absent columns are zero) and are not
    modified.  A column index keeps the ids of the rows with a nonzero in each
    column.  Pivot columns are taken in column order; the pivot is the active
    row with the fewest nonzeros, the lowest id on a tie.  The solve stops at
    the first row that reads 0 = b, as given or after elimination.  Otherwise
    back-substitution gives the reduced row echelon form.  It is unique, so
    the particular solution (free unknowns zero) and the kernel basis (one
    vector per free column, ascending) do not depend on the pivot choice, and
    every returned vector satisfies the system exactly.
    """
    is_zero = _zero_test(zero)
    # Working copies without zero entries; the right-hand side is column ncols.
    work: list[SparseRow] = []
    index: list[set[int]] = [set() for _ in range(ncols + 1)]
    for row, b in zip(rows, rhs):
        r = {j: e for j, e in row.items() if not is_zero(e)}
        if not is_zero(b):
            r[ncols] = b
            if len(r) == 1:
                return LinearSolution(True, None, [])
        for j in r:
            index[j].add(len(work))
        work.append(r)
    col_of: dict[int, int] = {}  # pivot row id -> its column, ascending
    for col in range(ncols):
        candidates = index[col].difference(col_of)
        if not candidates:
            continue
        pid = min(candidates, key=lambda i: (len(work[i]), i))
        inv = one / work[pid][col]
        # The pivot entry is never read again, so it costs no product.
        work[pid] = pivot = {j: one if j == col else inv * e
                             for j, e in work[pid].items()}
        for rid in candidates - {pid}:
            _eliminate(work, rid, pivot, col, index, zero, is_zero)
            if len(work[rid]) == 1 and ncols in work[rid]:
                return LinearSolution(True, None, [])
        col_of[pid] = col
    # Other rows are empty; a pivot row is zero at the pivot columns left of its own.
    for pid, col in reversed(col_of.items()):
        for rid in index[col] - {pid}:
            _eliminate(work, rid, work[pid], col, index, zero, is_zero)
    particular = [zero] * ncols
    for pid, col in col_of.items():
        particular[col] = work[pid].get(ncols, zero)
    nullspace = []
    for fc in sorted(set(range(ncols)).difference(col_of.values())):
        vec = [zero] * ncols
        vec[fc] = one
        for rid in index[fc]:
            vec[col_of[rid]] = zero - work[rid][fc]
        nullspace.append(vec)
    return LinearSolution(False, particular, nullspace)


# -- matrix helpers ----------------------------------------------------------


def zeros(n: int, m: int, zero) -> Matrix:
    return [[zero for _ in range(m)] for _ in range(n)]


def identity(n: int, zero, one) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A: Matrix) -> Matrix:
    return [[-a for a in row] for row in A]


def mat_scale(A: Matrix, c) -> Matrix:
    return [[c * a for a in row] for row in A]


def mat_mul(A: Matrix, B: Matrix, zero) -> Matrix:
    if (len(A[0]) if A else 0) != len(B):
        raise ValueError("shape mismatch")
    is_zero = _zero_test(zero)
    out = zeros(len(A), len(B[0]) if B else 0, zero)
    for row, out_row in zip(A, out):
        for a, b_row in zip(row, B):
            if not is_zero(a):
                for j, b in enumerate(b_row):
                    if not is_zero(b):
                        out_row[j] = out_row[j] + a * b
    return out


def mat_commutator(A: Matrix, B: Matrix, zero) -> Matrix:
    return mat_sub(mat_mul(A, B, zero), mat_mul(B, A, zero))


def mat_transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A: Matrix, zero) -> bool:
    is_zero = _zero_test(zero)
    return all(is_zero(a) for row in A for a in row)


class SingularMatrix(ArithmeticError):
    pass


def mat_inverse(A: Matrix, zero, one) -> Matrix:
    """A^-1 from the kernel of [A | -I], whose vectors (x, y) have A x = y.

    The columns of -I are independent, so the kernel has one vector per free
    column.  When A is invertible the free columns are those of -I and the
    j-th kernel vector is (A^-1 e_j, e_j).  Otherwise the first free column
    is a column of A, and its kernel vector has y = 0.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("inverse of a non-square matrix")
    minus_one = zero - one
    rows = [{**dict(enumerate(row)), n + i: minus_one} for i, row in enumerate(A)]
    kernel = linear_solve(rows, [zero] * n, 2 * n, zero, one).nullspace
    if kernel and _zero_test(zero)(kernel[0][n]):
        raise SingularMatrix("matrix is singular")
    return [[kernel[j][i] for j in range(n)] for i in range(n)]


def mat_apply(fn, A: Matrix) -> Matrix:
    return [[fn(a) for a in row] for row in A]
