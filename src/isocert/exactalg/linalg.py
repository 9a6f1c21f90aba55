"""Exact linear algebra over any field-like element type.

The routines are generic: entries only need +, -, *, / and an is_zero test
(``e == zero``).  They are used with RationalFunction, tower elements and
curve elements alike.  Matrices are plain lists of lists; the rows of a
linear system are sparse: dicts from column index to entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

Matrix = list[list[Any]]
SparseRow = dict[int, Any]


@dataclass
class LinearSolution:
    """Solution set of M x = rhs: a particular solution and a kernel basis,
    or inconsistent=True."""

    inconsistent: bool
    particular: list | None
    nullspace: list[list]


def _is_zero(e, zero) -> bool:
    z = getattr(e, "is_zero", None)
    if callable(z):
        return e.is_zero()
    return e == zero


def _eliminate(row: SparseRow, pivot: SparseRow, col: int, zero) -> None:
    """row -= row[col] * pivot, for a pivot row with pivot[col] == 1; only the
    pivot row's nonzeros are touched and cancelled entries are deleted."""
    f = row.pop(col)
    for j, v in pivot.items():
        if j == col:
            continue
        e = row.get(j)
        if e is None:
            row[j] = zero - f * v
        else:
            e = e - f * v
            if _is_zero(e, zero):
                del row[j]
            else:
                row[j] = e


def linear_solve(rows: Sequence[SparseRow], rhs: Sequence, ncols: int,
                 zero, one) -> LinearSolution:
    """Exact sparse Gauss-Jordan elimination for the system
    sum_j rows[i][j] * x_j = rhs[i] in the unknowns x_0..x_{ncols-1}.

    Each row maps column indices to entries; absent columns are zero.  Pivot
    columns are taken in column order, and within a column the candidate row
    with the fewest nonzeros becomes the pivot row.  Back-substitution then
    brings the pivot rows to reduced row echelon form.  That form is unique,
    so the particular solution (free unknowns zero) and the kernel basis (one
    vector per free column, ascending) do not depend on the pivot choice, and
    every returned vector satisfies the system exactly.
    """
    # Working copies without zero entries; the right-hand side is column ncols.
    active: list[SparseRow] = []
    for row, b in zip(rows, rhs):
        work = {j: e for j, e in row.items() if not _is_zero(e, zero)}
        if not _is_zero(b, zero):
            work[ncols] = b
        if work:
            active.append(work)
    pivots: list[tuple[int, SparseRow]] = []
    for col in range(ncols):
        candidates = [r for r in active if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        active = [r for r in active if r is not pivot]
        inv = one / pivot[col]
        for j in pivot:
            pivot[j] = inv * pivot[j]
        for r in candidates:
            if r is not pivot:
                _eliminate(r, pivot, col, zero)
        pivots.append((col, pivot))
    # A row left without a pivot reads 0 = its right-hand side.
    if any(active):
        return LinearSolution(True, None, [])
    for k in range(len(pivots) - 1, 0, -1):
        col, pivot = pivots[k]
        for _, r in pivots[:k]:
            if col in r:
                _eliminate(r, pivot, col, zero)
    particular = [zero] * ncols
    for col, pivot in pivots:
        particular[col] = pivot.get(ncols, zero)
    pivot_cols = {col for col, _ in pivots}
    nullspace = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for col, pivot in pivots:
            e = pivot.get(fc)
            if e is not None:
                vec[col] = zero - e
        nullspace.append(vec)
    return LinearSolution(False, particular, nullspace)


# -- matrix helpers ----------------------------------------------------------


def mat_shape(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


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
    n, k = mat_shape(A)
    k2, m = mat_shape(B)
    if k != k2:
        raise ValueError("shape mismatch")
    out = zeros(n, m, zero)
    for i in range(n):
        for p in range(k):
            a = A[i][p]
            if _is_zero(a, zero):
                continue
            for j in range(m):
                b = B[p][j]
                if not _is_zero(b, zero):
                    out[i][j] = out[i][j] + a * b
    return out


def mat_commutator(A: Matrix, B: Matrix, zero) -> Matrix:
    return mat_sub(mat_mul(A, B, zero), mat_mul(B, A, zero))


def mat_transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def mat_eq(A: Matrix, B: Matrix) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A: Matrix, zero) -> bool:
    return all(_is_zero(a, zero) for row in A for a in row)


class SingularMatrix(ArithmeticError):
    pass


def mat_inverse(A: Matrix, zero, one) -> Matrix:
    """A^-1 from the kernel of [A | -I], whose vectors (x, y) have A x = y.

    The columns of -I are independent, so the kernel has one vector per free
    column.  When A is invertible the free columns are those of -I and the
    j-th kernel vector is (A^-1 e_j, e_j).  Otherwise the first free column
    is a column of A, and its kernel vector has y = 0.
    """
    n, m = mat_shape(A)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    minus_one = zero - one
    rows = [{**dict(enumerate(row)), n + i: minus_one} for i, row in enumerate(A)]
    kernel = linear_solve(rows, [zero] * n, 2 * n, zero, one).nullspace
    if kernel and _is_zero(kernel[0][n], zero):
        raise SingularMatrix("matrix is singular")
    return [[kernel[j][i] for j in range(n)] for i in range(n)]


def mat_apply(fn, A: Matrix) -> Matrix:
    return [[fn(a) for a in row] for row in A]
