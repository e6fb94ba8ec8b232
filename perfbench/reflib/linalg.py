"""Small dense linear algebra over a finite field (Gaussian elimination)."""

from __future__ import annotations


class LinearSolveError(ArithmeticError):
    pass


class InconsistentSystem(LinearSolveError):
    pass


class UnderdeterminedSystem(LinearSolveError):
    pass


def _eliminate(field, rows, rhs):
    """Row-reduce [rows | rhs] in place; returns pivot column list."""
    m = len(rows)
    k = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for col in range(k):
        pivot = None
        for i in range(r, m):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        rhs[r] = field.mul(inv, rhs[r])
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [
                    field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])
                ]
                rhs[i] = field.sub(rhs[i], field.mul(f, rhs[r]))
        pivots.append(col)
        r += 1
        if r == m:
            break
    return pivots


def solve(field, rows, rhs, require_unique=True):
    """Solve rows * x = rhs over the field.

    Raises InconsistentSystem if no solution exists and, with require_unique,
    UnderdeterminedSystem if the solution is not unique.  Free variables are
    set to zero otherwise.
    """
    rows = [list(r) for r in rows]
    rhs = list(rhs)
    k = len(rows[0]) if rows else 0
    pivots = _eliminate(field, rows, rhs)
    for i in range(len(pivots), len(rows)):
        if rhs[i] != 0:
            raise InconsistentSystem("no solution")
    if require_unique and len(pivots) < k:
        raise UnderdeterminedSystem("solution space has positive dimension")
    x = [0] * k
    for i, col in enumerate(pivots):
        x[col] = rhs[i]
    return x
