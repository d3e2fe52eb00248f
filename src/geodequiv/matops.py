"""Small dense linear algebra over generic scalars.

Matrices here are nested lists, one list of cells per row, whose cells are
"scalar-like": floats, (N,) float arrays for vectorised evaluation, or dual
numbers.  Everything is written with plain +, *, / and dsl's dispatching
`apply_function`, so one code path serves value evaluation, batched
evaluation and exact differentiation.  Every sum runs in index order.
Dimensions are tiny (n <= 6), loops are fine.
"""

from __future__ import annotations

import numpy as np

from .dsl import apply_function, scalar_value


class NotPositiveDefiniteError(ValueError):
    def __init__(self, minor: int, detail: str = ""):
        self.minor = minor
        msg = f"matrix is not positive definite (leading minor {minor})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def _dot(u, v):
    s = u[0] * v[0]
    for l in range(1, len(u)):
        s = s + u[l] * v[l]
    return s


def matmul(a: list[list], b: list[list]) -> list[list]:
    assert len(a[0]) == len(b)
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def matvec(a: list[list], v) -> list:
    return [_dot(row, v) for row in a]


def trace(a: list[list]):
    s = a[0][0]
    for i in range(1, len(a)):
        s = s + a[i][i]
    return s


def add_scaled_identity(a: list[list], c) -> list[list]:
    return [[cell + c if i == j else cell for j, cell in enumerate(row)] for i, row in enumerate(a)]


def cholesky(a: list[list]) -> list[list]:
    """Lower Cholesky factor of a symmetric positive definite cell matrix;
    its strict upper triangle holds 0.0."""
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            if i == j:
                pivot = scalar_value(s)
                if np.any(np.asarray(pivot) <= 0.0):
                    raise NotPositiveDefiniteError(i + 1)
                L[i][j] = apply_function("sqrt", s)
            else:
                L[i][j] = s / L[j][j]
    return L


def forward_sub(L: list[list], b: list) -> list:
    n = len(L)
    y = [None] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s = s - L[i][k] * y[k]
        y[i] = s / L[i][i]
    return y


def back_sub_T(L: list[list], y: list) -> list:
    # solves L^T x = y
    n = len(L)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s = s - L[k][i] * x[k]
        x[i] = s / L[i][i]
    return x


def chol_solve_mat(L: list[list], B: list[list]) -> list[list]:
    """Solve (L L^T) X = B column by column."""
    cols = [back_sub_T(L, forward_sub(L, col)) for col in zip(*B)]
    return [list(row) for row in zip(*cols)]


def chol_logdet(L: list[list]):
    s = apply_function("log", L[0][0])
    for i in range(1, len(L)):
        s = s + apply_function("log", L[i][i])
    return s + s


def quadratic_form(a: list[list], v) -> object:
    return _dot(v, matvec(a, v))
