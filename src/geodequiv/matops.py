"""Small dense linear algebra over generic scalars.

Matrices here are numpy object arrays whose cells are "scalar-like": floats,
(N,) float arrays for vectorised evaluation, or dual numbers.  Everything is
written with plain +, *, / and dsl's dispatching `apply_function`, so
one code path serves value evaluation, batched evaluation and exact
differentiation.  Dimensions are tiny (n <= 6), loops are fine.
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


def zeros_obj(n: int) -> np.ndarray:
    a = np.empty((n, n), dtype=object)
    a[...] = 0.0
    return a


def from_cells(rows) -> np.ndarray:
    n = len(rows)
    a = np.empty((n, len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            a[i, j] = cell
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.empty((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            s = a[i, 0] * b[0, j]
            for l in range(1, k):
                s = s + a[i, l] * b[l, j]
            out[i, j] = s
    return out


def matvec(a: np.ndarray, v) -> list:
    n, k = a.shape
    out = []
    for i in range(n):
        s = a[i, 0] * v[0]
        for l in range(1, k):
            s = s + a[i, l] * v[l]
        out.append(s)
    return out


def trace(a: np.ndarray):
    s = a[0, 0]
    for i in range(1, a.shape[0]):
        s = s + a[i, i]
    return s


def add_scaled_identity(a: np.ndarray, c) -> np.ndarray:
    out = a.copy()
    for i in range(a.shape[0]):
        out[i, i] = out[i, i] + c
    return out


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite object matrix."""
    n = a.shape[0]
    L = zeros_obj(n)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j]
            for k in range(j):
                s = s - L[i, k] * L[j, k]
            if i == j:
                pivot = scalar_value(s)
                if np.any(np.asarray(pivot) <= 0.0):
                    raise NotPositiveDefiniteError(i + 1)
                L[i, j] = apply_function("sqrt", s)
            else:
                L[i, j] = s / L[j, j]
    return L


def forward_sub(L: np.ndarray, b: list) -> list:
    n = L.shape[0]
    y = [None] * n
    for i in range(n):
        s = b[i]
        for k in range(i):
            s = s - L[i, k] * y[k]
        y[i] = s / L[i, i]
    return y


def back_sub_T(L: np.ndarray, y: list) -> list:
    # solves L^T x = y
    n = L.shape[0]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, n):
            s = s - L[k, i] * x[k]
        x[i] = s / L[i, i]
    return x


def chol_solve_mat(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B column by column."""
    n, m = B.shape
    out = np.empty((n, m), dtype=object)
    for j in range(m):
        col = back_sub_T(L, forward_sub(L, [B[i, j] for i in range(n)]))
        for i in range(n):
            out[i, j] = col[i]
    return out


def chol_logdet(L: np.ndarray):
    s = apply_function("log", L[0, 0])
    for i in range(1, L.shape[0]):
        s = s + apply_function("log", L[i, i])
    return s + s


def quadratic_form(a: np.ndarray, v) -> object:
    w = matvec(a, v)
    s = v[0] * w[0]
    for i in range(1, len(w)):
        s = s + v[i] * w[i]
    return s
