"""Generic-scalar linear algebra against numpy on plain floats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv import matops
from geodequiv.dsl import Dual1, scalar_value


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_matmul_and_matvec_match_numpy():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        v = rng.normal(size=n)
        got = np.array(matops.matmul(A.tolist(), B.tolist()), dtype=float)
        assert np.allclose(got, A @ B, rtol=1e-14)
        gv = np.array([scalar_value(c) for c in matops.matvec(A.tolist(), list(v))])
        assert np.allclose(gv, A @ v, rtol=1e-14)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_cholesky_and_logdet_match_numpy(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n)
    L = matops.cholesky(A.tolist())
    Lv = np.array(L, dtype=float)
    assert np.allclose(Lv, np.linalg.cholesky(A), rtol=1e-10, atol=1e-12)
    ld = float(scalar_value(matops.chol_logdet(L)))
    assert ld == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)


def test_chol_solve_matches_numpy():
    rng = np.random.default_rng(5)
    n = 4
    A = random_spd(rng, n)
    B = rng.normal(size=(n, n))
    L = matops.cholesky(A.tolist())
    X = np.array(matops.chol_solve_mat(L, B.tolist()), dtype=float)
    assert np.allclose(X, np.linalg.solve(A, B), rtol=1e-10, atol=1e-12)
    x = np.array(matops.chol_solve_mat(L, B[:, :1].tolist()), dtype=float)[:, 0]
    assert np.allclose(x, np.linalg.solve(A, B[:, 0]), rtol=1e-10)


def test_not_positive_definite_reports_failing_minor():
    A = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(matops.NotPositiveDefiniteError) as info:
        matops.cholesky(A.tolist())
    assert info.value.minor == 2


def test_quadratic_form_and_trace():
    rng = np.random.default_rng(9)
    A = random_spd(rng, 3)
    v = rng.normal(size=3)
    q = float(scalar_value(matops.quadratic_form(A.tolist(), list(v))))
    assert q == pytest.approx(v @ A @ v, rel=1e-13)
    tr = float(scalar_value(matops.trace(A.tolist())))
    assert tr == pytest.approx(np.trace(A), rel=1e-14)


def test_cells_carry_dual_derivatives_through_cholesky():
    """d/dt log det (A + t*I) = trace((A + t*I)^{-1}), checked via dual cells."""
    rng = np.random.default_rng(11)
    A = random_spd(rng, 3)
    t = Dual1(0.7, {0: 1.0})
    shifted = matops.add_scaled_identity(A.tolist(), t)
    ld = matops.chol_logdet(matops.cholesky(shifted))
    M = A + 0.7 * np.eye(3)
    assert float(ld.value) == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-12)
    assert float(ld.grad[0]) == pytest.approx(np.trace(np.linalg.inv(M)), rel=1e-10)


def test_batched_cells_evaluate_columnwise():
    """(N,) array cells beside a constant 0.0 off-diagonal cell, as the
    ellipsoid's metrics have, broadcast to one result per column."""
    rng = np.random.default_rng(13)
    n, N = 3, 17
    mats = np.stack([random_spd(rng, n) for _ in range(N)])
    mats[:, 0, 2] = mats[:, 2, 0] = 0.0
    cells = [[mats[:, i, j] for j in range(n)] for i in range(n)]
    cells[0][2] = cells[2][0] = 0.0
    lds = scalar_value(matops.chol_logdet(matops.cholesky(cells)))
    want = np.array([np.linalg.slogdet(m)[1] for m in mats])
    assert np.allclose(lds, want, rtol=1e-10)
