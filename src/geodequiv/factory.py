"""Integrals from the trajectorial diffeomorphism, via Pfaffian quotients.

The map Phi scales a tangent vector by |xi|_g / |xi|_gbar, so the pullback of
the gbar-canonical symplectic form along Phi is the exterior derivative of
theta_i = (|xi|_g / |xi|_gbar) gbar_{ij} xi^j dx^i.  For the pair's geodesic
flow the degree-n polynomial

    Delta(t) = Pf(Phi* omega_gbar - t omega_g) / Pf(omega_g)

factors as (t - a) delta(t) with a = |xi|_gbar / |xi|_g, and every coefficient
of the quotient delta is a first integral.  Coefficients are recovered by
sampling the Pfaffian quotient at Chebyshev nodes and solving the small
Vandermonde system, then dividing out the root a with synthetic division.

Form matrices are laid out in the basis (dx^1..dx^n, dxi^1..dxi^n) with
entry (a, b) = omega(e_a, e_b), the sign fixed so the dx-dxi block of
omega_g equals g itself.  Only the quotient of two Pfaffians ever enters, so
the overall orientation cancels; Delta is normalised to leading coefficient
+1 at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dsl, matops
from .dsl import d_sqrt
from .geometry import MetricField
from .integrals import MetricPair, integrals_at


# ---------------------------------------------------------------------------
# pfaffian


def pfaffian(A: np.ndarray):
    """Pfaffian of a real skew-symmetric matrix, or of each matrix of a
    (..., 2m, 2m) stack.

    Skew-symmetric Gaussian elimination with pivoting (the Parlett-Reid
    scheme; M. Wimmer, ACM TOMS 38 (2012), arXiv:1102.3440), one loop for
    the whole stack; each row/column swap flips the sign of its own matrix,
    and a zero pivot zeroes only its own matrix's value.  The canonical block
    form diag([[0,1],[-1,0]], ...) has Pfaffian +1.  Odd dimension raises, as
    the Pfaffian is undefined there, and so does a stack with any member that
    is not skew-symmetric.  A single matrix gives a float, a stack an array
    of its leading shape.
    """
    A = np.array(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("pfaffian needs a square matrix")
    n = A.shape[-1]
    if n % 2 != 0:
        raise ValueError("pfaffian is defined for even dimension only")
    batch = A.shape[:-2]
    A = A.reshape((math.prod(batch), n, n))
    if n and not _is_skew(A):
        raise ValueError("matrix is not skew-symmetric")
    val = np.ones(len(A))
    dead = np.zeros(len(A), dtype=bool)
    for k in range(0, n - 1, 2):
        pivot = k + 1 + np.argmax(np.abs(A[:, k + 1:, k]), axis=1)
        dead |= A[np.arange(len(A)), pivot, k] == 0.0
        s = np.flatnonzero(pivot != k + 1)
        p = pivot[s]
        A[s, k + 1], A[s, p] = A[s, p], A[s, k + 1]
        A[s, :, k + 1], A[s, :, p] = A[s, :, p], A[s, :, k + 1]
        val[s] = -val[s]
        val *= A[:, k, k + 1]
        if k + 2 < n:
            # a dead matrix divides by 1: its value is discarded, and this
            # keeps its later steps finite
            tau = A[:, k, k + 2:] / np.where(dead, 1.0, A[:, k, k + 1])[:, None]
            col = A[:, k + 2:, k + 1]
            # rank-2 update outer(tau, col) - outer(col, tau), a row at a time
            for j in range(n - k - 2):
                A[:, k + 2 + j, k + 2:] += tau[:, j, None] * col - col[:, j, None] * tau
    val[dead] = 0.0
    return val.reshape(batch) if batch else float(val[0])


def _is_skew(A: np.ndarray) -> bool:
    """np.allclose(A_i, -A_i.T, atol=1e-10 (1 + max|A_i|)) for every matrix
    A_i of the (M, n, n) stack, one row at a time so that no temporary is
    stack-sized."""
    atol = 1e-10 * (1.0 + np.maximum(A.max(axis=(1, 2)), -A.min(axis=(1, 2))))
    close = True
    with np.errstate(invalid="ignore"):
        for i in range(A.shape[1]):
            x, y = A[:, i, :], -A[:, :, i]
            close &= np.all((np.abs(x - y) <= atol[:, None] + 1e-5 * np.abs(y)) & np.isfinite(y)
                            | (x == y))
    return bool(close)


# ---------------------------------------------------------------------------
# canonical and pulled-back forms
#
# Phase points come as base points x and tangent vectors xi of shape (..., n);
# every leading axis is a batch axis, and a single point is the (n,) case.


def _form_from_theta(theta_fn: Callable, n: int, x, xi) -> np.ndarray:
    """d theta for the 1-form theta_i dx^i, from d theta_i / dx^k and
    d theta_i / dxi^k; skew by construction, the strict upper triangle mirrored."""
    jac = dsl.phase_jacobian(theta_fn, x, xi)
    dx, dxi = jac[..., :n], jac[..., n:]
    upper = np.zeros(dx.shape[:-2] + (2 * n, 2 * n))
    upper[..., :n, :n] = dx - dx.swapaxes(-1, -2)  # (k, i): d_i theta_k - d_k theta_i
    upper[..., :n, n:] = dxi  # (x_i, xi_k) block equals d theta_i / dxi^k
    U = np.triu(upper, k=1)
    return U - U.swapaxes(-1, -2)


def omega_g_at(metric: MetricField, x, xi) -> np.ndarray:
    """Canonical symplectic form of the metric, d[g_{ij} xi^j dx^i], with the
    dx-dxi block equal to g."""
    n = metric.dim

    def theta(x, xi):
        return matops.matvec(metric.eval_cells(x), xi)

    return _form_from_theta(theta, n, x, xi)


def _pullback_theta(pair: MetricPair):
    n = pair.dim

    def theta(x, xi):
        gm = pair.g.eval_cells(x)
        gb = pair.gbar.eval_cells(x)
        ng = d_sqrt(matops.quadratic_form(gm, xi))
        nb = d_sqrt(matops.quadratic_form(gb, xi))
        scalefac = ng / nb
        w = matops.matvec(gb, xi)
        return [scalefac * wi for wi in w]

    return theta


def pullback_phi_omega(pair: MetricPair, x, xi) -> np.ndarray:
    """Pullback of omega_gbar along the trajectorial diffeomorphism
    Phi(x, xi) = (x, xi |xi|_g / |xi|_gbar)."""
    return _form_from_theta(_pullback_theta(pair), pair.dim, x, xi)


def a_scalar(pair: MetricPair, x, xi):
    """a = |xi|_gbar / |xi|_g, the factored root of Delta."""
    ng = pair.g.norm(x, xi)
    nb = pair.gbar.norm(x, xi)
    if np.any(ng == 0.0) or np.any(nb == 0.0):
        raise ValueError("zero tangent vector has no norm ratio")
    return nb / ng


# ---------------------------------------------------------------------------
# polynomial machinery


def horner_divide(coeffs, root) -> tuple[np.ndarray, float]:
    """Synthetic division by (t - root) of descending-power coefficients:
    returns quotient and remainder.  Stacked polynomials divide by one root each."""
    cs = np.asarray(coeffs, dtype=float)
    if cs.shape[-1] < 2:
        raise ValueError("cannot divide a constant polynomial")
    q = np.empty(cs.shape[:-1] + (cs.shape[-1] - 1,))
    q[..., 0] = cs[..., 0]
    for j in range(1, q.shape[-1]):
        q[..., j] = cs[..., j] + root * q[..., j - 1]
    rem = cs[..., -1] + root * q[..., -1]
    return q, rem[()]


def delta_poly(pair: MetricPair, x, xi) -> np.ndarray:
    """Coefficients of Delta(t) = Pf(Phi* omega_gbar - t omega_g)/Pf(omega_g),
    normalised to leading coefficient +1, descending powers on the last axis.

    The quotient is a degree-n polynomial in t; it is recovered exactly (up to
    rounding) from n+1 samples at Chebyshev nodes scaled to the root's
    magnitude, via a Vandermonde solve.  All Pfaffians of a batch are taken
    as one stack, and the Vandermonde systems are solved as one stack.
    """
    n = pair.dim
    omega = omega_g_at(pair.g, x, xi)
    pulled = pullback_phi_omega(pair, x, xi)
    radius = 1.0 + np.abs(a_scalar(pair, x, xi))
    nodes = np.multiply.outer(radius, np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2.0 * (n + 1))))
    # forms[..., 0] is omega_g, forms[..., 1 + j] the pencil at node j
    forms = np.empty(omega.shape[:-2] + (n + 2,) + omega.shape[-2:])
    forms[..., 0, :, :] = omega
    pencil = forms[..., 1:, :, :]
    np.multiply(nodes[..., None, None], omega[..., None, :, :], out=pencil)
    np.subtract(pulled[..., None, :, :], pencil, out=pencil)
    pfs = pfaffian(forms)
    pf_omega = pfs[..., :1]
    if np.any(pf_omega == 0.0):
        raise ValueError("canonical form is degenerate at this point")
    samples = pfs[..., 1:] / pf_omega
    # descending powers, built the way np.vander builds them
    V = np.empty(nodes.shape + (n + 1,))
    powers = V[..., ::-1]
    powers[..., 0] = 1.0
    powers[..., 1:] = nodes[..., None]
    np.multiply.accumulate(powers[..., 1:], axis=-1, out=powers[..., 1:])
    coeffs = np.linalg.solve(V, samples[..., None])[..., 0]
    return coeffs / coeffs[..., :1]


def rank_one_data(rho: Sequence[float], xi: Sequence[float]):
    """The principal-axes data (mu, A, B) for g = identity, gbar = diag(rho):
    the dxi-block of the pulled-back form is diag(-mu) + outer(A, B)."""
    rho = np.asarray(rho, dtype=float)
    xi = np.asarray(xi, dtype=float)
    ng = float(np.sqrt(np.sum(xi * xi)))
    nb = float(np.sqrt(np.sum(rho * xi * xi)))
    if ng == 0.0 or nb == 0.0:
        raise ValueError("zero tangent vector")
    mu = -rho * ng / nb
    A = rho * xi
    B = (nb / ng - rho * ng / nb) / (nb * nb) * xi
    return mu, A, B


def rank_one_delta(mu, A, B, t: float) -> float:
    """det(diag(t + mu) - outer(A, B)) expanded along the rank-one update:
    prod(t + mu_i) - sum_i A_i B_i prod_{j != i}(t + mu_j)."""
    mu = np.asarray(mu, dtype=float)
    ab = np.asarray(A, dtype=float) * np.asarray(B, dtype=float)
    full = np.prod(t + mu)
    total = full
    for i in range(len(mu)):
        others = np.prod(np.delete(t + mu, i))
        total -= ab[i] * others
    return float(total)


@dataclass(frozen=True, eq=False)
class FactoryIntegrals:
    """Quotient coefficients delta(t) = Delta(t)/(t - a) plus the division
    remainder; the remainder vanishes exactly when a is a root of Delta.
    coeffs (delta) and delta (Delta) hold descending powers on the last axis.
    Batched points give stacked fields."""

    coeffs: np.ndarray
    remainder: float
    a: float
    delta: np.ndarray


def factory_integrals(pair: MetricPair, x, xi) -> FactoryIntegrals:
    delta = delta_poly(pair, x, xi)
    a = a_scalar(pair, x, xi)
    q, rem = horner_divide(delta, a)
    return FactoryIntegrals(q, rem, a, delta)


def coeffs_from_closed_form(pair: MetricPair, x, xi) -> np.ndarray:
    """Predict the quotient coefficients from the I_k family.

    The per-coefficient conversion (derived from the rank-one determinant by
    synthetic division, valid at every phase point):

        b_{n-1-k} = (-1)^n (det gbar / det g)^{(k+2)/(n+1)} I_k
                    / (a^{k+2} g(xi, xi)),   k = 0..n-1,

    returned in descending powers to match factory_integrals().coeffs.  The
    conversion runs on Python floats point by point, so a power that leaves
    the float range raises OverflowError.
    """
    n = pair.dim
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1, n)
    xis = np.asarray(xi, dtype=float).reshape(-1, n)
    Ik = integrals_at(pair, xs, xis)
    a = a_scalar(pair, xs, xis)
    det_g = np.linalg.det(pair.g.values(xs))
    det_gb = np.linalg.det(pair.gbar.values(xs))
    ng = pair.g.norm(xs, xis)
    sign = (-1.0) ** n
    b_desc = np.empty((len(xs), n))
    for i in range(len(xs)):
        ai, gxx = float(a[i]), float(ng[i]) ** 2
        det_ratio = float(det_gb[i]) / float(det_g[i])
        for k in range(n):
            ratio = det_ratio ** ((k + 2.0) / (n + 1.0))
            b_desc[i, k] = sign * ratio * Ik[i, k] / (ai ** (k + 2) * gxx)
    return b_desc.reshape(x.shape)
