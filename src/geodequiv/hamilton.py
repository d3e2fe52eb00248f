"""Phase-space functions, Poisson brackets and conservation checks.

Functions on the tangent bundle are represented in (x, xi) coordinates; the
canonical bracket lives on the cotangent bundle, so bracket evaluation chain
rules every differential through the fibrewise Legendre transform p = g xi.

Bracket sign convention: {F, G} = sum_i (dF/dx^i dG/dp_i - dF/dp_i dG/dx^i),
so {x^1, p_1} = +1 and {p_1, x^1} = -1.  Conservation along the geodesic flow
of H reads {H, F} = 0; that statement is insensitive to the overall sign.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import dsl, matops
from .geometry import MetricField


class PhaseFunction:
    """A real function of (x, xi) with exact dual-number differentials.

    fn receives two lists of scalar-like cells (coordinates, tangent
    components) and must combine them with arithmetic the dual numbers
    support.  The same closure therefore serves plain evaluation, batched
    evaluation over N points, and gradient extraction.
    """

    def __init__(self, fn: Callable, dim: int):
        self.fn = fn
        self.dim = dim

    def value_batch(self, xs, xis) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        xis = np.asarray(xis, dtype=float)
        n = self.dim
        out = self.fn([xs[:, i] for i in range(n)], [xis[:, i] for i in range(n)])
        return np.broadcast_to(np.asarray(dsl.scalar_value(out), dtype=float), (xs.shape[0],)).copy()

    def grad_batch(self, xs, xis) -> np.ndarray:
        """(N, 2n) differentials in (x, xi), by `dsl.phase_jacobian`."""
        return dsl.phase_jacobian(lambda x, xi: [self.fn(x, xi)], xs, xis)[..., 0, :]

    def __mul__(self, other: "PhaseFunction") -> "PhaseFunction":
        if other.dim != self.dim:
            raise ValueError("phase function dimensions differ")
        return PhaseFunction(lambda x, xi: self.fn(x, xi) * other.fn(x, xi), self.dim)


def coordinate_function(i: int, dim: int) -> PhaseFunction:
    return PhaseFunction(lambda x, xi: x[i], dim)


def momentum_function(metric: MetricField, i: int) -> PhaseFunction:
    """p_i = g_{ij} xi^j as a function on the tangent bundle."""
    return PhaseFunction(lambda x, xi: matops.matvec(metric.eval_cells(x)[i:i + 1], xi)[0],
                         metric.dim)


def hamiltonian(metric: MetricField) -> PhaseFunction:
    """H = 1/2 g_{ij} xi^i xi^j (kinetic energy of the metric)."""
    return PhaseFunction(lambda x, xi: 0.5 * matops.quadratic_form(metric.eval_cells(x), xi),
                         metric.dim)


# ---------------------------------------------------------------------------
# brackets


def canonical_gradients(jac, metric: MetricField, xs, xis):
    """Batched (dF/dx|_p, dF/dp) of a family of phase functions, each of shape
    (N, m, n), from its (N, m, 2n) differentials in (x, xi) coordinates.

    With p = g(x) xi and W = d(g xi)/dx:  dF/dp = g^{-1} dF/dxi  and
    dF/dx|_p = dF/dx|_xi - W^T dF/dp, one solve per point for all m.

    The points run in blocks of `dsl.BLOCK_ROWS`, each filling its rows of
    the outputs, so the metric gradients and the solve do not grow with N;
    points are independent, so the bits are those of a single pass.
    """
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    n = xs.shape[-1]
    Fx = np.empty(jac.shape[:-1] + (n,))
    Fp = np.empty_like(Fx)
    for b in dsl.row_blocks(len(xs)):
        gvals, ggrads = metric.values_and_grads(xs[b])  # (B,n,n), (B,n,n,k)
        W = (xis[b, None, None, :] @ ggrads)[:, :, 0]  # W[l, k] = d_k g_lj xi^j
        Fp[b] = np.linalg.solve(gvals, jac[b, :, n:].swapaxes(1, 2)).swapaxes(1, 2)
        Fx[b] = jac[b, :, :n] - Fp[b] @ W
    return Fx, Fp


def bracket(Fx, Fp, Gx, Gp) -> np.ndarray:
    """{F, G} from canonical gradients with the point axis first."""
    return np.einsum("Ni,Ni->N", Fx, Gp) - np.einsum("Ni,Ni->N", Fp, Gx)


def poisson_bracket(F: PhaseFunction, G: PhaseFunction, metric: MetricField, x, xi):
    """Canonical bracket {F, G}.  x and xi may carry leading batch axes; a
    single point gives a float."""
    x = np.asarray(x, dtype=float)
    n = F.dim
    xs = x.reshape(-1, n)
    xis = np.asarray(xi, dtype=float).reshape(-1, n)
    jac = dsl.phase_jacobian(lambda x, xi: [F.fn(x, xi), G.fn(x, xi)], xs, xis)
    Cx, Cp = canonical_gradients(jac, metric, xs, xis)
    br = bracket(Cx[:, 0], Cp[:, 0], Cx[:, 1], Cp[:, 1])
    return br.reshape(x.shape[:-1]) if x.ndim > 1 else float(br[0])


def conservation_drift(values):
    """max_t |F(t) - F(0)| / max(|F(0)|, 1e-12) for values sampled along a
    trajectory: shape (K,) gives one drift, (K, m) one per column."""
    vals = np.asarray(values, dtype=float)
    return np.max(np.abs(vals - vals[0]), axis=0) / np.maximum(np.abs(vals[0]), 1e-12)
