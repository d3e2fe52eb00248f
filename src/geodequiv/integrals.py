"""Commuting first integrals built from a pair of metrics on one chart.

Given metrics g and gbar, form G = g^{-1} gbar, take the characteristic
coefficients det(G - mu E) = c_0 mu^n + ... + c_n with c_0 = (-1)^n, the
matrices S_k = sum_{i<=k} c_i G^{k-i}, and

    I_k(x, xi) = (det g / det gbar)^{(k+2)/(n+1)} * gbar(S_k xi, xi).

When g and gbar share their unparameterised geodesics every I_k is constant
along the geodesic flow of g and the family is pairwise in involution.  The
whole pipeline is written over generic scalars so the same code yields plain
values, batched values, and exact dual-number differentials.

Sign conventions: with c_0 = (-1)^n one gets I_{n-1} = -g(xi, xi) (minus twice
the kinetic energy) for every pair, and I_0 equals (-1)^n times the classical
projective-factor integral exposed as painleve_I0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dsl, matops
from .dsl import Expression, apply_function
from .geometry import MetricField
from .hamilton import PhaseFunction, bracket, canonical_gradients

# eigenvalues of G closer than this, relative to 1 + |value|, are one cluster
EIGEN_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class EigenProfile:
    values: tuple[float, ...]  # ascending, with multiplicity
    distinct: tuple[float, ...]  # cluster representatives, ascending
    multiplicities: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.distinct)

    @property
    def strictly_nonproportional(self) -> bool:
        return self.m == len(self.values)


class MetricPair:
    """Two metrics on a shared chart, candidates for geodesic equivalence."""

    def __init__(self, g: MetricField, gbar: MetricField, pair_id: str = "pair"):
        if g.chart != gbar.chart:
            raise ValueError("metrics of a pair must live on the same chart")
        self.g = g
        self.gbar = gbar
        self.chart = g.chart
        self.pair_id = pair_id

    @property
    def dim(self) -> int:
        return self.g.dim

    def check_positive_definite(self) -> None:
        self.g.check_positive_definite()
        self.gbar.check_positive_definite()


# ---------------------------------------------------------------------------
# characteristic data


def char_coeffs(G: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic coefficients of a plain float matrix:
    det(G - mu E) in descending powers of mu, with c[0] = (-1)^n."""
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    sign = (-1.0) ** n
    return np.array([sign * a for a, _ in _faddeev_leverrier(matops.from_cells(G.tolist()), n)])


def _faddeev_leverrier(G: np.ndarray, last: int):
    """Yield (a_k, N_k) for k = 0..last, where det(mu E - G) = mu^n + a_1 mu^{n-1}
    + ... + a_n and N_k = G^k + a_1 G^{k-1} + ... + a_k E, so that c_k = c_0 a_k
    and S_k = c_0 N_k.  The trace recursion M_k = G N_{k-1},
    a_k = -tr(M_k) / k, N_k = M_k + a_k E builds both.  Cells may be any
    scalar-like."""
    N = matops.add_scaled_identity(matops.zeros_obj(G.shape[0]), 1.0)
    yield 1.0, N
    for k in range(1, last + 1):
        M = G if k == 1 else matops.matmul(G, N)
        a = (-1.0 / k) * matops.trace(M)
        N = matops.add_scaled_identity(M, a)
        yield a, N


def g_operator(pair: MetricPair, x) -> np.ndarray:
    """G = g^{-1} gbar as a float matrix at the point x."""
    return np.linalg.solve(pair.g.values(x), pair.gbar.values(x))


def s_matrix(pair: MetricPair, x, k: int) -> np.ndarray:
    """S_k = sum_{i=0}^k c_i G^{k-i} at the point x."""
    n = pair.dim
    if not 0 <= k <= n - 1:
        raise ValueError("k must lie in 0..n-1")
    G = matops.from_cells(g_operator(pair, x).tolist())
    *_, (_, N) = _faddeev_leverrier(G, k)
    return (-1.0) ** n * np.array(N.tolist(), dtype=float)


# ---------------------------------------------------------------------------
# the integrals


def _weight_data(pair: MetricPair, x_cells: list):
    """gbar cells, the Cholesky factor of g, and log(det g / det gbar)."""
    gm = pair.g.eval_cells(x_cells)
    gb = pair.gbar.eval_cells(x_cells)
    Lg = matops.cholesky(gm)
    Lb = matops.cholesky(gb)
    return gb, Lg, matops.chol_logdet(Lg) - matops.chol_logdet(Lb)


def _pipeline(pair: MetricPair, x_cells: list, xi_cells: list, ks: Sequence[int]) -> list:
    """Evaluate I_k for all requested k over generic scalar cells."""
    n = pair.dim
    gb, Lg, logratio = _weight_data(pair, x_cells)
    G = matops.chol_solve_mat(Lg, gb)
    del Lg  # its dual cells need not outlive G
    sign = (-1.0) ** n  # c_0: S_k = c_0 N_k
    quads = {}
    for k, (_, N) in enumerate(_faddeev_leverrier(G, max(ks))):
        if k in ks:
            u = matops.matvec(gb, matops.matvec(N, xi_cells))
            q = xi_cells[0] * u[0]
            for i in range(1, n):
                q = q + xi_cells[i] * u[i]
            quads[k] = sign * q
    return [apply_function("exp", logratio * ((k + 2.0) / (n + 1.0))) * quads[k] for k in ks]


def integral_phase_function(pair: MetricPair, k: int) -> PhaseFunction:
    if not 0 <= k <= pair.dim - 1:
        raise ValueError("k must lie in 0..n-1")
    return PhaseFunction(lambda x, xi: _pipeline(pair, x, xi, [k])[0], pair.dim)


def integrals_at(pair: MetricPair, xs, xis) -> np.ndarray:
    """All I_k at a batch of phase points; shape (N, n)."""
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    n = pair.dim
    outs = _pipeline(pair, list(xs.T), list(xis.T), range(n))
    return np.stack([np.broadcast_to(dsl.scalar_value(o), (len(xs),)) for o in outs], axis=1)


def integrals_jacobian(pair: MetricPair, xs, xis) -> np.ndarray:
    """Differentials of all I_k in (x, xi) at a batch of phase points, by one
    `dsl.phase_jacobian` pass; shape (N, n, 2n)."""
    return dsl.phase_jacobian(lambda x, xi: _pipeline(pair, x, xi, range(pair.dim)), xs, xis)


def painleve_I0(pair: MetricPair, x, xi) -> float:
    """(det g / det gbar)^{2/(n+1)} gbar(xi, xi) at the phase point (x, xi),
    the classical two-dimensional integral in its n-dimensional form.
    Equals (-1)^n I_0."""
    gb, _, logratio = _weight_data(pair, list(np.asarray(x, dtype=float)))
    xi = list(np.asarray(xi, dtype=float))
    out = apply_function("exp", logratio * (2.0 / (pair.dim + 1.0))) * matops.quadratic_form(gb, xi)
    return float(dsl.scalar_value(out))


# ---------------------------------------------------------------------------
# eigenvalue profile and Killing transfer


def eigen_profile(pair: MetricPair, x) -> EigenProfile:
    """Eigenvalues of G = g^{-1} gbar, clustered at relative tolerance."""
    g = pair.g.values(x)
    gbar = pair.gbar.values(x)
    L = np.linalg.cholesky(g)
    Y = np.linalg.solve(L, gbar)
    sym = np.linalg.solve(L, Y.T).T  # L^{-1} gbar L^{-T}, symmetric similarity
    vals = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    distinct = [float(vals[0])]
    mults = [1]
    for v in vals[1:]:
        if v - distinct[-1] > EIGEN_CLUSTER_TOL * (1.0 + abs(v)):
            distinct.append(float(v))
            mults.append(1)
        else:
            mults[-1] += 1
    return EigenProfile(tuple(float(v) for v in vals), tuple(distinct), tuple(mults))


def transfer_killing(pair: MetricPair, covector: Sequence[Expression]) -> PhaseFunction:
    """Lift a gbar-linear integral to the g-flow.

    If F1 = sum_i a_i(x) xi^i is constant along gbar-geodesics then
    (det g / det gbar)^{1/(n+1)} F1 is constant along g-geodesics.
    """
    n = pair.dim
    if len(covector) != n:
        raise ValueError("covector needs one component per coordinate")
    names = pair.chart.names

    def fn(x, xi):
        env = dsl.eval_env(names, x)
        _, _, logratio = _weight_data(pair, x)
        s = covector[0].evaluate(env) * xi[0]
        for i in range(1, n):
            s = s + covector[i].evaluate(env) * xi[i]
        return apply_function("exp", logratio * (1.0 / (n + 1.0))) * s

    return PhaseFunction(fn, n)


# ---------------------------------------------------------------------------
# involution and independence of a family, from its stacked differentials


def involution_and_rank(pair: MetricPair, xs, xis, rank_tol: float) -> tuple[np.ndarray, int]:
    """involution_matrix and independence_rank of the integrals' (N, n, 2n)
    differentials, taken block by block of `dsl.BLOCK_ROWS` points and
    folded by a running maximum, so only the (N, n) points grow with N.
    Both reductions are exact: the bits are those of the whole stack."""
    brackets, rank = np.zeros((pair.dim, pair.dim)), 0  # entries are >= 0 or NaN
    for b in dsl.row_blocks(len(xs)):
        jac = integrals_jacobian(pair, xs[b], xis[b])
        brackets = np.maximum(brackets, involution_matrix(jac, pair.g, xs[b], xis[b]))
        rank = max(rank, independence_rank(jac, rank_tol))
    return brackets, rank


def involution_matrix(jac, metric: MetricField, xs, xis) -> np.ndarray:
    """Normalised pairwise bracket magnitudes, maximised over sample points.

    jac holds the (x, xi) differentials of m phase functions at N points,
    shape (N, m, 2n), as integrals_jacobian gives them.  Entry (j, k) is
    max_p |{F_j, F_k}| / (1 + |dF_j| |dF_k|) with the differential norms
    taken in canonical coordinates.  Diagonal entries are exactly zero.
    `involution_and_rank` applies it to one block of points at a time.
    """
    Fx, Fp = canonical_gradients(jac, metric, xs, xis)  # (N, m, n) each
    norms = np.sqrt(np.sum(Fx * Fx + Fp * Fp, axis=2))
    m = Fx.shape[1]
    out = np.zeros((m, m))
    for j in range(m):
        for k in range(j + 1, m):
            br = bracket(Fx[:, j], Fp[:, j], Fx[:, k], Fp[:, k])
            out[j, k] = out[k, j] = float(np.max(np.abs(br) / (1.0 + norms[:, j] * norms[:, k])))
    return out


def independence_rank(jac, rank_tol: float = 1e-8) -> int:
    """Max over points of the numerical rank of the stacked (N, m, 2n)
    differentials."""
    sv = np.linalg.svd(jac, compute_uv=False)  # (N, min(m, 2n)), descending
    return int(np.max(np.sum(sv > rank_tol * sv[:, :1], axis=1), initial=0))
