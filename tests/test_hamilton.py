"""Canonical brackets, the fibrewise Legendre transform, and conservation
measurement.  Bracket identities (antisymmetry, Leibniz, canonical pairs) are
checked at random phase points, and algebraic zeros are required to be exact.
"""

import numpy as np
import pytest

from geodequiv import GeodesicOptions, integrate_geodesic, resolve_pair
from geodequiv.cli import sample_phase_points
from geodequiv.dsl import parse
from geodequiv.geometry import Chart, MetricField
from geodequiv.hamilton import (
    canonical_gradients,
    conservation_drift,
    coordinate_function,
    hamiltonian,
    momentum_function,
    poisson_bracket,
)
from geodequiv.integrals import integral_phase_function, integrals_jacobian, involution_matrix


def flat_metric(n=2, diag=None):
    chart = Chart(tuple(f"x{i+1}" for i in range(n)), sample_box=tuple((-1.0, 1.0) for _ in range(n)))
    diag = diag or [1.0] * n
    return MetricField.from_diagonal(chart, [parse(str(v), chart.names) for v in diag])


def curved_metric():
    chart = Chart(("x1", "x2"), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
    return MetricField.from_strings(
        chart,
        [["2 + sin(x1)*x2^2", "0.3*x1*x2"], ["0.3*x1*x2", "1 + 0.5*x1^2"]],
    )


# ---------------------------------------------------------------------------
# legendre transform: the momenta p_i = g_ij xi^j and the canonical gradients


def momenta(g, xs, xis):
    return np.stack([momentum_function(g, i).value_batch(xs, xis) for i in range(g.dim)], axis=-1)


def test_flat_momenta_equal_velocities():
    g = flat_metric(2)
    p = momenta(g, np.array([[0.1, 0.2]]), np.array([[0.7, -0.3]]))
    assert np.allclose(p, [[0.7, -0.3]], atol=1e-15)


def test_diagonal_momenta():
    g = flat_metric(2, [2, 1])
    p = momenta(g, np.zeros((1, 2)), np.ones((1, 2)))
    assert np.allclose(p, [[2.0, 1.0]], atol=1e-15)


def test_legendre_round_trip_random_metric():
    """The momenta are the canonical fibre coordinates, so the Legendre step
    of canonical_gradients must return their gradients as dp/dx = 0 and
    dp/dp = identity."""
    g = curved_metric()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.9, 0.9, size=(10, 2))
    xis = rng.normal(size=(10, 2))
    jac = np.stack([momentum_function(g, i).grad_batch(xs, xis) for i in range(2)], axis=1)
    px, pp = canonical_gradients(jac, g, xs, xis)
    assert np.allclose(px, 0.0, rtol=1e-12, atol=1e-12)
    assert np.allclose(pp, np.eye(2), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# bracket identities


def test_bracket_of_hamiltonian_with_itself_is_exactly_zero():
    g = curved_metric()
    H = hamiltonian(g)
    assert poisson_bracket(H, H, g, [0.3, -0.2], [0.8, 0.1]) == 0.0


def test_canonical_pair_bracket_is_minus_one():
    g = curved_metric()
    p1 = momentum_function(g, 0)
    x1 = coordinate_function(0, 2)
    x, xi = [0.4, 0.1], [0.5, -0.7]
    assert poisson_bracket(p1, x1, g, x, xi) == pytest.approx(-1.0, rel=1e-12)
    assert poisson_bracket(x1, p1, g, x, xi) == pytest.approx(+1.0, rel=1e-12)


def test_all_canonical_pairs():
    g = curved_metric()
    x, xi = [0.2, -0.5], [0.9, 0.4]
    for i in range(2):
        for j in range(2):
            xi_f = coordinate_function(i, 2)
            pj_f = momentum_function(g, j)
            want = 1.0 if i == j else 0.0
            assert poisson_bracket(xi_f, pj_f, g, x, xi) == pytest.approx(want, abs=1e-12)
            assert poisson_bracket(xi_f, coordinate_function(j, 2), g, x, xi) == pytest.approx(0.0, abs=1e-13)
            assert poisson_bracket(momentum_function(g, i), pj_f, g, x, xi) == pytest.approx(0.0, abs=1e-12)


def test_bracket_antisymmetry_and_leibniz():
    g = curved_metric()
    H = hamiltonian(g)
    F = momentum_function(g, 1)
    K = coordinate_function(0, 2)
    x, xi = np.array([0.15, 0.35]), np.array([0.6, -0.2])
    Fv, Kv = (f.value_batch(x[None], xi[None])[0] for f in (F, K))
    assert poisson_bracket(H, F, g, x, xi) == pytest.approx(-poisson_bracket(F, H, g, x, xi), rel=1e-12)
    lhs = poisson_bracket(H, F * K, g, x, xi)
    rhs = poisson_bracket(H, F, g, x, xi) * Kv + Fv * poisson_bracket(H, K, g, x, xi)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bracket_batch_matches_pointwise():
    g = curved_metric()
    H = hamiltonian(g)
    F = momentum_function(g, 0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-0.8, 0.8, size=(12, 2))
    xis = rng.normal(size=(12, 2))
    batch = poisson_bracket(H, F, g, xs, xis)
    single = [poisson_bracket(H, F, g, x, xi) for x, xi in zip(xs, xis)]
    assert np.allclose(batch, single, rtol=1e-12, atol=1e-14)
    assert poisson_bracket(H, F, g, xs.reshape(3, 4, 2), xis.reshape(3, 4, 2)).shape == (3, 4)


def test_flow_brackets_vanish_for_equivalent_pair():
    """{H, I_k} at seeded phase points, normalised by the differential sizes."""
    pair = resolve_pair("lc-demo:m2n3")
    H = hamiltonian(pair.g)
    rng = np.random.default_rng(17)
    xs, xis = sample_phase_points(pair, 100, rng)
    jac = np.concatenate([H.grad_batch(xs, xis)[:, None], integrals_jacobian(pair, xs, xis)], axis=1)
    Cx, Cp = canonical_gradients(jac, pair.g, xs, xis)
    norms = np.sqrt(np.sum(Cx * Cx + Cp * Cp, axis=2))  # |dH|, |dI_0|, ..
    for k in range(pair.dim):
        F = integral_phase_function(pair, k)
        br = np.abs(poisson_bracket(H, F, pair.g, xs, xis))
        assert np.max(br / (1.0 + norms[:, 0] * norms[:, k + 1])) <= 1e-8


# ---------------------------------------------------------------------------
# conservation measurement


def test_energy_drift_within_integrator_tolerance():
    pair = resolve_pair("lc-demo:m2n2")
    H = hamiltonian(pair.g)
    rng = np.random.default_rng(23)
    xs, xis = sample_phase_points(pair, 1, rng)
    opts = GeodesicOptions()
    traj = integrate_geodesic(pair.g, xs[0], xis[0], 5.0, opts)
    assert conservation_drift(H.value_batch(traj.xs, traj.xis)) <= opts.energy_tol


def test_bottom_integral_conserved_on_curved_pair():
    pair = resolve_pair("ellipsoid:1,2,3")
    rng = np.random.default_rng(29)
    xs, xis = sample_phase_points(pair, 1, rng)
    traj = integrate_geodesic(pair.g, xs[0], xis[0], 5.0,
                              GeodesicOptions(rtol=1e-10, atol=1e-10, energy_tol=1e-7))
    F = integral_phase_function(pair, 0)
    assert conservation_drift(F.value_batch(traj.xs, traj.xis)) <= 1e-6


def test_bottom_integral_drifts_on_broken_pair():
    pair = resolve_pair("falsify:perturbed-lc:0.1")
    rng = np.random.default_rng(31)
    F = integral_phase_function(pair, 0)
    drifts = []
    for x, xi in zip(*sample_phase_points(pair, 5, rng)):
        traj = integrate_geodesic(pair.g, x, xi, 5.0, GeodesicOptions(energy_tol=1e-7))
        drifts.append(conservation_drift(F.value_batch(traj.xs, traj.xis)))
    assert max(drifts) > 1e-2


# ---------------------------------------------------------------------------
# involution summaries


def family_involution(pair, phase):
    xs, xis = phase
    return involution_matrix(integrals_jacobian(pair, xs, xis), pair.g, xs, xis)


def test_involution_matrix_diagonal_exact_zero_and_symmetry():
    pair = resolve_pair("lc-demo:m3n3")
    rng = np.random.default_rng(37)
    mat = family_involution(pair, sample_phase_points(pair, 20, rng))
    assert np.array_equal(np.diag(mat), np.zeros(pair.dim))
    assert np.array_equal(mat, mat.T)
    assert np.max(mat) <= 1e-8


def test_involution_detects_noncommuting_family():
    pair = resolve_pair("falsify:random-conformal")
    rng = np.random.default_rng(41)
    mat = family_involution(pair, sample_phase_points(pair, 30, rng))
    assert np.max(mat) > 1e-3
