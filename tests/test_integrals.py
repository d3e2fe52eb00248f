"""The integral family built from a metric pair: characteristic coefficients,
the recursively accumulated matrices, the integrals themselves, eigenvalue
profiles and the linear-integral transfer.

Independent routes used as oracles here: numpy eigenvalues for the
characteristic polynomial, naive matrix-power sums for the recursion, and
direct closed-form substitution for proportional pairs.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv import matops
from geodequiv.dsl import parse
from geodequiv.geometry import Chart, MetricField
from geodequiv.integrals import (
    MetricPair,
    char_coeffs,
    eigen_profile,
    g_operator,
    independence_rank,
    integral_phase_function,
    integrals_at,
    integrals_jacobian,
    involution_matrix,
    painleve_I0,
    s_matrix,
    transfer_killing,
)
from geodequiv import resolve_pair
from geodequiv.cli import sample_phase_points


def integral(pair, x, xi, k):
    """I_k at the single phase point (x, xi)."""
    return integrals_at(pair, np.array([x], dtype=float), np.array([xi], dtype=float))[0, k]


def constant_pair(g_diag, gbar_diag, n=None):
    n = n or len(g_diag)
    chart = Chart(tuple(f"x{i+1}" for i in range(n)), sample_box=tuple((-1.0, 1.0) for _ in range(n)))
    g = MetricField.from_diagonal(chart, [parse(str(v), chart.names) for v in g_diag])
    gbar = MetricField.from_diagonal(chart, [parse(str(v), chart.names) for v in gbar_diag])
    return MetricPair(g, gbar)


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def constant_full_pair(g, gbar):
    """Constant metrics with the given full (non-diagonal) matrices, so that G
    is not diagonal and the recursion's rounding is not trivially exact."""
    n = len(g)
    chart = Chart(tuple(f"x{i+1}" for i in range(n)), sample_box=tuple((-1.0, 1.0) for _ in range(n)))
    g, gbar = (MetricField.from_strings(chart, [[repr(float(v)) for v in row] for row in m])
               for m in (g, gbar))
    return MetricPair(g, gbar)


# ---------------------------------------------------------------------------
# characteristic coefficients


def test_char_coeffs_identity_2x2():
    assert tuple(char_coeffs(np.eye(2))) == (1.0, -2.0, 1.0)


def test_char_coeffs_diag_2_3():
    assert tuple(char_coeffs(np.diag([2.0, 3.0]))) == (1.0, -5.0, 6.0)


def test_char_coeffs_match_eigenvalue_product():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_spd(rng, 5)
        gbar = random_spd(rng, 5)
        G = np.linalg.solve(g, gbar)
        L = np.linalg.cholesky(g)
        sym = np.linalg.solve(L, np.linalg.solve(L, gbar).T).T
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        # det(G - mu E) = (-1)^n det(mu E - G) = (-1)^n prod(mu - eig_i)
        want = (-1.0) ** 5 * np.poly(eigs)
        got = char_coeffs(G)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=-3, max_value=3))
def test_char_poly_evaluates_to_determinant(n, seed, mu):
    rng = np.random.default_rng(seed)
    G = np.linalg.solve(random_spd(rng, n), random_spd(rng, n))
    c = char_coeffs(G)
    det = np.linalg.det(G - mu * np.eye(n))
    assert np.polyval(c, mu) == pytest.approx(det, rel=1e-8, abs=1e-8 * (1 + abs(det)))


# ---------------------------------------------------------------------------
# the transfer operator and the recursion


def test_g_operator_identity_for_equal_metrics():
    pair = constant_pair([1, 1], [1, 1])
    assert np.allclose(g_operator(pair, [0.0, 0.0]), np.eye(2), atol=1e-15)


def test_g_operator_diagonal_case():
    pair = constant_pair([1, 1], [2, 3])
    assert np.allclose(g_operator(pair, [0.1, 0.2]), np.diag([2.0, 3.0]), atol=1e-14)


def test_s_matrix_equal_metrics_2d():
    pair = constant_pair([1, 1], [1, 1])
    S1 = s_matrix(pair, [0.0, 0.0], 1)
    assert np.allclose(S1, -np.eye(2), atol=1e-14)


def test_s_matrix_equal_metrics_3d():
    pair = constant_pair([1, 1, 1], [1, 1, 1])
    S2 = s_matrix(pair, [0.0, 0.0, 0.0], 2)
    assert np.allclose(S2, -np.eye(3), atol=1e-14)


def test_s_matrix_matches_naive_power_sum():
    rng = np.random.default_rng(33)
    n = 4
    gd = rng.uniform(0.5, 2.0, size=n)
    bd = rng.uniform(0.5, 2.0, size=n)
    x = np.zeros(n)
    for pair in (constant_pair(gd, bd), constant_full_pair(random_spd(rng, n), random_spd(rng, n))):
        G = g_operator(pair, x)
        c = char_coeffs(G)
        for k in range(n):
            naive = sum(c[i] * np.linalg.matrix_power(G, k - i) for i in range(k + 1))
            assert np.allclose(s_matrix(pair, x, k), naive, rtol=1e-12, atol=1e-12)


def test_integrals_match_float_formula_on_a_non_diagonal_pair():
    """I_k = (det g / det gbar)^{(k+2)/(n+1)} gbar(S_k xi, xi) with S_k from
    numpy matrix powers and char_coeffs, on a pair whose G is full."""
    rng = np.random.default_rng(34)
    n = 4
    g, gbar = random_spd(rng, n), random_spd(rng, n)
    pair = constant_full_pair(g, gbar)
    xs = np.zeros((6, n))
    xis = rng.normal(size=(6, n))
    G = np.linalg.solve(g, gbar)
    c = char_coeffs(G)
    ratio = np.linalg.det(g) / np.linalg.det(gbar)
    want = np.empty((len(xis), n))
    for k in range(n):
        S = sum(c[i] * np.linalg.matrix_power(G, k - i) for i in range(k + 1))
        want[:, k] = ratio ** ((k + 2) / (n + 1)) * np.einsum("pi,ij,jk,pk->p", xis, gbar, S, xis)
    assert np.allclose(integrals_at(pair, xs, xis), want, rtol=1e-10, atol=0)


def test_integrals_at_takes_one_recursion_pass(monkeypatch):
    """I_0..I_{n-1} need N_0..N_{n-1}: the trace recursion's n - 2 matrix
    products and no second pass over G, so 2 on the 4-D normal form."""
    pair = resolve_pair("lc-demo:m3n4")
    xs, xis = sample_phase_points(pair, 3, np.random.default_rng(0))
    calls = []
    matmul = matops.matmul

    def counting(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(matops, "matmul", counting)
    integrals_at(pair, xs, xis)
    assert len(calls) == 2


def test_s_matrix_index_range():
    pair = constant_pair([1, 1], [2, 3])
    with pytest.raises(ValueError):
        s_matrix(pair, [0.0, 0.0], 2)
    with pytest.raises(ValueError):
        integral_phase_function(pair, -1)


# ---------------------------------------------------------------------------
# the integrals


def test_last_integral_is_minus_energy_for_equal_metrics():
    pair = constant_pair([2, 1], [2, 1])
    gxx = 2 * 0.7**2 + 0.4**2
    assert integral(pair, [0.0, 0.0], [0.7, -0.4], 1) == pytest.approx(-gxx, rel=1e-14)


def test_doubled_metric_2d_bottom_integral():
    pair = constant_pair([1, 1], [2, 2])
    gxx = 0.3**2 + 0.5**2
    want = (1.0 / 4.0) ** (2.0 / 3.0) * 2.0 * gxx
    assert integral(pair, [0.0, 0.0], [0.3, 0.5], 0) == pytest.approx(want, rel=1e-14)


def test_painleve_equals_energy_for_equal_metrics():
    pair = constant_pair([1, 3], [1, 3])
    assert painleve_I0(pair, [0.2, -0.1], [0.4, 0.6]) == pytest.approx(0.4**2 + 3 * 0.6**2, rel=1e-14)


def test_bottom_integral_is_signed_painleve():
    for name in ("ellipsoid:1,2,3", "lc-demo:m2n3"):
        pair = resolve_pair(name)
        rng = np.random.default_rng(4)
        for x, xi in zip(*sample_phase_points(pair, 5, rng)):
            n = pair.dim
            assert integral(pair, x, xi, 0) == pytest.approx(
                (-1.0) ** n * painleve_I0(pair, x, xi), rel=1e-12
            )


def test_batch_integrals_match_pointwise():
    pair = resolve_pair("lc-demo:m2n2")
    rng = np.random.default_rng(8)
    xs, xis = sample_phase_points(pair, 16, rng)
    batch = integrals_at(pair, xs, xis)
    for k in range(pair.dim):
        single = np.array([integral(pair, x, xi, k) for x, xi in zip(xs, xis)])
        assert np.allclose(batch[:, k], single, rtol=1e-13)


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4"])
def test_batch_jacobian_is_the_stack_of_single_points(name):
    pair = resolve_pair(name)
    n = pair.dim
    xs, xis = sample_phase_points(pair, 12, np.random.default_rng(16))
    single = np.stack([integrals_jacobian(pair, x, xi) for x, xi in zip(xs, xis)])
    assert single.shape == (12, n, 2 * n)
    assert integrals_jacobian(pair, xs, xis).tobytes() == single.tobytes()
    grid = integrals_jacobian(pair, xs.reshape(3, 4, n), xis.reshape(3, 4, n))
    assert grid.tobytes() == single.reshape(3, 4, n, 2 * n).tobytes()


# ---------------------------------------------------------------------------
# eigen profile


def test_profile_equal_metrics():
    prof = eigen_profile(constant_pair([1, 1, 1], [1, 1, 1]), [0.0, 0.0, 0.0])
    assert prof.m == 1
    assert prof.multiplicities == (3,)
    assert not prof.strictly_nonproportional


def test_profile_partial_degeneracy():
    prof = eigen_profile(constant_pair([1, 1, 1], [1, 1, 4]), [0.0, 0.0, 0.0])
    assert prof.m == 2
    assert prof.multiplicities == (2, 1)


def test_profile_ellipsoid_generic_point():
    pair = resolve_pair("ellipsoid:1,2,3")
    rng = np.random.default_rng(0)
    x = pair.chart.box_points(1, rng)[0]
    prof = eigen_profile(pair, x)
    assert prof.m == 2
    assert prof.strictly_nonproportional


# ---------------------------------------------------------------------------
# linear-integral transfer


def test_transfer_zero_covector_is_zero():
    pair = resolve_pair("lc-demo:m2n2")
    names = pair.chart.names
    F = transfer_killing(pair, [parse("0", names), parse("0", names)])
    rng = np.random.default_rng(1)
    xs, xis = sample_phase_points(pair, 5, rng)
    assert np.array_equal(F.value_batch(xs, xis), np.zeros(5))


def test_transfer_identity_pair_keeps_rotation_integral():
    """With equal metrics the determinant factor is 1, so the transferred
    linear integral is the rotational (angle-momentum) integral itself."""
    pair = resolve_pair("sphere")
    names = pair.chart.names
    cov = [parse("0", names), parse("sin(th)^2", names)]
    F = transfer_killing(pair, cov)
    assert F.value_batch([[1.1, 0.4]], [[0.3, 0.8]])[0] == pytest.approx(np.sin(1.1) ** 2 * 0.8, rel=1e-14)


def test_transfer_conserved_along_revolution_geodesics():
    """A normal-form pair whose data depend on the first coordinate only is a
    surface of revolution for both metrics; the lifted angular integral of
    gbar must be conserved along g-geodesics."""
    from geodequiv import GeodesicOptions, integrate_geodesic
    from geodequiv.hamilton import conservation_drift
    from geodequiv.levicivita import LCSpec, build_pair

    lc = build_pair(LCSpec(sizes=(1, 1), phi=("1 + 0.3*sin(x1)", "3")), pair_id="rev")
    pair = lc.pair
    names = pair.chart.names
    F = transfer_killing(pair, [parse("0", names), pair.gbar.entry(1, 1)])
    rng = np.random.default_rng(3)
    for x, xi in zip(*sample_phase_points(pair, 3, rng)):
        traj = integrate_geodesic(pair.g, x, xi, 5.0, GeodesicOptions(tol=1e-10))
        assert conservation_drift(F.value_batch(traj.xs, traj.xis)) <= 1e-6


def test_transfer_checks_covector_length():
    pair = resolve_pair("lc-demo:m2n2")
    with pytest.raises(ValueError):
        transfer_killing(pair, [parse("0", pair.chart.names)])


# ---------------------------------------------------------------------------
# involution and independence from the family differentials


def family_at(pair, phase):
    """(xs, xis, integrals_jacobian) at the phase points (xs, xis)."""
    xs, xis = phase
    return xs, xis, integrals_jacobian(pair, xs, xis)


def test_involution_diagonal_is_exactly_zero():
    pair = resolve_pair("lc-demo:m2n2")
    rng = np.random.default_rng(10)
    xs, xis, jac = family_at(pair, sample_phase_points(pair, 10, rng))
    mat = involution_matrix(jac, pair.g, xs, xis)
    assert np.array_equal(np.diag(mat), np.zeros(pair.dim))


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4", "falsify:perturbed-lc"])
def test_family_pass_equals_single_integral_passes(name):
    """One pass over all k gives every I_k and its differential bit for bit
    as the single-integral pass of integral_phase_function does."""
    pair = resolve_pair(name)
    xs, xis, jac = family_at(pair, sample_phase_points(pair, 12, np.random.default_rng(3)))
    vals = integrals_at(pair, xs, xis)
    for k in range(pair.dim):
        F = integral_phase_function(pair, k)
        assert vals[:, k].tobytes() == F.value_batch(xs, xis).tobytes()
        assert jac[:, k].tobytes() == F.grad_batch(xs, xis).tobytes()


def test_rank_matches_per_point_svd():
    pair = resolve_pair("lc-demo:m2n3")
    _, _, jac = family_at(pair, sample_phase_points(pair, 8, np.random.default_rng(5)))
    jac = np.concatenate([jac, np.zeros_like(jac[:1])])  # a point with no differential
    for tol in (1e-8, 1e-3, 0.3):
        want = 0
        for J in jac:
            sv = np.linalg.svd(J, compute_uv=False)
            if sv[0] > 0:
                want = max(want, int(np.sum(sv > tol * sv[0])))
        assert independence_rank(jac, tol) == want
    assert independence_rank(np.zeros((3, 2, 4))) == 0


def test_rank_one_for_proportional_metrics():
    pair = constant_pair([1, 2, 1], [1, 2, 1])
    rng = np.random.default_rng(11)
    pts = sample_phase_points(pair, 10, rng)
    assert independence_rank(family_at(pair, pts)[2]) == 1


def test_rank_two_for_ellipsoid():
    pair = resolve_pair("ellipsoid:1,2,3")
    rng = np.random.default_rng(12)
    pts = sample_phase_points(pair, 10, rng)
    assert independence_rank(family_at(pair, pts)[2]) == 2


def test_pair_requires_shared_chart():
    a = constant_pair([1, 1], [1, 1])
    b = constant_pair([1, 1], [1, 1])
    chart2 = Chart(("u", "v"), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
    g2 = MetricField.from_diagonal(chart2, [parse("1", ("u", "v"))] * 2)
    with pytest.raises(ValueError):
        MetricPair(a.g, g2)
