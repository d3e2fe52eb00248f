"""The symplectic-form route to the integrals: Pfaffians, the canonical and
pulled-back forms, the quotient polynomial and its closed-form dictionary.

Determinants computed by numpy serve as the independent oracle for the
Pfaffian and for the rank-one reduction; finite differences of the tautological
one-form serve as the oracle for the form matrices.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv.cli import sample_phase_points
from geodequiv.dsl import parse
from geodequiv.factory import (
    FormMatrix,
    PolyCoeffs,
    a_scalar,
    coeffs_from_closed_form,
    delta_poly,
    factory_integrals,
    horner_divide,
    omega_g_at,
    pfaffian,
    pullback_phi_omega,
    rank_one_data,
    rank_one_delta,
)
from geodequiv.geometry import Chart, MetricField
from geodequiv.integrals import MetricPair
from geodequiv import resolve_pair


def constant_pair(g_diag, gbar_diag):
    n = len(g_diag)
    chart = Chart(tuple(f"x{i+1}" for i in range(n)), sample_box=tuple((-1.0, 1.0) for _ in range(n)))
    g = MetricField.from_diagonal(chart, [parse(str(v), chart.names) for v in g_diag])
    gbar = MetricField.from_diagonal(chart, [parse(str(v), chart.names) for v in gbar_diag])
    return MetricPair(g, gbar)


def random_skew(rng, n):
    A = rng.normal(size=(n, n))
    return A - A.T


# ---------------------------------------------------------------------------
# pfaffian


def test_pfaffian_2x2():
    for a in (1.0, -3.5, 0.25):
        assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == a


def test_pfaffian_canonical_form_is_plus_one():
    for n in (1, 2, 3, 4):
        J = np.zeros((2 * n, 2 * n))
        for k in range(n):
            J[2 * k, 2 * k + 1] = 1.0
            J[2 * k + 1, 2 * k] = -1.0
        assert pfaffian(J) == 1.0


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(51)
    for n in (2, 4, 6, 8, 10):
        for _ in range(20):
            A = random_skew(rng, n)
            pf = pfaffian(A)
            det = np.linalg.det(A)
            assert pf * pf == pytest.approx(det, rel=1e-10, abs=1e-10 * (1 + abs(det)))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_pfaffian_row_swap_changes_sign(n, seed):
    rng = np.random.default_rng(seed)
    A = random_skew(rng, 2 * n)
    pf = pfaffian(A)
    if 2 * n >= 2:
        B = A.copy()
        B[[0, 1]] = B[[1, 0]]
        B[:, [0, 1]] = B[:, [1, 0]]
        assert pfaffian(B) == pytest.approx(-pf, rel=1e-10, abs=1e-12)


def test_pfaffian_rejects_odd_and_nonskew():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian(np.eye(2))


def test_pfaffian_of_singular_matrix_is_zero():
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = 1.0, -1.0  # rank 2 only
    assert pfaffian(A) == 0.0


def test_pfaffian_of_stack_equals_each_matrix():
    """A (2, 3, 6, 6) stack: every member needs a pivot swap at the first
    step, and one is singular only after it; each value is bitwise the 2-D
    call's, and only the singular member gives 0."""
    rng = np.random.default_rng(53)
    stack = np.array([random_skew(rng, 6) for _ in range(6)])
    stack[:, 1, 0] = stack[:, 0, 1] = 0.0  # no first pivot in row 1
    singular = np.zeros((6, 6))
    keep = [0, 2, 4, 5]  # rank 4: rows 1 and 3 vanish
    singular[np.ix_(keep, keep)] = random_skew(rng, 4)
    stack[4] = singular
    stack = stack.reshape(2, 3, 6, 6)
    got = pfaffian(stack)
    assert got.shape == (2, 3)
    want = np.array([[pfaffian(m) for m in row] for row in stack])
    assert got.tobytes() == want.tobytes()
    assert [v == 0.0 for v in got.ravel()] == [False] * 4 + [True, False]


def test_pfaffian_stack_with_one_nonskew_member_raises():
    rng = np.random.default_rng(59)
    stack = np.array([random_skew(rng, 4) for _ in range(3)])
    bad = stack.copy()
    bad[1, 0, 0] = 1e-3
    with pytest.raises(ValueError):
        pfaffian(bad)
    # the tolerance scales with each matrix's own entries, not the stack's
    bad = stack.copy()
    bad[0] *= 1e6
    bad[2, 0, 0] = 1e-5
    with pytest.raises(ValueError):
        pfaffian(bad)
    # as in np.allclose, an infinite entry matches its negated mirror
    infinite = stack.copy()
    infinite[1, 0, 1], infinite[1, 1, 0] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        pfaffian(infinite)


# ---------------------------------------------------------------------------
# form matrices


def test_canonical_form_flat_metric():
    pair = constant_pair([1, 1], [1, 1])
    form = omega_g_at(pair.g, [0.0, 0.0], [0.4, 0.8]).matrix
    n = 2
    want = np.zeros((4, 4))
    want[:n, n:] = np.eye(n)
    want[n:, :n] = -np.eye(n)
    assert np.array_equal(form, want)


def test_canonical_form_constant_diagonal_metric():
    pair = constant_pair([2, 1], [2, 1])
    form = omega_g_at(pair.g, [0.3, -0.1], [1.0, 0.5]).matrix
    assert np.allclose(form[:2, 2:], np.diag([2.0, 1.0]), atol=1e-15)
    assert np.array_equal(form[:2, :2], np.zeros((2, 2)))


def test_canonical_form_matches_finite_difference_exterior_derivative():
    chart = Chart(("x1", "x2"), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
    g = MetricField.from_strings(
        chart, [["1 + 0.4*x2^2", "0.2*x1*x2"], ["0.2*x1*x2", "2 + 0.3*sin(x1)"]]
    )
    x, xi = np.array([0.3, -0.4]), np.array([0.8, 0.6])
    form = omega_g_at(g, x, xi).matrix
    h = 1e-6

    def theta(x):
        return g.values(x) @ xi

    n = 2
    dth = np.zeros((n, n))  # dth[k, i] = d theta_i / d x_k
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dth[k] = (theta(x + e) - theta(x - e)) / (2 * h)
    for k in range(n):
        for i in range(n):
            want = dth[i, k] - dth[k, i]  # coefficient of dx^k wedge dx^i
            assert form[k, i] == pytest.approx(want, abs=1e-6)
    assert np.allclose(form[:n, n:], g.values(x), atol=1e-12)


def test_pullback_equals_canonical_for_equal_metrics():
    pair = resolve_pair("sphere")
    x, xi = np.array([1.2, 0.5]), np.array([0.3, 0.7])
    assert np.array_equal(
        pullback_phi_omega(pair, x, xi).matrix, omega_g_at(pair.g, x, xi).matrix
    )


def test_pullback_mixed_block_matches_principal_axes_formula():
    """At g = identity, gbar = diag(rho), the mixed block of the pulled-back
    form must coincide with the explicit diagonal-plus-rank-one expression
    used by the reduced determinant route."""
    rng = np.random.default_rng(61)
    for _ in range(5):
        rho = rng.uniform(0.5, 3.0, size=3)
        xi = rng.normal(size=3)
        pair = constant_pair([1, 1, 1], list(rho))
        x = np.zeros(3)
        mixed = pullback_phi_omega(pair, x, xi).matrix[:3, 3:]
        d = rank_one_data(rho, xi)
        want = np.diag(-np.array(d.mu)) + np.outer(d.A, d.B)
        assert np.allclose(mixed, want, rtol=1e-12, atol=1e-12)


def test_form_matrix_is_skew_by_construction():
    upper = np.arange(16.0).reshape(4, 4)
    M = FormMatrix(upper).matrix
    assert np.array_equal(M, -M.T)


# ---------------------------------------------------------------------------
# scale factor


def test_a_scalar_trivial_values():
    pair = constant_pair([1, 1], [1, 1])
    x, xi = np.array([0.0, 0.0]), np.array([0.6, -0.2])
    assert a_scalar(pair, x, xi) == 1.0
    pair4 = constant_pair([1, 1], [4, 4])
    assert a_scalar(pair4, x, xi) == pytest.approx(2.0, rel=1e-15)


def test_a_scalar_matches_norm_ratio_on_curved_pair():
    pair = resolve_pair("ellipsoid:1,2,3")
    rng = np.random.default_rng(3)
    for x, xi in zip(*sample_phase_points(pair, 5, rng)):
        want = pair.gbar.norm(x, xi) / pair.g.norm(x, xi)
        assert a_scalar(pair, x, xi) == pytest.approx(want, rel=1e-14)


def test_a_scalar_rejects_zero_vector():
    pair = constant_pair([1, 1], [1, 1])
    with pytest.raises(ValueError):
        a_scalar(pair, [0.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# polynomial division


def test_horner_divide_exact_root():
    q, rem = horner_divide(PolyCoeffs((1.0, 3.0, 2.0)), -1.0)
    assert tuple(q.coeffs) == (1.0, 2.0)
    assert rem == 0.0


def test_horner_divide_with_remainder():
    q, rem = horner_divide(PolyCoeffs((1.0, 0.0, 1.0)), 0.0)
    assert tuple(q.coeffs) == (1.0, 0.0)
    assert rem == 1.0


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
def test_horner_reconstructs_polynomial(coeffs, root, t):
    if abs(coeffs[0]) < 1e-3:
        coeffs[0] = 1.0
    poly = PolyCoeffs(tuple(coeffs))
    q, rem = horner_divide(poly, root)
    # p(t) = q(t) (t - root) + rem
    assert q(t) * (t - root) + rem == pytest.approx(poly(t), rel=1e-9, abs=1e-9)


def test_poly_coeffs_ascending_view():
    p = PolyCoeffs((2.0, -1.0, 3.0))
    assert tuple(p.ascending()) == (3.0, -1.0, 2.0)
    assert p.degree == 2
    assert p(1.0) == 4.0


# ---------------------------------------------------------------------------
# the quotient polynomial


def test_delta_poly_identity_pair_is_shifted_binomial():
    """Equal metrics make the diffeomorphism the identity, so the ratio
    polynomial is (t - 1)^n.  The Pfaffian/Vandermonde route reproduces the
    binomial coefficients to rounding, not exactly."""
    for diag in ([1, 1], [2, 1], [1, 2, 3]):
        pair = constant_pair(diag, diag)
        n = len(diag)
        x, xi = np.zeros(n), np.linspace(0.7, 1.3, n)
        got = np.array(delta_poly(pair, x, xi).coeffs)
        from math import comb

        want = np.array([(-1.0) ** k * comb(n, k) for k in range(n + 1)], dtype=float)
        assert np.allclose(got, want, atol=5e-13)


def test_delta_poly_squares_to_determinant_ratio():
    pair = resolve_pair("ellipsoid:1,2,3")
    rng = np.random.default_rng(71)
    x, xi = (v[0] for v in sample_phase_points(pair, 1, rng))
    delta = delta_poly(pair, x, xi)
    omega = omega_g_at(pair.g, x, xi).matrix
    pulled = pullback_phi_omega(pair, x, xi).matrix
    det_omega = np.linalg.det(omega)
    for t in rng.uniform(-2.0, 2.0, size=10):
        lhs = delta(t) ** 2
        rhs = np.linalg.det(pulled - t * omega) / det_omega
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_delta_poly_matches_rank_one_route_at_principal_axes():
    rng = np.random.default_rng(73)
    for n in (2, 3, 4):
        rho = rng.uniform(0.5, 2.5, size=n)
        xi = rng.normal(size=n)
        pair = constant_pair([1] * n, list(rho))
        x = np.zeros(n)
        delta = delta_poly(pair, x, xi)
        for t in rng.uniform(-2.0, 2.0, size=6):
            assert delta(t) == pytest.approx(rank_one_delta(rank_one_data(rho, xi), t),
                                             rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# rank-one reduced determinant


def test_rank_one_base_case():
    from geodequiv.factory import RankOneData

    d = RankOneData((0.5,), (2.0,), (3.0,))
    assert rank_one_delta(d, 1.0) == pytest.approx((1.0 + 0.5) - 6.0)


def test_rank_one_no_correction():
    from geodequiv.factory import RankOneData

    mu = (0.2, -0.4, 1.0)
    d = RankOneData(mu, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    for t in (0.0, 0.7, -1.3):
        assert rank_one_delta(d, t) == pytest.approx(np.prod([t + m for m in mu]), rel=1e-14)


def test_rank_one_matches_full_determinant():
    rng = np.random.default_rng(79)
    from geodequiv.factory import RankOneData

    for _ in range(50):
        n = int(rng.integers(1, 7))
        mu = rng.normal(size=n)
        A = rng.normal(size=n)
        B = rng.normal(size=n)
        d = RankOneData(tuple(mu), tuple(A), tuple(B))
        for t in rng.normal(size=4):
            want = np.linalg.det(np.diag(t + mu) - np.outer(A, B))
            assert rank_one_delta(d, t) == pytest.approx(want, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# the assembled factory


def test_remainder_small_on_equivalent_pair():
    pair = resolve_pair("lc-demo:m2n2")
    rng = np.random.default_rng(83)
    for x, xi in zip(*sample_phase_points(pair, 10, rng)):
        fi = factory_integrals(pair, x, xi)
        scale = np.linalg.norm(fi.delta.coeffs)
        assert abs(fi.remainder) <= 1e-8 * scale
        assert fi.coeffs.degree == pair.dim - 1
        assert fi.delta.degree == pair.dim


def test_quotient_matches_closed_form_dictionary():
    for name in ("ellipsoid:1,2,3", "lc-demo:m2n3", "lc-demo:m3n4"):
        pair = resolve_pair(name)
        rng = np.random.default_rng(89)
        for x, xi in zip(*sample_phase_points(pair, 5, rng)):
            fi = factory_integrals(pair, x, xi)
            closed = coeffs_from_closed_form(pair, x, xi)
            assert np.allclose(np.array(fi.coeffs.coeffs), closed, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4", "falsify:perturbed-lc"])
def test_batched_factory_equals_single_points(name):
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, 12, np.random.default_rng(101))
    pts = list(zip(xs, xis))
    fi = factory_integrals(pair, xs, xis)
    closed = coeffs_from_closed_form(pair, xs, xis)
    singles = [factory_integrals(pair, x, xi) for x, xi in pts]
    for got, field in ((fi.coeffs.coeffs, lambda f: f.coeffs.coeffs),
                       (fi.delta.coeffs, lambda f: f.delta.coeffs),
                       (fi.remainder, lambda f: f.remainder), (fi.a, lambda f: f.a)):
        assert got.tobytes() == np.array([field(f) for f in singles]).tobytes()
    want = np.array([coeffs_from_closed_form(pair, x, xi) for x, xi in pts])
    assert closed.tobytes() == want.tobytes()
    # further leading axes are batch axes too
    grid = factory_integrals(pair, xs.reshape(3, 4, -1), xis.reshape(3, 4, -1))
    assert grid.coeffs.coeffs.tobytes() == fi.coeffs.coeffs.tobytes()
    assert coeffs_from_closed_form(pair, xs.reshape(3, 4, -1), xis.reshape(3, 4, -1)).shape == (
        3, 4, pair.dim)


def test_constant_coefficient_closed_form_at_principal_axes():
    """b_0 = (-1)^(n+1) (|xi|_g / |xi|_gbar)^(n+1) prod(rho) at points where
    g is the identity and gbar is diagonal."""
    rng = np.random.default_rng(97)
    for n in (2, 3):
        rho = rng.uniform(0.5, 2.0, size=n)
        xi = rng.normal(size=n)
        pair = constant_pair([1] * n, list(rho))
        x = np.zeros(n)
        fi = factory_integrals(pair, x, xi)
        ratio = 1.0 / a_scalar(pair, x, xi)
        want = (-1.0) ** (n + 1) * ratio ** (n + 1) * np.prod(rho)
        assert fi.coeffs.ascending()[0] == pytest.approx(want, rel=1e-9)
