"""Charts, metric fields, connection coefficients, geodesics and curve
comparison.  Connection coefficients are checked against a finite-difference
route through the metric entries, and the integrator against closed-form
geodesics (straight lines, great circles)."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv import resolve_pair
from geodequiv.cli import sample_phase_points
from geodequiv.dsl import parse
from geodequiv.geometry import (
    Chart,
    ChartDomainError,
    EnergyDriftError,
    GeodesicOptions,
    MetricField,
    Trajectory,
    _squared_speeds,
    arc_length,
    arc_steps,
    arclength_reparam,
    check_phase_points,
    christoffel,
    curve_distance,
    geodesic_coincidence,
    geodesic_rhs,
    integrate_geodesic,
    symmetric_curve_distance,
    trajectory_to_csv,
    trajectory_to_json,
)
from geodequiv.matops import NotPositiveDefiniteError


def euclidean_chart(n=2):
    return Chart(tuple(f"x{i+1}" for i in range(n)), sample_box=tuple((-1.0, 1.0) for _ in range(n)))


def metric_from(chart, grid):
    return MetricField.from_strings(chart, grid)


def euclid_metric(n=2):
    chart = euclidean_chart(n)
    return MetricField.from_diagonal(chart, [parse("1", chart.names) for _ in range(n)])


def sphere_metric():
    chart = Chart(
        ("th", "ph"),
        sample_box=((0.4, np.pi - 0.4), (-2.0, 2.0)),
        domain=(parse("th - 0.05", ("th", "ph")), parse("3.091 - th", ("th", "ph"))),
    )
    return MetricField.from_strings(chart, [["1", "0"], ["0", "sin(th)^2"]])


# ---------------------------------------------------------------------------
# charts


def test_chart_dim_and_contains():
    chart = Chart(("u", "v"), domain=(parse("1 - u^2 - v^2", ("u", "v")),),
                  sample_box=((-0.7, 0.7), (-0.7, 0.7)))
    assert chart.dim == 2
    assert chart.contains([0.0, 0.0])
    assert not chart.contains([1.1, 0.0])


def test_chart_corner_exit_uses_every_wall_factor():
    """A product-form domain turns positive again outside a corner; the
    per-factor margin must stay negative there."""
    names = ("u", "v")
    chart = Chart(
        names,
        sample_box=((0.1, 1.0), (0.1, 1.0)),
        domain=(parse("u", names), parse("v", names)),
    )
    inside = [0.5, 0.5]
    corner_outside = [-0.5, -0.5]  # u*v > 0 but both walls are crossed
    assert chart.domain_margin(inside) == pytest.approx(0.5)
    assert chart.contains(inside)
    assert chart.domain_margin(corner_outside) < 0
    assert not chart.contains(corner_outside)


def test_chart_rejects_factor_with_foreign_variable():
    with pytest.raises(ValueError):
        Chart(("u",), sample_box=((0.0, 1.0),),
              domain=(parse("v", ("v",)),))


def test_chart_rejects_bare_domain_expression():
    with pytest.raises(ValueError, match="tuple of factor expressions"):
        Chart(("u", "v"), domain=parse("1 - u^2 - v^2", ("u", "v")))


def test_box_points_respect_domain():
    chart = Chart(("u", "v"), domain=(parse("1 - u^2 - v^2", ("u", "v")),),
                  sample_box=((-0.99, 0.99), (-0.99, 0.99)))
    pts = chart.box_points(50, np.random.default_rng(0))
    assert pts.shape == (50, 2)
    assert all(chart.contains(p) for p in pts)
    outside = Chart(("u",), domain=(parse("u - 2", ("u",)),), sample_box=((-1.0, 1.0),))
    with pytest.raises(ChartDomainError, match="rejection sampling"):
        outside.box_points(3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# metric fields


def test_constant_identity_metric():
    g = euclid_metric(2)
    vals, grads = g.values_and_grads([0.3, -0.4])
    assert np.array_equal(vals, np.eye(2))
    assert np.array_equal(grads, np.zeros((2, 2, 2)))


def test_exponential_entry_gradient_at_origin():
    chart = euclidean_chart(2)
    g = metric_from(chart, [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
    vals, grads = g.values_and_grads([0.0, 0.0])
    assert np.allclose(vals, np.eye(2))
    assert np.allclose(grads[0, 0], [2.0, 0.0])


@pytest.mark.parametrize("metric", [sphere_metric, lambda: euclid_metric(2)])
def test_values_of_a_stack_are_the_values_at_each_point(metric):
    """One point gives (n, n), a stack (N, n, n), also when every entry is
    constant; both triangles hold the same values."""
    g = metric()
    xs = np.array([[1.0, 0.5], [2.0, -0.3], [0.7, 1.9]])
    stacked = g.values(xs)
    assert stacked.shape == (3, 2, 2)
    assert np.array_equal(stacked, np.stack([g.values(x) for x in xs]))
    assert np.array_equal(stacked, stacked.swapaxes(1, 2))


def test_negative_entry_fails_definiteness_check():
    chart = euclidean_chart(2)
    g = metric_from(chart, [["1", "0"], ["0", "-1"]])
    with pytest.raises(NotPositiveDefiniteError):
        g.check_positive_definite()


def test_norm_is_sqrt_of_quadratic_form():
    chart = euclidean_chart(2)
    g = metric_from(chart, [["2", "0"], ["0", "1"]])
    assert g.norm([0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(3.0))
    xis = np.arange(12.0).reshape(2, 3, 2)
    assert g.norm(np.zeros((2, 3, 2)), xis).tolist() == [
        [g.norm([0.0, 0.0], xi) for xi in row] for row in xis]


# ---------------------------------------------------------------------------
# connection coefficients


def test_christoffel_vanishes_for_constant_metric():
    gamma = christoffel(euclid_metric(3), [0.1, 0.2, 0.3])
    assert np.array_equal(gamma, np.zeros((3, 3, 3)))


def test_christoffel_polar_like_metric():
    chart = euclidean_chart(2)
    g = metric_from(chart, [["1", "0"], ["0", "x1^2"]])
    gamma = christoffel(g, [2.0, 0.7])
    assert gamma[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, rel=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(0.5, rel=1e-12)


def test_christoffel_round_sphere_at_quarter_turn():
    g = sphere_metric()
    gamma = christoffel(g, [np.pi / 4, 0.3])
    assert gamma[0, 1, 1] == pytest.approx(-0.5, rel=1e-12)  # -sin(th)cos(th)
    assert gamma[1, 0, 1] == pytest.approx(1.0, rel=1e-12)  # cot(th)


def test_christoffel_matches_finite_difference_route():
    """Independent route: difference the metric values themselves and apply
    the formula Gamma^k_{ij} = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""
    chart = euclidean_chart(2)
    g = metric_from(chart, [["1 + 0.3*sin(x1)*x2^2", "0.2*x1*x2"], ["0.2*x1*x2", "2 + x1^2"]])
    x = np.array([0.4, -0.3])
    h = 1e-6
    n = 2
    dg = np.zeros((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dg[:, :, k] = (g.values(x + e) - g.values(x - e)) / (2 * h)
    ginv = np.linalg.inv(g.values(x))
    want = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                want[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l]) for l in range(n)
                )
    assert np.allclose(christoffel(g, x), want, rtol=1e-6, atol=1e-7)


def test_geodesic_rhs_shapes():
    g = sphere_metric()
    x, xi = np.array([1.0, 0.5]), np.array([0.2, 0.3])
    dy = geodesic_rhs(0.0, np.concatenate([x, xi]), g)
    assert dy.shape == (4,)
    assert np.array_equal(dy[:2], xi)
    assert np.array_equal(dy[2:], -np.einsum("kij,i,j->k", christoffel(g, x), xi, xi))
    # a stack of states gives each state's row, bit for bit
    states = np.random.default_rng(2).uniform(0.3, 1.2, (6, 4))
    stacked = geodesic_rhs(np.zeros(6), states, g)
    assert stacked.shape == (6, 4)
    assert stacked.tobytes() == np.array([geodesic_rhs(0.0, y, g) for y in states]).tobytes()


# ---------------------------------------------------------------------------
# geodesic integration


def test_straight_line_in_flat_metric():
    traj = integrate_geodesic(euclid_metric(2), [0.0, 0.0], [1.0, 0.0], 1.0)
    assert np.allclose(traj.xs[-1], [1.0, 0.0], atol=1e-12)
    assert np.allclose(traj.xis[-1], [1.0, 0.0], atol=1e-12)
    assert not traj.left_domain


def test_equator_closes_after_full_turn():
    g = sphere_metric()
    traj = integrate_geodesic(g, [np.pi / 2, 0.0], [0.0, 1.0], 2 * np.pi,
                              GeodesicOptions(samples=501))
    end = traj.xs[-1]
    assert abs(end[0] - np.pi / 2) < 1e-6
    assert abs(end[1] - 2 * np.pi) < 1e-6


def test_energy_drift_reported_within_default_tolerance():
    g = sphere_metric()
    traj = integrate_geodesic(g, [1.1, 0.0], [0.3, 0.9], 4.0)
    assert traj.energy_drift <= 1e-8
    E = _squared_speeds(traj, traj.metric)
    assert np.max(np.abs(E - E[0])) / abs(E[0]) == pytest.approx(traj.energy_drift)


def test_domain_exit_truncates_and_flags():
    names = ("u", "v")
    chart = Chart(names, domain=(parse("1 - u", names),), sample_box=((-0.5, 0.5), (-0.5, 0.5)))
    g = MetricField.from_diagonal(chart, [parse("1", names), parse("1", names)])
    traj = integrate_geodesic(g, [0.0, 0.0], [1.0, 0.0], 5.0)
    assert traj.left_domain
    assert traj.ts[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.xs[-1][0] == pytest.approx(1.0, abs=1e-9)
    # resampling still fills the requested sample count over the covered span
    assert len(traj) == GeodesicOptions().samples


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4", "falsify:random-conformal"])
def test_a_stack_of_starts_integrates_as_a_loop_over_them(name):
    """Trajectory by trajectory, bit for bit; the ellipsoid's leave the chart."""
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, 5, np.random.default_rng(11))
    opts = GeodesicOptions(energy_tol=1e-7)
    stacked = integrate_geodesic(pair.gbar, xs, xis, 5.0, opts)
    looped = [integrate_geodesic(pair.gbar, x, xi, 5.0, opts) for x, xi in zip(xs, xis)]
    assert len(stacked) == len(looped) == 5
    for a, b in zip(stacked, looped):
        for field in ("ts", "xs", "xis"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.left_domain, a.energy_drift) == (b.left_domain, b.energy_drift)
    assert any(t.left_domain for t in stacked) == name.startswith("ellipsoid")
    one = integrate_geodesic(pair.gbar, xs[:1], xis[:1], 5.0, opts)
    assert len(one) == 1 and one[0].xs.tobytes() == looped[0].xs.tobytes()


def test_a_stack_raises_the_drift_error_of_a_loop_over_its_starts():
    """With energy_tol at the first start's drift, which is the least, a
    later start fails first, in the stack as in the loop."""
    pair = resolve_pair("lc-demo:m2n2")
    xs, xis = sample_phase_points(pair, 6, np.random.default_rng(4))
    drifts = [t.energy_drift for t in integrate_geodesic(pair.g, xs, xis, 5.0)]
    order = np.argsort(drifts)
    xs, xis = xs[order], xis[order]
    assert drifts[order[0]] < drifts[order[-1]]
    opts = GeodesicOptions(energy_tol=drifts[order[0]])
    with pytest.raises(EnergyDriftError) as looped:
        for x, xi in zip(xs, xis):
            integrate_geodesic(pair.g, x, xi, 5.0, opts)
    with pytest.raises(EnergyDriftError) as stacked:
        integrate_geodesic(pair.g, xs, xis, 5.0, opts)
    assert str(stacked.value) == str(looped.value)
    assert stacked.value.drift > opts.energy_tol


def test_start_outside_domain_raises():
    names = ("u",)
    chart = Chart(names, domain=(parse("u", names),), sample_box=((0.1, 1.0),))
    g = MetricField.from_diagonal(chart, [parse("1", names)])
    with pytest.raises(ChartDomainError):
        integrate_geodesic(g, [-0.5], [1.0], 1.0)


@pytest.mark.parametrize("factors", [True, False])
def test_trajectory_names_first_sample_outside_domain(factors):
    names = ("u", "v")
    if factors:  # the corner sample (-0.5, -0.5) has u*v > 0 but crosses both walls
        chart = Chart(names, domain=(parse("u", names), parse("v", names)))
        bad = [-0.5, -0.5]
    else:
        chart = Chart(names, domain=(parse("1 - u^2 - v^2", names),))
        bad = [1.5, 0.0]
    g = MetricField.from_diagonal(chart, [parse("1", names), parse("1", names)])
    xis = np.ones((4, 2))
    samples = [[0.5, 0.5], [-5e-10, 0.5], bad, [2.0, 2.0]]  # 1e-9 slack admits the second
    Trajectory(g, np.arange(2.0), samples[:2], xis[:2])
    with pytest.raises(ChartDomainError, match=re.escape(str(bad))):
        Trajectory(g, np.arange(4.0), samples, xis)


def test_phase_checks_name_the_same_fault_for_a_batch_and_a_point():
    """The sampler's batch check and the entry checks of the integrator and
    the coincidence measure refuse the same faults with the same messages."""
    g = euclid_metric(2)
    xs, xis = np.zeros((3, 2)), np.ones((3, 2))
    check_phase_points(xs, xis)
    cases = [(xs.copy(), xis[:, :1].copy(), "vectors of equal length")]
    for x1, xi1, message in ((np.nan, 1.0, "must be finite"), (0.0, -np.inf, "must be finite"),
                             (0.0, 0.0, "zero tangent")):
        bad_xs, bad_xis = xs.copy(), xis.copy()
        bad_xs[1], bad_xis[1] = x1, xi1
        cases.append((bad_xs, bad_xis, message))
    for bad_xs, bad_xis, message in cases:
        with pytest.raises(ValueError, match=message):
            check_phase_points(bad_xs, bad_xis)
        with pytest.raises(ValueError, match=message):
            integrate_geodesic(g, bad_xs[1], bad_xis[1], 1.0)
        with pytest.raises(ValueError, match=message):
            geodesic_coincidence(g, g, bad_xs[1], bad_xis[1])
        with pytest.raises(ValueError, match=message):
            geodesic_coincidence(g, g, bad_xs, bad_xis)


def test_the_coincidence_search_refuses_a_single_start():
    """The search takes (K, n) stacks only; one start is a stack of one."""
    g = euclid_metric(2)
    x, xi = np.array([0.0, 0.0]), np.array([1.0, 0.5])
    with pytest.raises(ValueError, match=re.escape("(K, n) stacks")):
        geodesic_coincidence(g, g, x, xi)
    assert geodesic_coincidence(g, g, x[None], xi[None])[0].shape == (1,)


def test_trajectory_requires_increasing_times():
    g = euclid_metric(1)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.0], [[0.0], [0.1]], [[1.0], [1.0]])


# ---------------------------------------------------------------------------
# arc length and reparametrisation


def test_reparam_straight_line_is_uniform():
    traj = integrate_geodesic(euclid_metric(2), [0.0, 0.0], [2.0, 0.0], 1.0)
    pts = arclength_reparam(traj, arc_steps(traj, traj.metric), count=11)
    assert np.allclose(pts[:, 1], 0.0, atol=1e-12)
    assert np.allclose(np.diff(pts[:, 0]), 0.2, atol=1e-9)


def test_reparam_is_speed_invariant():
    g = sphere_metric()
    x, xi = np.array([1.2, 0.1]), np.array([0.4, 0.7])
    t1 = integrate_geodesic(g, x, xi, 2.0, GeodesicOptions(samples=801))
    t2 = integrate_geodesic(g, x, 2.0 * xi, 1.0, GeodesicOptions(samples=801))
    c1 = arclength_reparam(t1, arc_steps(t1, g), count=64)
    c2 = arclength_reparam(t2, arc_steps(t2, g), count=64)
    assert np.max(np.abs(c1 - c2)) < 1e-9


def test_reparam_equator_gives_equal_central_angles():
    g = sphere_metric()
    traj = integrate_geodesic(g, [np.pi / 2, 0.0], [0.0, 1.0], 3.0)
    pts = arclength_reparam(traj, arc_steps(traj, g), count=31)
    # on the equator the g-arc length equals the longitude angle
    assert np.allclose(np.diff(pts[:, 1]), 0.1, atol=1e-8)


def test_arc_length_of_unit_speed_geodesic():
    g = sphere_metric()
    traj = integrate_geodesic(g, [np.pi / 2, 0.0], [0.0, 1.0], 3.0)
    assert arc_length(traj, g) == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("name", ["falsify:random-conformal", "ellipsoid:1,2,3"])
def test_coincidence_measures_each_trajectory_once(name, monkeypatch):
    """Outside the integrator's energy self-check, every curve the search
    integrates is measured once, under g: its arc-length pieces serve the
    retry loop, the comparison window, the returned length and the
    reparametrization.  The conformal control re-integrates gbar, the
    ellipsoid leaves its chart.  A stack measures each of its curves once too."""
    from geodequiv import geometry

    integrated, measured, inside = [], [], []

    def integrating(*args, _orig=geometry.integrate_geodesic):
        inside.append(True)
        try:
            out = _orig(*args)
        finally:
            inside.pop()
        integrated.extend(out if isinstance(out, list) else [out])
        return out

    def measuring(traj, metric, _orig=geometry._squared_speeds):
        if not inside:
            measured.append((traj, metric))  # held, so that no id is reused
        return _orig(traj, metric)

    pair = resolve_pair(name)
    xs = pair.g.chart.box_points(3, np.random.default_rng(5))
    xis = np.array([[0.6, 0.8], [0.8, -0.6], [-1.0, 0.2]])
    want = geometry.geodesic_coincidence(pair.g, pair.gbar, xs[:1], xis[:1])
    want_stack = geometry.geodesic_coincidence(pair.g, pair.gbar, xs, xis)
    monkeypatch.setattr(geometry, "integrate_geodesic", integrating)
    monkeypatch.setattr(geometry, "_squared_speeds", measuring)
    for x, xi, ref, least in ((xs[:1], xis[:1], want, 2), (xs, xis, want_stack, 6)):
        integrated.clear()
        measured.clear()
        got = geometry.geodesic_coincidence(pair.g, pair.gbar, x, xi)
        for i in (0, 3):
            assert got[i].tobytes() == ref[i].tobytes()
        assert all(metric is pair.g for _, metric in measured)
        assert sorted(id(t) for t, _ in measured) == sorted(map(id, integrated))
        assert len(measured) >= least


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "sphere", "falsify:random-conformal"])
def test_a_stacked_coincidence_search_is_the_loop_over_its_directions(name, monkeypatch):
    """Distance by distance, bit for bit.  The stack integrates g and gbar
    once each over all directions, then makes one call per retry pass over
    the gbar curves still short of length, each row at the span end its own
    loop would use: the ellipsoid's curves leave the chart, the sphere's and
    the conformal control's retry.  The loop runs stacks of one."""
    from geodequiv import geometry

    calls = []

    def recording(metric, x, xi, t_end, *args, _orig=geometry.integrate_geodesic):
        calls.append((np.shape(x), np.broadcast_to(t_end, np.shape(x)[:-1]).tolist()))
        return _orig(metric, x, xi, t_end, *args)

    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, 20, np.random.default_rng(0))
    monkeypatch.setattr(geometry, "integrate_geodesic", recording)
    looped, spans = [], []
    for x, xi in zip(xs, xis):
        calls.clear()
        looped.append(geodesic_coincidence(pair.g, pair.gbar, x[None], xi[None])[0][0])
        assert all(shape == (1, pair.dim) for shape, _ in calls)
        spans.append([t_end for _, (t_end,) in calls[2:]])  # each retry's gbar span end
    calls.clear()
    stacked = geodesic_coincidence(pair.g, pair.gbar, xs, xis)[0]
    assert stacked.shape == (20,) and stacked.tobytes() == np.array(looped).tobytes()
    assert [shape for shape, _ in calls[:2]] == [(20, pair.dim)] * 2
    passes = [t_ends for _, t_ends in calls[2:]]
    assert passes == [[s[p] for s in spans if len(s) > p] for p in range(len(passes))]
    assert all(len(a) >= len(b) for a, b in zip(passes, passes[1:]))
    assert len(passes) == max(map(len, spans)) and (len(passes) > 0) == (name != "ellipsoid:1,2,3")


def test_reparam_length_clip():
    traj = integrate_geodesic(euclid_metric(2), [0.0, 0.0], [1.0, 0.0], 4.0)
    pts = arclength_reparam(traj, arc_steps(traj, traj.metric), count=5, length=2.0)
    assert pts[-1][0] == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# curve distance


def test_identical_curves_have_zero_distance():
    c = np.column_stack([np.linspace(0, 1, 100), np.sin(np.linspace(0, 1, 100))])
    assert curve_distance(c, c) == 0.0
    assert symmetric_curve_distance(c, c) == 0.0


def test_parallel_offset_segments():
    t = np.linspace(0, 1, 50)[:, None]
    c1 = np.hstack([t, np.zeros_like(t)])
    c2 = np.hstack([t, 0.1 + np.zeros_like(t)])
    assert curve_distance(c1, c2) == pytest.approx(0.1, rel=1e-12)
    assert symmetric_curve_distance(c1, c2) == pytest.approx(0.1, rel=1e-12)


def brute_curve_distance(c1, c2):
    """Reference: every point of c1 against every segment of c2, one point at
    a time; a single vertex is one zero-length segment."""
    if len(c2) == 1:
        c2 = np.vstack([c2, c2])
    a, d = c2[:-1], np.diff(c2, axis=0)
    dd = np.einsum("mj,mj->m", d, d)
    dd = np.where(dd == 0.0, 1.0, dd)
    worst = 0.0
    for p in c1:
        w = p - a
        t = np.clip(np.einsum("mj,mj->m", w, d) / dd, 0, 1)
        diff = w - t[:, None] * d
        worst = max(worst, np.min(np.einsum("mj,mj->m", diff, diff)))
    return float(np.sqrt(worst))


def test_distance_against_exhaustive_search():
    rng = np.random.default_rng(2)
    for _ in range(6):
        c1 = np.cumsum(rng.normal(size=(rng.integers(20, 200), 3)) * 0.2, axis=0)
        c2 = np.cumsum(rng.normal(size=(rng.integers(20, 200), 3)) * 0.2, axis=0)
        assert curve_distance(c1, c2) == brute_curve_distance(c1, c2)
        near = c1 + 1e-7 * rng.normal(size=c1.shape)
        assert curve_distance(c1, near) == brute_curve_distance(c1, near)


@st.composite
def curve_cases(draw, case):
    """(c1, c2) polylines in 1 to 4 dimensions shaped for one case."""
    n = draw(st.integers(1, 4))
    coord = st.floats(-10.0, 10.0, allow_nan=False)

    def polyline(min_size, max_size=30):
        rows = st.lists(st.lists(coord, min_size=n, max_size=n), min_size=min_size, max_size=max_size)
        return draw(rows.map(lambda v: np.array(v, dtype=float).reshape(-1, n)))

    c1 = polyline(1)
    if case == "single-vertex":
        return c1, polyline(1, 1)
    c2 = polyline(2)
    if case == "zero-length":
        repeats = draw(st.lists(st.integers(1, 3), min_size=len(c2), max_size=len(c2)))
        return c1, np.repeat(c2, repeats, axis=0)
    if case == "far-apart":
        return c1, c2 + draw(st.sampled_from([1e3, -1e4]))
    if case == "loose-bound":
        return loose_bound_curves(draw, max(n, 2))
    # c2 goes out and comes back along nearly the same path, and c1 runs c2
    # backwards: each point has two close legs, and its nearest segment is
    # often far in index from the aligned one
    back = c2[::-1] + draw(st.floats(-1e-3, 1e-3))
    c2 = np.vstack([c2, back])
    return c2[::-1] + draw(st.floats(-1e-2, 1e-2)), c2


def loose_bound_curves(draw, n):
    """c2 is one long segment along e1 and a dense path back under it, at
    depth `far` below its first half and `near` below its second half; c1
    runs beside the long segment, closer over the first half.  Each point's
    nearest vertex is on the dense path, so its two segments overestimate
    the distance, and most where the exact distance is smallest."""
    length = draw(st.floats(10.0, 20.0))
    far, near = draw(st.floats(0.7, 1.0)), draw(st.floats(0.1, 0.3))
    back = np.linspace(length, 0.0, draw(st.integers(100, 300)))
    path = np.column_stack([back, np.where(back < length / 2, -far, -near)])
    c2 = np.vstack([[0.0, 0.0], [length, 0.0], path])
    # (position along the segment as a fraction, offset from it)
    beside = st.tuples(st.floats(0.2, 0.4), st.floats(0.0, 0.1))
    farther = st.tuples(st.floats(0.6, 0.8), st.floats(0.15, 0.25))
    rows = draw(st.permutations(draw(st.lists(beside, min_size=1, max_size=10))
                                + draw(st.lists(farther, min_size=1, max_size=10))))
    c1 = np.array(rows) * [length, 1.0]
    pad = ((0, 0), (0, n - 2))
    return np.pad(c1, pad), np.pad(c2, pad)


@pytest.mark.parametrize("case", ["zero-length", "single-vertex", "far-apart", "doubles-back",
                                  "loose-bound"])
@given(data=st.data())
def test_distance_matches_brute_force(case, data):
    c1, c2 = data.draw(curve_cases(case))
    assert curve_distance(c1, c2) == brute_curve_distance(c1, c2)


def test_distance_when_every_point_ties_at_its_bound():
    """Parallel offset curves with vertices abreast: every point's bound is
    its exact distance, the same for all, and no point is left to measure
    after the first."""
    x = np.arange(50.0)
    for sign in (1.0, -1.0):
        c1 = np.column_stack([x, np.full_like(x, 0.5 * sign), x[::-1] / 8])
        c2 = np.column_stack([x, np.zeros_like(x), x[::-1] / 8])
        assert curve_distance(c1, c2) == 0.5 == brute_curve_distance(c1, c2)
        assert curve_distance(c1[::-1], c2) == 0.5


def test_distance_handles_single_point_reference():
    c1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    c2 = np.array([[0.0, 1.0]])
    assert curve_distance(c1, c2) == pytest.approx(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# export forms


def test_csv_export_shape():
    traj = integrate_geodesic(euclid_metric(2), [0.0, 0.0], [1.0, 0.5], 1.0,
                              GeodesicOptions(samples=5))
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 6
    row = [float(v) for v in lines[-1].split(",")]
    assert row[0] == pytest.approx(1.0)
    assert row[1] == pytest.approx(1.0)


EXPORT_FLOATS = st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, 1e300, -1e300, 0.1]) | st.floats(
    -1e300, 1e300)


@given(data=st.data())
def test_exports_write_the_repr_of_every_value(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(2, 6))
    ts = sorted(data.draw(st.lists(EXPORT_FLOATS, min_size=k, max_size=k, unique=True)))
    values = st.lists(st.lists(EXPORT_FLOATS, min_size=n, max_size=n), min_size=k, max_size=k)
    left = data.draw(st.booleans())
    traj = Trajectory(euclid_metric(n), ts, data.draw(values), data.draw(values), left_domain=left)
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"xi{i+1}" for i in range(n)]
    rows = [[repr(float(v)) for v in (traj.ts[j], *traj.xs[j], *traj.xis[j])] for j in range(k)]
    assert trajectory_to_csv(traj) == "".join(",".join(r) + "\n" for r in [cols] + rows)
    assert trajectory_to_json(traj) == (
        '{"columns": [' + ", ".join(f'"{c}"' for c in cols) + '], "rows": ['
        + ", ".join("[" + ", ".join(r) + "]" for r in rows) + '], "left_domain": '
        + ("true" if left else "false") + "}")


def test_json_export_fields():
    traj = integrate_geodesic(euclid_metric(2), [0.0, 0.0], [1.0, 0.5], 1.0,
                              GeodesicOptions(samples=5))
    doc = json.loads(trajectory_to_json(traj))
    assert set(doc) == {"columns", "rows", "left_domain"}
    assert doc["columns"] == ["t", "x1", "x2", "xi1", "xi2"]
    assert len(doc["rows"]) == 5
    assert doc["rows"][-1][0] == pytest.approx(1.0)
    assert doc["left_domain"] is False
