"""The in-tree RK45 integrator and Brent root finder against scipy, which is
their reference and is imported here only: results must agree bit for bit.
Also that verify and factory run with scipy absent."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from geodequiv import ode, resolve_pair
from geodequiv.cli import sample_phase_points
from geodequiv.geometry import geodesic_rhs

SRC = Path(__file__).resolve().parents[1] / "src"


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _scipy_chart_exit(t, y, metric):
    return metric.chart.domain_margin(y[:metric.dim])


_scipy_chart_exit.terminal = True
_scipy_chart_exit.direction = -1


def assert_matches_scipy(got, ref):
    assert (got.status, got.nfev) == (ref.status, ref.nfev)
    assert bitwise_equal(got.t, ref.t)
    ts = np.linspace(0.0, float(ref.t[-1]), 1001)
    assert bitwise_equal(got.sol(ts[::-1]), ref.sol(ts[::-1]))
    # each step end takes the earlier step's interpolant
    assert bitwise_equal(got.sol(ref.t), ref.sol(ref.t))
    if ref.status == 1:
        assert bitwise_equal(got.t[-1], ref.t_events[0][0])
        assert bitwise_equal(got.y_event, ref.y_events[0][0])
    else:
        assert got.y_event is None


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m2n2", "lc-demo:m3n4",
                                  "falsify:perturbed-lc", "falsify:random-conformal"])
def test_rk45_matches_scipy_bitwise(name):
    """A single start, a lockstep stack of four starts and a stack of one,
    row by row against scipy."""
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, 4, np.random.default_rng(3))
    y0s = np.concatenate([xs, xis], axis=1)
    exits = rejections = uneven = 0
    for tol in (1e-10, 1e-8):
        for metric in (pair.g, pair.gbar):
            chart, n = metric.chart, metric.dim
            event = None if chart.domain is None else lambda t, y: chart.domain_margin(y[..., :n])
            refs = [scipy_solve_ivp(
                geodesic_rhs, (0.0, 5.0), y0, method="RK45", rtol=tol, atol=tol,
                events=None if chart.domain is None else [_scipy_chart_exit],
                dense_output=True, args=(metric,)) for y0 in y0s]
            rhs = lambda t, y: geodesic_rhs(t, y, metric)
            stack = ode.solve_ivp_stack(rhs, (0.0, 5.0), y0s, tol, event)
            one = ode.solve_ivp_stack(rhs, (0.0, 5.0), y0s[1:2], tol, event)
            single = ode.solve_ivp(rhs, (0.0, 5.0), y0s[2], tol, event)
            for got, ref in zip(stack + one + [single], refs + refs[1:3]):
                assert_matches_scipy(got, ref)
            exits += sum(ref.status == 1 for ref in refs)
            # every attempted step costs six evaluations, the start two
            rejections += sum(ref.nfev > 2 + 6 * (len(ref.t) - 1) for ref in refs)
            # the stack's rows finish after different step counts
            uneven += len({len(ref.t) for ref in refs}) > 1
    # the cases cover rows leaving the stack at different passes, the
    # step-rejection loop (which the conformal control's smooth flow never
    # enters) and, on the ellipsoid, the chart-exit root
    assert uneven > 0
    assert (rejections > 0) == (name != "falsify:random-conformal")
    assert (exits > 0) == name.startswith("ellipsoid")


def test_each_row_of_a_stack_integrates_over_its_own_span():
    """Rows with distinct span ends, against scipy over each row's span: the
    longer spans end at the chart exit's root, the shorter at their bound.
    A scalar span end is every row's."""
    pair = resolve_pair("ellipsoid:1,2,3")
    metric, chart, n = pair.g, pair.g.chart, pair.dim
    xs, xis = sample_phase_points(pair, 4, np.random.default_rng(3))
    y0s = np.concatenate([xs, xis], axis=1)
    event = lambda t, y: chart.domain_margin(y[..., :n])
    rhs = lambda t, y: geodesic_rhs(t, y, metric)
    t_bounds = np.array([0.3, 5.0, 0.5, 0.9])  # the chart exits at 1.09, 0.62, 0.64, 0.55
    refs = [scipy_solve_ivp(geodesic_rhs, (0.0, t_bound), y0, method="RK45", rtol=1e-10,
                            atol=1e-10, events=[_scipy_chart_exit], dense_output=True,
                            args=(metric,)) for t_bound, y0 in zip(t_bounds, y0s)]
    stack = ode.solve_ivp_stack(rhs, (0.0, t_bounds), y0s, 1e-10, event)
    for got, ref in zip(stack, refs):
        assert_matches_scipy(got, ref)
    assert [ref.status for ref in refs] == [0, 1, 0, 1]
    scalar = ode.solve_ivp_stack(rhs, (0.0, 0.5), y0s, 1e-10, event)
    same = ode.solve_ivp_stack(rhs, (0.0, np.full(4, 0.5)), y0s, 1e-10, event)
    for a, b in zip(scalar, same):
        assert (a.status, a.nfev) == (b.status, b.nfev) and bitwise_equal(a.t, b.t)
        assert bitwise_equal(a.sol.Q, b.sol.Q)
    assert [a.t[-1] for a in scalar] == [0.5] * 4


def test_brentq_matches_scipy_on_seeded_brackets():
    rng = np.random.default_rng(0)
    families = (
        lambda c: lambda x: float(np.polyval(c, x)),
        lambda c: lambda x: float(np.tanh(c[0] * (x - c[1])) + 0.1 * c[2]),
        lambda c: lambda x: float(np.exp(c[0] * x) - 1.5 - c[1] ** 2),
        lambda c: lambda x: float(np.sin(3 * x + c[0]) + 0.5 * c[1] * x),
    )
    brackets = 0
    for k in range(400):
        f = families[k % 4](rng.standard_normal(4))
        a, b = sorted(rng.uniform(-3, 3, 2))
        if np.signbit(f(a)) == np.signbit(f(b)):
            continue
        brackets += 1
        got = ode.brentq(f, a, b)
        assert bitwise_equal(got, scipy_brentq(f, a, b, xtol=ode.BRENT_TOL, rtol=ode.BRENT_TOL))
    assert brackets > 100


@pytest.mark.parametrize("f, maxiter, error", [
    (lambda x: x * x + 1, 100, ValueError),
    (lambda x: np.nan if x > 0.5 else x, 100, ValueError),
    (lambda x: x ** 3 - 0.2, 3, RuntimeError),
], ids=["no-sign-change", "nan", "no-convergence"])
def test_brentq_fails_as_scipy_does(f, maxiter, error, monkeypatch):
    monkeypatch.setattr(ode, "BRENT_MAXITER", maxiter)
    with pytest.raises(error):
        ode.brentq(f, -1.0, 1.0)
    with pytest.raises(error):
        scipy_brentq(f, -1.0, 1.0, xtol=ode.BRENT_TOL, rtol=ode.BRENT_TOL, maxiter=maxiter)


def test_rk45_step_collapse_matches_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1, where the step falls below
    # float spacing
    ref = scipy_solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], method="RK45",
                          rtol=1e-8, atol=1e-8, dense_output=True)
    got = ode.solve_ivp(lambda t, y: y * y, (0.0, 2.0), [1.0], 1e-8, None)
    assert ref.status == -1
    assert (got.status, got.nfev, got.message) == (ref.status, ref.nfev, ref.message)
    assert bitwise_equal(got.t, ref.t)
    # one time per step on a one-component state, whose (1, 4) x (4, 1)
    # products round differently on strided columns
    midpoints = (ref.t[1:] + ref.t[:-1]) / 2
    assert bitwise_equal(got.sol(midpoints), ref.sol(midpoints))


def test_rk45_collapse_before_the_first_step_matches_scipy():
    # an infinite slope at the start rejects every step until it falls below
    # float spacing, so the row finishes with no accepted step
    fun = lambda t, y: np.full_like(y, np.inf)
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf, in both
        ref = scipy_solve_ivp(fun, (0.0, 1.0), [1.0], method="RK45", rtol=1e-8, atol=1e-8,
                              dense_output=True)
        got = ode.solve_ivp(fun, (0.0, 1.0), [1.0], 1e-8, None)
    assert ref.status == -1
    assert (got.status, got.nfev, got.message) == (ref.status, ref.nfev, ref.message)
    assert bitwise_equal(got.t, ref.t)


def test_rk45_warns_and_raises_a_tolerance_below_100_eps_as_scipy_does():
    with pytest.warns(UserWarning, match="rtol") as caught:
        ref = scipy_solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="RK45",
                              rtol=1e-17, atol=1e-17, dense_output=True)
        got = ode.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], 1e-17, None)
    assert len(caught) == 2 and str(caught[0].message) == str(caught[1].message)
    assert got.nfev == ref.nfev
    assert bitwise_equal(got.t, ref.t)


@pytest.mark.parametrize("command", ["verify", "factory", "geodesic"])
def test_command_runs_without_scipy(command):
    # a None entry in sys.modules makes every import of scipy fail
    code = ("import sys; sys.modules['scipy'] = None; from geodequiv.cli import main; "
            f"sys.exit(main(['{command}', '--pair', 'ellipsoid:1,2,3', "
            "'--trajectories', '2', '--points', '5']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
