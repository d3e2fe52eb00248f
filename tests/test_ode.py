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


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m2n2", "lc-demo:m3n4",
                                  "falsify:perturbed-lc"])
def test_rk45_matches_scipy_bitwise(name):
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, 3, np.random.default_rng(3))
    exits = rejections = 0
    for tol in (1e-10, 1e-8):
        for metric in (pair.g, pair.gbar):
            chart, n = metric.chart, metric.dim
            for x, xi in zip(xs, xis):
                y0 = np.concatenate([x, xi])
                ref = scipy_solve_ivp(
                    geodesic_rhs, (0.0, 5.0), y0, method="RK45", rtol=tol, atol=tol,
                    events=None if chart.domain is None else [_scipy_chart_exit],
                    dense_output=True, args=(metric,))
                got = ode.solve_ivp(
                    lambda t, y: geodesic_rhs(t, y, metric), (0.0, 5.0), y0, tol,
                    None if chart.domain is None else lambda t, y: chart.domain_margin(y[:n]))
                assert (got.status, got.nfev) == (ref.status, ref.nfev)
                assert bitwise_equal(got.t, ref.t)
                ts = np.linspace(0.0, float(ref.t[-1]), 1001)
                assert bitwise_equal(got.sol(ts[::-1]), ref.sol(ts[::-1]))
                if ref.status == 1:
                    assert bitwise_equal(got.t_event, ref.t_events[0][0])
                    assert bitwise_equal(got.y_event, ref.y_events[0][0])
                else:
                    assert got.t_event is None and got.y_event is None
                exits += ref.status == 1
                # every attempted step costs six evaluations, the start two
                rejections += ref.nfev > 2 + 6 * (len(ref.t) - 1)
    # the cases cover the step-rejection loop and, on the ellipsoid, the
    # chart-exit root
    assert rejections > 0
    assert (exits > 0) == name.startswith("ellipsoid")


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


def test_rk45_warns_and_raises_a_tolerance_below_100_eps_as_scipy_does():
    with pytest.warns(UserWarning, match="rtol") as caught:
        ref = scipy_solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="RK45",
                              rtol=1e-17, atol=1e-17, dense_output=True)
        got = ode.solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], 1e-17, None)
    assert len(caught) == 2 and str(caught[0].message) == str(caught[1].message)
    assert got.nfev == ref.nfev
    assert bitwise_equal(got.t, ref.t)


@pytest.mark.parametrize("command", ["verify", "factory"])
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
