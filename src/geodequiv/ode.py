"""RK45 with dense output and one terminal event, and Brent's root finder.

`solve_ivp` is scipy's `solve_ivp(method="RK45", dense_output=True)` for a
forward span and one terminal event that fires where it crosses zero
downwards, and `brentq` is scipy's brentq.c: scipy's arithmetic with scipy's
numpy calls in scipy's order, so the results equal scipy's bit for bit.
Dormand & Prince (1980); Hairer, Norsett & Wanner, Solving ODEs I, II.4.
"""

import warnings
from dataclasses import dataclass
from itertools import groupby

import numpy as np

EPS = np.finfo(float).eps
SAFETY = 0.9  # multiplies steps predicted from the error's asymptotic order
MIN_FACTOR = 0.2  # smallest step decrease after a rejection
MAX_FACTOR = 10  # largest step increase
ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
BRENT_TOL = 4 * EPS  # the event root's xtol and rtol
BRENT_MAXITER = 100

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# the dense output's quartic in powers of the step fraction, per stage
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


@dataclass
class RkDenseOutput:
    """The quartic interpolant over one accepted step from t_old to t_old + h."""

    t_old: float
    h: float
    y_old: np.ndarray
    Q: np.ndarray

    def __call__(self, t):
        """The state at a time, or the (n, K) states at K times."""
        t = np.asarray(t)
        x = (t - self.t_old) / self.h  # the powers x .. x^4 weight the columns of Q
        if t.ndim == 0:
            return self.h * np.dot(self.Q, np.cumprod(np.tile(x, 4))) + self.y_old
        p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        return self.h * np.dot(self.Q, p) + self.y_old[:, None]


@dataclass
class OdeSolution:
    """The dense output over all accepted steps; a step end takes the earlier step's."""

    ts: np.ndarray
    interpolants: list

    def __call__(self, t):
        """The (n, K) states at the K times of the 1-D array t, in its order."""
        t = np.asarray(t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.searchsorted(self.ts, t_sorted, side="left")
        segments = np.clip(segments - 1, 0, len(self.interpolants) - 1)
        ys = []
        start = 0
        for segment, group in groupby(segments):
            end = start + len(list(group))
            ys.append(self.interpolants[segment](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]


@dataclass
class OdeResult:
    """The step ends t (the event's root last, if it fired), the dense output
    over them, and the event's root and state, None unless it fired. status is
    0 at the span's end, 1 at the event, -1 (with a message) at a step below
    float spacing."""

    t: np.ndarray
    sol: OdeSolution
    t_event: float | None
    y_event: np.ndarray | None
    nfev: int
    status: int
    message: str | None


def rms_norm(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, tol, event) -> OdeResult:
    """Integrate y' = fun(t, y) from y(t0) = y0 over t_span = (t0, t_bound),
    t_bound > t0, keeping the local error estimate below tol (1 + |y|).
    When event(t, y), unless None, goes from >= 0 at one step end to <= 0 at
    the next, the integration stops at its root in that step."""
    t, t_bound = map(float, t_span)
    atol = rtol = tol
    if rtol < 100 * EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=2)
        rtol = 100 * EPS
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    # the first step, from one more evaluation of fun
    interval_length = abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    d0 = rms_norm(y / scale)
    d1 = rms_norm(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    d2 = rms_norm((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval_length)
    nfev = 2
    K = np.empty((7, y.size))
    ts, interpolants = [t], []
    t_event = y_event = None
    g = None if event is None else event(t, y)
    status = message = None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while not h_abs < min_step:  # a NaN step is attempted, as in scipy
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = fun(t + h, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = rms_norm(np.dot(K.T, E) * h / scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        else:  # the step size fell below min_step
            status, message = -1, "Required step size is less than spacing between numbers."
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
        interpolants.append(RkDenseOutput(t_old, t - t_old, y_old, K.T.dot(P)))
        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                sol = interpolants[-1]
                t = t_event = brentq(lambda s: event(s, sol(s)), t_old, t)
                y_event = sol(t)
                status = 1
            g = g_new
        # a root at the step's start adds no step
        if len(ts) > 1 and ts[-1] == t:
            interpolants.pop()
        else:
            ts.append(t)
    ts = np.array(ts)
    return OdeResult(ts, OdeSolution(ts, interpolants), t_event, y_event, nfev, status, message)


def brentq(f, a, b) -> float:
    """A root of f between a and b, where f changes sign, to within
    BRENT_TOL (1 + |root|), by Brent's method.  Raises ValueError when f is
    NaN or has one sign at a and b, RuntimeError after BRENT_MAXITER
    iterations."""
    def call(x):
        fx = float(f(x))
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur:f}")
