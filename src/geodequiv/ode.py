"""RK45 with dense output and one terminal event, and Brent's root finder.

`solve_ivp` is scipy's `solve_ivp(method="RK45", dense_output=True)` for a
forward span and one terminal event that fires where it crosses zero
downwards, and `brentq` is scipy's brentq.c: scipy's arithmetic in scipy's
order, so the results equal scipy's bit for bit.  `solve_ivp_stack` runs
the same steps on a stack of starts in lockstep, one row per start; its
stacked matmuls equal scipy's per-start `np.dot` bit for bit.
Dormand & Prince (1980); Hairer, Norsett & Wanner, Solving ODEs I, II.4.
"""

import math
import warnings
from dataclasses import dataclass

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


def dense_state(step, t):
    """The state at the time t of the step record (t_old, h, y_old, Q), on
    scipy's scalar path: the quartic interpolant in the step fraction x."""
    t_old, h, y_old, Q = step
    x = (t - t_old) / h
    return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old


@dataclass
class OdeSolution:
    """The dense output over S accepted steps: the step ends ts (S + 1,),
    whose first S entries are the step starts, and per step its size h (S,),
    start state y_old (S, m) and interpolant coefficients Q (S, m, 4).  A
    step end takes the earlier step's interpolant."""

    ts: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    Q: np.ndarray

    def __call__(self, t):
        """The (m, K) states at the K times of the 1-D array t, in any order.
        The times are sorted and each step touched makes one np.dot on its
        own times, as scipy does: a product over other columns, or on
        strided ones, rounds differently."""
        t = np.asarray(t)
        order = np.argsort(t)
        t_sorted = t[order]
        steps = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, len(self.h) - 1)
        h = self.h[steps]
        x = (t_sorted - self.ts[steps]) / h
        p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        D = np.empty((self.Q.shape[1], len(t)))
        starts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(t)]
        for a, b in zip(starts, starts[1:]):
            D[:, a:b] = np.dot(self.Q[steps[a]], np.ascontiguousarray(p[:, a:b]))
        return (h * D + self.y_old[steps].T)[:, np.argsort(order)]


@dataclass
class OdeResult:
    """The step ends t (the event's root last, if it fired), the dense output
    over them, and the state at the event's root, None unless it fired.
    status is 0 at the span's end, 1 at the event, -1 (with a message) at a
    step below float spacing."""

    t: np.ndarray
    sol: OdeSolution
    y_event: np.ndarray | None
    nfev: int
    status: int
    message: str | None


def rms_norms(x):
    """The RMS norm of each row of x (k, m).  A stacked matmul, which equals
    np.linalg.norm(row) / sqrt(m) bit for bit; a norm over axis 1 does not."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0]) / x.shape[1] ** 0.5


def _at_rows(fn, t, y):
    """fn at the times t (k,) and states y (k, m), as a (k, ...) array.  A
    single row goes through fn's point path, which is several times cheaper
    than a stack of one."""
    if len(y) == 1:
        return np.asarray(fn(t[0], y[0]))[None]
    return fn(t, y)


class _Row:
    """One start in solve_ivp_stack: its time, span end, step size and the
    step's least size, whether the step was rejected, the event value, the
    count of evaluations, the step ends, one (t_old, h, y_old, Q) record per
    accepted step, and the result once it finishes."""

    __slots__ = ("t", "t_bound", "t_new", "h_abs", "min_step", "rejected", "g", "nfev", "ts",
                 "steps", "result")

    def __init__(self, t, t_bound, h_abs, g):
        self.t, self.t_bound, self.h_abs, self.g = t, t_bound, h_abs, g
        self.rejected, self.nfev, self.ts, self.steps, self.result = False, 2, [t], [], None
        self.start_step()

    def start_step(self):
        self.min_step = 10 * abs(math.nextafter(self.t, math.inf) - self.t)
        self.h_abs = max(self.h_abs, self.min_step)

    def propose(self):
        """The time and the step of the next attempt, which ends at t_new,
        clipped to the row's t_bound."""
        t_new = self.t + self.h_abs
        self.t_new = self.t_bound if t_new - self.t_bound > 0 else t_new
        h = self.t_new - self.t
        self.h_abs = abs(h)
        return self.t, h

    def adapt(self, error_norm: float) -> bool:
        """Scale the step after an attempt with this error norm; True when the
        attempt is accepted.  A rejected step that falls below min_step
        finishes the row.  Scalar `**`: np.power on an array rounds
        differently."""
        self.nfev += 6
        if error_norm < 1:
            factor = (MAX_FACTOR if error_norm == 0
                      else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
            self.h_abs *= min(1, factor) if self.rejected else factor
            self.rejected = False
            return True
        self.h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        self.rejected = True
        if self.h_abs < self.min_step:  # a NaN step is attempted again, as in scipy
            self.finish(-1, "Required step size is less than spacing between numbers.", None)
        return False

    def finish(self, status, message, y_event):
        """Stack the step records (empty arrays when no step was accepted)."""
        ts = np.array(self.ts)
        h, y_old, Q = (np.array([step[k] for step in self.steps]) for k in (1, 2, 3))
        self.result = OdeResult(ts, OdeSolution(ts, h, y_old, Q), y_event, self.nfev, status,
                                message)


def solve_ivp(fun, t_span, y0, tol, event) -> OdeResult:
    """Integrate y' = fun(t, y) from y(t0) = y0 over t_span = (t0, t_bound),
    t_bound > t0, keeping the local error estimate below tol (1 + |y|).
    When event(t, y), unless None, goes from >= 0 at one step end to <= 0 at
    the next, the integration stops at its root in that step.  The one-row
    view of solve_ivp_stack."""
    return solve_ivp_stack(fun, t_span, np.asarray(y0, dtype=float)[None], tol, event)[0]


def solve_ivp_stack(fun, t_span, y0s, tol, event) -> list[OdeResult]:
    """solve_ivp from every row of y0s (K, m), in lockstep: each pass makes
    one step attempt on every unfinished row, with one call of fun per stage
    on all of them.  t_span is (t0, t_bound) with t_bound a float or one
    span end per row (K,).  Every row keeps its own span end, time, step,
    rejections, event value and dense output, and leaves the stack when it
    finishes, so row k's result equals solve_ivp from y0s[k] over its own
    span bit for bit.  fun(t, y) and event(t, y) take a time and a state
    (m,), or times (k,) and states (k, m) for k > 1."""
    atol = rtol = tol
    if rtol < 100 * EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=2)
        rtol = 100 * EPS
    y = np.asarray(y0s, dtype=float)
    t0, t_bounds = float(t_span[0]), np.full(len(y), t_span[1], dtype=float).tolist()
    t = np.full(len(y), t0)
    f = _at_rows(fun, t, y)
    # the first step, from one more evaluation of fun
    lengths = [abs(t_bound - t0) for t_bound in t_bounds]
    scale = atol + np.abs(y) * rtol
    d0, d1 = rms_norms(y / scale).tolist(), rms_norms(f / scale).tolist()
    h0 = np.array([min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, length)
                   for a, b, length in zip(d0, d1, lengths)])
    d2 = (rms_norms((_at_rows(fun, t + h0, y + h0[:, None] * f) - f) / scale) / h0).tolist()
    h1 = [max(1e-6, h * 1e-3) if b <= 1e-15 and c <= 1e-15 else (0.01 / max(b, c)) ** (1 / 5)
          for h, b, c in zip(h0.tolist(), d1, d2)]
    g = [None] * len(y) if event is None else _at_rows(event, t, y).tolist()
    everyone = rows = [_Row(t0, t_bound, min(100 * a, b, length), c)
                       for t_bound, a, b, length, c in zip(t_bounds, h0.tolist(), h1, lengths, g)]
    while rows:
        t, h = np.array([row.propose() for row in rows]).T
        hc = h[:, None]
        stage_t = t[:, None] + hc * C
        K = np.empty((len(rows), 7, y.shape[1]))
        K[:, 0] = f
        for s in range(1, 6):
            dy = (A[s, :s] @ K[:, :s]) * hc
            K[:, s] = _at_rows(fun, stage_t[:, s], y + dy)
        y_new = y + hc * (B @ K[:, :-1])
        f_new = K[:, -1] = _at_rows(fun, t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = rms_norms((E @ K) * hc / scale).tolist()
        accepted = [i for i, (row, e) in enumerate(zip(rows, error_norm)) if row.adapt(e)]
        y_old = y
        if len(accepted) == len(rows):
            y, f, new = y_new, f_new, slice(None)  # no fancy indexing in the common case
        else:
            y, f, new = y.copy(), f.copy(), accepted
            y[new], f[new] = y_new[new], f_new[new]
        Q = K.transpose(0, 2, 1) @ P
        if event is not None and accepted:
            g = _at_rows(event, np.array([rows[i].t_new for i in accepted]), y_new[new]).tolist()
        for j, i in enumerate(accepted):
            row = rows[i]
            t_old = row.t
            row.t = t_end = row.t_new
            step = (t_old, row.t - t_old, y_old[i], Q[i])
            row.steps.append(step)
            status = 0 if t_end - row.t_bound >= 0 else None
            y_event = None
            if event is not None:
                if row.g >= 0 and g[j] <= 0:
                    t_end = brentq(lambda s: event(s, dense_state(step, s)), t_old, row.t)
                    y_event = dense_state(step, t_end)
                    status = 1
                row.g = g[j]
            # a root at the step's start adds no step
            if len(row.ts) > 1 and row.ts[-1] == t_end:
                row.steps.pop()
            else:
                row.ts.append(t_end)
            if status is None:
                row.start_step()
            else:
                row.finish(status, None, y_event)
        keep = [i for i, row in enumerate(rows) if row.result is None]
        if len(keep) < len(rows):
            rows, y, f = [rows[i] for i in keep], y[keep], f[keep]
    return [row.result for row in everyone]


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
