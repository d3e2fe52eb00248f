"""Charts, metric fields, geodesics and curve comparison utilities."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dsl, matops
from .dsl import Expression, eval_env, parse
from .ode import solve_ivp, solve_ivp_stack


class ChartDomainError(ValueError):
    pass


class EnergyDriftError(RuntimeError):
    def __init__(self, drift: float, tol: float):
        self.drift = drift
        super().__init__(f"relative energy drift {drift:.3e} exceeds tolerance {tol:.3e}")


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart.

    domain, when present, is the tuple of expressions over the coordinates
    that must all be positive at a point inside the chart.  A product of them
    would change sign twice across a corner where two factors flip at once,
    so domain tests and the integration exit event take the smallest factor.
    sample_box gives per-coordinate (lo, hi) ranges used for seeded sampling
    and positivity spot checks.
    """

    names: tuple[str, ...]
    domain: tuple[Expression, ...] | None = None
    sample_box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError("chart coordinate names must be distinct")
        for name in self.names:
            # the ASCII Python identifiers are the DSL's, [A-Za-z_][A-Za-z_0-9]*
            if not (type(name) is str and name.isascii() and name.isidentifier()):
                raise ValueError(f"chart coordinate name {name!r} is not an identifier")
        if self.domain is not None and not isinstance(self.domain, tuple):
            raise ValueError("chart domain must be a tuple of factor expressions")
        if self.domain is not None and not all(f.variables() <= set(self.names)
                                               for f in self.domain):
            raise ValueError("domain factor references undeclared coordinates")
        if self.sample_box is not None and len(self.sample_box) != len(self.names):
            raise ValueError("sample_box must give one interval per coordinate")
        for lo, hi in self.sample_box or ():
            if not -np.inf < lo < hi < np.inf:
                raise ValueError(f"sample_box interval [{lo}, {hi}] must be finite with lo < hi")

    @property
    def dim(self) -> int:
        return len(self.names)

    def domain_margin(self, x):
        """Signed distance proxy: the smallest domain factor, positive inside
        the chart.  x may carry one leading batch axis, giving one margin per
        point; a single point gives a float."""
        x = np.asarray(x, dtype=float)
        if self.domain is None:
            return np.inf if x.ndim == 1 else np.full(len(x), np.inf)
        env = eval_env(self.names, list(x.T))
        values = [f.evaluate(env) for f in self.domain]
        if x.ndim == 1:
            return min(float(v) for v in values)
        return np.min([np.broadcast_to(v, len(x)) for v in values], axis=0)

    def contains(self, x) -> bool:
        if self.domain is None:
            return True
        return self.domain_margin(x) > 0.0

    def parse(self, src: str) -> Expression:
        return parse(src, self.names)

    def box_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample points uniformly from sample_box, rejecting the outside of
        the domain predicate."""
        if self.sample_box is None:
            raise ValueError("chart has no sample_box configured")
        lo = np.array([b[0] for b in self.sample_box])
        hi = np.array([b[1] for b in self.sample_box])
        # blocks of the remaining count never draw past the count-th accepted
        # point, so the stream is that of point-by-point sampling
        out = np.empty((0, self.dim))
        tries = 0
        while len(out) < count:
            k = min(count - len(out), 1000 * count - tries)
            if k == 0:
                raise ChartDomainError("rejection sampling failed to hit the chart domain")
            block = lo + (hi - lo) * rng.random((k, self.dim))
            tries += k
            out = np.concatenate([out, block[self.domain_margin(block) > 0.0]])
        return out


def check_phase_points(xs, xis) -> None:
    """Refuse phase points that are not base points paired with tangents of
    the same shape, are not finite or have a zero tangent; xs and xis may
    carry leading batch axes.  Zero tangents are refused because the
    trajectorial diffeomorphism is undefined there."""
    if np.shape(xs) != np.shape(xis) or np.ndim(xs) == 0:
        raise ValueError("x and xi must be vectors of equal length")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(xis))):
        raise ValueError("phase point must be finite")
    if np.any(np.linalg.norm(xis, axis=-1) == 0.0):
        raise ValueError("zero tangent vector is not an admissible phase point")


class MetricField:
    """Symmetric metric tensor with expression entries (upper triangle stored)."""

    def __init__(self, chart: Chart, upper: Sequence[Sequence[Expression]]):
        n = chart.dim
        if len(upper) != n or any(len(row) != n - i for i, row in enumerate(upper)):
            raise ValueError("upper must be the upper triangle, row i holding entries (i, i..n-1)")
        for row in upper:
            for e in row:
                if not e.variables() <= set(chart.names):
                    raise ValueError("metric entry references undeclared coordinates")
        self.chart = chart
        self.upper = tuple(tuple(row) for row in upper)
        # flat output slots of the compiled entries: entry (i, j) of the
        # upper triangle holds its value, then its n partials
        rows, cols = np.triu_indices(n)
        slot = np.empty((n, n), dtype=int)
        slot[rows, cols] = slot[cols, rows] = np.arange(rows.size) * (n + 1)
        self._value_index = slot
        self._grad_index = slot[..., None] + 1 + np.arange(n)
        self._value_grad = None

    @staticmethod
    def from_strings(chart: Chart, grid: Sequence[Sequence[str]]) -> "MetricField":
        """Build from a full square grid of DSL strings; the strictly lower
        triangle is ignored (symmetry is by construction)."""
        n = chart.dim
        upper = [[chart.parse(grid[i][j]) for j in range(i, n)] for i in range(n)]
        return MetricField(chart, upper)

    @staticmethod
    def from_diagonal(chart: Chart, diag: Sequence[Expression]) -> "MetricField":
        n = chart.dim
        zero = dsl.Lit(0.0)
        upper = [[diag[i] if j == i else zero for j in range(i, n)] for i in range(n)]
        return MetricField(chart, upper)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def entry(self, i: int, j: int) -> Expression:
        if j < i:
            i, j = j, i
        return self.upper[i][j - i]

    def eval_cells(self, cells: Sequence) -> list[list]:
        """Evaluate entries over scalar-like coordinate cells, as the list of
        row lists that `matops` takes.  Both triangles share the same
        evaluated object, keeping symmetry exact."""
        n = self.dim
        env = eval_env(self.chart.names, cells)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for k, e in enumerate(self.upper[i]):
                out[i][i + k] = out[i + k][i] = e.evaluate(env)
        return out

    def values(self, x) -> np.ndarray:
        """Entry values at x of shape (N, n) or (n,): (N, n, n) values, or
        (n, n) at a single point."""
        x = np.asarray(x, dtype=float)
        env = eval_env(self.chart.names, list(x.T))
        out = np.empty(x.shape[:-1] + (self.dim, self.dim))
        for i, row in enumerate(self.upper):
            for k, e in enumerate(row):
                out[..., i, i + k] = out[..., i + k, i] = e.evaluate(env)
        return out

    def values_and_grads(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Values and coordinate gradients of the entries.

        xs has shape (N, n) or (n,); returns (N, n, n) values and
        (N, n, n, n) grads with the derivative index last, without the N
        axis for a single point.  The entries are compiled on first use to
        one generated function (`dsl.compile_value_grad`).
        """
        if self._value_grad is None:
            exprs = [e for row in self.upper for e in row]
            self._value_grad = dsl.compile_value_grad(exprs, self.chart.names)
        xs = np.asarray(xs, dtype=float)
        flat = self._value_grad(*xs.T)
        out = np.empty(xs.shape[:-1] + (len(flat),))
        slots = out.T
        for k, v in enumerate(flat):
            slots[k] = v
        return np.take(out, self._value_index, axis=-1), np.take(out, self._grad_index, axis=-1)

    def check_positive_definite(self) -> None:
        """Cholesky spot check at 32 seeded points of the chart's sample box."""
        xs = self.chart.box_points(32, np.random.default_rng(0))
        for x, vals in zip(xs, self.values(xs)):
            try:
                np.linalg.cholesky(vals)
            except np.linalg.LinAlgError:
                raise matops.NotPositiveDefiniteError(_failing_minor(vals), f"at x = {x.tolist()}")

    def norm(self, x, xi):
        """|xi|_g at x.  x and xi may carry leading batch axes; a single
        point gives a float.  The quadratic form is a stacked matmul, which
        matches `xi @ g @ xi` at each point bit for bit; it runs in blocks of
        `dsl.BLOCK_ROWS` points, so its temporaries do not grow with N."""
        x = np.asarray(x, dtype=float)
        n = self.dim
        xs = x.reshape(-1, n)
        v = np.asarray(xi, dtype=float).reshape(-1, 1, n)
        norms = np.empty(len(xs))
        for b in dsl.row_blocks(len(xs)):
            norms[b] = np.sqrt((v[b] @ self.values(xs[b]) @ v[b].swapaxes(1, 2))[:, 0, 0])
        return norms.reshape(x.shape[:-1]) if x.ndim > 1 else float(norms[0])


def _failing_minor(vals: np.ndarray) -> int:
    n = vals.shape[0]
    for k in range(1, n + 1):
        if np.linalg.det(vals[:k, :k]) <= 0.0:
            return k
    return n


# ---------------------------------------------------------------------------
# geodesics


def geodesic_rhs(t, y: np.ndarray, metric: MetricField) -> np.ndarray:
    """The geodesic flow on the state y = (x, xi): (xi, -g^{-1} w), where
    w = Gamma(xi, xi) lowered = W xi - 1/2 W^T xi with W = d(g xi)/dx, so xi
    is contracted into the metric gradients before one solve.  y may be a
    (k, 2n) stack of states, giving one row each, bit for bit the
    single-state values."""
    n = metric.dim
    xi = y[..., n:]
    vals, grads = metric.values_and_grads(y[..., :n])
    W = (xi[..., None, None, :] @ grads)[..., 0, :]  # W[l, k] = d_k g_lj xi^j
    w = (W @ xi[..., None])[..., 0] - 0.5 * (xi[..., None, :] @ W)[..., 0, :]
    return np.concatenate([xi, -np.linalg.solve(vals, w[..., None])[..., 0]], axis=-1)


@dataclass
class GeodesicOptions:
    tol: float = 1e-10  # RK45 rtol and atol
    energy_tol: float = 1e-8
    samples: int = 201


@dataclass
class Trajectory:
    """Sampled solution of the geodesic equations for one metric."""

    metric: MetricField
    ts: np.ndarray
    xs: np.ndarray  # (K, n)
    xis: np.ndarray  # (K, n)
    left_domain: bool = False
    energy_drift: float = 0.0

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.xis = np.asarray(self.xis, dtype=float)
        if not np.all(np.diff(self.ts) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        chart = self.metric.chart
        if chart.domain is not None:
            # the domain test with slack 1e-9, on all samples at once
            outside = np.flatnonzero(~(chart.domain_margin(self.xs) > -1e-9))
            if outside.size:
                x = self.xs[outside[0]]
                raise ChartDomainError(f"trajectory sample {x.tolist()} left the chart domain")

    def __len__(self) -> int:
        return self.ts.shape[0]


def _squared_speeds(traj: Trajectory, metric: MetricField) -> np.ndarray:
    """metric(xi, xi) at every sample of traj."""
    g = metric.values(traj.xs)
    return np.einsum("kij,ki,kj->k", g, traj.xis, traj.xis)


def integrate_geodesic(
    metric: MetricField,
    x,
    xi,
    t_end: float | np.ndarray,
    opts: GeodesicOptions | None = None,
) -> Trajectory | list[Trajectory]:
    """Integrate the geodesic flow from the phase point (x, xi) with an
    embedded RK 5(4) scheme, giving a Trajectory.  x and xi may also be
    (K, n) stacks of starts, integrated in lockstep up to a float or (K,)
    t_end, giving a list of K Trajectory equal to those of K single calls.

    Leaving the chart domain is a soft stop: the trajectory is truncated at
    the crossing and flagged.  A relative energy drift above opts.energy_tol
    raises EnergyDriftError.  A stack raises the drift or integration error
    of its first start that fails, as a loop over the starts would.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    check_phase_points(x, xi)
    opts = opts or GeodesicOptions()
    if np.any(np.asarray(t_end) <= 0):
        raise ValueError("t_end must be positive")
    chart = metric.chart
    n = metric.dim
    for x0 in x.reshape(-1, n):
        if not chart.contains(x0):
            raise ChartDomainError(f"initial point {x0.tolist()} is outside the chart domain")
    # the chart-exit event is the domain margin at the state's base point
    exit_event = None if chart.domain is None else lambda t, y: chart.domain_margin(y[..., :n])
    args = (lambda t, y: geodesic_rhs(t, y, metric), (0.0, t_end),
            np.concatenate([x, xi], axis=-1), opts.tol, exit_event)
    if x.ndim == 1:
        return _trajectory(metric, solve_ivp(*args), opts)
    return [_trajectory(metric, sol, opts) for sol in solve_ivp_stack(*args)]


def _trajectory(metric: MetricField, sol, opts: GeodesicOptions) -> Trajectory:
    """The trajectory of one integration: its dense output resampled, with
    the energy self-check."""
    if sol.status == -1:
        raise IntegrationError(f"geodesic integration failed: {sol.message}")
    left = sol.status == 1
    t_reached = float(sol.t[-1])  # the chart exit's root, when it fired
    if t_reached <= 0.0:
        raise IntegrationError("trajectory left the chart domain immediately")
    # resample the dense interpolant uniformly over the span actually covered,
    # so early chart exits do not thin out the returned curve
    ts = np.linspace(0.0, t_reached, max(2, opts.samples))
    ys = sol.sol(ts).T
    if left:
        ys[-1] = sol.y_event
    n = metric.dim
    traj = Trajectory(metric, ts, ys[:, :n], ys[:, n:], left_domain=left)
    E = _squared_speeds(traj, metric)
    drift = float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-300))
    traj.energy_drift = drift
    if drift > opts.energy_tol:
        raise EnergyDriftError(drift, opts.energy_tol)
    return traj


# ---------------------------------------------------------------------------
# arc length and curve comparison


def arc_steps(traj: Trajectory, metric: MetricField) -> np.ndarray:
    """traj's arc-length pieces under `metric` (trapezoids, one per interval)."""
    speed = np.sqrt(_squared_speeds(traj, metric))
    return 0.5 * (speed[1:] + speed[:-1]) * np.diff(traj.ts)


def arclength_reparam(
    traj: Trajectory,
    steps: np.ndarray,
    count: int,
    length: float | None = None,
) -> np.ndarray:
    """Resample the base curve at `count` points equally spaced in the arc
    length cumsummed from `steps`, the `arc_steps` that `arc_length` sums.
    With `length` given, only the initial piece of that arc length is kept."""
    s = np.concatenate([[0.0], np.cumsum(steps)])
    total = s[-1]
    if total <= 0:
        raise ValueError("curve has zero arc length")
    if length is not None:
        total = min(total, float(length))
    targets = np.linspace(0.0, total, count)
    out = np.empty((count, traj.xs.shape[1]))
    for j in range(traj.xs.shape[1]):
        out[:, j] = np.interp(targets, s, traj.xs[:, j])
    return out


def arc_length(traj: Trajectory, metric: MetricField) -> float:
    return float(np.sum(arc_steps(traj, metric)))


_BLOCK = 32  # segments of c2 per bounding ball in curve_distance


def curve_distance(c1: np.ndarray, c2: np.ndarray) -> float:
    """One-sided distance: max over points of c1 of the Euclidean-in-chart
    distance to the piecewise linear interpolation of c2.  Both curves must
    be finite; a single vertex is one zero-length segment.

    Every value that enters the min is a point's exact distance to one
    segment.  Point i's bound ub is its distance to the two segments at
    vertex i * M // (len(c1) - 1), its own relative index along c2's M
    segments.  The point with the largest ub is measured first, giving A, and
    only points with ub > A can exceed it.  Their bounds are tightened by the
    distance to the nearest ball centre, the start of a segment; the point
    with the largest is measured next, then every point whose bound exceeds
    the best value.  A point is measured against the blocks of _BLOCK
    segments whose ball, about a vertex and holding all the block's
    vertices, comes within its bound.  The 1e-12 relative margins exceed the
    rounding of every distance compared, so the result is that of measuring
    every point against every segment.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if len(c2) == 1:
        c2 = np.vstack([c2, c2])
    a = c2[:-1]  # (M, n) segment starts
    d = c2[1:] - a  # (M, n)
    dd = np.einsum("mj,mj->m", d, d)
    dd = np.where(dd == 0.0, 1.0, dd)
    last = len(a) - 1

    def squared(rows, segs):
        """Squared distance of each point c1[rows] to segment segs of c2."""
        w = c1[rows] - a[segs]
        t = np.clip(np.einsum("kj,kj->k", w, d[segs]) / dd[segs], 0.0, 1.0)
        diff = w - t[:, None] * d[segs]
        return np.einsum("kj,kj->k", diff, diff)

    starts = np.arange(0, len(a), _BLOCK)
    blocks = np.minimum(starts[:, None] + np.arange(_BLOCK), last)  # (B, _BLOCK) segments
    centres = a[np.minimum(starts + _BLOCK // 2, last)]
    verts = c2[np.minimum(starts[:, None] + np.arange(_BLOCK + 1), last + 1)] - centres[:, None]
    radius = np.sqrt(np.max(np.einsum("bkj,bkj->bk", verts, verts), axis=1))

    rows = np.arange(len(c1))
    band = (rows * len(a) // max(len(c1) - 1, 1))[:, None] + [-1, 0]  # a vertex's segments
    ub = np.min(squared(np.repeat(rows, 2), band.clip(0, last).ravel()).reshape(-1, 2), axis=1)

    def centre_distances(points):
        off = c1[points, None] - centres
        return np.sqrt(np.einsum("pbj,pbj->pb", off, off))

    def exact(points, dc, bound):
        """Exact squared distances of c1[points], each <= bound, at centre distances dc."""
        near = dc <= (radius + np.sqrt(bound)[:, None]) * (1.0 + 1e-12)
        p, b = np.nonzero(near)
        mins = np.full(near.shape, np.inf)
        mins[p, b] = np.min(squared(np.repeat(points[p], _BLOCK), blocks[b].ravel())
                            .reshape(-1, _BLOCK), axis=1)
        return np.minimum(ub[points], np.min(mins, axis=1))

    top = np.argmax(ub)[None]
    best = exact(top, centre_distances(top), ub[top])[0]
    points = np.flatnonzero(ub > best)
    dc = centre_distances(points)
    bound = np.minimum(ub[points], np.square(np.min(dc, axis=1) * (1.0 + 1e-12)))
    if len(points):
        k = [np.argmax(bound)]
        best = max(best, exact(points[k], dc[k], bound[k])[0])
    keep = bound > best
    best = np.max(exact(points[keep], dc[keep], bound[keep]), initial=best)
    return float(np.sqrt(best))


def symmetric_curve_distance(c1: np.ndarray, c2: np.ndarray) -> float:
    return max(curve_distance(c1, c2), curve_distance(c2, c1))


def geodesic_coincidence(g: MetricField, gbar: MetricField, xs, xis, length: float = 5.0):
    """Symmetrized distances between the g- and gbar-geodesics from each of
    the K phase points of the (K, n) stacks xs, xis, compared as
    unparameterized curves over the initial piece of g-arc-length `length`
    (shorter when either leaves the chart first), the curves compared (3001
    samples each, measured under g once) and the g curves' g-arc lengths:
    ((K,) distances, K g Trajectory, K gbar Trajectory, (K,) lengths).  A
    gbar curve is its last pass's, so it may run past time `length`.

    A distance is near zero exactly when the two metrics share their
    geodesics through that phase point.  The curves are compared at 2048
    points each, which resolves distances down to about 1e-6 over length 5,
    including near chart walls where the coordinate curvature of the curves
    grows; the integrator tolerance is relaxed accordingly, since curve
    positions only need to be accurate well below the comparison's
    discretization floor.

    Each metric's curves of all directions are one lockstep integration.
    Unit gbar-speed does not cover g-arc-length at unit rate, so each of at
    most 8 retry passes integrates the gbar curves still inside the chart
    and short of `length` again in one call, each over its own grown span.
    The search raises the first error of its g curves, then of its gbar
    curves, then of each pass, so it may name a later direction than a
    search per direction would.
    """
    check_phase_points(xs, xis)
    if np.ndim(xs) != 2:
        raise ValueError("the coincidence search takes (K, n) stacks of phase points")
    xs, xis = (np.asarray(a, dtype=float) for a in (xs, xis))
    opts = GeodesicOptions(tol=1e-8, samples=3001, energy_tol=1e-5)
    tgs = integrate_geodesic(g, xs, xis / g.norm(xs, xis)[:, None], length, opts)
    vbs = xis / gbar.norm(xs, xis)[:, None]
    t_end = np.full(len(xs), float(length))
    tbs = integrate_geodesic(gbar, xs, vbs, t_end, opts)
    bsteps = [arc_steps(tb, g) for tb in tbs]
    covered = np.array([np.sum(s) for s in bsteps])
    for _ in range(8):
        short = [k for k, tb in enumerate(tbs) if not tb.left_domain and covered[k] < length]
        if not short:
            break
        t_end[short] *= np.maximum(1.5, 1.2 * length / np.maximum(covered[short], 1e-12))
        retried = integrate_geodesic(gbar, xs[short], vbs[short], t_end[short], opts)
        for k, tb in zip(short, retried):
            tbs[k], bsteps[k] = tb, arc_steps(tb, g)
            covered[k] = np.sum(bsteps[k])
    gsteps = [arc_steps(tg, g) for tg in tgs]
    g_lengths = np.array([np.sum(s) for s in gsteps])
    windows = [min(length, gl, c) for gl, c in zip(g_lengths, covered)]
    dists = np.array([symmetric_curve_distance(arclength_reparam(tg, gs, 2048, length=w),
                                               arclength_reparam(tb, bs, 2048, length=w))
                      for tg, tb, gs, bs, w in zip(tgs, tbs, gsteps, bsteps, windows)])
    return dists, tgs, tbs, g_lengths


# ---------------------------------------------------------------------------
# export


def _export_table(traj: Trajectory) -> tuple[list[str], list[list[float]]]:
    n = traj.xs.shape[1]
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"xi{i+1}" for i in range(n)]
    return cols, np.column_stack([traj.ts, traj.xs, traj.xis]).tolist()


def _number_csv(cols: list[str], rows: list[list]) -> str:
    """A table of numbers as CSV: the column names, then each row's values
    written by repr, which round-trips every float."""
    return "\n".join([",".join(cols)] + [",".join(map(repr, row)) for row in rows]) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    return _number_csv(*_export_table(traj))


def trajectory_to_json(traj: Trajectory) -> str:
    cols, rows = _export_table(traj)
    return json.dumps({"columns": cols, "rows": rows, "left_domain": traj.left_domain})
