"""Span tracer that instruments geodequiv from outside the package.

Each traced name is a public function or method of one geodequiv module.
`Tracer.install()` replaces every binding of it: the defining module's
attribute, every `from .x import name` copy in the other geodequiv modules,
and, for methods, the class attribute.  Nothing under src/ changes, and
`uninstall()` puts every original back.

A span is one call of a traced function.  Its self time is its duration
minus the time covered by its child spans.  Span stacks are kept per
thread, because the CLI runs per-point jobs on a thread pool; each job gets
a span of its own whose parent is the `_pmap` span on the calling thread, and
the pool span's covered time is the union of its jobs' intervals.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

# Span name -> (module, attribute) targets.  An attribute "Class.method"
# patches the class; a plain name patches every module-level binding of the
# same function object inside the geodequiv package.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "dsl.entry_eval": (("geometry", "MetricField.eval_cells"),),
    "dsl.domain_eval": (("geometry", "Chart.domain_margin"),),
    "matops": tuple(("matops", f) for f in (
        "matmul", "matvec", "cholesky", "chol_solve_mat", "chol_logdet",
        "quadratic_form", "add_scaled_identity", "trace")),
    "geometry.rhs_metric": (("geometry", "MetricField.values_and_grads"),),
    "geometry.integrator": (("geometry", "solve_ivp"),),
    "geometry.integrate": (("geometry", "integrate_geodesic"),),
    "geometry.validate": (("geometry", "Trajectory.__post_init__"),),
    "geometry.coincidence": (("geometry", "geodesic_coincidence"),),
    "geometry.curve_distance": (("geometry", "curve_distance"),),
    "geometry.arc_length": (("geometry", "arc_length"), ("geometry", "arclength_reparam")),
    "geometry.export": (("geometry", "trajectory_to_csv"), ("geometry", "trajectory_to_json")),
    "hamilton.conservation_drift": (("hamilton", "conservation_drift"),),
    "hamilton.canonical_gradients": (("hamilton", "canonical_gradients"),),
    "integrals.integrals_at": (("integrals", "integrals_at"),),
    "integrals.involution": (("integrals", "involution_matrix"),),
    "integrals.rank": (("integrals", "independence_rank"),),
    "integrals.eigen_profile": (("integrals", "eigen_profile"),),
    "factory.point": (("factory", "factory_integrals"),),
    "factory.pfaffian": (("factory", "pfaffian"),),
    "factory.forms": (("factory", "omega_g_at"), ("factory", "pullback_phi_omega")),
    "factory.delta_poly": (("factory", "delta_poly"),),
    "factory.closed_form": (("factory", "coeffs_from_closed_form"),),
    "catalog.resolve": (("catalog", "resolve_pair"),),
    "cli.sample": (("cli", "sample_phase_points"),),
    "cli": (("cli", "main"), ("cli", "cmd_verify"), ("cli", "cmd_factory"),
            ("cli", "cmd_geodesic")),
}

# spans whose per-call durations are kept for percentiles
LATENCY_SPANS = ("geometry.integrate", "factory.point")
POOL_SPAN = "cli"
PACKAGE = "geodequiv"


class Span(NamedTuple):
    """One finished span; `request` is the id of the root span of the
    command invocation that caused it."""

    id: int
    parent: int | None
    request: int
    name: str
    thread: int
    t0: float
    t1: float
    self_s: float


class Frame:
    __slots__ = ("id", "name", "parent", "request", "t0", "covered", "foreign", "nested")

    def __init__(self, span_id: int, name: str, parent: "Frame | None", t0: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = parent.request if parent is not None else span_id
        self.t0 = t0
        self.covered = 0.0  # time covered by children on the same thread
        self.foreign = None  # child intervals from other threads (pool jobs)
        self.nested = 0  # integrate_geodesic calls inside a coincidence span


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.durations.extend(other.durations)
        for k, v in other.counters.items():
            self.counters[k] = self.counters.get(k, 0) + v


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (t0, t1) intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


class Tracer:
    """Collects spans while installed.  `keep_log` also keeps every finished
    `Span` in `log`, for checks."""

    def __init__(self, keep_log: bool = False):
        self.keep_log = keep_log
        self.log: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.stats
        except AttributeError:
            loc.stack, loc.stats = [], {}
            with self._lock:
                self._thread_stats.append(loc.stats)
            return loc.stack, loc.stats

    def _stat(self, stats: dict, name: str) -> SpanStats:
        s = stats.get(name)
        if s is None:
            s = stats[name] = SpanStats()
        return s

    def _open(self, name: str, pool_parent: Frame | None = None):
        """Push a span; its parent is the open span on this thread or, for a
        pool job on a worker thread, the pool span that started it."""
        stack, stats = self._state()
        parent = stack[-1] if stack else pool_parent
        fr = Frame(next(self._ids), name, parent, time.perf_counter())
        stack.append(fr)
        return stack, stats, fr

    def _close(self, stack, stats, fr: Frame) -> SpanStats:
        t1 = time.perf_counter()
        stack.pop()
        if fr.foreign:
            fr.covered += union_length(fr.foreign, fr.t0, t1)
        dur = t1 - fr.t0
        self_t = dur - fr.covered
        parent = fr.parent
        if stack:
            parent.covered += dur
        elif parent is not None:
            parent.foreign.append((fr.t0, t1))  # list.append is atomic
        s = self._stat(stats, fr.name)
        s.calls += 1
        s.total_s += dur
        s.self_s += self_t
        if fr.name in LATENCY_SPANS:
            s.durations.append(dur)
        if self.keep_log:
            self.log.append(Span(fr.id, parent.id if parent is not None else None, fr.request,
                                 fr.name, threading.get_ident(), fr.t0, t1, self_t))
        return s

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            stack, stats, fr = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                s = tracer._close(stack, stats, fr)
            if after is not None:
                after(s, fr, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_pmap(self, fn, max_workers):
        tracer = self

        def traced_pmap(job_fn, jobs):
            stack, stats, fr = tracer._open(POOL_SPAN)
            fr.foreign = []
            threads = max_workers(len(jobs)) if len(jobs) > 1 else 1
            s = tracer._stat(stats, POOL_SPAN)
            s.counters["pool_threads"] = max(s.counters.get("pool_threads", 0), threads)

            def traced_job(job):
                jstack, jstats, jfr = tracer._open(POOL_SPAN, pool_parent=fr)
                try:
                    return job_fn(job)
                finally:
                    tracer._close(jstack, jstats, jfr)

            try:
                return fn(traced_job, jobs)
            finally:
                tracer._close(stack, stats, fr)

        traced_pmap.__wrapped__ = fn
        return traced_pmap

    # -- counters read from arguments and results ----------------------------

    @staticmethod
    def _count(s: SpanStats, key: str, v) -> None:
        s.counters[key] = s.counters.get(key, 0) + v

    def _after_solve(self, s, fr, sol, args):
        self._count(s, "nfev", int(sol.nfev))
        self._count(s, "accepted_steps", len(sol.t) - 1)
        self._count(s, "chart_exits", int(sol.status == 1))

    def _after_validate(self, s, fr, result, args):
        traj = args[0]
        if traj.metric.chart.domain is not None:
            self._count(s, "samples", len(traj.xs))

    def _after_export(self, s, fr, text, args):
        self._count(s, "bytes", len(text.encode()))

    def _after_integrals_at(self, s, fr, result, args):
        self._count(s, "points", len(result))

    def _after_coincidence(self, s, fr, result, args):
        self._count(s, "retries", max(0, fr.nested - 2))

    def _wrap_integrate(self, fn):
        base = self._wrap("geometry.integrate", fn)
        tracer = self

        def traced_integrate(*args, **kwargs):
            stack, _ = tracer._state()
            for outer in reversed(stack):
                if outer.name == "geometry.coincidence":
                    outer.nested += 1
                    break
            return base(*args, **kwargs)

        traced_integrate.__wrapped__ = fn
        return traced_integrate

    # -- install / uninstall ------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "geometry.integrator": self._after_solve,
            "geometry.validate": self._after_validate,
            "geometry.export": self._after_export,
            "integrals.integrals_at": self._after_integrals_at,
            "geometry.coincidence": self._after_coincidence,
        }
        modules = self._modules()
        for span, targets in LAYERS.items():
            for mod_name, attr in targets:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(span, orig, after.get(span)))
                    continue
                orig = getattr(mod, attr)
                if span == "geometry.integrate":
                    wrapped = self._wrap_integrate(orig)
                else:
                    wrapped = self._wrap(span, orig, after.get(span))
                self._rebind(modules, orig, wrapped)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        self._rebind(modules, cli._pmap, self._wrap_pmap(cli._pmap, cli._max_workers))

    def _rebind(self, modules, orig, wrapped) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def stats(self) -> dict[str, SpanStats]:
        """Per-span totals merged over every thread that ran traced code."""
        out: dict[str, SpanStats] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, s in list(stats.items()):
                out.setdefault(name, SpanStats()).merge(s)
        return out

    def reset(self) -> None:
        with self._lock:
            for stats in self._thread_stats:
                stats.clear()
        self.log.clear()


def latency(durations: list) -> tuple[float, float, float]:
    """(median, tail, tail percentile) of call durations in seconds.

    The tail is the highest of p99.9, p99, p95 and p90 that leaves at least
    ten calls beyond it; with fewer calls it falls back to the median."""
    if not durations:
        return 0.0, 0.0, 0.0
    xs = sorted(durations)
    n = len(xs)

    def pct(q: float) -> float:
        k = min(n - 1, max(0, int(round(q / 100.0 * (n - 1)))))
        return xs[k]

    p50 = pct(50.0)
    for q in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return p50, pct(q), q
    return p50, p50, 50.0


def layer_metrics(stats: dict[str, SpanStats]) -> dict[str, float]:
    """The per-layer figures reported for one traced cycle.  Layers that did
    not run report zero."""
    def get(name):
        return stats.get(name, SpanStats())

    def per_call_us(s):
        return 1e6 * s.total_s / s.calls if s.calls else 0.0

    m: dict[str, float] = {}
    for name in ("dsl.entry_eval", "dsl.domain_eval", "matops", "geometry.rhs_metric",
                 "geometry.integrator", "geometry.integrate", "geometry.coincidence",
                 "geometry.curve_distance", "geometry.arc_length", "hamilton.conservation_drift",
                 "integrals.integrals_at", "factory.point", "factory.pfaffian"):
        m[f"{name}.calls"] = get(name).calls
    for name in LAYERS:
        m[f"{name}.self_s"] = get(name).self_s
    m["dsl.entry_eval.us_per_call"] = per_call_us(get("dsl.entry_eval"))
    solve = get("geometry.integrator").counters
    for key in ("nfev", "accepted_steps", "chart_exits"):
        m[f"geometry.{key}"] = solve.get(key, 0)
    m["geometry.validate.samples"] = get("geometry.validate").counters.get("samples", 0)
    m["geometry.coincidence.retries"] = get("geometry.coincidence").counters.get("retries", 0)
    m["geometry.export.bytes"] = get("geometry.export").counters.get("bytes", 0)
    m["integrals.integrals_at.points"] = get("integrals.integrals_at").counters.get("points", 0)
    m["factory.point.us_per_call"] = per_call_us(get("factory.point"))
    for name in LATENCY_SPANS:
        p50, tail, q = latency(get(name).durations)
        m[f"{name}.p50_ms"] = 1e3 * p50
        m[f"{name}.tail_ms"] = 1e3 * tail
        m[f"{name}.tail_pct"] = q
    m["cli.pool_threads"] = get("cli").counters.get("pool_threads", 0)
    return m


# deterministic counts: identical for a fixed seed, whatever the timing
DETERMINISTIC = (
    "geometry.nfev", "geometry.accepted_steps", "geometry.chart_exits",
    "geometry.coincidence.retries", "factory.pfaffian.calls", "dsl.domain_eval.calls",
    "dsl.entry_eval.calls", "geometry.integrate.calls", "factory.point.calls",
    "geometry.validate.samples", "geometry.export.bytes", "integrals.integrals_at.points",
)
