"""Outside-in benchmark harness for the geodequiv CLI.

A run drives `geodequiv.cli.main([...])` in this process on one workload.
It repeats the workload's cycle (its fixed set of requests, made from the
benchmark seed) until the requested seconds have passed, at least once, and
reports the median over cycles of per-request figures.  Every command's
report is read back, parsed strictly, checked against the verdict its pair
must reach, and digested; a repeated input must give the same digest.

With tracing on, the run first times one untraced cycle at the default pool
size and one at a single thread, then traces cycles through `tracer.Tracer`
and reports per-layer figures per cycle, the untraced per-command times, and
the tracing overhead against the untraced cycle.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import tracer as tracing
from .workloads import Command, Workload, gate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 3
THREADS_VAR = "GEODEQUIV_THREADS"
# keys outside the determinism contract: the timestamp, and a diagnostics
# block should a report ever carry one
VOLATILE_KEYS = ("timestamp", "diagnostics")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}
COMMANDS = ("verify", "factory", "geodesic")


class SourceMissing(RuntimeError):
    """The checkout holds no geodequiv source to benchmark."""


def load_cli():
    if not (SRC / "geodequiv" / "cli.py").is_file():
        raise SourceMissing(f"no geodequiv source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from geodequiv import cli

    return cli


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def report_digest(report: dict, exports: list[Path] = ()) -> str:
    """sha256 of the report without its volatile keys (canonical JSON, floats
    in shortest round-trip form), followed by each exported file's bytes."""
    h = hashlib.sha256()
    h.update(json.dumps(_strip(report), sort_keys=True, separators=(",", ":"),
                        allow_nan=False).encode())
    for path in sorted(exports):
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """One command invocation."""

    command: str
    cli_seed: int
    wall_s: float
    cpu_s: float
    code: int
    problems: list[str]
    digest: str | None = None


def run_command(cli, cmd: Command, cli_seed: int, workdir: Path) -> Outcome:
    target = workdir / f"{cmd.command}-{cli_seed}"
    argv = [cmd.command, "--pair", cmd.pair, "--seed", str(cli_seed), *cmd.args]
    if cmd.command == "geodesic":
        argv += ["--format", "csv", "--out", str(target)]
    else:
        argv += ["--out", str(target)]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the CLI contract maps every failure to an exit code
        return Outcome(cmd.command, cli_seed, time.perf_counter() - t0,
                       time.process_time() - c0, -1, [f"raised {type(exc).__name__}: {exc}"])
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out = Outcome(cmd.command, cli_seed, wall, cpu, code, [])
    try:
        report_path = target / "summary.json" if cmd.command == "geodesic" else target
        report = strict_loads(report_path.read_text())
        if not isinstance(report, dict):
            raise ValueError("report is not a JSON object")
        exports = []
        if cmd.command == "geodesic":
            exports = sorted(target.glob("geodesic_*.csv"))
            want = 2 * len(report.get("directions", []))
            if len(exports) != want or want == 0:
                out.problems.append(f"{len(exports)} exported curves, expected {want}")
        out.problems += gate(cmd, code, report)
        out.digest = report_digest(report, exports)
    except (OSError, ValueError) as exc:
        out.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
    finally:
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
    return out


@dataclass
class Cycle:
    wall_s: float
    outcomes: list[Outcome] = field(default_factory=list)


def per_request(cycles: list[Cycle], requests: int) -> dict[str, float]:
    """Per-request wall and CPU figures.  Each input (command, CLI seed) is
    timed once per cycle; its time is the median over cycles, and a figure
    is the mean over the cycle's requests of the sum over its commands."""
    samples: dict[tuple[str, str, int], list[float]] = {}
    for cycle in cycles:
        for o in cycle.outcomes:
            samples.setdefault(("wall", o.command, o.cli_seed), []).append(o.wall_s)
            samples.setdefault(("cpu", o.command, o.cli_seed), []).append(o.cpu_s)
    figures: dict[str, float] = {}
    for (kind, command, _), values in samples.items():
        t = statistics.median(values) / requests
        key = f"{command}_s" if kind == "wall" else "cpu_s"
        figures[key] = figures.get(key, 0.0) + t
        if kind == "wall":
            figures["wall_s"] = figures.get("wall_s", 0.0) + t
    return figures


def run_cycle(cli, workload: Workload, seed: int, workdir: Path) -> Cycle:
    t0 = time.perf_counter()
    outcomes = [run_command(cli, cmd, s, workdir)
                for s in workload.cli_seeds(seed) for cmd in workload.commands]
    return Cycle(time.perf_counter() - t0, outcomes)


def check_digests(cycles: list[Cycle]) -> None:
    """A repeated input must reproduce the first cycle's digest."""
    first = {(o.command, o.cli_seed): o.digest for o in cycles[0].outcomes}
    for cycle in cycles[1:]:
        for o in cycle.outcomes:
            want = first.get((o.command, o.cli_seed))
            if o.digest is not None and want is not None and o.digest != want:
                o.problems.append("report digest differs from the first run of this input")


def measure_setup(workload: Workload, env: dict) -> list[float]:
    """Seconds from importing geodequiv to resolved pairs, each in a fresh
    interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(PROBE), *workload.pairs], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def host_gauge(repeats: int = 7) -> dict[str, float]:
    """Median time and (max - min) / median spread of a fixed pure-Python
    task: how fast the host runs this process now, and how much it wavers."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    median = statistics.median(times)
    return {"host_ref_s": median, "host_noise_spread": (max(times) - min(times)) / median}


def stolen_s() -> float | None:
    """CPU seconds the hypervisor took from this machine so far (all CPUs),
    from /proc/stat; None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(cli) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pool_threads": cli._max_workers(1 << 20),
        THREADS_VAR: os.environ.get(THREADS_VAR),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}


def layer_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    extra = [f"cli.{c}{x}" for c in COMMANDS for x in ("_s", "_1thread_s")]
    extra.append("trace.overhead_pct")
    return sorted([*tracing.layer_metrics({}), *extra])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail).  The result has exactly the
    keys correct, attempted, failed and metrics."""
    os.environ.pop(THREADS_VAR, None)  # the pool size users get by default
    cli = load_cli()
    env = environment(cli)
    env.update(host_gauge())
    detail: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "cli_seeds": workload.cli_seeds(seed),
                    "environment": env}
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    steal0, t0 = stolen_s(), time.perf_counter()
    try:
        if trace:
            cycles, metrics = _traced(cli, workload, seed, seconds, workdir, detail)
        else:
            setup = measure_setup(workload, dict(os.environ))
            cycles = _repeat(lambda: run_cycle(cli, workload, seed, workdir), seconds)
            figures = per_request(cycles, workload.requests_per_cycle)
            metrics = {
                "setup_s": _metric("setup_s", statistics.median(setup)),
                "wall_s": _metric("wall_s", figures["wall_s"]),
                "cpu_s": _metric("cpu_s", figures["cpu_s"]),
                "peak_rss_mb": _metric(
                    "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
            }
            detail["setup_runs_s"] = setup
            detail["per_request"] = figures
            samples: dict[str, list[float]] = {}
            for o in (o for c in cycles for o in c.outcomes):
                samples.setdefault(f"{o.command}@{o.cli_seed}", []).append(o.wall_s)
            detail["samples_s"] = samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, elapsed = stolen_s(), time.perf_counter() - t0
    if steal0 is not None and steal1 is not None:
        # share of the CPUs' time during the run that other guests took
        env["steal_frac"] = (steal1 - steal0) / (elapsed * (os.cpu_count() or 1))
    check_digests(cycles)
    outcomes = [o for c in cycles for o in c.outcomes]
    failed = [o for o in outcomes if o.problems]
    detail["cycles_s"] = [c.wall_s for c in cycles]
    detail["digests"] = {f"{o.command}@{o.cli_seed}": o.digest for o in cycles[0].outcomes}
    detail["failures"] = [{"command": o.command, "cli_seed": o.cli_seed, "problems": o.problems}
                          for o in failed]
    detail["failed_frac"] = len(failed) / len(outcomes)
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": metrics}
    return result, detail


def _repeat(run_one, seconds: float) -> list:
    """Run cycles until `seconds` have passed or the next one would overrun
    them; always at least one."""
    cycles = []
    t0 = time.perf_counter()
    while True:
        cycles.append(run_one())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(cycles) > seconds:
            return cycles


def _traced(cli, workload: Workload, seed: int, seconds: float, workdir: Path, detail: dict):
    """One untraced cycle at the default pool size, one at a single thread
    (the serial baseline the pool is judged against), then traced cycles."""
    untraced = run_cycle(cli, workload, seed, workdir)
    os.environ[THREADS_VAR] = "1"
    try:
        serial = run_cycle(cli, workload, seed, workdir)
    finally:
        os.environ.pop(THREADS_VAR)
    tr = tracing.Tracer()
    per_cycle = []

    def one():
        tr.reset()
        cycle = run_cycle(cli, workload, seed, workdir)
        per_cycle.append(tracing.layer_metrics(tr.stats()))
        return cycle

    with tr:
        traced = _repeat(one, seconds)
    for m in per_cycle[1:]:
        for key in tracing.DETERMINISTIC:
            if m[key] != per_cycle[0][key]:
                traced[0].outcomes[0].problems.append(f"traced count {key} is not repeatable")
    layers = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    for suffix, cycle in (("_s", untraced), ("_1thread_s", serial)):
        figures = per_request([cycle], workload.requests_per_cycle)
        for command in COMMANDS:  # untraced per-request times; 0 where not run
            layers[f"cli.{command}{suffix}"] = figures.get(f"{command}_s", 0.0)
    base = untraced.wall_s
    overhead = 100.0 * (statistics.median(c.wall_s for c in traced) - base) / base
    layers["trace.overhead_pct"] = overhead
    detail["environment"]["trace_overhead_pct"] = overhead
    detail["untraced_cycle_s"] = base
    metrics = {k: _metric(k, v) for k, v in layers.items()}
    return [untraced, serial, *traced], metrics
