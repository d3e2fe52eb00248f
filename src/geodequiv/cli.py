"""Command line front end: configuration ingestion, experiment orchestration,
and report emission.

Subcommands
    verify             conservation / involution / independence suite on a pair
    factory            per-point quotient coefficients, remainders, cross-checks
    geodesic           trajectory export plus both-metric curve comparison
    levi-civita-build  emit a metric-pair config from a normal-form config
    catalog            list built-in pair names

Exit codes are a stable contract: 0 all checks passed, 1 a numerical
check failed, 2 usage or configuration error.  Reports are deterministic
for a fixed config and seed up to the "timestamp" field: per-point results
are aggregated in point_id order, and the JSON is emitted with sorted keys.
`geodesic` compares every direction in one stacked coincidence search, then
builds each direction's report row and exports the curves it compared on a
worker pool; the environment variable GEODEQUIV_THREADS caps it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dsl import DslError, parse
from .factory import coeffs_from_closed_form, factory_integrals
from .geometry import (
    Chart,
    GeodesicOptions,
    MetricField,
    check_phase_points,
    geodesic_coincidence,
    integrate_geodesic,
    _number_csv,
    trajectory_to_csv,
    trajectory_to_json,
)
from .hamilton import conservation_drift
from .integrals import (
    MetricPair,
    eigen_profile,
    integrals_at,
    involution_and_rank,
)
from .levicivita import build_pair, lcspec_from_json
from .catalog import battery, resolve_pair

# fixed thresholds for the factory cross-checks (the command reports the
# measured values; these only decide the exit code)
FACTORY_REMAINDER_TOL = 1e-8
FACTORY_CROSSCHECK_TOL = 1e-8


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


# the errors that main reports as bad input, with exit code 2
INPUT_ERRORS = (DslError, ValueError, KeyError, OSError, RuntimeError, ArithmeticError)


@dataclass
class RunConfig:
    """One experiment: a pair source plus sampling sizes and tolerances.

    pair is either a catalog name (see resolve_pair) or an inline object
    with keys "coordinates", optional "box"/"domain"/"id", and metric
    entries as DSL strings keyed "g[i][j]" and "gbar[i][j]" (1-based,
    upper triangle suffices).
    """

    pair: str | dict
    seed: int = 0
    drift_tol: float = 1e-6
    bracket_tol: float = 1e-8
    rank_tol: float = 1e-8
    trajectories: int = 20
    t_end: float = 5.0
    points: int = 100
    out_format: str = "json"
    out: str | None = None

    def __post_init__(self):
        # bool is a subclass of int, so the types are compared exactly
        for name, least in (("seed", 0), ("trajectories", 1), ("points", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ConfigError(f"{name} must be an integer of at least {least}, not {value!r}")
        for name in ("t_end", "drift_tol", "bracket_tol", "rank_tol"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 < value < np.inf:
                raise ConfigError(f"{name} must be a positive number, not {value!r}")
        if self.out_format not in ("json", "csv"):
            raise ConfigError(f"unknown output format {self.out_format!r}")
        if self.out is not None and type(self.out) is not str:
            raise ConfigError(f"out must be a path string, not {self.out!r}")


# config-file keys that differ from their RunConfig field (and flag dest)
_CONFIG_KEYS = {"format": "out_format"}


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional --config JSON document with command line flags;
    flags win.  Raises ConfigError with the offending path or key."""
    names = [f.name for f in fields(RunConfig)]
    kwargs: dict = {}
    if args.config is not None:
        doc = _read_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(doc) - set(_CONFIG_KEYS) - (set(names) - set(_CONFIG_KEYS.values()))
        if unknown:
            raise ConfigError(f"config {args.config}: unknown keys {sorted(unknown)}")
        kwargs = {_CONFIG_KEYS.get(k, k): v for k, v in doc.items()}
    kwargs.update({k: getattr(args, k) for k in names if getattr(args, k, None) is not None})
    if "pair" not in kwargs:
        raise ConfigError("no pair given: use --pair or a config with a pair entry")
    try:
        cfg = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc))
    _check_out(cfg.out, args.command == "geodesic")
    return cfg


def _check_out(out: str | None, directory: bool) -> None:
    """Refuse an output path that cannot be written, before any work is
    done.  geodesic writes into a directory that it makes, so no part of
    its path may be a file; the other commands write one file."""
    if out is None:
        return
    path = Path(out)
    if directory:
        if not out or any(p.exists() and not p.is_dir() for p in (path, *path.parents)):
            raise ConfigError(f"out must name a directory, not {out!r}")
    elif not out or path.is_dir() or not path.parent.is_dir():
        raise ConfigError(f"out must name a file in an existing directory, not {out!r}")


def pair_from_inline(doc: dict) -> MetricPair:
    """Build a MetricPair from the inline config object form."""
    unknown = set(doc) - {"id", "coordinates", "box", "domain"}
    bad = [k for k in unknown if not (k.startswith("g[") or k.startswith("gbar["))]
    if bad:
        raise ConfigError(f"inline pair: unknown keys {sorted(bad)}")
    names = doc.get("coordinates")
    if type(names) is not list or not all(type(c) is str for c in names):
        raise ConfigError(f'inline pair needs a "coordinates" list of names, not {names!r}')
    names = tuple(names)
    box = doc.get("box")
    if box is None:
        box = [[-1.0, 1.0]] * len(names)
    # bool is a subclass of int, so the types are compared exactly
    if type(box) is not list or not all(type(b) is list and len(b) == 2 and
                                        all(type(v) in (int, float) for v in b) for b in box):
        raise ConfigError(f'inline pair: "box" must be a list of [lo, hi] number pairs, not {box!r}')
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    domain = doc.get("domain")
    if domain is not None and type(domain) is not str:
        raise ConfigError(f'inline pair: "domain" must be a string or null, not {domain!r}')
    chart = Chart(names, domain=None if domain is None else (parse(domain, names),), sample_box=box)

    n = len(names)

    def grid_for(prefix: str) -> list[list[str]]:
        grid = [["0"] * n for _ in range(n)]
        keys = {}  # the key that set each entry of the upper triangle
        for key, src in doc.items():
            if not key.startswith(prefix + "["):
                continue
            try:
                i, j = (int(p) for p in key[len(prefix):].strip("[]").split("]["))
            except ValueError:
                raise ConfigError(f"inline pair: malformed metric key {key!r}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ConfigError(f"inline pair: index out of range in {key!r}")
            if type(src) is not str:
                raise ConfigError(f"inline pair: {key!r} must be an expression string, not {src!r}")
            other = keys.setdefault((min(i, j), max(i, j)), key)
            if other != key and grid[i - 1][j - 1] != src:
                raise ConfigError(f"inline pair: {other!r} and {key!r} give different entries")
            grid[i - 1][j - 1] = grid[j - 1][i - 1] = src
        if not keys:
            raise ConfigError(f'inline pair: no "{prefix}[i][j]" entries found')
        return grid

    try:
        g = MetricField.from_strings(chart, grid_for("g"))
        gbar = MetricField.from_strings(chart, grid_for("gbar"))
    except DslError as exc:
        raise ConfigError(f"inline pair: bad metric entry: {exc}")
    return MetricPair(g, gbar, pair_id=str(doc.get("id", "inline")))


def resolve_config_pair(source: str | dict) -> MetricPair:
    if isinstance(source, dict):
        return pair_from_inline(source)
    try:
        return resolve_pair(str(source))
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"cannot resolve pair {source!r}: {exc}")


# ---------------------------------------------------------------------------
# sampling and the worker pool of cmd_geodesic


def sample_phase_points(
    pair: MetricPair, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw base points uniformly from the chart's sample box (respecting the
    domain predicate) and directions uniformly from the unit g-sphere, as
    (count, n) arrays xs and xis."""
    xs = pair.g.chart.box_points(count, rng)
    # a rejected (near-zero) direction is replaced by the next draws in the
    # stream, so blocks of the remaining count give the per-point stream
    xis = np.empty((0, pair.dim))
    while len(xis) < count:
        block = rng.standard_normal((count - len(xis), pair.dim))
        xis = np.concatenate([xis, block[np.linalg.norm(block, axis=1) >= 1e-12]])
    xis /= pair.g.norm(xs, xis)[:, None]
    check_phase_points(xs, xis)
    return xs, xis


def _max_workers(n_jobs: int) -> int:
    """The pool size for n_jobs jobs: GEODEQUIV_THREADS, else the CPU count,
    clamped to 1 .. n_jobs.  Raises ConfigError when the cap is no integer."""
    cap = os.environ.get("GEODEQUIV_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        raise ConfigError(f"GEODEQUIV_THREADS must be an integer, not {cap!r}") from None
    return max(1, min(n_jobs, limit))


def _pmap(fn, jobs: list) -> list:
    """Run fn over the jobs on the worker pool, returning results in job
    order regardless of completion order."""
    if len(jobs) <= 1 or _max_workers(len(jobs)) == 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=_max_workers(len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _null_non_finite(doc):
    """doc with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {k: _null_non_finite(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_null_non_finite(v) for v in doc]
    return None if isinstance(doc, float) and not np.isfinite(doc) else doc


def _report_json(report: dict) -> str:
    return json.dumps(_null_non_finite(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# the shared parts of verify and factory


def _integrate_starts(pair: MetricPair, cfg: RunConfig, rng: np.random.Generator) -> list:
    """g-geodesics from cfg.trajectories seeded starts, over [0, cfg.t_end]."""
    # the integrator's own energy self-check runs looser than the conservation
    # tolerance: near chart walls RK45 at 1e-10 legitimately accumulates ~1e-8
    # relative energy error, which the drift check judges, not the gate
    opts = GeodesicOptions(energy_tol=1e-7)
    xs, xis = sample_phase_points(pair, cfg.trajectories, rng)
    return integrate_geodesic(pair.g, xs, xis, cfg.t_end, opts)


def _drifts(family, trajs: list, picks: list) -> list:
    """conservation_drift of the family's values at each trajectory's picked
    samples, from one family(xs, xis) call over the picks of all of them."""
    values = family(np.concatenate([t.xs[k] for t, k in zip(trajs, picks)]),
                    np.concatenate([t.xis[k] for t, k in zip(trajs, picks)]))
    splits = np.cumsum([len(k) for k in picks])[:-1]
    return [conservation_drift(v) for v in np.split(values, splits)]


def _check(name: str, value: float, tol: float) -> dict:
    """The row of a check that passes when value <= tol."""
    return {"name": name, "value": value, "tol": tol, "pass": value <= tol}


def _finish(command: str, pair: MetricPair, cfg: RunConfig, checks: list, **body) -> tuple[dict, int]:
    """The report of a checking command, and its exit code: 1 when any check
    failed."""
    violations = [c["name"] for c in checks if not c["pass"]]
    report = {
        "command": command,
        "pair": pair.pair_id,
        "dim": pair.dim,
        "seed": cfg.seed,
        **body,
        "checks": checks,
        "violations": violations,
        "pass": not violations,
        "timestamp": _stamp(),
    }
    return report, 1 if violations else 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Conservation of every integral along seeded geodesics, pairwise
    brackets at seeded phase points, and the independence rank."""
    pair = resolve_config_pair(cfg.pair)
    rng = np.random.default_rng(cfg.seed)
    trajs = _integrate_starts(pair, cfg, rng)
    drifts = _drifts(lambda xs, xis: integrals_at(pair, xs, xis), trajs,
                     [np.arange(len(t)) for t in trajs])
    rows = [{
        "point_id": pid,
        "drift": [float(d) for d in drift],
        "energy_drift": float(traj.energy_drift),
        "left_domain": bool(traj.left_domain),
        "t_reached": float(traj.ts[-1]),
    } for pid, (traj, drift) in enumerate(zip(trajs, drifts))]
    drift_max = float(np.max([r["drift"] for r in rows]))

    xs, xis = sample_phase_points(pair, cfg.points, rng)
    brackets, rank = involution_and_rank(pair, xs, xis, cfg.rank_tol)
    offdiag = brackets - np.diag(np.diag(brackets))
    bracket_max = float(np.max(np.abs(offdiag)))
    diag_max = float(np.max(np.abs(np.diag(brackets))))

    profiles = [eigen_profile(pair, x) for x in xs[:5]]
    m_required = max(pr.m for pr in profiles)

    checks = [
        _check("conservation", drift_max, cfg.drift_tol),
        _check("involution", bracket_max, cfg.bracket_tol),
        _check("involution-diagonal", diag_max, 0.0),
        {"name": "independence-rank", "value": float(rank), "tol": float(m_required),
         "pass": rank >= m_required},
    ]
    return _finish(
        "verify", pair, cfg, checks,
        tolerances={"drift": cfg.drift_tol, "bracket": cfg.bracket_tol,
                    "rank": cfg.rank_tol},
        trajectories=rows,
        involution={"max_offdiagonal": bracket_max, "max_diagonal": diag_max,
                    "points": cfg.points},
        independence={"rank": int(rank), "required": int(m_required)},
    )


def _verify_csv(report: dict) -> str:
    k = len(report["trajectories"][0]["drift"])
    cols = ["point_id", *(f"drift_I{i}" for i in range(k)), "energy_drift", "left_domain"]
    return _number_csv(cols, [[r["point_id"], *r["drift"], r["energy_drift"],
                               int(r["left_domain"])] for r in report["trajectories"]])


# ---------------------------------------------------------------------------
# factory


def cmd_factory(cfg: RunConfig) -> tuple[dict, int]:
    """Quotient-polynomial coefficients at seeded phase points, with the
    division remainder, the closed-form cross-check, and conservation of
    the coefficients along seeded geodesics.

    The remainder vanishes pointwise for any smooth pair (divisibility is
    pointwise algebra); it is the conservation check that discriminates
    equivalent pairs from broken ones.
    """
    pair = resolve_config_pair(cfg.pair)
    rng = np.random.default_rng(cfg.seed)
    xs, xis = sample_phase_points(pair, cfg.points, rng)
    fi = factory_integrals(pair, xs, xis)
    closed = coeffs_from_closed_form(pair, xs, xis)
    rows = []
    for pid, coeffs in enumerate(fi.coeffs):
        scale = float(np.linalg.norm(coeffs))
        rows.append({
            "point_id": pid,
            "a": float(fi.a[pid]),
            "coeffs": [float(c) for c in coeffs],
            "closed_form": [float(c) for c in closed[pid]],
            "remainder": float(fi.remainder[pid]),
            "remainder_rel": float(abs(fi.remainder[pid]) / scale),
            "crosscheck": float(np.max(np.abs(coeffs - closed[pid]))),
        })
    rem_max = float(np.max([r["remainder_rel"] for r in rows]))
    cross_max = float(np.max([r["crosscheck"] for r in rows]))

    # conservation: integrate every start, then take the factory route once
    # over every step-th sample of all trajectories
    trajs = _integrate_starts(pair, cfg, rng)
    drifts = _drifts(lambda xs, xis: factory_integrals(pair, xs, xis).coeffs, trajs,
                     [np.arange(0, len(t), max(1, len(t) // 50)) for t in trajs])
    traj_rows = [{"point_id": pid, "coeff_drift": [float(d) for d in drift]}
                 for pid, drift in enumerate(drifts)]
    drift_max = float(np.max([r["coeff_drift"] for r in traj_rows]))

    checks = [
        _check("factory-remainder", rem_max, FACTORY_REMAINDER_TOL),
        _check("factory-crosscheck", cross_max, FACTORY_CROSSCHECK_TOL),
        _check("factory-conservation", drift_max, cfg.drift_tol),
    ]
    return _finish("factory", pair, cfg, checks, points=rows, conservation=traj_rows)


def _factory_csv(report: dict) -> str:
    k = len(report["points"][0]["coeffs"])
    cols = ["point_id", "a", *(f"b{i}" for i in range(k)), "remainder", "remainder_rel",
            "crosscheck"]
    return _number_csv(cols, [[r["point_id"], r["a"], *r["coeffs"], r["remainder"],
                               r["remainder_rel"], r["crosscheck"]] for r in report["points"]])


# ---------------------------------------------------------------------------
# geodesic


def cmd_geodesic(cfg: RunConfig) -> tuple[dict, int]:
    """Compare seeded geodesics of both metrics as unparameterized curves,
    summarize the distance per direction, and export the curves compared."""
    _max_workers(cfg.trajectories)  # refuse a malformed thread cap before any work
    pair = resolve_config_pair(cfg.pair)
    rng = np.random.default_rng(cfg.seed)
    xs, xis = sample_phase_points(pair, cfg.trajectories, rng)
    out_dir = Path(cfg.out) if cfg.out is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    dists, tgs, tbs, g_lengths = geodesic_coincidence(pair.g, pair.gbar, xs, xis, cfg.t_end)

    def one_direction(job):
        pid, (dist, tg, tb, g_length) = job
        row = {
            "point_id": pid,
            "curve_distance": float(dist),
            "g_arc_length": float(g_length),
            "left_domain_g": bool(tg.left_domain),
            "left_domain_gbar": bool(tb.left_domain),
        }
        if tg.left_domain or tb.left_domain:
            row["warning"] = "chart exit: partial trajectory"
        if out_dir is not None:
            for tag, traj in (("g", tg), ("gbar", tb)):
                # every third of the 3001 samples compared: 1001 rows
                traj = replace(traj, ts=traj.ts[::3], xs=traj.xs[::3], xis=traj.xis[::3])
                name = f"geodesic_{pid:03d}_{tag}"
                if cfg.out_format == "csv":
                    (out_dir / f"{name}.csv").write_text(trajectory_to_csv(traj))
                else:
                    (out_dir / f"{name}.json").write_text(trajectory_to_json(traj))
        return row

    rows = _pmap(one_direction, list(enumerate(zip(dists, tgs, tbs, g_lengths))))
    report = {
        "command": "geodesic",
        "pair": pair.pair_id,
        "dim": pair.dim,
        "seed": cfg.seed,
        "t_end": cfg.t_end,
        "directions": rows,
        "curve_distance_max": float(np.max([r["curve_distance"] for r in rows])),
        "warnings": [r["point_id"] for r in rows if "warning" in r],
        "timestamp": _stamp(),
    }
    if out_dir is not None:
        (out_dir / "summary.json").write_text(_report_json(report))
    return report, 0


# ---------------------------------------------------------------------------
# levi-civita-build and catalog


def cmd_lc_build(config_path: str, out: str | None) -> int:
    """Build a normal-form pair from its JSON config and emit the equivalent
    inline metric-pair config (DSL strings keyed g[i][j] / gbar[i][j])."""
    _check_out(out, False)
    try:
        lc = build_pair(lcspec_from_json(_read_json(config_path)))
    except (ValueError, DslError) as exc:
        raise ConfigError(f"normal-form build failed: {exc}")
    chart = lc.chart
    entry: dict = {
        "id": lc.pair.pair_id,
        "coordinates": list(chart.names),
        "box": [list(iv) for iv in chart.sample_box],
        "domain": None,
    }
    n = chart.dim
    for i in range(n):
        for j in range(i, n):
            entry[f"g[{i+1}][{j+1}]"] = str(lc.pair.g.entry(i, j))
            entry[f"gbar[{i+1}][{j+1}]"] = str(lc.pair.gbar.entry(i, j))
    _emit(_report_json({"pair": entry}), out)
    return 0


def cmd_catalog(out_format: str, out: str | None) -> int:
    """List the built-in pair names with one-line descriptions."""
    _check_out(out, False)
    entries = [
        {"name": "sphere", "info": "round 2-sphere with itself (sanity pair)"},
        {"name": "euclidean:<n>", "info": "flat identity pair in n dimensions"},
        {"name": "ellipsoid:<a1,..,an>", "info":
            "induced metric on the ellipsoid sum x_k^2/a_k = 1 with its "
            "weighted companion, elliptic coordinates"},
        {"name": "lc:<path>", "info": "normal-form pair from a JSON config"},
        {"name": "falsify:perturbed-lc[:amp]", "info":
            "normal-form pair with gbar scaled by 1 + amp*sin(x1*x2), default 0.1"},
        {"name": "falsify:random-conformal[:amp]", "info":
            "flat g with gbar = exp(amp*x1) g, default amp 1"},
    ]
    for key in sorted(battery()):
        spec = battery()[key]
        entries.append({
            "name": f"lc-demo:{key}",
            "info": f"normal-form demo, blocks {list(spec.sizes)}, dim {spec.dim}",
        })
    if out_format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("name", "info")] + [(e["name"], e["info"]) for e in entries])
        text = buf.getvalue()
    else:
        text = _report_json({"catalog": entries})
    _emit(text, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodequiv",
        description="first integrals of geodesic flows from equivalent metric pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flag dests are the RunConfig field names
    for name, info in (("verify", "conservation/involution/rank suite"),
                       ("factory", "quotient-coefficient cross-checks"),
                       ("geodesic", "trajectory export and curve comparison")):
        p = sub.add_parser(name, help=info)
        p.add_argument("--pair", help="catalog pair name (see the catalog subcommand)")
        p.add_argument("--config", help="JSON run-config path")
        p.add_argument("--seed", type=int, help="PRNG seed, echoed in the report")
        p.add_argument("--tol-drift", type=float, dest="drift_tol",
                       help="conservation tolerance (default 1e-6)")
        p.add_argument("--tol-bracket", type=float, dest="bracket_tol",
                       help="involution tolerance (default 1e-8)")
        p.add_argument("--t-end", type=float, dest="t_end",
                       help="integration time / arc-length window (default 5)")
        p.add_argument("--trajectories", type=int, help="geodesic count (default 20)")
        p.add_argument("--points", type=int, help="phase sample count (default 100)")
        p.add_argument("--format", choices=("json", "csv"), dest="out_format",
                       help="report format")
        p.add_argument("--out", help="output path (directory for geodesic)")

    lcb = sub.add_parser("levi-civita-build", help="normal-form pair to metric config")
    lcb.add_argument("--config", required=True, help="normal-form JSON config path")
    lcb.add_argument("--out", help="output path (default stdout)")

    cat = sub.add_parser("catalog", help="list built-in pairs")
    cat.add_argument("--format", choices=("json", "csv"), default="json", dest="out_format")
    cat.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code or 0)
    try:
        if args.command == "catalog":
            return cmd_catalog(args.out_format, args.out)
        if args.command == "levi-civita-build":
            return cmd_lc_build(args.config, args.out)
        cfg = load_config(args)
        if args.command == "geodesic":
            report, code = cmd_geodesic(cfg)
            if cfg.out is None:  # with --out, summary.json holds the report
                _emit(_report_json(report), None)
            return code
        command, to_csv = {"verify": (cmd_verify, _verify_csv),
                           "factory": (cmd_factory, _factory_csv)}[args.command]
        report, code = command(cfg)
        _emit(to_csv(report) if cfg.out_format == "csv" else _report_json(report), cfg.out)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
